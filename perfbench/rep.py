"""One repetition of a workload in a fresh process.

    python -m perfbench.rep --workload NAME --config PATH --out DIR \
        --seed N --threads K --trace 0|1

Started by `run.py` with BLAS and OpenMP pinned and `src` on the path.  A
fresh process per repetition means every repetition pays what a user of
the CLI pays: imports and the package's per-process caches start cold.
Writes `record.json` (and, traced, `spans.json`) into the output directory.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path


def _environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench.rep")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--threads", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # set-up as a user pays it: import, load the config, build the rate table
    start = time.perf_counter()
    from latticediff import cli, generator, model  # noqa: F401
    cfg = model.model_from_json(args.config)
    table = generator.build_rate_table(cfg)
    setup_s = time.perf_counter() - start

    from perfbench import spans, workloads

    tracer = spans.Tracer()
    rep = workloads.Rep(args.config, args.out, args.seed, args.threads,
                        tracer, cfg, table)
    reference, run = workloads.WORKLOADS[args.workload]
    if reference is not None:
        rep.reference = reference(rep)
    boundaries = tracer.installed() if args.trace else contextlib.nullcontext()
    with boundaries, tracer.span("rep", "rep") as root:
        run(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    record = {
        "setup_s": setup_s,
        "wall_s": root.duration,
        "peak_rss_mb": peak_rss_mb,
        "traced": bool(args.trace),
        "checks": rep.checks,
        "data_hashes": rep.data_hashes,
        "layers": (spans.layer_metrics(tracer.spans, tracer.spans.index(root))
                   if args.trace else None),
        "environment": _environment(),
    }
    if args.trace:
        with open(args.out / "spans.json", "w") as fh:
            json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    with open(args.out / "record.json", "w") as fh:
        json.dump(record, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
