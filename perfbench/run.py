"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cli-1d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload is a closed loop with
one client: repetitions run one after another, each in a fresh process
(`perfbench/rep.py`) with BLAS and OpenMP pinned to one thread and at most
`nproc` KMC worker threads.  Repetitions start until `--seconds` have
passed, so the last one ends after that; at least MIN_REPS run unless the
next one would end after RUN_LIMIT_S.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones (medians) and the tracing overhead.

Every output check of every repetition counts as attempted; a failed
check, a nonzero exit or a missing record counts as failed.  The last
line of standard output is the result; progress goes to standard error.
Inputs and outputs live under perfbench/_work/<workload>-seed<seed>/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import inputs, spans  # noqa: E402

WORK = ROOT / "perfbench" / "_work"
BLAS_THREADS = 1
KMC_THREADS = min(2, os.cpu_count() or 1)
MIN_REPS = 3
RUN_LIMIT_S = 160   # the whole run ends within this, even below MIN_REPS
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pinned_environment():
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_rep(args, index, traced, config, run_dir, env, timeout):
    """One repetition process; returns its record, or None if it failed."""
    out = run_dir / f"rep{index}"
    out.mkdir()
    cmd = [sys.executable, "-m", "perfbench.rep", "--workload", args.workload,
           "--config", str(config), "--out", str(out), "--seed", str(args.seed),
           "--threads", str(KMC_THREADS), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"rep {index}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    record_path = out / "record.json"
    if proc.returncode != 0 or not record_path.is_file():
        print(f"rep {index}: exit code {proc.returncode}", file=sys.stderr)
        return None
    with open(record_path) as fh:
        return json.load(fh)


def count_checks(records):
    """(attempted, failed) over all repetitions, None standing for a failed
    process.  Data files must be byte-identical across repetitions."""
    attempted = failed = 0
    first_hashes = None
    for record in records:
        attempted += 1
        if record is None:
            failed += 1
            continue
        for check in record["checks"]:
            attempted += 1
            if not check["passed"]:
                failed += 1
                print(f"check failed: {check['name']}: {check['detail']}",
                      file=sys.stderr)
        if record["data_hashes"]:
            if first_hashes is None:
                first_hashes = record["data_hashes"]
            else:
                attempted += 1
                if record["data_hashes"] != first_hashes:
                    failed += 1
                    print("check failed: data files differ between "
                          "repetitions", file=sys.stderr)
    return attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records):
    return {name: metric(statistics.median(r[name] for r in records), unit)
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(traced, untraced):
    out = {}
    for name, unit in spans.PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in untraced))
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = metric(value, unit)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.SOURCES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "latticediff" / "__init__.py").is_file():
        print(f"no latticediff sources under {ROOT / 'src'}: run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = inputs.write_inputs(ROOT, args.workload, args.seed, run_dir)
    env = pinned_environment()

    records = []
    start = time.perf_counter()
    took = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(records) >= MIN_REPS:
            break
        if elapsed + took > RUN_LIMIT_S:   # the next one would not end in time
            break
        traced = bool(args.trace) and len(records) % 2 == 0
        began = time.perf_counter()
        records.append(run_rep(args, len(records), traced, config, run_dir,
                               env, RUN_LIMIT_S - elapsed))
        took = time.perf_counter() - began

    attempted, failed = count_checks(records)
    done = [r for r in records if r is not None]
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("no repetition completed: no metrics to report", file=sys.stderr)
        return 1
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)

    info = {"workload": args.workload, "seed": args.seed,
            "repetitions": len(records), "samples": len(untraced),
            "traced_samples": len(traced),
            "kmc_threads": KMC_THREADS,
            "environment": done[0]["environment"],
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_s": [r["setup_s"] for r in untraced]}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
