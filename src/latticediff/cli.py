"""Command-line entry point: subcommands, deterministic outputs, manifests.

Each command computes all of its outputs first and hands them to `_emit`,
the one writer of data files, their manifest-hash stamps and the run
manifest.  Repeated runs with identical inputs give byte-identical data
files.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np
import scipy

from . import __version__
from .model import (NumericError, ValidationError, ensure_valid,
                    model_from_json, validate_model)
from .reservoir import check_subluminal_decay, psi_xt_batch
from .generator import (DenseSizeError, assemble_fiber, build_rate_table,
                        escape_rates)
from .spectral import (diffusion_tensor_continuum, diffusion_tensor_formula,
                       diffusion_tensor_hessian, perron_curve, spectral_gaps)
from .kmc import check_ensemble_args, run_ensemble, sample_paths
from .diagrams import (DiagramError, check_lemma_bounds, classify,
                       enumerate_pairings)

CONFIG_ERRORS = (ValidationError, DiagramError, DenseSizeError,
                 FileNotFoundError, json.JSONDecodeError, KeyError, ValueError)


def _versions():
    return {
        "latticediff": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


# Parsed arguments outside a run's identity: internals, the worker count
# (outputs are byte-identical across it), the config path (its contents are
# in the config hash) and the output paths.  Any new option is hashed.
UNHASHED = frozenset({"command", "func", "wall_time", "threads", "config",
                      "out", "matrix_out", "decay_check", "dump_paths"})


def _nonfinite(value, path=""):
    """Paths (JSON-pointer style) of the floats in nested dicts and lists
    that are not finite."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, (list, tuple)) else ())
    return [p for k, v in items for p in _nonfinite(v, f"{path}/{k}")]


def _render(where, stamp, content):
    """The text of one output: JSON for a dict, else CSV stamped with
    `stamp`.  A float that is not finite, which neither format can hold,
    raises `NumericError` naming `where` and the field."""
    if isinstance(content, dict):
        try:
            return json.dumps(content, indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
        except ValueError:
            bad = _nonfinite(content)
    else:
        header, rows = content
        if all(all(map(math.isfinite, row)) for row in rows):
            return "\n".join(
                [f"# manifest: {stamp}", ",".join(header)]
                + [",".join(repr(v) if isinstance(v, float) else str(v)
                            for v in row) for row in rows]) + "\n"
        bad = _nonfinite([dict(zip(header, row)) for row in rows])
    raise NumericError(f"{where}: not finite at {', '.join(bad)}; "
                       "JSON and CSV hold finite numbers only")


def _emit(args, config_hash, seed, files):
    """Write every output of a run, each stamped with the manifest hash,
    then the run manifest next to the first output.

    `files` holds finished contents as (path, content) pairs: a dict is
    written as JSON, a (header, rows) pair as CSV, and a pair without a
    path is skipped.  The hash covers the command, config hash, seed,
    versions and, as `flags`, every parsed argument outside `UNHASHED`;
    the config path, outputs and wall time are recorded, not hashed.  With
    no path at all, the first content is printed as JSON.  Every output is
    rendered before the first file opens: a float that is not finite
    raises `NumericError` naming the file and the field, and nothing is
    written.
    """
    written = [(path, content) for path, content in files if path]
    if not written:
        sys.stdout.write(_render("stdout", None, files[0][1]))
        return
    flags = {k: v for k, v in vars(args).items() if k not in UNHASHED}
    manifest = {"command": args.command, "config_hash": config_hash,
                "flags": flags, "seed": seed, "versions": _versions()}
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    stamp = hashlib.sha256(blob.encode()).hexdigest()
    manifest["config"] = vars(args).get("config")
    manifest["outputs"] = [path for path, _ in written]
    manifest["wall_time_s"] = round(args.wall_time(), 3)
    written.append((os.path.splitext(written[0][0])[0] + ".manifest.json",
                    manifest))
    texts = [(path, _render(path, stamp, {**content, "manifest_hash": stamp}
                            if isinstance(content, dict) else content))
             for path, content in written]
    for path, text in texts:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_vector(text, dim=None):
    vals = [float(v) for v in str(text).split(",") if v != ""]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"vector components must be finite, got {text!r}")
    if dim is not None:
        if len(vals) == 1 and dim > 1:
            vals = vals + [0.0] * (dim - 1)
        if len(vals) != dim:
            raise ValueError(f"expected {dim} components, got {len(vals)}")
    return np.asarray(vals)


def _kernel_from_expression(expr):
    allowed = {"exp": np.exp, "sqrt": np.sqrt, "cos": np.cos, "sin": np.sin,
               "pi": math.pi, "abs": np.abs}
    code = compile(expr, "<kernel>", "eval")
    for name in code.co_names:
        if name not in allowed and name != "t":
            raise ValueError(f"kernel expression uses unknown name {name!r}")

    def k(t):
        try:
            return np.asarray(eval(code, {"__builtins__": {}},
                                   {**allowed, "t": t}), dtype=float)
        except (ZeroDivisionError, TypeError, ValueError) as exc:
            # a DiagramError, which names the expression at fault
            raise DiagramError(f"kernel expression {expr!r} fails at "
                               f"t = {t}: {exc}") from exc

    return k


def cmd_validate(args):
    cfg = model_from_json(args.config)
    report = validate_model(cfg)
    _emit(args, cfg.config_hash(), cfg.rng_seed,
          [(args.out, report.to_dict())])
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        raise ValidationError(f"validation failed: {names}")
    return 0


def cmd_psi(args):
    if not (math.isfinite(args.tmax) and args.tmax > 0):
        raise ValueError(f"--tmax must be finite and positive, got {args.tmax}")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    cfg = model_from_json(args.config)
    x = _parse_vector(args.x, cfg.dim)
    fit = (check_subluminal_decay(cfg.bath, args.v_star, args.tmax)
           if args.decay_check else None)
    times = np.linspace(0.0, args.tmax, args.points)
    values = psi_xt_batch(cfg.bath, np.tile(x, (len(times), 1)), times,
                          check=False)
    rows = [(float(t), float(v.real), float(v.imag))
            for t, v in zip(times, values)]
    _emit(args, cfg.config_hash(), cfg.rng_seed,
          [(args.out, (["t", "re", "im"], rows)),
           (args.decay_check, asdict(fit) if fit else None)])
    return 0


def cmd_rates(args):
    cfg = model_from_json(args.config)
    ensure_valid(cfg)
    p = None
    if args.dump_matrix:
        if not args.dump_matrix.startswith("p="):
            raise ValueError("--dump-matrix expects the form p=<comma floats>")
        p = _parse_vector(args.dump_matrix[2:], cfg.dim)
    table = build_rate_table(cfg)
    rates = escape_rates(table)
    payload = {
        "levels": list(table.levels),
        "escape_rates": rates.tolist(),
        "sphere_weight_total": float(table.weight_array.sum()),
        "channels": [asdict(c) for c in table.channels],
    }
    matrix = None
    if p is not None:
        block = assemble_fiber(cfg, table, p, 0.0)
        mat = np.asarray(block.matrix, dtype=complex)
        r, c = np.nonzero(mat)
        v = mat[r, c]
        rows = list(zip(r.tolist(), c.tolist(), v.real.tolist(),
                        v.imag.tolist()))
        matrix = (["row", "col", "re", "im"], rows)
    _emit(args, cfg.config_hash(), cfg.rng_seed,
          [(args.out, payload),
           (args.matrix_out if p is not None else None, matrix)])
    return 0


def cmd_spectrum(args):
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if not math.isfinite(args.pmax):
        raise ValueError(f"--pmax must be finite, got {args.pmax}")
    cfg = model_from_json(args.config)
    ensure_valid(cfg)
    table = build_rate_table(cfg)
    scales = np.linspace(0.0, args.pmax, args.steps)
    ps = [np.concatenate([[s], np.zeros(cfg.dim - 1)]) for s in scales]
    points = perron_curve(cfg, table, ps)
    rows = [(float(np.linalg.norm(pt.p)), pt.eigenvalue.real,
             pt.eigenvalue.imag, pt.gap) for pt in points]
    _emit(args, cfg.config_hash(), cfg.rng_seed,
          [(args.out, (["p", "eig_re", "eig_im", "gap"], rows))])
    return 0


def cmd_diffusion(args):
    if args.kmc_traj:
        # 0 asks for the default horizon, 200 / g_low, known only after the gaps
        check_ensemble_args(args.kmc_traj, args.kmc_tfinal or 1.0)
    cfg = model_from_json(args.config)
    ensure_valid(cfg)
    table = build_rate_table(cfg)
    hess = diffusion_tensor_hessian(cfg, table)
    formula = diffusion_tensor_formula(cfg, table)
    gaps = spectral_gaps(cfg, table)
    payload = {
        "hessian": hess.tensor.tolist(),
        "formula": formula.tolist(),
        "continuum": diffusion_tensor_continuum(cfg, table).tolist(),
        "hessian_gradient_norm": hess.gradient_norm,
        "hessian_richardson_defect": hess.richardson_defect,
        "gaps": gaps.to_dict(),
        "kmc": None,
        "kmc_se": None,
    }
    if args.kmc_traj:
        t_final = args.kmc_tfinal or 200.0 / gaps.g_low
        stats = run_ensemble(cfg, args.kmc_traj, t_final, table=table,
                             threads=args.threads, g_low=gaps.g_low)
        payload["kmc"] = stats.diffusion.tolist()
        payload["kmc_se"] = stats.diffusion_se.tolist()
        payload["kmc_t_final"] = t_final
    _emit(args, cfg.config_hash(), cfg.rng_seed, [(args.out, payload)])
    return 0


def cmd_simulate(args):
    cfg = model_from_json(args.config)
    ensure_valid(cfg)
    table = build_rate_table(cfg)
    probes = []
    if args.probes:
        for scale in (float(v) for v in args.probes.split(",")):
            probes.append(np.concatenate([[scale], np.zeros(cfg.dim - 1)]))
    # the paths go first: sample_paths rejects --n-paths before any output
    paths = (sample_paths(cfg, args.n_paths, args.tfinal, table=table)
             if args.dump_paths else None)
    stats = run_ensemble(cfg, args.traj, args.tfinal, probes=probes,
                         table=table, threads=args.threads)
    dump = None
    if paths is not None:
        rows = [(i, t, *x, *k, level) for i, t, x, k, level in paths]
        header = (["path", "t"] + [f"x{j}" for j in range(cfg.dim)]
                  + [f"k{j}" for j in range(cfg.dim)] + ["level"])
        dump = (header, rows)
    _emit(args, cfg.config_hash(), cfg.rng_seed,
          [(args.out, stats.to_dict()), (args.dump_paths, dump)])
    return 0


def cmd_diagrams(args):
    if args.list:
        shapes = enumerate_pairings(args.n)
        for dc in shapes:
            print(f"{dc.pairs} {classify(dc)}")
        return 0
    if not args.check_d1:
        raise ValueError("diagrams needs --list or --check-d1")
    samples = float(args.samples)
    if not samples.is_integer():  # refused, not truncated; inf and nan too
        raise ValueError(f"--samples must be an integer, got {args.samples!r}")
    k = _kernel_from_expression(args.k)
    report = check_lemma_bounds(k, args.a, n_max=args.nmax,
                                mc_samples=int(samples), seed=args.seed)
    _emit(args, hashlib.sha256(args.k.encode()).hexdigest(), args.seed,
          [(args.out, report.to_dict())])
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as `ValueError`, so that `main` reports them as JSON."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="latticediff",
        description="Lattice particle in a thermal boson bath: generator "
                    "assembly, spectra, diffusion, simulation, diagram bounds.",
    )
    parser.add_argument("--threads", type=int,
                        default=os.environ.get("LATTICEDIFF_THREADS",
                                               str(os.cpu_count() or 1)),
                        help="worker pool size for trajectory blocks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model assumptions")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("psi", help="bath correlation function samples")
    p.add_argument("--config", required=True)
    p.add_argument("--x", default="0")
    p.add_argument("--tmax", type=float, default=100.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", required=True)
    p.add_argument("--decay-check", help="also write a cone decay-fit JSON")
    p.add_argument("--v-star", type=float, default=0.5)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("rates", help="jump-rate table and escape rates")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-matrix", help="e.g. p=0 to dump the population block")
    p.add_argument("--matrix-out", default="matrix.csv")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("spectrum", help="fiber eigenvalue curve and gaps")
    p.add_argument("--config", required=True)
    p.add_argument("--pmax", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("diffusion", help="diffusion tensor by both methods")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kmc-traj", type=int, default=0,
                   help="also estimate by simulation with this many walkers")
    p.add_argument("--kmc-tfinal", type=float, default=0.0)
    p.set_defaults(func=cmd_diffusion)

    p = sub.add_parser("simulate", help="trajectory ensemble estimators")
    p.add_argument("--config", required=True)
    p.add_argument("--traj", type=int, default=100000)
    p.add_argument("--tfinal", type=float, default=200.0)
    p.add_argument("--probes", help="comma list of axis-0 probe momenta")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-paths")
    p.add_argument("--n-paths", type=int, default=4)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("diagrams", help="pairing shapes and Laplace bounds")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--list", action="store_true")
    p.add_argument("--check-d1", action="store_true")
    p.add_argument("--k", default="0.05*exp(-t)")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--samples", default="1e6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagrams)

    return parser


def main(argv=None):
    start = time.time()
    try:
        args = build_parser().parse_args(argv)
        args.wall_time = lambda: time.time() - start
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except (NumericError, np.linalg.LinAlgError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1
    except CONFIG_ERRORS as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
