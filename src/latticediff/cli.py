"""Command-line entry point: subcommands, deterministic outputs, manifests.

Every command that writes files also writes a run manifest next to its
primary output.  The manifest hash covers only the deterministic run
identity (config hash, command, flags, seed, versions); wall time and the
output list are recorded in the manifest but not hashed, so repeated runs
with identical inputs produce byte-identical data files, each of which
embeds the manifest hash.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .model import (NumericError, ValidationError, ensure_valid,
                    model_from_json, validate_model)
from .reservoir import check_subluminal_decay, correlation_samples
from .generator import assemble_fiber, build_rate_table, escape_rates
from .spectral import (diffusion_tensor_continuum, diffusion_tensor_formula,
                       diffusion_tensor_hessian, perron_curve, spectral_gaps)
from .kmc import check_ensemble_args, run_ensemble, sample_paths
from .diagrams import (DiagramError, check_lemma_bounds, classify,
                       enumerate_pairings)

CONFIG_ERRORS = (ValidationError, DiagramError, FileNotFoundError,
                 json.JSONDecodeError, KeyError, ValueError)


def _versions():
    return {
        "latticediff": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def _manifest(config_hash, command, flags, seed, outputs):
    core = {
        "command": command,
        "config_hash": config_hash,
        "flags": flags,
        "seed": seed,
        "versions": _versions(),
    }
    blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
    core["manifest_hash"] = hashlib.sha256(blob.encode()).hexdigest()
    core["outputs"] = outputs
    return core


def _write_manifest(manifest, out_path, wall_time):
    manifest = dict(manifest)
    manifest["wall_time_s"] = round(wall_time, 3)
    path = os.path.splitext(out_path)[0] + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_json(payload, path, manifest_hash):
    payload = dict(payload)
    payload["manifest_hash"] = manifest_hash
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(rows, header, path, manifest_hash):
    with open(path, "w") as fh:
        fh.write(f"# manifest: {manifest_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


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
            return eval(code, {"__builtins__": {}}, {**allowed, "t": t})
        except (ZeroDivisionError, TypeError) as exc:
            # a DiagramError, because the kernel norms map ValueError to inf
            raise DiagramError(f"kernel expression {expr!r} fails at "
                               f"t = {t}: {exc}") from exc

    return k


def cmd_validate(args):
    cfg = model_from_json(args.config)
    report = validate_model(cfg)
    manifest = _manifest(cfg.config_hash(), "validate",
                         {"config": args.config}, cfg.rng_seed,
                         [args.out] if args.out else [])
    payload = report.to_dict()
    if args.out:
        _write_json(payload, args.out, manifest["manifest_hash"])
        _write_manifest(manifest, args.out, args.wall_time())
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
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
    times = np.linspace(0.0, args.tmax, args.points)
    samples = correlation_samples(cfg.bath, x, times)
    manifest = _manifest(cfg.config_hash(), "psi",
                         {"config": args.config, "x": args.x,
                          "tmax": args.tmax, "points": args.points},
                         cfg.rng_seed, [args.out])
    rows = [(s.t, s.value.real, s.value.imag) for s in samples]
    _write_csv(rows, ["t", "re", "im"], args.out, manifest["manifest_hash"])
    if args.decay_check:
        fit = check_subluminal_decay(cfg.bath, args.v_star, args.tmax)
        _write_json(fit.to_dict(), args.decay_check, manifest["manifest_hash"])
    _write_manifest(manifest, args.out, args.wall_time())
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
        "channels": [
            {"source": c.source, "target": c.target, "bohr": c.bohr,
             "amplitude": c.amplitude, "radius": c.radius}
            for c in table.channels
        ],
    }
    outputs = [args.out]
    if args.dump_matrix:
        outputs.append(args.matrix_out)
    manifest = _manifest(cfg.config_hash(), "rates",
                         {"config": args.config,
                          "dump_matrix": args.dump_matrix or ""},
                         cfg.rng_seed, outputs)
    _write_json(payload, args.out, manifest["manifest_hash"])
    if p is not None:
        block = assemble_fiber(cfg, table, p, 0.0)
        mat = np.asarray(block.matrix, dtype=complex)
        rows = []
        nz = np.nonzero(mat)
        for r, c in zip(*nz):
            v = mat[r, c]
            rows.append((int(r), int(c), float(v.real), float(v.imag)))
        _write_csv(rows, ["row", "col", "re", "im"], args.matrix_out,
                   manifest["manifest_hash"])
    _write_manifest(manifest, args.out, args.wall_time())
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
    manifest = _manifest(cfg.config_hash(), "spectrum",
                         {"config": args.config, "pmax": args.pmax,
                          "steps": args.steps},
                         cfg.rng_seed, [args.out])
    rows = [(float(np.linalg.norm(pt.p)), pt.eigenvalue.real,
             pt.eigenvalue.imag, pt.gap) for pt in points]
    _write_csv(rows, ["p", "eig_re", "eig_im", "gap"], args.out,
               manifest["manifest_hash"])
    _write_manifest(manifest, args.out, args.wall_time())
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
    manifest = _manifest(cfg.config_hash(), "diffusion",
                         {"config": args.config,
                          "kmc_traj": args.kmc_traj or 0},
                         cfg.rng_seed, [args.out])
    _write_json(payload, args.out, manifest["manifest_hash"])
    _write_manifest(manifest, args.out, args.wall_time())
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
    outputs = [args.out] + ([args.dump_paths] if args.dump_paths else [])
    manifest = _manifest(cfg.config_hash(), "simulate",
                         {"config": args.config, "traj": args.traj,
                          "tfinal": args.tfinal, "probes": args.probes or ""},
                         cfg.rng_seed, outputs)
    _write_json(stats.to_dict(), args.out, manifest["manifest_hash"])
    if paths is not None:
        rows = []
        for (i, t, x, k, level) in paths:
            rows.append((i, float(t),
                         *(float(v) for v in x), *(float(v) for v in k),
                         int(level)))
        header = (["path", "t"] + [f"x{j}" for j in range(cfg.dim)]
                  + [f"k{j}" for j in range(cfg.dim)] + ["level"])
        _write_csv(rows, header, args.dump_paths, manifest["manifest_hash"])
    _write_manifest(manifest, args.out, args.wall_time())
    return 0


def cmd_diagrams(args):
    if args.list:
        shapes = enumerate_pairings(args.n)
        for dc in shapes:
            print(f"{dc.pairs} {classify(dc)}")
        return 0
    if not args.check_d1:
        raise ValueError("diagrams needs --list or --check-d1")
    k = _kernel_from_expression(args.k)
    report = check_lemma_bounds(k, args.a, n_max=args.nmax,
                                mc_samples=int(float(args.samples)),
                                seed=args.seed)
    manifest = _manifest(hashlib.sha256(args.k.encode()).hexdigest(),
                         "diagrams",
                         {"k": args.k, "a": args.a, "nmax": args.nmax,
                          "samples": args.samples},
                         args.seed, [args.out] if args.out else [])
    payload = report.to_dict()
    if args.out:
        _write_json(payload, args.out, manifest["manifest_hash"])
        _write_manifest(manifest, args.out, args.wall_time())
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.time()
    args.wall_time = lambda: time.time() - start
    try:
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
