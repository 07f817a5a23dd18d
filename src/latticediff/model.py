"""Model definition: dispersion on the torus, internal levels, momentum grid.

A model couples a heavy particle hopping on Z^d (kinetic energy given by a
periodic dispersion) with a finite ladder of internal levels, to a thermal
boson bath described by a `BathProfile` (see `latticediff.reservoir`).  All
types here are plain frozen dataclasses; they are immutable after
construction and safe to share across threads.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np


class ValidationError(Exception):
    """A model violates one of its standing assumptions."""


class NumericError(Exception):
    """A computation failed its own convergence or consistency check."""


@dataclass(frozen=True)
class DispersionSpec:
    """Periodic dispersion on the torus [-pi, pi)^d.

    kind "nearest_neighbor" is eps(k) = sum_i 2 (1 - cos k_i), and takes
    no coefficients.  kind "cosine_series" is eps(k) = sum_i sum_m
    c[i][m-1] (1 - cos(m k_i)), with one amplitude list per axis (a flat
    list is broadcast to all axes).  Both are even in k by construction.
    """

    kind: str
    coefficients: tuple = ()

    def __post_init__(self):
        if self.kind not in ("nearest_neighbor", "cosine_series"):
            raise ValidationError(f"unknown dispersion kind {self.kind!r}")
        if self.kind == "nearest_neighbor" and len(self.coefficients):
            raise ValidationError(
                "dispersion.coefficients must be empty for kind "
                f"'nearest_neighbor', got {list(self.coefficients)!r}")
        if self.kind == "cosine_series":
            coeffs = self.coefficients
            if coeffs and not isinstance(coeffs[0], (tuple, list)):
                coeffs = (tuple(float(c) for c in coeffs),)
            object.__setattr__(
                self, "coefficients",
                tuple(tuple(float(c) for c in row) for row in coeffs),
            )
            if not all(math.isfinite(c) for row in self.coefficients for c in row):
                raise ValidationError("cosine_series coefficients must be finite")

    def per_axis(self, dim):
        """Amplitude rows, one per axis, as a (dim, n_harmonics) array."""
        if self.kind == "nearest_neighbor":
            return np.full((dim, 1), 2.0)
        rows = self.coefficients
        if len(rows) == 1 and dim > 1:
            rows = rows * dim
        if len(rows) != dim:
            raise ValidationError(
                f"cosine_series has {len(rows)} axis rows, model has dim {dim}"
            )
        width = max(len(r) for r in rows)
        out = np.zeros((dim, width))
        for i, r in enumerate(rows):
            out[i, : len(r)] = r
        return out


def dispersion_eval(spec, k):
    """Evaluate eps(k) at real momenta; k has shape (d,) or (..., d)."""
    k = np.asarray(k, dtype=float)
    coeffs = spec.per_axis(k.shape[-1])
    harmonics = np.arange(1, coeffs.shape[1] + 1)
    # (..., d, m)
    phases = np.multiply.outer(k, harmonics)
    return np.einsum("...im,im->...", 1.0 - np.cos(phases), coeffs)


def dispersion_grad(spec, k):
    """Exact gradient of eps at real momenta k; shape matches k."""
    k = np.asarray(k, dtype=float)
    coeffs = spec.per_axis(k.shape[-1])
    harmonics = np.arange(1, coeffs.shape[1] + 1)
    phases = np.multiply.outer(k, harmonics)
    return np.einsum("...im,im,m->...i", np.sin(phases), coeffs, harmonics.astype(float))


@dataclass(frozen=True)
class SpinSystem:
    """Internal levels and coupling amplitudes in the level eigenbasis.

    levels are the strictly increasing energies e_1 < ... < e_n; couplings
    is the Hermitian matrix of amplitudes <e'|W|e> with spectral norm at
    most 1.  Energy differences e - e' label the dissipative channels
    ("Bohr frequencies"); the model assumes all nonzero differences are
    pairwise distinct, which `validate_model` checks.
    """

    levels: tuple
    couplings: tuple

    def __post_init__(self):
        levels = tuple(float(e) for e in np.atleast_1d(self.levels))
        object.__setattr__(self, "levels", levels)
        w = np.asarray(self.couplings, dtype=complex)
        if w.shape != (len(levels), len(levels)):
            raise ValidationError("couplings must be n x n for n levels")
        object.__setattr__(
            self, "couplings", tuple(tuple(complex(v) for v in row) for row in w)
        )

    @property
    def n(self):
        return len(self.levels)

    @property
    def w(self):
        return np.asarray(self.couplings, dtype=complex)

    def gibbs_weights(self, beta):
        w = np.exp(-beta * np.asarray(self.levels))
        return w / w.sum()


@dataclass(frozen=True)
class GridSpec:
    """Momentum discretization: N_k points per axis, M_dir sphere nodes."""

    points_per_axis: int = 128
    sphere_nodes: int = 2

    def __post_init__(self):
        if self.points_per_axis < 2 or self.points_per_axis % 2:
            raise ValidationError("points_per_axis must be a positive even integer")
        if self.sphere_nodes < 1:
            raise ValidationError("sphere_nodes must be positive")


@dataclass(frozen=True)
class ModelConfig:
    """Complete physical specification shared by all numeric modules."""

    dim: int
    dispersion: DispersionSpec
    spin: SpinSystem
    beta: float
    bath: object  # BathProfile; duck-typed to avoid an import cycle
    grid: GridSpec = field(default_factory=GridSpec)
    rng_seed: int = 2024

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValidationError("beta must be finite and strictly positive")
        if not 0 <= self.rng_seed < 1 << 64:
            raise ValidationError("rng_seed must be in [0, 2**64)")

    def axis(self):
        """Grid values along one axis: -pi + 2 pi j / N, j = 0..N-1."""
        n = self.grid.points_per_axis
        return -np.pi + 2.0 * np.pi * np.arange(n) / n

    def grid_points(self):
        """All N^d grid momenta, shape (N^d, d), axis-0 fastest last: the
        dense fiber's grid (per-axis dispersion values: `axis_points`)."""
        ax = self.axis()
        mesh = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def axis_points(self):
        """Grid momenta on the d axes through k = 0, shape (d N, d), row
        i N + j = axis()[j] e_i.  As eps(k) = sum_i eps_i(k_i) and eps_i(0) =
        eps_i'(0) = 0, they carry every per-axis value of eps and grad eps."""
        n, d = self.grid.points_per_axis, self.dim
        pts = np.zeros((d, n, d))
        pts[range(d), :, range(d)] = self.axis()
        return pts.reshape(d * n, d)

    def to_dict(self):
        w = self.spin.w
        couplings = [
            [[float(v.real), float(v.imag)] for v in row] for row in w
        ]
        bath = self.bath.to_dict()
        return {
            "dim": self.dim,
            "beta": self.beta,
            "rng_seed": self.rng_seed,
            "dispersion": {
                "kind": self.dispersion.kind,
                "coefficients": [list(r) for r in self.dispersion.coefficients],
            },
            "spin": {"levels": list(self.spin.levels), "couplings": couplings},
            "bath": bath,
            "grid": {
                "points_per_axis": self.grid.points_per_axis,
                "sphere_nodes": self.grid.sphere_nodes,
            },
        }

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _is_number(value):
    """A JSON number, not a bool, that is finite as a float."""
    try:
        return (isinstance(value, (int, float))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an integer literal past the float range
        return False


def _coupling(value):
    """A coupling entry: a number, or exactly [re, im]."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(map(_is_number, parts)):
        raise ValidationError("a coupling entry must be a finite number or "
                              f"[re, im], got {value!r}")
    return complex(*parts)


def _couplings_from_json(raw):
    if not (isinstance(raw, list) and all(isinstance(r, list) for r in raw)):
        raise ValidationError(f"couplings must be a list of rows, got {raw!r}")
    return [[_coupling(v) for v in row] for row in raw]


def _value(data, key, default=None):
    """data[key], or the default; a missing key without one is named."""
    if default is None and key not in data:
        raise ValidationError(f"required key {key!r} is missing")
    return data.get(key, default)


def _integer(data, key, default=None):
    """data[key], or the default, as a JSON integer: a float or a bool is
    refused, not truncated."""
    value = _value(data, key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return value


def _real(data, key, default=None):
    """data[key], or the default, as a float from a finite JSON number."""
    value = _value(data, key, default)
    if not _is_number(value):
        raise ValidationError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _numbers(value, name):
    """value, a JSON list of finite numbers, as a tuple of floats."""
    if not (isinstance(value, list) and all(map(_is_number, value))):
        raise ValidationError(
            f"{name} must be a list of finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _section(data, key, default=None):
    """data[key], or the default, as a JSON object."""
    value = _value(data, key, default)
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be a JSON object, got {value!r}")
    return value


def model_from_dict(data):
    """Build a ModelConfig from the documented JSON layout."""
    from .reservoir import BathProfile  # local import: reservoir imports model types

    if not isinstance(data, dict):
        raise ValidationError(f"a config must be a JSON object, got {data!r}")
    dim = _integer(data, "dim")
    beta = _real(data, "beta")
    disp = _section(data, "dispersion", {"kind": "nearest_neighbor"})
    rows = disp.get("coefficients", [])
    # one list per axis, or one flat list that DispersionSpec broadcasts
    if isinstance(rows, list) and rows and isinstance(rows[0], list):
        rows = tuple(_numbers(r, "a coefficients row") for r in rows)
    else:
        rows = _numbers(rows, "coefficients")
    dispersion = DispersionSpec(kind=disp.get("kind", "nearest_neighbor"),
                                coefficients=rows)
    spin_raw = _section(data, "spin")
    spin = SpinSystem(
        levels=_numbers(_value(spin_raw, "levels"), "levels"),
        couplings=_couplings_from_json(_value(spin_raw, "couplings")),
    )
    bath = BathProfile.from_dict(_section(data, "bath"), beta=beta, dim=dim)
    grid_raw = _section(data, "grid", {})
    grid = GridSpec(
        points_per_axis=_integer(grid_raw, "points_per_axis", 128),
        sphere_nodes=_integer(grid_raw, "sphere_nodes", 2),
    )
    return ModelConfig(
        dim=dim,
        dispersion=dispersion,
        spin=spin,
        beta=beta,
        bath=bath,
        grid=grid,
        rng_seed=_integer(data, "rng_seed", 2024),
    )


def model_from_json(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    severity: str  # "error" | "warning"
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.severity == "error")

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed and c.severity == "error"]

    @property
    def warnings(self):
        return [c for c in self.checks if not c.passed and c.severity == "warning"]

    def to_dict(self):
        return {"passed": self.passed,
                "checks": [asdict(c) for c in self.checks]}


def _fgr_graph_connected(cfg):
    """Level graph with an edge where the channel rate density is nonzero."""
    e = np.asarray(cfg.spin.levels)
    w = cfg.spin.w
    n = cfg.spin.n
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rate = cfg.bath.psi_hat(e[j] - e[i]) * abs(w[i, j]) ** 2
            if rate > 0.0:
                adj[i].add(j)
                adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n, adj


def validate_model(cfg):
    """Check the standing assumptions; returns a ValidationReport.

    Deterministic and side-effect free.  Hard failures: broken inversion
    symmetry, a flat axis, a velocity whose walk leaves float64's range
    at unit time, degenerate level differences, non-Hermitian or
    oversized couplings, a disconnected level graph, or a bath profile
    with nonzero weight at zero frequency.  d < 4 only degrades the bath
    decay guarantees, so it is reported as a warning.  The dispersion
    checks read the grid's d N axis points (`ModelConfig.axis_points`).
    """
    checks = []
    kpts = cfg.axis_points()
    eps = dispersion_eval(cfg.dispersion, kpts)
    eps_neg = dispersion_eval(cfg.dispersion, -kpts)
    sym = float(np.max(np.abs(eps - eps_neg)))
    checks.append(Check(
        "dispersion_inversion_symmetry", sym == 0.0, "error",
        f"max |eps(k) - eps(-k)| = {sym:.3e}",
    ))

    grad = dispersion_grad(cfg.dispersion, kpts)
    flat_axes = [i for i in range(cfg.dim) if np.max(np.abs(grad[:, i])) <= 1e-12]
    checks.append(Check(
        "dispersion_not_constant", not flat_axes, "error",
        f"flat axes: {flat_axes}" if flat_axes else "all axes dispersive",
    ))

    # float64 range of the walk and of the Hessian's retry step: by t = 1 a
    # walker is at |x| <= v_max, and KMC's standard errors sum x^4 over up
    # to 2^64 walkers, so v_max <= 2^240; 1 / v_max^2, which the squared
    # retry step 1e-3 gap0 / v_max carries, is then normal too
    v_max, limit = float(np.abs(grad).max()), 2.0 ** 240
    checks.append(Check(
        "velocity_in_float_range", v_max <= limit, "error",
        f"max |grad eps| = {v_max:.3e}, at most 2^240 = {limit:.3e}: KMC "
        "sums |x|^4 <= (max |grad eps| t)^4 per walker"))

    e = np.asarray(cfg.spin.levels)
    increasing = bool(np.all(np.diff(e) > 0)) if len(e) > 1 else True
    checks.append(Check("levels_strictly_increasing", increasing, "error", ""))

    diffs = sorted(
        float(e[i] - e[j]) for i in range(len(e)) for j in range(len(e)) if i != j
    )
    scale = max(1.0, float(np.max(np.abs(e))) if len(e) else 1.0)
    distinct = True
    if diffs:
        gaps = np.diff(diffs)
        distinct = bool(np.all(gaps > 1e-12 * scale))
    checks.append(Check(
        "bohr_frequencies_distinct", distinct, "error",
        "all nonzero level differences pairwise distinct" if distinct
        else "degenerate level differences",
    ))

    w = cfg.spin.w
    herm = float(np.max(np.abs(w - w.conj().T))) if w.size else 0.0
    checks.append(Check(
        "couplings_hermitian", herm <= 1e-12 * max(1.0, np.abs(w).max() if w.size else 1.0),
        "error", f"max |W - W^dagger| = {herm:.3e}",
    ))
    norm = float(np.linalg.norm(w, 2)) if w.size else 0.0
    checks.append(Check(
        "couplings_norm_bounded", norm <= 1.0 + 1e-12, "error",
        f"||W|| = {norm:.6f}",
    ))

    psi0 = float(cfg.bath.psi_hat(0.0))
    checks.append(Check("bath_zero_frequency", psi0 == 0.0, "error",
                        f"psi_hat(0) = {psi0:.3e}"))

    if distinct and increasing:
        connected, adj = _fgr_graph_connected(cfg)
        isolated = [i for i, nb in enumerate(adj) if not nb]
        detail = "level graph connected" if connected else (
            f"isolated levels: {isolated}" if isolated else "level graph disconnected"
        )
        if cfg.spin.n == 1:
            connected, detail = False, "single level: no dissipative channel"
        checks.append(Check("fgr_connectivity", connected, "error", detail))
    else:
        checks.append(Check("fgr_connectivity", False, "error",
                            "skipped: level structure invalid"))

    checks.append(Check(
        "dimension_for_decay_laws", cfg.dim >= 4, "warning",
        f"d = {cfg.dim} < 4: bath decay-law checks are not guaranteed" if cfg.dim < 4
        else "",
    ))
    return ValidationReport(checks=tuple(checks))


def ensure_valid(cfg):
    """Raise ValidationError when any hard check fails."""
    report = validate_model(cfg)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures)
        raise ValidationError(f"model validation failed: {names}")
    return report
