"""Thermal bath: frequency profile, space-time correlations, decay checks.

The bath enters the model through a single nonnegative frequency profile
psi_hat(omega) obeying the emission/absorption (KMS) relation
psi_hat(-omega) = exp(-beta omega) psi_hat(omega) and psi_hat(0) = 0.  Its
space-time correlation

    psi(x, t) = int dw psi_hat(w) exp(i w t) int_{S^{d-1}} ds exp(i w s.x)

is evaluated by a truncated panel Gauss-Legendre rule in w, with the
sphere integral in closed form (`sphere.plane_wave_average`).  Half-line
time integrals of psi are exact in t at every frequency node, so the w
rule is the only quadrature.  All refinement checks double the frequency
panel count and compare.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator

from .model import NumericError
from .sphere import plane_wave_average, surface_area


class QuadratureError(NumericError):
    """Successive quadrature refinements disagree beyond tolerance."""


class FitError(NumericError):
    """Decay-law fit could not be performed (e.g. samples underflow)."""


@lru_cache(maxsize=64)
def _legendre_rule(order):
    return np.polynomial.legendre.leggauss(order)


# The frequency rule and the half-line tail anchors.  The sphere integral
# and the time integrals are in closed form, so these are the only
# resolutions; a checked evaluation doubles the panel count and compares.
REL_TOL = 1e-8
PANEL_ORDER = 16
PHASE_PER_PANEL = 16.0
TAIL_HEAD = 60.0        # head length of half-line time integrals
TAIL_AVERAGES = 8       # oscillatory-tail averaging depth


@dataclass(frozen=True)
class BathProfile:
    """Frequency profile of the bath coupling.

    kind "builtin_gaussian": psi_hat(w) = w^nu exp(-w^2/cutoff^2) / (1 - e^{-beta w})
    for w > 0, with nu = d - 2 raised by the smallest even amount that keeps
    psi_hat(0) = 0 in low dimensions (nu = 3, 2, 3 for d = 1, 2, 3).  The
    negative side is always the KMS continuation e^{beta w} psi_hat(-w), so
    the emission/absorption relation holds to the last bit.

    kind "tabulated": values on a nonnegative frequency grid starting at
    (0, 0), shape-preserving cubic interpolation in between, zero beyond
    the last node, KMS continuation for w < 0.
    """

    kind: str
    beta: float
    dim: int
    cutoff: float = 2.0
    table_omega: tuple = ()
    table_values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("builtin_gaussian", "tabulated"):
            raise ValueError(f"unknown bath kind {self.kind!r}")
        if not self.beta > 0:
            raise ValueError("beta must be strictly positive")
        if self.kind == "tabulated":
            om = np.asarray(self.table_omega, dtype=float)
            val = np.asarray(self.table_values, dtype=float)
            if om.ndim != 1 or om.shape != val.shape or len(om) < 2:
                raise ValueError("tabulated profile needs matching 1d omega/value arrays")
            if om[0] != 0.0 or val[0] != 0.0 or np.any(np.diff(om) <= 0):
                raise ValueError("tabulated grid must start at (0, 0) and increase")
            if np.any(val < 0):
                raise ValueError("tabulated values must be nonnegative")
            object.__setattr__(self, "table_omega", tuple(float(v) for v in om))
            object.__setattr__(self, "table_values", tuple(float(v) for v in val))

    @property
    def power(self):
        """Low-frequency exponent of the built-in family."""
        extra = max(0, math.ceil((4 - self.dim) / 2))
        return self.dim - 2 + 2 * extra

    def _positive_branch(self, w):
        """psi_hat on w > 0 (array input, no zero entries)."""
        if self.kind == "builtin_gaussian":
            envelope = w ** self.power * np.exp(-((w / self.cutoff) ** 2))
            return envelope / (-np.expm1(-self.beta * w))
        interp = _table_interp(self.table_omega, self.table_values)
        out = np.where(w <= self.table_omega[-1], interp(w), 0.0)
        return np.clip(out, 0.0, None)

    def psi_hat(self, omega):
        """Effective squared form factor at real frequency omega."""
        w = np.asarray(omega, dtype=float)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        out = np.zeros_like(w)
        pos = w > 0
        neg = w < 0
        if pos.any():
            out[pos] = self._positive_branch(w[pos])
        if neg.any():
            # KMS continuation, exact by construction
            out[neg] = np.exp(self.beta * w[neg]) * self._positive_branch(-w[neg])
        return float(out[0]) if scalar else out

    def omega_support(self):
        """Truncation radius: |psi_hat| below 1e-16 * max outside [-R, R]."""
        return _support_radius(self)

    def to_dict(self):
        if self.kind == "builtin_gaussian":
            return {"kind": "builtin_gaussian", "cutoff": self.cutoff}
        return {
            "kind": "tabulated",
            "omega": list(self.table_omega),
            "values": list(self.table_values),
        }

    @staticmethod
    def from_dict(data, beta, dim):
        kind = data.get("kind", "builtin_gaussian")
        if kind == "builtin_gaussian":
            return BathProfile(kind=kind, beta=beta, dim=dim,
                               cutoff=float(data.get("cutoff", 2.0)))
        return BathProfile(kind=kind, beta=beta, dim=dim,
                           table_omega=tuple(data["omega"]),
                           table_values=tuple(data["values"]))


@lru_cache(maxsize=32)
def _table_interp(omega, values):
    return PchipInterpolator(np.asarray(omega), np.asarray(values), extrapolate=False)


@lru_cache(maxsize=64)
def _support_radius(profile):
    if profile.kind == "tabulated":
        return profile.table_omega[-1]
    hi = profile.cutoff * 14.0 + 4.0 / profile.beta
    w = np.linspace(1e-9, hi, 8193)
    vals = profile._positive_branch(w)
    peak = vals.max()
    above = np.nonzero(vals >= 1e-16 * peak)[0]
    return float(w[above[-1]]) + 2.0 * (w[1] - w[0])


def _omega_nodes(profile, phase_rate, refine=1):
    """Panel Gauss-Legendre nodes on [-R, R], split at the origin.

    The split matters: the thermal branch switch leaves psi_hat only
    piecewise smooth at 0.  Panel widths shrink with the expected phase
    rate (|t| + |x| for the correlation integral).
    """
    radius = profile.omega_support()
    width = PHASE_PER_PANEL / max(phase_rate, PHASE_PER_PANEL / radius)
    per_side = max(4, int(math.ceil(radius / width))) * refine
    edges = np.linspace(0.0, radius, per_side + 1)
    gl_x, gl_w = _legendre_rule(PANEL_ORDER)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes_pos = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    weights_pos = (half[:, None] * gl_w[None, :]).ravel()
    nodes = np.concatenate([-nodes_pos[::-1], nodes_pos])
    weights = np.concatenate([weights_pos[::-1], weights_pos])
    return nodes, weights


def _psi_batch_raw(profile, xs, ts, refine):
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    rnorm = np.linalg.norm(xs, axis=1)
    phase_rate = float(np.max(np.abs(ts) + rnorm))
    nodes, weights = _omega_nodes(profile, phase_rate, refine)
    wpsi = weights * profile.psi_hat(nodes)
    d = xs.shape[1]
    unique_r, inverse = np.unique(rnorm, return_inverse=True)
    sphere = plane_wave_average(d, np.multiply.outer(unique_r, nodes))
    out = np.empty(len(ts), dtype=complex)
    chunk = max(1, int(2e6 / max(len(nodes), 1)))
    for lo in range(0, len(ts), chunk):
        sl = slice(lo, min(lo + chunk, len(ts)))
        phase = np.exp(1j * np.multiply.outer(ts[sl], nodes))
        out[sl] = (sphere[inverse[sl]] * phase) @ wpsi
    return out, len(nodes)


def psi_xt_batch(profile, xs, ts, check=True):
    """Correlation psi(x_j, t_j) for matched arrays of points and times.

    With check=True the frequency panel count is doubled and the two
    evaluations compared at `REL_TOL`; check=False skips the
    doubled pass (used by the decay scans, which need many points but
    only modest accuracy).
    """
    coarse, _ = _psi_batch_raw(profile, xs, ts, refine=1)
    if not check:
        return coarse
    fine, n_nodes = _psi_batch_raw(profile, xs, ts, refine=2)
    _check_refinement(profile, fine, coarse, REL_TOL, n_nodes,
                      "correlation quadrature")
    return fine


@lru_cache(maxsize=64)
def _zero_point_scale(profile):
    nodes, weights = _omega_nodes(profile, 1.0)
    return float(weights @ profile.psi_hat(nodes)) * surface_area(profile.dim)


def _check_refinement(profile, fine, coarse, rel_tol, n_terms, what):
    """Raise unless |fine - coarse| <= rel_tol |fine| + n_terms eps |psi(0, 0)|.

    psi_hat >= 0 makes |psi(0, 0)| the largest |psi|, so the second term
    bounds the float error of an n_terms-term sum of psi-sized terms: where
    |psi| is at roundoff, the two rules may disagree by that much.
    """
    move = np.abs(fine - coarse)
    floor = n_terms * np.finfo(float).eps * abs(_zero_point_scale(profile))
    worst = float(np.max(move / (rel_tol * np.abs(fine) + floor)))
    if worst > 1.0:
        raise QuadratureError(
            f"{what} not converged: refinement moved the result by "
            f"{worst:.2e} times its allowance (rel_tol {rel_tol:.1e} "
            f"plus {n_terms:.0f} eps |psi(0, 0)|)"
        )


def psi_xt(profile, x, t):
    """Correlation function psi(x, t) at a single space-time point."""
    return complex(psi_xt_batch(profile, [np.atleast_1d(x)], [t])[0])


@dataclass(frozen=True)
class CorrelationSample:
    """One evaluated correlation point; value(x, -t) = conj(value(x, t))
    and the value depends on x through |x| only."""

    x: tuple
    t: float
    value: complex


def correlation_samples(profile, x, times):
    """psi(x, t) along a time grid at fixed x, as CorrelationSample rows."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    times = np.asarray(times, dtype=float)
    values = psi_xt_batch(profile, np.tile(x_arr, (len(times), 1)), times,
                          check=False)
    return [CorrelationSample(x=tuple(x_arr), t=float(t), value=complex(v))
            for t, v in zip(times, values)]


def _cumulative_halfline(profile, x, a, refine):
    """Partial integrals int_0^{T_j} psi(x, t) e^{i a t} dt at tail anchors.

    The time integral is exact at every frequency node (a Filon-type
    rule): with u = omega + a, int_0^T e^{i u t} dt = T e^{i u T/2}
    sinc(u T / 2 pi).  Only the omega rule is a quadrature; its panels are
    sized for the phase rate T_max + |x|, as for psi(x, T_max) itself.
    Returns (anchors T_j, partial integral values, number of omega
    nodes).  Anchors are spaced by half an oscillation period of the
    combined integrand so the caller can average the tail out; for |a| ~ 0
    the spacing falls back to a fixed stride and the tail is
    Richardson-extrapolated instead.
    """
    stride = math.pi / max(abs(a), 0.25)
    anchors = TAIL_HEAD + stride * np.arange(TAIL_AVERAGES + 1)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x_arr))
    nodes, weights = _omega_nodes(profile, anchors[-1] + r, refine)
    coef = (weights * profile.psi_hat(nodes)
            * plane_wave_average(len(x_arr), r * nodes))
    phase = np.multiply.outer(anchors, nodes + a)
    kernel = anchors[:, None] * np.exp(0.5j * phase) * np.sinc(phase / (2 * math.pi))
    return anchors, kernel @ coef, len(nodes)


def half_line_fourier(profile, x, a):
    """int_0^infinity psi(x, t) exp(i a t) dt with oscillatory tail control.

    The built-in profile is only piecewise smooth at omega = 0, so
    psi(x, t) has a power-law tail and plain truncation converges slowly.
    Partial integrals sampled half a period apart are averaged iteratively
    (for |a| away from 0), or Richardson-extrapolated in 1/T (for small
    |a|), which removes the tail to high order.
    """
    def run(refine):
        anchors, partials, n_nodes = _cumulative_halfline(profile, x, a, refine)
        # the time kernel is at most anchors[-1] in size, which scales the
        # roundoff of the n_nodes-term sum
        n_terms = anchors[-1] * n_nodes
        if abs(a) >= 0.25:
            acc = partials
            while len(acc) > 1:
                acc = 0.5 * (acc[:-1] + acc[1:])
            return acc[0], n_terms
        # monotone tail: fit partials ~ I - c1/T - c2/T^2 and extrapolate
        design = np.column_stack([np.ones_like(anchors), 1.0 / anchors,
                                  1.0 / anchors ** 2])
        coef_re, *_ = np.linalg.lstsq(design, partials.real, rcond=None)
        coef_im, *_ = np.linalg.lstsq(design, partials.imag, rcond=None)
        return complex(coef_re[0], coef_im[0]), n_terms

    coarse, _ = run(1)
    fine, n_terms = run(2)
    _check_refinement(profile, fine, coarse, max(REL_TOL, 1e-9) * 50,
                      n_terms, f"half-line Fourier integral at a={a}")
    return fine


def gain_coefficient_sphere(profile, a, x):
    """Closed sphere form 2 pi psi_hat(a) int_{S^{d-1}} ds e^{i a s.x}."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(a) * float(np.linalg.norm(x_arr))
    average = float(plane_wave_average(profile.dim, r))
    return 2.0 * math.pi * profile.psi_hat(a) * average


def gain_coefficient_position(profile, a, x):
    """Full-line Fourier coefficient int dt e^{-i a t} psi(x, t).

    Hermiticity (psi(x, -t) = conj psi(x, t)) folds the integral onto the
    half line, so the result is real.  Used as the independent oracle for
    the closed sphere form and for the assembled momentum-grid kernel.
    """
    half = half_line_fourier(profile, x, -a)
    return 2.0 * half.real


@dataclass(frozen=True)
class DecayFit:
    v_star: float
    rate: float
    r_squared: float
    passed: bool
    warning: str
    times: tuple
    sup_values: tuple

    def to_dict(self):
        return {
            "v_star": self.v_star,
            "rate": self.rate,
            "r_squared": self.r_squared,
            "passed": self.passed,
            "warning": self.warning,
        }


# Fractions of the cone radius v* t sampled at each time by the decay check.
CONE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _sup_on_sets(profile, times, radius_lists, dim):
    """sup over sampled lattice |x| of |psi(x, t)| for each time."""
    xs, ts, owner = [], [], []
    for i, (t, radii) in enumerate(zip(times, radius_lists)):
        for r in sorted(set(radii)):
            vec = np.zeros(dim)
            vec[0] = r
            xs.append(vec)
            ts.append(t)
            owner.append(i)
    vals = np.abs(psi_xt_batch(profile, np.array(xs), np.array(ts), check=False))
    sup = np.zeros(len(times))
    for v, i in zip(vals, owner):
        sup[i] = max(sup[i], v)
    return sup


def check_subluminal_decay(profile, v_star, t_max):
    """Fit an exponential decay rate to sup |psi| on the cone |x| <= v* t.

    Samples lattice points along an axis (rotational invariance makes the
    axis choice immaterial), fits log sup |psi| against t by least squares
    at 20 times on [5, t_max], and reports the rate and fit quality.  The
    rate degrades as v* approaches the unit propagation speed of the bath,
    which is flagged as a warning for v* >= 0.9.
    """
    if not 0.0 < v_star < 1.0:
        raise ValueError("v_star must lie in (0, 1)")
    times = np.linspace(5.0, t_max, 20)
    radii = [[round(f * v_star * t) for f in CONE_FRACTIONS] for t in times]
    sup = _sup_on_sets(profile, times, radii, profile.dim)
    keep = sup > 1e-290
    if keep.sum() < 5:
        raise FitError("cone samples underflow: not enough points to fit")
    tt, yy = times[keep], np.log(sup[keep])
    design = np.column_stack([np.ones_like(tt), tt])
    coef, *_ = np.linalg.lstsq(design, yy, rcond=None)
    resid = yy - design @ coef
    ss_tot = float(np.sum((yy - yy.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    rate = -float(coef[1])
    warning = ""
    if v_star >= 0.9:
        warning = ("v_star close to the bath propagation speed: "
                   "the fitted decay rate degrades toward zero")
    return DecayFit(
        v_star=v_star, rate=rate, r_squared=r2,
        passed=bool(rate > 0 and r2 >= 0.95), warning=warning,
        times=tuple(tt), sup_values=tuple(np.exp(yy)),
    )


def fit_sup_power(profile, t_min, t_max):
    """Power-law fit of sup_x |psi(x, t)| ~ C (1 + t)^p over [t_min, t_max],
    at 18 geometrically spaced times."""
    times = np.geomspace(t_min, t_max, 18)
    radius_lists = []
    for t in times:
        near_cone = {int(math.floor(t)) - 1, int(math.floor(t)), int(math.ceil(t)) + 1}
        inner = {0, int(round(0.25 * t)), int(round(0.5 * t)), int(round(0.75 * t))}
        radius_lists.append([r for r in near_cone | inner if r >= 0])
    sup = _sup_on_sets(profile, times, radius_lists, profile.dim)
    keep = sup > 1e-290
    if keep.sum() < 5:
        raise FitError("sup samples underflow: not enough points to fit")
    logt = np.log1p(times[keep])
    logy = np.log(sup[keep])
    design = np.column_stack([np.ones_like(logt), logt])
    coef, *_ = np.linalg.lstsq(design, logy, rcond=None)
    power = float(coef[1])
    amplitude = float(np.exp(coef[0]))
    return power, amplitude, times[keep], sup[keep]


@dataclass(frozen=True)
class IntegrabilityReport:
    t_max: float
    partial_integral: float
    tail_estimate: float
    tail_power: float
    passed: bool

    @property
    def total(self):
        return self.partial_integral + self.tail_estimate


def check_time_integrability(profile, t_max):
    """Integrate sup_x |psi(x, t)| on [0, t_max] and estimate the tail.

    The tail beyond t_max uses the fitted power law of `fit_sup_power`
    on the upper part of the window; it is finite when the power is
    below -1.
    """
    head_times = np.linspace(0.0, 5.0, 9)
    tail_times = np.geomspace(5.0, t_max, 24)[1:]
    times = np.concatenate([head_times, tail_times])
    radius_lists = []
    for t in times:
        radii = {0, int(round(0.5 * t)), int(round(0.75 * t)),
                 int(math.floor(t)), int(math.ceil(t)) + 1}
        radius_lists.append([r for r in radii if r >= 0])
    sup = _sup_on_sets(profile, times, radius_lists, profile.dim)
    partial = float(np.trapezoid(sup, times))
    power, amplitude, _, _ = fit_sup_power(profile, max(5.0, t_max / 8.0), t_max)
    if power < -1.0:
        tail = amplitude * (1.0 + t_max) ** (power + 1.0) / (-(power + 1.0))
    else:
        tail = math.inf
    return IntegrabilityReport(
        t_max=t_max, partial_integral=partial, tail_estimate=float(tail),
        tail_power=power, passed=bool(math.isfinite(tail)),
    )


def lamb_shift(profile, spin):
    """Bath-induced level shifts, reduced to one real number per channel.

    For each ordered level pair the half-line integral
    Im int_0^inf psi(0, t) e^{i a t} dt is combined with the squared
    coupling amplitudes into per-level shifts; the channel value is the
    difference of the two level shifts.  The zero channel vanishes
    identically and only ever enters commutators.  Only the Bohr
    frequencies some nonzero coupling uses are integrated.
    """
    levels = np.asarray(spin.levels)
    amp = np.abs(spin.w) ** 2
    pairs = list(zip(*np.nonzero(amp)))
    needed = sorted({float(levels[ei] - levels[fi]) for fi, ei in pairs})
    origin = np.zeros(profile.dim)
    im_integral = {a: half_line_fourier(profile, origin, a).imag for a in needed}
    per_level = np.zeros(len(levels))
    for fi, ei in pairs:
        per_level[fi] += amp[fi, ei] * im_integral[float(levels[ei] - levels[fi])]
    shifts = {0.0: 0.0}
    for ei in range(len(levels)):
        for fi in range(len(levels)):
            if ei != fi:
                a = float(levels[ei] - levels[fi])
                shifts[a] = float(per_level[ei] - per_level[fi])
    return shifts
