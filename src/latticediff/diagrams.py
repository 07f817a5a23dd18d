"""Time-pair diagrams: enumeration, irreducibility, and Laplace-domain bounds.

A diagram is a set of n time pairs (u_i, v_i) in an interval, u_i < v_i,
ordered by u.  Dropping everything but the relative order of the 2n times
leaves a shape (an interleaving pattern); there are (2n-1)!! shapes, and
this module works on shapes only.  A shape is irreducible when the union
of its pair intervals spans the whole interval without a gap, and
minimally irreducible when no pair can be removed keeping that property:
for each n there is exactly one such shape, with the times interleaved as
u1 u2 v1 u3 v2 ... u_n v_{n-1} v_n.

The weight of a diagram is the product of a kernel k over the pair lags,
and the quantities bounded here are Laplace-type integrals of that weight
over irreducible and minimally irreducible shapes, estimated by stratified
Monte Carlo over the ordered time simplex with the two extreme times
pinned to the interval ends.  Concrete times exist only inside that
sampler.
"""

import math
from dataclasses import asdict, dataclass, fields
import numpy as np

from .model import NumericError
from .reservoir import _legendre_rule


class DiagramError(Exception):
    pass


class PreconditionError(NumericError):
    """Kernel norms violate the contraction conditions of the bounds."""


@dataclass(frozen=True)
class DiagramClass:
    """Interleaving pattern: pairs of slot indices among 0 .. 2n-1."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(r), int(s)) for r, s in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        slots = [i for rs in pairs for i in rs]
        if sorted(slots) != list(range(2 * len(pairs))):
            raise DiagramError("shape must partition slots 0 .. 2n-1 into pairs")
        for r, s in pairs:
            if not r < s:
                raise DiagramError("shape pairs need r < s")
        starts = [r for r, _ in pairs]
        if starts != sorted(starts):
            raise DiagramError("shape pairs must be ordered by first slot")

    @property
    def size(self):
        return len(self.pairs)


def enumerate_pairings(n):
    """All (2n - 1)!! shapes of n pairs on 2n ordered slots."""
    if n < 1:
        raise DiagramError("need at least one pair")
    if n > 8:
        raise DiagramError("pairing enumeration capped at n = 8 "
                           "((2n-1)!! growth)")

    def rec(slots):
        if not slots:
            yield []
            return
        first = slots[0]
        for j in range(1, len(slots)):
            rest = slots[1:j] + slots[j + 1:]
            for tail in rec(rest):
                yield [(first, slots[j])] + tail

    return [DiagramClass(pairs=tuple(p)) for p in rec(list(range(2 * n)))]


def double_factorial_odd(n):
    """(2n - 1)!! = number of pairings of 2n items."""
    out = 1
    for m in range(3, 2 * n, 2):
        out *= m
    return out


def _spans(pairs, last):
    """The closed slot intervals [r, s] cover [0, last] with no gap."""
    reach = 0
    for r, s in sorted(pairs):
        if r > reach:
            return False
        reach = max(reach, s)
    return reach == last


def classify(dc):
    """Classify a shape relative to the interval its extreme times span.

    Irreducible when the closed pair intervals cover [0, 2n - 1] with no
    gap, and minimally irreducible when additionally no pair can be
    removed keeping that cover.  Removing one pair at a time suffices: if removing a set S of
    pairs leaves a spanning cover, removing any one pair of S leaves a
    superset of that cover, still inside [0, 2n - 1], which spans too.
    """
    pairs = dc.pairs
    last = 2 * len(pairs) - 1
    if not _spans(pairs, last):
        return "reducible"
    for i in range(len(pairs)):
        if _spans(pairs[:i] + pairs[i + 1:], last):
            return "irreducible"
    return "minimally_irreducible"


def mir_shape(n):
    """The unique minimally irreducible shape of n pairs."""
    if n < 1:
        raise DiagramError("need at least one pair")
    if n == 1:
        return DiagramClass(pairs=((0, 1),))
    pairs = [(0, 2)]
    for i in range(2, n):
        pairs.append((2 * i - 3, 2 * i))
    pairs.append((2 * n - 3, 2 * n - 1))
    return DiagramClass(pairs=tuple(pairs))


# Kernel norms: panel order n, the n / 2n agreement, and the panel budget
NORM_ORDER = 16
NORM_REL_TOL = 1e-12
NORM_PANELS = 1000
# Monte Carlo shape integrals: strata of the outer time t
MC_STRATA = 16


def _norm(func, a=0.0, t_power=0, upper=math.inf):
    """L1 norm of t^power e^{at} k(t) on [0, upper], or inf.

    The half-line maps to s = 1 / (1 + t) in (0, 1], where a power tail of
    k is a power of s that bisection can follow down to s ~ 1e-300.
    Gauss-Legendre panels are bisected level by level, one kernel call per
    level, until their order-n and order-2n sums agree to NORM_REL_TOL of
    the whole integral.  The integrand is assembled in log space: kernel
    values <= 0 contribute 0 and a log integrand >= 700 is inf.  A
    divergent integral, or one that needs more than NORM_PANELS panels, is
    inf, never a finite or negative number.
    """
    x_n, w_n = _legendre_rule(NORM_ORDER)
    x_2n, w_2n = _legendre_rule(2 * NORM_ORDER)
    lo, hi = np.array([1.0 / (1.0 + upper)]), np.array([1.0])
    done, panels = 0.0, 0
    while lo.size:
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        s = mid[:, None] + half[:, None] * np.concatenate([x_n, x_2n])
        t = (1.0 - s) / s
        with np.errstate(all="ignore"):
            k = np.asarray(func(t), dtype=float)
            ln = a * t + np.log(k) + t_power * np.log(t) - 2.0 * np.log(s)
            f = np.where(k <= 0.0, 0.0,
                         np.where(ln < 700.0, np.exp(ln), math.inf))
        coarse = half * (f[:, :NORM_ORDER] @ w_n)
        fine = half * (f[:, NORM_ORDER:] @ w_2n)
        total, panels = done + float(fine.sum()), panels + lo.size
        if panels > NORM_PANELS or not math.isfinite(total):
            return math.inf
        ok = np.abs(fine - coarse) <= NORM_REL_TOL * total
        done += float(fine[ok].sum())
        lo, hi = (np.concatenate([lo[~ok], mid[~ok]]),
                  np.concatenate([mid[~ok], hi[~ok]]))
    return done


def kernel_norms(k, a):
    """The contraction norms entering the Laplace-domain bounds."""
    k1 = _norm(k)
    ek = _norm(k, a)
    tek = _norm(k, a, t_power=1)
    a_shift = a + k1
    ek_shift = _norm(k, a_shift)
    tek_shift = _norm(k, a_shift, t_power=1)
    return {
        "k_l1": k1,
        "exp_weighted": ek,
        "t_exp_weighted": tek,
        "a_shifted": a_shift,
        "exp_shift_weighted": ek_shift,
        "t_exp_shift_weighted": tek_shift,
    }


def _laplace_t_cutoff(k, a):
    ts = np.linspace(1e-9, 400.0, 8000)
    vals = np.exp(a * ts) * np.asarray(k(ts), dtype=float)  # k may be constant
    peak = vals.max()
    above = np.nonzero(vals > 1e-13 * peak)[0]
    return float(ts[above[-1]]) * 1.5 if len(above) else 50.0


def _shape_laplace_mc(k, a, shape, mc_samples, t_max, seed):
    """int_0^inf dt e^{at} over diagrams with this shape pinned to [0, t].

    The first and last of the 2n times are pinned to the interval ends
    (the boundary measure of spanning diagrams); the 2n - 2 interior times
    are an ordered uniform sample, stratified over the outer t.  Returns
    (estimate, sigma, samples drawn); n = 1 is a closed form and draws none.
    """
    n = shape.size
    if n == 1:
        val = _norm(k, a, upper=t_max)
        return val, 0.0, 0
    inner = 2 * n - 2
    rng = np.random.default_rng([seed, 11, n, hash(shape.pairs) % (1 << 32)])
    edges = np.linspace(0.0, t_max, MC_STRATA + 1)
    per = max(64, mc_samples // MC_STRATA)
    total, var = 0.0, 0.0
    log_fact = math.lgamma(inner + 1)
    pair_lo = np.array([r for r, _ in shape.pairs])
    pair_hi = np.array([s for _, s in shape.pairs])
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = lo + (hi - lo) * rng.random(per)
        w = np.sort(rng.random((per, inner)), axis=1)
        slots = np.empty((per, 2 * n))
        slots[:, 0] = 0.0
        slots[:, 1:-1] = w * t[:, None]
        slots[:, -1] = t
        lags = slots[:, pair_hi] - slots[:, pair_lo]
        weight = np.exp(a * t + inner * np.log(np.maximum(t, 1e-300))
                        - log_fact) * (hi - lo)
        vals = weight * np.prod(k(lags), axis=1)
        total += float(vals.mean())
        var += float(vals.var(ddof=1) / per)
    return total, math.sqrt(var), MC_STRATA * per


@dataclass(frozen=True)
class BoundCheck:
    estimate: float
    sigma: float
    bound: float

    @property
    def passed(self):
        return self.estimate <= self.bound + 3.0 * self.sigma

    def to_dict(self):
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class BoundReport:
    norms: dict
    minimally_irreducible: BoundCheck
    irreducible: BoundCheck
    irreducible_two_plus: BoundCheck
    samples: int         # Monte Carlo samples drawn, after the per-shape floors

    @property
    def passed(self):
        return (self.minimally_irreducible.passed and self.irreducible.passed
                and self.irreducible_two_plus.passed)

    def to_dict(self):
        """The fields, each `BoundCheck` by its `to_dict`, plus `passed`."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update({name: v.to_dict() for name, v in out.items()
                    if isinstance(v, BoundCheck)})
        return {**out, "passed": self.passed}


def check_lemma_bounds(k, a, n_max=4, mc_samples=10 ** 6, seed=0):
    """Estimate the Laplace integrals over (minimally) irreducible classes
    and compare each against its closed-form contraction bound.

    Preconditions: ||t e^{at} k||_1 < 1 and ||t e^{(a + ||k||_1) t} k||_1 < 1.
    Each irreducible shape of each size is sampled once by the
    pinned-endpoint sampler, the minimally irreducible one at
    mc_samples // n_max samples and every other one at
    max(2048, mc_samples // (n_max * #shapes)); the three estimates are
    sums over that one table.  Each comparison passes when the estimate
    does not exceed its bound by more than three sigma.  The integrals are
    cut in t by `_laplace_t_cutoff`.
    """
    if n_max < 1:
        raise ValueError(f"need at least 1 pair per diagram, got n_max {n_max}")
    if mc_samples < 1:
        raise ValueError(f"need at least 1 Monte Carlo sample, got {mc_samples}")
    if not math.isfinite(a):
        raise ValueError(f"the Laplace variable must be finite, got a = {a}")
    norms = kernel_norms(k, a)
    for name, key in (("||t e^(at) k||_1", "t_exp_weighted"),
                      ("||t e^(a~t) k||_1", "t_exp_shift_weighted")):
        if not math.isfinite(norms[key]):
            raise PreconditionError(
                f"{name} = inf: the integral diverges or needs more than "
                f"{NORM_PANELS} panels"
            )
        if not norms[key] < 1.0:
            raise PreconditionError(f"{name} = {norms[key]:.4f} >= 1")
    t_max = _laplace_t_cutoff(k, a)

    # one row (n, minimal, estimate, sigma) per irreducible shape of size n
    rows, drawn = [], 0
    for n in range(1, n_max + 1):
        shapes = [(dc, kind == "minimally_irreducible")
                  for dc in enumerate_pairings(n)
                  if (kind := classify(dc)) != "reducible"]
        budget = max(2048, mc_samples // (n_max * len(shapes)))
        for shape, minimal in shapes:
            est, sig, used = _shape_laplace_mc(
                k, a, shape, mc_samples // n_max if minimal else budget,
                t_max, seed)
            rows.append((n, minimal, est, sig))
            drawn += used

    def check(kept, bound):
        return BoundCheck(sum((est for est, _ in kept), 0.0),
                          math.sqrt(sum(sig ** 2 for _, sig in kept)), bound)

    shift_e = norms["exp_shift_weighted"]
    shift_te = norms["t_exp_shift_weighted"]
    return BoundReport(
        norms=norms,
        minimally_irreducible=check(
            [(est, sig) for _, minimal, est, sig in rows if minimal],
            norms["exp_weighted"] / (1.0 - norms["t_exp_weighted"])),
        irreducible=check([(est, sig) for _, _, est, sig in rows],
                          2.0 * shift_e / (1.0 - shift_te)),
        irreducible_two_plus=check(
            [(est, sig) for n, _, est, sig in rows if n >= 2],
            2.0 * shift_e * shift_te / (1.0 - shift_te)),
        samples=drawn,
    )
