"""Time-pair diagrams: enumeration, irreducibility, and Laplace-domain bounds.

A diagram is a set of n time pairs (u_i, v_i) in an interval, u_i < v_i,
ordered by u.  Dropping everything but the relative order of the 2n times
leaves a shape (an interleaving pattern); there are (2n-1)!! shapes.  A
diagram is irreducible in an interval when the union of its pair intervals
is connected and spans the whole interval, and minimally irreducible when
no sub-diagram can be removed keeping that property: for each n there is
exactly one such shape, with the times interleaved as
u1 u2 v1 u3 v2 ... u_n v_{n-1} v_n.

The weight of a diagram is the product of a kernel k over the pair lags,
and the quantities bounded here are Laplace-type integrals of that weight
over irreducible and minimally irreducible shapes, estimated by stratified
Monte Carlo over the ordered time simplex with the two extreme times
pinned to the interval ends.
"""

import math
from dataclasses import dataclass
import numpy as np
from scipy.integrate import quad

from .model import NumericError


class DiagramError(Exception):
    pass


class PreconditionError(NumericError):
    """Kernel norms violate the contraction conditions of the bounds."""


@dataclass(frozen=True)
class Diagram:
    """Concrete diagram: time pairs plus optional per-endpoint labels."""

    pairs: tuple                 # ((u_1, v_1), ..., (u_n, v_n))
    labels: tuple = ()           # optional ((x, side), ...) per endpoint

    def __post_init__(self):
        pairs = tuple((float(u), float(v)) for u, v in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        times = [t for uv in pairs for t in uv]
        if len(set(times)) != len(times):
            raise DiagramError("diagram times must be pairwise distinct")
        for u, v in pairs:
            if not u < v:
                raise DiagramError("each pair needs u < v")
        starts = [u for u, _ in pairs]
        if any(a >= b for a, b in zip(starts, starts[1:])):
            raise DiagramError("pairs must be ordered by increasing u")

    @property
    def size(self):
        return len(self.pairs)

    def lags(self):
        return tuple(v - u for u, v in self.pairs)

    def is_long(self, tau):
        return all(lag >= tau for lag in self.lags())

    def is_short(self, tau):
        return all(lag <= tau for lag in self.lags())

    def shape(self):
        times = sorted(t for uv in self.pairs for t in uv)
        rank = {t: i for i, t in enumerate(times)}
        return DiagramClass(pairs=tuple((rank[u], rank[v])
                                        for u, v in self.pairs))


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


def _connected(pairs):
    """Union of index intervals [r, s] is a single interval."""
    ordered = sorted(pairs)
    end = ordered[0][1]
    if ordered[0][0] != min(r for r, _ in ordered):
        return False
    for r, s in ordered[1:]:
        if r > end:
            return False
        end = max(end, s)
    return True


def _spans_and_connected(pairs, lo_slot, hi_slot):
    touches = (any(lo_slot in rs for rs in pairs)
               and any(hi_slot in rs for rs in pairs))
    return touches and _connected(pairs)


def classify(dc, contains_endpoints=(True, True)):
    """Classify a shape relative to its ambient interval.

    `contains_endpoints` says whether the diagram's first and last times
    sit exactly on the interval boundaries; a diagram that misses either
    end cannot span the interval and is reducible relative to it.
    Otherwise: irreducible when the pair intervals merge into one block,
    and minimally irreducible when additionally removing any nonempty
    subset of pairs destroys the spanning-irreducible property.
    """
    if not (contains_endpoints[0] and contains_endpoints[1]):
        return "reducible"
    pairs = dc.pairs
    if not _connected(pairs):
        return "reducible"
    n = len(pairs)
    hi_slot = 2 * n - 1
    for mask in range(1, (1 << n) - 1):
        remaining = [pairs[i] for i in range(n) if not (mask >> i) & 1]
        if _spans_and_connected(remaining, 0, hi_slot):
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


def irreducible_shapes(n):
    """All spanning-irreducible shapes (minimally irreducible included)."""
    return [dc for dc in enumerate_pairings(n)
            if classify(dc) in ("irreducible", "minimally_irreducible")]


def _norm(func, a=0.0, t_power=0, upper=math.inf):
    """L1 norm of t^power e^{at} k(t) on [0, upper], overflow-safe.

    The product is assembled in log space (kernels are nonnegative), so a
    decaying kernel against a growing exponential weight never overflows;
    genuinely divergent integrals come back as inf.
    """

    def f(t):
        base = float(func(t))
        if base <= 0.0 or (t_power and t == 0.0):
            return 0.0
        ln = a * t + math.log(base) + t_power * math.log(t)
        return math.exp(ln) if ln < 700.0 else math.inf

    try:
        val, _ = quad(f, 0.0, upper, limit=400)
    except (OverflowError, ValueError):
        return math.inf
    return val if math.isfinite(val) else math.inf


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


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    sigma: float
    per_size: dict


def integrate_unconstrained(k, t, n_max, mc_samples, seed=0):
    """Monte Carlo estimate of the unconstrained diagram sum up to n_max.

    Integrates prod k(v_i - u_i) over ordered u in [0, t] and free
    v_i in (u_i, t], summed over sizes 1 .. n_max; the exact sum over all
    sizes is bounded by exp(t ||k||_1) - 1.
    """
    per_size = {}
    total, var = 0.0, 0.0
    for n in range(1, n_max + 1):
        rng = np.random.default_rng([seed, 7, n])
        m = max(16, mc_samples // n_max)
        u = np.sort(rng.random((m, n)) * t, axis=1)
        v = u + (t - u) * rng.random((m, n))
        weight = (t ** n / math.factorial(n)) * np.prod(t - u, axis=1)
        vals = weight * np.prod(k(v - u), axis=1)
        est = float(vals.mean())
        sig = float(vals.std(ddof=1) / math.sqrt(m))
        per_size[n] = (est, sig)
        total += est
        var += sig ** 2
    return IntegralEstimate(value=total, sigma=math.sqrt(var), per_size=per_size)


def _laplace_t_cutoff(k, a):
    ts = np.linspace(1e-9, 400.0, 8000)
    vals = np.exp(a * ts) * np.asarray([k(t) for t in ts])
    peak = vals.max()
    above = np.nonzero(vals > 1e-13 * peak)[0]
    return float(ts[above[-1]]) * 1.5 if len(above) else 50.0


def _shape_laplace_mc(k, a, shape, mc_samples, t_max, seed, strata=16):
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
    edges = np.linspace(0.0, t_max, strata + 1)
    per = max(64, mc_samples // strata)
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
    return total, math.sqrt(var), strata * per


@dataclass(frozen=True)
class BoundCheck:
    estimate: float
    sigma: float
    bound: float

    @property
    def passed(self):
        return self.estimate <= self.bound + 3.0 * self.sigma

    def to_dict(self):
        return {"estimate": self.estimate, "sigma": self.sigma,
                "bound": self.bound, "passed": self.passed}


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
        return {
            "norms": self.norms,
            "minimally_irreducible": self.minimally_irreducible.to_dict(),
            "irreducible": self.irreducible.to_dict(),
            "irreducible_two_plus": self.irreducible_two_plus.to_dict(),
            "passed": self.passed,
            "samples": self.samples,
        }


def check_lemma_bounds(k, a, n_max=4, mc_samples=10 ** 6, seed=0):
    """Estimate the Laplace integrals over (minimally) irreducible classes
    and compare each against its closed-form contraction bound.

    Preconditions: ||t e^{at} k||_1 < 1 and ||t e^{(a + ||k||_1) t} k||_1 < 1.
    Estimates use the pinned-endpoint sampler; each comparison passes when
    the estimate does not exceed its bound by more than three sigma.  The
    integrals are cut in t by `_laplace_t_cutoff`.
    """
    if n_max < 1:
        raise ValueError(f"need at least 1 pair per diagram, got n_max {n_max}")
    if mc_samples < 1:
        raise ValueError(f"need at least 1 Monte Carlo sample, got {mc_samples}")
    norms = kernel_norms(k, a)
    if not norms["t_exp_weighted"] < 1.0:
        raise PreconditionError(
            f"||t e^(at) k||_1 = {norms['t_exp_weighted']:.4f} >= 1"
        )
    if not norms["t_exp_shift_weighted"] < 1.0:
        raise PreconditionError(
            f"||t e^(a~t) k||_1 = {norms['t_exp_shift_weighted']:.4f} >= 1"
        )
    t_max = _laplace_t_cutoff(k, a)

    mir_val, mir_var, drawn = 0.0, 0.0, 0
    for n in range(1, n_max + 1):
        est, sig, used = _shape_laplace_mc(k, a, mir_shape(n),
                                           mc_samples // n_max, t_max, seed)
        mir_val += est
        mir_var += sig ** 2
        drawn += used
    mir_bound = norms["exp_weighted"] / (1.0 - norms["t_exp_weighted"])

    ir_val, ir_var = 0.0, 0.0
    ir2_val, ir2_var = 0.0, 0.0
    for n in range(1, n_max + 1):
        shapes = irreducible_shapes(n)
        budget = max(2048, mc_samples // (n_max * len(shapes)))
        for shape in shapes:
            est, sig, used = _shape_laplace_mc(k, a, shape, budget, t_max, seed)
            drawn += used
            ir_val += est
            ir_var += sig ** 2
            if n >= 2:
                ir2_val += est
                ir2_var += sig ** 2
    shift_e = norms["exp_shift_weighted"]
    shift_te = norms["t_exp_shift_weighted"]
    ir_bound = 2.0 * shift_e / (1.0 - shift_te)
    ir2_bound = 2.0 * shift_e * shift_te / (1.0 - shift_te)

    return BoundReport(
        norms=norms,
        minimally_irreducible=BoundCheck(mir_val, math.sqrt(mir_var), mir_bound),
        irreducible=BoundCheck(ir_val, math.sqrt(ir_var), ir_bound),
        irreducible_two_plus=BoundCheck(ir2_val, math.sqrt(ir2_var), ir2_bound),
        samples=drawn,
    )
