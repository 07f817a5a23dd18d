"""Kinetic Monte Carlo for the population jump process.

Simulates the classical process underlying the population fiber: free
flight of the position at the group velocity (the dispersion gradient)
interrupted by jumps that change the internal level and kick the momentum
by the level gap times a uniformly random direction.  The momentum is kept
continuous (no grid), which makes the sampler the higher-fidelity oracle
against grid-based spectral results.

Trajectories are simulated in fixed-size blocks, each with its own
counter-keyed Philox stream, and block statistics are folded in block
order: results are bit-reproducible for a fixed seed and independent of
the worker thread count.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .generator import build_rate_table


BLOCK_SIZE = 32768
K_BINS = 32          # bins of each per-axis momentum histogram


def _wrap(k):
    return (k + math.pi) % (2.0 * math.pi) - math.pi


class _Process:
    """Precomputed jump data for the lockstep sampler."""

    def __init__(self, table):
        self.dim = table.dim
        self.levels = np.asarray(table.levels)
        rates = table.transition_matrix()
        self.total_rate = rates.sum(axis=1)
        with np.errstate(divide="ignore"):
            self.inv_rate = 1.0 / self.total_rate     # inf at a zero rate
        prob = np.zeros_like(rates)
        alive = self.total_rate > 0
        prob[alive] = rates[alive] / self.total_rate[alive, None]
        self.cum_prob = np.cumsum(prob, axis=1)
        self.radius = np.abs(self.levels[:, None] - self.levels[None, :])
        gibbs = np.exp(-table.beta * self.levels)
        self.gibbs = gibbs / gibbs.sum()
        self.gibbs_cum = np.cumsum(self.gibbs)
        self._coeffs = table.dispersion.per_axis(table.dim)

    def velocity(self, k):
        # inline gradient of the cosine series; the round loop is hot
        coeffs = self._coeffs
        out = coeffs[:, 0] * np.sin(k)
        for m in range(2, coeffs.shape[1] + 1):
            out += (coeffs[:, m - 1] * m) * np.sin(m * k)
        return out

    def velocity_1d(self, z):
        """`velocity` in d = 1 from z = exp(i k), by the recurrence
        sin((m + 1) k) = 2 cos k sin(m k) - sin((m - 1) k)."""
        coeffs, cos_k = self._coeffs[0], z.real
        out, prev, sin_mk = coeffs[0] * z.imag, 0.0, z.imag
        for m in range(2, len(coeffs) + 1):
            prev, sin_mk = sin_mk, 2.0 * cos_k * sin_mk - prev
            out += (coeffs[m - 1] * m) * sin_mk
        return out


@dataclass
class _BlockStats:
    count: int
    sum_x: np.ndarray
    sum_xx: np.ndarray
    sum_xx2: np.ndarray
    sum_x2ii: np.ndarray
    level_counts: np.ndarray
    k_counts: np.ndarray
    cgf_sum: np.ndarray
    cgf_moments: np.ndarray   # per probe: [re^2, im^2, re*im] sums

    def merge(self, other):
        return _BlockStats(**{f.name: getattr(self, f.name)
                              + getattr(other, f.name) for f in fields(self)})


def _start(proc, rng, n, t_final):
    """Walkers at x = 0 with uniform k and a Gibbs level: (x, k, e, t_rem)."""
    k = rng.uniform(-math.pi, math.pi, size=(n, proc.dim))
    e = np.searchsorted(proc.gibbs_cum, rng.random(n)).clip(0, len(proc.levels) - 1)
    x = np.zeros((n, proc.dim))
    t_rem = np.full(n, float(t_final))
    return x, k, e, t_rem


def _rounds(proc, rng, x, k, e, t_rem):
    """Run walkers to t_final in lockstep rounds; yield the mask of who jumped.

    The jump law: an exponential wait at the level's escape rate, free
    flight at the group velocity, a level chosen in proportion to the
    channel rates and a momentum kick of |de| in a uniform direction.  A
    walker whose wait overruns its remaining time flies to t_final and
    stops.  All draws happen for every slot every round, so the stream
    consumed depends only on the key and the walker count.  The state
    arrays are updated in place by full-vector operations: a walker that
    does not jump keeps its level and gets a zero kick (`radius` has a zero
    diagonal).  k is never wrapped here, as the velocity is 2 pi-periodic.
    The loop lives in this generator, so each round's temporaries stay
    allocated until the next round replaces them: freeing them between
    rounds made the allocator return and re-fault the pages, ~20 % slower.

    In d = 1 the kick takes finitely many values, so z = cos k + i sin k
    is rotated by a table of exp(i |de|) and the loop calls no trig; k is
    still kicked, so the stream, the events and k are unchanged.
    """
    n, d = x.shape
    n_lvl = len(proc.levels)
    two_level = n_lvl == 2
    radius = proc.radius.ravel()
    if d == 1:
        z = np.cos(k[:, 0]) + 1j * np.sin(k[:, 0])
        turn = np.cos(radius) + 1j * np.sin(radius)
    while t_rem.any():
        dt = rng.exponential(size=n)
        u_level = None if two_level else rng.random(n)
        if d == 1:
            s = rng.random(n) - 0.5    # its sign is the kick's
        else:
            s = rng.normal(size=(n, d))
            s /= np.sqrt(np.einsum("ij,ij->i", s, s))[:, None]
        dt *= proc.inv_rate.take(e)
        jump = dt < t_rem
        # fmin, not minimum: a zero-rate level's wait 0 * inf is NaN
        fly = np.fmin(dt, t_rem, out=dt)
        v = proc.velocity_1d(z)[:, None] if d == 1 else proc.velocity(k)
        x += v * fly[:, None]
        t_rem -= fly
        if two_level:
            e_new = e ^ jump
        else:
            e_new = (u_level[:, None] > proc.cum_prob[e]).sum(axis=1)
            e_new = np.where(jump, e_new.clip(0, n_lvl - 1), e)
        pair = e * n_lvl + e_new
        kick = radius.take(pair)
        if d == 1:
            k[:, 0] += np.copysign(kick, s, out=kick)
            # a walker that does not jump turns by 1 +- 0i: z stays bit for bit
            turn_t = turn.take(pair)
            np.copysign(turn_t.imag, s, out=turn_t.imag)
            z *= turn_t
        else:
            k += kick[:, None] * s
        e[:] = e_new
        yield jump


def _philox(seed, stream):
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed, stream], dtype=np.uint64)))


def _simulate_block(proc, n, t_final, seed, block_index, probes):
    """Run one block of walkers to t_final in lockstep rounds.

    Every walker processes its r-th event in round r.  The block's Philox
    key is (seed, block index), so its stream never depends on the worker
    count.  Levels with zero escape rate yield an infinite waiting time
    and fly ballistically to t_final.
    """
    rng = _philox(seed, block_index)
    d = proc.dim
    n_lvl = len(proc.levels)
    x, k, e, t_rem = _start(proc, rng, n, t_final)
    for _ in _rounds(proc, rng, x, k, e, t_rem):
        pass

    outer = x[:, :, None] * x[:, None, :]
    stats = _BlockStats(
        count=n,
        sum_x=x.sum(axis=0),
        sum_xx=x.T @ x,
        sum_xx2=(outer ** 2).sum(axis=0),
        sum_x2ii=(x ** 2).sum(axis=0),
        level_counts=np.bincount(e, minlength=n_lvl).astype(float),
        k_counts=np.stack([
            np.histogram(_wrap(k[:, ax]), bins=K_BINS,
                         range=(-math.pi, math.pi))[0]
            for ax in range(d)
        ]).astype(float),
        cgf_sum=np.zeros(len(probes), dtype=complex),
        cgf_moments=np.zeros((len(probes), 3)),
    )
    for i, p in enumerate(probes):
        phase = np.exp(-1j * (x @ np.asarray(p, dtype=float)))
        stats.cgf_sum[i] = phase.sum()
        stats.cgf_moments[i] = [float((phase.real ** 2).sum()),
                                float((phase.imag ** 2).sum()),
                                float((phase.real * phase.imag).sum())]
    return stats


@dataclass(frozen=True)
class CgfEstimate:
    probe: tuple
    value: complex           # (1/t) log E[exp(-i p . x_t)]
    se_real: float
    se_imag: float
    sample_mean: complex     # the raw ensemble average E[exp(-i p . x_t)]

    def to_dict(self):
        return {
            "probe": list(self.probe),
            "re": self.value.real, "im": self.value.imag,
            "se_real": self.se_real, "se_imag": self.se_imag,
            "sample_mean_re": self.sample_mean.real,
            "sample_mean_im": self.sample_mean.imag,
        }


@dataclass(frozen=True)
class EnsembleStats:
    n_traj: int
    t_final: float
    mean_x: np.ndarray
    mean_x_se: np.ndarray
    cov_x: np.ndarray
    diffusion: np.ndarray        # cov_x / t_final
    diffusion_se: np.ndarray
    level_hist: np.ndarray
    gibbs_expected: np.ndarray
    k_hist: np.ndarray           # per-axis marginal counts
    cgf: tuple
    warnings: tuple

    def k_marginal_tv(self, axis=0):
        counts = self.k_hist[axis]
        frac = counts / counts.sum()
        return 0.5 * float(np.abs(frac - 1.0 / len(frac)).sum())

    def to_dict(self):
        """The fields, arrays as lists, plus `k_marginal_tv` of each axis."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update({name: v.tolist() for name, v in out.items()
                    if isinstance(v, np.ndarray)})
        out["cgf"] = [c.to_dict() for c in self.cgf]
        out["k_marginal_tv"] = [self.k_marginal_tv(ax)
                                for ax in range(len(self.k_hist))]
        return out


def _check_horizon(t_final):
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be finite and positive, got {t_final}")


def check_ensemble_args(n_traj, t_final):
    """Raise the `ValueError` of `run_ensemble` for a walker count or horizon it cannot use."""
    if n_traj < 2:
        raise ValueError(f"need at least 2 trajectories for a covariance, "
                         f"got {n_traj}")
    _check_horizon(t_final)


def run_ensemble(cfg, n_traj, t_final, probes=(), table=None, threads=1,
                 g_low=None):
    """Simulate independent walkers and return diffusion/equipartition stats.

    Walkers start at x = 0 with uniform momentum and Gibbs-distributed
    level, which is the stationary law of (k, e); the position estimators
    are therefore free of burn-in apart from the intrinsic velocity
    correlation time.  `probes` requests estimates of the decay rate
    (1/t) log E[exp(-i p . x_t)] at those fiber momenta.
    """
    check_ensemble_args(n_traj, t_final)
    probes = [np.atleast_1d(np.asarray(p, dtype=float)) for p in probes]
    if not all(p.shape == (cfg.dim,) and np.isfinite(p).all() for p in probes):
        raise ValueError(f"probe momenta must be finite with {cfg.dim} "
                         f"components, got {[p.tolist() for p in probes]}")
    proc = _Process(table if table is not None else build_rate_table(cfg))
    sizes = [BLOCK_SIZE] * (n_traj // BLOCK_SIZE)
    if n_traj % BLOCK_SIZE:
        sizes.append(n_traj % BLOCK_SIZE)

    def job(args):
        b, size = args
        return _simulate_block(proc, size, t_final, cfg.rng_seed, b, probes)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        total = functools.reduce(_BlockStats.merge,
                                 pool.map(job, enumerate(sizes)))

    n = total.count
    d = cfg.dim
    mean_x = total.sum_x / n
    cov = (total.sum_xx / n - np.outer(mean_x, mean_x)) * n / (n - 1)
    var_xx = total.sum_xx2 / n - (total.sum_xx / n) ** 2
    diffusion_se = np.sqrt(np.maximum(var_xx, 0.0) / n) / t_final
    var_xi = total.sum_x2ii / n - mean_x ** 2
    mean_se = np.sqrt(np.maximum(var_xi, 0.0) / n)

    cgf_estimates = []
    for i, p in enumerate(probes):
        m = total.cgf_sum[i] / n
        re2, im2, reim = total.cgf_moments[i] / n
        var_re = max(re2 - m.real ** 2, 0.0) / n
        var_im = max(im2 - m.imag ** 2, 0.0) / n
        cov_ri = (reim - m.real * m.imag) / n
        # delta method for log(m)/t, split into real and imaginary parts
        a, b = m.real, m.imag
        mag2 = a * a + b * b
        var_log_re = (a * a * var_re + 2 * a * b * cov_ri + b * b * var_im) / mag2 ** 2
        var_log_im = (a * a * var_im - 2 * a * b * cov_ri + b * b * var_re) / mag2 ** 2
        cgf_estimates.append(CgfEstimate(
            probe=tuple(p),
            value=complex(np.log(m) / t_final),
            se_real=math.sqrt(max(var_log_re, 0.0)) / t_final,
            se_imag=math.sqrt(max(var_log_im, 0.0)) / t_final,
            sample_mean=complex(m),
        ))

    warnings = []
    if g_low is not None and t_final < 10.0 / g_low:
        warnings.append(
            f"t_final = {t_final:g} is below 10 / g_low = {10.0 / g_low:g}: "
            "estimators may not be in the diffusive regime"
        )
    return EnsembleStats(
        n_traj=n, t_final=float(t_final),
        mean_x=mean_x, mean_x_se=mean_se,
        cov_x=cov, diffusion=cov / t_final, diffusion_se=diffusion_se,
        level_hist=total.level_counts,
        gibbs_expected=proc.gibbs * n,
        k_hist=total.k_counts,
        cgf=tuple(cgf_estimates),
        warnings=tuple(warnings),
    )


def sample_paths(cfg, n_paths, t_final, table=None):
    """Full trajectories for CSV dumps: rows (path, t, x, k, level).

    The walkers run as one lockstep block on the Philox key
    (seed, 2**32), so they follow the same jump law as `run_ensemble`.
    Each path has a row at t = 0, one after each of its jumps and one at
    exactly t = t_final; the rows are grouped by path in time order.
    """
    if n_paths < 1:
        raise ValueError(f"need at least 1 path, got {n_paths}")
    _check_horizon(t_final)
    proc = _Process(table if table is not None else build_rate_table(cfg))
    rng = _philox(cfg.rng_seed, 1 << 32)
    x, k, e, t_rem = _start(proc, rng, n_paths, t_final)

    def row(i):
        return (int(i), float(t_final - t_rem[i]), tuple(x[i].tolist()),
                tuple(_wrap(k[i]).tolist()), int(e[i]))

    paths = [[row(i)] for i in range(n_paths)]
    for jumped in _rounds(proc, rng, x, k, e, t_rem):
        for i in np.flatnonzero(jumped):
            paths[i].append(row(i))
    for i, rows in enumerate(paths):
        rows.append(row(i))
    return [r for rows in paths for r in rows]
