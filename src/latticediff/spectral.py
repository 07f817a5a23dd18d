"""Spectral analysis of the fiber generator: stationary state, gaps, diffusion.

The population fiber at p = 0 is a Markov generator whose kernel is the
Gibbs-in-level, flat-in-momentum state; its top eigenvalue moves off zero
quadratically in the fiber momentum p, and the (positive definite) matrix
of that quadratic decay rate is the diffusion tensor.  Two independent
routes compute it on the grid: finite differences of the tracked top
eigenvalue, and the resolvent formula on the velocity's Fourier modes
+-m e_i, where the p = 0 fiber is one small level block per mode.  With
the exact sphere average it gives the grid-free tensor (`continuum` in
`diffusion.json`), which kinetic Monte Carlo estimates.

Gaps, spectra and the Hessian work per Fourier sector of each fiber's
free axes, in the grid's Fourier-mode basis, where a fiber at real p is
real: every eigensolve runs in float64, free axis or none.  The sectors
come from `generator._sectors`, built from p and the shared mode blocks
with the kinetic term as a closed-form stencil, never from a dense fiber.
The curve and the gaps read dense sector spectra, halved under the signed
inversion of the non-free axes when the harmonics are odd
(`generator._fold`): of the x_F = 0 sector, plus whatever sector the
detailed-balance bound of its mode blocks (`generator._mode_bounds`)
cannot rule out of the bulk (`_spectrum_top`).  The Hessian (unfolded
x_F = 0 sectors of the center and the 2d axis points, as D is diagonal and
h^-2 would amplify the fold's ~1e-15 defect) and the stationary state use
`_rayleigh`, one solve a sweep: by detailed balance a sector's left vector
is Pi^-1 J v.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .generator import (_by_sector, _fold, _grid_mode_blocks, _left_map,
                        _level_pair, _mode_blocks, _mode_bounds, _sectors,
                        _split_axes, assemble_fiber, build_rate_table,
                        escape_rates)
from .model import NumericError, dispersion_grad
from .sphere import plane_wave_average


class TrackingLossError(NumericError):
    """Eigenvalue continuation lost the branch it was following."""


class FDInconsistencyError(NumericError):
    """Finite-difference step-halving check failed."""


def stationary_state(m00, ansatz=None):
    """Kernel vector of the population generator, normalized to total mass 1.

    The right vector of `_rayleigh` from `ansatz` (callers pass the Gibbs
    ansatz; ones by default) with ones, the exact left kernel of a Markov
    generator, as left vector.  Raises TrackingLossError if it stalls.
    """
    ones = np.ones(len(m00))
    v = _rayleigh(np.real(m00), ones if ansatz is None else ansatz,
                  lambda v: ones)[1]
    return v / v.sum()


def _rayleigh(matrix, v0, left):
    """Real eigenpair (eig, right) near 0 from v0, one solve per sweep, at
    the shift left(v) . A v / left(v) . v (`left`: right to left vector).
    Converged on |A v - sigma v| alone, so a poor `left` only slows it.
    TrackingLossError on a non-finite or ~0 denominator or after 60 sweeps.
    """
    m = np.asarray(matrix, dtype=float)
    eye = np.eye(len(m))
    scale = float(np.abs(m).max()) or 1.0
    v, sigma, resid = np.asarray(v0, dtype=float), 0.0, math.inf
    for _ in range(60):
        try:
            v_new = np.linalg.solve(m - sigma * eye, v)
        except np.linalg.LinAlgError:  # exactly singular (A(0) at sigma 0)
            v_new = np.full(len(v), np.nan)
        if not np.all(np.isfinite(v_new)):
            sigma += 1e-12 * scale
            continue
        v = v_new / np.abs(v_new).max()  # a tiny shift overflows the 2-norm
        v /= np.linalg.norm(v)
        u = left(v)
        denom = u @ v
        if not abs(denom) > 1e-14 * np.linalg.norm(u):
            raise TrackingLossError(f"left . right = {denom:.2e}: ~0 or "
                                    "not finite")
        mv = m @ v
        sigma = (u @ mv) / denom
        resid = float(np.linalg.norm(mv - sigma * v))
        if resid <= 1e-13 * scale:
            return float(sigma), v
    raise TrackingLossError(
        f"eigenvalue iteration did not converge (residual {resid:.2e})"
    )


@dataclass(frozen=True)
class FiberScanPoint:
    p: tuple
    eigenvalue: complex
    bulk_top: float      # max real part of the rest of the a = 0 spectrum
    gap: float           # elevation of the tracked eigenvalue above the rest


def _start_vector(table, block):
    """Gibbs x delta_{x=0}, the p = 0 kernel in the level-major Fourier-mode
    basis of a sector `block`."""
    v = np.zeros((len(table.levels), block.shape[0] // len(table.levels)))
    v[:, 0] = np.exp(-table.beta * np.asarray(table.levels))
    return v.ravel()


def _sector_bounds(cfg, table, p):
    """Per sector x_F of M(p), a real part that no eigenvalue `eigvals`
    computes for it (or for its folded halves) exceeds.

    Bendixson bounds the exact eigenvalues by the sector's max of
    `_mode_bounds`.  The computed ones are exact for B + E, with |E| ~ n eps
    |B| for n rows (backward stable QR), which moves the bound by at most
    kappa |E|, kappa = sqrt(max Gibbs / min Gibbs) the condition of the
    scaling, and |B| <= L max|A| + 2 sum_R |c|; the margin is 64 times that.
    """
    n_axis, rest = cfg.grid.points_per_axis, _split_axes(cfg, p)[1]
    bounds = _by_sector(cfg, p, _mode_bounds(table, n_axis)).max(axis=1)
    blocks = _grid_mode_blocks(table, n_axis)
    norm = (blocks.shape[1] * np.abs(blocks).max()
            + 2.0 * np.abs(cfg.dispersion.per_axis(cfg.dim)[list(rest)]).sum())
    spread = max(table.levels) - min(table.levels)
    margin = (64 * blocks.shape[1] * n_axis ** len(rest) * np.finfo(float).eps
              * math.exp(0.5 * table.beta * spread) * norm)
    return bounds + margin


def _spectrum_top(cfg, table, p, near=None):
    """(tracked, bulk) of the population fiber M(p) from the dense spectra of
    its (folded) sectors: the x_F = 0 (even half's) eigenvalue nearest
    `near` and the largest real part of the rest; with `near` None, None
    and the largest real part of all.

    x_F = 0 is solved first, then in one more call every other sector whose
    `_sector_bounds` exceeds that bulk: a sector left out has no eigenvalue
    above it, and the bulk only rises, so the result is the all-sector one.
    With no free axis there is one sector, and at p = 0 each sector is one
    L x L mode block.
    """
    eigs = [np.linalg.eigvals(s) for s in _fold(cfg, table, p, [0])]
    flat = np.concatenate([e.ravel() for e in eigs])
    if near is None:
        tracked, bulk = None, float(flat.real.max())
    else:
        top = int(np.argmin(np.abs(eigs[0][0] - near)))
        tracked, bulk = eigs[0][0, top], float(np.delete(flat, top).real.max())
    others = np.flatnonzero(_sector_bounds(cfg, table, p)[1:] > bulk) + 1
    if others.size:
        bulk = max([bulk] + [float(np.linalg.eigvals(s).real.max())
                             for s in _fold(cfg, table, p, others)])
    return tracked, bulk


def _max_velocity(cfg):
    """max |grad eps| over the momentum grid, read on its axes."""
    grad = dispersion_grad(cfg.dispersion, cfg.axis_points())
    return float(np.abs(grad).max())


def perron_curve(cfg, table, p_list):
    """Track the top eigenvalue of the population fiber along a p path.

    At every p the dense spectra of the x_F = 0 sector (or of its folded
    halves) are computed, plus those of any other sector whose detailed-
    balance bound does not rule it out of the bulk (`_spectrum_top`); from
    the zero mode at p = 0 on, the followed eigenvalue is the x_F = 0
    sector's (or its even half's) one nearest the previous step, and the
    rest gives the gap to the bulk.
    Raises TrackingLossError on a non-finite p, or when the followed
    eigenvalue jumps more than the fiber derivative allows (branch collision).
    """
    eig = 0.0
    grad_scale = _max_velocity(cfg)
    points = []
    prev_p = np.zeros(cfg.dim)
    for p in p_list:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if not np.all(np.isfinite(p)):
            raise TrackingLossError(f"fiber momentum {p.tolist()} is not finite")
        # unused, but pinned per p by perfbench/tests/test_spans.py (ROADMAP 1)
        assemble_fiber(cfg, table, p, 0.0)
        eig_new, bulk = _spectrum_top(cfg, table, p, near=eig)
        step = float(np.linalg.norm(p - prev_p))
        allowed = 4.0 * grad_scale * step + 1e-8
        if abs(eig_new - eig) > allowed:
            raise TrackingLossError(
                f"eigenvalue moved {abs(eig_new - eig):.3e} over step {step:.3e}"
            )
        points.append(FiberScanPoint(
            p=tuple(p), eigenvalue=complex(eig_new), bulk_top=bulk,
            gap=float(eig_new.real - bulk),
        ))
        eig, prev_p = eig_new, p
    return points


def coherence_top(table, bohr):
    """Exact max real part of an a != 0 fiber: -(j(e) + j(e')) / 2."""
    rates = escape_rates(table)
    i, j = _level_pair(np.asarray(table.levels), bohr)
    return -0.5 * (rates[i] + rates[j])


@dataclass(frozen=True)
class GapReport:
    g_low: float
    g_high: float
    p_star: float
    gap_at_zero: float
    coherence_tops: dict

    def to_dict(self):
        return {**asdict(self), "coherence_tops": {
            str(k): v for k, v in self.coherence_tops.items()}}


def spectral_gaps(cfg, table=None):
    """Bulk-separation rates for small and large momentum fibers.

    g_low bounds the bulk below the tracked eigenvalue over the small
    fibers (and above it only the tracked branch survives); g_high bounds
    the whole spectrum away from the axis on the large fibers.  The a != 0
    fibers are diagonal, so their tops come from the escape rates exactly.
    """
    if table is None:
        table = build_rate_table(cfg)
    axis = np.eye(cfg.dim)[0]
    p_small = [s * axis for s in (0.0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5)]
    p_large = [s * axis for s in (math.pi / 2, 3 * math.pi / 4, math.pi)]

    coherence = {a: coherence_top(table, a)
                 for a in sorted({c.bohr for c in table.channels})}
    coh_max = max(coherence.values()) if coherence else -math.inf

    points = perron_curve(cfg, table, p_small)
    elevations = []
    for pt in points:
        bulk = max(pt.bulk_top, coh_max)
        elevations.append((float(np.linalg.norm(np.real(pt.p))),
                           pt.eigenvalue.real, bulk))
    g_low = min(-bulk for _, _, bulk in elevations)
    # adaptive small-fiber radius: largest |p| at which the tracked branch
    # stays elevated with at least half the low-fiber gap to spare
    p_star = 0.0
    for radius, re_eig, bulk in elevations:
        if re_eig > -g_low and re_eig - bulk > 0.5 * g_low:
            p_star = max(p_star, radius)
    gap_at_zero = points[0].gap

    g_high = math.inf
    for p in p_large:
        g_high = min(g_high, -max(_spectrum_top(cfg, table, p)[1], coh_max))

    return GapReport(
        g_low=float(g_low), g_high=float(g_high), p_star=float(p_star),
        gap_at_zero=float(gap_at_zero), coherence_tops=coherence,
    )


def _hessian_once(cfg, table, h):
    """Gradient and Hessian of the tracked eigenvalue from 2d + 1 points.

    The center and the axis points +-h e_i (L N rows: the other d - 1 axes
    are free) are evaluated; the off-diagonal entries are 0.  The
    dispersion is a separable cosine series, so d_i eps lives on the modes
    x = +-m e_i, and M(0) is block-diagonal over the modes: the term
    <d_i eps, (-M(0))^-1 d_j eps pi> pairs no mode of axis i with one of
    axis j.  The kicks and direction rules are also reflection symmetric
    per axis, so lambda(p) is even in each p_j.  The tests check that on
    the fibers, and the diagonal against `diffusion_tensor_formula`, whose
    off-diagonal is 0 by the same mode argument.
    """
    def top(vec):
        block = _sectors(cfg, table, vec, [0])[0]
        return _rayleigh(block, _start_vector(table, block),
                         _left_map(cfg, table, vec))[0]

    center = top(np.zeros(cfg.dim))
    steps = h * np.eye(cfg.dim)
    fp = np.array([top(s) for s in steps])
    fm = np.array([top(-s) for s in steps])
    return (fp - fm) / (2 * h), np.diag((fp + fm - 2 * center) / h ** 2)


@dataclass(frozen=True)
class HessianDiffusion:
    tensor: np.ndarray
    gradient_norm: float
    richardson_defect: float


def _richardson(cfg, table, h):
    """`HessianDiffusion` from steps h and h / 2."""
    grad_h, hess_h = _hessian_once(cfg, table, h)
    grad_2, hess_2 = _hessian_once(cfg, table, h / 2)
    tensor = (hess_h - 4.0 * hess_2) / 3.0
    scale = max(float(np.abs(tensor).max()), 1e-300)
    return HessianDiffusion(
        tensor=tensor,
        gradient_norm=float(np.abs(np.concatenate([grad_h, grad_2])).max()),
        richardson_defect=float(np.abs(hess_2 - hess_h).max()) / scale)


def diffusion_tensor_hessian(cfg, table=None):
    """Diffusion tensor from central second differences of the fiber curve.

    The top eigenvalue behaves as -(1/2) p . D p near p = 0, so the tensor
    is minus the finite-difference Hessian, at steps h and h / 2, from
    2d + 1 points each, as D is diagonal (`_hessian_once`).  Both the
    gradient (must vanish by inversion symmetry) and the step-halving
    Richardson defect are diagnostics; the tensor is the extrapolant.
    h = 1e-3 unless its defect fails the 1e-4 gate, then once h = 1e-3 gap0
    / v_max (p = 0 gap of the mode blocks, max |grad eps| on the grid).  The
    defect goes as ~0.4 (h v_max / gap0)^2, and no one rule min(1e-3,
    c gap0 / v_max) serves all: reference_1d keeps h = 1e-3 for c >= 0.0192
    only, and a model with |W_01| = 1/32 passes for c <~ 0.016 only.
    """
    if table is None:
        table = build_rate_table(cfg)
    result = _richardson(cfg, table, 1e-3)
    if result.richardson_defect > 1e-4:
        gap0 = -_spectrum_top(cfg, table, np.zeros(cfg.dim), 0.0)[1]
        h = 1e-3 * gap0 / _max_velocity(cfg)
        if (h / 2) ** 2 < np.finfo(float).tiny:
            raise FDInconsistencyError(f"retry step {h:.2e}: h^2 underflows")
        result = _richardson(cfg, table, h)
    if result.richardson_defect > 1e-4:
        raise FDInconsistencyError("Hessian step-halving moved the tensor by "
                                   f"{result.richardson_defect:.2e} relative")
    return result


def _velocity_modes(cfg):
    """The support of a cosine-series velocity: per axis, harmonic m and
    sign, the mode sign m e_axis, where beta_axis = sign i m c_(axis, m) / 2.
    Returns axis, m, sign and beta, of shape (d, 2 d n_harmonics)."""
    coeffs = cfg.dispersion.per_axis(cfg.dim)
    axis, m, sign = (a.ravel() for a in np.meshgrid(
        np.arange(cfg.dim), np.arange(1, coeffs.shape[1] + 1), [1, -1],
        indexing="ij"))
    beta = np.zeros((cfg.dim, axis.size), dtype=complex)
    beta[axis, np.arange(axis.size)] = 0.5j * sign * m * coeffs[axis, m - 1]
    return axis, m, sign, beta


def _resolvent_contraction(cfg, beta, blocks):
    """D_ij = 2 Re sum_x conj(beta_i(x)) beta_j(x) r(x), symmetrised.

    r(x) = 1^T (-A(x))^-1 pi is the level-summed resolvent of the mode
    block A(x) applied to the Gibbs level weights pi: one batched L x L
    solve over the modes given.  beta has shape (d, modes) and blocks
    (modes, L, L); the caller leaves out the kernel mode x = 0.
    """
    gibbs = cfg.spin.gibbs_weights(cfg.beta)
    rhs = np.broadcast_to(gibbs[:, None], (len(blocks), len(gibbs), 1))
    r = np.linalg.solve(-blocks, rhs)[..., 0].sum(axis=1)
    tensor = 2.0 * np.einsum("ix,jx,x->ij", beta.conj(), beta, r).real
    return 0.5 * (tensor + tensor.T)


def diffusion_tensor_formula(cfg, table=None):
    """Diffusion tensor of the grid generator from the resolvent formula.

    With pi the Gibbs x uniform kernel of M(0), the tensor is

        D_ij = 2 sum_{k,e} d_i eps(k) [(-M(0))^-1 (d_j eps pi)](k, e),

    the inverse taken off the kernel.  M(0) is block-diagonal over the
    grid's Fourier modes, and the sampled velocity lives on the modes of
    `_velocity_modes` mod N, where harmonics on one mode sum: a +-m pair
    cancels at m = 0 or N / 2, so beta(0) = 0 (solvability) exactly.  Its
    phase (-1)^m (the grid starts at k = -pi) is one sign per mode, as N
    is even, so D omits it.  D is diagonal: no mode carries two axes.
    """
    if table is None:
        table = build_rate_table(cfg)
    d, n_axis = cfg.dim, cfg.grid.points_per_axis
    axis, m, sign, beta = _velocity_modes(cfg)
    keep = m % n_axis != 0
    modes, col = np.unique((sign * m % n_axis * n_axis ** (d - 1 - axis))[keep],
                           return_inverse=True)
    grid_beta = np.zeros((d, len(modes)), dtype=complex)
    np.add.at(grid_beta, (slice(None), col), beta[:, keep])
    return _resolvent_contraction(cfg, grid_beta,
                                  _grid_mode_blocks(table, n_axis)[modes])


def diffusion_tensor_continuum(cfg, table=None):
    """Grid-free diffusion tensor D_inf of the same resolvent formula, with
    the exact sphere average plane_wave_average(d, r |x|) of a channel of
    radius r on `_velocity_modes` in place of a deposited kernel.  KMC keeps
    the momentum continuous, so it estimates this tensor.  The grid tensor
    approaches it irregularly in N, not as a clean N^-2, and in d >= 3 only
    to the anisotropy floor of the direction rule (~1.5e-2 in 3-d, m = 16).
    """
    if table is None:
        table = build_rate_table(cfg)
    _, m, _, beta = _velocity_modes(cfg)
    blocks = _mode_blocks(table, lambda r: plane_wave_average(cfg.dim, r * m))
    return _resolvent_contraction(cfg, beta, blocks)
