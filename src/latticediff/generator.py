"""Discretized fiberwise jump generator: gain, loss, and kinetic blocks.

States live on the momentum grid times the internal levels.  A jump from
level e to level e' kicks the momentum by |e - e'| times a unit direction,
so the momentum part of every channel kernel is a translation average.  On
the uniform grid each translated deposition is a circulant matrix, which
makes row sums, column sums, and the transpose all exact; detailed balance
is then enforced as an identity by constructing only the downward (energy
emitting) kernels and defining the reverse kernel as the scaled transpose.

Translation invariance also makes the gain independent of the fiber momentum
p: it is built once per (rate table, grid) and every fiber shares it
read-only, adding only its loss and p-dependent kinetic diagonals.  In
the grid's Fourier-mode basis the p = 0 fiber is one small real level block
A(x) per mode, also built once.  A fiber's spectral sectors come from p
alone (`_sectors`): those blocks plus the kinetic term as a stencil that
couples mode x to x +- m e_i by -+(-1)^m c_im sin(m p_i / 2); an axis with
p_i = 0 or a flat dispersion row stays free.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import NumericError
from .sphere import direction_nodes, surface_area


class GeneratorError(NumericError):
    """Rate table or assembly violates a structural requirement."""


@dataclass(frozen=True)
class Channel:
    """One ordered level pair (source -> target) with its jump data."""

    source: int          # level index the jump leaves
    target: int          # level index the jump enters
    bohr: float          # e_source - e_target
    amplitude: float     # 2 pi psi_hat(bohr) |<target|W|source>|^2
    radius: float        # |bohr|, the momentum kick magnitude


@dataclass(frozen=True)
class JumpRateTable:
    """All jump channels of a model plus the shared sphere quadrature.

    Carries the dispersion spec as well, so the sampler can be driven by
    the table alone (free flight needs the group velocity).
    """

    levels: tuple
    channels: tuple
    nodes: tuple         # direction nodes on S^{d-1}, flattened rows
    weights: tuple       # node weights, summing to |S^{d-1}|
    dim: int
    beta: float
    dispersion: object = None

    @property
    def node_array(self):
        return np.asarray(self.nodes).reshape(len(self.weights), self.dim)

    @property
    def weight_array(self):
        return np.asarray(self.weights)

    def transition_matrix(self):
        """Level-to-level total rates: R[u, v] = rate of jumps u -> v."""
        n = len(self.levels)
        out = np.zeros((n, n))
        total = surface_area(self.dim)
        for c in self.channels:
            out[c.source, c.target] = c.amplitude * total
        return out


def build_rate_table(cfg):
    """Jump channels with detailed balance built in as an identity.

    Only downward channels (source energy above target) read the bath
    profile; each upward channel amplitude is the downward one scaled by
    exp(-beta * gap), which is what the emission/absorption relation of
    the profile dictates, made exact at the float level.
    """
    levels = np.asarray(cfg.spin.levels)
    w = cfg.spin.w
    channels = []
    for hi in range(len(levels)):
        for lo in range(len(levels)):
            if levels[hi] <= levels[lo]:
                continue
            gap = float(levels[hi] - levels[lo])
            weight = abs(w[lo, hi]) ** 2
            if weight == 0.0:
                continue
            down = 2.0 * math.pi * float(cfg.bath.psi_hat(gap)) * weight
            if down == 0.0:
                continue
            channels.append(Channel(source=hi, target=lo, bohr=gap,
                                    amplitude=down, radius=gap))
            channels.append(Channel(source=lo, target=hi, bohr=-gap,
                                    amplitude=down * math.exp(-cfg.beta * gap),
                                    radius=gap))
    nodes, weights = direction_nodes(cfg.dim, cfg.grid.sphere_nodes)
    return JumpRateTable(
        levels=tuple(float(e) for e in levels),
        channels=tuple(channels),
        nodes=tuple(nodes.ravel()),
        weights=tuple(weights),
        dim=cfg.dim,
        beta=cfg.beta,
        dispersion=cfg.dispersion,
    )


def escape_rates(table):
    """Total outgoing rate per level; zero rates are a hard error."""
    rates = table.transition_matrix().sum(axis=1)
    if np.any(rates <= 0.0):
        dead = [i for i, r in enumerate(rates) if r <= 0.0]
        raise GeneratorError(
            f"levels {dead} have zero escape rate; the level graph cannot "
            "be connected"
        )
    return rates


def _deposit_kernel(radius, nodes, weights, n_axis, dim):
    """Sphere-averaged translation kernel on the periodic grid.

    Returns the circulant kernel kappa indexed by grid offset: source k
    scatters to k - radius * s for each direction node s, with the target
    split over the 2^d surrounding grid points by multilinear weights.
    The kernel total equals the sphere area exactly, and both the row and
    column sums of the induced circulant matrix equal that total.
    """
    h = 2.0 * math.pi / n_axis
    kappa = np.zeros((n_axis,) * dim)
    corners = np.stack(np.meshgrid(*([[0, 1]] * dim), indexing="ij"),
                       axis=-1).reshape(-1, dim)
    for s, w in zip(nodes, weights):
        offset = -radius * np.asarray(s) / h
        base = np.floor(offset).astype(int)
        frac = offset - base
        corner_w = np.prod(np.where(corners == 1, frac, 1.0 - frac), axis=1)
        corner_w = corner_w / corner_w.sum()
        for c, cw in zip(corners, corner_w):
            idx = tuple((base + c) % n_axis)
            kappa[idx] += w * cw
    return kappa


def _circulant_from_kernel(kappa):
    """Dense circulant matrix M[target, source] = kappa[(target - source) % N]."""
    shape = kappa.shape
    n_total = kappa.size
    coords = np.unravel_index(np.arange(n_total), shape)
    flat = np.zeros((n_total, n_total), dtype=np.intp)
    stride = 1
    for ax in range(len(shape) - 1, -1, -1):
        c = coords[ax]
        flat += ((c[:, None] - c[None, :]) % shape[ax]) * stride
        stride *= shape[ax]
    return kappa.ravel()[flat]


@functools.lru_cache(maxsize=4)
def _population_gain(table, n_axis):
    """Gain part of the a = 0 fiber on grid x levels, shared by every p.

    Each downward kernel is deposited and made circulant once; the reverse
    channel gets its own amplitude times the transposed block.  Read-only,
    because every caller receives the same array.
    """
    n_cells = n_axis ** table.dim
    n_lvl = len(table.levels)
    amplitude = {(c.source, c.target): c.amplitude for c in table.channels}
    gain = np.zeros((n_lvl * n_cells, n_lvl * n_cells))
    for c in table.channels:
        if c.bohr <= 0:
            continue
        block = _circulant_from_kernel(_deposit_kernel(
            c.radius, table.node_array, table.weight_array, n_axis, table.dim))
        lo = slice(c.target * n_cells, (c.target + 1) * n_cells)
        hi = slice(c.source * n_cells, (c.source + 1) * n_cells)
        gain[lo, hi] = c.amplitude * block
        gain[hi, lo] = amplitude[(c.target, c.source)] * block.T
    gain.flags.writeable = False
    return gain


def _mode_blocks(table, kernel_hat):
    """The p = 0 population fiber as one L x L block A(x) per Fourier mode.

    The gain is circulant and the loss does not depend on k, so M(0) splits
    exactly over the modes x of the momentum grid.  `kernel_hat(radius)`
    returns a downward channel's real kernel transform over the modes (the
    kernels are inversion symmetric); the reverse channel, the transposed
    block in `_population_gain`, takes the same transform, and the escape
    rates sit on the diagonal.  Returns a float array of shape (modes, L, L).
    """
    rates = escape_rates(table)
    amplitude = {(c.source, c.target): c.amplitude for c in table.channels}
    down = [c for c in table.channels if c.bohr > 0]
    k_hats = [np.asarray(kernel_hat(c.radius)) for c in down]
    n_lvl = len(rates)
    blocks = np.zeros((k_hats[0].size, n_lvl, n_lvl))
    for c, k_hat in zip(down, k_hats):
        blocks[:, c.target, c.source] = c.amplitude * k_hat
        blocks[:, c.source, c.target] = amplitude[(c.target, c.source)] * k_hat
    blocks[:, np.arange(n_lvl), np.arange(n_lvl)] = -rates
    return blocks


@functools.lru_cache(maxsize=4)
def _grid_mode_blocks(table, n_axis):
    """`_mode_blocks` on the N^d grid, C order over the modes: kernel
    transforms by FFT, shared read-only like `_population_gain`."""
    def kernel_hat(radius):
        k_hat = np.fft.fftn(_deposit_kernel(
            radius, table.node_array, table.weight_array, n_axis,
            table.dim)).ravel()
        if np.abs(k_hat.imag).max() > 64 * np.finfo(float).eps * k_hat[0].real:
            raise NumericError("fiber is not real in the Fourier-mode basis: "
                               "a deposition kernel is not inversion symmetric")
        return k_hat.real

    blocks = _mode_blocks(table, kernel_hat)
    blocks.flags.writeable = False
    return blocks


def _sectors(cfg, table, p, zero_only=False):
    """Free axes F of the population fiber M(p) and its sector blocks B(x_F).

    An axis is free when p_i = 0 or its dispersion row is all zero: the
    gain is circulant, so M(p) is block-diagonal over the Fourier modes x_F
    of the free axes.  A block, in the mode basis of the other axes, holds
    A(x) on its diagonal and the kinetic term -i Delta eps as a stencil on
    every level: mode x' feeds x = x' +- m e_i (mod N) with weight -+w,
    w = (-1)^m c_im sin(m p_i / 2), where the (-1)^m comes from the grid
    starting at k = -pi.  At real p the blocks are real.  Returns F and the
    float64 stack (N^|F|, L N^(d-|F|), L N^(d-|F|)), C order over x_F,
    level-major; `zero_only` builds the x_F = 0 sector alone.
    """
    d, n_axis = cfg.dim, cfg.grid.points_per_axis
    n_lvl = len(table.levels)
    coeffs = cfg.dispersion.per_axis(d)
    free = tuple(i for i in range(d) if p[i] == 0 or not np.any(coeffs[i]))
    rest = [i for i in range(d) if i not in free]
    n_rest = n_axis ** len(rest)
    blocks = np.moveaxis(
        _grid_mode_blocks(table, n_axis).reshape((n_axis,) * d + (n_lvl, n_lvl)),
        free, range(len(free))).reshape(-1, n_rest, n_lvl, n_lvl)
    blocks = blocks[:1] if zero_only else blocks
    eye = np.eye(n_rest).reshape((n_axis,) * (2 * len(rest)))
    kinetic = np.zeros_like(eye)
    for j, i in enumerate(rest):
        for m, c in enumerate(coeffs[i], start=1):
            w = (-1) ** m * c * math.sin(m * p[i] / 2.0)
            kinetic -= w * (np.roll(eye, m, axis=j) - np.roll(eye, -m, axis=j))
    x = np.arange(n_rest)
    stack = np.zeros((len(blocks), n_lvl, n_rest, n_lvl, n_rest))
    stack[:, :, x, :, x] = np.moveaxis(blocks, 1, 0)
    lvl = np.arange(n_lvl)
    stack[:, lvl, :, lvl, :] += kinetic.reshape(n_rest, n_rest)
    return free, stack.reshape(len(blocks), n_lvl * n_rest, n_lvl * n_rest)


@dataclass(frozen=True)
class FiberBlock:
    """One assembled fiber operator on the grid (times levels for a = 0).

    For the population block (a = 0) the matrix acts on per-cell masses
    over grid x levels (level-major layout) and splits into a nonnegative
    gain part, a loss diagonal, and a purely imaginary kinetic diagonal.
    The gain array is the read-only one shared by every fiber of the same
    rate table and grid.  For a != 0 the operator is diagonal on the grid.
    """

    p: tuple
    bohr: float
    matrix: np.ndarray
    escape: np.ndarray
    kinetic: np.ndarray
    gain: np.ndarray = None
    loss: np.ndarray = None

    @property
    def size(self):
        return self.matrix.shape[0]


def _kinetic_difference(cfg, p):
    """eps(k + p/2) - eps(k - p/2), summed per axis and harmonic as
    c_im [cos(m(k_i - p_i/2)) - cos(m(k_i + p_i/2))]: an axis with p_i = 0
    adds exact zeros, so the dense fiber splits over it as `_sectors` does."""
    coeffs = cfg.dispersion.per_axis(cfg.dim)
    harmonics = np.arange(1, coeffs.shape[1] + 1)
    kpts = cfg.grid_points()
    terms = (np.cos(np.multiply.outer(kpts - p / 2.0, harmonics))
             - np.cos(np.multiply.outer(kpts + p / 2.0, harmonics)))
    return np.einsum("nim,im->n", terms, coeffs)


def assemble_fiber(cfg, table, p, bohr=0.0, lamb_shifts=None):
    """Assemble the fiber operator at momentum fiber p and channel `bohr`.

    The a = 0 block is gain + loss + kinetic on grid x levels; columns of
    its real part sum to zero by construction.  An a != 0 block is the
    diagonal -i(shift_a + eps(k + p/2) - eps(k - p/2)) - (j(e) + j(e'))/2
    on the grid alone, where (e, e') is the unique level pair with
    difference a and shift_a the bath-induced channel phase looked up in
    `lamb_shifts` (see reservoir.lamb_shift; omitted means zero, which
    changes no real part).

    Real fibers are the spectral default; small imaginary parts of p are
    accepted for analyticity probes (the dispersion is entire).
    """
    p = np.atleast_1d(np.asarray(p))
    if not np.iscomplexobj(p):
        p = p.astype(float)
    if p.shape != (cfg.dim,):
        raise GeneratorError(f"fiber p must have dim {cfg.dim}")
    n_axis = cfg.grid.points_per_axis
    n_cells = n_axis ** cfg.dim
    levels = np.asarray(table.levels)
    n_lvl = len(levels)
    rates = escape_rates(table)
    delta_eps = _kinetic_difference(cfg, p)

    if bohr == 0.0:
        gain = _population_gain(table, n_axis)
        loss = np.repeat(rates, n_cells)
        kinetic = np.tile(delta_eps, n_lvl)
        if np.any(delta_eps):
            matrix = gain.astype(complex)
            matrix[np.diag_indices_from(matrix)] += -loss - 1j * kinetic
        else:
            matrix = gain.copy()
            matrix[np.diag_indices_from(matrix)] -= loss
        return FiberBlock(p=tuple(p), bohr=0.0, matrix=matrix, escape=rates,
                          kinetic=kinetic, gain=gain, loss=loss)

    pair = _level_pair(levels, bohr)
    shift = 0.0 if lamb_shifts is None else float(lamb_shifts.get(float(bohr), 0.0))
    diag = (-1j * (shift + delta_eps)
            - 0.5 * (rates[pair[0]] + rates[pair[1]]))
    return FiberBlock(p=tuple(p), bohr=float(bohr), matrix=np.diag(diag),
                      escape=rates, kinetic=delta_eps)


def _level_pair(levels, bohr):
    for i in range(len(levels)):
        for j in range(len(levels)):
            if i != j and math.isclose(levels[i] - levels[j], bohr,
                                       rel_tol=0.0, abs_tol=1e-12):
                return i, j
    raise GeneratorError(f"{bohr} is not a level difference of the model")


@dataclass(frozen=True)
class CrosscheckSample:
    bohr: float
    x: tuple
    closed_form: float
    time_quadrature: float
    grid_transform: float
    quad_rel_error: float
    grid_peak_error: float


@dataclass(frozen=True)
class CrosscheckReport:
    samples: tuple
    max_quad_rel_error: float
    max_grid_peak_error: float


def gain_kernel_crosscheck(cfg, bohr, xs, table=None):
    """Cross-validate one channel kernel three ways.

    For each lattice point x, compares (i) the closed sphere form of the
    channel coefficient, (ii) its time-quadrature Fourier transform, and
    (iii) the lattice Fourier transform of the assembled grid kernel.
    Grid errors are measured relative to the kernel peak (the x = 0
    coefficient): the coefficient oscillates through zeros in x, where a
    pointwise relative error would be meaningless.
    """
    from .reservoir import gain_coefficient_position, gain_coefficient_sphere

    if table is None:
        table = build_rate_table(cfg)
    channel = next((c for c in table.channels
                    if math.isclose(c.bohr, bohr, rel_tol=0, abs_tol=1e-12)), None)
    if channel is None:
        raise GeneratorError(f"no active channel with level difference {bohr}")
    n_axis = cfg.grid.points_per_axis
    # a reverse channel's kernel is the reversed downward one, whose lattice
    # transform is the complex conjugate: the real part compared is the same
    kappa = _deposit_kernel(channel.radius, table.node_array,
                            table.weight_array, n_axis, cfg.dim)
    peak = 2.0 * math.pi * cfg.bath.psi_hat(channel.bohr) * surface_area(cfg.dim)
    # kernel index o corresponds to the momentum offset o * (2 pi / N)
    ax = 2.0 * math.pi * np.arange(n_axis) / n_axis
    mesh = np.meshgrid(*([ax] * cfg.dim), indexing="ij")
    offsets = np.stack([m.ravel() for m in mesh], axis=-1)
    samples = []
    for x in xs:
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        closed = gain_coefficient_sphere(cfg.bath, channel.bohr, x_arr)
        timeq = gain_coefficient_position(cfg.bath, channel.bohr, x_arr)
        phases = np.exp(1j * offsets @ x_arr)
        grid_val = float(np.real(kappa.ravel() @ phases)) * 2.0 * math.pi \
            * cfg.bath.psi_hat(channel.bohr)
        quad_rel = abs(timeq - closed) / max(abs(closed), 1e-300)
        grid_err = abs(grid_val - closed) / peak
        samples.append(CrosscheckSample(
            bohr=channel.bohr, x=tuple(float(v) for v in x_arr),
            closed_form=float(closed), time_quadrature=float(timeq),
            grid_transform=grid_val, quad_rel_error=float(quad_rel),
            grid_peak_error=float(grid_err),
        ))
    return CrosscheckReport(
        samples=tuple(samples),
        max_quad_rel_error=max(s.quad_rel_error for s in samples),
        max_grid_peak_error=max(s.grid_peak_error for s in samples),
    )
