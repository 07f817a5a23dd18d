import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from latticediff import generator
from latticediff.generator import (GeneratorError, _sectors, assemble_fiber,
                                   build_rate_table, escape_rates,
                                   gain_kernel_crosscheck)
from latticediff.model import (DispersionSpec, GridSpec, ModelConfig,
                               NumericError, SpinSystem, validate_model)
from latticediff.presets import flat_dispersion_1d, reference_1d, reference_2d
from latticediff.reservoir import BathProfile
from latticediff.spectral import diffusion_tensor_formula, perron_curve


def _tabulated_model(beta=1.0):
    """Two levels with psi_hat(1) pinned to exactly 1 (escape-rate example)."""
    return ModelConfig(
        dim=1,
        dispersion=DispersionSpec("nearest_neighbor"),
        spin=SpinSystem(levels=(0.0, 1.0), couplings=((0, 1), (1, 0))),
        beta=beta,
        bath=BathProfile("tabulated", beta=beta, dim=1,
                         table_omega=(0.0, 1.0, 2.0),
                         table_values=(0.0, 1.0, 0.0)),
        grid=GridSpec(points_per_axis=32, sphere_nodes=2),
    )


def test_one_dimensional_sphere_is_two_points(ref1d_table):
    nodes = ref1d_table.node_array
    weights = ref1d_table.weight_array
    assert sorted(nodes.ravel().tolist()) == [-1.0, 1.0]
    assert np.all(weights == 1.0)


def test_rate_table_detailed_balance_identity(ref1d, ref1d_table):
    up = {(c.source, c.target): c.amplitude for c in ref1d_table.channels}
    beta = ref1d.beta
    assert up[(0, 1)] / up[(1, 0)] == pytest.approx(math.exp(-beta), abs=1e-16)


def test_rate_table_skips_zero_couplings():
    couplings = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    cfg = ModelConfig(
        dim=1, dispersion=DispersionSpec("nearest_neighbor"),
        spin=SpinSystem(levels=(0.0, 1.0, 2.5), couplings=couplings),
        beta=1.0, bath=BathProfile("builtin_gaussian", beta=1.0, dim=1),
        grid=GridSpec(points_per_axis=16, sphere_nodes=2),
    )
    table = build_rate_table(cfg)
    touched = {(c.source, c.target) for c in table.channels}
    assert touched == {(0, 1), (1, 0)}
    with pytest.raises(GeneratorError, match="zero escape"):
        escape_rates(table)


def test_escape_rates_reference_example():
    table = build_rate_table(_tabulated_model())
    rates = escape_rates(table)
    assert rates[1] == pytest.approx(4 * math.pi, rel=1e-14)
    assert rates[0] == pytest.approx(4 * math.pi * math.exp(-1.0), rel=1e-14)


def test_escape_rates_zero_coupling_raises():
    cfg = ModelConfig(
        dim=1, dispersion=DispersionSpec("nearest_neighbor"),
        spin=SpinSystem(levels=(0.0, 1.0), couplings=((0, 0), (0, 0))),
        beta=1.0, bath=BathProfile("builtin_gaussian", beta=1.0, dim=1),
        grid=GridSpec(points_per_axis=16, sphere_nodes=2),
    )
    with pytest.raises(GeneratorError):
        escape_rates(build_rate_table(cfg))


def test_discrete_outgoing_matches_analytic_escape(ref1d_block, ref1d_table):
    n = ref1d_block.gain.shape[0] // 2
    rates = escape_rates(ref1d_table)
    for lvl in range(2):
        cols = ref1d_block.gain[:, lvl * n:(lvl + 1) * n].sum(axis=0)
        assert np.max(np.abs(cols - rates[lvl])) <= 1e-12 * rates[lvl]


def test_population_block_conserves_probability(ref1d_block):
    col_sums = ref1d_block.matrix.real.sum(axis=0)
    assert np.max(np.abs(col_sums)) <= 1e-12


def test_left_constant_vector_annihilates(ref1d_block):
    ones = np.ones(ref1d_block.size)
    assert np.max(np.abs(ones @ ref1d_block.matrix)) <= 1e-12


def test_gain_entries_nonnegative(ref1d_block):
    assert ref1d_block.gain.min() >= 0.0


def test_detailed_balance_entrywise(ref1d, ref1d_block):
    n = ref1d_block.gain.shape[0] // 2
    down = ref1d_block.gain[:n, n:]       # from level 1 into level 0
    up = ref1d_block.gain[n:, :n]         # from level 0 into level 1
    gap = 1.0
    mask = down > 0
    ratio = down[mask] / (math.exp(ref1d.beta * gap) * up.T[mask])
    assert np.max(np.abs(ratio - 1.0)) <= 1e-12


def test_gibbs_vector_in_kernel(ref1d, ref1d_block):
    n = ref1d_block.size // 2
    phi = np.concatenate([np.full(n, 1.0), np.full(n, math.exp(-ref1d.beta))])
    assert np.max(np.abs(ref1d_block.matrix @ phi)) <= 1e-10


def test_coherence_block_diagonal_real_parts(ref1d, ref1d_table):
    rates = escape_rates(ref1d_table)
    block = assemble_fiber(ref1d, ref1d_table, np.zeros(1), 1.0)
    diag = np.diag(block.matrix)
    expected = -0.5 * (rates[0] + rates[1])
    assert np.all(diag.real == expected)
    off = block.matrix - np.diag(diag)
    assert np.max(np.abs(off)) == 0.0


def test_coherence_block_carries_lamb_shift(ref1d, ref1d_table):
    block = assemble_fiber(ref1d, ref1d_table, np.zeros(1), 1.0,
                           lamb_shifts={1.0: 0.25})
    plain = assemble_fiber(ref1d, ref1d_table, np.zeros(1), 1.0)
    diff = np.diag(block.matrix) - np.diag(plain.matrix)
    assert np.allclose(diff, -0.25j)
    assert np.array_equal(np.diag(block.matrix).real,
                          np.diag(plain.matrix).real)


def _assert_symmetric_flux(cfg, block):
    """Detailed balance: the stationary flux gain[t, s] * gibbs[s] is symmetric."""
    n_cells = block.size // len(cfg.spin.levels)
    gibbs = np.repeat(np.exp(-cfg.beta * np.asarray(cfg.spin.levels)), n_cells)
    flux = block.gain * gibbs
    assert np.abs(flux - flux.T).max() <= 1e-12 * np.abs(flux).max()


def _assert_mode_spectrum_matches_dense(cfg, table, block):
    """The stacked spectra of the mode blocks A(x) are the spectrum of M(0)."""
    blocks = generator._grid_mode_blocks(table, cfg.grid.points_per_axis)
    stacked = np.linalg.eigvals(blocks).ravel()
    dense = np.linalg.eigvals(block.matrix)
    scale = float(np.abs(block.matrix).max())
    assert np.abs(np.sort(stacked.real) - np.sort(dense.real)).max() \
        <= 1e-11 * scale
    assert max(np.abs(stacked.imag).max(), np.abs(dense.imag).max()) \
        <= 1e-11 * scale


def test_gain_flux_is_symmetric(ref1d, ref1d_block):
    _assert_symmetric_flux(ref1d, ref1d_block)


@pytest.mark.parametrize("make", [reference_1d, reference_2d],
                         ids=["1d", "2d"])
def test_mode_blocks_match_dense_spectrum(make):
    cfg = make(n_k=8)
    table = build_rate_table(cfg)
    block = assemble_fiber(cfg, table, np.zeros(cfg.dim), 0.0)
    _assert_mode_spectrum_matches_dense(cfg, table, block)


def _transformed_sectors(block, cfg, free):
    """The sector stack by transforming the dense k-basis fiber: fftn over
    the target axes, ifftn over the source axes of the slice z_F = 0."""
    d, n_axis = cfg.dim, cfg.grid.points_per_axis
    grid = (n_axis,) * d
    n_lvl = block.size // n_axis ** d
    index = [slice(None)] * (2 * d + 2)
    for i in free:
        index[d + 2 + i] = 0
    modes = np.fft.ifftn(np.fft.fftn(
        block.matrix.reshape((n_lvl,) + grid + (n_lvl,) + grid)[tuple(index)],
        axes=range(1, d + 1)), axes=range(d + 2, 2 * d + 2 - len(free)))
    size = n_lvl * n_axis ** (d - len(free))
    return np.moveaxis(modes, [1 + i for i in free],
                       range(len(free))).reshape(-1, size, size)


def _assert_sectors_match_dense(cfg, table, p):
    """The sector stack of M(p) is the transformed dense fiber, and its
    stacked spectra are the dense spectrum, as multisets."""
    block = assemble_fiber(cfg, table, p, 0.0)
    free, stack = _sectors(cfg, table, p)
    assert stack.dtype == np.float64
    scale = float(np.abs(block.matrix).max())
    assert np.abs(stack - _transformed_sectors(block, cfg, free)).max() \
        <= 1e-14 * scale
    stacked = np.linalg.eigvals(stack).ravel()
    dense = np.linalg.eigvals(block.matrix)
    dist = np.abs(stacked[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= 1e-11 * scale
    if not np.any(p):
        assert free == tuple(range(cfg.dim))
        blocks = generator._grid_mode_blocks(table, cfg.grid.points_per_axis)
        assert np.abs(stack - blocks).max() <= 1e-13 * scale
    return free


def _three_dimensional_model():
    return ModelConfig(
        dim=3, dispersion=DispersionSpec("nearest_neighbor"),
        spin=SpinSystem(levels=(0.0, 1.0), couplings=((0, 1), (1, 0))),
        beta=1.0, bath=BathProfile("builtin_gaussian", beta=1.0, dim=3),
        grid=GridSpec(points_per_axis=4, sphere_nodes=16),
    )


def _flat_row_model():
    # axis 1 has a flat dispersion row: it is free at every p
    return ModelConfig(
        dim=2, dispersion=DispersionSpec("cosine_series",
                                         coefficients=((1.0, 0.3), (0.0,))),
        spin=SpinSystem(levels=(0.0, 1.0), couplings=((0, 1), (1, 0))),
        beta=1.0, bath=BathProfile("builtin_gaussian", beta=1.0, dim=2),
        grid=GridSpec(points_per_axis=6, sphere_nodes=8),
    )


def _aliased_model(coefficients, n_axis):
    # harmonics m >= N/2 wrap around the grid's modes; m = N/2 lands both
    # of its couplings on the same mode, where they cancel
    dim = len(coefficients)
    return ModelConfig(
        dim=dim, dispersion=DispersionSpec("cosine_series",
                                           coefficients=coefficients),
        spin=SpinSystem(levels=(0.0, 1.0), couplings=((0, 1), (1, 0))),
        beta=1.0, bath=BathProfile("builtin_gaussian", beta=1.0, dim=dim),
        grid=GridSpec(points_per_axis=n_axis, sphere_nodes=8),
    )


_ALIASED_1D = ((1.0, -0.4, 0.3, 0.2, -0.1),)
_ALIASED_2D = ((1.0, 0.5, -0.3, 0.2), (0.7, -0.2, 0.4, 0.1))


@pytest.mark.parametrize("make,p,free", [
    (lambda: reference_1d(n_k=16), (0.3,), ()),
    (lambda: reference_1d(n_k=16), (math.pi,), ()),
    (lambda: reference_2d(n_k=8), (0.0, 0.0), (0, 1)),
    (lambda: reference_2d(n_k=8), (0.3, 0.0), (1,)),
    (lambda: reference_2d(n_k=8), (0.2, -0.1), ()),
    (_three_dimensional_model, (0.0, 0.0, 0.0), (0, 1, 2)),
    (_three_dimensional_model, (0.0, 0.4, 0.0), (0, 2)),
    (lambda: flat_dispersion_1d(n_k=16), (0.7,), (0,)),
    (_flat_row_model, (0.2, 0.4), (1,)),
    (lambda: _aliased_model(_ALIASED_1D, 8), (0.3,), ()),
    (lambda: _aliased_model(_ALIASED_1D, 8), (-math.pi,), ()),
    (lambda: _aliased_model(_ALIASED_2D, 6), (0.3, -0.2), ()),
    (lambda: _aliased_model(_ALIASED_2D, 6), (0.0, 0.4), (0,)),
], ids=["1d-small", "1d-pi", "2d-zero", "2d-axis", "2d-oblique", "3d-zero",
        "3d-axis", "flat", "flat-row", "1d-aliased", "1d-aliased-pi",
        "2d-aliased", "2d-aliased-axis"])
def test_sectors_match_dense_spectrum(make, p, free):
    cfg = make()
    table = build_rate_table(cfg)
    assert _assert_sectors_match_dense(cfg, table, np.asarray(p)) == free


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_sectors_refuse_kernel_without_inversion_symmetry(p):
    # one direction node: every kick goes the same way, so the deposition
    # kernel is not inversion symmetric and the mode basis is not real
    cfg = reference_1d(n_k=16)
    table = dataclasses.replace(build_rate_table(cfg), nodes=(1.0,),
                                weights=(2.0,))
    with pytest.raises(NumericError, match="inversion symmetric"):
        _sectors(cfg, table, np.array([p]))


def test_mode_blocks_deposited_once_and_shared_read_only(monkeypatch):
    cfg = reference_2d(n_k=8)
    table = build_rate_table(cfg)
    n_axis = cfg.grid.points_per_axis
    generator._population_gain.cache_clear()
    generator._grid_mode_blocks.cache_clear()
    generator._population_gain(table, n_axis)
    radii, builds = [], []
    deposit, mode_blocks = generator._deposit_kernel, generator._mode_blocks

    def spy_deposit(radius, *args):
        radii.append(radius)
        return deposit(radius, *args)

    def spy_mode_blocks(*args):
        builds.append(args)
        return mode_blocks(*args)

    monkeypatch.setattr(generator, "_deposit_kernel", spy_deposit)
    monkeypatch.setattr(generator, "_mode_blocks", spy_mode_blocks)
    perron_curve(cfg, table, [[0.0, 0.0], [0.1, 0.0], [0.1, 0.1]])
    diffusion_tensor_formula(cfg, table)
    assert radii == [c.radius for c in table.channels if c.bohr > 0]
    assert len(builds) == 1
    blocks = generator._grid_mode_blocks(table, n_axis)
    assert blocks is generator._grid_mode_blocks(table, n_axis)
    assert not blocks.flags.writeable
    with pytest.raises(ValueError):
        blocks[0, 0, 0] = 1.0


@pytest.mark.parametrize("make,p,constant", [
    (reference_2d, (0.3, 0.0), (1,)),
    (reference_2d, (0.0, -0.7), (0,)),
    (_three_dimensional_model, (0.2, 0.0, 0.5), (1,)),
    (_flat_row_model, (0.2, 0.4), (1,)),
])
def test_kinetic_difference_exactly_constant_on_free_axes(make, p, constant):
    cfg = make()
    n_axis = cfg.grid.points_per_axis
    delta = generator._kinetic_difference(cfg, np.asarray(p)).reshape(
        (n_axis,) * cfg.dim)
    for axis in range(cfg.dim):
        flat = np.broadcast_to(delta.take([0], axis=axis), delta.shape)
        assert np.array_equal(delta, flat) == (axis in constant)


def test_momentum_relabel_maps_fiber_to_opposite(ref1d, ref1d_table):
    p = np.array([0.3])
    n = ref1d.grid.points_per_axis
    plus = assemble_fiber(ref1d, ref1d_table, p, 0.0).matrix
    minus = assemble_fiber(ref1d, ref1d_table, -p, 0.0).matrix
    # index map for k -> -k on one level block, lifted to both levels
    perm = (n - np.arange(n)) % n
    full = np.concatenate([perm, perm + n])
    relabeled = plus[np.ix_(full, full)]
    assert np.max(np.abs(relabeled - minus)) <= 1e-12 * np.abs(plus).max()
    assert np.max(np.abs(np.conj(plus) - minus)) <= 1e-12 * np.abs(plus).max()


def test_fiber_requires_matching_dimension(ref1d, ref1d_table):
    with pytest.raises(GeneratorError):
        assemble_fiber(ref1d, ref1d_table, np.zeros(2), 0.0)


def test_fiber_accepts_imaginary_probe(ref1d, ref1d_table):
    # analyticity probe: a small imaginary fiber deforms the branch smoothly
    probe = assemble_fiber(ref1d, ref1d_table, np.array([0.1 + 0.02j]), 0.0)
    eigs = np.linalg.eigvals(probe.matrix)
    assert np.all(np.isfinite(eigs))
    real_block = assemble_fiber(ref1d, ref1d_table, np.array([0.1]), 0.0)
    top_c = eigs[np.argmax(eigs.real)]
    reals = np.linalg.eigvals(real_block.matrix)
    top_r = reals[np.argmax(reals.real)]
    assert abs(top_c - top_r) < 0.05


def test_top_eigenvalue_grid_refinement_second_order():
    # error against a fine reference shrinks ~ N^-2; the constant carries
    # the deposition fraction f(1-f), which oscillates with N, so only a
    # factor-4 gain per grid doubling pair is asserted
    p = np.array([0.2])
    tops = {}
    for n_k in (32, 64, 128, 512):
        cfg = reference_1d(n_k=n_k)
        table = build_rate_table(cfg)
        tops[n_k] = perron_curve(cfg, table, [np.zeros(1), p])[1].eigenvalue.real
    err = {n: abs(tops[n] - tops[512]) for n in (32, 64, 128)}
    assert err[64] < err[32]
    assert err[128] < err[64]
    assert err[32] / err[128] > 4.0


def test_two_dimensional_block_structure(ref2d):
    table = build_rate_table(ref2d)
    block = assemble_fiber(ref2d, table, np.zeros(2), 0.0)
    col_sums = block.matrix.real.sum(axis=0)
    assert np.max(np.abs(col_sums)) <= 1e-11
    n = ref2d.grid.points_per_axis ** 2
    phi = np.concatenate([np.full(n, 1.0), np.full(n, math.exp(-ref2d.beta))])
    assert np.max(np.abs(block.matrix @ phi)) <= 1e-10
    _assert_symmetric_flux(ref2d, block)


def test_gain_kernel_crosscheck_quadrature_clause(ref1d):
    report = gain_kernel_crosscheck(ref1d, 1.0, [[0.0], [1.0], [2.0]])
    assert report.max_quad_rel_error <= 1e-6


def test_gain_kernel_crosscheck_improves_with_grid(ref1d):
    coarse = gain_kernel_crosscheck(ref1d, 1.0, [[1.0], [2.0]])
    fine = gain_kernel_crosscheck(reference_1d(n_k=256), 1.0, [[1.0], [2.0]])
    assert fine.max_grid_peak_error < coarse.max_grid_peak_error / 2.0


def test_gain_kernel_crosscheck_reverse_channel(ref1d):
    fwd = gain_kernel_crosscheck(ref1d, 1.0, [[1.0]])
    rev = gain_kernel_crosscheck(ref1d, -1.0, [[1.0]])
    assert rev.max_grid_peak_error == pytest.approx(
        fwd.max_grid_peak_error, rel=1e-10)


def test_gain_is_built_once_per_table_and_grid(monkeypatch):
    cfg = ModelConfig(
        dim=1, dispersion=DispersionSpec("nearest_neighbor"),
        spin=SpinSystem(levels=(0.0, 0.7, 1.9),
                        couplings=((0, 0.5, 0.3), (0.5, 0, 0.4), (0.3, 0.4, 0))),
        beta=1.0, bath=BathProfile("builtin_gaussian", beta=1.0, dim=1),
        grid=GridSpec(points_per_axis=10, sphere_nodes=2),
    )
    table = build_rate_table(cfg)
    calls = {"_deposit_kernel": 0, "_circulant_from_kernel": 0}
    for name in calls:
        def counted(*args, _real=getattr(generator, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(generator, name, counted)
    generator._population_gain.cache_clear()
    blocks = [assemble_fiber(cfg, table, np.array([p]), 0.0)
              for p in (0.0, 0.3, -1.1)]
    n_down = sum(c.bohr > 0 for c in table.channels)
    assert n_down == 3
    assert calls == {"_deposit_kernel": n_down, "_circulant_from_kernel": n_down}
    assert all(b.gain is blocks[0].gain for b in blocks)
    assert not blocks[0].gain.flags.writeable


@st.composite
def _valid_models(draw):
    """Random d = 1, 2 models with 2-3 levels and Hermitian couplings, ||W|| <= 1."""
    dim = draw(st.sampled_from([1, 2]))
    n_lvl = draw(st.integers(2, 3))
    gaps = draw(st.lists(st.floats(0.2, 2.0), min_size=n_lvl - 1,
                         max_size=n_lvl - 1))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=n_lvl * n_lvl,
                     max_size=n_lvl * n_lvl)
    a = (np.array(draw(parts)) + 1j * np.array(draw(parts))).reshape(n_lvl, n_lvl)
    w = a + a.conj().T
    w = w / max(1.0, float(np.linalg.norm(w, 2)))
    beta = draw(st.floats(0.3, 3.0))
    cfg = ModelConfig(
        dim=dim, dispersion=DispersionSpec("nearest_neighbor"),
        spin=SpinSystem(levels=tuple(np.cumsum([0.0, *gaps])),
                        couplings=tuple(map(tuple, w))),
        beta=beta, bath=BathProfile("builtin_gaussian", beta=beta, dim=dim),
        grid=GridSpec(points_per_axis=draw(st.sampled_from(range(2, 17, 2))),
                      sphere_nodes=draw(st.integers(4, 12))),
    )
    assume(validate_model(cfg).passed)
    p = np.array(draw(st.lists(st.floats(-math.pi, math.pi),
                               min_size=dim, max_size=dim)))
    return cfg, p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_valid_models())
def test_generator_invariants_on_random_models(model):
    cfg, p = model
    table = build_rate_table(cfg)
    zero = assemble_fiber(cfg, table, np.zeros(cfg.dim), 0.0)
    scale = float(np.abs(zero.matrix).max())
    assert np.abs(zero.matrix.real.sum(axis=0)).max() <= 1e-12 * scale
    assert zero.gain.min() >= 0.0
    n_cells = cfg.grid.points_per_axis ** cfg.dim
    gibbs = np.repeat(np.exp(-cfg.beta * np.asarray(table.levels)), n_cells)
    flux = zero.gain * gibbs
    assert np.abs(flux - flux.T).max() <= 1e-12 * np.abs(flux).max()
    assert np.abs(zero.matrix @ gibbs).max() <= 1e-12 * scale
    moved = assemble_fiber(cfg, table, p, 0.0).matrix
    off = ~np.eye(zero.size, dtype=bool)
    assert np.array_equal(moved[off], zero.matrix[off])
    if cfg.grid.points_per_axis <= 8:
        _assert_mode_spectrum_matches_dense(cfg, table, zero)
        _assert_sectors_match_dense(cfg, table, np.concatenate([[0.0], p[1:]]))
