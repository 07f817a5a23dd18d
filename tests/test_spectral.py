import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticediff import generator, spectral
from latticediff.generator import (_grid_mode_blocks, assemble_fiber,
                                   build_rate_table)
from latticediff.model import (DispersionSpec, GridSpec, ModelConfig,
                               SpinSystem, dispersion_grad, validate_model)
from latticediff.presets import reference_1d, reference_2d
from latticediff.reservoir import BathProfile
from latticediff.spectral import (TrackingLossError,
                                  diffusion_tensor_continuum,
                                  diffusion_tensor_formula,
                                  diffusion_tensor_hessian, perron_curve,
                                  spectral_gaps, stationary_state)
from test_generator import _cosine_fibers


@pytest.fixture(scope="module")
def gaps(ref1d, ref1d_table):
    return spectral_gaps(ref1d, ref1d_table)


def _gibbs_ansatz(cfg):
    n = cfg.grid.points_per_axis ** cfg.dim
    return np.repeat(np.exp(-cfg.beta * np.asarray(cfg.spin.levels)), n)


def test_stationary_matches_gibbs_flat(ref1d, ref1d_block):
    stat = stationary_state(ref1d_block.matrix, ansatz=_gibbs_ansatz(ref1d))
    n = ref1d_block.size // 2
    target = _gibbs_ansatz(ref1d)
    target /= target.sum()
    assert np.max(np.abs(stat - target)) <= 1e-8
    assert stat.sum() == pytest.approx(1.0, abs=1e-14)


def test_stationary_level_ratio_is_gibbs(ref1d, ref1d_block):
    stat = stationary_state(ref1d_block.matrix, ansatz=_gibbs_ansatz(ref1d))
    n = ref1d_block.size // 2
    assert stat[:n].sum() / stat[n:].sum() == pytest.approx(math.e, rel=1e-10)


def test_stationary_momentum_marginal_uniform(ref1d, ref1d_block):
    stat = stationary_state(ref1d_block.matrix, ansatz=_gibbs_ansatz(ref1d))
    n = ref1d_block.size // 2
    for lvl in range(2):
        slab = stat[lvl * n:(lvl + 1) * n]
        assert np.max(np.abs(slab / slab.mean() - 1.0)) <= 1e-8


def test_exactly_singular_shift_is_nudged():
    # the LU of this generator has an exact zero pivot at shift 0: the
    # solve raises LinAlgError and the iteration moves the shift off it
    stat = stationary_state(np.array([[-1.0, 2.0], [1.0, -2.0]]))
    assert np.max(np.abs(stat - [2.0 / 3.0, 1.0 / 3.0])) <= 1e-14


def test_left_null_vector_is_constant(ref1d_block):
    left = stationary_state(ref1d_block.matrix.T,
                            ansatz=np.ones(ref1d_block.size))
    assert np.max(np.abs(left - left.mean())) <= 1e-10 * abs(left.mean())


def test_rank_one_projector_preserves_total_mass(ref1d, ref1d_block):
    stat = stationary_state(ref1d_block.matrix, ansatz=_gibbs_ansatz(ref1d))
    ones = np.ones(ref1d_block.size)
    rng = np.random.default_rng(2)
    for _ in range(5):
        rho = rng.random(ref1d_block.size)
        rho /= rho.sum()
        projected = stat * (ones @ rho) / (ones @ stat)
        assert ones @ projected == pytest.approx(ones @ rho, rel=1e-12)


def test_top_eigenvalue_vanishes_at_zero_fiber(ref1d, ref1d_table, ref1d_block):
    eig = perron_curve(ref1d, ref1d_table, [[0.0]])[0].eigenvalue
    assert abs(eig) <= 1e-10
    spectrum = np.sort(np.linalg.eigvals(ref1d_block.matrix).real)[::-1]
    assert spectrum[1] < -1e-3  # simple: next eigenvalue well separated


def test_eigencurve_negative_off_zero(ref1d, ref1d_table):
    pts = perron_curve(ref1d, ref1d_table,
                       [[s] for s in np.linspace(0.0, 0.5, 6)])
    assert abs(pts[0].eigenvalue) <= 1e-10
    for pt in pts[1:]:
        assert pt.eigenvalue.real < 0.0


def test_eigencurve_conjugate_symmetry(ref1d, ref1d_table):
    ps = np.linspace(0.0, 0.4, 5)
    plus = perron_curve(ref1d, ref1d_table, [[s] for s in ps])
    minus = perron_curve(ref1d, ref1d_table, [[-s] for s in ps])
    for a, b in zip(plus, minus):
        assert b.eigenvalue == pytest.approx(np.conj(a.eigenvalue), abs=1e-10)


def test_curve_through_nan_fiber_loses_tracking():
    cfg = reference_1d(n_k=16)
    with pytest.raises(TrackingLossError):
        perron_curve(cfg, build_rate_table(cfg), [[0.0], [math.nan]])


def test_gaps_positive_and_coherence_exact(ref1d, ref1d_table, gaps):
    assert gaps.g_low > 0
    assert gaps.g_high > 0
    assert gaps.p_star > 0
    rates = np.sort(ref1d_table.transition_matrix().sum(axis=1))
    expected = -0.5 * (rates[0] + rates[1])
    # the dense coherence block of each channel, found by `_level_pair`
    assert sorted(gaps.coherence_tops) == [-1.0, 1.0]
    for bohr, top in gaps.coherence_tops.items():
        block = assemble_fiber(ref1d, ref1d_table, np.zeros(1), bohr)
        assert float(np.diag(block.matrix).real.max()) == top == expected


def test_gap_refinement_stability_two_dimensions():
    # the population gap has a genuine continuum limit for d > 1; at p = 0
    # it is the distance of the x != 0 mode blocks from the axis
    vals = []
    for n_k in (16, 32):
        cfg = reference_2d(n_k=n_k, m_dir=16)
        eigs = np.linalg.eigvals(
            _grid_mode_blocks(build_rate_table(cfg), n_k)).real
        assert abs(eigs[0].max()) <= 1e-10
        vals.append(-eigs[1:].max())
    assert abs(vals[1] - vals[0]) / vals[1] < 0.05


@pytest.fixture(scope="module")
def hessian1d(ref1d, ref1d_table):
    return diffusion_tensor_hessian(ref1d, ref1d_table)


def test_hessian_diffusion_diagnostics(hessian1d):
    assert hessian1d.gradient_norm <= 1e-6
    assert hessian1d.richardson_defect <= 1e-4
    assert hessian1d.tensor[0, 0] > 0


def test_formula_diffusion_positive_definite(ref1d, ref1d_table):
    tensor = diffusion_tensor_formula(ref1d, ref1d_table)
    assert np.allclose(tensor, tensor.T)
    assert np.all(np.linalg.eigvalsh(tensor) > 0)


def test_dual_method_agreement(ref1d, ref1d_table, hessian1d):
    hess = hessian1d.tensor
    formula = diffusion_tensor_formula(ref1d, ref1d_table)
    assert np.max(np.abs(hess - formula)) <= 1e-6 * np.abs(formula).max()


def test_hessian_matches_formula_to_roundoff_1d(ref1d, ref1d_table, hessian1d):
    # the real mode-basis fibers keep f(p) ~ -D p^2 / 2 accurate far below
    # eps * scale, so the Richardson Hessian meets the formula at ~2e-14
    formula = diffusion_tensor_formula(ref1d, ref1d_table)
    rel = np.max(np.abs(hessian1d.tensor - formula)) / np.abs(formula).max()
    assert rel <= 1e-12


def test_hessian_matches_formula_to_roundoff_2d():
    # the sector blocks are built in the mode basis, with exact zeros where
    # a transformed dense fiber leaves roundoff for 1/h^2 to amplify
    cfg = reference_2d()
    table = build_rate_table(cfg)
    hess = diffusion_tensor_hessian(cfg, table).tensor
    formula = diffusion_tensor_formula(cfg, table)
    rel = np.max(np.abs(hess - formula)) / np.abs(formula).max()
    assert rel <= 1e-11


def _weakly_coupled(w):
    """2-d N = 6, m = 4, unit cosine rows, levels 0 and 1, coupling w: the
    p = 0 gap falls as w^2 (0.131 at w = 1/8, 8.2e-3 at 1/32), and with it
    the p scale on which the top eigenvalue bends."""
    return dataclasses.replace(
        reference_2d(n_k=6, m_dir=4),
        dispersion=DispersionSpec("cosine_series",
                                  coefficients=((1.0,), (1.0,))),
        spin=SpinSystem(levels=(0.0, 1.0), couplings=((0.0, w), (w, 0.0))))


@pytest.mark.parametrize("w", [1 / 8, 1 / 32], ids=["w-1/8", "w-1/32"])
def test_hessian_step_follows_the_gap_of_weakly_coupled_models(w):
    # at w = 1/32 the fixed step h = 1e-3 fails the step-halving gate
    # (defect 4.5e-3); the retry at 1e-3 gap0 / v_max meets the formula
    cfg = _weakly_coupled(w)
    assert validate_model(cfg).passed
    table = build_rate_table(cfg)
    hess = diffusion_tensor_hessian(cfg, table).tensor
    formula = diffusion_tensor_formula(cfg, table)
    rel = np.max(np.abs(hess - formula)) / np.abs(formula).max()
    assert rel <= 1e-8


def _spy(monkeypatch, name):
    """Record the positional arguments and results of spectral.<name>."""
    calls = []
    func = getattr(spectral, name)

    def spy(*args, **kwargs):
        out = func(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(spectral, name, spy)
    return calls


def _top(cfg, table, p, block):
    """The tracked eigenvalue of a sector of M(p), as the Hessian finds it."""
    return spectral._rayleigh(block, spectral._start_vector(table, block),
                              generator._left_map(cfg, table, p))[0]


def _two_sided_rayleigh(block, v, w):
    """The Rayleigh iteration `_rayleigh` replaced, as an oracle: the left
    vector is iterated too, by a second solve with the transpose per sweep."""
    sigma, eye = 0.0, np.eye(len(block))
    for _ in range(60):
        v = np.linalg.solve(block - sigma * eye, v)
        w = np.linalg.solve((block - sigma * eye).T, w)
        v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
        sigma = (w @ block @ v) / (w @ v)
        if np.linalg.norm(block @ v - sigma * v) <= 1e-13 * np.abs(block).max():
            return sigma
    raise AssertionError("the two-sided oracle did not converge")


def _lifted(dim, n_k, m_dir=16):
    """reference_2d's levels and bath on a d-dimensional lattice."""
    base = reference_2d(n_k=n_k, m_dir=m_dir)
    return dataclasses.replace(base, dim=dim, bath=dataclasses.replace(
        base.bath, dim=dim))


def _assert_hessian_sectors(cfg, monkeypatch):
    """The Hessian builds the center once, then d axis pairs at each of its
    two steps: an x_F = 0 sector of L rows, then 4d of L N rows, and no
    dense fiber."""
    table = build_rate_table(cfg)
    fibers = _spy(monkeypatch, "assemble_fiber")
    sectors = _spy(monkeypatch, "_sectors")
    diffusion_tensor_hessian(cfg, table)
    assert fibers == []
    n_lvl, n_k = len(table.levels), cfg.grid.points_per_axis
    rows = [n_lvl] + [n_lvl * n_k] * (4 * cfg.dim)
    assert [stack.shape for _, stack in sectors] == [(1, r, r) for r in rows]


def test_hessian_builds_only_zero_sectors_without_dense_fibers(ref2d,
                                                                monkeypatch):
    # the center, then 2 axis pairs at each of the two steps: 9 sectors
    _assert_hessian_sectors(ref2d, monkeypatch)


def test_hessian_builds_only_axis_sectors_in_three_dimensions(monkeypatch):
    # 13 sectors of at most L N rows; oblique points would add 24 of L N^2
    _assert_hessian_sectors(_lifted(3, 8), monkeypatch)


@pytest.mark.parametrize("make,steps", [
    (reference_1d, 1), (reference_2d, 1), (lambda: _lifted(3, 16), 1),
    (lambda: _weakly_coupled(1 / 32), 2),
], ids=["1d", "2d", "3d-16", "w-1/32-retry"])
def test_hessian_solves_the_center_once_per_tensor(make, steps, monkeypatch):
    # 4d + 1 Rayleigh runs a step size pair, 4d more on the retry, and one
    # of them, the first, on the L x L center
    cfg = make()
    table = build_rate_table(cfg)
    rayleigh = _spy(monkeypatch, "_rayleigh")
    diffusion_tensor_hessian(cfg, table)
    n_lvl = len(table.levels)
    sizes = [len(args[0]) for args, _ in rayleigh]
    assert len(sizes) == 1 + 4 * cfg.dim * steps
    assert sizes[0] == n_lvl and sizes[1:].count(n_lvl) == 0


def _two_center_hessian(cfg, table):
    """The Hessian as it was computed before the center was solved once
    per tensor: each step of each pair solves its own center."""
    def once(h):
        zero, axes = np.zeros(cfg.dim), h * np.eye(cfg.dim)
        center = _top(cfg, table, zero,
                      generator._sectors(cfg, table, zero, [0])[0])
        fp, fm = (np.array([_top(cfg, table, v, generator._sectors(
            cfg, table, v, [0])[0]) for v in vs]) for vs in (axes, -axes))
        return (fp - fm) / (2 * h), np.diag((fp + fm - 2 * center) / h ** 2)

    h = 1e-3
    for retry in (False, True):
        if retry:
            zero = np.zeros(cfg.dim)
            gap0 = -spectral._spectrum_top(cfg, table, zero, 0.0)[1]
            h = 1e-3 * gap0 / spectral._max_velocity(cfg)
        (grad_h, hess_h), (grad_2, hess_2) = once(h), once(h / 2)
        tensor = (hess_h - 4.0 * hess_2) / 3.0
        defect = float(np.abs(hess_2 - hess_h).max()) / max(
            float(np.abs(tensor).max()), 1e-300)
        if not defect > 1e-4:
            return (tensor, float(np.abs(np.concatenate([grad_h, grad_2])).max()),
                    defect)
    raise AssertionError("the two-center oracle failed its gate")


@pytest.mark.parametrize("make", [
    reference_1d, reference_2d, lambda: _lifted(3, 16),
    lambda: _weakly_coupled(1 / 32),
], ids=["1d", "2d", "3d-16", "w-1/32-retry"])
def test_one_center_hessian_equals_the_two_center_one_bitwise(make):
    # the center is the same call on the same vector, so one solve of it
    # moves no bit of the tensor, the gradient norm or the defect
    cfg = make()
    table = build_rate_table(cfg)
    result = diffusion_tensor_hessian(cfg, table)
    tensor, grad_norm, defect = _two_center_hessian(cfg, table)
    assert result.tensor.tobytes() == tensor.tobytes()
    assert (result.gradient_norm, result.richardson_defect) == \
        (grad_norm, defect)


@pytest.mark.parametrize("make,p", [
    (lambda: reference_1d(n_k=16), (0.3,)),
    (lambda: reference_2d(n_k=8), (0.3, 0.0)),
    (lambda: reference_2d(n_k=8), (0.2, -0.1)),
], ids=["1d-axis", "2d-axis", "2d-oblique"])
def test_curve_matches_rayleigh_on_the_zero_sector(make, p, monkeypatch):
    # the curve reads dense sector spectra alone; the Rayleigh iteration it
    # replaced is the reference on the x_F = 0 sector
    cfg = make()
    table = build_rate_table(cfg)
    rayleigh = _spy(monkeypatch, "_rayleigh")
    eig = perron_curve(cfg, table, [np.zeros(cfg.dim), p])[1].eigenvalue
    assert rayleigh == []
    block = generator._sectors(cfg, table, np.asarray(p))[0]
    ref = _top(cfg, table, np.asarray(p), block)
    assert abs(eig - ref) <= 1e-12 * np.abs(block).max()


@pytest.mark.parametrize("make,p", [
    (lambda: reference_1d(n_k=16), (0.3,)),
    (lambda: reference_2d(n_k=8), (0.3, 0.0)),
    (lambda: reference_2d(n_k=8), (0.2, -0.1)),
    (lambda: reference_2d(m_dir=16), (0.3, -0.2)),
    (lambda: _lifted(3, 8), (0.3, -0.2, 0.45)),
    (lambda: _lifted(3, 8), (0.0, 0.4, 0.0)),
    (reference_1d, (1e-3,)),
    (reference_1d, (-5e-4,)),
    (reference_2d, (0.0, 1e-3)),
    (lambda: _lifted(4, 8), (0.0, 0.0, 5e-4, 0.0)),
], ids=["1d", "2d-axis", "2d-oblique", "2d-m16", "3d-oblique", "3d-axis",
        "1d-step", "1d-half-step", "2d-step", "4d-half-step"])
def test_one_sided_rayleigh_meets_the_two_sided_oracle(make, p):
    # the left vector Pi^-1 J v replaces the iterated one: the same top
    cfg = make()
    table = build_rate_table(cfg)
    p = np.asarray(p)
    block = generator._sectors(cfg, table, p, [0])[0]
    start = spectral._start_vector(table, block)
    ref = _two_sided_rayleigh(block, start, (start != 0).astype(float))
    assert abs(_top(cfg, table, p, block) - ref) \
        <= 1e-13 * np.abs(block).max()


def test_each_rayleigh_sweep_solves_once(ref2d, monkeypatch):
    # a sweep either nudges a singular shift (its solve raised or overflowed)
    # or forms one quotient with one left vector: with one solve per sweep,
    # solves = nudges + quotients, where the two-sided iteration made two
    # solves per quotient
    count = {"solves": 0, "nudges": 0, "quotients": 0}
    solve, left_map = np.linalg.solve, spectral._left_map

    def spy_solve(a, b):
        count["solves"] += 1
        try:
            out = solve(a, b)
        except np.linalg.LinAlgError:
            count["nudges"] += 1
            raise
        count["nudges"] += not np.all(np.isfinite(out))
        return out

    def spy_left_map(*args):
        left = left_map(*args)

        def counted(v):
            count["quotients"] += 1
            return left(v)
        return counted

    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(spectral, "_left_map", spy_left_map)
    diffusion_tensor_hessian(ref2d, build_rate_table(ref2d))
    assert count["quotients"] >= 9  # the center, then 4 points at 2 steps
    assert count["solves"] == count["nudges"] + count["quotients"]


def test_gaps_assemble_dense_fibers_only_on_the_small_ray(ref2d, monkeypatch):
    table = build_rate_table(ref2d)
    fibers = _spy(monkeypatch, "assemble_fiber")
    spectral_gaps(ref2d, table)
    small = [0.0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5]
    assert [args[2].tolist() for args, _ in fibers] == [[s, 0.0] for s in small]


def _eigensolve_sizes(cfg, table, monkeypatch):
    """Row counts of every eigvals call made by a 4-point curve along axis
    0 and by the gaps; x_F = 0 and the mode blocks its bound keeps at each
    p = 0, two halves at each of the 3 + 6 + 3 others."""
    sizes = []
    eigvals = np.linalg.eigvals

    def spy(a):
        sizes.append(np.shape(a)[-1])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    axis = np.eye(cfg.dim)[0]
    perron_curve(cfg, table, [s * axis for s in np.linspace(0.0, 0.5, 4)])
    spectral_gaps(cfg, table)
    assert len(sizes) == 2 * 2 + 2 * (3 + 6 + 3)
    return sizes


def test_curve_and_gaps_eigensolve_folded_halves_in_1d(ref1d, ref1d_table,
                                                        monkeypatch):
    # at p != 0 a 1-d fiber has no free axis: its one sector of L N rows is
    # solved as its even and odd halves under the signed inversion
    sizes = _eigensolve_sizes(ref1d, ref1d_table, monkeypatch)
    n_lvl, n_k = len(ref1d_table.levels), ref1d.grid.points_per_axis
    assert max(sizes) == n_lvl * (n_k // 2 + 1)


def test_curve_and_gaps_eigensolve_folded_halves_in_2d(monkeypatch):
    # on the axis-0 ray axis 1 is free: each of the N sectors of L N rows
    # is solved as its even and odd halves under the inversion of axis 0
    cfg = reference_2d(n_k=8)
    table = build_rate_table(cfg)
    sizes = _eigensolve_sizes(cfg, table, monkeypatch)
    n_lvl, n_k = len(table.levels), cfg.grid.points_per_axis
    assert max(sizes) == n_lvl * (n_k // 2 + 1)


@pytest.mark.parametrize("dim,n_k", [(3, 8), (4, 4), (3, 16), (4, 8)],
                         ids=["3d", "4d", "3d-16", "4d-8"])
def test_hessian_matches_formula_beyond_two_dimensions(dim, n_k):
    # with A(0) an exact generator (k_hat(0) = |S^{d-1}|) the tracked top at
    # p = 0 is ~0, not the ~5e-15 offset that h^-2 made a 1e-7 error in D
    cfg = _lifted(dim, n_k)
    table = build_rate_table(cfg)
    hess = diffusion_tensor_hessian(cfg, table).tensor
    formula = diffusion_tensor_formula(cfg, table)
    rel = np.max(np.abs(hess - formula)) / np.abs(formula).max()
    assert rel <= 1e-12


def _assert_reflection_symmetric(cfg, p):
    """M(R_j p) is M(p) with the modes relabelled x_j -> -x_j (mod N) on
    every level, for each axis j, and the two top eigenvalues agree:
    lambda(p) is even in each p_j, as `diffusion_tensor_hessian` states."""
    table = build_rate_table(cfg)
    d, n_k = cfg.dim, cfg.grid.points_per_axis
    block = generator._sectors(cfg, table, p)[0]
    assert block.shape[0] == len(table.levels) * n_k ** d  # no free axis
    scale = float(np.abs(block).max())
    top = _top(cfg, table, p, block)
    for j in range(d):
        x = np.indices((n_k,) * d).reshape(d, -1)
        x[j] = -x[j] % n_k
        modes = np.ravel_multi_index(x, (n_k,) * d)
        perm = (n_k ** d * np.arange(len(table.levels))[:, None]
                + modes).ravel()
        flipped = p.copy()
        flipped[j] = -flipped[j]
        mirror = generator._sectors(cfg, table, flipped)[0]
        assert np.abs(mirror - block[np.ix_(perm, perm)]).max() \
            <= 1e-13 * scale
        mirror_top = _top(cfg, table, flipped, mirror)
        assert abs(mirror_top - top) <= 1e-13 * scale


@pytest.mark.parametrize("make,p", [
    (lambda: reference_2d(m_dir=16), (0.3, -0.2)),
    (lambda: reference_2d(m_dir=18), (0.3, -0.2)),
    (lambda: _lifted(3, 8, m_dir=16), (0.3, -0.2, 0.45)),
    (lambda: _lifted(3, 8, m_dir=30), (0.3, -0.2, 0.45)),
], ids=["2d-m16", "2d-m18", "3d-m16", "3d-m30"])
def test_fiber_is_reflection_symmetric_in_each_axis(make, p):
    _assert_reflection_symmetric(make(), np.asarray(p))


@st.composite
def _cosine_models(draw):
    """Random d = 2, 3 models with per-axis cosine-series rows and a p with
    no free axis near the Hessian's steps."""
    dim = draw(st.sampled_from([2, 3]))
    n_lvl = draw(st.integers(2, 3))
    gaps = draw(st.lists(st.floats(0.2, 2.0), min_size=n_lvl - 1,
                         max_size=n_lvl - 1))
    # off-diagonal couplings of modulus >= 1/4 after scaling: a weaker one
    # shrinks the gap until |p| ~ 1e-2 already meets the bulk
    size = n_lvl * n_lvl
    mod = np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=size,
                                 max_size=size)))
    phase = np.array(draw(st.lists(st.floats(-math.pi, math.pi),
                                   min_size=size, max_size=size)))
    a = np.triu((mod * np.exp(1j * phase)).reshape(n_lvl, n_lvl), 1)
    w = a + a.conj().T
    w = w / max(1.0, float(np.linalg.norm(w, 2)))
    rows = tuple(tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=1,
                                     max_size=3))) for _ in range(dim))
    beta = draw(st.floats(0.3, 3.0))
    n_axis = draw(st.sampled_from([4, 6, 8] if dim == 2 else [4]))
    cfg = ModelConfig(
        dim=dim, dispersion=DispersionSpec("cosine_series", coefficients=rows),
        spin=SpinSystem(levels=tuple(np.cumsum([0.0, *gaps])),
                        couplings=tuple(map(tuple, w))),
        beta=beta, bath=BathProfile("builtin_gaussian", beta=beta, dim=dim),
        grid=GridSpec(points_per_axis=n_axis,
                      sphere_nodes=draw(st.integers(4, 32))),
    )
    assume(validate_model(cfg).passed)  # rejects a flat axis row
    p = np.array(draw(st.lists(st.floats(1e-3, 1e-2), min_size=dim,
                               max_size=dim)))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]),
                                   min_size=dim, max_size=dim)))
    return cfg, signs * p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cosine_models())
def test_random_fibers_are_reflection_symmetric(model):
    _assert_reflection_symmetric(*model)


def test_dual_method_agreement_two_dimensions(ref2d):
    table = build_rate_table(ref2d)
    hess = diffusion_tensor_hessian(ref2d, table).tensor
    formula = diffusion_tensor_formula(ref2d, table)
    assert np.max(np.abs(hess - formula)) <= 1e-6 * np.abs(formula).max()
    assert np.all(np.linalg.eigvalsh(formula) > 0)
    # isotropic model: off-diagonal entries vanish
    assert abs(formula[0, 1]) <= 1e-8 * formula[0, 0]


def test_diffusion_tensor_grid_refinement():
    vals = {}
    for n_k in (64, 256, 512):
        cfg = reference_1d(n_k=n_k)
        vals[n_k] = diffusion_tensor_formula(cfg)[0, 0]
    err_coarse = abs(vals[64] - vals[512])
    err_fine = abs(vals[256] - vals[512])
    assert err_fine < err_coarse / 4.0


def test_constant_dispersion_gives_zero_tensor(flat1d):
    table = build_rate_table(flat1d)
    hess = diffusion_tensor_hessian(flat1d, table).tensor
    formula = diffusion_tensor_formula(flat1d, table)
    assert np.max(np.abs(hess)) <= 1e-12
    assert np.max(np.abs(formula)) <= 1e-12
    assert np.max(np.abs(diffusion_tensor_continuum(flat1d, table))) == 0.0


def test_velocity_that_vanishes_on_the_grid_gives_zero_tensor():
    # sin(N k) is 0 at every grid point, so its +-N pair cancels on mode 0;
    # the all-mode route read a roundoff beta(0) there and raised
    cfg = dataclasses.replace(
        reference_1d(n_k=4), dispersion=DispersionSpec(
            "cosine_series", coefficients=((0.0, 0.0, 0.0, 1.0),)))
    assert diffusion_tensor_formula(cfg).tolist() == [[0.0]]


def test_velocity_rows_orthogonal_to_kernel(ref1d):
    # solvability of the resolvent formula: the mean velocity in the
    # stationary state Gibbs x uniform vanishes
    pi = _gibbs_ansatz(ref1d)
    pi /= pi.sum()
    grad = dispersion_grad(ref1d.dispersion, ref1d.grid_points())
    assert abs(np.tile(grad[:, 0], 2) @ pi) <= 1e-12 * np.abs(grad).max()


def test_continuum_tensor_matches_fine_grid_1d():
    continuum = diffusion_tensor_continuum(reference_1d())[0, 0]
    fine = diffusion_tensor_formula(reference_1d(n_k=512))[0, 0]
    assert abs(fine - continuum) <= 1e-4 * continuum


def test_grid_tensor_converges_to_continuum_second_order():
    # m_dir = 256 keeps the direction rule's error below the grid's; at
    # m_dir = 16 the deposition phase makes the ratios oscillate
    errors = []
    for n_k in (16, 32, 64, 128):
        cfg = reference_2d(n_k=n_k, m_dir=256)
        table = build_rate_table(cfg)
        grid = diffusion_tensor_formula(cfg, table)
        continuum = diffusion_tensor_continuum(cfg, table)
        assert abs(continuum[0, 1]) <= 1e-14 * continuum[0, 0]
        errors.append(abs(grid[0, 0] - continuum[0, 0]))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.0 <= r <= 5.5 for r in ratios), ratios


def _ifftn_formula(cfg, table):
    """The grid tensor solved on every mode x != 0 of the N^d grid, with
    beta_i = ifftn(d_i eps) of the sampled velocity: the reference for the
    solve on the support of beta alone."""
    d, n_axis = cfg.dim, cfg.grid.points_per_axis
    grad = dispersion_grad(cfg.dispersion, cfg.grid_points())
    beta = np.fft.ifftn(grad.T.reshape((d,) + (n_axis,) * d),
                        axes=tuple(range(1, d + 1))).reshape(d, -1)[:, 1:]
    blocks = _grid_mode_blocks(table, n_axis)[1:]
    gibbs = cfg.spin.gibbs_weights(cfg.beta)
    rhs = np.broadcast_to(gibbs[:, None], (len(blocks), len(gibbs), 1))
    r = np.linalg.solve(-blocks, rhs)[..., 0].sum(axis=1)
    return 2.0 * np.einsum("ix,jx,x->ij", beta.conj(), beta, r).real


def _aliased(dim, n_k, seed):
    """Random cosine rows with harmonics 1 .. N + 1 on reference_2d's levels
    and bath: harmonics N / 2 and N cancel in pairs on the grid, and N + 1
    lands on the mode of harmonic 1."""
    rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (dim, n_k + 1))
    return dataclasses.replace(
        _lifted(dim, n_k, m_dir=8),
        dispersion=DispersionSpec("cosine_series",
                                  coefficients=tuple(map(tuple, rows))))


@pytest.mark.parametrize("make", [
    lambda: _aliased(1, 6, 1), lambda: _aliased(1, 8, 2),
    lambda: _aliased(2, 6, 3), lambda: _aliased(2, 8, 4),
    lambda: _aliased(3, 6, 5), lambda: _aliased(3, 8, 6),
    lambda: _lifted(3, 8),
], ids=["1d-6", "1d-8", "2d-6", "2d-8", "3d-6", "3d-8", "lifted-3d-8"])
def test_formula_meets_the_all_mode_solve_on_aliased_harmonics(make):
    cfg = make()
    table = build_rate_table(cfg)
    ref = _ifftn_formula(cfg, table)
    formula = diffusion_tensor_formula(cfg, table)
    assert np.abs(formula - ref).max() <= 1e-14 * np.abs(ref).max()


def _all_sector_top(cfg, table, p, near=None):
    """`_spectrum_top` before the bound, as an oracle: every folded sector
    of M(p) eigensolved, the tracked eigenvalue from the first."""
    eigs = [np.linalg.eigvals(s) for s in generator._fold(cfg, table, p)]
    flat = np.concatenate([e.ravel() for e in eigs])
    if near is None:
        return None, float(flat.real.max())
    top = int(np.argmin(np.abs(eigs[0][0] - near)))
    return eigs[0][0, top], float(np.delete(flat, top).real.max())


def _curve_and_gaps(cfg, table):
    """repr of a curve along axis 0 and of the gaps, or of the tracking loss."""
    axis = np.eye(cfg.dim)[0]
    try:
        curve = perron_curve(cfg, table, [s * axis for s in (0.0, 0.1, 0.3)])
        return repr((curve, spectral_gaps(cfg, table)))
    except TrackingLossError as exc:
        return repr(exc)


def _assert_pruning_is_exact(cfg):
    """Pruned curve and gaps equal the all-sector oracle's, bitwise; returns
    the x_F lists `_sectors` was given beyond x_F = 0 alone, at p = 0 and
    at the other p."""
    table = build_rate_table(cfg)
    zero, extra, sectors = [], [], generator._sectors

    def spy(cfg, table, p, which=None):
        if which is not None and list(which) != [0]:
            (extra if np.any(p) else zero).append(list(which))
        return sectors(cfg, table, p, which)

    with mock.patch.object(generator, "_sectors", spy):
        pruned = _curve_and_gaps(cfg, table)
    with mock.patch.object(spectral, "_spectrum_top", _all_sector_top):
        assert _curve_and_gaps(cfg, table) == pruned
    return zero, extra


def _all_other_modes(cfg):
    """The p = 0 x_F lists of a curve and the gaps when the bulk of the
    zero mode block lies below every other mode block's bound."""
    return [list(range(1, cfg.grid.points_per_axis ** cfg.dim))] * 2


def _extra_sector_model():
    """2-d N = 8, m = 7, a kick of 1.87 and an almost flat axis 1: on the
    small fibers the sector x_F = 4 of axis 1, not x_F = 0, holds the bulk."""
    return ModelConfig(
        dim=2, dispersion=DispersionSpec("cosine_series",
                                         coefficients=((0.8,), (-0.01,))),
        spin=SpinSystem(levels=(0.0, 1.87),
                        couplings=((0.0, 0.57), (0.57, 0.0))),
        beta=1.6, bath=BathProfile("builtin_gaussian", beta=1.6, dim=2),
        grid=GridSpec(points_per_axis=8, sphere_nodes=7))


@pytest.mark.parametrize("make", [reference_2d, lambda: _lifted(3, 8)],
                         ids=["reference-2d", "lifted-3d-8"])
def test_pruned_curve_and_gaps_equal_the_all_sector_oracle(make):
    cfg = make()
    assert _assert_pruning_is_exact(cfg) == (_all_other_modes(cfg), [])


def test_pruning_solves_the_sectors_the_bound_keeps():
    # at p = 0.02 the bulk is -0.739, in x_F = 4, and -0.860 in x_F = 0; the
    # bounds keep x_F = 2, 4, 6 on every small fiber, and the extra call
    # leaves the curve and gaps bitwise equal
    cfg = _extra_sector_model()
    assert validate_model(cfg).passed
    zero, extra = _assert_pruning_is_exact(cfg)
    assert zero == _all_other_modes(cfg)
    assert extra and all(which == [2, 4, 6] for which in extra)
    table = build_rate_table(cfg)
    p = np.array([0.02, 0.0])
    zero = np.concatenate([np.linalg.eigvals(s).ravel()
                           for s in generator._fold(cfg, table, p, [0])])
    bulk_zero = np.sort(zero.real)[-2]  # all but the tracked top, ~-1e-4
    assert spectral._spectrum_top(cfg, table, p, 0.0)[1] > bulk_zero + 0.1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cosine_fibers())
def test_pruning_is_exact_on_random_models(model):
    cfg, p = model
    _assert_pruning_is_exact(cfg)
    table = build_rate_table(cfg)
    assert spectral._spectrum_top(cfg, table, p) \
        == _all_sector_top(cfg, table, p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cosine_fibers())
def test_sector_spectra_lie_below_their_bounds(model):
    # Bendixson on the symmetrized sectors, up to the margin that covers
    # the eigensolver's backward error: unfolded sectors and folded halves
    cfg, p = model
    table = build_rate_table(cfg)
    bounds = spectral._sector_bounds(cfg, table, p)
    for stack in [generator._sectors(cfg, table, p),
                  *generator._fold(cfg, table, p)]:
        assert np.all(np.linalg.eigvals(stack).real.max(axis=1) <= bounds)


def test_reference_2d_gaps_and_curve_solve_the_zero_sector_only(monkeypatch):
    # the smallest slack, bulk of x_F = 0 minus the best other bound, is
    # 9.1e-5 at p = 0.02; at p = 0 the zero mode block's bulk keeps the
    # N^2 - 1 others
    cfg = reference_2d()
    table = build_rate_table(cfg)
    calls = []
    sectors = generator._sectors

    def spy(cfg, table, p, which=None):
        calls.append((bool(np.any(p)), which))
        return sectors(cfg, table, p, which)

    monkeypatch.setattr(generator, "_sectors", spy)
    perron_curve(cfg, table, [(s, 0.0) for s in np.linspace(0.0, 0.5, 32)])
    spectral_gaps(cfg, table)
    rest = list(range(1, cfg.grid.points_per_axis ** 2))
    assert [list(w) for moved, w in calls if not moved] == [[0], rest] * 2
    assert [list(w) for moved, w in calls if moved] == [[0]] * (31 + 9)
