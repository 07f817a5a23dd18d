import dataclasses
import math

import numpy as np
import pytest

from latticediff import spectral
from latticediff.generator import (_grid_mode_blocks, assemble_fiber,
                                   build_rate_table)
from latticediff.model import dispersion_grad
from latticediff.presets import reference_1d, reference_2d
from latticediff.spectral import (TrackingLossError, coherence_top,
                                  diffusion_tensor_continuum,
                                  diffusion_tensor_formula,
                                  diffusion_tensor_hessian, perron_curve,
                                  spectral_gaps, stationary_state)


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
    for bohr in (1.0, -1.0):
        block = assemble_fiber(ref1d, ref1d_table, np.zeros(1), bohr)
        top = float(np.diag(block.matrix).real.max())
        assert top == coherence_top(ref1d_table, bohr)
        assert top == expected


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


def test_hessian_builds_only_zero_sectors_without_dense_fibers(ref2d,
                                                                monkeypatch):
    table = build_rate_table(ref2d)
    fibers = _spy(monkeypatch, "assemble_fiber")
    sectors = _spy(monkeypatch, "_sectors")
    diffusion_tensor_hessian(ref2d, table)
    assert fibers == []
    # center, 2 axis pairs and 4 oblique points, at each of the two steps
    assert len(sectors) == 18
    assert all(len(stack) == 1 for _, (_, stack) in sectors)


def test_gaps_assemble_dense_fibers_only_on_the_small_ray(ref2d, monkeypatch):
    table = build_rate_table(ref2d)
    fibers = _spy(monkeypatch, "assemble_fiber")
    spectral_gaps(ref2d, table)
    small = [0.0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5]
    assert [args[2].tolist() for args, _ in fibers] == [[s, 0.0] for s in small]


@pytest.mark.parametrize("dim,n_k", [(3, 8), (4, 4)], ids=["3d", "4d"])
def test_hessian_matches_formula_beyond_two_dimensions(dim, n_k):
    # d >= 3 is pinned at the roundoff floor of a second difference,
    # eps * scale / h^2, not at the exact cancellations seen in 1-d and 2-d
    base = reference_2d(n_k=n_k, m_dir=16)
    cfg = dataclasses.replace(base, dim=dim, bath=dataclasses.replace(
        base.bath, dim=dim))
    table = build_rate_table(cfg)
    hess = diffusion_tensor_hessian(cfg, table).tensor
    formula = diffusion_tensor_formula(cfg, table)
    rel = np.max(np.abs(hess - formula)) / np.abs(formula).max()
    assert rel <= 1e-6


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


def test_velocity_rows_orthogonal_to_kernel(ref1d):
    # solvability of the resolvent formula: the mean velocity in the
    # stationary state Gibbs x uniform vanishes
    pi = _gibbs_ansatz(ref1d)
    pi /= pi.sum()
    grad = dispersion_grad(ref1d.dispersion, ref1d.grid_points(), dim=1)
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
