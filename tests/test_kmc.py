import math

import numpy as np
import pytest
from scipy import stats as sps

from latticediff import kmc
from latticediff.generator import build_rate_table, escape_rates
from latticediff.kmc import _wrap, run_ensemble, sample_paths
from latticediff.model import DispersionSpec, GridSpec, ModelConfig, SpinSystem
from latticediff.presets import reference_1d, reference_2d
from latticediff.reservoir import BathProfile
from latticediff.spectral import diffusion_tensor_continuum, perron_curve


def _single_level_model():
    return ModelConfig(
        dim=1, dispersion=DispersionSpec("nearest_neighbor"),
        spin=SpinSystem(levels=(0.5,), couplings=((0.0,),)),
        beta=1.0, bath=BathProfile("builtin_gaussian", beta=1.0, dim=1),
        grid=GridSpec(points_per_axis=16, sphere_nodes=2),
    )


def _three_level_model(couplings):
    return ModelConfig(
        dim=1, dispersion=DispersionSpec("nearest_neighbor"),
        spin=SpinSystem(levels=(0.0, 0.7, 1.9), couplings=couplings),
        beta=1.0, bath=BathProfile("builtin_gaussian", beta=1.0, dim=1),
        grid=GridSpec(points_per_axis=16, sphere_nodes=2),
    )


def _reference_rounds(proc, rng, x, k, e, t_rem, cur_inv):
    """The round loop as first written, the oracle for `kmc._rounds`:
    the jumpers are gathered with `nonzero`, k is wrapped after every
    kick, and the indices of the jumpers are yielded."""
    n, d = x.shape
    n_lvl = len(proc.levels)
    two_level = n_lvl == 2
    while t_rem.any():
        u_wait = rng.exponential(size=n)
        u_level = None if two_level else rng.random(n)
        if d == 1:
            s = np.where(rng.random(n) < 0.5, -1.0, 1.0)[:, None]
        else:
            g = rng.normal(size=(n, d))
            s = g / np.linalg.norm(g, axis=1, keepdims=True)
        dt = u_wait * cur_inv
        jump = dt < t_rem
        fly = np.where(jump, dt, t_rem)
        x += proc.velocity(k) * fly[:, None]
        t_rem -= fly
        idx = np.nonzero(jump)[0]
        if len(idx):
            if two_level:
                e_new = 1 - e[idx]
            else:
                rows = proc.cum_prob[e[idx]]
                e_new = (u_level[idx, None] > rows).sum(axis=1).clip(0, n_lvl - 1)
            kick = proc.radius[e[idx], e_new]
            k[idx] = _wrap(k[idx] + kick[:, None] * s[idx])
            e[idx] = e_new
            cur_inv[idx] = proc.inv_rate[e_new]
        yield idx


STREAM_MODELS = {
    "reference_1d": reference_1d,
    "reference_2d": lambda: reference_2d(n_k=8, m_dir=8),
    "three_level": lambda: _three_level_model(
        ((0, 0.5, 0.5), (0.5, 0, 0.5), (0.5, 0.5, 0))),
    "single_level": _single_level_model,
    # the middle level is coupled to nothing: its escape rate is zero
    "zero_rate_level": lambda: _three_level_model(
        ((0, 0, 1), (0, 0, 0), (1, 0, 0))),
}


@pytest.mark.parametrize("name", sorted(STREAM_MODELS))
def test_rounds_consume_the_reference_stream(name):
    cfg = STREAM_MODELS[name]()
    proc = kmc._Process(build_rate_table(cfg))
    rngs = [kmc._philox(cfg.rng_seed, 5) for _ in range(2)]
    new, ref = [kmc._start(proc, rng, 1024, 30.0) for rng in rngs]
    x, k, e, t_rem = new
    x0, k0, e0, t_rem0 = ref
    rounds = 0
    for jump, idx in zip(kmc._rounds(proc, rngs[0], *new),
                         _reference_rounds(proc, rngs[1], *ref,
                                           proc.inv_rate[e0]),
                         strict=True):
        assert np.array_equal(np.flatnonzero(jump), idx)
        assert np.array_equal(t_rem, t_rem0)
        assert np.array_equal(e, e0)
        rounds += 1
    assert rounds >= (1 if name == "single_level" else 50)
    np.testing.assert_equal(rngs[0].bit_generator.state,
                            rngs[1].bit_generator.state)
    assert np.abs(x - x0).max() <= 1e-12 * np.abs(x0).max()
    assert np.abs(_wrap(k - k0)).max() <= 1e-12 * max(np.abs(k).max(), math.pi)
    if name == "zero_rate_level":
        assert np.count_nonzero(e == 1) > 0


def _paths(rows):
    """Rows of `sample_paths` split per path: (t, x, k, level) arrays."""
    out = {}
    for i, t, x, k, level in rows:
        out.setdefault(i, []).append((t, x, k, level))
    return [(np.array([r[0] for r in p]), np.array([r[1] for r in p]),
             np.array([r[2] for r in p]), np.array([r[3] for r in p]))
            for _, p in sorted(out.items())]


def _completed_waits(rows):
    """(level, wait) of every completed sojourn; the last interval of each
    path is cut at t_final and is not a completed wait."""
    levels, waits = [], []
    for t, _, _, level in _paths(rows):
        levels.append(level[:-2])
        waits.append(np.diff(t)[:-1])
    return np.concatenate(levels), np.concatenate(waits)


def test_single_level_is_ballistic():
    cfg = _single_level_model()
    for t, x, k, level in _paths(sample_paths(cfg, 3, 7.5)):
        assert t.tolist() == [0.0, 7.5]
        assert np.array_equal(k[1], k[0])
        assert level.tolist() == [0, 0]
        assert x[0, 0] == 0.0
        assert x[1, 0] == pytest.approx(2.0 * math.sin(k[0, 0]) * 7.5,
                                        rel=1e-12)
    stats = run_ensemble(cfg, 512, 30.0)
    assert np.all(stats.level_hist == [512])


def test_waiting_times_follow_escape_rates(ref1d, ref1d_table):
    rates = escape_rates(ref1d_table)
    levels, waits = _completed_waits(
        sample_paths(ref1d, 4, 400.0, table=ref1d_table))
    for lvl in (0, 1):
        sample = waits[levels == lvl]
        assert len(sample) >= 5000
        assert sample.mean() == pytest.approx(1.0 / rates[lvl], rel=0.05)
        result = sps.kstest(sample, "expon", args=(0.0, 1.0 / rates[lvl]))
        assert result.pvalue > 0.01


def test_mean_wait_on_unit_rate_profile():
    # psi_hat(1) pinned to 1 puts the upper escape rate at exactly 4 pi
    cfg = ModelConfig(
        dim=1, dispersion=DispersionSpec("nearest_neighbor"),
        spin=SpinSystem(levels=(0.0, 1.0), couplings=((0, 1), (1, 0))),
        beta=1.0,
        bath=BathProfile("tabulated", beta=1.0, dim=1,
                         table_omega=(0.0, 1.0, 2.0),
                         table_values=(0.0, 1.0, 0.0)),
        grid=GridSpec(points_per_axis=16, sphere_nodes=2),
    )
    levels, waits = _completed_waits(sample_paths(cfg, 4, 450.0))
    upper = waits[levels == 1]
    assert len(upper) >= 5000
    assert upper.mean() == pytest.approx(1.0 / (4.0 * math.pi), rel=0.05)


def test_ensemble_stats_invariants(medium_run):
    assert medium_run.level_hist.sum() == medium_run.n_traj
    assert medium_run.k_hist[0].sum() == medium_run.n_traj
    cov = medium_run.cov_x
    assert np.allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) >= 0)
    for est in medium_run.cgf:
        assert abs(est.sample_mean) <= 1.0 + 1e-12


def test_jump_magnitude_equals_level_gap(ref1d, ref1d_table):
    gap = abs(ref1d.spin.levels[1] - ref1d.spin.levels[0])
    n_jumps = 0
    for _, _, k, level in _paths(sample_paths(ref1d, 3, 20.0,
                                              table=ref1d_table)):
        # the last row is the stop at t_final, not a jump
        dk = _wrap(np.diff(k[:-1, 0]))
        assert np.allclose(np.abs(dk), gap, rtol=0.0, atol=1e-12)
        assert np.all(level[1:-1] != level[:-2])
        n_jumps += len(dk)
    assert n_jumps >= 50


def test_momentum_wrapped_after_jump(ref1d, ref1d_table):
    rows = sample_paths(ref1d, 3, 20.0, table=ref1d_table)
    k = np.array([r[3][0] for r in rows])
    assert np.all((-math.pi <= k) & (k < math.pi))
    # some kick crossed the zone edge and was wrapped back
    assert np.any(np.abs(np.diff(k)) > math.pi)


@pytest.fixture(scope="module")
def medium_run(ref1d, ref1d_table):
    return run_ensemble(ref1d, 20000, 120.0, probes=[[0.1], [-0.1]],
                        table=ref1d_table)


def test_drift_consistent_with_zero(medium_run):
    for i in range(len(medium_run.mean_x)):
        assert abs(medium_run.mean_x[i]) <= 3.0 * medium_run.mean_x_se[i]


def test_level_occupation_matches_gibbs(medium_run):
    result = sps.chisquare(medium_run.level_hist, medium_run.gibbs_expected)
    assert result.pvalue > 0.01


def test_momentum_marginal_uniform(medium_run):
    assert medium_run.k_marginal_tv(0) < 0.02


def test_diffusion_estimate_matches_spectral(ref1d, ref1d_table, medium_run):
    from latticediff.spectral import diffusion_tensor_formula

    target = diffusion_tensor_formula(ref1d, ref1d_table)[0, 0]
    est = medium_run.diffusion[0, 0]
    se = medium_run.diffusion_se[0, 0]
    assert abs(est - target) <= 4.0 * se  # loose: includes O(1/t) transient


def test_two_dimensional_diffusion_matches_continuum_tensor():
    # the walkers keep k continuous, so their target is the grid-free
    # tensor; the N = 16 grid tensor sits 4.9 % below it.  The run resolves
    # the target to 1 %: se <= 0.01 D_inf.
    cfg = reference_2d()
    target = diffusion_tensor_continuum(cfg)
    stats = run_ensemble(cfg, 20000, 50.0, threads=2)
    for i in range(2):
        se = stats.diffusion_se[i, i]
        assert abs(stats.diffusion[i, i] - target[i, i]) <= 3.0 * se
        assert se <= 0.01 * target[i, i]


def test_diffusion_stable_under_time_doubling(ref1d, ref1d_table):
    a = run_ensemble(ref1d, 20000, 60.0, table=ref1d_table)
    b = run_ensemble(ref1d, 20000, 120.0, table=ref1d_table)
    combined = math.hypot(a.diffusion_se[0, 0], b.diffusion_se[0, 0])
    assert abs(a.diffusion[0, 0] - b.diffusion[0, 0]) <= 4.0 * combined


def test_cgf_zero_probe_is_exactly_zero(ref1d, ref1d_table):
    stats = run_ensemble(ref1d, 256, 10.0, probes=[[0.0]], table=ref1d_table)
    assert stats.cgf[0].value == 0.0


def test_cgf_opposite_probes_conjugate(medium_run):
    plus, minus = medium_run.cgf
    err = 3.0 * math.hypot(plus.se_real + minus.se_real,
                           plus.se_imag + minus.se_imag)
    assert abs(plus.value - np.conj(minus.value)) <= err


def test_cgf_matches_fiber_eigenvalue(ref1d, ref1d_table, medium_run):
    target = perron_curve(ref1d, ref1d_table, [[0.1]])[0].eigenvalue
    est = medium_run.cgf[0]
    assert abs(est.value.real - target.real) <= 4.0 * est.se_real + 2e-4
    assert abs(est.value.imag - target.imag) <= 4.0 * est.se_imag + 2e-4


def test_reproducible_for_fixed_seed(ref1d, ref1d_table):
    a = run_ensemble(ref1d, 4096, 20.0, probes=[[0.1]], table=ref1d_table)
    b = run_ensemble(ref1d, 4096, 20.0, probes=[[0.1]], table=ref1d_table)
    assert np.array_equal(a.cov_x, b.cov_x)
    assert np.array_equal(a.level_hist, b.level_hist)
    assert a.cgf[0].value == b.cgf[0].value


def test_reproducible_across_thread_counts(ref1d, ref1d_table, monkeypatch):
    monkeypatch.setattr(kmc, "BLOCK_SIZE", 16384)
    a = run_ensemble(ref1d, 70000, 8.0, table=ref1d_table, threads=1)
    b = run_ensemble(ref1d, 70000, 8.0, table=ref1d_table, threads=4)
    assert np.array_equal(a.cov_x, b.cov_x)
    assert np.array_equal(a.k_hist, b.k_hist)


def test_probe_dimension_checked_before_any_walker_runs(monkeypatch):
    blocks = []
    monkeypatch.setattr(kmc, "_simulate_block",
                        lambda *args: blocks.append(args))
    with pytest.raises(ValueError, match="2 components"):
        run_ensemble(reference_2d(), 32768, 50.0, probes=[[0.05]])
    assert blocks == []


def test_seed_changes_results(ref1d, ref1d_table):
    other = reference_1d(seed=7)
    a = run_ensemble(ref1d, 2048, 10.0, table=ref1d_table)
    b = run_ensemble(other, 2048, 10.0, table=ref1d_table)
    assert not np.array_equal(a.cov_x, b.cov_x)


def test_warning_when_horizon_too_short(ref1d, ref1d_table):
    stats = run_ensemble(ref1d, 256, 1.0, table=ref1d_table, g_low=0.1)
    assert any("diffusive regime" in w for w in stats.warnings)


def test_sample_paths_structure(ref1d, ref1d_table):
    rows = sample_paths(ref1d, 2, 5.0, table=ref1d_table)
    paths = {r[0] for r in rows}
    assert paths == {0, 1}
    for i, t, x, k, level in rows:
        assert -math.pi <= k[0] < math.pi
        assert level in (0, 1)
    for t, x, _, _ in _paths(rows):
        assert t[0] == 0.0 and np.all(x[0] == 0.0)
        assert np.all(np.diff(t) > 0)
        assert t[-1] == 5.0


@pytest.mark.parametrize("t_final", [0.0, -1.0, math.nan, math.inf])
def test_sample_paths_rejects_bad_horizon(ref1d, ref1d_table, t_final):
    with pytest.raises(ValueError, match="t_final"):
        sample_paths(ref1d, 2, t_final, table=ref1d_table)


@pytest.mark.parametrize("n_paths", [0, -1])
def test_sample_paths_rejects_bad_path_count(ref1d, ref1d_table, n_paths):
    with pytest.raises(ValueError, match="at least 1 path"):
        sample_paths(ref1d, n_paths, 5.0, table=ref1d_table)
