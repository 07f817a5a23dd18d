import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import hyp0f1, jv, roots_jacobi

from latticediff import reservoir
from latticediff.model import SpinSystem
from latticediff.reservoir import (BathProfile, QuadratureError,
                                   check_subluminal_decay,
                                   check_time_integrability,
                                   gain_coefficient_position,
                                   gain_coefficient_sphere, half_line_fourier,
                                   lamb_shift, psi_xt, psi_xt_batch,
                                   _cumulative_halfline, _omega_nodes)
from latticediff.sphere import plane_wave_average, polar_rule, surface_area


@pytest.fixture(scope="module")
def bath4():
    return BathProfile("builtin_gaussian", beta=1.0, dim=4, cutoff=2.0)


@pytest.fixture(scope="module")
def bath2():
    return BathProfile("builtin_gaussian", beta=1.0, dim=2, cutoff=2.0)


@pytest.fixture
def rule(monkeypatch):
    """Set frequency-rule constants of `reservoir` for one test.

    The roundoff floor of the refinement checks scales with psi(0, 0),
    which `_zero_point_scale` caches per profile under the default rule:
    each profile's entry is warmed before the constants change, and the
    cache is cleared when the test ends, so no patched value outlives it.
    """
    def patch(profile, **constants):
        reservoir._zero_point_scale(profile)
        for name, value in constants.items():
            monkeypatch.setattr(reservoir, name, value)

    yield patch
    reservoir._zero_point_scale.cache_clear()


def test_zero_frequency_weight_vanishes(bath4):
    assert bath4.psi_hat(0.0) == 0.0
    for d in (1, 2, 3):
        prof = BathProfile("builtin_gaussian", beta=1.0, dim=d, cutoff=2.0)
        assert prof.psi_hat(0.0) == 0.0
        # the zero must be approached continuously, not just set by hand
        assert prof.psi_hat(1e-7) < 1e-6


def test_emission_absorption_ratio_exact(bath4):
    assert bath4.psi_hat(-1.0) / bath4.psi_hat(1.0) == pytest.approx(
        math.exp(-1.0), abs=1e-16)


def test_reference_value_dimension_four(bath4):
    expected = 1.0 ** 2 * math.exp(-0.25) / (1.0 - math.exp(-1.0))
    assert bath4.psi_hat(1.0) == expected


def test_kms_relation_on_grid(bath4):
    omegas = np.linspace(1e-6, 12.0, 1000)
    lhs = bath4.psi_hat(-omegas)
    rhs = np.exp(-bath4.beta * omegas) * bath4.psi_hat(omegas)
    assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-12


def test_profile_nonnegative(bath4):
    rng = np.random.default_rng(0)
    omegas = rng.uniform(-15, 15, 500)
    assert np.all(bath4.psi_hat(omegas) >= 0.0)


def test_tabulated_profile_kms_and_support():
    prof = BathProfile("tabulated", beta=2.0, dim=1,
                       table_omega=(0.0, 0.5, 1.0, 1.5, 2.0),
                       table_values=(0.0, 0.6, 1.0, 0.4, 0.0))
    assert prof.psi_hat(1.0) == 1.0
    assert prof.psi_hat(-1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert prof.psi_hat(3.0) == 0.0
    assert prof.psi_hat(0.7) >= 0.0


def test_builtin_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BathProfile("builtin_gaussian", beta=-1.0, dim=4)
    with pytest.raises(ValueError):
        BathProfile("tabulated", beta=1.0, dim=1,
                    table_omega=(0.0, 1.0), table_values=(0.1, 1.0))


def test_origin_value_is_sphere_times_frequency_integral(bath4):
    # independent oracle: 1d quadrature of psi_hat * exp(i w t) over the support
    t = 2.3
    nodes, weights = _full_rule(bath4, abs(t), refine=2)
    oracle = surface_area(4) * np.sum(
        weights * bath4.psi_hat(nodes) * np.exp(1j * nodes * t))
    value = psi_xt(bath4, [0, 0, 0, 0], t)
    assert value == pytest.approx(oracle, rel=1e-9)


def _polar_quadrature(d, r):
    """Gauss-Jacobi reduction of the sphere average, resolved up to phase r."""
    eta, w = polar_rule(d, int(2 * r) + 64)
    return surface_area(d - 1) * float(np.cos(r * eta) @ w)


# d = 1 is the two-point sphere {+1, -1}; d >= 2 the Gauss-Jacobi reduction.
@pytest.mark.parametrize("d,reference", [(1, lambda r: 2.0 * math.cos(r))] + [
    (d, lambda r, d=d: _polar_quadrature(d, r)) for d in (2, 3, 4, 5)])
def test_sphere_average_matches_bessel_closed_form(d, reference):
    for r in (1e-3, 0.3, 1.7, 6.0, 25.0, 300.0):
        assert abs(plane_wave_average(d, r) - reference(r)) <= 1e-12 * surface_area(d)
    assert plane_wave_average(d, 0.0) == surface_area(d)
    rs = np.array([-6.0, 0.0, 6.0])
    assert np.array_equal(plane_wave_average(d, rs), plane_wave_average(d, -rs))


def _scipy_closed_form(d, r):
    """(2 pi)^{d/2} J_nu(r) / r^nu, nu = d/2 - 1, by scipy: jv from r = 1
    on; below, jv(nu, r) / r^nu is up to 1.1e-14 of |S^{d-1}| off (nu = 5/2
    near r = 5e-12, against 30-digit values), so there the same function as
    its series, |S^{d-1}| 0F1(; d/2; -r^2/4)."""
    nu, big = d / 2.0 - 1.0, np.maximum(r, 1.0)
    return np.where(r < 1.0, surface_area(d) * hyp0f1(d / 2.0, -0.25 * r * r),
                    (2.0 * math.pi) ** (d / 2.0) * jv(nu, big) / big ** nu)


@pytest.mark.parametrize("d", range(2, 8))
def test_sphere_average_matches_scipy_bessel(d):
    # every region of the numpy Bessel function: series, Miller, Hankel
    rs = np.concatenate([[0.0], np.logspace(-12, 0, 241),
                         np.linspace(0.0, 60.0, 6001),
                         np.random.default_rng(d).uniform(0.0, 1000.0, 10**5)])
    value = plane_wave_average(d, rs)
    err = np.max(np.abs(value - _scipy_closed_form(d, rs)))
    assert err <= 4e-15 * surface_area(d)
    assert np.array_equal(plane_wave_average(d, -rs), value)


@pytest.mark.parametrize("d", range(2, 8))
def test_polar_rule_matches_scipy_gauss_jacobi(d):
    for order in [*range(1, 65), 664]:
        eta, w = polar_rule(d, order)
        eta_ref, w_ref = roots_jacobi(order, (d - 3) / 2.0, (d - 3) / 2.0)
        assert np.max(np.abs(eta - eta_ref)) <= 1e-14, order
        # at d = 3, order 664 roots_jacobi's own end weights are 3.8e-14 off
        # 30-digit Newton values, which polar_rule's meet within 2.1e-16
        tol = 4e-14 if (d, order) == (3, 664) else 1e-14
        assert np.max(np.abs(w - w_ref)) <= tol, order


def _full_rule(profile, phase_rate, refine):
    """The mirrored frequency rule on [-R, R], every node listed."""
    nodes, weights, _, _ = _omega_nodes(profile, phase_rate, refine)
    return (np.concatenate([-nodes[::-1], nodes]),
            np.concatenate([weights[::-1], weights]))


def _direct_psi(profile, xs, ts, refine):
    """sum_w weight psi_hat(w) average(|x| w) e^{i w t} over every node,
    with one complex exponential per (t, node)."""
    r = np.linalg.norm(xs, axis=1)
    nodes, weights = _full_rule(profile, np.max(np.abs(ts) + r), refine)
    terms = (plane_wave_average(xs.shape[1], np.multiply.outer(r, nodes))
             * np.exp(1j * np.multiply.outer(ts, nodes)))
    return terms @ (weights * profile.psi_hat(nodes))


def _direct_halfline(profile, x, a, anchors, refine):
    """The half-line partials with the kernel T e^{i u T/2} sinc(u T/2 pi),
    u = w + a, taken node by node."""
    r = float(np.linalg.norm(x))
    nodes, weights = _full_rule(profile, anchors[-1] + r, refine)
    phase = np.multiply.outer(anchors, nodes + a)
    kernel = anchors[:, None] * np.exp(0.5j * phase) * np.sinc(phase / (2 * math.pi))
    return kernel @ (weights * profile.psi_hat(nodes)
                     * plane_wave_average(len(x), r * nodes))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_factored_phases_meet_the_direct_node_sum(d):
    # psi sums the positive nodes with phases factored per panel and the
    # w < 0 half by conjugation; the half-line partials factor e^{i u T/2}
    prof = BathProfile("builtin_gaussian", beta=1.0, dim=d, cutoff=2.0)
    rng = np.random.default_rng(d)
    axes = rng.normal(size=(200, d))
    xs = axes / np.linalg.norm(axes, axis=1, keepdims=True) * rng.uniform(0, 50, (200, 1))
    xs[:20] = 0.0
    ts = rng.uniform(-200.0, 200.0, 200)
    scale = abs(_direct_psi(prof, np.zeros((1, d)), np.zeros(1), 2)[0])
    err = np.max(np.abs(psi_xt_batch(prof, xs, ts) - _direct_psi(prof, xs, ts, 2)))
    assert err <= 1e-14 * scale
    for a in (0.0, 0.1, -1.0, -1.3, 2.5):
        for x in (np.zeros(d), np.array([2.0, -1.0, 0.0, 0.0])[:d]):
            anchors, partials, _ = _cumulative_halfline(prof, x, a, 1)
            oracle = _direct_halfline(prof, x, a, anchors, 1)
            err = np.max(np.abs(partials - oracle))
            assert err <= 1e-13 * np.max(np.abs(partials)), (a, x)


def test_hermiticity_in_time(bath4):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.integers(-3, 4, size=4).astype(float)
        t = rng.uniform(0.2, 8.0)
        fwd = psi_xt(bath4, x, t)
        bwd = psi_xt(bath4, x, -t)
        assert bwd == pytest.approx(np.conj(fwd), rel=1e-9, abs=1e-12)


def test_equal_time_value_is_real(bath4):
    for r in (0, 1, 3):
        val = psi_xt(bath4, [r, 0, 0, 0], 0.0)
        assert abs(val.imag) <= 1e-12 * max(abs(val.real), 1.0)


def test_rotational_invariance(bath2):
    a = psi_xt(bath2, [5.0, 0.0], 2.0)
    b = psi_xt(bath2, [3.0, 4.0], 2.0)
    assert a == pytest.approx(b, rel=1e-8)


def test_refinement_doubling_converges(bath4, rule):
    # psi_xt raises on refinement disagreement; also compare two rules
    points = [((0, 0, 0, 0), 1.0), ((2, 0, 0, 0), 5.0), ((1, 1, 0, 0), 9.0)]
    base = [psi_xt(bath4, x, t) for x, t in points]
    rule(bath4, PHASE_PER_PANEL=12.0)
    for (x, t), value in zip(points, base):
        assert value == pytest.approx(psi_xt(bath4, x, t), rel=1e-8)


def test_refinement_check_allows_roundoff_only(rule):
    # outside the light cone |psi| is at the roundoff of the omega sum, so
    # the check must allow n_nodes eps |psi(0, 0)| on top of rel_tol |psi|
    bath3 = BathProfile("builtin_gaussian", beta=1.0, dim=3, cutoff=2.0)
    rng = np.random.default_rng(3)
    psi_xt_batch(bath3, rng.uniform(-6.0, 6.0, size=(40, 3)),
                 rng.uniform(-20.0, 20.0, size=40))
    psi_xt(bath3, (-6.0, -5.0, -6.0), -0.004)
    # an under-resolved rule moves O(1) values far beyond that allowance
    points = [((0.5, 0.0, 0.0), 1.0), ((1.0, 1.0, 0.0), 2.0),
              ((0.0, 0.0, 0.0), 3.0)]
    for x, t in points:
        assert abs(psi_xt_batch(bath3, [x], [t], check=False)[0]) > 0.1
    rule(bath3, PANEL_ORDER=4, PHASE_PER_PANEL=64.0)
    for x, t in points:
        with pytest.raises(QuadratureError):
            psi_xt(bath3, x, t)


def test_cone_decay_fit_passes(bath4):
    fit = check_subluminal_decay(bath4, 0.5, 20.0)
    assert fit.rate > 0
    assert fit.r_squared >= 0.95
    assert fit.passed
    assert fit.warning == ""


def test_origin_line_decays_as_cone_subset(bath4, monkeypatch):
    # v = 0: the x = 0 line alone is a subset of any subluminal cone
    monkeypatch.setattr(reservoir, "CONE_FRACTIONS", (0.0,))
    fit = check_subluminal_decay(bath4, 0.5, 20.0)
    assert fit.rate > 0
    assert fit.r_squared >= 0.95


def test_cone_decay_near_light_speed_warns_and_degrades(bath4):
    slow = check_subluminal_decay(bath4, 0.99, 20.0)
    fast = check_subluminal_decay(bath4, 0.5, 20.0)
    assert "propagation speed" in slow.warning
    assert slow.rate < fast.rate


def test_cone_decay_rejects_bad_speed(bath4):
    with pytest.raises(ValueError):
        check_subluminal_decay(bath4, 1.2, 10.0)


@pytest.mark.parametrize("check,window", [
    (lambda b, t: check_subluminal_decay(b, 0.5, t), [(3.0,), (5.0,)]),
    (check_time_integrability, [(3.0,), (5.0,), (math.nan,)]),
    (reservoir.fit_sup_power, [(5.0, 3.0), (0.0, 10.0), (5.0, 5.0),
                               (math.nan, 10.0)]),
], ids=["cone", "integrability", "sup-power"])
def test_decay_fit_windows_outside_the_psi_range_refused(bath4, check, window):
    # every fit samples [5, t_max] or [t_min, t_max], which must be a
    # nonempty interval inside [0, t_max]
    for args in window:
        with pytest.raises(ValueError):
            check(bath4, *args)


def test_time_integrability_partial_and_tail(bath4):
    rep = check_time_integrability(bath4, 40.0)
    assert rep.passed
    assert rep.partial_integral > 0
    assert math.isfinite(rep.tail_estimate)
    assert rep.tail_power < -1.0


def test_halfline_real_part_identity(bath4):
    # int_0^inf psi(0,t) e^{iat} dt has real part pi psi_hat(-a) |S^{d-1}|
    for a in (1.0, 0.7):
        val = half_line_fourier(bath4, np.zeros(4), a)
        expected = math.pi * bath4.psi_hat(-a) * surface_area(4)
        assert val.real == pytest.approx(expected, rel=2e-4, abs=1e-6)


def test_lamb_shift_zero_channel_and_finiteness(bath4):
    spin = SpinSystem(levels=(0.0, 1.0), couplings=((0, 1), (1, 0)))
    shifts = lamb_shift(bath4, spin)
    assert shifts[0.0] == 0.0
    assert set(shifts) == {0.0, 1.0, -1.0}
    assert all(math.isfinite(v) for v in shifts.values())
    assert shifts[1.0] == pytest.approx(-shifts[-1.0], rel=1e-12)


def test_lamb_shift_principal_value_oracle():
    # nearly one-sided profile (low temperature proxy); oracle: the
    # imaginary part of the half-line integral is the principal-value
    # integral of psi_hat(w) / (w + a)
    prof = BathProfile("builtin_gaussian", beta=50.0, dim=4, cutoff=2.0)
    a = 1.0
    val = half_line_fourier(prof, np.zeros(4), a).imag / surface_area(4)

    def integrand(u):
        # symmetrized around the pole at w = -a
        return (prof.psi_hat(-a + u) - prof.psi_hat(-a - u)) / u

    inner, _ = quad(integrand, 1e-12, 3.0, limit=200)
    outer_lo, _ = quad(lambda w: prof.psi_hat(w) / (w + a), -prof.omega_support(),
                       -a - 3.0, limit=200)
    outer_hi, _ = quad(lambda w: prof.psi_hat(w) / (w + a), -a + 3.0,
                       prof.omega_support(), limit=200)
    oracle = inner + outer_lo + outer_hi
    assert val == pytest.approx(oracle, rel=2e-3)


def test_gain_coefficient_origin(bath2):
    a = 1.3
    closed = gain_coefficient_sphere(bath2, a, [0, 0])
    assert closed == pytest.approx(
        2 * math.pi * bath2.psi_hat(a) * surface_area(2), rel=1e-12)
    quadv = gain_coefficient_position(bath2, a, [0, 0])
    assert quadv == pytest.approx(closed, rel=1e-8)


def test_gain_coefficient_vanishing_weight(bath2):
    assert gain_coefficient_sphere(bath2, 0.0, [1, 0]) == 0.0
    scale = gain_coefficient_sphere(bath2, 1.0, [0, 0])
    assert abs(gain_coefficient_position(bath2, 0.0, [1, 0])) <= 1e-6 * scale


def test_correlation_samples_helper(bath2):
    # the one-rule rows that `psi` writes agree with the checked psi_xt
    times = [0.0, 1.0, 2.0]
    samples = psi_xt_batch(bath2, np.tile([1.0, 0.0], (3, 1)), times,
                           check=False)
    assert samples.shape == (3,)
    for t, value in zip(times, samples):
        assert value == pytest.approx(psi_xt(bath2, [1, 0], t), rel=1e-7)


def test_gain_coefficient_dual_route(bath2):
    rng = np.random.default_rng(3)
    for _ in range(3):
        a = rng.uniform(0.5, 2.5)
        x = rng.integers(-3, 4, size=2).astype(float)
        closed = gain_coefficient_sphere(bath2, a, x)
        if abs(closed) < 0.05 * abs(gain_coefficient_sphere(bath2, a, [0, 0])):
            continue
        quadv = gain_coefficient_position(bath2, a, x)
        assert quadv == pytest.approx(closed, rel=1e-6)


def test_batch_matches_single(bath4):
    xs = np.array([[0, 0, 0, 0], [2, 0, 0, 0], [1, 1, 0, 0]], dtype=float)
    ts = np.array([1.0, 4.0, 7.0])
    batch = psi_xt_batch(bath4, xs, ts)
    for i in range(3):
        assert batch[i] == pytest.approx(psi_xt(bath4, xs[i], ts[i]), rel=1e-10)


def _time_quadrature_partials(profile, x, a, anchors):
    """Partial integrals int_0^{T_j} psi(x, t) e^{iat} dt by a Gauss-Legendre
    rule in t, with panels sized for the phase rate R + |a| and an edge at
    every anchor T_j; psi(x, t) comes from the omega rule at each t node."""
    rate = profile.omega_support() + abs(a)
    edges = [np.linspace(0.0, anchors[0], max(
        4, math.ceil(anchors[0] * rate / reservoir.PHASE_PER_PANEL)) + 1)]
    for lo, hi in zip(anchors[:-1], anchors[1:]):
        n_sub = max(2, math.ceil((hi - lo) * rate / reservoir.PHASE_PER_PANEL))
        edges.append(np.linspace(lo, hi, n_sub + 1)[1:])
    edges = np.concatenate(edges)
    gl_x, gl_w = np.polynomial.legendre.leggauss(reservoir.PANEL_ORDER)
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * gl_x).ravel()
    psi = psi_xt_batch(profile, np.tile(x, (len(t), 1)), t, check=False)
    terms = (half * gl_w).ravel() * psi * np.exp(1j * a * t)
    cum = np.concatenate([[0.0], np.cumsum(terms.reshape(len(half), -1).sum(axis=1))])
    return cum[np.searchsorted(edges, anchors)]


@pytest.mark.parametrize("d", [1, 2, 4])
def test_halfline_partials_match_time_quadrature(d):
    # the closed-form time integral per omega node against the same
    # partials by quadrature in t; x = (2, -1) is cut to the first d axes
    prof = BathProfile("builtin_gaussian", beta=1.0, dim=d, cutoff=2.0)
    for a in (0.0, 0.1, -1.0, 2.5):
        for x in (np.zeros(d), np.array([2.0, -1.0, 0.0, 0.0])[:d]):
            anchors, partials, _ = _cumulative_halfline(prof, x, a, 1)
            oracle = _time_quadrature_partials(prof, x, a, anchors)
            err = np.max(np.abs(partials - oracle))
            assert err <= 1e-12 * np.max(np.abs(partials)), (a, x)


@pytest.mark.parametrize("spec", [{"PANEL_ORDER": 4},
                                  {"PHASE_PER_PANEL": 64.0}])
def test_halfline_refinement_check_rejects_coarse_rule(bath2, rule, spec):
    rule(bath2, **spec)
    for a, x in ((0.7, (1.0, 0.0)), (-1.5, (2.0, -1.0))):
        with pytest.raises(QuadratureError):
            half_line_fourier(bath2, x, a)


def test_lamb_shift_integrates_only_coupled_frequencies(monkeypatch):
    # the two-level spin couples 0 <-> 1 only: a = 0 is never integrated
    prof = BathProfile("builtin_gaussian", beta=1.0, dim=1, cutoff=2.0)
    seen = []

    def spy(profile, x, a):
        seen.append(a)
        return half_line_fourier(profile, x, a)

    monkeypatch.setattr(reservoir, "half_line_fourier", spy)
    shifts = lamb_shift(prof, SpinSystem((0, 1), ((0, 1), (1, 0))))
    assert sorted(seen) == [-1.0, 1.0]
    im = {a: half_line_fourier(prof, np.zeros(1), a).imag for a in (-1.0, 1.0)}
    assert shifts == {0.0: 0.0, 1.0: im[-1.0] - im[1.0],
                      -1.0: im[1.0] - im[-1.0]}


@st.composite
def _gain_points(draw):
    d = draw(st.integers(1, 3))
    a = draw(st.floats(0.3, 3.0))
    x = draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d))
    return d, a, np.array(x)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_gain_points())
def test_gain_coefficient_time_route_matches_sphere_form(point):
    # absolute scale: the closed form passes through zeros in x
    d, a, x = point
    prof = BathProfile("builtin_gaussian", beta=1.0, dim=d, cutoff=2.0)
    scale = 2 * math.pi * prof.psi_hat(a) * surface_area(d)
    closed = gain_coefficient_sphere(prof, a, x)
    assert abs(gain_coefficient_position(prof, a, x) - closed) <= 1e-6 * scale
