import json
import math

import numpy as np
import pytest

from latticediff import diagrams
from latticediff.diagrams import (DiagramError, PreconditionError, _norm,
                                  check_lemma_bounds, classify,
                                  double_factorial_odd, enumerate_pairings,
                                  kernel_norms, mir_shape)


def test_pairing_counts_match_double_factorial():
    for n in range(1, 6):
        assert len(enumerate_pairings(n)) == double_factorial_odd(n)


def test_pairing_enumeration_guard():
    with pytest.raises(DiagramError):
        enumerate_pairings(9)


def test_three_shapes_at_two_pairs():
    shapes = {dc.pairs: classify(dc) for dc in enumerate_pairings(2)}
    assert shapes[((0, 1), (2, 3))] == "reducible"
    assert shapes[((0, 2), (1, 3))] == "minimally_irreducible"
    assert shapes[((0, 3), (1, 2))] == "irreducible"


def _brute_force_irreducible(dc):
    """Independent connectivity check working directly on slot coverage."""
    n = dc.size
    covered = set()
    for r, s in dc.pairs:
        covered.update(range(r, s))
    return covered == set(range(2 * n - 1))


def _brute_force_class(dc):
    """Reference rule: reducible unless the pair intervals form one block;
    minimally irreducible unless removing some proper nonempty subset of
    pairs leaves a block that still touches both end slots."""

    def block(pairs):
        ordered = sorted(pairs)
        end = ordered[0][1]
        for r, s in ordered[1:]:
            if r > end:
                return False
            end = max(end, s)
        return True

    pairs, n = dc.pairs, dc.size
    if not block(pairs):
        return "reducible"
    for mask in range(1, (1 << n) - 1):
        rest = [pairs[i] for i in range(n) if not (mask >> i) & 1]
        slots = {i for rs in rest for i in rs}
        if 0 in slots and 2 * n - 1 in slots and block(rest):
            return "irreducible"
    return "minimally_irreducible"


def test_classify_matches_subset_rule():
    for n in range(1, 7):
        for dc in enumerate_pairings(n):
            assert classify(dc) == _brute_force_class(dc), dc.pairs


def test_irreducible_counts_regression():
    counts = []
    for n in range(1, 5):
        shapes = enumerate_pairings(n)
        via_classify = [dc for dc in shapes
                        if classify(dc) != "reducible"]
        via_brute = [dc for dc in shapes if _brute_force_irreducible(dc)]
        assert via_classify == via_brute
        counts.append(len(via_classify))
    assert counts == [1, 2, 10, 74]


def test_unique_minimally_irreducible_shape_per_size():
    for n in range(1, 7):
        mirs = [dc for dc in enumerate_pairings(n)
                if classify(dc) == "minimally_irreducible"]
        assert mirs == [mir_shape(n)]


def test_kernel_norms_closed_forms():
    norms = kernel_norms(lambda t: 0.05 * np.exp(-t), 0.0)
    assert norms["k_l1"] == pytest.approx(0.05, rel=1e-9)
    assert norms["t_exp_weighted"] == pytest.approx(0.05, rel=1e-9)
    assert norms["a_shifted"] == pytest.approx(0.05, rel=1e-9)


def _step(t):
    t = np.asarray(t, dtype=float)
    return np.where(t > 0.5, 0.05 * np.exp(-t), 0.0)


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("t_power", [0, 1])
def test_norm_meets_exponential_closed_forms(rate, a, t_power):
    # int t^p e^{at} 0.05 e^{-rate t} dt = 0.05 p! / (rate - a)^(p + 1)
    val = _norm(lambda t: 0.05 * np.exp(-rate * t), a, t_power)
    exact = 0.05 * math.factorial(t_power) / (rate - a) ** (t_power + 1)
    assert val == pytest.approx(exact, rel=1e-10, abs=0)


@pytest.mark.parametrize("t_power,exact", [
    (0, 0.05 * math.exp(-0.5)),
    (1, 0.05 * 1.5 * math.exp(-0.5)),
], ids=["l1", "t-weighted"])
def test_norm_meets_step_kernel_closed_forms(t_power, exact):
    assert _norm(_step, 0.0, t_power) == pytest.approx(exact, rel=1e-10, abs=0)


def test_norm_follows_a_power_tail():
    # 0.01 (1 + t)^-1.5 is 0.01 s^1.5 in s = 1 / (1 + t): the panels next
    # to s = 0 carry the tail that a u / (1 - u) map cannot refine
    val = _norm(lambda t: 0.01 * (1.0 + t) ** -1.5)
    assert val == pytest.approx(0.02, rel=1e-10, abs=0)


@pytest.mark.parametrize("t_power", [0, 1])
def test_norm_matches_quad_on_a_kinked_kernel(t_power):
    from scipy.integrate import quad

    def k(t):
        return 0.05 * np.exp(-t) * np.abs(np.cos(t))

    ref, _ = quad(lambda t: t ** t_power * k(t), 0.0, math.inf, limit=400)
    assert _norm(k, 0.0, t_power) == pytest.approx(ref, rel=1e-7, abs=0)


@pytest.mark.parametrize("k,a,t_power", [
    (lambda t: 0.05, 0.0, 0),
    (lambda t: t, 0.0, 0),
    (lambda t: 0.01 / (1.0 + t), 0.0, 0),
    (lambda t: 0.01 / np.sqrt(1.0 + t), 0.0, 0),
    (lambda t: 0.05 * np.exp(-t), 1.2, 1),
], ids=["constant", "linear", "inverse", "inverse-sqrt", "growing-weight"])
def test_norm_of_divergent_integrals_is_inf(k, a, t_power):
    assert _norm(k, a, t_power) == math.inf


def test_lemma_bound_preconditions_enforced():
    with pytest.raises(PreconditionError):
        check_lemma_bounds(lambda t: 2.0 * np.exp(-t), 0.0, n_max=2,
                           mc_samples=1000)


def test_lemma_bounds_hold_for_reference_kernel():
    report = check_lemma_bounds(lambda t: 0.05 * np.exp(-t), 0.0, n_max=3,
                                mc_samples=120000, seed=3)
    assert report.passed
    assert report.minimally_irreducible.bound == pytest.approx(0.05 / 0.95,
                                                               rel=1e-9)
    # size-1 contribution appears in both families exactly
    assert report.minimally_irreducible.estimate >= 0.05
    assert report.irreducible.estimate >= 0.05


def test_lemma_bounds_with_long_restricted_kernel():
    tau = 0.5

    def k_long(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > tau, 0.05 * np.exp(-t), 0.0)

    report = check_lemma_bounds(k_long, 0.0, n_max=2, mc_samples=40000, seed=9)
    assert report.passed


def test_lemma_bounds_nonzero_laplace_variable():
    report = check_lemma_bounds(lambda t: 0.05 * np.exp(-2.0 * t), 0.5,
                                n_max=3, mc_samples=60000, seed=4)
    assert report.passed
    assert report.norms["exp_weighted"] < report.norms["exp_shift_weighted"]


def test_each_irreducible_shape_is_sampled_once_into_one_table(monkeypatch):
    calls = []
    sample = diagrams._shape_laplace_mc

    def spy(k, a, shape, budget, t_max, seed):
        calls.append((shape, budget, sample(k, a, shape, budget, t_max, seed)))
        return calls[-1][2]

    monkeypatch.setattr(diagrams, "_shape_laplace_mc", spy)
    n_max, mc_samples = 3, 60000
    report = check_lemma_bounds(lambda t: 0.05 * np.exp(-t), 0.0, n_max=n_max,
                                mc_samples=mc_samples, seed=2)
    for n in range(1, n_max + 1):
        shapes = [dc for dc in enumerate_pairings(n)
                  if classify(dc) != "reducible"]
        budget = max(2048, mc_samples // (n_max * len(shapes)))
        assert [(shape, used) for shape, used, _ in calls if shape.size == n] \
            == [(dc, mc_samples // n_max if dc == mir_shape(n) else budget)
                for dc in shapes]
    # each estimate sums its shapes' entries of that one table, bitwise
    for check, keep in ((report.minimally_irreducible,
                         lambda dc: dc == mir_shape(dc.size)),
                        (report.irreducible, lambda dc: True),
                        (report.irreducible_two_plus, lambda dc: dc.size >= 2)):
        rows = [result for shape, _, result in calls if keep(shape)]
        assert check.estimate == sum((est for est, _, _ in rows), 0.0)
        assert check.sigma == math.sqrt(sum(sig ** 2 for _, sig, _ in rows))
    assert report.samples == sum(used for _, _, (_, _, used) in calls)


@pytest.mark.parametrize("n_max", [1, 3])
def test_report_dict_is_its_fields_plus_passed(n_max):
    report = check_lemma_bounds(lambda t: 0.05 * np.exp(-t), 0.0, n_max=n_max,
                                mc_samples=6000, seed=1)

    def check(c):
        return {"estimate": c.estimate, "sigma": c.sigma, "bound": c.bound,
                "passed": c.passed}

    by_hand = {
        "norms": report.norms,
        "minimally_irreducible": check(report.minimally_irreducible),
        "irreducible": check(report.irreducible),
        "irreducible_two_plus": check(report.irreducible_two_plus),
        "passed": report.passed,
        "samples": report.samples,
    }
    assert (json.dumps(report.to_dict(), indent=2, sort_keys=True)
            == json.dumps(by_hand, indent=2, sort_keys=True))
