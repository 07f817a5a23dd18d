import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticediff.model import (DispersionSpec, GridSpec, ModelConfig,
                               SpinSystem, ValidationError, dispersion_eval,
                               dispersion_grad, ensure_valid, validate_model)
from latticediff import presets
from latticediff.presets import reference_1d
from latticediff.reservoir import BathProfile

NN = DispersionSpec("nearest_neighbor")


def test_dispersion_reference_values():
    assert dispersion_eval(NN, [0.0]) == 0.0
    assert dispersion_eval(NN, [np.pi]) == pytest.approx(4.0, abs=1e-14)
    assert dispersion_eval(NN, [np.pi / 2, np.pi / 2]) == pytest.approx(4.0, abs=1e-12)


def test_gradient_reference_values():
    assert dispersion_grad(NN, [0.0])[0] == 0.0
    assert dispersion_grad(NN, [np.pi / 2])[0] == pytest.approx(2.0, abs=1e-14)


def test_gradient_matches_finite_difference():
    spec = DispersionSpec("cosine_series", coefficients=((1.3, 0.4), (0.7, 0.0, 0.2)))
    rng = np.random.default_rng(11)
    h = 1e-4
    for _ in range(20):
        k = rng.uniform(-np.pi, np.pi, 2)
        grad = dispersion_grad(spec, k)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (dispersion_eval(spec, k + e) - dispersion_eval(spec, k - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=3),
       st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3))
def test_dispersion_even_and_periodic(k, coeffs):
    spec = DispersionSpec("cosine_series", coefficients=(tuple(coeffs),) * len(k))
    k = np.asarray(k)
    assert dispersion_eval(spec, k) == pytest.approx(dispersion_eval(spec, -k),
                                                     abs=1e-12)
    shift = 2 * np.pi * np.ones_like(k)
    assert dispersion_eval(spec, k + shift) == pytest.approx(
        dispersion_eval(spec, k), rel=1e-12, abs=1e-10)


def test_grid_point_count_and_inversion_closure(ref1d):
    pts = ref1d.grid_points()
    n = ref1d.grid.points_per_axis
    assert pts.shape == (n ** ref1d.dim, ref1d.dim)
    wrapped = (-pts + np.pi) % (2 * np.pi) - np.pi
    original = np.sort(pts.ravel())
    assert np.allclose(np.sort(wrapped.ravel()), original, atol=1e-12)


def test_inversion_symmetry_exact_on_grid(ref1d):
    pts = ref1d.grid_points()
    eps = dispersion_eval(ref1d.dispersion, pts)
    eps_neg = dispersion_eval(ref1d.dispersion, -pts)
    assert np.max(np.abs(eps - eps_neg)) == 0.0


def _full_grid_oracle(cfg):
    """Inversion defect and per-axis max |grad eps| on all N^d grid points."""
    k = cfg.grid_points()
    sym = np.max(np.abs(dispersion_eval(cfg.dispersion, k)
                        - dispersion_eval(cfg.dispersion, -k)))
    return float(sym), np.abs(dispersion_grad(cfg.dispersion, k)).max(axis=0)


@st.composite
def _separable_models(draw):
    """reference_1d's levels and bath in d = 1-3 under random cosine-series
    rows of 1-3 harmonics, an all-zero (flat) row allowed."""
    dim = draw(st.integers(1, 3))
    harmonics = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)
    rows = tuple(tuple(draw(st.one_of(harmonics, st.just([0.0, 0.0]))))
                 for _ in range(dim))
    base = reference_1d()
    return dataclasses.replace(
        base, dim=dim, bath=dataclasses.replace(base.bath, dim=dim),
        dispersion=DispersionSpec("cosine_series", coefficients=rows),
        grid=GridSpec(points_per_axis=draw(st.sampled_from([2, 4, 6, 8, 16]))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_separable_models())
def test_axis_points_stand_in_for_the_grid(cfg):
    # eps is a sum of per-axis terms that vanish with their slopes at 0, so
    # the d N axis points read the N^d grid's values bitwise
    from latticediff.spectral import _max_velocity

    sym, speed = _full_grid_oracle(cfg)
    axes = np.abs(dispersion_grad(cfg.dispersion, cfg.axis_points()))
    assert axes.max(axis=0).tobytes() == speed.tobytes()
    flat = [i for i in range(cfg.dim) if speed[i] <= 1e-12]
    checks = {c["name"]: c for c in validate_model(cfg).to_dict()["checks"]}
    assert checks["dispersion_inversion_symmetry"] == {
        "name": "dispersion_inversion_symmetry", "passed": sym == 0.0,
        "severity": "error", "detail": f"max |eps(k) - eps(-k)| = {sym:.3e}"}
    assert checks["dispersion_not_constant"] == {
        "name": "dispersion_not_constant", "passed": not flat,
        "severity": "error",
        "detail": f"flat axes: {flat}" if flat else "all axes dispersive"}
    assert _max_velocity(cfg) == float(speed.max())


def test_grid_spec_rejects_odd_count():
    with pytest.raises(ValidationError):
        GridSpec(points_per_axis=127)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_model_config_refuses_rng_seed_outside_uint64(ref1d, seed):
    # Philox takes a 64-bit key: nothing is reduced modulo 2**64
    with pytest.raises(ValidationError, match="rng_seed"):
        dataclasses.replace(ref1d, rng_seed=seed)
    assert dataclasses.replace(ref1d, rng_seed=2**64 - 1).rng_seed == 2**64 - 1


def _model(levels, couplings, dim=1):
    return ModelConfig(
        dim=dim,
        dispersion=NN,
        spin=SpinSystem(levels=levels, couplings=couplings),
        beta=1.0,
        bath=BathProfile("builtin_gaussian", beta=1.0, dim=dim, cutoff=2.0),
        grid=GridSpec(points_per_axis=16, sphere_nodes=2),
    )


def test_validate_reference_passes(ref1d):
    report = validate_model(ref1d)
    assert report.passed
    assert [c.name for c in report.warnings] == ["dimension_for_decay_laws"]


def test_validate_two_level_connected():
    report = validate_model(_model((0.0, 1.0), ((0, 1), (1, 0))))
    assert report.passed


def test_validate_identity_coupling_fails_connectivity():
    report = validate_model(_model((0.0, 1.0), ((1, 0), (0, 1))))
    assert not report.passed
    assert any(c.name == "fgr_connectivity" for c in report.failures)


def test_validate_isolated_level_fails_connectivity():
    couplings = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    report = validate_model(_model((0.0, 1.0, 2.5), couplings))
    failed = {c.name: c for c in report.failures}
    assert "fgr_connectivity" in failed
    assert "2" in failed["fgr_connectivity"].detail


def test_validate_degenerate_gaps_fail():
    # gaps 1 and 1 between consecutive levels collide
    report = validate_model(_model((0.0, 1.0, 2.0), ((0, 1, 0), (1, 0, 1), (0, 1, 0))))
    assert any(c.name == "bohr_frequencies_distinct" for c in report.failures)


def test_validate_non_hermitian_coupling_fails():
    report = validate_model(_model((0.0, 1.0), ((0, 1), (0.5, 0))))
    assert any(c.name == "couplings_hermitian" for c in report.failures)


def test_validate_oversized_coupling_fails():
    report = validate_model(_model((0.0, 1.0), ((0, 1.5), (1.5, 0))))
    assert any(c.name == "couplings_norm_bounded" for c in report.failures)


def test_validate_is_deterministic(ref1d):
    assert validate_model(ref1d) == validate_model(ref1d)


def test_ensure_valid_raises_with_names():
    with pytest.raises(ValidationError, match="fgr_connectivity"):
        ensure_valid(_model((0.0, 1.0), ((1, 0), (0, 1))))


def test_config_hash_stable_and_sensitive(ref1d):
    assert ref1d.config_hash() == reference_1d().config_hash()
    assert ref1d.config_hash() != reference_1d(seed=1).config_hash()


def test_json_roundtrip(tmp_path, ref1d):
    from latticediff.model import model_from_json

    path = tmp_path / "model.json"
    path.write_text(json.dumps(ref1d.to_dict()))
    loaded = model_from_json(path)
    assert loaded.config_hash() == ref1d.config_hash()


def test_flat_coefficient_list_is_broadcast_to_every_axis():
    # one flat list is one row of harmonics for all axes, as the schema
    # says, not one single-harmonic row per entry
    from latticediff.model import model_from_dict

    data = presets.reference_2d().to_dict()
    data["dispersion"] = {"kind": "cosine_series", "coefficients": [1.0, 0.5]}
    rows = model_from_dict(data).dispersion.per_axis(2)
    assert rows.tolist() == [[1.0, 0.5], [1.0, 0.5]]


@pytest.mark.parametrize("name", ["reference_1d", "reference_2d"])
def test_reference_configs_match_presets(name):
    # the CLI and the benchmark read these files; the tests build the presets
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    preset = getattr(presets, name)().to_dict()
    assert json.loads(path.read_text()) == json.loads(json.dumps(preset))
