import math

import numpy as np
import pytest

from latticediff import generator, kmc, presets, spectral
from perfbench import spans
from perfbench.spans import Span, Tracer, layer_metrics, self_times


def _synthetic():
    # rep [0, 10] -> spectral [1, 6] -> generator.assemble_fiber [2, 4]
    #             -> generator [7, 8]        -> bench [8.5, 9]
    return [
        Span("rep", "rep", 0.0, 10.0),
        Span("spectral.perron_curve", "spectral", 1.0, 6.0, parent=0),
        Span("generator.assemble_fiber", "generator", 2.0, 4.0, parent=1,
             work=100.0),
        Span("generator.build_rate_table", "generator", 7.0, 8.0, parent=0),
        Span("bench.check", "bench", 8.5, 9.0, parent=0),
    ]


def test_self_time_subtracts_direct_children():
    assert self_times(_synthetic()) == [3.5, 3.0, 2.0, 1.0, 0.5]


def test_layer_metrics_on_synthetic_spans():
    m = layer_metrics(_synthetic(), 0)
    assert m["spectral.self_s"] == 3.0
    assert m["spectral.busy_s"] == 5.0
    assert m["generator.self_s"] == 3.0
    assert m["generator.busy_s"] == 3.0
    assert m["generator.calls"] == 2
    assert m["generator.bytes"] == 100.0
    assert m["spectral.fibers"] == 1
    assert m["bench.glue_s"] == 0.5
    assert m["trace.wall_s"] == 10.0
    assert m["trace.attributed_frac"] == pytest.approx(0.65)
    assert m["sphere.busy_s"] == 0.0 and m["kmc.ns_per_event"] == 0.0


def test_busy_time_counts_nested_same_layer_once():
    spans_ = [
        Span("rep", "rep", 0.0, 10.0),
        Span("generator.a", "generator", 0.0, 8.0, parent=0),
        Span("model.b", "model", 1.0, 5.0, parent=1),
        Span("generator.c", "generator", 2.0, 3.0, parent=2),
    ]
    m = layer_metrics(spans_, 0)
    assert m["generator.busy_s"] == 8.0
    assert m["generator.self_s"] == 5.0
    assert m["model.self_s"] == 3.0


def test_tracer_parents_and_same_layer_reentry():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    def outer():
        return wrapped_inner() + wrapped_same()

    wrapped_inner = tracer.wrap(inner, "generator")
    wrapped_same = tracer.wrap(inner, "spectral")
    wrapped_outer = tracer.wrap(outer, "spectral")
    with tracer.span("rep", "rep"):
        assert wrapped_outer() == 14
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("rep", None), ("spectral.outer", 0),
                     ("generator.inner", 1)]
    assert all(math.isfinite(s.end) for s in tracer.spans)


@pytest.fixture(scope="module")
def small():
    cfg = presets.reference_1d(n_k=16)
    return cfg, generator.build_rate_table(cfg)


def _namespaces():
    return {name: dict(vars(mod))
            for name, mod in spans.layer_modules().items()}


def test_wrappers_return_identical_values_and_restore_modules(small):
    cfg, table = small
    p_list = [np.array([0.0]), np.array([0.1])]
    plain_block = spectral.assemble_fiber(cfg, table, p_list[1])
    plain_curve = spectral.perron_curve(cfg, table, p_list)
    before = _namespaces()
    tracer = Tracer()
    with tracer.installed():
        assert spectral.assemble_fiber is not before["spectral"]["assemble_fiber"]
        with tracer.span("rep", "rep"):
            block = spectral.assemble_fiber(cfg, table, p_list[1])
            curve = spectral.perron_curve(cfg, table, p_list)
    after = _namespaces()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys()
        assert all(after[name][k] is v for k, v in before[name].items())
    assert np.array_equal(block.matrix, plain_block.matrix)
    assert [pt.eigenvalue for pt in curve] == [pt.eigenvalue for pt in plain_curve]
    m = layer_metrics(tracer.spans, 0)
    assert m["spectral.fibers"] == len(p_list)
    assert m["generator.calls"] == 1 + len(p_list)
    blocks = [spectral.assemble_fiber(cfg, table, p) for p in [p_list[1], *p_list]]
    assert m["generator.bytes"] == sum(
        a.nbytes for b in blocks
        for a in (b.matrix, b.escape, b.kinetic, b.gain, b.loss))
    assert m["sphere.calls"] == 0


def test_sphere_helpers_are_not_boundaries():
    names = {f"{layer}.{func.__name__}"
             for _, _, func, layer in spans.boundary_targets()}
    assert "sphere.plane_wave_average" in names
    assert not names & spans.UNTRACED


def test_expected_events_match_escape_rates_on_reference_1d():
    cfg = presets.reference_1d()
    table = generator.build_rate_table(cfg)
    rates = generator.escape_rates(table)
    gibbs = cfg.spin.gibbs_weights(cfg.beta)
    want = 1000 * 2.5 * float(gibbs @ rates)
    assert spans.expected_events(table, 1000, 2.5) == pytest.approx(want, rel=1e-12)

    tracer = Tracer()
    with tracer.installed(), tracer.span("rep", "rep"):
        stats = kmc.run_ensemble(cfg, 256, 2.5, table=table)
    m = layer_metrics(tracer.spans, 0)
    assert stats.n_traj == 256
    assert m["kmc.expected_events"] == pytest.approx(256 * 2.5 * float(gibbs @ rates))
    assert m["kmc.ns_per_event"] > 0
