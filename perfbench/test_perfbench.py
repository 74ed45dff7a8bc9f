"""Tests of the benchmark's own machinery (not of arago)."""

import sys

import numpy as np
import pytest

import arago.cli
import arago.interaction
import arago.poisson
from run import end_to_end
from spans import LAYERS, Span, Tracer, covered, layer_metrics, self_times
from workloads import (FARFIELD_ANCHORS, FARFIELD_POINTS, SPHERE_VELOCITIES,
                       WORKLOADS, make_inputs)


def _span(sid, start, end, parent=None, layer="poisson", name="f"):
    return Span(sid, name, layer, start, end, parent, 0)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)], 0.0, 10.0) == 5.0
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(4.0, 6.0), (4.5, 5.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [_span(0, 0.0, 10.0),
             _span(1, 1.0, 4.0, parent=0, layer="numerics"),
             _span(2, 2.0, 3.0, parent=1, layer="interaction"),
             _span(3, 6.0, 7.0, parent=0, layer="numerics")]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    metrics = layer_metrics(spans, {})
    assert metrics["poisson.self_s"] == 6.0
    assert metrics["numerics.self_s"] == 3.0
    assert metrics["interaction.self_s"] == 1.0
    assert metrics["numerics.f.calls"] == 2
    assert metrics["numerics.f.s"] == 4.0
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) == 10.0


def _bindings():
    """Every attribute of every arago module and of EikonalPhase."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "arago" or name.startswith("arago."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    cls = arago.interaction.EikonalPhase
    out.update({("EikonalPhase", k): v for k, v in vars(cls).items()})
    return out


def test_install_patches_every_binding_and_uninstall_restores_all():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert arago.poisson.integrate_adaptive is not \
            before[("arago.poisson", "integrate_adaptive")]
        assert arago.poisson._capture_eta is not \
            before[("arago.poisson", "_capture_eta")]
        assert arago.cli.capture_eta is arago.interaction.capture_eta
        assert arago.poisson._capture_eta is arago.interaction.capture_eta
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_call_records_spans_and_leaves_results_unchanged():
    params = arago.poisson.DimensionlessParams(k=0.2, ell=2.0, beta=0.0)
    u = np.linspace(0.0, 3.0, 8)
    plain = arago.poisson.point_source_pattern(u, params).w
    tracer = Tracer()
    tracer.install()
    try:
        traced = arago.poisson.point_source_pattern(u, params).w
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert np.array_equal(plain, traced)
    metrics = layer_metrics(spans, counts)
    assert metrics["poisson.point_source_pattern.calls"] == 1
    assert metrics["poisson.point_source_pattern.points"] == 8
    assert metrics["numerics.integrate_adaptive.calls"] == 1
    assert metrics["numerics.integrate_adaptive.converged_frac"] == 1.0
    assert metrics["numerics.bessel_j0.points"] > 0
    # the integrand is poisson's own closure, so it runs in a poisson span
    assert any(sp.layer == "poisson" and sp.parent is not None
               and spans[sp.parent].name == "integrate_adaptive"
               for sp in spans)


def test_a_missing_name_is_skipped_and_counts_zero(monkeypatch):
    monkeypatch.delattr(arago.interaction, "solve_ivp")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert not hasattr(arago.interaction, "solve_ivp")
    metrics = layer_metrics(*tracer.take())
    assert metrics.get("interaction.capture_eta.ode_solves", 0) == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_inputs(workload):
    assert make_inputs(workload, 5) == make_inputs(workload, 5)


def test_seeded_workloads_vary_and_keep_their_shape():
    spheres = {make_inputs("sphere-sweep", s).sweep_values for s in range(8)}
    assert len(spheres) > 1
    for values in spheres:
        idx = [SPHERE_VELOCITIES.index(v) for v in values]
        assert [i // 5 for i in idx[:3]] == [0, 1, 2] and idx[3] >= 15
    masses = make_inputs("farfield-sweep", 1).sweep_values
    assert masses != make_inputs("farfield-sweep", 2).sweep_values
    assert len(masses) == FARFIELD_POINTS
    assert set(FARFIELD_ANCHORS) <= set(masses)
    assert all(1e3 <= float(m) <= 1e6 for m in masses)
    assert make_inputs("disc-velocity", 1) == make_inputs("disc-velocity", 2)


def test_end_to_end_times_are_in_units_of_the_calibration_around_them():
    res = {"wall_s": [4.0, 6.0, 5.0], "cal_s": [0.02, 0.03, 0.025],
           "scenario_s": [], "scenario_cal_s": [], "peak_rss_mb": 90.0,
           "failed": 0, "attempted": 6}
    metrics = end_to_end([1.0, 3.0, 2.0], res, scenarios=2)
    assert metrics["setup_s"] == (2.0, 3)
    assert metrics["wall_s"] == (5.0, 3)
    assert metrics["cal_s"] == (0.025, 3)
    assert metrics["wall_cal"] == (pytest.approx(200.0), 3)
    assert metrics["scenario_cal.p50"] == (pytest.approx(100.0), 3)
    res.update(scenario_s=[1.0, 3.0, 3.0, 3.0],
               scenario_cal_s=[0.01, 0.01, 0.02, 0.03])
    metrics = end_to_end([1.0], res, scenarios=2)
    assert metrics["scenario_s.p50"] == (3.0, 4)
    assert metrics["scenario_cal.p50"] == (pytest.approx(125.0), 4)
