import pytest

import amprob
from amprob import events, slits
from tracer import Tracer, layer_metrics, self_times


def span(name, start, end, parent, folded=0.0, size=0, bucket=0):
    return [name, start, end, parent, 0, folded, size, bucket]


def test_self_time_subtracts_child_cover_once_and_folded_time():
    spans = [
        span(0, 0.0, 10.0, -1),
        span(1, 1.0, 4.0, 0, folded=0.5),  # children 1 and 2 overlap
        span(2, 3.0, 6.0, 0),
        span(3, 1.5, 2.0, 1),
        span(4, 5.0, 7.0, 2),              # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 0.5, 2.0])


def test_layer_metrics_from_a_synthetic_trace():
    names = ["op.nslit", "cli.run_experiment", "slits.intensity_profile",
             "slits.refined_maxima"]
    spans = [
        span(0, 0.0, 1.0, -1),
        span(1, 0.1, 0.9, 0),
        span(2, 0.2, 0.6, 1, folded=0.3, size=4000, bucket=2),
        span(3, 0.6, 0.7, 1),
        span(2, 2.0, 2.5, -1, size=10000, bucket=40),
    ]
    counts = {"cli.bytes_out": 1000.0, "slits.cells": 14000.0,
              "slits.arrival_probability.calls": 2000.0}
    m = layer_metrics(names, spans, counts, 1.25)
    assert m["cli.run_experiment.calls"] == 1
    assert m["cli.run_experiment.self_s"] == pytest.approx(0.3)
    assert m["cli.self_ns_per_byte_out"] == pytest.approx(0.3e9 / 1000)
    assert m["slits.ns_per_cell.s2"] == pytest.approx(0.4e9 / 4000)
    assert m["slits.ns_per_cell.s64"] == pytest.approx(0.5e9 / 10000)
    assert m["slits.ns_per_cell.s8"] == 0.0
    assert m["slits.intensity_profile.busy_s"] == pytest.approx(0.9)
    assert m["slits.refined_maxima.busy_s"] == pytest.approx(0.1)
    assert m["slits.arrival_probability.calls"] == 2000
    assert m["slits.cells"] == 14000
    assert m["events.probabilities.calls"] == 0
    assert m["trace.overhead_ratio"] == 1.25


def test_install_counts_calls_where_callers_look_them_up():
    original = slits.intensity_profile
    original_probs = events.SampleSpace.probabilities
    geom = slits.SlitGeometry((-1.0, 0.0), 0.0, (-5e-6, 5e-6), 1.0, 5e-7)
    n = 10
    space = events.classical_space([1.0] * n, [f"o{i}" for i in range(n)])
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root(0, "test"):
            slits.intensity_profile(geom, -0.01, 0.01, 50)
            slits.sorkin_invariant(
                slits.SlitGeometry((-1.0, 0.0), 0.0, (-1e-5, 0.0, 1e-5),
                                   1.0, 5e-7), 0.0, (0, 1, 2))
            space.probabilities()
    finally:
        tracer.uninstall()
    assert slits.intensity_profile is original
    assert amprob.intensity_profile is original
    assert events.SampleSpace.probabilities is original_probs
    m = layer_metrics(tracer.names, tracer.spans, tracer.counts, 1.0)
    # 50 profile points plus the seven subset sums of one Sorkin point
    assert m["slits.arrival_probability.calls"] == 50 + 7
    assert m["slits.cells"] == 50 * 2 + 12
    assert m["slits.sorkin_invariant.calls"] == 1
    assert 0 < m["slits.sorkin_invariant.self_s"] \
        < m["slits.sorkin_invariant.busy_s"]
    # probabilities() recomputes the total for every outcome: n totals of
    # n Born terms each, plus one Born term per outcome
    assert m["events.total_probability.calls"] == n
    assert m["amplitude.born_probability.calls"] == n * n + n
    assert m["events.us_per_outcome.n10"] > 0
