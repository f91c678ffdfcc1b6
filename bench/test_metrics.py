"""Metric derivations on synthetic inputs: python3 -m pytest bench -q"""

import math
from types import SimpleNamespace

import pytest

from metrics import (
    digits, failed_frac, percentile, pool_efficiency, quartile_spread, self_time, worst,
)
from tracing import Tracer, layer_metrics


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def spend(self, seconds):
        self.t += seconds


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 0.90) == 90.0  # nearest rank 90, ten beyond
    assert percentile(reversed(values), 0.50) == 50.0
    with pytest.raises(ValueError):
        percentile(values[:99], 0.90)  # rank 90 of 99 leaves nine beyond
    assert percentile(list(range(200)), 0.95) == 189.0


def test_self_time_subtracts_children():
    assert self_time(10.0, [2.0, 3.5]) == pytest.approx(4.5)
    assert self_time(1.0, []) == 1.0
    with pytest.raises(ValueError):
        self_time(1.0, [0.7, 0.7])


def test_pool_efficiency():
    assert pool_efficiency([1.0] * 4, 2, 2.0) == 1.0
    assert pool_efficiency([1.0, 1.0], 2, 2.0) == 0.5
    with pytest.raises(ValueError):
        pool_efficiency([1.0], 0, 1.0)
    with pytest.raises(ValueError):
        pool_efficiency([1.0], 2, 0.0)


def test_failed_frac():
    assert failed_frac(0, 5) == 0.0
    assert failed_frac(1, 4) == 0.25
    for bad in ((0, 0), (5, 4), (-1, 3)):
        with pytest.raises(ValueError):
            failed_frac(*bad)


def test_worst_and_digits():
    assert worst([1e-9, 3e-7, 2e-8]) == 3e-7
    assert math.isnan(worst([1e-9, math.nan, 2e-8]))
    assert digits(1e-7) == pytest.approx(7.0)
    assert digits(0.0) == 16.0
    assert digits(math.nan) == 0.0
    assert digits(math.inf) == 0.0


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def _traced_run():
    """cli.simulate -> integrate (13 field calls) and cli.reduce -> compare,
    a second integrate and k_drift, on a clock that only moves when told."""
    clock = FakeClock()
    tracer = Tracer(clock)
    field = tracer.counted("field", lambda t, y: clock.spend(1.0))

    def integrate(n_evals, own_s, steps):
        clock.spend(own_s)
        for _ in range(n_evals):
            field(0.0, None)
        return SimpleNamespace(steps_taken=steps, steps_rejected=1)

    def steps(args, kwargs, result):
        return {"steps_taken": result.steps_taken, "steps_rejected": result.steps_rejected}

    traced_integrate = tracer.span("integrate", integrate, steps)
    compare = tracer.span("compare_full_vs_reduced", lambda: clock.spend(5.0))
    drift = tracer.span("k_drift", lambda: clock.spend(1.0))

    def simulate(argv):
        clock.spend(3.0)
        traced_integrate(13, 4.0, 1)  # 1 + 6 * 2 evaluations: one accepted, one rejected

    def reduce(argv):
        clock.spend(2.0)
        compare()
        traced_integrate(7, 0.5, 0)  # repeated work, not wrapped by reduce
        drift()

    tracer.span("cli.simulate", simulate)(["simulate"])
    tracer.span("cli.reduce", reduce)(["reduce"])
    return tracer, clock


def test_layer_metrics_self_time_and_counts():
    tracer, clock = _traced_run()
    m = layer_metrics(tracer.spans, clock.t)
    assert m["model.field_calls"] == 20
    assert m["model.field_us"] == pytest.approx(1e6)
    assert m["model.jacobian_calls"] == 0 and m["model.jacobian_us"] == 0.0
    assert m["model.share"] == pytest.approx(20.0 / clock.t)
    assert m["integrator.steps_accepted"] == 1
    assert m["integrator.steps_rejected"] == 2
    assert m["integrator.accept_ratio"] == pytest.approx(1 / 3)
    assert m["integrator.evals_per_step"] == pytest.approx(20 / 3)
    # Integrate self time is its own work only: (4 + 0.5) s over 3 attempted steps.
    assert m["integrator.self_us_per_step"] == pytest.approx(1.5e6)
    assert m["integrator.tangent_self_us_per_step"] == 0.0
    assert m["cli.overhead_s.simulate"] == pytest.approx(3.0)
    # The second integrate is not what reduce wraps, so it stays in its overhead.
    assert m["cli.overhead_s.reduce"] == pytest.approx(2.0 + 7.5)
    assert m["reduction.compare_s"] == pytest.approx(5.0)
    assert m["reduction.k_drift_s"] == pytest.approx(1.0)
    assert m["cli.overhead_s.scan"] == 0.0


def test_tangent_steps_follow_from_evaluations():
    clock = FakeClock()
    tracer = Tracer(clock)
    field = tracer.counted("field", lambda t, y: clock.spend(0.1))

    def tangents():
        clock.spend(1.0)
        for _ in range(1 + 6 * 10 + 4):  # start, 10 steps, 4 renormalisations
            field(0.0, None)
        return None, SimpleNamespace(times=[1.0, 2.0, 3.0, 4.0]), None

    def renorms(args, kwargs, result):
        return {"renorms": len(result[1].times)}

    tracer.span("integrate_with_tangents", tangents, renorms)()
    m = layer_metrics(tracer.spans, clock.t)
    assert m["integrator.renorms"] == 4
    assert m["integrator.tangent_self_us_per_step"] == pytest.approx(1e5)
    assert m["integrator.steps_accepted"] == 0  # no trajectory, no accept/reject split
