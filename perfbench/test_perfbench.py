"""Tests of the benchmark's own oracles, span analysis and generators.

    python3 -m pytest perfbench
"""

import math

import pytest

from oracles import lambda_mpmath, lattice_count, point_sum_float
from run import quantile, scaled_op
from speed import REF_PROBE_S, Prober, slowness
from tracing import layer_metrics, self_times
from workloads import WORKLOADS, query_stream


@pytest.mark.parametrize("l", range(2, 31))
def test_float_character_sum_gives_mu_at_m0(l):
    mu = point_sum_float(l, 1, 0)
    assert abs(mu.real - (l - 1) / (2 * l)) < 1e-12
    assert abs(mu.imag) < 1e-12


def test_lattice_count_is_kappa():
    for l in range(2, 13):
        for m in range(0, 41):
            assert lattice_count(l, m) == 2 * (m // l) + 1


@pytest.mark.parametrize("a", [0.6, 1.0, 2.3])
def test_mpmath_lambda0_with_hard_cutoff(a):
    assert lambda_mpmath(a, 0, "hard") == pytest.approx(math.pi * (1 + 2 * a), rel=1e-12)


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["measure.projector_eval", 1.0, 4.0, 0, None],
        ["measure.projector_eval", 2.0, 3.0, 1, None],
        ["leaf", 5.0, 9.0, 0, None],
        ["leaf", 11.0, 12.0, -1, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    metrics = layer_metrics(spans, ["measure.projector_eval.calls", "measure.projector_eval.self_s"])
    assert metrics["measure.projector_eval.calls"] == 2
    assert metrics["measure.projector_eval.self_s"] == 3.0


def test_point_sum_cold_warm_and_order_exponent():
    spans, t = [], 0.0
    for n in (4, 8, 16, 4):
        dur = n**3 * 1e-6
        spans.append(["exact.lefschetz_point_sum", t, t + dur, -1, [n, 1, 0]])
        t += dur
    metrics = layer_metrics(spans, [f"exact.point_sum.{k}" for k in ("calls", "distinct", "warm_s", "order_exponent")])
    assert metrics["exact.point_sum.calls"] == 4
    assert metrics["exact.point_sum.distinct"] == 3
    assert metrics["exact.point_sum.warm_s"] == pytest.approx(64e-6)
    assert metrics["exact.point_sum.order_exponent"] == pytest.approx(3.0)


def test_slowness_uses_the_probes_near_an_interval():
    # the machine runs at reference speed for 5 s, then at half of it
    samples = [[0.05 * i, REF_PROBE_S * (1 if i < 100 else 2)] for i in range(200)]
    assert slowness(samples, 1.0, 1.5) == pytest.approx(1.0)
    assert slowness(samples, 8.0, 8.5) == pytest.approx(2.0)
    # far from every probe, the nearest ones stand in
    assert slowness(samples, 50.0, 51.0) == pytest.approx(2.0)
    op = {"net": 3.0, "start": 8.0, "end": 8.5}
    assert scaled_op(samples, op) == pytest.approx(1.5)


def test_prober_burst_times_the_probe():
    prober = Prober()
    median = prober.burst(5)
    assert len(prober.samples) == 5
    assert 0 < median <= prober.spent


def test_harrell_davis_quantile():
    assert quantile([3.0], 0.9) == pytest.approx(3.0)
    assert quantile([2.0] * 7, 0.9) == pytest.approx(2.0)
    assert quantile(list(range(11)), 0.5) == pytest.approx(5.0)  # symmetric weights
    xs = [float(x) for x in range(100)]
    assert 88.0 < quantile(xs, 0.9) < 91.0
    assert quantile(xs, 0.5) < quantile(xs, 0.9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    make = WORKLOADS[name]
    assert make(7, tmp_path) == make(7, tmp_path)


def test_query_stream_make_up(tmp_path):
    ops = query_stream(3, tmp_path)
    assert ops != query_stream(4, tmp_path)
    kinds = [op["kind"] for op in ops]
    assert len(ops) == 120
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "verify": 48,
        "kawasaki": 24,
        "measure": 24,
        "heat": 24,
    }
    measures = [op for op in ops if op["kind"] == "measure"]
    assert sum(op["cutoff"] == "hard" for op in measures) == 1
    assert [op["expect_rc"] for op in measures].count(4) == 1
    points = [p for op in ops if op["kind"] == "kawasaki" for p in op["spec"]["points"]]
    assert all(p["a"] != 1 and math.gcd(p["a"], p["N"]) == 1 for p in points)
    assert max(p["N"] for p in points) <= 48


def test_query_stream_costs_do_not_depend_on_the_seed(tmp_path):
    def cost_setting(ops):
        def key(op):
            if op["kind"] == "verify":
                return ("verify", op["l"], op["m"] % op["l"])
            if op["kind"] == "kawasaki":
                return ("kawasaki",) + tuple((p["N"], p["a"], p["b"]) for p in op["spec"]["points"])
            if op["kind"] == "heat":
                return ("heat", op["l"], op["m"])
            return ("measure", op["m"] if op["expect_rc"] == 0 else -1, op["cutoff"])

        return sorted(map(key, ops))

    assert cost_setting(query_stream(3, tmp_path)) == cost_setting(query_stream(4, tmp_path))
