"""Tests for the benchmark's own helpers: seeded inputs, the tail
percentile rule, span self-time arithmetic, the trace accounting check,
simulator determinism across hash seeds and the record schema.

    python3 -m pytest gupbench/tests -q
"""

import asyncio
import json
import os
import random
import re
from collections import Counter

import pytest

import run
from loadgen import (
    OpStream,
    UniformChooser,
    ZipfChooser,
    arrival_offsets,
    quantile,
    tail_percentile,
)
from tracing import Span, Tracer, breakdown, covered, cpu_pair, self_times

BENCH_JSON = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- seeded inputs -----------------------------------------------------------

def test_arrival_schedule_is_a_function_of_the_seed():
    first = arrival_offsets(200.0, 5.0, random.Random("7:arrivals"))
    again = arrival_offsets(200.0, 5.0, random.Random("7:arrivals"))
    other = arrival_offsets(200.0, 5.0, random.Random("8:arrivals"))
    assert first == again
    assert first != other
    assert all(0.0 < a < b < 5.0 for a, b in zip(first, first[1:]))
    assert 800 < len(first) < 1200  # Poisson(1000)


def test_zipf_choice_is_a_function_of_the_seed_and_skewed():
    users = ["u%03d" % i for i in range(500)]

    def picks(seed):
        chooser = ZipfChooser(users, 1.1, random.Random("%d:rank" % seed))
        rng = random.Random("%d:ops" % seed)
        return chooser.ranked, [chooser.pick(rng) for _ in range(5000)]

    ranked, drawn = picks(3)
    assert picks(3) == (ranked, drawn)
    assert picks(4)[0] != ranked
    counts = Counter(drawn)
    assert counts.most_common(1)[0][0] == ranked[0]
    assert counts[ranked[0]] > 10 * max(counts[ranked[-1]], 1)


def test_op_stream_is_a_function_of_the_seed():
    users = ["u%03d" % i for i in range(50)]

    def ops(seed):
        stream = OpStream(UniformChooser(users), "cached", 0.2,
                          random.Random(seed))
        return [(op.kind, op.user_id, op.raw) for op in
                (next(stream) for _ in range(200))]

    drawn = ops("1:ops")
    assert drawn == ops("1:ops")
    assert drawn != ops("2:ops")
    writes = sum(1 for kind, _u, _r in drawn if kind == "write")
    assert 20 < writes < 60


# -- the percentile rule -----------------------------------------------------

@pytest.mark.parametrize("count, pct", [
    (20000, 99.9), (1000, 99.0), (999, 95.0), (500, 95.0), (200, 95.0),
    (100, 90.0), (40, 75.0), (20, 50.0), (5, 50.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, pct):
    samples = [float(i) for i in range(1, count + 1)]
    random.Random(count).shuffle(samples)
    got_pct, value = tail_percentile(samples)
    assert got_pct == pct
    if count >= 20:
        beyond = sum(1 for s in samples if s > value)
        assert beyond >= 10


def test_quantile_is_nearest_rank():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert quantile(ordered, 0.5) == 2.0
    assert quantile(ordered, 0.75) == 3.0
    assert quantile(ordered, 1.0) == 4.0
    with pytest.raises(ValueError):
        quantile([], 0.5)


# -- spans -------------------------------------------------------------------

def test_covered_counts_overlapping_children_once():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert covered((0.0, 10.0), [(8.0, 12.0), (-1.0, 1.0)]) == 3.0


def test_self_time_is_duration_minus_children_coverage():
    spans = [
        Span("root", 0.0, 10.0, 0, 1, 7, 0),
        Span("a", 1.0, 4.0, 1, 2, 7, 0),
        Span("leaf", 2.0, 3.0, 2, 3, 7, 0),
        Span("b", 5.0, 6.0, 1, 4, 7, 0),
    ]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    result = breakdown(spans)
    assert result.requests == 1
    assert result.self_s == {"root": 6.0, "a": 2.0, "leaf": 1.0, "b": 1.0}
    # nested spans: layer totals add up to the root's duration
    assert result.wall_s == 10.0
    assert sum(result.self_s.values()) == result.wall_s


def test_breakdown_averages_per_request_and_skips_unowned_spans():
    spans = [
        Span("read", 0.0, 1.0, 0, 1, 3, 0),
        Span("handle", 1.5, 4.0, 0, 2, 3, 0),
        Span("write", 4.0, 5.0, 0, 3, 3, 0),
        Span("read", 10.0, 13.0, 0, 5, 4, 0),
        Span("background", 0.0, 9.0, 0, 4, 0, 0),
    ]
    result = breakdown(spans)
    assert result.requests == 2
    assert result.wall_s == 4.0  # (5 + 3) / 2
    assert result.self_s["read"] == 2.0
    assert result.calls == {"read": 1.0, "handle": 0.5, "write": 0.5}
    assert "background" not in result.self_s


def test_trace_accounting_is_checked_against_the_client():
    ok = {"trace.server_wall_share": 0.75, "trace.root_self_share": 0.1}
    assert run.trace_accounting_failures(ok) == []
    for name, value in (("trace.server_wall_share", 0.3),
                        ("trace.server_wall_share", 1.2),
                        ("trace.root_self_share", 0.4)):
        assert len(run.trace_accounting_failures(
            dict(ok, **{name: value}))) == 1


def test_tracer_records_parents_and_opaque_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return "x"

    traced_leaf = tracer.wrap("leaf", leaf)
    opaque = tracer.wrap("opaque", lambda: traced_leaf(), opaque=True)
    outer = tracer.wrap("outer", lambda: (traced_leaf(), opaque()),
                        size=len)
    assert outer() == ("x", "x")
    by_name = {span.name: span for span in tracer.spans}
    assert set(by_name) == {"leaf", "opaque", "outer"}  # no leaf in opaque
    assert by_name["leaf"].parent == by_name["outer"].sid
    assert by_name["opaque"].parent == by_name["outer"].sid
    assert by_name["outer"].parent == 0
    assert by_name["outer"].size == 2


def test_request_id_follows_gathered_tasks():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    async def leg():
        await asyncio.sleep(0)
        leaf()

    async def handle():
        await asyncio.gather(leg(), leg())

    traced = tracer.wrap_async("root", handle, new_request=True)

    async def main():
        await asyncio.gather(traced(), traced())

    asyncio.run(main())
    roots = [s for s in tracer.spans if s.name == "root"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert sorted(s.rid for s in roots) == [1, 2]
    for root in roots:
        mine = [s for s in leaves if s.rid == root.rid]
        assert len(mine) == 2
        assert all(s.parent == root.sid for s in mine)


def test_generator_and_server_get_different_cpus():
    client, server = cpu_pair()
    if client is None:
        assert server is None
        return
    allowed = os.sched_getaffinity(0)
    assert client in allowed and server in allowed
    assert client != server


# -- simulator determinism --------------------------------------------------

def test_round_zero_digest_is_the_same_under_another_hash_seed():
    import sim

    failures = []
    mine = sim.digest(sim.federation_storm(5, 0, failures))
    child = sim.spawn_child("federation", 5, "7")
    assert child["digest"] == mine
    assert child["hash_seed"] == "7"
    assert child["setup_s"] > 0
    assert failures == [] and child["failures"] == []
    assert sim.digest(sim.federation_storm(6, 0, [])) != mine


def test_host_scaling_is_window_by_window():
    import sim

    def totals(calls):
        made = sim.Totals()
        made.call_s = calls
        return made

    slow = 2 * sim.CAL_REF_MS  # the loop took twice the reference time
    rounds = [
        (0.5, 0.4, totals([0.1, 0.2]), slow),
        (0.9, 0.4, totals([0.3]), slow),
        (1.5, 0.6, totals([0.6]), sim.CAL_REF_MS),
    ]
    wall, calls = sim.host_scaled(rounds, 0.0)
    assert wall == pytest.approx(0.8 / 2 + 0.6)
    assert calls == pytest.approx(0.6 / 2 + 0.6)


# -- the record schema -------------------------------------------------------

def _record(metrics, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 1,
            "metrics": metrics}


def test_result_line_has_exactly_the_contract_keys():
    metrics = {name: 1.5 for name in run.E2E_UNITS}
    line = json.loads(run.result_line(_record(metrics), run.E2E_UNITS))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    wrong = json.loads(run.result_line(_record(metrics, False),
                                       run.E2E_UNITS))
    assert wrong["correct"] is False and wrong["metrics"] == {}


def test_metric_names_and_units_fit_the_contract():
    assert len(run.PER_LAYER_UNITS) <= 128
    for name, unit in list(run.E2E_UNITS.items()) + list(
        run.PER_LAYER_UNITS.items()
    ):
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    assert not set(run.E2E_UNITS) & set(run.PER_LAYER_UNITS)


def test_benchmark_json_matches_the_benchmark():
    with open(BENCH_JSON) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.E2E_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.PER_LAYER_UNITS
    )
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"])
