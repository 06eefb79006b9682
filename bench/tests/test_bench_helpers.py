"""Tests of the benchmark's own helpers: the percentile rule, timings at
nominal machine speed, self time, the cross-process span join, span
recording, the comparison rule, and that BENCHMARK.json lists what the
code reports.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import spans  # noqa: E402
from stats import (  # noqa: E402
    TooFewSamples,
    covered_ns,
    highest_percentile,
    join_by_key,
    percentile,
    SpeedScale,
    self_times,
)


# --- the percentile rule ------------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 1001)), 99) == 990  # ranks 991..1000 lie beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(1, 1000)), 99)


def test_p50_needs_ten_samples_beyond_it():
    assert percentile(list(range(21)), 50) == 10
    assert percentile(list(range(20)), 50) == 9  # ranks 11..20 lie beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_percentile_ignores_input_order():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert percentile(xs, 50) == 3.0


@pytest.mark.parametrize(
    "n, expected_p", [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (21, 50.0)]
)
def test_highest_percentile_with_ten_beyond(n, expected_p):
    p, _ = highest_percentile(list(range(n)))
    assert p == expected_p


def test_highest_percentile_refuses_tiny_samples():
    with pytest.raises(TooFewSamples):
        highest_percentile(list(range(19)))


# --- nominal machine speed ----------------------------------------------------------------


def _speed(refs, steal=None):
    """Speed samples one second apart, with no steal unless given."""
    steal = steal or [0.0] * len(refs)
    return [(float(t), r, st) for t, (r, st) in enumerate(zip(refs, steal))]


def test_speed_scale_is_nominal_over_the_nearby_reference_time():
    # the machine ran the reference in 1 ms, then in 2 ms (half speed)
    scale = SpeedScale(_speed([1.0] * 5 + [2.0] * 5), nominal_ms=1.0)
    assert scale.at(1.5) == 1.0
    assert scale.at(8.5) == 0.5
    assert scale.at(-3.0) == 1.0 and scale.at(30.0) == 0.5  # beyond the samples: the nearest
    # a 4 ms call at half speed takes 2 ms at nominal speed; a failed call stays failed
    assert scale.call_ms([8.0, 8.0], [4.0, math.inf]) == [2.0, math.inf]


def test_speed_scale_median_ignores_one_stray_sample():
    assert SpeedScale(_speed([1.0, 1.0, 9.0, 1.0, 1.0]), nominal_ms=1.0).at(2.5) == 1.0


def test_speed_scale_duration_scales_piece_by_piece():
    scale = SpeedScale(_speed([1.0] * 5 + [2.0] * 6), nominal_ms=1.0)
    # 2 s at full speed, then 2 s at half speed
    assert scale.duration(1.0, 3.0) == pytest.approx(2.0)
    assert scale.duration(7.0, 9.0) == pytest.approx(1.0)
    # across the change, the median of the samples around each second moves
    # from 1 ms through 1.5 ms to 2 ms
    assert scale.duration(3.0, 7.0) == pytest.approx(1.0 + 1 / 1.5 + 0.5 + 0.5)


def test_speed_scale_leaves_out_stolen_time():
    # the host kept the CPU for half of the second between samples 2 and 3
    scale = SpeedScale(_speed([1.0] * 6, steal=[0, 0, 0, 0.5, 0.5, 0.5]), nominal_ms=1.0)
    assert scale.stolen(0.0, 5.0) == pytest.approx(0.5)
    assert scale.stolen(2.5, 5.0) == pytest.approx(0.25)  # half the stretch, prorated
    assert scale.duration(0.0, 5.0) == pytest.approx(4.5)
    assert scale.duration(3.0, 5.0) == pytest.approx(2.0)
    assert scale.call_ms([2.6], [100.0]) == [100.0]  # calls keep their stolen time


def test_speed_scale_needs_samples():
    with pytest.raises(ValueError):
        SpeedScale([], nominal_ms=1.0)


def test_speed_meter_samples_while_entered():
    import os

    from speed import SpeedMeter

    with SpeedMeter(min(os.sched_getaffinity(0))) as meter:
        pass
    assert len(meter.samples) >= 2 and all(ms > 0 and steal >= 0 for _, ms, steal in meter.samples)
    assert meter.scale().at(meter.samples[0][0]) > 0


# --- self time ------------------------------------------------------------------------------


def _span(id, parent, start, end, agg_ns=0, **attrs):
    return {"id": id, "parent": parent, "name": f"s{id}", "start": start, "end": end, "agg_ns": agg_ns, "attrs": attrs}


def test_covered_counts_overlap_once_and_clips_to_parent():
    assert covered_ns(0, 100, [(10, 40), (30, 60), (90, 120)]) == 50 + 10
    assert covered_ns(0, 100, [(-5, 5), (200, 300)]) == 5
    assert covered_ns(0, 100, []) == 0


def test_self_time_with_overlapping_children():
    spans_ = [
        _span(1, None, 0, 100, agg_ns=5),
        _span(2, 1, 10, 40),
        _span(3, 1, 30, 60),  # overlaps 2: [30, 40) must not count twice
        _span(4, 1, 90, 120),  # runs past its parent: only [90, 100) counts
        _span(5, 2, 15, 20),  # a grandchild is its parent's business
    ]
    st = self_times(spans_)
    assert st[1] == 100 - 60 - 5
    assert st[2] == 30 - 5
    assert st[3] == 30
    assert st[5] == 5


def test_self_time_never_negative():
    assert self_times([_span(1, None, 0, 10, agg_ns=50)])[1] == 0


# --- the cross-process join -----------------------------------------------------------------


def test_join_by_session_and_sequence():
    client = [
        _span(1, None, 0, 10, key=["aa", 0]),
        _span(2, None, 10, 20, key=["aa", 1]),
        _span(3, None, 20, 30, key=["bb", 0]),
        _span(4, None, 30, 40, key=["cc", 0]),  # no enclave span: dropped
        _span(5, None, 40, 50),  # no key: dropped
    ]
    enclave = [
        _span(11, None, 1, 9, key=["aa", 0]),
        _span(12, None, 11, 19, key=["aa", 1]),
        _span(13, None, 21, 29, key=["bb", 0]),
        _span(14, None, 41, 49),
    ]
    pairs = [(c["id"], e["id"]) for c, e in join_by_key(client, enclave)]
    assert pairs == [(1, 11), (2, 12), (3, 13)]


def test_join_keys_survive_json_round_trip():
    client = json.loads(json.dumps([_span(1, None, 0, 1, key=("aa", 3))]))
    enclave = [_span(2, None, 0, 1, key=["aa", 3])]
    assert len(join_by_key(client, enclave)) == 1


# --- span recording ---------------------------------------------------------------------------


def test_tracer_nesting_and_self_time():
    tracer = spans.Tracer("test")

    def leaf():
        return sum(range(1000))

    counted_leaf = tracer.counted("leaf", leaf)

    def outer():
        return counted_leaf() + counted_leaf()

    stored_outer = tracer.stored("outer", outer)
    stored_outer()
    snap = tracer.snapshot()
    (s,) = snap["spans"]
    leaf_agg = snap["agg"]["leaf"]
    assert s["name"] == "outer" and s["parent"] is None
    assert leaf_agg["calls"] == 2
    assert s["agg_ns"] == leaf_agg["total_ns"]
    assert 0 <= self_times(snap["spans"])[s["id"]] <= s["end"] - s["start"] - leaf_agg["total_ns"]


def test_tracer_records_errors_and_threads():
    tracer = spans.Tracer("test")

    def boom():
        raise ValueError("x")

    counted = tracer.counted("boom", boom)
    stored = tracer.stored("call", lambda: None)

    def work():
        for _ in range(100):
            stored()
            with pytest.raises(ValueError):
                counted()

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    snap = tracer.snapshot()
    assert snap["agg"]["boom"]["calls"] == 400
    assert snap["agg"]["boom"]["errors"] == 400
    assert len(snap["spans"]) == 400
    assert all(s["parent"] is None for s in snap["spans"])


def test_install_rebinds_where_names_are_looked_up_and_undoes():
    import enclaveflow.app
    import enclaveflow.ifc
    import enclaveflow.labels
    import enclaveflow.wire
    from enclaveflow.app import App, DirectChannel, ENCLAVE_ROLE, SecureRef
    from enclaveflow.cli import build_password_program

    originals = (enclaveflow.ifc.join, enclaveflow.labels.read_cnf, enclaveflow.app.App.dispatch)
    tracer = spans.Tracer("test")
    uninstall = spans.install(tracer)
    try:
        assert enclaveflow.ifc.join is enclaveflow.labels.join is not originals[0]
        # the codec's own recursion keeps the original encoder
        assert enclaveflow.wire.encode_value is not enclaveflow.ifc.encode_value

        enclave = App(ENCLAVE_ROLE)
        build_password_program("pw")(enclave)
        enclave.freeze()
        client = App("user", gateway_factory=lambda: DirectChannel(enclave.dispatch))
        assert client.gateway(SecureRef(0, 1).apply("pw")) is True
        assert client.gateway(SecureRef(0, 1).apply("no")) is False
    finally:
        uninstall()
    assert (enclaveflow.ifc.join, enclaveflow.labels.read_cnf, enclaveflow.app.App.dispatch) == originals

    snap = tracer.snapshot()
    dispatches = [s for s in snap["spans"] if s["name"] == "app.dispatch"]
    gateways = [s for s in snap["spans"] if s["name"] == "app.gateway"]
    assert [s["attrs"]["fn"] for s in dispatches] == ["checkpwd", "checkpwd"]
    assert all(s["attrs"]["ok"] for s in dispatches)
    # DirectChannel runs dispatch inside the gateway call
    assert {s["parent"] for s in dispatches} == {s["id"] for s in gateways}
    assert snap["agg"]["ifc.unlabel_p"]["calls"] == 2
    assert snap["agg"]["labels.downgrade"]["calls"] == 2


# --- the comparison rule ----------------------------------------------------------------------


def test_improved_needs_nine_in_ten_wins_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p - 1.0 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    two_losses = faster[:8] + [11.0, 11.0]
    assert compare.verdict(parent, two_losses, "lower", 0.5) != "improved"
    assert compare.verdict(parent[:9], faster[:9], "lower", 0.1) != "improved"  # too few pairs
    assert compare.verdict(parent, faster, "lower", 0.1, alternating=False) == "unchanged"


def test_worse_beyond_the_bound_and_unchanged_within_it():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, [p * 0.7 for p in parent], "higher", 0.1) == "worse"
    assert compare.verdict(parent, [p * 0.95 for p in parent], "higher", 0.1) == "unchanged"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [50.0, 150, 80, 120, 60, 140, 100, 90, 110, 70]
    change = [p * 1.02 for p in parent]
    assert compare.verdict(parent, change, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, [1.0] * 10, "lower", 0.1) == "improved"


def test_compare_pairs_by_seed_and_reports_failed_share():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def rec(seed, t, value, failed=0):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in spec["end_to_end"]}
        return {
            "workload": "login-warm",
            "trace": 0,
            "provenance": {"seed": seed, "started_unix": t},
            "metrics": metrics,
            "attempted": 100,
            "failed": failed,
        }

    parent = [rec(s, 2 * s + (s % 2), 1.0) for s in range(10)]
    change = [rec(s, 2 * s + 1 - (s % 2), 1.0, failed=1) for s in range(10)]
    rows = compare.compare(parent, change, spec)
    assert {r["verdict"] for r in rows if r["metric"] != "failed_share"} == {"unchanged"}
    (failed,) = [r for r in rows if r["metric"] == "failed_share"]
    assert failed["verdict"] == "worse" and failed["pairs"] == 10 and not failed["note"]

    parent_first = [rec(s, 2 * s, 1.0) for s in range(10)]
    change_second = [rec(s, 2 * s + 1, 0.5) for s in range(10)]  # faster, but always ran second
    rows = compare.compare(parent_first, change_second, spec)
    assert all(r["note"] for r in rows)
    assert "improved" not in {r["verdict"] for r in rows if r["metric"] != "failed_share"}


# --- the clean room's own answer -----------------------------------------------------------


def test_expected_table_recomputes_the_clean_room_answer():
    import workloads

    p1 = [("alpha", 30), ("delta", 40), ("alpha", 50)]
    p2 = [("alpha", 20), ("omicron", 60)]
    expected = workloads.expected_table(p1, p2)
    assert expected == [("alpha", 100 / 3)]
    assert workloads.tables_match([["alpha", 100 / 3 + 1e-12]], expected)
    assert not workloads.tables_match([["alpha", 100 / 3 + 1e-6]], expected)
    assert not workloads.tables_match([["alpha", 33]], expected)  # an int is not a mean
    assert not workloads.tables_match([], expected)


def test_cleanroom_inputs_share_some_strains_and_not_others():
    import workloads

    inputs = workloads.CleanroomIngest().inputs(7)
    assert inputs == workloads.CleanroomIngest().inputs(7)
    strains = {p: {s for s, _ in rows} for p, rows in inputs["rows"].items()}
    assert strains["P1"] & strains["P2"]
    assert strains["P1"] - strains["P2"] and strains["P2"] - strains["P1"]


# --- BENCHMARK.json matches the code -------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_report():
    import layers
    import run
    import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
