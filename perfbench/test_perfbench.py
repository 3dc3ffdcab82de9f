"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest -q perfbench

They need neither the library nor a benchmark run.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import run
import stats
import tracing
import workloads

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),  # grandchild: counted against b, not a
        ("b", 5.0, 6.0, 0),
    ]
    assert stats.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0), ("d", 9.0, 12.0, 0)]
    # children cover [1, 7] and [9, 10] inside the parent
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_length_clips_and_merges():
    assert stats.covered_length([(2, 4), (3, 5), (8, 20)], 0, 10) == pytest.approx(5.0)
    assert stats.covered_length([], 0, 10) == 0.0


def test_tracer_summary_self_and_total_with_recursion():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["charges.window_density", 0.0, 10.0, -1],
        ["charges.window_density", 1.0, 8.0, 0],  # the recursive call
        ["sim.sample", 2.0, 3.0, 1],
    ]
    summary = tracer.summary()
    wd = summary["charges.window_density"]
    assert wd["calls"] == 2
    assert wd["self_s"] == pytest.approx(3.0 + 6.0)
    assert wd["total_s"] == pytest.approx(10.0)  # the nested call is not added twice
    assert wd["parents"] == {"-": 1, "charges.window_density": 1}
    assert summary["sim.sample"]["parents"] == {"charges.window_density": 1}


def test_tracer_records_parent_links_through_wrappers():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.001)

    wrapped_inner = tracer._traced("sim.sample", inner)

    def outer():
        wrapped_inner()
        wrapped_inner()

    tracer._traced("cli.decay_table", outer)()
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("cli.decay_table", -1), ("sim.sample", 0), ("sim.sample", 0)]
    assert all(s[2] >= s[1] for s in tracer.spans)


# -- tail percentile ----------------------------------------------------------


def test_nearest_rank():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50) == (50, 50)
    assert stats.nearest_rank(values, 90) == (90, 10)
    assert stats.nearest_rank([7.0], 99) == (7.0, 0)


@pytest.mark.parametrize("n", [0, 1, 8, 10, 19])
def test_tail_undefined_below_twenty_samples(n):
    assert stats.tail([float(i) for i in range(n)]) is None


@pytest.mark.parametrize(
    "n, pct", [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0),
               (1000, 99.0), (10000, 99.9)]
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(n)]
    got_pct, value = stats.tail(values)
    assert got_pct == pct
    assert sum(1 for v in values if v > value) >= stats.TAIL_MIN_BEYOND


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 3.0] * 10
    assert stats.tail(values) == stats.tail(sorted(values))


# -- failure counting ---------------------------------------------------------


def test_failed_share_counts_failed_over_attempted():
    checks = [("a", True, ""), ("b", False, "x"), ("c", True, ""), ("d", False, "y")]
    assert stats.failed_share(checks) == 0.5
    assert stats.failed_share([("a", True, "")]) == 0.0
    with pytest.raises(ValueError):
        stats.failed_share([])


def _pass(artifacts, error=None, checks=(("x", True, ""),)):
    return {
        "error": error,
        "library": str(run.ROOT / "src" / "trotterchain"),
        "checks": [list(c) for c in checks],
        "artifacts": artifacts,
    }


def test_collect_checks_counts_crashed_pass_and_artifact_mismatch():
    passes = [
        _pass({"a.csv": "1"}),
        _pass({"a.csv": "2"}, checks=(("x", False, "off"),)),
        {"error": "Traceback: boom"},
    ]
    checks = run.collect_checks(passes)
    failed = [name for name, ok, _ in checks if not ok]
    assert failed == ["pass 1: x", "pass 2 completed", "same seed gives byte-identical artifacts"]
    # 3 "completed" + 2 library + 2 workload checks + 1 determinism
    assert len(checks) == 8
    assert stats.failed_share(checks) == pytest.approx(3 / 8)


def test_collect_checks_passes_identical_artifacts():
    checks = run.collect_checks([_pass({"a": "1"}), _pass({"a": "1"})])
    assert all(ok for _, ok, _ in checks)


# -- metric names -------------------------------------------------------------


def _spec():
    with open(SPEC) as fh:
        return json.load(fh)


def test_every_per_layer_metric_resolves():
    summary = {"calls": 3, "self_s": 0.5, "total_s": 0.7, "call_s": [0.1, 0.2, 0.4], "parents": {}}
    traced = {
        "wall_s": 11.0,
        "spans": {"sim.evolve_noisy": summary, "measure.build_cover": summary},
        "layers": {"charges.terms": 504, "measure.cover_words.Q2plus": 84},
    }
    values = {m["name"]: run.layer_value(m["name"], traced, {"wall_s": 10.0})
              for m in _spec()["per_layer"]}
    assert values["sim.evolve_noisy.call_s.p50"] == 0.2
    assert values["measure.build_cover.self_s"] == 0.5
    assert values["sim.sample.calls"] == 0
    assert values["measure.cover_words.Q2plus"] == 84
    assert values["measure.cover_words.Q1plus"] == 0
    assert values["trace.overhead_s"] == pytest.approx(1.0)


def test_unknown_per_layer_metric_is_an_error():
    traced = {"wall_s": 1.0, "spans": {}, "layers": {}}
    with pytest.raises(KeyError):
        run.layer_value("sim.not_wrapped.self_s", traced, traced)


def test_end_to_end_metrics_are_measured_on_every_workload():
    passes = [
        {"error": None, "launch": 0.0, "wall_s": 3.0, "setup_s": 1.0, "compute_s": 2.0,
         "peak_rss_mb": 40.0, "verb_s": {"tomo_s": 1.5}, "depth_s": [], "sigma_rel": []},
        {"error": None, "launch": 10.0, "wall_s": 5.0, "setup_s": 2.0, "compute_s": 3.0,
         "peak_rss_mb": 42.0, "verb_s": {"tomo_s": 2.5}, "depth_s": [], "sigma_rel": []},
    ]
    # the probe ran at the reference rate through the first pass, at half of it
    # through the second
    ref = run.PROBE_REF_HZ
    samples = [(t / 2, 1 / ref) for t in range(0, 8)] + [(t / 2, 2 / ref) for t in range(20, 31)]
    report = run.end_to_end(passes, [("ok", True, "")], samples)
    for metric in _spec()["end_to_end"]:
        assert report[metric["name"]] > 0
    assert report["wall_raw_s"] == 4.0 and report["tomo_s"] == 2.0
    assert report["wall_s"] == pytest.approx((3.0 + 2.5) / 2)
    assert report["setup_s"] == pytest.approx((1.0 + 1.0) / 2)


def test_end_to_end_leaves_out_times_the_probe_did_not_see():
    passes = [{"error": None, "launch": 0.0, "wall_s": 3.0, "setup_s": 1.0, "compute_s": 2.0,
               "peak_rss_mb": 40.0, "verb_s": {}, "depth_s": [], "sigma_rel": []}]
    report = run.end_to_end(passes, [("ok", True, "")], [(2.0, 0.001)])
    assert "wall_s" in report and "setup_s" not in report
    assert report["setup_raw_s"] == 1.0


def test_rescaled_uses_the_mean_probe_rate_inside_the_interval():
    samples = [(0.5, 0.01), (1.0, 0.02), (1.5, 0.04), (9.0, 0.001)]
    # rates 100, 50 and 25 per s inside [0, 2]; the sample at 9 s is outside
    assert stats.rescaled(2.0, 0.0, samples, 50.0) == pytest.approx(2.0 * (175 / 3) / 50)
    assert stats.rescaled(2.0, 3.0, samples, 50.0) is None


def _fake_passes(monkeypatch, durations):
    """run_passes with a clock that each pass advances by the next duration."""
    clock = [0.0]
    left = list(durations)

    def fake_pass(name, configs, pass_dir, trace, deadline):
        clock[0] += left.pop(0)
        return {"error": None}

    monkeypatch.setattr(run, "run_pass", fake_pass)
    monkeypatch.setattr(run, "time", type("Clock", (), {"monotonic": lambda: clock[0]}))
    return lambda seconds: len(
        run.run_passes(workloads.WORKLOADS["dense-analyses"], None, run.RUNS, False, seconds, 0.0)
    )


def test_run_makes_one_pass_even_if_it_overruns(monkeypatch):
    assert _fake_passes(monkeypatch, [30.0, 30.0, 30.0])(25) == 1


def test_run_starts_no_pass_expected_to_end_after_seconds(monkeypatch):
    # after 3 passes of 7 s the next would end at 28 s > 25 s
    assert _fake_passes(monkeypatch, [7.0] * 10)(25) == 3


def test_run_stops_before_the_deadline(monkeypatch):
    # a second 90 s pass would end at 180 s, past the 170 s deadline
    assert _fake_passes(monkeypatch, [90.0, 90.0])(300) == 1


def test_seed_makes_the_inputs():
    for workload in workloads.WORKLOADS.values():
        assert workload.configs(3) == workload.configs(3)
    a, b = workloads.conserve_configs(3), workloads.conserve_configs(4)
    assert a != b
    assert workloads.config_seed(2**40) < 2**32
