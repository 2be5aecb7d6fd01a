"""Tests of the benchmark harness's own arithmetic and bookkeeping.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from importlib import import_module
from pathlib import Path

import pytest

import layers
import run
import stats
from layers import LayerTracer

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([4, 1, 3, 2], 0) == 1
    assert stats.percentile([4, 1, 3, 2], 100) == 4
    assert stats.percentile(range(101), 95) == 95
    assert stats.percentile([10, 20], 25) == 12.5


@pytest.mark.parametrize(
    "n, q, beyond",
    [(100, 95, 5), (190, 95, 10), (200, 95, 10), (420, 95, 21), (11, 0, 10)],
)
def test_samples_beyond_counts_ranks_above_the_percentile(n, q, beyond):
    assert stats.samples_beyond(n, q) == beyond
    values = list(range(n))
    cut = stats.percentile(values, q)
    assert sum(1 for v in values if v > cut) == beyond


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(200)), 95) == pytest.approx(189.05)
    with pytest.raises(ValueError, match="need at least 10"):
        stats.tail_percentile(list(range(180)), 95)
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(100)), 99)


# ----------------------------------------------------------------------
# failed_share
# ----------------------------------------------------------------------
def test_failed_share():
    assert stats.failed_share(0, 37_807) == 0.0
    assert stats.failed_share(3, 12) == 0.25
    assert stats.failed_share(5, 5) == 1.0
    with pytest.raises(ValueError):
        stats.failed_share(0, 0)
    with pytest.raises(ValueError):
        stats.failed_share(6, 5)


def test_counts_book_a_crashed_repetition_as_a_failed_attempt():
    reps = [{"outputs": {"n_readings": 100, "failed_readings": 2}}] * 3
    assert run.counts("serve", reps, crashed=0) == (300, 6)
    assert run.counts("serve", reps, crashed=1) == (301, 7)
    assert run.counts("train", [{"outputs": {}}] * 4, crashed=1) == (5, 1)


# ----------------------------------------------------------------------
# self-time subtraction
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(0.5)

    middle = tracer.wrap("middle", middle)

    def outer():
        clock.advance(3.0)
        middle()

    outer = tracer.wrap("outer", outer)

    tracer.start()
    clock.advance(0.25)  # harness time outside every layer
    outer()
    clock.advance(0.75)
    tracer.stop()

    assert tracer.self_s["leaf"] == 4.0
    assert tracer.self_s["middle"] == 1.5
    assert tracer.self_s["outer"] == 3.0
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert tracer.wall_s == 9.5
    assert tracer.attributed() == 8.5
    assert tracer.unattributed() == 1.0


def test_same_layer_recursion_is_not_double_counted():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def step(depth):
        clock.advance(1.0)
        if depth:
            step(depth - 1)

    step = tracer.wrap("layer", step)
    tracer.start()
    step(3)
    tracer.stop()
    assert tracer.self_s["layer"] == 4.0
    assert tracer.unattributed() == 0.0


def test_self_time_is_booked_when_the_call_raises():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    boom = tracer.wrap("boom", boom)
    with pytest.raises(KeyError):
        boom()
    assert tracer.self_s["boom"] == 1.0
    assert tracer._stack == []


def test_iterate_books_each_next_and_counts_items():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def produce():
        for i in range(3):
            clock.advance(0.5)
            yield i

    seen = []
    for item in tracer.iterate("parse", produce()):
        clock.advance(1.0)  # consumer work: not the parser's
        seen.append(item)
    assert seen == [0, 1, 2]
    assert tracer.self_s["parse"] == 1.5
    assert tracer.calls["parse"] == 4  # three items and the final StopIteration


def test_item_counters_run_on_the_result():
    tracer = LayerTracer(clock=FakeClock())
    admit = tracer.wrap(
        "gate", lambda x: x if x % 2 else None, (("admitted", layers._admitted),)
    )
    for i in range(5):
        admit(i)
    assert tracer.items["gate.admitted"] == 2
    assert tracer.calls["gate"] == 5


def test_install_patches_every_binding_and_uninstall_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.pipeline import MFPA

    # ``repro.core`` re-exports a function named ``preprocess``, so the
    # submodule is taken from the import system, not by attribute.
    preprocess = import_module("repro.core.preprocess")
    trainer = import_module("repro.scale.trainer")

    original_fn = preprocess.repair_discontinuity
    original_method = MFPA.__dict__["bind_dataset"]
    subset = {
        "core.preprocess": (("repro.core.preprocess:repair_discontinuity",), ()),
        "core.pipeline.bind_dataset": (("repro.core.pipeline:MFPA.bind_dataset",), ()),
    }
    tracer = LayerTracer()
    tracer.install(subset)
    try:
        assert preprocess.repair_discontinuity is not original_fn
        assert trainer.repair_discontinuity is preprocess.repair_discontinuity
        assert MFPA.__dict__["bind_dataset"] is not original_method
    finally:
        tracer.uninstall()
    assert preprocess.repair_discontinuity is original_fn
    assert trainer.repair_discontinuity is original_fn
    assert MFPA.__dict__["bind_dataset"] is original_method


# ----------------------------------------------------------------------
# gate
# ----------------------------------------------------------------------
EXPECTED = {
    "dataset_fingerprint": "abc",
    "alarms": [[1, 250, 0.9], [2, 300, 0.7]],
    "summary": {"true_alarms": 1},
    "n_readings": 50,
}


def test_gate_rejects_different_alarms():
    run.check("serve", {"alarms": EXPECTED["alarms"], "handled": 50}, EXPECTED)
    near = [[1, 250, 0.9 + 1e-12], [2, 300, 0.7]]
    run.check("serve", {"alarms": near, "handled": 50}, EXPECTED)
    with pytest.raises(run.GateFailure):
        run.check("serve", {"alarms": [[1, 251, 0.9], [2, 300, 0.7]],
                            "handled": 50}, EXPECTED)
    with pytest.raises(run.GateFailure):
        run.check("serve", {"alarms": EXPECTED["alarms"], "handled": 49},
                  EXPECTED)
    with pytest.raises(run.GateFailure):
        run.check("monitor", {"alarms": EXPECTED["alarms"],
                              "summary": {"true_alarms": 2}}, EXPECTED)


def test_pinned_outputs_override_the_built_reference():
    built = dict(EXPECTED, alarms=[])
    pinned = {"serve": {"3": EXPECTED}}
    assert run.expected_outputs("serve", 3, built, pinned) == (EXPECTED, "pinned")
    # a seed that is not pinned falls back to the built reference
    assert run.expected_outputs("serve", 4, built, pinned) == (built, "built")
    assert run.expected_outputs("fleet", 3, built, pinned) == (built, "built")
    # pinned outputs only hold for the pinned inputs
    with pytest.raises(run.GateFailure):
        run.expected_outputs("serve", 3, dict(built, dataset_fingerprint="x"),
                             pinned)


def test_expected_json_pins_both_shapes_for_the_same_seeds():
    pinned = json.loads(run.EXPECTED.read_text())
    assert set(pinned) == {"fleet", "serve"}
    assert set(pinned["fleet"]) == set(pinned["serve"])
    for entry in pinned["fleet"].values():
        assert {"dataset_fingerprint", "train", "alarms", "summary",
                "quality"} <= set(entry)
    for entry in pinned["serve"].values():
        assert {"dataset_fingerprint", "alarms", "n_readings",
                "quality"} <= set(entry)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the harness prints
# ----------------------------------------------------------------------
def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.metric_units(0)
    assert spec["per_layer"] == layers.per_layer_spec()


def test_every_listed_metric_is_reported_on_every_workload():
    untraced = [{"items": 100, "work_s": 2.0, "setup_s": 0.5,
                 "peak_rss_mb": 50.0,
                 "outputs": {"ticks_ms": [float(i) for i in range(420)]}}]
    trace = {"self_s": {"core.client.ingest": 1.0}, "calls": {}, "items": {},
             "unattributed_s": 0.1}
    traced = [dict(untraced[0], trace=trace)]
    per_layer_names = {m["name"] for m in layers.per_layer_spec()}
    for workload in run.WORKLOADS:
        assert set(run.per_layer(workload, untraced, traced)) == per_layer_names
    assert set(run.end_to_end(untraced)) == set(run.END_TO_END_UNITS)
    assert run.end_to_end(untraced)["items_per_s"] == 50.0


def test_checkpoint_bytes_count_payloads_only():
    assert layers._written_bytes(("state.json", b"12345"), {}, None) == 5
    assert layers._written_bytes(("dir", ("model.pkl", "state.json")), {}, None) == 0
