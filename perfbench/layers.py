"""Per-layer timing for the traced run, from outside the program.

:class:`LayerTracer` replaces functions and methods of ``repro``
modules — public ones, plus the serve daemon's private checkpoint step,
which has no public entry point — with wrappers that book each call's
*self time* (its duration minus the time spent in nested wrapped calls)
to a layer named after the module. Nothing under ``src/`` knows about
it, and an untraced run never installs it.

:data:`LAYERS` is the whole map: layer name → the callables that make
it up, plus what each call counts as work. The README in this directory
says which end-to-end metric each layer should move.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from importlib import import_module


def _rows_arg(index):
    """Items = rows of the array passed as positional ``index``."""

    def count(args, kwargs, result):
        return len(args[index])

    return count


def _assembled_rows(args, kwargs, result):
    return len(args[2]) if len(args) > 2 else len(kwargs["row_indices"])


def _assembler_available_rows(args, kwargs, result):
    columns = args[1] if len(args) > 1 else kwargs["dataset_columns"]
    return len(next(iter(columns.values())))


def _admitted(args, kwargs, result):
    return 0 if result is None else 1


def _tree_nodes(args, kwargs, result):
    return args[0].tree_.n_nodes


def _shard_bytes(args, kwargs, result):
    store, index = args[0], args[1]
    return os.path.getsize(store.root / store.shards[index].filename)


def _written_bytes(args, kwargs, result):
    """``atomic_write``'s payload size. ``write_manifest`` takes file
    names, not bytes; its manifest is counted by the ``atomic_write``
    it calls."""
    data = args[1] if len(args) > 1 else kwargs.get("data")
    return len(data) if isinstance(data, (bytes, bytearray)) else 0


#: layer → (targets, item counters). A target is ``"module:attr"`` for a
#: module function (every ``repro`` module that imported it by name is
#: patched too) or ``"module:Class.attr"`` for a method. An item counter
#: is ``(metric suffix, fn(args, kwargs, result) -> number)``.
LAYERS: dict[str, tuple[tuple[str, ...], tuple]] = {
    # -- serve data path --------------------------------------------------
    "serve.daemon.submit": (("repro.serve.daemon:ServeDaemon.submit",), ()),
    "serve.ingest.queue": (
        ("repro.serve.ingest:BoundedReadingQueue.offer",
         "repro.serve.ingest:BoundedReadingQueue.drain"),
        (),
    ),
    "serve.daemon.pump": (
        ("repro.serve.daemon:ServeDaemon.pump",
         "repro.serve.daemon:ServeDaemon.finish"),
        (),
    ),
    "serve.ingest.admit": (
        ("repro.serve.ingest:ReadingGate.admit",), (("admitted", _admitted),)
    ),
    "serve.state.freshness": (
        ("repro.serve.state:DimensionFreshness.observe",), ()
    ),
    "serve.state.stage": (("repro.serve.state:IncrementalScorer.stage",), ()),
    "core.client.ingest": (("repro.core.client:ClientPredictor.ingest",), ()),
    "core.client.predict": (
        ("repro.core.client:ClientPredictor.predict_matrix",), ()
    ),
    "serve.alarms.decide": (("repro.serve.alarms:AlarmStream.decide",), ()),
    "serve.alarms.emit": (("repro.serve.alarms:AlarmStream.emit_pending",), ()),
    "serve.drift.observe": (
        ("repro.serve.drift:DriftMonitor.observe_window",), ()
    ),
    "serve.daemon.checkpoint": (
        ("repro.serve.daemon:ServeDaemon._checkpoint",), ()
    ),
    "robustness.checkpoint.write": (
        ("repro.robustness.checkpoint:atomic_write",
         "repro.robustness.checkpoint:write_manifest"),
        (("bytes", _written_bytes),),
    ),
    "serve.daemon.from_models": (
        ("repro.serve.daemon:ServeDaemon.from_models",), ()
    ),
    "obs.metrics": (
        ("repro.obs.metrics:inc_counter",
         "repro.obs.metrics:set_gauge",
         "repro.obs.metrics:observe_histogram"),
        (),
    ),
    # -- loading and set-up -------------------------------------------------
    "telemetry.io.load": (("repro.telemetry.io:load_dataset",), ()),
    "ml.artifact.load": (
        ("repro.ml.artifact:load_model",
         "repro.ml.artifact:load_reference_profile",
         "repro.ml.artifact:artifact_hash"),
        (),
    ),
    "core.pipeline.bind_dataset": (("repro.core.pipeline:MFPA.bind_dataset",), ()),
    "scale.store.open": (("repro.scale.store:ShardedDataset.__init__",), ()),
    # -- training -----------------------------------------------------------
    "core.preprocess": (
        ("repro.core.preprocess:preprocess",
         "repro.core.preprocess:repair_discontinuity",
         "repro.core.preprocess:accumulate_events",
         "repro.core.preprocess:encode_firmware"),
        (),
    ),
    "core.labeling": (
        ("repro.core.labeling:FailureTimeIdentifier.identify",
         "repro.core.labeling:build_samples"),
        (),
    ),
    "core.pipeline.fit": (("repro.core.pipeline:MFPA.fit",), ()),
    "ml.forest.fit": (("repro.ml.forest:RandomForestClassifier.fit",), ()),
    "ml.tree.fit": (
        ("repro.ml.tree:DecisionTreeClassifier.fit",), (("nodes", _tree_nodes),)
    ),
    "core.pipeline.evaluate": (("repro.core.pipeline:MFPA.evaluate",), ()),
    # -- scoring ------------------------------------------------------------
    "core.pipeline.predict": (
        ("repro.core.pipeline:MFPA.predict_proba_rows",), ()
    ),
    "ml.forest.predict": (
        ("repro.ml.forest:RandomForestClassifier.predict_proba",), ()
    ),
    "ml.arena.build": (("repro.ml.arena:cached_arena",), ()),
    "ml.arena.encode": (("repro.ml.arena:ForestArena.encode",), ()),
    "ml.arena.predict": (
        ("repro.ml.arena:ForestArena.predict_mean",
         "repro.ml.arena:ForestArena.predict_raw",
         "repro.ml.arena:ForestArena.predict_stack"),
        (("rows", _rows_arg(1)),),
    ),
    "core.features.assemble": (
        ("repro.core.features:FeatureAssembler.assemble",),
        (("rows", _assembled_rows), ("rows_available", _assembler_available_rows)),
    ),
    # -- monitors -----------------------------------------------------------
    "core.deployment.operate": (
        ("repro.core.deployment:simulate_operation",
         "repro.core.deployment:FleetMonitor.start_with_model",
         "repro.core.deployment:FleetMonitor.score_window"),
        (),
    ),
    "core.deployment.scan": (
        ("repro.core.deployment:score_prepared_window",
         "repro.core.deployment:predict_rows_parallel"),
        (),
    ),
    "core.deployment.summarize": (
        ("repro.core.deployment:summarize_windows",), ()
    ),
    "scale.monitor.run": (
        ("repro.scale.monitor:ShardedFleetMonitor.run",
         "repro.scale.monitor:ShardedFleetMonitor.use_model"),
        (),
    ),
    "scale.store.load_shard": (
        ("repro.scale.store:ShardedDataset.load_shard",),
        (("bytes_read", _shard_bytes),),
    ),
    "scale.trainer.prepare_shard": (
        ("repro.scale.trainer:prepare_shard",), ()
    ),
}

#: The layer that times the benchmark's own pass over the JSONL stream
#: (a generator, so it is wrapped per ``next()`` by :meth:`iterate`).
PARSE_LAYER = "serve.replay.parse"


class LayerTracer:
    """Self-time accounting over wrapped calls.

    Each wrapped call pushes a frame; on return ``duration - nested`` is
    booked to its layer's self time and the duration is added to the
    enclosing frame's nested time. The sum
    of every layer's self time therefore equals the time spent inside
    outermost wrapped calls, and :meth:`unattributed` is the rest of the
    traced interval.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, float] = defaultdict(float)
        self._started: float | None = None
        self._stopped: float | None = None

    # -- accounting -----------------------------------------------------
    def _enter(self) -> tuple[list[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame, self._clock()

    def _leave(self, layer: str, frame: list[float], started: float) -> None:
        elapsed = self._clock() - started
        self._stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += elapsed

    def wrap(self, layer: str, fn, counters=()):
        """``fn`` with its calls booked to ``layer``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, started = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(layer, frame, started)
            for suffix, count in counters:
                tracer.items[f"{layer}.{suffix}"] += count(args, kwargs, result)
            return result

        return wrapper

    def iterate(self, layer: str, iterable):
        """Yield from ``iterable``, booking each ``next()`` to ``layer``."""
        iterator = iter(iterable)
        while True:
            frame, started = self._enter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._leave(layer, frame, started)
            yield item

    def start(self) -> None:
        self._started = self._clock()

    def stop(self) -> None:
        self._stopped = self._clock()

    @property
    def wall_s(self) -> float:
        return self._stopped - self._started

    def attributed(self) -> float:
        return sum(self.self_s.values())

    def unattributed(self) -> float:
        return self.wall_s - self.attributed()

    # -- installation ---------------------------------------------------
    def install(self, layers=LAYERS) -> None:
        """Patch every target of ``layers``. Import the program's modules
        first: a function is also replaced wherever a loaded ``repro``
        module imported it by name."""
        for layer, (targets, counters) in layers.items():
            for target in targets:
                module_name, _, attr_path = target.partition(":")
                module = import_module(module_name)
                if "." in attr_path:
                    class_name, attr = attr_path.split(".")
                    self._patch_method(
                        getattr(module, class_name), attr, layer, counters
                    )
                else:
                    self._patch_function(module, attr_path, layer, counters)

    def _patch_method(self, owner, attr, layer, counters) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(layer, raw.__func__, counters))
        else:
            replacement = self.wrap(layer, raw, counters)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr, layer, counters) -> None:
        original = getattr(module, attr)
        replacement = self.wrap(layer, original, counters)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for bound_name, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, bound_name, original))
                    setattr(loaded, bound_name, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


#: Counts and ratios computed from the raw tallies: (name, unit, better).
DERIVED_METRICS = (
    ("serve.replay.parse.items", "count", "higher"),
    ("serve.ingest.shed", "count", "lower"),
    ("serve.ingest.admitted_ratio", "ratio", "higher"),
    ("core.client.ingest.calls_per_reading", "ratio", "lower"),
    ("obs.metrics.calls_per_reading", "ratio", "lower"),
    ("obs.metrics.calls", "count", "lower"),
    ("robustness.checkpoint.bytes", "bytes", "lower"),
    ("core.features.assemble.rows_used_ratio", "ratio", "higher"),
    ("ml.arena.predict.calls", "count", "lower"),
    ("ml.arena.rows_per_call", "rows", "higher"),
    ("scale.store.bytes_read", "bytes", "lower"),
    ("ml.tree.fit.calls", "count", "lower"),
    ("ml.tree.nodes", "count", "lower"),
    ("serve.tick.p50_ms", "ms", "lower"),
    ("serve.tick.p95_ms", "ms", "lower"),
    ("unattributed.s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "higher"),
)


def per_layer_spec() -> list[dict]:
    """The ``per_layer`` list of ``BENCHMARK.json``, in print order."""
    spec = [{"name": f"{layer}.s", "unit": "s", "better": "lower"}
            for layer in (*LAYERS, PARSE_LAYER)]
    spec += [{"name": name, "unit": unit, "better": better}
             for name, unit, better in DERIVED_METRICS]
    return spec
