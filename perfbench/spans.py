"""In-memory span recorder for the traced run, and the layer wrappers.

The traced run wraps the simulator's layer boundaries from the outside:
each wrapper records one span (layer, name, start, end, parent) per
call into growable arrays, so no source file of the simulator carries
instrumentation.  Spans stay in memory until the run ends; then
:func:`analyse` turns them into per-name counts, inclusive times and
self times (a span's duration minus the time its child spans cover),
and :meth:`SpanRecorder.save` writes them out.

Layers are named after the simulator's modules (``experiments``,
``workloads``, ``snapshot``, ``ftl``, ``ssd``, ``engine``, ``pipeline``,
``resources``); ``bench`` is the benchmark's own correctness check.
"""

from __future__ import annotations

import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = (
    "experiments",
    "workloads",
    "snapshot",
    "ftl",
    "ssd",
    "engine",
    "pipeline",
    "resources",
    "bench",
)


class SpanRecorder:
    """Columnar span store: one row per wrapped call."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        #: Counts taken at the wrapped boundaries (op kinds, bytes, ...).
        self.counts: dict[str, int] = {}
        #: Boundaries of the wrap plan this simulator does not have.
        self.absent: list[str] = []

    def name(self, layer: str, label: str) -> int:
        key = (layer, label)
        nid = self._ids.get(key)
        if nid is None:
            if layer not in LAYERS:
                raise ValueError(f"unknown layer {layer!r}")
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def begin(self, nid: int) -> int:
        index = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def __len__(self) -> int:
        return len(self.name_id)

    def save(self, path) -> None:
        """Write every span (compact ``.npz``) for offline inspection."""
        np.savez(
            path,
            names=np.array([json.dumps(name) for name in self.names]),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _span(recorder: SpanRecorder, nid: int, fn, note=None):
    begin, finish = recorder.begin, recorder.finish
    if note is None:

        def wrapper(*args, **kwargs):
            index = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        return wrapper

    def noting_wrapper(*args, **kwargs):
        index = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(index)
        note(recorder, args, result)
        return result

    return noting_wrapper


def _count_ops(recorder: SpanRecorder, ops, host: bool) -> None:
    for op in ops:
        recorder.count(f"ops.{op.kind.name.lower()}")
    if host:
        recorder.count("ops.host", len(ops))


def _note_host_read(recorder, _args, result) -> None:
    _count_ops(recorder, [result], host=True)


def _note_host_write(recorder, _args, result) -> None:
    _count_ops(recorder, result.host_ops, host=True)


def _note_internal(recorder, args, _result) -> None:
    _count_ops(recorder, args[1], host=False)


def _note_refresh(recorder, _args, result) -> None:
    recorder.count("ftl.refresh_ops", len(result))


def _note_batch(recorder, args, _result) -> None:
    recorder.count("ftl.untimed_batch_writes", len(args[1]))


def _note_capture(recorder, _args, result) -> None:
    recorder.count("snapshot.bytes", result.nbytes())


#: ``(layer, module, qualified name, note)`` of every wrapped boundary.
#: Module-level functions are wrapped in every namespace that calls them
#: by name (the runner and the sweep executor import them).  Physical
#: ops are counted by kind where the FTL hands them to the simulator
#: (``host_read``, ``host_write``, ``issue_internal_sequence``), the
#: stable protocol boundary.  A few spans sit on underscore methods
#: because that is where a layer is entered on the event path:
#: ``SsdSimulator._issue`` (op dispatch), ``OpPipeline._stage_done``
#: (stage advance), ``Resource._dispatch_next`` (service start on
#: completion).  A boundary the simulator no longer has is skipped, so a
#: refactor of the hot path changes the figures, not whether the traced
#: run works.
WRAP_PLAN = (
    ("experiments", "repro.experiments.runner", "run_workload", None),
    ("experiments", "repro.experiments.parallel", "run_workload", None),
    ("experiments", "repro.experiments.runner", "run_workload_closed_loop", None),
    ("experiments", "repro.experiments.parallel", "run_workload_closed_loop", None),
    ("experiments", "repro.experiments.parallel", "execute_unit", None),
    ("experiments", "repro.experiments.parallel", "warm_key_for_unit", None),
    ("experiments", "repro.experiments.runner", "build_simulator", None),
    ("experiments", "repro.experiments.runner", "warm_device", None),
    ("workloads", "repro.experiments.runner", "generate_workload", None),
    ("workloads", "repro.experiments.runner", "sample_update_lpns", None),
    ("snapshot", "repro.experiments.runner", "capture_warm_state", _note_capture),
    ("snapshot", "repro.experiments.runner", "restore_warm_state", None),
    ("snapshot", "repro.sim.snapshot", "SnapshotStore.get", None),
    ("snapshot", "repro.sim.snapshot", "SnapshotStore.put", None),
    ("ftl", "repro.ftl.ftl", "Ftl.__init__", None),
    ("ftl", "repro.ftl.ftl", "Ftl.host_read", _note_host_read),
    ("ftl", "repro.ftl.ftl", "Ftl.host_write", _note_host_write),
    ("ftl", "repro.ftl.ftl", "Ftl.write_untimed", None),
    ("ftl", "repro.ftl.ftl", "Ftl.apply_untimed_batch", _note_batch),
    ("ftl", "repro.ftl.ftl", "Ftl.check_refresh", _note_refresh),
    ("ftl", "repro.ftl.ftl", "Ftl.commit_adjust", None),
    ("ssd", "repro.sim.ssd", "SsdSimulator.__init__", None),
    ("ssd", "repro.sim.ssd", "SsdSimulator.preload", None),
    ("ssd", "repro.sim.ssd", "SsdSimulator.age", None),
    ("ssd", "repro.sim.ssd", "SsdSimulator.dispatch_read", None),
    ("ssd", "repro.sim.ssd", "SsdSimulator.dispatch_write", None),
    ("ssd", "repro.sim.ssd", "SsdSimulator.issue_internal_sequence", _note_internal),
    ("ssd", "repro.sim.ssd", "SsdSimulator._issue", None),
    ("ssd", "repro.sim.backends", "ReferenceBackend.admit_requests", None),
    ("ssd", "repro.sim.backends", "ReferenceBackend.apply_untimed", None),
    ("ssd", "repro.sim.scheduler", "OutstandingRequest.page_done", None),
    ("engine", "repro.sim.engine", "SimEngine.run", None),
    ("engine", "repro.sim.engine", "SimEngine.at", None),
    ("engine", "repro.sim.engine", "SimEngine.after", None),
    ("pipeline", "repro.sim.pipeline", "OpPipeline.start", None),
    ("pipeline", "repro.sim.pipeline", "OpPipeline._stage_done", None),
    ("resources", "repro.sim.resources", "Resource.submit", None),
    ("resources", "repro.sim.resources", "Resource._dispatch_next", None),
)


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute)`` of a boundary, or ``None`` when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name, None)
    if isinstance(owner, type):
        return (owner, attr) if attr in owner.__dict__ else None
    return (owner, attr) if hasattr(owner, attr) else None


@contextmanager
def traced(recorder: SpanRecorder):
    """Install a wrapper on every boundary of :data:`WRAP_PLAN` that
    exists; restore the originals on exit."""
    originals = []
    try:
        for layer, module_name, qualname, note in WRAP_PLAN:
            target = _resolve(module_name, qualname)
            if target is None:
                recorder.absent.append(f"{module_name}.{qualname}")
                continue
            owner, attr = target
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, fn))
            nid = recorder.name(layer, qualname)
            setattr(owner, attr, _span(recorder, nid, fn, note))
        yield recorder
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def analyse(recorder: SpanRecorder, wall_ns: int) -> dict:
    """Counts, inclusive and self times per span name; self time per layer.

    Inclusive times leave out the benchmark's own check spans nested
    below them, so a layer's figures never include checking work.  The
    ``other`` bucket is the traced wall time no root span covers; the
    layer self times plus ``other`` sum to the wall time exactly.
    """
    n = len(recorder)
    name_id = np.frombuffer(recorder.name_id, dtype=np.uint16).astype(np.int64)
    parent = np.frombuffer(recorder.parent, dtype=np.int32).astype(np.int64)
    start = np.frombuffer(recorder.start, dtype=np.int64)
    end = np.frombuffer(recorder.end, dtype=np.int64)
    duration = (end - start).astype(np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=n)
    self_ns = duration - child

    layer_of = np.array(
        [LAYERS.index(layer) for layer, _ in recorder.names], dtype=np.int64
    )
    span_layer = layer_of[name_id]
    excluded = np.zeros(n)
    for index in np.flatnonzero(span_layer == LAYERS.index("bench")):
        up = parent[index]
        while up >= 0:
            excluded[up] += duration[index]
            up = parent[up]

    names = len(recorder.names)
    calls = np.bincount(name_id, minlength=names)
    inclusive = np.bincount(name_id, weights=duration - excluded, minlength=names)
    self_by_name = np.bincount(name_id, weights=self_ns, minlength=names)
    per_name = {
        f"{layer}:{label}": {
            "calls": int(calls[i]),
            "inclusive_s": inclusive[i] / 1e9,
            "self_s": self_by_name[i] / 1e9,
        }
        for i, (layer, label) in enumerate(recorder.names)
    }
    layer_self = np.bincount(span_layer, weights=self_ns, minlength=len(LAYERS))
    root_ns = duration[~nested].sum()
    layers = {layer: layer_self[i] / 1e9 for i, layer in enumerate(LAYERS)}
    layers["other"] = (wall_ns - root_ns) / 1e9
    return {
        "spans": n,
        "wall_s": wall_ns / 1e9,
        "counts": dict(recorder.counts),
        "absent": list(recorder.absent),
        "per_name": per_name,
        "layer_self_s": layers,
    }
