"""Span tracing of the program's layers, installed from outside ``src/``.

:func:`installed` replaces the public functions and methods named in
:data:`TARGETS` with wrappers that record a span around each call, and puts
the originals back on exit.  Spans are kept in memory by a
:class:`Recorder` (name, start, end, parent, run id) and written out only
when the benchmark ends.  A span's self time is its duration minus the time
its child spans cover; summing self times per layer metric, plus the root
span's own self time (``core.unattributed_s``), partitions the traced wall
clock exactly.

The wrappers only time calls and read their arguments and results, so a
traced sweep must produce the same result digests as an untraced one; the
benchmark checks that on every traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the root span covering one cold sweep, from handing the
#: scenarios to the runner until the last export is written.
SWEEP_SPAN = "sweep"

#: Name of the root span covering the warm re-run against the filled store.
RERUN_SPAN = "rerun"

#: Layer boundaries: (span name, module, class or None, attribute, metric
#: that receives the span's self time).
TARGETS: Tuple[Tuple[str, str, Optional[str], str, str], ...] = (
    ("Session.load_dataset", "repro.core.session", "Session", "load_dataset",
     "graphs.load_dataset_s"),
    ("Session.sparsity_provider", "repro.core.session", "Session",
     "sparsity_provider", "gcn.measure_s"),
    ("MeasuredSparsityProvider.measure", "repro.gcn.providers",
     "MeasuredSparsityProvider", "measure", "gcn.measure_s"),
    ("pipeline.build_context", "repro.accelerator.pipeline", None,
     "build_context", "accelerator.build_context_s"),
    ("pipeline.schedule", "repro.accelerator.pipeline", None, "schedule",
     "accelerator.schedule_s"),
    ("pipeline.aggregation_access_trace", "repro.accelerator.pipeline", None,
     "aggregation_access_trace", "accelerator.trace_generation_s"),
    ("pipeline.replay", "repro.accelerator.pipeline", None, "replay",
     "accelerator.replay_s"),
    ("pipeline.timing", "repro.accelerator.pipeline", None, "timing",
     "accelerator.timing_s"),
    ("pipeline.energy", "repro.accelerator.pipeline", None, "energy",
     "accelerator.energy_s"),
    ("ReplayEngine.__init__", "repro.memory.replay", "ReplayEngine", "__init__",
     "memory.engine_build_s"),
    ("ReplayEngine.replay_many", "repro.memory.replay", "ReplayEngine",
     "replay_many", "memory.replay_evaluate_s"),
    ("ReplayEngine.replay_spectrum_many", "repro.memory.replay", "ReplayEngine",
     "replay_spectrum_many", "memory.replay_evaluate_s"),
    ("ReplayEngine.replay_spectrum", "repro.memory.replay", "ReplayEngine",
     "replay_spectrum", "memory.replay_evaluate_s"),
    ("ReplayEngine.replay", "repro.memory.replay", "ReplayEngine", "replay",
     "memory.replay_evaluate_s"),
    ("ResultStore.get", "repro.experiments.store", "ResultStore", "get",
     "experiments.store_get_s"),
    ("ResultStore.put", "repro.experiments.store", "ResultStore", "put",
     "experiments.store_put_s"),
    ("export_scenario_json", "repro.experiments.store", None,
     "export_scenario_json", "experiments.export_s"),
    ("export_summary_csv", "repro.experiments.store", None,
     "export_summary_csv", "experiments.export_s"),
    ("export_summary_json", "repro.experiments.store", None,
     "export_summary_json", "experiments.export_s"),
)

#: Metric of each span name.
SPAN_METRIC: Dict[str, str] = {target[0]: target[4] for target in TARGETS}

#: Self-time metrics, in report order.
SELF_TIME_METRICS: Tuple[str, ...] = tuple(dict.fromkeys(SPAN_METRIC.values()))

_EVALUATE_METRIC = "memory.replay_evaluate_s"


class Recorder:
    """In-memory span and count store for one traced sweep.

    Spans are ``[name, start, end, parent]`` lists (``parent`` is the index
    of the enclosing span, ``None`` for a root); ``run_id`` tags every span of
    the run when the document is written.
    """

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.engine_accesses = 0
        self.trace_edges = 0
        #: Datasets returned by ``Session.load_dataset`` keyed by identity; a
        #: memo hit returns the same object, so these are the ones built.
        self.datasets: Dict[int, object] = {}
        #: Sessions constructed while tracing (the runner builds its own).
        self.sessions: List[object] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    # ------------------------------------------------------------------ #
    def self_times(self) -> List[float]:
        """Per-span duration minus the duration of its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def root_of(self, index: int) -> int:
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return index

    def layer_times(self, root_name: str = SWEEP_SPAN) -> Dict[str, float]:
        """Self time per layer metric under the last ``root_name`` root span,
        plus that root's own self time as ``core.unattributed_s`` and its
        duration as ``trace.wall_s``."""
        roots = [i for i, span in enumerate(self.spans) if span[0] == root_name and span[3] is None]
        if not roots:
            raise RuntimeError(f"no {root_name!r} root span recorded")
        root = roots[-1]
        own = self.self_times()
        totals = {metric: 0.0 for metric in SELF_TIME_METRICS}
        for index, span in enumerate(self.spans):
            if index != root and self.root_of(index) == root:
                totals[SPAN_METRIC[span[0]]] += own[index]
        totals["core.unattributed_s"] = own[root]
        totals["trace.wall_s"] = self.spans[root][2] - self.spans[root][1]
        return totals

    def evaluate_calls(self, root_name: str = SWEEP_SPAN) -> int:
        """Replay evaluations requested by the pipeline (outermost calls only:
        ``replay`` delegating to ``replay_many`` counts once)."""
        count = 0
        for index, (name, _, _, parent) in enumerate(self.spans):
            if SPAN_METRIC.get(name) != _EVALUATE_METRIC:
                continue
            if parent is not None and SPAN_METRIC.get(self.spans[parent][0]) == _EVALUATE_METRIC:
                continue
            if self.spans[self.root_of(index)][0] == root_name:
                count += 1
        return count

    def span_count(self, name: str, root_name: str = SWEEP_SPAN) -> int:
        return sum(
            1
            for index, span in enumerate(self.spans)
            if span[0] == name and self.spans[self.root_of(index)][0] == root_name
        )

    def document(self) -> List[Dict[str, object]]:
        """The spans as JSON-ready records."""
        return [
            {"run": self.run_id, "id": index, "name": name, "start": start,
             "end": end, "parent": parent}
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #
def _count_engine(recorder: Recorder, args: tuple, result: object) -> None:
    recorder.engine_accesses += int(args[0].total_accesses)


def _count_trace(recorder: Recorder, args: tuple, result: object) -> None:
    recorder.trace_edges += int(args[0].num_edges)


def _count_dataset(recorder: Recorder, args: tuple, result: object) -> None:
    recorder.datasets[id(result)] = result


#: Per-call counters read from a wrapped call's arguments or result.
_COUNTERS: Dict[str, Callable[[Recorder, tuple, object], None]] = {
    "ReplayEngine.__init__": _count_engine,
    "pipeline.aggregation_access_trace": _count_trace,
    "Session.load_dataset": _count_dataset,
}


def _traced(recorder: Recorder, name: str, function: Callable) -> Callable:
    counter = _COUNTERS.get(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.end(index)
        if counter is not None:
            counter(recorder, args, result)
        return result

    return wrapper


def _capturing_init(recorder: Recorder, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(self, *args, **kwargs):
        function(self, *args, **kwargs)
        recorder.sessions.append(self)

    return wrapper


def _owner(module: str, cls: Optional[str]) -> object:
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls is not None else owner


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Install the layer wrappers for the duration of the block.

    Every original is taken from the owner's own ``__dict__`` and put back in
    ``finally``, so the program is untouched after the block even when it
    raised.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for name, module, cls, attribute, _ in TARGETS:
            owner = _owner(module, cls)
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _traced(recorder, name, original))
        session_cls = _owner("repro.core.session", "Session")
        original_init = vars(session_cls)["__init__"]
        saved.append((session_cls, "__init__", original_init))
        session_cls.__init__ = _capturing_init(recorder, original_init)
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
