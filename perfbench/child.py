"""One cold sweep of one workload, run in a fresh process by ``run.py``.

The sweep follows the sequence ``repro sweep`` runs: the workload's expanded
``SweepSpec`` goes to a serial ``SweepRunner`` over an empty ``ResultStore``,
then every scenario JSON, ``summary.csv`` and ``summary.json`` is exported.
``wall_s`` covers exactly that, from handing the scenarios to the runner until
the last export is written.  With ``--trace 1`` the layer wrappers of
:mod:`perfbench.tracer` are installed around the sweep, and a warm re-run
against the just-filled store follows it.

Usage (normally only from ``run.py``)::

    python3 perfbench/child.py --workload NAME --seed N --work DIR \
        --out RESULT.json --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402


def result_digest(result) -> str:
    """sha256 of the canonical result document (the golden-test convention)."""
    document = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def _digests(report) -> List[Optional[str]]:
    """One digest per scenario in sweep order; ``None`` for a failed or
    degraded scenario, whose result is not the nominal answer."""
    return [
        result_digest(outcome.result) if outcome.ok and not outcome.degraded else None
        for outcome in report.outcomes
    ]


def peak_rss_mb_of_this_process() -> float:
    """High-water RSS of this process's own address space.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries the parent's RSS at
    ``fork`` into the child's ``ru_maxrss`` across ``exec``, so that figure
    would report the memory of ``run.py`` instead of the workload's.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_sweep(
    workload: Workload,
    seed: int,
    work_dir: Path,
    recorder: Optional[tracer.Recorder] = None,
) -> Dict[str, object]:
    """Run the workload's cold sweep once and measure it.

    With a ``recorder`` the layer wrappers are installed for the sweep and a
    warm re-run, and the result carries the per-layer figures.
    """
    from repro.experiments import store as store_module
    from repro.experiments.runner import SweepRunner
    from repro.experiments.store import ResultStore, summary_row
    from repro.resilience.checkpoint import CHECKPOINT_FILENAME
    from repro.resilience.policy import ExecutionPolicy

    spec = workload.spec(seed)
    scenarios = spec.expand()
    store = ResultStore(work_dir / "cache")
    pack_dir = work_dir / "out" / spec.name
    runner = SweepRunner(
        store=store,
        workers=1,
        policy=ExecutionPolicy(),
        checkpoint_path=str(pack_dir / CHECKPOINT_FILENAME),
    )
    marks: List[float] = []

    def progress(outcome, finished: int, total: int) -> None:
        marks.append(time.perf_counter())

    tracing = tracer.installed(recorder) if recorder is not None else contextlib.nullcontext()
    root = recorder.span(tracer.SWEEP_SPAN) if recorder is not None else contextlib.nullcontext()
    with tracing:
        with root:
            started = time.perf_counter()
            report = runner.run(scenarios, progress=progress)
            rows = []
            for outcome in report.successes():
                store_module.export_scenario_json(pack_dir, outcome.scenario, outcome.result)
                rows.append(summary_row(outcome.scenario, outcome.result))
            if rows:
                store_module.export_summary_csv(pack_dir / "summary.csv", rows)
                store_module.export_summary_json(pack_dir / "summary.json", rows)
            finished = time.perf_counter()
        peak_rss_mb = peak_rss_mb_of_this_process()
        if recorder is not None:
            with recorder.span(tracer.RERUN_SPAN):
                rerun = SweepRunner(store=store, workers=1).run(scenarios)

    successes = report.successes()
    document: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "scenarios": len(scenarios),
        "wall_s": finished - started,
        "intervals_s": [b - a for a, b in zip([started] + marks[:-1], marks)],
        "peak_rss_mb": peak_rss_mb,
        "digests": _digests(report),
        "sim": {
            "cycles": sum(o.result.total_cycles for o in successes),
            "dram_bytes": sum(o.result.dram_traffic_bytes for o in successes),
            "cache_hit_rate": (
                sum(o.result.average_cache_hit_rate for o in successes) / len(successes)
                if successes else 0.0
            ),
        },
    }
    if recorder is not None:
        document["rerun_digests"] = _digests(rerun)
        document["rerun_cached"] = rerun.num_cached
        document["layers"] = _layer_metrics(recorder)
        document["spans"] = recorder.document()
    return document


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(recorder: tracer.Recorder) -> Dict[str, float]:
    """Per-layer self times, counts and throughputs of one traced sweep."""
    metrics: Dict[str, float] = dict(recorder.layer_times(tracer.SWEEP_SPAN))
    rerun = recorder.layer_times(tracer.RERUN_SPAN)
    metrics["experiments.rerun_s"] = rerun["trace.wall_s"]

    caches: Dict[str, Dict[str, int]] = {}
    for session in recorder.sessions:
        for cache, counters in session.metrics_snapshot()["caches"].items():
            merged = caches.setdefault(cache, {})
            for counter, value in counters.items():
                merged[counter] = merged.get(counter, 0) + int(value)
    dataset = caches.get("dataset", {})
    measurement = caches.get("measurement", {})
    trace = caches.get("trace", {})
    memo = caches.get("replay_memo", {})

    edges = sum(d.graph.num_edges for d in recorder.datasets.values())
    metrics["graphs.datasets_built"] = dataset.get("misses", 0)
    metrics["graphs.edges_per_s"] = _ratio(edges, metrics["graphs.load_dataset_s"])
    metrics["gcn.models_trained"] = measurement.get("misses", 0)
    metrics["accelerator.trace_edges_per_s"] = _ratio(
        recorder.trace_edges, metrics["accelerator.trace_generation_s"]
    )
    metrics["memory.engine_builds"] = recorder.span_count("ReplayEngine.__init__")
    metrics["memory.engine_build_accesses_per_s"] = _ratio(
        recorder.engine_accesses, metrics["memory.engine_build_s"]
    )
    metrics["memory.replay_evaluate_calls"] = recorder.evaluate_calls()
    metrics["memory.replay_memo_hit_ratio"] = _ratio(
        memo.get("hits", 0), memo.get("hits", 0) + memo.get("misses", 0)
    )
    metrics["memory.trace_cache_hit_ratio"] = _ratio(
        trace.get("hits", 0), trace.get("hits", 0) + trace.get("misses", 0)
    )
    metrics["memory.trace_cache_bytes"] = trace.get("bytes", 0)
    metrics["memory.trace_cache_evictions"] = trace.get("evictions", 0)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="empty directory for the store and exports")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args(argv)

    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"repro imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    recorder = tracer.Recorder(run_id=args.run_id) if args.trace else None
    document = run_sweep(WORKLOADS[args.workload], args.seed, Path(args.work), recorder)
    Path(args.out).write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
