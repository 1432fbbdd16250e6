"""Benchmark entry point: cold paper-figure sweeps, timed end to end, traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run first times set-up (fresh interpreter, ``import repro``,
``Session()``) several times, then repeats the workload's cold sweep, each in
a fresh subprocess (``child.py``), for at least ``--seconds`` seconds.  Every
repetition's per-scenario result digests are checked against the recorded
reference for the workload and seed (``references.json``) or, for a seed with
no reference, reported as unchecked and held to cross-run equality only.

``--trace 0`` reports the end-to-end metrics (medians over the run);
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of the median traced repetition, whose self times plus
``core.unattributed_s`` sum to its ``trace.wall_s``.  The last line of
standard output is the JSON result; the lines before it are the same metrics
as a table plus the host and check report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics (``--trace 0``): name -> unit.  All host time or memory.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "scenario_p50_s": "s",
    "scenario_p80_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {
    "setup.import_s": "s",
    "graphs.load_dataset_s": "s",
    "graphs.datasets_built": "count",
    "graphs.edges_per_s": "edges/s",
    "gcn.measure_s": "s",
    "gcn.models_trained": "count",
    "accelerator.build_context_s": "s",
    "accelerator.schedule_s": "s",
    "accelerator.trace_generation_s": "s",
    "accelerator.trace_edges_per_s": "edges/s",
    "accelerator.replay_s": "s",
    "accelerator.timing_s": "s",
    "accelerator.energy_s": "s",
    "memory.engine_build_s": "s",
    "memory.engine_builds": "count",
    "memory.engine_build_accesses_per_s": "accesses/s",
    "memory.replay_evaluate_s": "s",
    "memory.replay_evaluate_calls": "count",
    "memory.replay_memo_hit_ratio": "ratio",
    "memory.trace_cache_hit_ratio": "ratio",
    "memory.trace_cache_bytes": "bytes",
    "memory.trace_cache_evictions": "count",
    "experiments.store_get_s": "s",
    "experiments.store_put_s": "s",
    "experiments.export_s": "s",
    "experiments.rerun_s": "s",
    "core.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "sim.cycles": "cycles",
    "sim.dram_bytes": "bytes",
    "sim.cache_hit_rate": "ratio",
}

#: Fewest cold repetitions per run, whatever ``--seconds`` says.  Each
#: repetition is followed by one set-up probe (after one untimed warm-up probe
#: that compiles bytecode and warms the file cache), so this is also the
#: fewest set-up samples behind the reported median.
MIN_REPETITIONS = 5

#: Each repetition must finish within this many seconds.
CHILD_TIMEOUT_S = 150.0

#: Leading hex digits of each result digest kept in ``references.json``.
REFERENCE_DIGITS = 16

#: Native thread pools are capped at one thread: one serial load generator
#: at a time, so the benchmark never runs more threads than the host's cores.
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, or a repetition crashed)."""


def child_env() -> Dict[str, str]:
    """Environment of every subprocess: capped thread pools, the checkout's
    ``src`` first on the path, and bytecode caching on (whatever the caller's
    environment says), so set-up is timed as an installed package pays it
    once the warm-up probe has compiled the modules."""
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def check_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def setup_probe(env: Dict[str, str]) -> Tuple[float, float]:
    """One fresh interpreter: (interpreter start to ``Session()``, import time)."""
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{completed.stderr}")
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    if ROOT / "src" not in Path(probe["module"]).resolve().parents:
        raise BenchmarkError(f"set-up probe imported repro from {probe['module']}")
    return probe["ready"] - started, probe["import_s"]


def run_repetition(
    workload: str, seed: int, traced: bool, run_id: int, work: Path, env: Dict[str, str]
) -> Dict[str, object]:
    """One cold sweep in a fresh subprocess, over an empty store.

    Its files stay until the run is over (the caller removes ``work``), so
    no deletion overlaps a later timing.
    """
    rep_dir = work / f"rep{run_id}"
    rep_dir.mkdir(parents=True)
    out = work / f"rep{run_id}.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(seed), "--work", str(rep_dir), "--out", str(out),
         "--trace", "1" if traced else "0", "--run-id", str(run_id)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchmarkError(
            f"repetition {run_id} exited with {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(out.read_text())


def load_reference(workload: str, seed: int) -> Optional[List[str]]:
    path = HERE / "references.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def check_outputs(
    reps: List[Dict[str, object]], reference: Optional[List[str]]
) -> Tuple[int, int, List[str]]:
    """Compare every repetition's digests with the reference (or, without
    one, with the first repetition).  Returns (attempted, failed, notes)."""
    baseline = reference or [
        d[:REFERENCE_DIGITS] if d else None for d in reps[0]["digests"]
    ]
    attempted = failed = 0
    notes: List[str] = []
    for rep in reps:
        groups = [("sweep", rep["digests"])]
        if "rerun_digests" in rep:
            groups.append(("store re-run", rep["rerun_digests"]))
        for label, digests in groups:
            attempted += len(digests)
            if len(digests) != len(baseline):
                failed += len(digests)
                notes.append(f"{label}: {len(digests)} scenarios, reference has {len(baseline)}")
                continue
            bad = sum(
                1 for d, want in zip(digests, baseline)
                if d is None or want is None or d[:REFERENCE_DIGITS] != want
            )
            if bad:
                failed += bad
                notes.append(f"{label}: {bad} of {len(digests)} digests differ")
    traced = {tuple(r["digests"]) for r in reps if "layers" in r}
    untraced = {tuple(r["digests"]) for r in reps if "layers" not in r}
    if traced and untraced and traced != untraced:
        notes.append("traced digests differ from untraced digests")
    return attempted, failed, notes


def percentile(values: List[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end_metrics(setup: List[float], reps: List[Dict[str, object]]) -> Dict[str, float]:
    """Medians of the run; times are scaled by each measurement's
    calibration factor (see :mod:`perfbench.calibrate`).

    The scenario percentiles are taken across the scenarios of the sweep,
    each scenario's completion interval being its median over the
    repetitions.  A serial sweep completes its scenarios in the same order on
    every repetition, so interval ``i`` is the same scenario throughout.
    """
    per_scenario = [
        statistics.median(rep["intervals_s"][i] * rep["scale"] for rep in reps)
        for i in range(len(reps[0]["intervals_s"]))
    ]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rep["wall_s"] * rep["scale"] for rep in reps),
        "scenario_p50_s": percentile(per_scenario, 0.5),
        "scenario_p80_s": percentile(per_scenario, 0.8),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer_metrics(
    imports: List[float], reps: List[Dict[str, object]]
) -> Dict[str, float]:
    traced = [rep for rep in reps if "layers" in rep]
    untraced = [rep for rep in reps if "layers" not in rep]
    ordered = sorted(traced, key=lambda rep: rep["layers"]["trace.wall_s"])
    median_rep = ordered[(len(ordered) - 1) // 2]
    metrics = dict(median_rep["layers"])
    metrics["setup.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = statistics.median(
        rep["layers"]["trace.wall_s"] for rep in traced
    ) - statistics.median(rep["wall_s"] for rep in untraced)
    for name, value in median_rep["sim"].items():
        metrics[f"sim.{name}"] = value
    return metrics


def scale(kernel: List[float]) -> float:
    """Calibration factor of a measurement bracketed by two kernel timings."""
    return calibrate.REFERENCE_S / statistics.mean(kernel)


def host_report() -> str:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return (
        f"host: nproc={os.cpu_count()} cpu={model!r} python={platform.python_version()} "
        f"numpy={numpy_version}"
    )


# --------------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    check_program()
    os.environ.update(THREAD_CAPS)  # before the calibration kernel imports numpy
    # One CPU for this process and every subprocess it starts: the load is
    # serial anyway, and the calibration kernel then sees the contention the
    # measured process saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        setup_probe(env)  # warm-up: bytecode compilation and file cache
        kernel = [calibrate.kernel_seconds(work / "kernel0")]
        probes: List[Tuple[float, float]] = []
        reps: List[Dict[str, object]] = []
        started = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 0
            rep = run_repetition(workload, seed, traced, len(reps), work, env)
            probes.append(setup_probe(env))
            kernel.append(calibrate.kernel_seconds(work / f"kernel{len(kernel)}"))
            rep["scale"] = scale(kernel[-2:])
            reps.append(rep)
            both = not trace or (
                any("layers" in r for r in reps) and any("layers" not in r for r in reps)
            )
            if (
                both
                and len(reps) >= MIN_REPETITIONS
                and time.perf_counter() - started >= seconds
            ):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    reference = load_reference(workload, seed)
    attempted, failed, notes = check_outputs(reps, reference)
    untraced = [rep for rep in reps if "layers" not in rep]
    if trace:
        metrics = per_layer_metrics([p[1] for p in probes], reps)
        units = PER_LAYER
        spans = [span for rep in reps if "spans" in rep for span in rep["spans"]]
        trace_path = ROOT / ".perfbench_out" / f"trace-{workload}-seed{seed}.json"
        trace_path.parent.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}))
        notes.append(f"trace document: {trace_path.relative_to(ROOT)} ({len(spans)} spans)")
    else:
        metrics = end_to_end_metrics(
            [probe[0] * rep["scale"] for probe, rep in zip(probes, reps)], untraced
        )
        units = END_TO_END

    samples = len(untraced[0]["intervals_s"])
    status = (
        f"reference: {'checked' if reference else 'unchecked'} "
        f"({'recorded' if reference else 'no recorded reference'} for seed {seed}); "
        "cross-repetition, traced==untraced and store re-run digests compared"
    )
    report = [
        f"workload {workload} seed {seed}: {len(reps)} cold repetitions "
        f"({len(untraced)} untraced), scenario percentiles over {samples} scenarios, "
        f"{len(probes)} set-up probes",
        status,
        host_report(),
        f"calibration: kernel median {statistics.median(kernel):.4f} s over {len(kernel)} timings, "
        f"reference {calibrate.REFERENCE_S} s; end-to-end times are scaled by reference/kernel, "
        f"raw median wall {statistics.median(rep['wall_s'] for rep in untraced):.4f} s, "
        f"raw median set-up {statistics.median(p[0] for p in probes):.4f} s",
        "model: unvalidated (the repository holds no hardware reference, so no error figure is given)",
        *notes,
    ]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "report": report,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for line in result.pop("report"):
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name:<38} {metric['value']:>18.6f} {metric['unit']}")
    if not result["correct"]:
        print("OUTPUT CHECK FAILED", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
