"""Self-tests of the benchmark: tracing, metric names, tiny workloads, refusal."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import run, tracer  # noqa: E402
from perfbench.child import run_sweep  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Each workload shrunk so the whole set runs in seconds.
TINY = {
    "paper-comparison-2048": {"max_vertices": 64},
    "sparsity-depth-measured": {"max_vertices": 64, "depths": (4,)},
}


def _originals():
    found = {}
    for name, module, cls, attribute, _ in tracer.TARGETS:
        owner = tracer._owner(module, cls)
        found[name] = (owner, attribute, vars(owner)[attribute])
    session = tracer._owner("repro.core.session", "Session")
    found["Session.__init__"] = (session, "__init__", vars(session)["__init__"])
    return found


def test_wrappers_install_and_restore():
    originals = _originals()
    with tracer.installed(tracer.Recorder()):
        for owner, attribute, original in originals.values():
            wrapper = vars(owner)[attribute]
            assert wrapper is not original
            assert wrapper.__wrapped__ is original
    for owner, attribute, original in originals.values():
        assert vars(owner)[attribute] is original


def test_wrappers_restore_after_an_exception():
    originals = _originals()
    with pytest.raises(KeyError):
        with tracer.installed(tracer.Recorder()):
            raise KeyError("boom")
    for owner, attribute, original in originals.values():
        assert vars(owner)[attribute] is original


def test_every_printed_name_matches_benchmark_json():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert manifest["paths"] == ["perfbench"]
    layer_times = set(tracer.SELF_TIME_METRICS) | {"core.unattributed_s", "trace.wall_s"}
    assert layer_times <= set(run.PER_LAYER)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_traced_equals_untraced(name, tmp_path):
    workload = replace(WORKLOADS[name], **TINY[name])
    plain = run_sweep(workload, 0, tmp_path / "plain")
    traced = run_sweep(workload, 0, tmp_path / "traced", tracer.Recorder())

    assert len(plain["digests"]) == plain["scenarios"] > 0
    assert None not in plain["digests"]
    assert traced["digests"] == plain["digests"]
    assert traced["rerun_digests"] == plain["digests"]
    assert traced["rerun_cached"] == plain["scenarios"]
    assert len(plain["intervals_s"]) == plain["scenarios"]

    layers = traced["layers"]
    parts = [layers[m] for m in tracer.SELF_TIME_METRICS] + [layers["core.unattributed_s"]]
    assert sum(parts) == pytest.approx(layers["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert min(parts) >= 0.0
    assert layers["graphs.datasets_built"] > 0
    if name == "sparsity-depth-measured":
        assert layers["gcn.models_trained"] > 0
    else:
        assert layers["memory.engine_builds"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-comparison-2048",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_output_check_counts_mismatches():
    reps = [
        {"digests": ["a" * 64, "b" * 64]},
        {"digests": ["a" * 64, None]},
    ]
    attempted, failed, _ = run.check_outputs(reps, None)
    assert (attempted, failed) == (4, 1)
    attempted, failed, _ = run.check_outputs(reps, ["a" * 16, "c" * 16])
    assert (attempted, failed) == (4, 2)
