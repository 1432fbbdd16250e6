"""The interprocedural flow layer: golden map, chaos self-test, mutation gate.

Three layers of defence for the F-rules:

* the *golden map* pins the derived stage→attribute read-sets over ``src``,
  so any new knob read must consciously update an identity, the ledger, or
  the golden file;
* the *chaos tests* generate randomized synthetic modules with known
  read/call structure and assert the propagation matches an independently
  computed closure, and that F1/F2 flag exactly the planted leaks;
* the *mutation test* copies the real pipeline into a scratch tree, plants
  an un-keyed knob read in the ``schedule`` stage, and proves the lint gate
  goes red (and is clean on the unmutated copy).
"""

from __future__ import annotations

import json
import random
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import get_rules, run_lint
from repro.analysis.audit import audit_document, run_audit
from repro.analysis.engine import load_project
from repro.analysis.rules.identity import project_flow

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
GOLDEN = Path(__file__).resolve().parent / "golden_identity_flow.json"

#: The real modules the mutation test copies (a closed F1/F2 slice of src).
PIPELINE_SLICE = (
    "repro/core/config.py",
    "repro/core/runspec.py",
    "repro/core/session.py",
    "repro/accelerator/design.py",
    "repro/accelerator/pipeline.py",
)


# --------------------------------------------------------------------------- #
# Golden stage→attribute map
# --------------------------------------------------------------------------- #
def test_derived_read_map_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    doc = audit_document(run_audit([SRC]))
    assert doc["stage_reads"] == golden["stage_reads"], (
        "the derived stage→attribute map changed; if the new read is "
        "intentional, update an identity (or the exemption ledger) and "
        "regenerate tests/golden_identity_flow.json"
    )
    assert doc["coverage"] == golden["coverage"]
    assert doc["replay_knobs"] == golden["replay_knobs"]
    assert doc["supported_overrides"] == golden["supported_overrides"]
    derived = [
        {"key": row["key"], "declared": row["declared"], "derived": row["derived"]}
        for row in doc["partition"]
    ]
    assert derived == golden["partition"]
    assert doc["ok"] is True


def test_src_audit_has_no_missing_coverage():
    report = run_audit([SRC])
    assert report.ok
    for row in report.coverage:
        assert not row.missing, (row.class_name, row.missing)
    for entry in report.exemptions:
        assert entry.reason, (entry.path, entry.line, entry.subject)


# --------------------------------------------------------------------------- #
# Chaos: randomized synthetic modules
# --------------------------------------------------------------------------- #
FIELDS = ("alpha", "beta", "gamma", "delta", "epsilon")


def _synth_f1_module(rng: random.Random) -> tuple[str, set[str], set[str]]:
    """A random call DAG over RunSpec readers.

    Returns (source, expected transitive read-set of the stage, planted
    leaks = reads outside key()'s coverage).
    """
    n = rng.randint(4, 7)
    reads = {i: sorted(rng.sample(FIELDS, rng.randint(0, 3))) for i in range(n)}
    calls = {}
    for i in range(n):
        later = list(range(i + 1, n))
        calls[i] = sorted(rng.sample(later, min(len(later), rng.randint(0, 2))))
    if n > 1 and rng.random() < 0.5:
        calls[n - 1] = [0]  # cycle back to the root: convergence must hold
    covered = set(rng.sample(FIELDS, rng.randint(1, len(FIELDS))))

    lines = [
        "from dataclasses import dataclass",
        "from typing import Dict",
        "",
        "",
        "@dataclass(frozen=True)",
        "class RunSpec:",
    ]
    for name in FIELDS:
        lines.append(f"    {name}: int")
    lines.append("")
    lines.append("    def key(self) -> Dict[str, object]:")
    lines.append(
        "        return {"
        + ", ".join(f'"{name}": self.{name}' for name in sorted(covered))
        + "}"
    )
    for i in range(n):
        name = "schedule" if i == 0 else f"helper_{i}"
        lines.append("")
        lines.append("")
        lines.append(f"def {name}(spec: RunSpec) -> int:")
        lines.append("    total = 0")
        for attr in reads[i]:
            lines.append(f"    total += spec.{attr}")
        for j in calls[i]:
            callee = "schedule" if j == 0 else f"helper_{j}"
            lines.append(f"    total += {callee}(spec)")
        lines.append("    return total")

    # Independent closure: BFS over the generated spec, not the analyzer.
    seen, stack = set(), [0]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        stack.extend(calls[i])
    expected = {attr for i in seen for attr in reads[i]}
    return "\n".join(lines) + "\n", expected, expected - covered


@pytest.mark.parametrize("seed", range(12))
def test_chaos_propagation_and_f1_flags_planted_leaks(tmp_path, seed):
    rng = random.Random(seed)
    source, expected, leaks = _synth_f1_module(rng)
    target = tmp_path / f"chaos_f1_{seed}.py"
    target.write_text(source)

    modules, parse_findings = load_project([target])
    assert not parse_findings, source
    flow = project_flow(modules)
    roots = flow.stage_roots()
    assert roots, source
    derived = {
        attr for (_, attr) in flow.reads_from(roots) if attr in FIELDS
    }
    assert derived == expected, source

    report = run_lint([target], get_rules(["F1"]))
    flagged = {finding.message.split(" ", 1)[0] for finding in report.findings}
    assert flagged == {f"RunSpec.{attr}" for attr in leaks}, source


def _synth_f2_module(rng: random.Random) -> tuple[str, int]:
    """A random override surface + partition.  Returns (source, expected
    F2 finding count): one per schedule-side read of a replay-classed knob,
    plus one per replay-only key missing from the class."""
    fields = list(FIELDS)
    sched_reads = set(rng.sample(fields, rng.randint(0, 3)))
    replay_reads = set(rng.sample(fields, rng.randint(0, 3)))
    knobs = set(rng.sample(fields, rng.randint(0, len(fields))))

    misclassed = sched_reads & knobs
    unclassified = {
        key
        for key in set(fields) - knobs
        if key in replay_reads and key not in sched_reads
    }

    lines = [
        "from dataclasses import dataclass, replace",
        "from typing import Mapping",
        "",
        f"SUPPORTED_OVERRIDES = {tuple(sorted(fields))!r}",
        "",
        f"REPLAY_KNOB_OVERRIDES = frozenset({tuple(sorted(knobs))!r})",
        "",
        "",
        "@dataclass(frozen=True)",
        "class CacheConfig:",
    ]
    for name in fields:
        lines.append(f"    {name}: int")
    lines += [
        "",
        "",
        "def build_config(overrides: Mapping[str, object]) -> CacheConfig:",
        "    cache = CacheConfig("
        + ", ".join(f"{name}=1" for name in fields)
        + ")",
    ]
    for name in fields:
        lines.append(f'    if "{name}" in overrides:')
        lines.append(
            f"        cache = replace(cache, {name}=int(overrides[\"{name}\"]))"
            "  # type: ignore[call-overload]"
        )
    lines.append("    return cache")
    for stage, attrs in (("build_context", sched_reads), ("replay", replay_reads)):
        lines += ["", "", f"def {stage}(config: CacheConfig) -> int:", "    total = 0"]
        for attr in sorted(attrs):
            lines.append(f"    total += config.{attr}")
        lines.append("    return total")
    return "\n".join(lines) + "\n", len(misclassed) + len(unclassified)


@pytest.mark.parametrize("seed", range(12))
def test_chaos_f2_flags_exactly_the_planted_partition_errors(tmp_path, seed):
    rng = random.Random(1000 + seed)
    source, expected_count = _synth_f2_module(rng)
    target = tmp_path / f"chaos_f2_{seed}.py"
    target.write_text(source)
    report = run_lint([target], get_rules(["F2"]))
    assert len(report.findings) == expected_count, source
    assert all(finding.rule == "F2" for finding in report.findings)


# --------------------------------------------------------------------------- #
# Mutation: the gate goes red when a stage grows an un-keyed knob read
# --------------------------------------------------------------------------- #
MUTATION = textwrap.dedent(
    '''

    def schedule(context: RunContext) -> RunContext:
        """Mutated stage: reads knobs outside their declared class."""
        _ = context.config.cache.replacement
        _ = context.config.engines.frequency_ghz
        return context
    '''
)


def _copy_slice(tmp_path: Path) -> Path:
    scratch = tmp_path / "pipeline_copy"
    scratch.mkdir()
    for relative in PIPELINE_SLICE:
        shutil.copy(SRC / relative, scratch / Path(relative).name)
    return scratch


def test_unmutated_pipeline_slice_is_clean(tmp_path):
    scratch = _copy_slice(tmp_path)
    report = run_lint([scratch], get_rules(["F1", "F2"]))
    assert report.ok, [finding.location() for finding in report.findings]


def test_mutated_schedule_read_turns_f1_and_f2_red(tmp_path):
    scratch = _copy_slice(tmp_path)
    pipeline = scratch / "pipeline.py"
    pipeline.write_text(pipeline.read_text() + MUTATION)
    report = run_lint([scratch], get_rules(["F1", "F2"]))
    assert not report.ok
    rules = {finding.rule for finding in report.findings}
    assert "F1" in rules  # CacheConfig.replacement is outside the identity
    assert "F2" in rules  # frequency_ghz is replay-classed but schedule-read
    messages = " ".join(finding.message for finding in report.findings)
    assert "CacheConfig.replacement" in messages
    assert "frequency_ghz" in messages


#: Mutable module global read inside the replay engine's build and its
#: pinned-partition evaluation (both feed the engine's result memo).
REPLAY_MUTATIONS = (
    ("        num_levels = (n - 1).bit_length()\n",
     "        num_levels = (n - 1).bit_length() + _planted[0]\n"),
    ("        sizes = table[self.trace]\n",
     "        sizes = table[self.trace] + _planted[0]\n"),
)


def test_mutated_replay_engine_read_turns_f3_red(tmp_path):
    source = (SRC / "repro/memory/replay.py").read_text()
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "replay.py").write_text(source)
    assert run_lint([clean], get_rules(["F3"])).ok

    mutated = tmp_path / "mutated"
    mutated.mkdir()
    source = source.replace("_INDEX_DTYPE = np.int32\n", "_INDEX_DTYPE = np.int32\n_planted = [0]\n", 1)
    for before, after in REPLAY_MUTATIONS:
        assert source.count(before) == 1, before
        source = source.replace(before, after)
    (mutated / "replay.py").write_text(source)
    report = run_lint([mutated], get_rules(["F3"]))
    flagged = {finding.message.split()[0] for finding in report.findings}
    assert flagged == {"_build_structure", "_access_sizes"}
