"""Identity-neutrality rules: observation must never touch the results.

PR 6's telemetry plane is pinned identity-neutral (243 golden digests are
byte-identical with spans on).  Two leak vectors are mechanical enough to
lint:

* **N1** — wall-clock reads (``time.time``/``perf_counter``/``monotonic``)
  outside the layers that own timing (``telemetry/`` and ``resilience/``).  A timing call in simulation code is either dead weight
  or — worse — an input to a result.  Intentional CLI progress/ETA timing
  carries an explicit ``# repro: noqa[N1]`` with its reason.
* **N2** — ``print(...)`` outside the CLI's ``OutputWriter`` and
  ``telemetry.logs``.  Everything else narrates through the ``repro.*``
  logger, so ``--quiet`` and machine-readable stdout stay trustworthy.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List

from repro.analysis.engine import ContextVisitor, Finding, LintModule, Rule

#: Wall-clock entry points of the stdlib ``time`` module.
_TIMING_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)

#: Path components whose modules own wall-clock access.  ``resilience`` is
#: timing infrastructure by definition (deadlines, backoff, reclamation);
#: none of it ever enters a simulated result.
_TIMING_ALLOWED_COMPONENTS = frozenset({"telemetry", "resilience"})

#: Class whose methods are the CLI's one print funnel.
_PRINT_FUNNEL_CLASS = "OutputWriter"


def _path_components(module: LintModule) -> FrozenSet[str]:
    return frozenset(module.path.parts)


class TimingOutsideTelemetryRule(Rule):
    """N1: wall-clock reads live in telemetry/ and resilience/ only."""

    rule_id = "N1"
    name = "timing-outside-telemetry"
    summary = (
        "no time.time/perf_counter/monotonic outside telemetry/ and resilience/ "
        "(intentional CLI timing carries a noqa with its reason)"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if _TIMING_ALLOWED_COMPONENTS & _path_components(module):
            return iter(())
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve(node.func)
            if resolved in _TIMING_CALLS:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{resolved} outside telemetry//resilience/ risks leaking "
                        "wall-clock into simulated results; route timing "
                        "through repro.telemetry spans",
                    )
                )
        return iter(findings)


class _PrintVisitor(ContextVisitor):
    def __init__(self, rule: "PrintOutsideWriterRule", module: LintModule):
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not any(cls.name == _PRINT_FUNNEL_CLASS for cls in self.class_stack)
        ):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    "print() outside OutputWriter/telemetry.logs; route "
                    "narration through the repro.* logger or OUT.data/info/"
                    "error so --quiet and redirection behave",
                )
            )
        self.generic_visit(node)


class PrintOutsideWriterRule(Rule):
    """N2: every printed line goes through the one CLI funnel."""

    rule_id = "N2"
    name = "print-outside-writer"
    summary = (
        "no print() under src/ outside the CLI OutputWriter and "
        "telemetry.logs; use the repro.* logger or the OUT funnel"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if module.path.name == "logs.py" and "telemetry" in module.path.parts:
            return iter(())
        visitor = _PrintVisitor(self, module)
        visitor.visit(module.tree)
        return iter(visitor.findings)


__all__ = ["PrintOutsideWriterRule", "TimingOutsideTelemetryRule"]
