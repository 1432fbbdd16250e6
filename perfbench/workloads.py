"""The benchmark's workloads: which scenario pack runs, at which scale, and why.

Each workload is a built-in ``repro`` scenario pack, optionally narrowed to a
slice of its axes.  The benchmark seed replaces the pack's ``seeds`` axis, so
the program only ever sees the generated scenarios.  The ``repro`` imports
happen inside :meth:`Workload.spec`, because the benchmark's parent process
never imports the program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario pack, a scale cap and an axis slice.

    Attributes:
        name: Workload name, as listed in ``BENCHMARK.json``.
        pack: Built-in scenario pack (``repro.experiments.scenarios``).
        max_vertices: Dataset scale cap shared by every scenario.
        datasets: Dataset slice of the pack; ``None`` keeps the pack's axis.
        depths: GCN-depth slice of the pack; ``None`` keeps the pack's axis.
        why: One line on why the workload is in the benchmark.
    """

    name: str
    pack: str
    max_vertices: int
    datasets: Optional[Tuple[str, ...]] = None
    depths: Optional[Tuple[int, ...]] = None
    why: str = ""

    def spec(self, seed: int):
        """The pack's ``SweepSpec`` at this workload's scale, slice and seed."""
        from repro.experiments.scenarios import get_pack

        spec = get_pack(self.pack, max_vertices=self.max_vertices)
        changes: Dict[str, object] = {"seeds": (int(seed),)}
        if self.datasets is not None:
            changes["datasets"] = self.datasets
        if self.depths is not None:
            changes["depths"] = self.depths
        return replace(spec, **changes)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-comparison-2048",
            pack="paper-comparison",
            max_vertices=2048,
            why=(
                "the 9-dataset x 6-accelerator figure grid (54 scenarios); "
                "replay engine builds dominate"
            ),
        ),
        Workload(
            name="sparsity-depth-measured",
            pack="sparsity-depth",
            max_vertices=256,
            datasets=("pubmed",),
            depths=(4, 16, 28),
            why=(
                "pubmed at depths 4, 16 and 28, residual and traditional: "
                "DeepGCN training dominates, the replay layer is bypassed"
            ),
        ),
    )
}
