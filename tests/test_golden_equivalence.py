"""Golden equivalence: the simulator vs its slow reference oracles.

For every built-in dataset x accelerator x variant, a plain ``Session`` must
produce byte-identical ``SimulationResult`` documents to the same grid run
with the pipeline's fast paths swapped for the loop oracles of
``tests/oracles.py``: loop-based trace generation and BFS reordering, and a
``RowCache``-backed stand-in for the replay engine.  That makes this a
whole-pipeline equivalence check; the per-trace statistics are compared
directly below.
"""

import json

import numpy as np
import pytest

from oracles import (
    RowCache,
    RowCacheEngine,
    aggregation_access_trace_reference,
    locality_reordering_reference,
)
from repro.accelerator import pipeline
from repro.accelerator.registry import ACCELERATORS
from repro.accelerator.pipeline import GCN_VARIANTS, build_context, schedule
from repro.core.config import SystemConfig
from repro.core.runspec import RunSpec
from repro.core.session import Session
from repro.graphs.datasets import FIGURE_ORDER
from repro.memory.replay import ReplayEngine

#: Scale cap keeping the full grid fast while still exercising tiling,
#: engine interleaving, pinned partitions, and every feature format.
GOLDEN_MAX_VERTICES = 96

ALL_ACCELERATORS = tuple(sorted(ACCELERATORS.names()))


def run_grid(dataset_name, variant):
    """One result document per accelerator, from a fresh session."""
    session = Session()
    documents = {}
    for accelerator in ALL_ACCELERATORS:
        spec = RunSpec(
            dataset=dataset_name,
            accelerator=accelerator,
            variant=variant,
            max_vertices=GOLDEN_MAX_VERTICES,
        )
        documents[accelerator] = json.dumps(
            session.run(spec).to_dict(), sort_keys=True
        )
    return documents


@pytest.mark.parametrize("variant", GCN_VARIANTS)
@pytest.mark.parametrize("dataset_name", FIGURE_ORDER)
def test_simulation_results_byte_identical(dataset_name, variant, monkeypatch):
    simulator = run_grid(dataset_name, variant)
    monkeypatch.setattr(
        pipeline, "aggregation_access_trace", aggregation_access_trace_reference
    )
    monkeypatch.setattr(pipeline, "locality_reordering", locality_reordering_reference)
    monkeypatch.setattr(pipeline, "ReplayEngine", RowCacheEngine)
    oracle = run_grid(dataset_name, variant)
    for accelerator in ALL_ACCELERATORS:
        assert simulator[accelerator] == oracle[accelerator], (
            dataset_name,
            accelerator,
            variant,
        )


@pytest.mark.parametrize("accelerator", ["gcnax", "hygcn", "engn", "igcn", "sgcn"])
def test_rowcache_stats_bit_identical_on_real_traces(accelerator):
    """The per-trace statistics themselves (not just the end results) agree."""
    session = Session()
    dataset = session.load_dataset("pubmed", max_vertices=192)
    model = ACCELERATORS.factory(accelerator)()
    context = schedule(
        build_context(model.design, model.feature_format, dataset, SystemConfig())
    )
    if context.trace.size == 0:
        pytest.skip("column-product design replays no trace")
    rng = np.random.default_rng(0)
    engine = ReplayEngine(context.trace)
    for _ in range(3):
        sizes = rng.integers(1, 9, size=dataset.graph.num_vertices).astype(np.int64)
        capacity = int(rng.integers(8, context.cache_lines + 1))
        got = engine.replay(sizes, capacity)
        want = RowCache(capacity).access_trace(context.trace, sizes)
        assert (got.accesses, got.hits, got.hit_lines, got.miss_lines) == (
            want.accesses,
            want.hits,
            want.hit_lines,
            want.miss_lines,
        )
        assert got.misses == want.misses
