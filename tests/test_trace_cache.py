"""Session-level trace caching."""

import json

from repro.core.runspec import RunSpec
from repro.core.session import Session


class TestSessionTraceCache:
    def test_sweep_over_timing_knobs_reuses_traces(self):
        # Cache-size and frequency overrides change timing, not the schedule
        # shape here: plan_tiling sees the same inputs, so the trace and its
        # replay structure are built once and reused across the grid.
        session = Session()
        specs = [
            RunSpec(
                dataset="cora",
                accelerator="gcnax",
                max_vertices=128,
                overrides={"frequency_ghz": freq},
            )
            for freq in (0.8, 1.0, 1.2, 1.4)
        ]
        session.run_many(specs)
        stats = session.trace_cache.stats()
        first_run_misses = stats["misses"]
        # Everything shareable (trace, engine, per-layer row tables) was
        # built exactly once: the remaining runs add no misses at all.
        session.run_many(specs)
        stats = session.trace_cache.stats()
        assert stats["misses"] == first_run_misses
        assert stats["hits"] >= 3 * len(specs)

    def test_cached_results_identical_to_cold_session(self):
        spec = RunSpec(dataset="citeseer", accelerator="sgcn", max_vertices=128)
        warm = Session()
        first = warm.run(spec).to_dict()
        second = warm.run(spec).to_dict()  # trace-cache hit path
        cold = Session().run(spec).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert json.dumps(first, sort_keys=True) == json.dumps(cold, sort_keys=True)

    def test_reordered_graph_cached_for_igcn(self):
        session = Session()
        spec = RunSpec(dataset="cora", accelerator="igcn", max_vertices=128)
        session.run(spec)
        misses_after_first = session.trace_cache.stats()["misses"]
        session.run(spec)
        assert session.trace_cache.stats()["misses"] == misses_after_first

    def test_clear_caches_drops_traces(self):
        session = Session()
        session.run(RunSpec(dataset="cora", accelerator="gcnax", max_vertices=128))
        assert len(session.trace_cache) > 0
        session.clear_caches()
        assert len(session.trace_cache) == 0

