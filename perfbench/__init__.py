"""The repository benchmark: cold scenario-pack sweeps, timed end to end and traced per layer.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
