"""Record the reference result digests the benchmark checks its outputs against.

Usage, from the root of a checkout::

    python3 perfbench/record_references.py --seeds 0-31 [--workload NAME ...]

Runs each workload's cold sweep once per seed, in a fresh subprocess exactly
as a benchmark repetition, and stores the first ``REFERENCE_DIGITS`` hex digits
of every scenario's result digest in ``perfbench/references.json`` (merged
with the entries already there).  Record references only from a commit whose
results are known good: a simulator-speed change must reproduce them exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from perfbench import run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

REFERENCES = HERE / "references.json"


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,9")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    run.check_program()
    os.environ.update(run.THREAD_CAPS)
    env = run.child_env()
    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    work = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        jobs = [(name, seed) for name in args.workload or list(WORKLOADS)
                for seed in parse_seeds(args.seeds)]
        for job, (name, seed) in enumerate(jobs):
            rep = run.run_repetition(name, seed, False, job, work, env)
            if None in rep["digests"]:
                print(f"{name} seed {seed}: a scenario failed; not recorded", file=sys.stderr)
                return 1
            digests = [d[: run.REFERENCE_DIGITS] for d in rep["digests"]]
            references.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
