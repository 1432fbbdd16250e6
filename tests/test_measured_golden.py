"""Golden results of measured-sparsity runs.

``tests/golden_measured_digests.json`` pins the SHA-256 of the canonical
``SimulationResult`` JSON of a small grid of measured-mode runs: a trained
``DeepGCN`` (residual and traditional) on cora and pubmed at two depths.
Every number in those results passes through the GCN layers' forward and
backward aggregation, so any drift in the numpy GCN path — a different
float32 summation order included — shows up here, not only in the synthetic
design goldens.

Regenerate (only for an intended result change) with::

    PYTHONPATH=src python tests/test_measured_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import RunSpec, Session

GOLDEN_PATH = Path(__file__).parent / "golden_measured_digests.json"

MAX_VERTICES = 128
DATASETS = ("cora", "pubmed")
DEPTHS = (4, 16)
MODES = ("measured", "measured-traditional")
ACCELERATOR = "sgcn"


def golden_key(dataset: str, depth: int, mode: str) -> str:
    return f"{dataset}/{depth}/{mode}"


def measured_digest(session: Session, dataset: str, depth: int, mode: str) -> str:
    spec = RunSpec(
        dataset=dataset,
        accelerator=ACCELERATOR,
        max_vertices=MAX_VERTICES,
        num_layers=depth,
        sparsity=mode,
    )
    doc = json.dumps(session.run(spec).to_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("dataset", DATASETS)
def test_measured_results_byte_identical_to_golden(dataset):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["max_vertices"] == MAX_VERTICES
    session = Session()
    mismatches = [
        golden_key(dataset, depth, mode)
        for depth in DEPTHS
        for mode in MODES
        if measured_digest(session, dataset, depth, mode)
        != golden["digests"][golden_key(dataset, depth, mode)]
    ]
    assert not mismatches, f"measured-mode result drift: {mismatches}"


def test_golden_covers_the_grid():
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = {
        golden_key(dataset, depth, mode)
        for dataset in DATASETS
        for depth in DEPTHS
        for mode in MODES
    }
    assert set(golden["digests"]) == expected


def record() -> None:
    session = Session()
    digests = {
        golden_key(dataset, depth, mode): measured_digest(session, dataset, depth, mode)
        for dataset in DATASETS
        for depth in DEPTHS
        for mode in MODES
    }
    document = {
        "accelerator": ACCELERATOR,
        "max_vertices": MAX_VERTICES,
        "digests": digests,
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_measured_golden.py --record")
    record()
