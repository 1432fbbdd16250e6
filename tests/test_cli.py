"""End-to-end tests of the ``python -m repro`` command line."""

from __future__ import annotations

import csv
import json

import pytest

from repro.experiments.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "paper-comparison" in out
    assert "sgcn" in out


def test_sweep_dry_run_expands_all_packs(capsys):
    assert main(["sweep", "all", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "nothing simulated" in out
    assert "paper-comparison" in out


def test_run_command_prints_summary(capsys):
    assert main(
        [
            "run", "--dataset", "cora", "--accelerator", "sgcn",
            "--max-vertices", "64", "--layers", "4",
            "--set", "num_engines=4",
        ]
    ) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["dataset"] == "cora"
    assert summary["cycles"] > 0
    assert json.loads(summary["overrides"]) == {"num_engines": 4}


def test_sweep_run_cache_and_export(tmp_path, capsys):
    out_dir = tmp_path / "results"
    argv = [
        "sweep", "hbm-generation",
        "--workers", "2",
        "--out", str(out_dir),
        "--max-vertices", "64",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "18 simulated, 0 cache hits, 0 failed" in first

    pack_dir = out_dir / "hbm-generation"
    scenario_files = [
        path for path in pack_dir.glob("*.json")
        if path.name not in ("summary.json", "checkpoint.json")
    ]
    assert len(scenario_files) == 18
    assert (pack_dir / "checkpoint.json").is_file()
    with (pack_dir / "summary.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 18
    assert {row["tag"] for row in rows} == {"HBM1", "HBM2"}

    # Second invocation is answered entirely from the cache.
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 simulated, 18 cache hits, 0 failed" in second

    # Export merges the per-scenario JSON documents back into a CSV.
    export_path = tmp_path / "merged.csv"
    assert main(["export", str(pack_dir), "--out", str(export_path)]) == 0
    with export_path.open(encoding="utf-8", newline="") as handle:
        merged = list(csv.DictReader(handle))
    assert len(merged) == 18


def test_unknown_pack_is_an_error(capsys):
    assert main(["sweep", "no-such-pack", "--dry-run"]) == 2
    assert "unknown scenario pack" in capsys.readouterr().err


@pytest.mark.parametrize("retries", ["-1", "-3"])
def test_sweep_rejects_negative_retries(tmp_path, capsys, retries):
    code = main(
        ["sweep", "hbm-generation", "--quick", "--retries", retries, "--out", str(tmp_path)]
    )
    assert code == 2
    assert "--retries" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed must be non-negative"),
        (["--set", "cache_capacity_bytes=abc"], "is not a finite number"),
        (["--set", "frequency_ghz=nan"], "is not a finite number"),
        (["--set", "dram_bandwidth_gbps=inf"], "is not a finite number"),
        (["--set", "cache_capacity_bytes=NaN"], "is not a finite number"),
        (["--set", "num_engines=1e400"], "is not a finite number"),
        (["--set", "num_engines=1" + "0" * 400], "is not a finite number"),
    ],
)
def test_run_rejects_bad_ingress_with_one_line_error(capsys, flags, message):
    code = main(
        ["run", "--dataset", "cora", "--accelerator", "gcnax",
         "--max-vertices", "64", *flags]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line.startswith("error: ") and message in line


def test_retired_bench_subcommand_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code != 0
    assert "invalid choice: 'bench'" in capsys.readouterr().err
