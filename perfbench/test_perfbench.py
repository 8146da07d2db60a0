"""Tests of the benchmark itself, on the 16x20x5 smoke workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def result_lines(capsys, trace: int) -> tuple[dict, dict]:
    assert run.main(["--workload", "smoke", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    *_, report, result = capsys.readouterr().out.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(capsys, trace, kind):
    report, result = result_lines(capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert report["environment"]["seed"] == 3
    assert report["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("trace", [0, 1])
def test_the_failing_invocation_is_counted(capsys, trace):
    report, result = result_lines(capsys, trace)
    passes = len(report["pass_s"]) + len(report["traced_pass_s"])
    # the smoke pass ends with one invocation on a missing directory
    assert result["failed"] == passes
    assert result["correct"] is False
    assert report["failed_frac"] == result["failed"] / result["attempted"]
    assert all("step 8 eval: exit code 1" in p for p in report["problems"])
    if trace:
        assert result["metrics"]["cli.failed_frac"]["value"] == report["failed_frac"]


def test_traced_counts_match_the_pass(capsys):
    report, result = result_lines(capsys, 1)
    # smoke reaches every layer, so only the probe-only calls come from the probe
    assert report["probed"] == ["scenes.raycast_pixels_s", "alignment.alignment_energy_s"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    calls, unique = m["pipelines.predict_calls"], m["pipelines.predict_unique_pairs"]
    assert 0 < unique < calls  # ablate asks its window-12 pairs twice
    assert m["pipelines.predict_repeat_ratio"] == pytest.approx(1 - unique / calls)
    assert m["alignment.iterations"] == 0 and m["alignment.converged"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
