"""Fast checks of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_the_benchmark():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert _units("end_to_end") == run.END_TO_END_UNITS
    assert _units("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric(name):
    workload = workloads.WORKLOADS[name]
    loop, _, metrics, _ = run.run_untraced(workload, 7, 0.3, setup_repeats=1)
    assert loop.attempted == workload.replications(0.3) and loop.failed == 0
    assert set(metrics) == set(_units("end_to_end"))
    assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics

    loop, check, metrics, extra = run.run_traced(workload, 7, 0.6)
    assert check["harness_bit_identical"], check
    assert set(metrics) == set(_units("per_layer"))
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["lockstep.path_events"] > 0 and metrics["core.seed_streams"] > 0
    assert (workloads.ROOT / extra["spans"]).is_file()


def test_failed_replications_are_counted_not_averaged():
    outcomes = {1: RuntimeError("engine blew up"), 2: math.nan, 3: -1.0, 4: math.inf}

    def replicate(rep: int) -> float:
        outcome = outcomes.get(rep, 0.5 + rep)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    loop = run.closed_loop(replicate, 7)
    assert (loop.attempted, loop.failed) == (7, 4)
    assert loop.fail_frac == pytest.approx(4 / 7)
    assert loop.values.tolist() == [0.5, 5.5, 6.5]
    assert len(loop.rep_seconds) == 7


def test_reference_check_rejects_a_biased_mean():
    ref = workloads.Reference(1.0, 0.0, "test")
    values = np.array([0.9, 1.1, 1.0, 0.95, 1.05])
    assert run.reference_check(values, ref)["passed"]
    assert not run.reference_check(values + 1.0, ref)["passed"]
    assert not run.reference_check(np.array([1.0]), ref)["passed"]


def _command(*args: str) -> list[str]:
    return [sys.executable, *SPEC["command"][1:], *args]


def test_command_prints_the_result_last():
    done = subprocess.run(
        _command("--workload", "temporal-hiv", "--seed", "3", "--seconds", "0.5", "--trace", "0"),
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    *_, record, last = done.stdout.splitlines()
    assert json.loads(record)["record"]["machine"]["nproc"] >= 1
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 5 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        _command("--workload", "ce-abakaliki", "--seed", "1", "--seconds", "1", "--trace", "0"),
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
