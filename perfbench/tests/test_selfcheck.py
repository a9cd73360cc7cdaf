"""Self-checks of the link-graph benchmark, at the tiny input scale.

    python3 -m pytest perfbench/tests -q

Every workload runs on two seeds and must print JSON-only stdout, every
metric BENCHMARK.json names, and no failed operation. A perturbed engine
result (one PageRank value +1e-5, one pair of labels swapped) must be
counted as failed operations.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import oracles, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = [1, 2]


def _bench(*argv: str) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv, "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    lines = [json.loads(line) for line in out.stdout.splitlines()]  # all JSON
    return lines[0]["meta"], lines[-1]


def _assert_metrics(result: dict, spec_key: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_is_correct(workload, seed):
    meta, result = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["error_rate"] == 0 and meta["seed"] == seed
    _assert_metrics(result, "end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    _, result = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result, "per_layer")


def _perturbed(read_values):
    def read(result):
        vids, vals = read_values(result)
        vals = vals.copy()
        if vals.dtype.kind == "f":
            vals[0] += 1e-5
        else:
            j = int(np.flatnonzero(vals != vals[0])[0])
            vals[0], vals[j] = vals[j], vals[0]
        return vids, vals
    return read


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_result_raises_error_rate(workload, seed, monkeypatch, capfd):
    for var in ("PYTHONPATH", "TMPDIR"):  # restored after the in-process run
        monkeypatch.setenv(var, os.environ.get(var, ""))
    monkeypatch.setattr(workloads, "read_values", _perturbed(workloads.read_values))
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--scale", "tiny"]) == 0
    lines = [json.loads(line) for line in capfd.readouterr().out.splitlines()]
    meta, result = lines[0]["meta"], lines[-1]
    assert result["failed"] >= 1 and not result["correct"]
    assert meta["error_rate"] > 0


def test_oracle_checks_reject_small_perturbations():
    vids = np.arange(5, dtype=np.int64)
    pr = np.linspace(0.5, 1.5, 5)
    assert oracles.pagerank_matches(vids, pr + 5e-7, vids, pr)
    bumped = pr.copy()
    bumped[2] += 1e-5
    assert not oracles.pagerank_matches(vids, bumped, vids, pr)
    labels = np.array([0, 0, 2, 2, 4], np.int64)
    swapped = labels[[2, 1, 0, 3, 4]]
    assert not oracles.labels_match(vids, swapped, vids, labels)
