"""Self-test of the benchmark harness at small sizes.

Run from the repository root:  python -m pytest benchmark/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "layered-tp-accel": {"n": 4},
    "layered-tp-plain": {"n": 3},
    "random-mcr-file": {"vertices": 300},
    "layered-mcr-strategy": {"n": 2},
}


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for name, sizes in SMALL.items():
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **sizes)
        )


def _run(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_workload_names_agree():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMALL))
def test_smoke(small, capsys, name, trace):
    code, result = _run(capsys, "--workload", name, "--seed", "3", "--seconds", "0.2",
                        "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (run.MIN_OPS if trace == 0 else 6)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.op_s"]["value"] > 0


def test_same_seed_same_input():
    for w in workloads.WORKLOADS.values():
        small = dataclasses.replace(w, **SMALL[w.name])
        assert small.make_input(5) == small.make_input(5)


def _raise(argv):
    raise RuntimeError("boom")


@pytest.mark.parametrize("how", ["wrong-expectation", "raising-operation"])
def test_gate_fails_every_operation(small, capsys, monkeypatch, how):
    if how == "wrong-expectation":
        right = workloads.Layered.expected_values
        monkeypatch.setattr(workloads.Layered, "expected_values",
                            lambda self: {**right(self), "t": 1})
    else:
        monkeypatch.setattr("quantgames.cli.run", _raise)
    code, result = _run(capsys, "--workload", "layered-tp-plain", "--seconds", "0.2")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_OPS


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "layered-tp-plain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
