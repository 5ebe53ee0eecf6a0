"""Smoke test of the benchmark itself, at tiny input sizes."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bench_inputs
import bench_worker
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines: list[str], result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed.get(m["name"]) == m["unit"], m["name"]


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    lines, result = bench(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert_metrics(lines, result, BENCHMARK["end_to_end"])


def test_every_layer_metric_prints_with_its_unit():
    lines, result = bench("digraph-stream", 1)
    assert result["correct"] is True
    assert_metrics(lines, result, BENCHMARK["per_layer"])
    assert any(line.startswith("  tracing overhead:") for line in lines)


def test_tampered_response_counts_as_failed(tmp_path, monkeypatch):
    spec = bench_inputs.build("digraph-stream", 3, "tiny", tmp_path)
    (tmp_path / "requests.json").write_text(json.dumps(spec), encoding="utf-8")
    target = spec["pool"][0]["argv"]
    real = bench_worker.call_cli

    def tampered(argv):
        code, stdout, error = real(argv)
        if argv == target:
            payload = json.loads(stdout)
            payload["value"] = str(Fraction(payload["value"]) + 1)
            stdout = json.dumps(payload)
        return code, stdout, error

    monkeypatch.setattr(bench_worker, "call_cli", tampered)
    bench_worker.main([str(tmp_path / "requests.json"), str(tmp_path / "result.json"),
                       "--seconds", "0.2", "--trace", "0"])
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        summary = run.report("digraph-stream", 3, 0, spec, result, setup_s=0.1)
    attempted = summary["attempted"]
    runs_of_target = sum(1 for r in result["records"] if r[0] == 0)
    assert runs_of_target >= 1
    assert summary["failed"] == runs_of_target
    assert summary["correct"] is False
    assert f"failed_ratio {runs_of_target}/{attempted} " in out.getvalue()
    assert summary["metrics"]["requests_per_s"]["value"] == pytest.approx(
        (attempted - runs_of_target) / result["wall"])
