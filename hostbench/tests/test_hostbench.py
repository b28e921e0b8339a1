"""Tests of the host benchmark, run at its smallest scale.

    python -m pytest hostbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402

#: Deterministic outputs, identical between traced and untraced runs.
GUARDS = ("fail_ratio", "sim_gflops", "sim_p99_ms")


def bench(workload, trace, root=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join(root, "hostbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    details = next(json.loads(line.split(" ", 1)[1])
                   for line in lines if line.startswith("details "))
    return json.loads(lines[-1]), details


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def runs(request):
    """An untraced and two traced tiny runs of one workload."""
    name = request.param
    return (name, parse(bench(name, 0)), parse(bench(name, 1)),
            parse(bench(name, 1)))


def test_every_named_metric_comes_with_its_unit(runs, spec):
    name, (untraced, details), (traced, _), _ = runs
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    expected = (set(run.EXTRA_UNITS) - {"op_ms.p50", "op_ms.p99", "sim_p99_ms"}
                if name == "tune-sweep" else set(run.EXTRA_UNITS))
    assert set(details["extra"]) == expected


def test_traced_and_untraced_runs_agree(runs):
    _, (_, untraced), (first, traced), (second, again) = runs
    assert untraced["digest"] == traced["digest"] == again["digest"]
    for guard in GUARDS:
        if guard in untraced["extra"]:
            assert untraced["extra"][guard] == traced["extra"][guard]
    calls = [{k: m["value"] for k, m in r["metrics"].items()
              if k.endswith(".calls")} for r in (first, second)]
    assert calls[0] == calls[1]
    assert sum(calls[0].values()) > 0


def test_a_corrupted_response_is_a_failed_op(monkeypatch, capsys):
    from repro.serve import GemmService

    submit = GemmService.submit

    def corrupt_second(self, *args, **kwargs):
        result = submit(self, *args, **kwargs)
        if result.request_id == 2:
            result.c = result.c + 1.0
        return result

    monkeypatch.setattr(GemmService, "submit", corrupt_second)
    status = run.main(["--workload", "serve-large", "--seed", "3",
                       "--seconds", "1", "--trace", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]


def test_a_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("tune-sweep", 0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_steadiness_report_shows_medians_and_samples():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "tune-sweep", "--repeat", "2", "--sets", "1", "--seconds", "1",
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    for name in run.END_TO_END_UNITS:
        assert f"  {name} " in proc.stdout
    assert "samples per run" in proc.stdout
