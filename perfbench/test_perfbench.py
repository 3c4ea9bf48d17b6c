"""The benchmark's own tests, at the smoke-test size.

Run with ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _work(workload: str, seed: int, trace: int) -> str:
    """The scratch directory run.py uses for a tiny run."""
    return os.path.join(HERE, ".work", f"{workload}-tiny-seed{seed}-trace{trace}")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                 "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["cli.jobs"]["value"] == len(wl.build(workload, 3, "tiny", str(tmp_path)).jobs)
        assert os.path.getsize(os.path.join(_work(workload, 3, trace), "spans.jsonl")) > 0
        assert result["metrics"]["trace.spans"]["value"] > 0
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in ("setup_s", "wall_s", "cpu_s", "peak_rss_mib"))


def test_traced_layers_run_where_the_workloads_say():
    proc = _run(["--workload", "solve_pipeline", "--seed", "4", "--seconds", "0", "--trace", "1", "--size", "tiny"])
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert metrics["elliptic.sor.iterations"] > 0 and metrics["elliptic.solve.s"] > 0
    assert metrics["grid.sample.nodes"] > 0 and metrics["expr.parse.calls"] > 0
    assert metrics["elliptic.newtonian_potential.pairs"] == 0 and metrics["mollify.convolve.taps"] == 0


def test_same_seed_same_inputs(tmp_path):
    def texts(seed, sub):
        w = wl.build("solve_pipeline", seed, "tiny", str(tmp_path / sub))
        return [(os.path.basename(p), make()) for p, make in w.inputs.items()]

    assert texts(7, "a") == texts(7, "b")
    assert texts(7, "a") != texts(8, "c")


def _ran_once(workload: str, tmp_path):
    w = wl.build(workload, 5, "tiny", str(tmp_path))
    w.write_inputs(str(tmp_path / "jobs.json"))
    runner = worker.Runner()
    worker.run_pass(runner, worker.load_jobs(str(tmp_path / "jobs.json")), False, str(tmp_path / "first"))
    assert runner.failures == []
    assert w.check_saved(str(tmp_path / "first")) == []
    return w, runner


def _nudge(path: str, line: int, delta: float) -> None:
    """Add ``delta`` to the value on one line of a grid file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[line] = repr(float(lines[line]) + delta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _input(w: wl.Workload, name: str) -> str:
    return next(p for p in w.inputs if os.path.basename(p) == name)


def test_corrupted_output_fails_its_check(tmp_path):
    w, _ = _ran_once("solve_pipeline", tmp_path)
    job = w.jobs[0]
    _nudge(str(tmp_path / "first" / job.name / os.path.basename(job.outputs[0])), -20, 1e-3)
    failures = w.check_saved(str(tmp_path / "first"))
    assert len(failures) == 1 and failures[0].startswith(f"{job.name}: check failed: solution error")


def test_wrong_output_counts_as_failure(tmp_path):
    w, _ = _ran_once("solve_pipeline", tmp_path)
    _nudge(_input(w, "cubic.grd"), 100, 0.5)  # the biharmonic of the data is no longer 0
    fresh = worker.Runner()
    worker.run_pass(fresh, w.jobs, False, str(tmp_path / "again"))
    assert fresh.attempted == len(w.jobs) and fresh.failures == []
    assert any(f.startswith("apply-biharmonic: check failed") for f in w.check_saved(str(tmp_path / "again")))


def test_changed_repeat_counts_as_failure(tmp_path):
    w, runner = _ran_once("solve_pipeline", tmp_path)
    _nudge(_input(w, "harmonic.grd"), 100, 1e-9)
    worker.run_pass(runner, w.jobs, False, str(tmp_path / "first"))
    assert "verify-scaled: output differs from the job's first run" in runner.failures


def test_unexpected_exit_counts_as_failure(tmp_path):
    w, runner = _ran_once("solve_pipeline", tmp_path)
    next(j for j in w.jobs if j.name == "fail-truncated").expect_exit = 0
    worker.run_pass(runner, w.jobs, False, str(tmp_path / "first"))
    assert [f for f in runner.failures if f.startswith("fail-truncated: exit 1, expected 0")]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(["--workload", "solve_pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
