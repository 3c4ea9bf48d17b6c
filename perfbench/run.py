"""pardiff benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload solve_pipeline --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

- ``solve_pipeline``: Dirichlet solves through ``pardiff solve`` and
  ``convergence``, then ``classify``, ``apply`` and ``verify`` on grid and
  stencil files, plus jobs that are expected to fail;
- ``lattice``: lattice sums through ``pardiff potential`` and ``mollify``.

The inputs are written from ``--seed`` before anything is timed.  Set-up is
measured ``SETUP_RUNS`` times, each in a fresh workload process from its
start to the end of its untimed warm-up pass.  One of these processes, in
the middle, then runs the job list back to back (a closed loop, one client)
for ``--seconds`` seconds; the others stop after set-up, half of them before
the timed process and half after, so that the median spans the run.  Every job is judged in that process; the numpy
oracles run here on the outputs of each job's first run once it has ended.
Scratch files go to ``perfbench/.work/<workload>-<size>-seed<N>-trace<T>/``.

The last line of standard output is one JSON object.  With ``--trace 0`` its
metrics are the end-to-end ones, medians over the timed passes; with
``--trace 1`` the workload process alternates plain and traced passes and
the metrics are the per-layer ones (see tracer.py) plus the tracing overhead.
The exit code is 0 when a result was printed, whatever the checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "fraction"),
)


def _start_worker(args, workdir: str, result: str | None) -> tuple[subprocess.Popen, float]:
    """Start a workload process and wait until it is set up; return it and its set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--workdir={workdir}"]
    cmd += [f"--result={result}"] if result else ["--setup-only"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        _stop(proc, 0.0)
        raise RuntimeError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, setup


def _stop(proc: subprocess.Popen, timeout: float) -> int:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one pardiff benchmark workload.")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=wl.SIZES, default="full",
                        help="problem sizes; tiny is the smoke-test and warm-up size")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pardiff", "cli.py")):
        print(f"error: no pardiff sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    built = {}
    for size, sub in ((args.size, "timed"), ("tiny", "warmup")):
        built[sub] = wl.build(args.workload, args.seed, size, os.path.join(workdir, sub))
        built[sub].write_inputs(os.path.join(workdir, sub, "jobs.json"))

    result_path = os.path.join(workdir, "result.json")
    setups = []

    def setup_only(count: int) -> None:
        for _ in range(count):
            proc, setup = _start_worker(args, workdir, None)
            setups.append(setup)
            if _stop(proc, SETUP_TIMEOUT_S) != 0:
                raise RuntimeError("set-up process failed")

    try:
        setup_only(SETUP_RUNS // 2)
        proc, setup = _start_worker(args, workdir, result_path)
        setups.append(setup)
        if _stop(proc, RUN_TIMEOUT_S) != 0:
            raise RuntimeError(f"workload process failed (exit {proc.returncode})")
        setup_only(SETUP_RUNS - 1 - SETUP_RUNS // 2)
        with open(result_path, encoding="utf-8") as fh:
            run = json.load(fh)
        checked = [f for sub, w in built.items() for f in w.check_saved(os.path.join(workdir, sub, "first"))]
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Keep result.json and spans.jsonl; the job files only take space.
    for sub in built:
        shutil.rmtree(os.path.join(workdir, sub), ignore_errors=True)

    # A job whose first output misses its oracle is one more failed attempt.
    attempted, failed = run["attempted"], run["failed"] + len(checked)
    if args.trace:
        values = run["per_layer"]
        units = dict(tr.PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(run["wall_s"]),
            "cpu_s": statistics.median(run["cpu_s"]),
            "peak_rss_mib": run["peak_rss_mib"],
            "ok_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    for reason in run["failures"] + checked:
        print(f"FAILED {reason}")
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{len(run['wall_s'])} plain and {len(run.get('traced_wall_s', []))} traced passes, "
          f"{attempted} jobs, {failed} failed, "
          f"fail_frac={failed / attempted:.4g}, setups={[round(s, 4) for s in setups]}")
    print("meta " + json.dumps(run["meta"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
