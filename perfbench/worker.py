"""The workload process: import pardiff, warm up, then run timed passes.

Started by ``run.py`` with the checkout's ``src`` directory first on the
path.  It prints ``ready`` once set-up (interpreter start, ``import pardiff``
and an untimed warm-up pass of the workload at the smoke-test size) is done.
With ``--setup-only`` it stops there; otherwise it runs the workload's job
list back to back, one ``pardiff.cli.main(argv)`` call per job, until
``--seconds`` have passed, and writes a JSON result file.

The job lists are the ``jobs.json`` files ``run.py`` writes.  Every job is
judged here on its exit code, one ``error:`` line on stderr exactly when it
should fail, no traceback, no ``.pardiff-*`` temp file, no output left by a
failing job, and byte-identical output each time it repeats.  The outputs of
its first run are copied to ``first/<job name>/``; ``run.py`` runs the numpy
oracles on them after this process has ended, so that the oracles' memory
does not count in ``peak_rss_mib``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pardiff  # noqa: E402
import pardiff.cli  # noqa: E402

import tracer as tr  # noqa: E402

MAX_RUN_S = 150.0  # stop starting passes after this, whatever --seconds says


def load_jobs(path: str) -> list[SimpleNamespace]:
    """A job list written by ``Workload.write_inputs``."""
    with open(path, encoding="utf-8") as fh:
        return [SimpleNamespace(name=j["name"], argv=j["argv"], outputs=tuple(j["outputs"]),
                                expect_exit=j["expect_exit"]) for j in json.load(fh)]


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Runs jobs and judges them; counts attempts and failures."""

    def __init__(self, tracer: tr.Tracer | None = None) -> None:
        self.tracer = tracer
        self.digests: dict[tuple[str, ...], dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job, job_id: int, traced: bool, first_dir: str | None) -> tuple[float, float]:
        """Run one job; return its wall and CPU seconds.

        The outputs of the job's first good run are copied to
        ``first_dir/<job name>/`` unless ``first_dir`` is None.
        """
        for path in job.outputs:
            if os.path.exists(path):
                os.remove(path)
        stdout, stderr = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.job = job_id
        crashed = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                code = pardiff.cli.main(job.argv)
            except Exception as exc:  # a traceback escaped the CLI: judged below
                code, crashed = None, exc
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        self.attempted += 1
        reason = self._judge(job, code, crashed, stderr.getvalue(), first_dir)
        if reason:
            self.failures.append(f"{job.name}: {reason}")
        return wall, cpu

    def _judge(self, job, code, crashed, stderr: str, first_dir: str | None) -> str | None:
        temps = []
        for directory in {os.path.dirname(p) for p in job.outputs}:
            temps += glob.glob(os.path.join(directory, ".pardiff-*"))
        for path in temps:
            os.remove(path)
        if crashed is not None or "Traceback" in stderr:
            return f"traceback ({crashed!r})"
        if code != job.expect_exit:
            return f"exit {code}, expected {job.expect_exit}: {stderr.strip()[:200]}"
        if temps:
            return f"temp file left behind: {temps[0]}"
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        if job.expect_exit:
            if len(errors) != 1 or len(stderr.splitlines()) != 1:
                return f"stderr should be one error: line, got {stderr!r}"
            left = [p for p in job.outputs if os.path.exists(p)]
            return f"failed job left output {left[0]}" if left else None
        if errors:
            return f"unexpected {errors[0]!r}"
        digests = {}
        for path in job.outputs:
            digest = hashlib.sha256()
            try:
                with open(path, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 16), b""):
                        digest.update(block)
            except OSError as exc:
                return f"missing output: {exc}"
            digests[path] = digest.hexdigest()
        first = self.digests.get(job.outputs)
        if first is not None:
            return None if digests == first else "output differs from the job's first run"
        if first_dir is not None:
            keep = os.path.join(first_dir, job.name)
            os.makedirs(keep, exist_ok=True)
            for path in job.outputs:
                shutil.copyfile(path, os.path.join(keep, os.path.basename(path)))
        self.digests[job.outputs] = digests
        return None


def run_pass(runner: Runner, jobs: list, traced: bool, first_dir: str | None) -> tuple[float, float]:
    wall = cpu = 0.0
    if traced:
        runner.tracer.install()
    try:
        for job_id, job in enumerate(jobs):
            w, c = runner.run(job, job_id, traced, first_dir)
            wall += w
            cpu += c
    finally:
        if traced:
            runner.tracer.uninstall()
    return wall, cpu


def blas_info() -> dict:
    """The BLAS numpy was built with, and its thread count if it can be queried."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def metadata(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "pardiff": pardiff.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True, help="holds warmup/jobs.json and timed/jobs.json")
    parser.add_argument("--result", help="result JSON path (omit with --setup-only)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    expected_src = os.path.join(ROOT, "src", "pardiff")
    if os.path.dirname(os.path.abspath(pardiff.__file__)) != expected_src:
        print(f"error: pardiff imported from {pardiff.__file__}, not {expected_src}", file=sys.stderr)
        return 1
    warmup_dir, timed_dir = (os.path.join(args.workdir, sub) for sub in ("warmup", "timed"))
    runner = Runner(tr.Tracer() if args.trace else None)
    run_pass(runner, load_jobs(os.path.join(warmup_dir, "jobs.json")), False,
             None if args.setup_only else os.path.join(warmup_dir, "first"))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    jobs = load_jobs(os.path.join(timed_dir, "jobs.json"))
    first_dir = os.path.join(timed_dir, "first")
    commands = dict(enumerate(job.argv[0] for job in jobs))
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        # Traced runs alternate plain and traced passes, plain first.
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        first_span = len(runner.tracer.spans) if traced else 0
        wall, cpu = run_pass(runner, jobs, traced, first_dir)
        walls[traced].append(wall)
        if traced:
            layers.append(tr.layer_metrics(runner.tracer.spans, first_span, commands))
            layers[-1]["trace.spans"] = len(runner.tracer.spans) - first_span
        else:
            cpus.append(cpu)
        elapsed = time.perf_counter() - start
        # Stop before a pass that would end after --seconds, once both kinds ran.
        if (not args.trace or walls[True]) and elapsed + wall > min(args.seconds, MAX_RUN_S):
            break

    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
        "wall_s": walls[False],
        "cpu_s": cpus,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": metadata(args.seed),
    }
    if args.trace:
        per_layer = tr.median_metrics(layers)
        # Each traced pass minus the plain pass just before it.
        per_layer["trace.overhead_s"] = statistics.median(
            t - p for p, t in zip(walls[False], walls[True]))
        per_layer["trace.span_cost_ns"] = runner.tracer.span_cost_ns()
        result["per_layer"] = per_layer
        result["traced_wall_s"] = walls[True]
        runner.tracer.write(os.path.join(args.workdir, "spans.jsonl"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
