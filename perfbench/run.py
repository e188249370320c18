"""schemeflow benchmark: CLI jobs timed end to end, layers timed by tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload domain-square --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload in a closed loop: one ``schemeflow.cli.main``
call at a time, no threads, the CLI's default ``--jobs 1``.  The seed makes
the workload's inputs; the program sees only those files and arguments.
Workloads and their oracles are in workloads.py.

``--trace 0`` times jobs for ``--seconds`` and reports the end-to-end metrics:

    setup_s      median of 14 set-ups (import, inputs, warm-up), half of them
                 before the timed loop and half after it
    job_s.p50    median job time, from the call to the verdict
    units_per_s  output units per second of job time: domain rows, verified
                 arrows, or generators certified or refuted
    peak_rss_mb  peak resident memory of the process after the timed loop

Times are wall times rescaled to one host speed (see clock.py); the
unscaled median is printed beside them.  ``fail_frac`` and ``oracle_err`` are printed
too; they are not in BENCHMARK.json because both are 0 at a correct commit,
and the result line carries the failures as ``failed`` of ``attempted``.

``--trace 1`` times jobs untraced for half the budget, then runs the same
jobs again with every public schemeflow function wrapped (tracer.py) and
reports the per-layer metrics, per traced job and with times rescaled like
the job times, plus the tracing overhead: traced minus untraced median job
time.  Spans go to
``perfbench/_run/spans-<workload>-<seed>.json``.

Every job's output is checked against its workload's oracle after the timed
loop.  A job that raises, exits with the wrong code or misses its oracle
counts as failed; it is never skipped.  ``--smoke`` runs one small job per
workload with its oracle, in about ten seconds, and exits 1 if any fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from clock import Clock, Timed  # imports numpy, so set-up times schemeflow alone
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Result

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, "perfbench", "_run")
SETUP_REPEATS = 7  # before the timed loop, and again after it


def load_program():
    """Import schemeflow afresh from the checkout's src/ and return its
    modules by layer name."""
    for name in [m for m in sys.modules if m == "schemeflow" or m.startswith("schemeflow.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {layer: importlib.import_module(f"schemeflow.{layer}") for layer in LAYERS}
    where = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if where != os.path.join(SRC, "schemeflow"):
        raise RuntimeError(f"schemeflow imported from {where}, not from this checkout")
    return modules


def call_cli(modules, argv) -> tuple[float, object, str, str, object]:
    """One job: returns (wall seconds, exit code, stdout, stderr, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = modules["cli"].main(argv)
        except SystemExit as stop:  # argparse rejects its arguments this way
            rc = stop.code
        except Exception:  # recorded as a failed job, never skipped
            exc = traceback.format_exc()
        wall = time.perf_counter() - start
    return wall, rc, out.getvalue(), err.getvalue(), exc


def set_up(workload, seed: int, workdir: str, clock: Clock, times: list[Timed]):
    """Import, input generation and warm-up (every scheme file once through
    ``validate``, which parses and compiles it); the time goes to ``times``."""
    gc.collect()  # garbage of an earlier repeat is not set-up cost
    start = time.perf_counter()
    modules = load_program()
    jobs = workload.inputs(seed, workdir, ROOT)
    for path in dict.fromkeys(job.scheme for job in jobs):
        _, rc, _, err, exc = call_cli(modules, ["validate", "--scheme", path])
        if rc != 0 or exc:
            raise RuntimeError(f"warm-up failed on {path}: {exc or err}")
    times.append(Timed(time.perf_counter() - start))
    clock.add(times[-1])
    return modules, jobs


def run_jobs(modules, workload, jobs, clock, count=None, seconds=None) -> list[Result]:
    """Closed loop over the job cycle: ``count`` jobs, or as many as start
    within ``seconds``."""
    results = []
    start = time.perf_counter()
    while len(results) != count and (
        seconds is None or not results or time.perf_counter() - start < seconds
    ):
        job = jobs[len(results) % len(jobs)]
        wall, rc, out, err, exc = call_cli(modules, job.argv)
        results.append(Result(job, Timed(wall), rc, out, err, exc, workload.take_capture()))
        clock.add(results[-1].time)
    clock.flush()
    return results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results, verdicts, setup_times, rss) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(t.seconds for t in setup_times), "s"),
        "job_s.p50": (statistics.median(r.time.seconds for r in results), "s"),
        "units_per_s": (
            sum(v.units for v in verdicts[: len(results)])
            / sum(r.time.seconds for r in results),
            "1/s",
        ),
        "peak_rss_mb": (rss, "MB"),
    }


def highest_percentile(times) -> str:
    """The highest of p99, p95 and p90 with at least ten samples above it."""
    if len(times) < 2:
        return ""
    cuts = statistics.quantiles(times, n=100)
    for pct in (99, 95, 90):
        beyond = sum(t > cuts[pct - 1] for t in times)
        if beyond >= 10:
            return f"job_s.p{pct} {cuts[pct - 1]:.6g} s ({beyond} samples above it)"
    return ""


def report(metrics, attempted, failed, worst_err, extra_lines) -> None:
    for line in extra_lines:
        print(line)
    print(f"fail_frac {failed / attempted:.4g} ratio ({failed}/{attempted})")
    print(f"oracle_err {worst_err:.6g} abs")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )


def bench(args) -> int:
    workload = WORKLOADS[args.workload]()
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUN_DIR)
    try:
        clock = Clock()
        setup_times: list[Timed] = []
        for _ in range(SETUP_REPEATS):
            modules, jobs = set_up(workload, args.seed, workdir, clock, setup_times)
        gc.collect()
        restore = workload.instrument(modules)
        try:
            if not args.trace:
                results = run_jobs(modules, workload, jobs, clock, seconds=args.seconds)
                rss = peak_rss_mb()
                traced = []
                # set up as often again after the loop, so that the median
                # spans the run rather than the host's state in its first second
                for _ in range(SETUP_REPEATS):
                    set_up(workload, args.seed, workdir, clock, setup_times)
                clock.flush()
            else:
                results = run_jobs(modules, workload, jobs, clock, seconds=args.seconds / 2)
                tracer = Tracer()
                tracer.install(modules)
                try:
                    traced = run_jobs(modules, workload, jobs, clock, count=len(results))
                finally:
                    tracer.uninstall()
        finally:
            restore()

        everything = results + traced
        verdicts = [workload.check(r) for r in everything]
        failed = sum(not v.ok for v in verdicts)
        worst = max(v.err for v in verdicts)
        lines = [
            f"workload {workload.name} seed {args.seed}: {len(results)} timed jobs"
            + (f", {len(traced)} traced" if traced else "")
        ]
        lines += [
            f"FAILED job {' '.join(r.job.argv)}: {v.why}"
            for r, v in zip(everything, verdicts)
            if not v.ok
        ]
        raw_p50 = statistics.median(r.time.wall_s for r in results)
        scales = [r.time.scale for r in results]
        lines.append(
            f"host speed scale {min(scales):.3f}..{max(scales):.3f}; "
            f"unscaled median job wall time {raw_p50:.6g} s"
        )
        if not args.trace:
            metrics = end_to_end(results, verdicts, setup_times, rss)
            lines.append(f"job_s.p50 over {len(results)} jobs")
            tail = highest_percentile([r.time.seconds for r in results])
            if tail:
                lines.append(tail)
        else:
            metrics = tracer.metrics(
                len(traced),
                sum(r.time.seconds for r in traced) / sum(r.time.wall_s for r in traced),
            )
            metrics["polyring.sympy_ref_s"] = (
                sum(workload.reference_s(r.job) for r in traced) / len(traced), "s/job"
            )
            untraced_p50 = statistics.median(r.time.seconds for r in results)
            traced_p50 = statistics.median(r.time.seconds for r in traced)
            metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
            lines.append(
                f"job_s.p50 untraced {untraced_p50:.6g} s, traced {traced_p50:.6g} s "
                f"({len(traced)} jobs each)"
            )
            spans = os.path.join(RUN_DIR, f"spans-{workload.name}-{args.seed}.json")
            tracer.write(spans)
            lines.append(f"{len(tracer.spans)} spans written to {os.path.relpath(spans, ROOT)}")
        report(metrics, len(everything), failed, worst, lines)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> int:
    """One small job per workload, each checked by its oracle."""
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=RUN_DIR)
    failures = 0
    try:
        for cls in WORKLOADS.values():
            workload = cls()
            modules = load_program()
            jobs = workload.smoke(workdir, ROOT)
            restore = workload.instrument(modules)
            try:
                results = run_jobs(modules, workload, jobs, Clock(), count=len(jobs))
            finally:
                restore()
            for res in results:
                verdict = workload.check(res)
                failures += not verdict.ok
                status = "ok" if verdict.ok else f"FAILED ({verdict.why})"
                print(f"smoke {workload.name}: {status}, {res.time.wall_s:.3f} s, "
                      f"oracle error {verdict.err:.3g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small checked job per workload")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schemeflow", "__init__.py")):
        print(f"error: no schemeflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None or args.seconds <= 0:
        parser.error("--workload and a positive --seconds are required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
