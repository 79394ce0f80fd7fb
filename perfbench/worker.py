"""One workload in one fresh interpreter.

Started by `run.py`; not meant to be run by hand.  It imports cocheck
from the checkout's `src/`, builds the catalog and the job list, prints
`ready`, runs the workload's jobs as a closed loop through
`cocheck.cli.main`, checks every job's output against `expected.json`,
and prints one JSON result line.

Modes:
  setup    stop after `ready` (a set-up time probe)
  measure  untraced rounds (each half of the job list followed by the
           headline ladder) until the time is spent; with --trace 1,
           untraced passes for half the time, then one traced pass for
           the per-layer metrics
  record   one untraced pass and ladder; print each job's exit code,
           verdict and report digest for `expected.json`
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

import workloads

HERE = pathlib.Path(__file__).resolve().parent
MIN_ROUNDS = 3
# Time of `reference()` on the development host at its uncontended speed
# (an Intel Xeon vCPU, Python 3.11.7); see README, "Host speed".
REFERENCE_S = 0.0023
MAX_FAILURE_REPORTS = 5


def import_cocheck(root: pathlib.Path):
    """Import cocheck from the checkout, never from an installed copy."""
    package = root / "src" / "cocheck"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no cocheck sources at {package}")
    sys.path.insert(0, str(root / "src"))
    import cocheck
    import cocheck.cli

    if pathlib.Path(cocheck.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported cocheck from {cocheck.__file__}, not {package}")
    return cocheck


def build_catalog(cocheck) -> None:
    """Instantiate every builtin and the identity catalog, and check that
    the names the job lists use still exist."""
    from cocheck.catalog import builtin, list_examples
    from cocheck.identities import builtin_identities

    names = {e.name for e in list_examples()}
    for name in names:
        builtin(name)
    missing = sorted(set(workloads.EXAMPLES) - names)
    missing += sorted(set(workloads.IDENTITIES) - set(builtin_identities()))
    if missing:
        raise SystemExit(f"catalog lacks names the workloads use: {missing}")


def run_job(cli, job):
    """Run one job; returns (exit code, stdout text, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv + ["--json", "--deterministic"])
    except Exception:  # a crash is a failed job, not a failed benchmark
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def outcome(code, text: str) -> dict:
    try:
        verdict = json.loads(text).get("verdict") if text else None
    except ValueError:
        verdict = None
    return {"exit": code, "verdict": verdict,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


class Checker:
    """Compares job outcomes with the expected table and counts failures."""

    def __init__(self, expected: dict):
        self.jobs = expected["jobs"]
        self.attempted = 0
        self.failed = 0
        self.reports = []
        self.verdicts = {}

    def check(self, job, got: dict, error: str) -> None:
        self.attempted += 1
        self.verdicts[job.id] = got["verdict"]
        want = self.jobs.get(job.id)
        if want is None:
            why = "no expected entry"
        elif got["exit"] is None:
            why = "raised " + error.strip().splitlines()[-1]
        elif got["exit"] != want["exit"]:
            why = f"exit {got['exit']}, expected {want['exit']}: {error.strip()}"
        elif got["verdict"] != want["verdict"]:
            why = f"verdict {got['verdict']}, expected {want['verdict']}"
        elif got["sha256"] != want["sha256"]:
            why = "report digest differs"
        elif job.pair and self.verdicts.get(job.pair) != got["verdict"]:
            # The oracle must agree with the coidentity checker on the pair,
            # whose job runs just before it.
            why = (f"oracle verdict {got['verdict']} differs from coidentity "
                   f"verdict {self.verdicts.get(job.pair)}")
        else:
            return
        self.failed += 1
        if len(self.reports) < MAX_FAILURE_REPORTS:
            self.reports.append(f"{job.id}: {why}")


def reference() -> float:
    """Time one fixed loop of Fraction and dict work that uses no cocheck
    code, as a probe of the host's current speed."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1000):
        k = (i * 7919) % 257
        acc[k] = acc.get(k, 0) + Fraction(i, 3)
    return time.perf_counter() - t0


def run_pass(cli, jobs, checker, tracer=None):
    """Run the job list once, checking every job.

    Returns each job's time and its time at the nominal host speed: the
    time scaled by REFERENCE_S over the mean of the reference loops run
    just before and just after the job."""
    times, scaled = [], []
    before = reference()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.start_job(i)
        t0 = time.perf_counter()
        code, text, error = run_job(cli, job)
        t = time.perf_counter() - t0
        after = reference()
        times.append(t)
        scaled.append(t * REFERENCE_S / ((before + after) / 2))
        before = after
        checker.check(job, outcome(code, text), error)
    return times, scaled


def job_medians(passes) -> list:
    """Each job's median over the passes."""
    return [statistics.median(ts) for ts in zip(*passes)]


def window_at_budget(points, budget: float):
    """Largest window whose time fits the budget, by log-log interpolation
    of (window, seconds) points sorted by window.  Outside the ladder the
    nearest two rungs are extrapolated; returns (window, extrapolated)."""
    above = [i for i, (_, t) in enumerate(points) if t > budget]
    if not above:
        i, extrapolated = len(points) - 1, True
    elif above[0] == 0:
        i, extrapolated = 1, True
    else:
        i, extrapolated = above[0], False
    (w0, t0), (w1, t1) = points[i - 1], points[i]
    slope = (math.log(t1) - math.log(t0)) / (math.log(w1) - math.log(w0))
    if slope <= 0:
        return float(points[-1][0] if not above else points[0][0]), True
    return math.exp(math.log(w0) + (math.log(budget) - math.log(t0)) / slope), extrapolated


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure", "record"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    root = pathlib.Path(args.root)
    workdir = pathlib.Path(args.workdir)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL

    # Set-up: what a user's first command pays, plus the job list.
    cocheck = import_cocheck(root)
    build_catalog(cocheck)
    jobs = workloads.job_list(args.workload, sizes, args.seed)
    ladder = workloads.ladder(args.workload, sizes)
    workdir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(HERE / workloads.GRADED_CONTROL, workdir / workloads.GRADED_CONTROL)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    os.chdir(workdir)  # -o and --spec paths are relative to the work dir
    cli = cocheck.cli

    if args.mode == "record":
        table = {}
        for job in jobs + [job for _, job in ladder]:
            code, text, error = run_job(cli, job)
            got = outcome(code, text)
            if got["exit"] not in (0, 1, 3):
                raise SystemExit(f"{job.id}: exit {got['exit']}: {error.strip()}")
            if job.pair and table[job.pair]["verdict"] != got["verdict"]:
                raise SystemExit(f"{job.id}: oracle and coidentity verdicts differ")
            table[job.id] = got
        print(json.dumps({"jobs": table}))
        return 0

    with open(args.expected, encoding="utf-8") as f:
        checker = Checker(json.load(f))
    result = {"jobs_per_pass": len(jobs)}
    start = time.perf_counter()
    if args.trace:
        import tracer as tracing

        passes = []
        while not passes or time.perf_counter() - start < args.seconds / 2:
            passes.append(sum(run_pass(cli, jobs, checker)[0]))
            if args.smoke:
                break
        t = tracing.Tracer()
        t.install(cocheck)
        traced = sum(run_pass(cli, jobs, checker, tracer=t)[0])
        t.require_busy(args.workload)
        metrics = t.metrics()
        metrics["trace.overhead_ratio"] = traced / statistics.median(passes)
        result.update(untraced_wall_s=statistics.median(passes), traced_wall_s=traced,
                      passes=len(passes), layer_metrics=metrics,
                      group_self_s=t.group_self(), hook_s=t.hook_s)
        if args.trace_out:
            t.write_spans(args.trace_out, [job.id for job in jobs])
    else:
        # The ladder runs twice a round, after each half of the job list,
        # so its rungs are sampled at more moments of the host's speed.
        raw, scaled, rung_raw, rung_scaled = [], [], [], []
        half = len(jobs) // 2
        rung_jobs = [job for _, job in ladder]
        while True:
            r0 = time.perf_counter()
            raw.append([])
            scaled.append([])
            for part in (jobs[:half], jobs[half:]):
                times, nominal = run_pass(cli, part, checker)
                raw[-1] += times
                scaled[-1] += nominal
                times, nominal = run_pass(cli, rung_jobs, checker)
                rung_raw.append(times)
                rung_scaled.append(nominal)
            elapsed = time.perf_counter() - start
            round_s = time.perf_counter() - r0
            if args.smoke or (len(raw) >= MIN_ROUNDS
                              and elapsed + round_s > args.seconds):
                break
        rungs = list(zip([w for w, _ in ladder], job_medians(rung_scaled)))
        window, extrapolated = window_at_budget(rungs, workloads.BUDGET_S)
        result.update(wall_s=sum(job_medians(scaled)), passes=len(raw),
                      pass_times=[sum(p) for p in raw],
                      pass_nominal_times=[sum(p) for p in scaled],
                      raw_median_wall_s=sum(job_medians(raw)),
                      rungs=rungs, rung_raw=list(zip([w for w, _ in ladder],
                                                     job_medians(rung_raw))),
                      window_at_budget=window, extrapolated=extrapolated,
                      budget_s=workloads.BUDGET_S)
    result.update(attempted=checker.attempted, failed=checker.failed,
                  failures=checker.reports, peak_rss_mb=peak_rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
