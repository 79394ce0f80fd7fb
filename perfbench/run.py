"""The cocheck benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload identity-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --trace 1       # every workload, per-layer metrics
    python3 perfbench/run.py --smoke         # tiny windows, seconds per workload
    python3 perfbench/run.py --record        # rewrite expected.json at this commit

Each workload runs in fresh interpreters started from this process, one
at a time, with a pinned PYTHONHASHSEED: several that only set up (for
`setup_s`), then one that measures.  The last line printed is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`;
the lines before it name every metric with its unit and record the
environment.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import REFERENCE_S, reference  # noqa: E402

HASH_SEED = "0"
DEFAULT_SEED = 1
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"


def load_benchmark() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "PYTHONHASHSEED": HASH_SEED,
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as f:
            return " ".join(f.read().split()[:3])
    except OSError:
        return "unavailable"


def spawn(args: list, workdir: pathlib.Path):
    """Start a worker; returns (set-up seconds, result dict or None)."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workdir", str(workdir)] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {' '.join(args)}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def setup_probe(common: list, workdir: pathlib.Path) -> tuple:
    """Set-up time of one fresh interpreter, as measured and at the
    nominal host speed (scaled by the reference loops around it)."""
    before = reference()
    setup_s = spawn(common + ["--mode", "setup"], workdir)[0]
    speed = REFERENCE_S / ((before + reference()) / 2)
    return setup_s, setup_s * speed


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool,
                 expected: str, bench: dict) -> dict:
    """Measure one workload; prints its metrics and returns the result line."""
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace), "--expected", expected]
    if smoke:
        common.append("--smoke")
    trace_out = OUT_ROOT / f"trace-{name}.tsv"
    if trace:
        OUT_ROOT.mkdir(exist_ok=True)
        common += ["--trace-out", str(trace_out)]
    load_before = loadavg()
    probes = 0 if trace else 1 if smoke else SETUP_PROBES
    try:
        # Set-up probes before and after the measurement sample two moments
        # of the host's speed; a traced run reports no set-up time.
        setups = [setup_probe(common, workdir) for _ in range(probes)]
        _, res = spawn(common + ["--mode", "measure"], workdir)
        setups += [setup_probe(common, workdir) for _ in range(probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = loadavg()

    env = environment()
    print(f"== {name}  seed {seed}  trace {trace}  smoke {int(smoke)}")
    print(f"env: python {env['python']}  nproc {env['nproc']}  cpu {env['cpu']}  "
          f"PYTHONHASHSEED={HASH_SEED}  loadavg before {load_before}  "
          f"after {load_after}")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} jobs)")

    if trace:
        values = dict(res["layer_metrics"])
        specs = bench["per_layer"]
        total = sum(res["group_self_s"].values())
        print(f"traced pass {res['traced_wall_s']:.3f} s, untraced median "
              f"{res['untraced_wall_s']:.3f} s of {res['passes']} passes; "
              f"self-time shares of {total:.3f} s:")
        for group, s in sorted(res["group_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  share {group:<18} {s / total:7.2%}  {s:.4f} s")
    else:
        values = {
            "setup_s": statistics.median(nominal for _, nominal in setups),
            "wall_s": res["wall_s"],
            "window_at_budget": res["window_at_budget"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        specs = bench["end_to_end"]
        rungs = "  ".join(f"{w}:{t:.4f}s" for w, t in res["rungs"])
        raw_rungs = "  ".join(f"{w}:{t:.4f}s" for w, t in res["rung_raw"])
        passes = "  ".join(f"{t:.3f}" for t in res["pass_times"])
        print(f"wall_s sums each job's median time at nominal host speed over "
              f"{res['passes']} passes of {res['jobs_per_pass']} jobs; as measured: "
              f"{res['raw_median_wall_s']:.4f} s, pass times {passes} s")
        print(f"window_at_budget: budget {res['budget_s']} s, ladder at nominal "
              f"speed {rungs}" + ("  (extrapolated)" if res["extrapolated"] else "")
              + f"; as measured {raw_rungs}")
        print(f"setup_s is the median of {len(setups)} interpreters at nominal "
              f"host speed; as measured "
              f"{statistics.median(raw for raw, _ in setups):.4f} s")
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<34} {value:>14.6f} {spec['unit']:<6} "
              f"({spec['better']} is better)")
    record = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke,
              "env": env, "loadavg": [load_before, load_after],
              "setup_samples_s": setups, "worker": res}
    OUT_ROOT.mkdir(exist_ok=True)
    with open(OUT_ROOT / f"run-{name}-trace{trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record_expected() -> None:
    """Rewrite expected.json from this commit, at the default seed."""
    table = {}
    for sizes in ("full", "smoke"):
        for name in sorted(workloads.WORKLOADS):
            workdir = WORK_ROOT / f"record-{name}-{os.getpid()}"
            args = ["--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "0",
                    "--mode", "record"] + (["--smoke"] if sizes == "smoke" else [])
            try:
                _, res = spawn(args, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            table.update(res["jobs"])
            print(f"recorded {len(res['jobs'])} jobs of {name} ({sizes})")
    with open(HERE / "expected.json", "w", encoding="utf-8") as f:
        json.dump({"jobs": table}, f, indent=1,
                  sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description="cocheck benchmark")
    parser.add_argument("--workload", default="all",
                        choices=["all"] + sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows and one round, to check the benchmark runs")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from this commit")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="expected table to check outputs against")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cocheck" / "__init__.py").is_file():
        print(f"error: no cocheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record_expected()
        return 0
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.smoke, args.expected, bench)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        print("== summary")
        for name, res in results.items():
            cells = "  ".join(f"{k} {v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"{name:<18} failed {res['failed']}/{res['attempted']}  {cells}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
