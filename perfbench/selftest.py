"""Self-tests of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Smoke mode runs all four workloads, untraced and traced, in seconds,
   with no failed job, and prints every metric of BENCHMARK.json.
2. Corrupting one expected digest makes exactly that job fail:
   failed_ratio becomes 1/attempted.
3. Two traced runs with the same seed give identical counts.
4. Without the cocheck sources the benchmark exits non-zero and prints
   no result.
5. window_at_budget interpolates inside the ladder and extrapolates
   outside it.
"""
from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import window_at_budget  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selftest"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_prints_every_metric():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--smoke", "--trace", str(trace))
        results = result_line(proc)
        assert sorted(results) == sorted(workloads.WORKLOADS), results.keys()
        for name, res in results.items():
            assert res["correct"] and res["failed"] == 0, (name, res)
            names = [m["name"] for m in BENCH[kind]]
            assert list(res["metrics"]) == names, (name, list(res["metrics"]))
            for metric in names:
                assert f"  {metric} " in proc.stdout, metric


def test_corrupt_digest_fails_one_job():
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    job = workloads.job_list("structure-scan", workloads.SMOKE, 0)[0]
    entry = expected["jobs"][job.id]
    entry["sha256"] = "0" * 64
    SCRATCH.mkdir(parents=True, exist_ok=True)
    corrupted = SCRATCH / "expected-corrupt.json"
    corrupted.write_text(json.dumps(expected), encoding="utf-8")
    res = result_line(bench("--smoke", "--workload", "structure-scan",
                            "--expected", str(corrupted)))
    assert res["failed"] == 1 and res["attempted"] > 1, res
    assert not res["correct"]


def test_traced_counts_repeat():
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    for name in workloads.WORKLOADS:
        runs = [result_line(bench("--smoke", "--workload", name, "--trace", "1",
                                  "--seed", "7"))["metrics"] for _ in range(2)]
        for metric in counts:
            assert runs[0][metric] == runs[1][metric], (name, metric, runs)


def test_refuses_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "closure-probe", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_window_at_budget():
    ladder = [(8, 0.25), (10, 0.5), (12, 1.0)]
    w, extrapolated = window_at_budget(ladder, 0.5)
    assert abs(w - 10) < 1e-9 and not extrapolated
    w, extrapolated = window_at_budget(ladder, 0.4)
    assert 8 < w < 10 and not extrapolated
    w, extrapolated = window_at_budget(ladder, 2.0)
    assert w > 12 and extrapolated
    w, extrapolated = window_at_budget(ladder, 0.1)
    assert w < 8 and extrapolated


def main() -> int:
    tests = [test_window_at_budget, test_refuses_without_sources,
             test_corrupt_digest_fails_one_job, test_traced_counts_repeat,
             test_smoke_prints_every_metric]
    try:
        for test in tests:
            test()
            print(f"ok   {test.__name__}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
