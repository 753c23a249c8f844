"""Smoke check of the benchmark itself, at a tiny scale (about a minute).

    python3 perfbench/smoke.py

For every workload, in both modes, it asserts that the result line has
exactly the keys correct, attempted, failed and metrics; that every metric
named in BENCHMARK.json is emitted with its unit; that error_rate is 0;
and, in the traced run, that the per-layer self times add up to the
traced run time.  It also checks that the benchmark fails without a
result when the checkout holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def check_result(workload: str, trace: int, wanted: list[dict]) -> None:
    from worker import SELF_TIME_METRICS

    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True, proc.stdout
    assert res["attempted"] >= 1 and res["failed"] == 0, res
    assert any(line.split()[:2] == ["error_rate", "0.000000"] for line in lines), lines
    metrics = res["metrics"]
    assert list(metrics) == [m["name"] for m in wanted], list(metrics)
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
        assert trace or got["value"] > 0, (m["name"], got)
    if trace:
        parts = sum(metrics[name]["value"] for name in SELF_TIME_METRICS)
        total = metrics["bench.traced_run_s"]["value"]
        assert math.isclose(parts, total, rel_tol=1e-6), (parts, total)
    print(f"ok  {workload:14s} trace={trace}  {len(metrics)} metrics, "
          f"{res['attempted']} queries, 0 failed")


def check_fails_without_sources() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "deep-180", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout
    print("ok  fails without a result when the checkout has no attackcf sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        check_result(w["name"], 0, spec["end_to_end"])
        check_result(w["name"], 1, spec["per_layer"])
    check_fails_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
