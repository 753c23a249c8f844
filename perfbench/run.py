"""attackcf benchmark: run one named workload and print its metrics.

    python3 perfbench/run.py --workload deep-180 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; attackcf is
imported from its src/ directory, nothing needs installing.  Workloads
are defined in workloads.py, metric names and units in BENCHMARK.json.

One run:

1. a generator process writes the workload's CSV, config and query files
   (derived from --seed) under .perfbench/ in the checkout;
2. a fresh measured process repeats the workload's fixed query batch,
   one query at a time, while another batch fits in --seconds.  Before
   each batch it sets up attackcf on the files (load_bundle,
   validate_model and kernel warm-up) repeatedly for half a second;
   setup_s is the median of all those set-ups.  The last model serves
   the batch, so lazy indexes and memoized results are paid in every
   batch, as by a new analyst process.  run_s is the median over batches
   of the batch's summed query latencies; query_p50_ms and query_p90_ms
   are percentiles over the queries of each query's median repeat;
   peak_rss_mb is read after the first batch, which runs before the
   output checker exists.  Every other batch's outputs are checked
   (checks.py), and every batch must give the same output digest; on the
   default seed the digest must also match expected.json;
3. this script prints the run record and every metric with its unit,
   then, as the last line, one JSON object with the keys correct,
   attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of
--seconds untraced and half with every attackcf layer wrapped by
tracer.py, and reports the per-layer metrics; the spans are written to
.perfbench/results/.  The kernel backend is ATTACKCF_BACKEND, pinned to
"python" unless set.  The exit code is 0 when a result was printed, 2
when the checkout holds no attackcf sources, and 1 when a process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 1
#: a seed kept out of tuning, for checking a claimed gain on unseen inputs
HELD_OUT_SEED = 7331
TIME_LIMIT_S = 170


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:  # no git installed
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker(role: str, args, data: Path, env: dict, timeout: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--data", str(data), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    # run() kills the child on timeout and waits for it
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return proc.stdout


def describe(name: str, value: float, unit: str, res: dict) -> str:
    line = f"{name:28s} {value:14.6f} {unit}"
    n = res["n_queries"]
    if name == "setup_s":
        line += f"  (median of {res['n_setups']} set-ups)"
    elif name == "run_s":
        line += f"  (median of {res['n_batches']} repeats of the {n}-query batch)"
    elif name.startswith("query_p"):
        p = int(name[len("query_p"):].split("_")[0])
        line += f"  (over n={n} queries, each its median of {res['n_batches']} repeats"
        if n * (100 - p) / 100 < 10:
            line += "; fewer than 10 samples beyond this percentile, read run_s"
        line += ")"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one attackcf benchmark workload.",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "attackcf" / "__init__.py").is_file():
        print(f"no attackcf sources under {ROOT / 'src'}; run inside a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(sorted(names))}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.setdefault("ATTACKCF_BACKEND", "python")
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "backend": env["ATTACKCF_BACKEND"], "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "pythonhashseed": "0",
    }

    started = time.monotonic()
    data = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    data.mkdir(parents=True)
    try:
        worker("generate", args, data, env, TIME_LIMIT_S)
        out = worker("measure", args, data, env, TIME_LIMIT_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])

    values = res["layers"] if args.trace else res["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = res["failed"] == 0 and not res["problems"]
    record.update(correct=correct, attempted=res["attempted"], failed=res["failed"],
                  problems=res["problems"], digest=res["digest"], metrics=metrics)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(res["spans"]), encoding="utf-8")

    print(" ".join(f"{k}={record[k]}" for k in (
        "workload", "seed", "held_out_seed", "seconds", "trace", "backend", "python",
        "numpy", "nproc", "commit")))
    for problem in res["problems"]:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(describe(name, m["value"], m["unit"], res))
    print(f"{'error_rate':28s} {res['failed'] / res['attempted']:14.6f} ratio"
          f"  ({res['failed']} failed of {res['attempted']} attempted queries)")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
