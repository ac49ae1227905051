"""Benchmark of the vqcbench stack: one command per workload run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare RUNS [--seconds S] [--workload NAME ...]

Run from the root of a checkout.  Each round of a workload runs in a fresh
child process (bench/child.py) with one BLAS/OpenMP thread; one child runs
at a time.  Rounds repeat while a further round is expected to end closer
to S seconds than stopping would, and always at least once.

--trace 0 prints the end-to-end metrics, each the median over the rounds.
--trace 1 runs the round untraced and then traced with the same inputs,
and prints the per-layer metrics of the traced round together with the
tracing overhead (the difference in wall_s).  The last line of standard
output is the result object.

--compare RUNS makes two independent sets of RUNS runs of each workload
(seeds 1..RUNS and 1001..1000+RUNS) and prints, for every end-to-end metric
and workload, both medians, both quartile ranges and whether they agree
within the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # the whole command must end within 180 s

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, operations_per_round  # noqa: E402

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

E2E_UNITS = {"setup_s": "s", "data_s": "s", "train_s": "s", "eval_s": "s",
             "wall_s": "s", "peak_rss_mb": "MB", "score": "fraction"}


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vqcbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def run_child(workload: str, seed: int, round_dir: Path, trace: bool, timeout: float) -> dict:
    """One round in a fresh process; a crash or timeout fails every operation."""
    if round_dir.exists():
        shutil.rmtree(round_dir)
    round_dir.mkdir(parents=True)
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]))
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed),
           str(round_dir), "1" if trace else "0", repr(t0)]
    log = round_dir / "child.log"
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=fh, text=True, cwd=ROOT,
                                env=env)
        try:
            stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, _ = proc.communicate()
            stdout += "\nround timed out"
        fh.write(stdout)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        ops = operations_per_round(WORKLOADS[workload])
        result = {"attempted": ops, "failed": ops,
                  "problems": [f"child exited {proc.returncode}; see {log}"]}
    result["round_s"] = time.monotonic() - t0
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    run_dir = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    start = time.monotonic()
    rounds = []
    while True:
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        if trace:
            plain = run_child(workload, seed, run_dir / f"round{len(rounds)}-plain", False,
                              remaining / 2)
            traced = run_child(workload, seed, run_dir / f"round{len(rounds)}-traced", True,
                               RUN_LIMIT_S - (time.monotonic() - start))
            rounds.append((plain, traced))
        else:
            rounds.append(run_child(workload, seed, run_dir / f"round{len(rounds)}", False,
                                    remaining))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        if trace or elapsed + per_round / 2 > seconds or elapsed + per_round > RUN_LIMIT_S:
            break

    children = [c for r in rounds for c in (r if trace else (r,))]
    problems = [p for c in children for p in c.get("problems", [])]
    summary = {
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
    }
    if trace:
        plain, traced = rounds[0]
        metrics = layer_metrics(plain, traced)
    else:
        metrics = {name: {"value": statistics.median(c[name] for c in rounds), "unit": unit}
                   for name, unit in E2E_UNITS.items() if all(name in c for c in rounds)}
        if len(metrics) < len(E2E_UNITS):
            summary["correct"] = False
    summary["metrics"] = metrics
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": environment(), "rounds": rounds, "problems": problems}
    (run_dir / "run.json").write_text(json.dumps(details, indent=1) + "\n")
    return summary, details


def layer_metrics(plain: dict, traced: dict) -> dict:
    metrics = {}
    if "layers" not in traced or "wall_s" not in plain:
        return metrics
    for name, (value, unit) in traced["layers"].items():
        metrics[name] = {"value": value, "unit": unit}
    for n, timings in traced["gate_us"].items():
        for kind, value in timings.items():
            metrics[f"simulator.gate_us.{kind}.n{n}"] = {"value": value, "unit": "us"}
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / plain["wall_s"], "unit": "%"}
    return metrics


def print_run(summary: dict, details: dict) -> None:
    env = details["environment"]
    print(f"# {details['workload']} seed {details['seed']}: {len(details['rounds'])} round(s), "
          f"{summary['attempted']} operations attempted, {summary['failed']} failed")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for problem in details["problems"][:20]:
        print(f"# problem: {problem}")
    for child in (c for r in details["rounds"] for c in (r if isinstance(r, tuple) else (r,))):
        if "min_abs_z" in child:
            print(f"# smallest |<Z_r>| over the test states: {child['min_abs_z']:.6f}")
            break
    for name, metric in summary["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))


def quartile_spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def compare(runs: int, seconds: float, workloads: list[str]) -> int:
    """Two independent sets of runs per workload; agreement within the bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sets = {}
    for label, base in (("A", 1), ("B", 1001)):
        for workload in workloads:
            for seed in range(base, base + runs):
                summary, _ = run(workload, seed, seconds, False)
                print(f"# set {label} {workload} seed {seed}: "
                      + json.dumps(summary), flush=True)
                sets.setdefault((label, workload), []).append(summary)
    all_ok = True
    print(f"{'workload':14s} {'metric':12s} {'median A':>11s} {'median B':>11s} "
          f"{'IQR A':>7s} {'IQR B':>7s} {'bound':>6s}  verdict")
    for workload in workloads:
        a, b = sets[("A", workload)], sets[("B", workload)]
        for name, (bound, better) in bounds.items():
            va = [s["metrics"][name]["value"] for s in a]
            vb = [s["metrics"][name]["value"] for s in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            ia, ib = quartile_spread(va), quartile_spread(vb)
            spread_ok = name == "setup_s" or (ia <= bound and ib <= bound)
            ok = spread_ok and worse <= bound
            all_ok &= ok
            print(f"{workload:14s} {name:12s} {ma:11.5g} {mb:11.5g} {ia:7.2%} {ib:7.2%} "
                  f"{bound:6.2f}  {'agree' if ok else 'DISAGREE'}"
                  + ("" if ia < bound / 3 and ib < bound / 3 or name == "setup_s"
                     else "  (spread above a third of the bound)"))
        share_a = sum(s["failed"] for s in a) / sum(s["attempted"] for s in a)
        share_b = sum(s["failed"] for s in b) / sum(s["attempted"] for s in b)
        all_ok &= share_a == share_b
        print(f"{workload:14s} failed share A {share_a:.4f}, B {share_b:.4f}")
    return 0 if all_ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=int, metavar="RUNS")
    args = parser.parse_args()
    if not (ROOT / "src" / "vqcbench" / "cli.py").is_file():
        print(f"no vqcbench sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.compare:
        return compare(args.compare, args.seconds, args.workload or list(WORKLOADS))
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    summary, details = run(args.workload[0], args.seed, args.seconds, bool(args.trace))
    print_run(summary, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
