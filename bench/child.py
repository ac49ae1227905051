"""One round of one workload, in a fresh process.

Usage (the parent, run.py, passes these):
    python3 bench/child.py WORKLOAD SEED ROUND_DIR TRACE T0

T0 is the parent's time.monotonic() just before it started this process,
so set-up time counts interpreter start and imports.  The last line of
standard output is one JSON object with the round's figures.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import vqcbench.ansatz as ansatz
import vqcbench.cli as cli
from vqcbench.config import load_config

import checks
from tracing import Tracer, gate_timings
from workloads import WORKLOADS, cli_calls, gate_batch, write_config

PHASES = {
    "generate_dataset": "data", "write_dataset": "data", "read_dataset": "data",
    "train": "train", "evaluate_classifier": "eval", "evaluate_autoencoder": "eval",
}


class PhaseTimers:
    """Timers on the public calls the CLI commands make.

    Arguments and results are kept by reference, so the checks can see the
    datasets a benchmark sweep generates and subsamples but never writes.
    """

    def __init__(self):
        self.seconds = {"data": 0.0, "train": 0.0, "eval": 0.0}
        self.calls: list[tuple[str, tuple, object]] = []

    def install(self) -> None:
        for name, phase in PHASES.items():
            setattr(cli, name, self._timed(name, phase, getattr(cli, name)))

    def _timed(self, name, phase, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds[phase] += time.perf_counter() - t0
            self.calls.append((name, args, result))
            return result
        return timed

    def results(self, name):
        return [(args, result) for n, args, result in self.calls if n == name]


def run_calls(calls) -> list[int]:
    codes = []
    for argv in calls:
        try:
            codes.append(cli.main(argv))
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            codes.append(1)
    return codes


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv) -> int:
    name, seed, round_dir, trace, t0 = argv
    seed, trace, t0 = int(seed), trace == "1", float(t0)
    workload = WORKLOADS[name]
    round_dir = Path(round_dir)
    round_dir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    config_path = write_config(workload, seed, round_dir)
    config = load_config(config_path)
    for spec in config.benchmark_models():
        ansatz.build_ansatz(spec)  # through the module, so a traced run sees it
    setup_end = time.monotonic()

    phases = PhaseTimers()
    phases.install()
    codes = run_calls(cli_calls(workload, config_path))
    wall_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write(round_dir / "spans.jsonl")

    if workload.kind == "pipeline":
        problems, extra = checks.check_pipeline(workload, config, round_dir, codes)
    else:
        problems, extra = checks.check_sweep(
            workload, config, round_dir, codes,
            [result for _, result in phases.results("generate_dataset")],
            [args[2] for args, _ in phases.results("train")])
    result = {
        "setup_s": setup_end - t0,
        "wall_s": wall_end - t0,
        "data_s": phases.seconds["data"],
        "train_s": phases.seconds["train"],
        "eval_s": phases.seconds["eval"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(problems),
        "failed": sum(1 for p in problems if p),
        "problems": [q for p in problems for q in p],
        "blas_threads": blas_threads(),
        **extra,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["gate_us"] = {n: gate_timings(n, gate_batch(workload, n)) for n in (16, 8)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
