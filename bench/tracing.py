"""Spans around the public functions of each ``vqcbench`` module, and the
per-layer metrics derived from them.

The tracer replaces every public function of the traced modules with a
wrapper that records a span [name, start, end, parent index].  Several
modules import functions by name (``training``, ``metrics``, ``cli``), so
each wrapper is also put into every ``vqcbench`` namespace that holds the
original.  Spans stay in memory and are written out once, after the run.

Self time is a span's duration minus the time its direct child spans
cover.  Gate applications and bytes moved are computed, not timed: a
circuit pass applies each of its gates once to the whole (batch, 2^N)
array, and each application reads and writes that array once.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import resource
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spinmodels", "storage", "ansatz", "simulator", "training",
          "optimizers", "metrics", "cli")

# Called once per gate application; a span there would cost more than the
# kernels it brackets at N = 8.  L0 figures come from gate_timings instead.
UNTRACED = {"simulator.resolved_angle", "simulator.gate_matrix"}

GATE_KINDS = ("ry", "rx", "rz", "cry", "cz", "cnot", "x")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrapping
    def wrap(self, name, fn, before=None, after=None):
        """Span-recording wrapper; ``after`` may return a replacement result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after:
                replaced = after(args, kwargs, result, token)
                if replaced is not None:
                    return replaced
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, everywhere."""
        modules = [importlib.import_module(f"vqcbench.{layer}") for layer in LAYERS]
        replace: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                before, after = self._hooks(name)
                replace[id(obj)] = self.wrap(name, obj, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vqcbench" or mod_name.startswith("vqcbench.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        # Parameter-shift replays call the gate kernel from the training
        # namespace, bypassing run_circuit_batch; count them there only.
        training = sys.modules["vqcbench.training"]
        kernel = getattr(training, "_apply_gate_inplace", None)
        if kernel is not None:
            self._set(training, "_apply_gate_inplace", self._count_kernel(kernel))

    def _set(self, mod, attr, wrapper) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def _count_kernel(self, kernel):
        counts = self.counts

        def counted(amp, *args, **kwargs):
            counts["kernel_calls"] += 1
            counts["gate_applications"] += 1
            counts["bytes_moved"] += 2 * amp.nbytes
            return kernel(amp, *args, **kwargs)

        counted.__wrapped__ = kernel
        return counted

    def _hooks(self, name):
        counts = self.counts
        if name in ("simulator.run_circuit_batch", "simulator.run_circuit"):
            def after(args, kwargs, result, _):
                out = result if isinstance(result, np.ndarray) else result.amplitudes
                gates = len(args[0].gates)
                counts["passes"] += 1
                counts["gate_applications"] += gates
                counts["bytes_moved"] += 2 * out.nbytes * gates
            return None, after
        if name in ("training.make_classification_cost", "training.make_autoencoder_cost"):
            def after(args, kwargs, result, _):
                return self.wrap("training.cost", result)
            return None, after
        if name == "training.param_shift_gradient":
            def before(args, kwargs):
                return counts["kernel_calls"]
            def after(args, kwargs, result, start):
                gates = max(len(args[0].gates), 1)
                counts["passes"] += (counts["kernel_calls"] - start) / gates
            return before, after
        if name.startswith("storage.write_"):
            def after(args, kwargs, result, _):
                for a in list(args) + list(kwargs.values()):
                    if isinstance(a, (str, os.PathLike)):
                        counts["bytes_written"] += os.path.getsize(a)
                        break
            return None, after
        if name == "metrics.evaluate_autoencoder":
            def before(args, kwargs):
                return _maxrss_mb()
            def after(args, kwargs, result, start):
                counts["eval_rss_growth_mb"] += _maxrss_mb() - start
            return before, after
        return None, None

    # ---------------------------------------------------------- reporting
    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        spans = self.spans
        duration = [end - start for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += duration[i]
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        for i, (name, _, _, parent) in enumerate(spans):
            total[name] += duration[i]
            calls[name] += 1
            self_time[name.split(".")[0]] += duration[i] - child_time[i]
        top_ansatz = sum(duration[i] for i, (name, _, _, parent) in enumerate(spans)
                         if name.startswith("ansatz.")
                         and not (parent >= 0 and spans[parent][0].startswith("ansatz.")))

        def per_call(names, scale=1.0):
            n = sum(calls[k] for k in names)
            return scale * sum(total[k] for k in names) / n if n else 0.0

        c = self.counts
        solvers = ("spinmodels.ground_state_dense", "spinmodels.ground_state_lanczos")
        passes = ("simulator.run_circuit_batch", "simulator.run_circuit")
        cost_evals = calls["training.cost"]
        return {
            "spinmodels.hamiltonian_s": (total["spinmodels.build_hamiltonian"], "s"),
            "spinmodels.solve_s": (sum(total[k] for k in solvers), "s"),
            "spinmodels.solve_calls": (sum(calls[k] for k in solvers), "count"),
            "storage.write_s": (sum(v for k, v in total.items()
                                    if k.startswith("storage.write_")), "s"),
            "storage.read_s": (sum(v for k, v in total.items()
                                   if k.startswith("storage.read_")), "s"),
            "storage.bytes_written": (c["bytes_written"], "B"),
            "ansatz.build_ms": (1e3 * top_ansatz, "ms"),
            "simulator.passes": (c["passes"], "count"),
            "simulator.pass_ms": (per_call(passes, 1e3), "ms"),
            "simulator.gate_applications": (c["gate_applications"], "count"),
            "simulator.bytes_moved_gb": (c["bytes_moved"] / 1e9, "GB"),
            "training.cost_evals": (cost_evals, "count"),
            "training.cost_eval_ms": (per_call(["training.cost"], 1e3), "ms"),
            "training.grad_calls": (calls["training.param_shift_gradient"], "count"),
            "training.grad_ms": (per_call(["training.param_shift_gradient"], 1e3), "ms"),
            "optimizers.self_s": (self_time["optimizers"], "s"),
            "optimizers.self_us_per_eval": (
                1e6 * self_time["optimizers"] / cost_evals if cost_evals else 0.0, "us"),
            "metrics.classify_eval_ms": (per_call(["metrics.evaluate_classifier"], 1e3), "ms"),
            "metrics.fidelity_s_per_state": (per_call(["metrics.reconstruct_fidelity"]), "s"),
            "metrics.eval_rss_growth_mb": (c["eval_rss_growth_mb"], "MB"),
            "cli.self_s": (self_time["cli"], "s"),
        }


def gate_timings(num_qubits: int, batch: int, seed: int = 0) -> dict[str, float]:
    """Microseconds per gate application of each kind on a (batch, 2^N) array.

    Times run_circuit_batch on circuits of eight gates of one kind, minus
    the same call on an empty circuit (the input copy), median of repeats.
    """
    from vqcbench.simulator import Circuit, Gate, run_circuit_batch

    rng = np.random.default_rng(seed)
    states = rng.normal(size=(batch, 1 << num_qubits))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    wires = [(i * num_qubits) // 8 for i in range(8)]

    def timed(circuit, params):
        samples = []
        deadline = time.perf_counter() + 0.3
        while len(samples) < 5 or (time.perf_counter() < deadline and len(samples) < 50):
            t0 = time.perf_counter()
            run_circuit_batch(circuit, params, states)
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples))

    empty = timed(Circuit(num_qubits, [], 0), np.zeros(0))
    out = {}
    for kind in GATE_KINDS:
        gates = []
        for q in wires:
            targets = (q, (q + 1) % num_qubits) if kind in ("cry", "cz", "cnot") else (q,)
            slot = 0 if kind in ("ry", "rx", "rz", "cry") else None
            gates.append(Gate(kind, targets, slot=slot))
        circuit = Circuit(num_qubits, gates, 1 if kind in ("ry", "rx", "rz", "cry") else 0)
        params = np.full(circuit.param_count, 0.7)
        out[kind] = 1e6 * max(timed(circuit, params) - empty, 0.0) / len(gates)
    return out
