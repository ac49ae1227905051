"""Task cost functions, their exact gradients, and the training loop.

The classification cost is the mean squared error between the label and the
*continuous* readout expectation <Z_r>; the sign is applied only at
prediction time, since a cost in sign(<Z_r>) would be piecewise constant
and useless to line searches (result metadata records ``surrogate_cost``).
The autoencoder cost penalizes discarded qubits that are not in |0>:
    C = mean_i  (n_d - sum_{q in discard} <Z_q>_i) / 2
which vanishes exactly when every discarded qubit of every encoded state is
|0>, and equals n_d when they are all |1>.

Both costs are smooth in expectations m_i = <O>_i of a diagonal observable
O, so ``_Objective.gradient`` is the exact gradient the parameter-shift rule
(Schuld et al., arXiv:1811.11184) defines, from one forward pass and the
adjoint sweep ``CompiledCircuit.gradient``, fed with lam_i = (dC/dm_i) O psi_i.

``train`` runs the caller's ``CompiledCircuit``, which the caller compiles
once per model through ``compile_for`` and hands on to evaluation
(``vqcbench.metrics``), and builds one objective per run (``_Objective``),
which prepares the dataset once.
Under ``param_shift_gd`` the gradient at x reuses the forward pass the cost
call at x just made, so k steps make k + 1 forward passes and k sweeps.
"""

from __future__ import annotations

import time

import numpy as np

from .optimizers import (
    OptimizerConfig,
    TrainRecord,
    gradient_descent_minimize,
    nelder_mead_minimize,
    powell_minimize,
    spsa_minimize,
)
from .simulator import Circuit, CompiledCircuit, PassMemo, expectation, z_signs

TASKS = ("classify", "autoencode")


def check_discard(discard, num_qubits: int) -> list[int]:
    """Sorted, de-duplicated discard qubits; non-empty and in [0, num_qubits)."""
    discard = sorted(set(int(q) for q in discard))
    if not discard:
        raise ValueError("discard set must be non-empty")
    if discard[0] < 0 or discard[-1] >= num_qubits:
        raise ValueError(f"discard qubits {discard} out of range")
    return discard


class _Objective:
    """The task cost of one run over its whole dataset: the caller's compiled
    circuit, one prepared input, the task's diagonal observable O (Z on the
    readout qubit, or the sum of Z on the discarded qubits) and
    loss(m) = (C, dC/dm) in the m_i = <O>_i.

    A cost call keeps its forward pass (psi and the m_i) until the next call
    frees it, and ``gradient`` at the same parameters reuses it, so a
    gradient-descent step makes one forward pass and one adjoint sweep.
    Every pass goes through the run's one ``PassMemo``, so a pass whose
    parameters differ from the last in a few slots (Powell's line search
    moves one) recomputes only the block matrices those slots reach and
    applies only the blocks from the first of them on; its result is bit
    for bit the full pass's."""

    def __init__(self, compiled: CompiledCircuit, dataset, task: str, readout=None,
                 discard=None):
        n, size = compiled.num_qubits, len(dataset)
        if task == "classify":
            self.obs = z_signs(n, readout)
            labels = dataset.labels().astype(float)
            # C = (1/M) sum (l_i - m_i)^2
            self.loss = lambda m: (np.mean((labels - m) ** 2), 2.0 * (m - labels) / size)
        elif task == "autoencode":
            discard = check_discard(discard or (), n)
            self.obs = sum(z_signs(n, q) for q in discard)
            # C = (1/M) sum (n_d - s_i)/2
            self.loss = lambda m: (np.mean(0.5 * (len(discard) - m)), np.full(size, -0.5 / size))
        else:
            raise ValueError(f"unknown task {task!r}")
        self.compiled = compiled
        self.mat = compiled.state(dataset.amplitudes())
        self._pass = None  # (params, psi, m) of the last cost call
        self._memo = PassMemo()

    def _forward(self, params):
        psi = self.compiled.run(params, self.mat, self._memo)  # checks and converts params
        return psi, expectation(psi, self.obs)

    def cost(self, params) -> float:
        self._pass = None  # free the last pass before this one allocates
        psi, m = self._forward(params)
        self._pass = (np.array(params, dtype=float), psi, m)
        return float(self.loss(m)[0])

    def gradient(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        kept = self._pass
        if kept is not None and np.array_equal(kept[0], params):
            psi, m = kept[1:]
        else:
            psi, m = self._forward(params)
        weights = self.loss(m)[1]
        return self.compiled.gradient(params, psi, weights[:, None] * self.obs * psi)


def compile_for(circuit: Circuit, task: str, readout: int | None = None) -> CompiledCircuit:
    """The circuit compiled as its task reads it, the one compile that
    ``train``, evaluation and ``param_shift_gradient`` run.  A classifier reads
    <Z> on its readout qubit alone, so only that qubit's backward light cone
    is compiled (``CompiledCircuit``'s ``observed``); an autoencoder's
    reset-channel fidelity reads every qubit, so all of it is."""
    return CompiledCircuit(circuit, [readout] if task == "classify" else None)


def param_shift_gradient(
    circuit: Circuit,
    dataset,
    params,
    task: str = "classify",
    readout: int | None = None,
    discard=None,
) -> np.ndarray:
    """Exact gradient of a task cost (the parameter-shift gradient, whose name
    ``param_shift_gd`` keeps) by one forward pass and one adjoint sweep
    (``CompiledCircuit.gradient``) on what ``train`` compiles: ``compile_for``
    of the circuit, on every call.  ``train`` calls ``_Objective.gradient``
    instead, and this wrapper stays only because the benchmark harness under
    ``bench/`` imports it."""
    compiled = compile_for(circuit, task, readout)
    return _Objective(compiled, dataset, task, readout, discard).gradient(params)


def initial_parameters(param_count: int, seed: int) -> np.ndarray:
    """Independent uniform draws from [-pi, pi)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, size=param_count)


def train(
    task: str,
    compiled: CompiledCircuit,
    dataset,
    optimizer: OptimizerConfig,
    readout: int | None = None,
    discard=None,
    init_seed: int = 0,
) -> TrainRecord:
    """Minimize the task cost of the compiled circuit from
    ``initial_parameters(..., init_seed)``; wall time covers the optimizer
    call only."""
    x0 = initial_parameters(compiled.param_count, init_seed)
    objective = _Objective(compiled, dataset, task, readout, discard)
    minimize = {  # OptimizerConfig has checked the kind
        "powell": powell_minimize, "nelder_mead": nelder_mead_minimize, "spsa": spsa_minimize,
        "param_shift_gd": lambda f, x, c: gradient_descent_minimize(f, objective.gradient, x, c),
    }[optimizer.kind]
    t0 = time.perf_counter()
    record = minimize(objective.cost, x0, optimizer)
    elapsed = time.perf_counter() - t0

    record.wall_time_total = elapsed
    record.wall_time_per_sample = elapsed / len(dataset)
    return record
