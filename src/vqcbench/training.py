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
which prepares the dataset once.  ``compile_for`` maps the task to the
qubits it reads, and the compile keeps them (``CompiledCircuit.observed``):
it is the one carrier of a run's target.
Under ``param_shift_gd`` the gradient at x gets the pass the cost call at x
left in the run's ``PassMemo``, so k steps make k + 1 forward passes and k
sweeps.
"""

from __future__ import annotations

import time

import numpy as np

from .optimizers import (
    OptimizerConfig,
    TrainRecord,
    gradient_descent_minimize,
    powell_minimize,
    spsa_minimize,
)
from .simulator import (Circuit, CompiledCircuit, PassMemo, expectation, pass_workers,
                        z_signs)

TASKS = ("classify", "autoencode")


def observable(compiled: CompiledCircuit, task: str) -> np.ndarray:
    """The diagonal of the task's observable O on the compile's ``observed``:
    Z on a classifier's readout, which must be its one observed qubit, or the
    sum of Z over an autoencoder's discarded qubits (one qubit's cached
    ``z_signs`` alone), for training and evaluation alike."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    first, *rest = compiled.observed
    if task == "classify" and rest:
        raise ValueError(f"a classifier reads one qubit, but its compile observes "
                         f"{compiled.observed}")
    n = compiled.num_qubits
    return sum((z_signs(n, q) for q in rest), z_signs(n, first))


class _Objective:
    """The task cost of one run over its whole dataset: the caller's compiled
    circuit, one prepared input, the task's diagonal observable O
    (``observable``) and loss(m) = (C, dC/dm) in the m_i = <O>_i.

    It keeps no pass of its own: the cost's and the gradient's passes go
    through the run's one ``PassMemo``.  A pass that changes no block (the
    gradient at the cost's parameters) returns the last output; one that
    moves a few slots recomputes only the block matrices they reach and
    applies only the blocks from the first of them on.  Either result is bit
    for bit the full pass's."""

    def __init__(self, compiled: CompiledCircuit, dataset, task: str):
        self.obs, size = observable(compiled, task), len(dataset)
        if task == "classify":
            labels = dataset.labels().astype(float)
            # C = (1/M) sum (l_i - m_i)^2
            self.loss = lambda m: (np.mean((labels - m) ** 2), 2.0 * (m - labels) / size)
        else:
            n_d = len(compiled.observed)
            # C = (1/M) sum (n_d - s_i)/2
            self.loss = lambda m: (np.mean(0.5 * (n_d - m)), np.full(size, -0.5 / size))
        self.compiled = compiled
        self.mat = compiled.state(dataset.amplitudes())
        self._memo = PassMemo()

    def _forward(self, params):
        psi = self.compiled.run(params, self.mat, self._memo)  # checks and converts params
        return psi, expectation(psi, self.obs)

    def cost(self, params) -> float:
        return float(self.loss(self._forward(params)[1])[0])

    def gradient(self, params) -> np.ndarray:
        psi, m = self._forward(params)
        weights = self.loss(m)[1]
        return self.compiled.gradient(params, psi, weights[:, None] * self.obs * psi)


def compile_for(circuit: Circuit, task: str, readout: int | None = None,
                discard=None) -> CompiledCircuit:
    """The circuit compiled as its task reads it, the one compile that
    ``train``, evaluation and ``param_shift_gradient`` run: only the backward
    light cone of the qubits the task reads, which the compile keeps as its
    ``observed``.  A classifier reads <Z> on its readout qubit.  An
    autoencoder reads its discarded qubits: its cost reads their <Z>, and its
    fidelity F = ||A^dagger a0||^2 (``vqcbench.metrics``) is built from
    A^dagger A, their reduced state, so a gate outside their cone, which acts
    on kept qubits alone, changes neither.  A task with no target is refused."""
    observed = [readout] if task == "classify" else discard
    return CompiledCircuit(circuit, () if observed is None else observed)


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
    return _Objective(compile_for(circuit, task, readout, discard), dataset, task).gradient(params)


def initial_parameters(param_count: int, seed: int) -> np.ndarray:
    """Independent uniform draws from [-pi, pi)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, size=param_count)


def train(
    task: str,
    compiled: CompiledCircuit,
    dataset,
    optimizer: OptimizerConfig,
    init_seed: int = 0,
) -> TrainRecord:
    """Minimize the task cost of the compiled circuit from
    ``initial_parameters(..., init_seed)``; wall time covers the optimizer
    call only.  The cost reads the qubits the circuit was compiled for
    (``compile_for``) from the compile.  The minimizer sees only the live
    slots, those that drive a step of the compile (``first`` before the step
    count); the cost reads no other, so the others keep their initial draw in
    ``final_params``.  The record keeps how many threads a pass could share
    single-row chunks over (``pass_workers``), which a wall time depends on."""
    x0 = initial_parameters(compiled.param_count, init_seed)
    live = np.flatnonzero(compiled.first[:-1] < len(compiled.steps))
    objective = _Objective(compiled, dataset, task)

    def full(x):
        params = x0.copy()
        params[live] = x
        return params

    def gradient(x):
        return objective.gradient(full(x))[live]

    minimize = {  # OptimizerConfig has checked the kind
        "powell": powell_minimize, "spsa": spsa_minimize,
        "param_shift_gd": lambda f, x, c: gradient_descent_minimize(f, gradient, x, c),
    }[optimizer.kind]
    t0 = time.perf_counter()
    record = minimize(lambda x: objective.cost(full(x)), x0[live], optimizer)
    elapsed = time.perf_counter() - t0

    record.final_params = full(record.final_params)
    record.live_params = len(live)
    record.wall_time_total = elapsed
    record.pass_workers = pass_workers()
    record.wall_time_per_sample = elapsed / len(dataset)
    return record
