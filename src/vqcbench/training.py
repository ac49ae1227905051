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
O, so ``param_shift_gradient`` returns the exact gradient the
parameter-shift rule (Schuld et al., arXiv:1811.11184) defines from one
forward pass and the adjoint sweep ``CompiledCircuit.gradient``, fed with
lam_i = (dC/dm_i) O psi_i.

``train`` builds one objective per run (``_Objective``): the circuit is
compiled and the dataset prepared once.  Under ``param_shift_gd`` the
gradient at x reuses the forward pass the cost call at x just made, so k
steps make k + 1 forward passes and k sweeps.
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
from .simulator import Circuit, CompiledCircuit, z_signs

TASKS = ("classify", "autoencode")


def _check_discard(discard, num_qubits: int | None = None) -> list[int]:
    """Sorted, de-duplicated discard qubits; non-empty, non-negative and,
    when ``num_qubits`` is given, below it."""
    discard = sorted(set(int(q) for q in discard))
    if not discard:
        raise ValueError("discard set must be non-empty")
    if discard[0] < 0 or (num_qubits is not None and discard[-1] >= num_qubits):
        raise ValueError(f"discard qubits {discard} out of range")
    return discard


class _Objective:
    """The task cost of one run over its whole dataset: one compiled circuit,
    one prepared input, the task's diagonal observable O (Z on the readout
    qubit, or the sum of Z on the discarded qubits) and loss(m) = (C, dC/dm)
    in the m_i = <O>_i.

    A cost call keeps its forward pass (psi and the m_i) until the next call
    frees it, and ``gradient`` at the same parameters reuses it, so a
    gradient-descent step makes one forward pass and one adjoint sweep."""

    def __init__(self, circuit: Circuit, dataset, task: str, readout=None, discard=None):
        n, size = circuit.num_qubits, len(dataset)
        if task == "classify":
            if readout is None or not 0 <= readout < n:
                raise ValueError(f"readout qubit {readout} out of range")
            labels = dataset.labels().astype(float)
            self.obs = z_signs(n, readout)
            # C = (1/M) sum (l_i - m_i)^2
            self.loss = lambda m: (np.mean((labels - m) ** 2), 2.0 * (m - labels) / size)
        elif task == "autoencode":
            discard = _check_discard(discard or (), n)
            self.obs = sum(z_signs(n, q) for q in discard)
            # C = (1/M) sum (n_d - s_i)/2
            self.loss = lambda m: (np.mean(0.5 * (len(discard) - m)), np.full(size, -0.5 / size))
        else:
            raise ValueError(f"unknown task {task!r}")
        self.compiled = CompiledCircuit(circuit)
        self.mat = self.compiled.state(dataset.amplitudes())
        self._pass = None  # (params, psi, m) of the last cost call

    def _forward(self, params):
        psi = self.compiled.run(params, self.mat)  # checks and converts params
        return psi, (psi * psi.conj()).real @ self.obs

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


def classification_cost(circuit: Circuit, readout: int, dataset, params) -> float:
    """Mean squared error between labels and readout expectations, in [0, 4]."""
    return _Objective(circuit, dataset, "classify", readout=readout).cost(params)


def autoencoder_cost(encoder: Circuit, discard, dataset, params) -> float:
    """Mean reset-penalty cost over the dataset, in [0, n_d]."""
    return _Objective(encoder, dataset, "autoencode", discard=discard).cost(params)


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
    (``CompiledCircuit.gradient``)."""
    return _Objective(circuit, dataset, task, readout, discard).gradient(params)


def initial_parameters(param_count: int, seed: int) -> np.ndarray:
    """Independent uniform draws from [-pi, pi)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, size=param_count)


def train(
    task: str,
    circuit: Circuit,
    dataset,
    optimizer: OptimizerConfig,
    readout: int | None = None,
    discard=None,
    init_params=None,
    init_seed: int = 0,
) -> TrainRecord:
    """Minimize the task cost; wall time covers the optimizer call only."""
    if init_params is not None:
        x0 = np.asarray(init_params, dtype=float)
        if x0.shape != (circuit.param_count,):
            raise ValueError(f"init_params must have length {circuit.param_count}, got {x0.shape}")
    else:
        x0 = initial_parameters(circuit.param_count, init_seed)

    objective = _Objective(circuit, dataset, task, readout, discard)
    minimize = {"powell": powell_minimize, "nelder_mead": nelder_mead_minimize,
                "spsa": spsa_minimize}
    t0 = time.perf_counter()
    if optimizer.kind in minimize:
        x, record = minimize[optimizer.kind](objective.cost, x0, optimizer)
    elif optimizer.kind == "param_shift_gd":
        x, record = gradient_descent_minimize(objective.cost, objective.gradient, x0, optimizer)
    else:
        raise ValueError(f"unknown optimizer kind {optimizer.kind!r}")
    elapsed = time.perf_counter() - t0

    record.wall_time_total = elapsed
    record.wall_time_per_sample = elapsed / len(dataset)
    return record
