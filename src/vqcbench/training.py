"""Task cost functions, their exact gradients, and the training loop.

The classification cost is the mean squared error between the label and the
*continuous* readout expectation <Z_r>; the sign is applied only at
prediction time.  Training on sign(<Z_r>) directly would make the cost
piecewise constant and unusable for line-search methods, so the continuous
surrogate is what gets minimized (recorded as ``surrogate_cost`` in result
metadata).

The autoencoder cost penalizes discarded qubits that are not in |0>:
    C = mean_i  (n_d - sum_{q in discard} <Z_q>_i) / 2
which vanishes exactly when every discarded qubit of every encoded state is
|0>, and equals n_d when they are all |1>.

Both costs are smooth functions of expectations of diagonal observables, so
their gradient is exact: ``param_shift_gradient`` returns the gradient the
parameter-shift rule (Schuld et al., arXiv:1811.11184) defines, computed by
adjoint differentiation (Jones and Gacon, arXiv:2009.02823): one forward
pass and one backward sweep, whatever the parameter count.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .optimizers import (
    OptimizerConfig,
    TrainRecord,
    gradient_descent_minimize,
    nelder_mead_minimize,
    powell_minimize,
    spsa_minimize,
)
from .simulator import (
    ROTATION_KINDS,
    Circuit,
    Gate,
    _apply_gate_inplace,
    _z_signs,
    expectation_z_batch,
    run_circuit_batch,
)

TASKS = ("classify", "autoencode")


def make_classification_cost(circuit: Circuit, readout: int, dataset):
    """Cost closure evaluating the whole dataset in one batched pass."""
    if not 0 <= readout < circuit.num_qubits:
        raise ValueError(f"readout qubit {readout} out of range")
    mat = dataset.amplitudes()
    labels = dataset.labels().astype(float)

    def cost(params) -> float:
        out = run_circuit_batch(circuit, params, mat)
        m = expectation_z_batch(out, circuit.num_qubits, readout)
        return float(np.mean((labels - m) ** 2))

    return cost


def classification_cost(circuit: Circuit, readout: int, dataset, params) -> float:
    """Mean squared error between labels and readout expectations, in [0, 4]."""
    return make_classification_cost(circuit, readout, dataset)(params)


def _check_discard(discard, num_qubits: int | None = None) -> list[int]:
    """Sorted, de-duplicated discard qubits; non-empty, non-negative and,
    when ``num_qubits`` is given, below it."""
    discard = sorted(set(int(q) for q in discard))
    if not discard:
        raise ValueError("discard set must be non-empty")
    if discard[0] < 0 or (num_qubits is not None and discard[-1] >= num_qubits):
        raise ValueError(f"discard qubits {discard} out of range")
    return discard


def make_autoencoder_cost(encoder: Circuit, discard, dataset):
    discard = _check_discard(discard, encoder.num_qubits)
    mat = dataset.amplitudes()
    n_d = len(discard)
    n = encoder.num_qubits

    def cost(params) -> float:
        out = run_circuit_batch(encoder, params, mat)
        z_sum = sum(expectation_z_batch(out, n, q) for q in discard)
        return float(np.mean(0.5 * (n_d - z_sum)))

    return cost


def autoencoder_cost(encoder: Circuit, discard, dataset, params) -> float:
    """Mean reset-penalty cost over the dataset, in [0, n_d]."""
    return make_autoencoder_cost(encoder, discard, dataset)(params)


def _adjoint(gate: Gate) -> Gate:
    if gate.kind in ROTATION_KINDS:
        return replace(gate, scale=-gate.scale)
    if gate.kind == "u2":
        return replace(gate, matrix=gate.matrix.conj().T)
    return gate  # x, h, cnot and cz are self-adjoint


def param_shift_gradient(
    circuit: Circuit,
    dataset,
    params,
    task: str = "classify",
    readout: int | None = None,
    discard=None,
) -> np.ndarray:
    """Exact gradient of the selected task cost, computed by an adjoint sweep.

    It is the gradient the parameter-shift rule defines (the name is kept for
    the ``param_shift_gd`` optimizer and other callers), at the price of
    2 * len(gates) + (parameterized gates) gate applications instead of a
    circuit replay per shift term.  One forward pass gives the outputs psi_i;
    lam_i = w_i O psi_i carries the chain rule, with w_i = dC/d<O>_i and O
    the readout Z or the sum of the discarded Z's.  Both are walked back
    through the circuit together.  Standing just after gate k, where
    dR(t)/dt R(t)^dagger = R(pi)/2 for rx, ry and rz (for cry the same on
    the control = 1 block and zero on the control = 0 block), gate k adds
    scale * Re<lam|R(pi) psi> to its slot, so shared slots sum over their
    occurrences.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if task == "classify" and readout is None:
        raise ValueError("classification gradient needs a readout qubit")
    params = np.asarray(params, dtype=float)
    n = circuit.num_qubits
    size = len(dataset)
    psi = run_circuit_batch(circuit, params, dataset.amplitudes())
    if task == "classify":
        m = expectation_z_batch(psi, n, readout)
        obs = _z_signs(n, readout)
        # dC/dm_i for C = (1/M) sum (l_i - m_i)^2
        weights = 2.0 * (m - dataset.labels()) / size
    else:
        discard = _check_discard(discard or (), n)
        obs = sum(_z_signs(n, q) for q in discard)
        # dC/ds_i for C = (1/M) sum (n_d - s_i)/2
        weights = np.full(size, -0.5 / size)

    # One array, so each gate is undone on psi and lam in a single call.
    both = np.concatenate([psi, weights[:, None] * obs * psi])
    psi, lam = both[:size], both[size:]
    grad = np.zeros(circuit.param_count)
    for gate in reversed(circuit.gates):
        if gate.slot is not None:
            if gate.kind == "cry":
                mu = psi * (0.5 - 0.5 * _z_signs(n, gate.targets[0]))
            else:
                mu = psi.copy()
            _apply_gate_inplace(mu, n, Gate(gate.kind, gate.targets, angle=np.pi))
            grad[gate.slot] += gate.scale * np.vdot(lam, mu).real
        _apply_gate_inplace(both, n, _adjoint(gate), params)
    return grad


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
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if task == "classify" and readout is None:
        raise ValueError("classification training needs a readout qubit")
    if task == "autoencode" and not discard:
        raise ValueError("autoencoder training needs a discard set")
    if init_params is not None:
        x0 = np.asarray(init_params, dtype=float)
        if x0.shape != (circuit.param_count,):
            raise ValueError(
                f"init_params must have length {circuit.param_count}, got {x0.shape}"
            )
    else:
        x0 = initial_parameters(circuit.param_count, init_seed)

    if task == "classify":
        cost = make_classification_cost(circuit, readout, dataset)
    else:
        cost = make_autoencoder_cost(circuit, discard, dataset)

    t0 = time.perf_counter()
    if optimizer.kind == "powell":
        x, record = powell_minimize(cost, x0, optimizer)
    elif optimizer.kind == "nelder_mead":
        x, record = nelder_mead_minimize(cost, x0, optimizer)
    elif optimizer.kind == "spsa":
        x, record = spsa_minimize(cost, x0, optimizer)
    elif optimizer.kind == "param_shift_gd":
        grad = lambda p: param_shift_gradient(
            circuit, dataset, p, task=task, readout=readout, discard=discard
        )
        x, record = gradient_descent_minimize(cost, grad, x0, optimizer)
    else:
        raise ValueError(f"unknown optimizer kind {optimizer.kind!r}")
    elapsed = time.perf_counter() - t0

    record.final_params = x
    record.wall_time_total = elapsed
    record.wall_time_per_sample = elapsed / len(dataset)
    return record
