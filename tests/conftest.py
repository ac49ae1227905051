"""Shared test oracles: dense gate/circuit matrices built independently of
the strided kernels, a per-gate np.tensordot statevector pass and its
adjoint gradient, the canonical per-block walk of a compiled circuit (its
blocks in order, with no layout plan), circuit inversion, the Kraus branches
of the reset channel, parameter-shift gradients, the adjoint sweep's
per-block contraction, full-space ground states and the cold sector solve
of one chain, the text of a dataset file
and the pairwise AUC and threshold-sweep ROC, plus state vectors and random
circuit/state generators.  The uncompiled path (``expectation_z_batch`` on
``run_circuit_batch``, and the task costs on a fresh compile) is here too:
the program compiles each model once and runs that, and must match it.

A single state here is a 1-D complex vector of 2^N amplitudes; the
simulator takes states as rows of a (batch, 2^N) array, so a test runs
one state as ``state[None, :]``."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from vqcbench import simulator as sim
from vqcbench import training
from vqcbench import spinmodels
from vqcbench.spinmodels import SpinModel, build_hamiltonian, ground_states
from vqcbench.storage import BIT_ORDER, FORMAT_VERSION


def zero_state(n):
    return basis_state(n, 0)


def basis_state(n, index):
    amp = np.zeros(1 << n, dtype=complex)
    amp[index] = 1.0
    return amp


def random_state(n, rng):
    amp = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amp / np.linalg.norm(amp)


# Gate matrices from the conventions stated in the simulator docstring:
# R_P(t) = exp(-i t P/2) = cos(t/2) I - i sin(t/2) P, and a two-qubit
# matrix has the gate's first target as the high bit.
_I2 = np.eye(2)
_PAULI = {
    "rx": np.array([[0, 1], [1, 0]], dtype=complex),
    "ry": np.array([[0, -1j], [1j, 0]]),
    "rz": np.array([[1, 0], [0, -1]], dtype=complex),
}
_FIXED = {
    "x": _PAULI["rx"],
    "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2.0),
    "cnot": np.block([[_I2, np.zeros((2, 2))], [np.zeros((2, 2)), _PAULI["rx"]]]),
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]),
}


def oracle_gate_matrix(gate, params=None):
    """2x2 or 4x4 unitary of a gate in its own target order."""
    if gate.kind == "u2":
        return gate.matrix
    if gate.kind in _FIXED:
        return _FIXED[gate.kind]
    t = gate.scale * (gate.angle if gate.angle is not None else params[gate.slot])
    ry = np.cos(t / 2) * _I2 - 1j * np.sin(t / 2) * _PAULI["ry"]
    if gate.kind == "cry":
        return np.block([[_I2, np.zeros((2, 2))], [np.zeros((2, 2)), ry]])
    return np.cos(t / 2) * _I2 - 1j * np.sin(t / 2) * _PAULI[gate.kind]


def embed(u, targets, n):
    """The sparse 2^n x 2^n matrix of u (2x2, or 4x4 with the first target as
    its high bit) on ``targets``, under the q0-most-significant order: entry
    (i, j) is u[i's target bits, j's target bits] where i and j agree on
    every other bit, and 0 elsewhere."""
    k, j = len(targets), np.arange(1 << n)
    shifts = [n - 1 - q for q in targets]
    local = sum(((j >> s) & 1) << (k - 1 - p) for p, s in enumerate(shifts))
    rest = j & ~sum(1 << s for s in shifts)
    rows = [rest | sum(((r >> (k - 1 - p)) & 1) << s for p, s in enumerate(shifts))
            for r in range(1 << k)]
    values = [np.asarray(u, dtype=complex)[r, local] for r in range(1 << k)]
    shape = (1 << n, 1 << n)
    return scipy.sparse.csr_matrix((np.concatenate(values), (np.concatenate(rows),
                                                             np.tile(j, 1 << k))), shape)


def gate_full_matrix(gate, n, params=None):
    return embed(oracle_gate_matrix(gate, params), gate.targets, n).toarray()


def circuit_full_matrix(circuit, params=None):
    full = np.eye(1 << circuit.num_qubits, dtype=complex)
    for g in circuit.gates:
        full = embed(oracle_gate_matrix(g, params), g.targets, circuit.num_qubits) @ full
    return full


def tensordot_apply(u, targets, states):
    """u (2x2, or 4x4 with the first target as its high bit) on ``targets``
    of every row of a (batch, 2^n) array, by np.tensordot over the targets'
    axes of the (batch, 2, ..., 2) view."""
    k, n = len(targets), states.shape[1].bit_length() - 1
    axes = [q + 1 for q in targets]
    tensor = np.asarray(u, dtype=complex).reshape((2,) * 2 * k)
    out = np.tensordot(tensor, states.reshape((-1,) + (2,) * n), (list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(states.shape)


def tensordot_pass(circuit, params, states):
    """The circuit on a (batch, 2^n) array one gate at a time
    (``tensordot_apply``): the statevector oracle that folds no blocks and
    uses no CompiledCircuit."""
    psi = np.asarray(states, dtype=complex)
    for gate in circuit.gates:
        psi = tensordot_apply(oracle_gate_matrix(gate, params), gate.targets, psi)
    return psi


def oracle_gate_derivative(gate, params):
    """dM/dtheta of a slot-bound rotation's matrix in its slot's parameter:
    scale/2 times the matrix at angle + pi, whose control-0 block a cry
    drops (R(t + pi) = R(t) R(pi) and R(pi) = -iP)."""
    shifted = replace(gate, slot=None, angle=gate.scale * params[gate.slot] + np.pi, scale=1.0)
    derivative = 0.5 * gate.scale * oracle_gate_matrix(shifted)
    if gate.kind == "cry":
        derivative[:2, :2] = 0.0
    return derivative


def tensordot_gradient(circuit, params, psi, lam):
    """sum_i 2 Re <lam_i| dU/dtheta |psi0_i> for every slot, where
    psi = U psi0, the contract of ``CompiledCircuit.gradient``: psi and lam
    are walked back a gate at a time, and each slot-bound gate G adds
    2 Re <lam| dG |psi> with psi the state before G and lam pulled back
    through the gates after it."""
    grad = np.zeros(circuit.param_count)
    psi, lam = np.asarray(psi, dtype=complex), np.asarray(lam, dtype=complex)
    for gate in reversed(circuit.gates):
        undo = oracle_gate_matrix(gate, params).conj().T
        psi = tensordot_apply(undo, gate.targets, psi)
        if gate.slot is not None:
            moved = tensordot_apply(oracle_gate_derivative(gate, params), gate.targets, psi)
            grad[gate.slot] += 2.0 * np.real(np.vdot(lam, moved))
        lam = tensordot_apply(undo, gate.targets, lam)
    return grad


def canonical_pass(compiled, params, amplitudes):
    """A compiled circuit's blocks on the input in their order and in the
    canonical layout, each by ``_kernel``: the walk of a pass whose layout
    plan is the identity, as every pass ran before the plan."""
    amp = compiled.state(amplitudes)
    flats = sim._padded(compiled.block_matrices(compiled.factors(params)[0]))
    for wires, u, window in compiled.blocks:
        amp = sim._kernel(amp, compiled.num_qubits, wires, window, flats[u])[0]
    return amp


def inverse_circuit(circuit):
    """Adjoint circuit: reversed order, each gate replaced by its adjoint.

    Rotation angles are negated through ``scale`` so slot-bound gates keep
    their slots and the same parameter vector drives the inverse.
    """
    inv = []
    for gate in reversed(circuit.gates):
        if gate.kind in sim.ROTATION_KINDS:
            inv.append(replace(gate, scale=-gate.scale))
        elif gate.kind == "u2":
            inv.append(replace(gate, matrix=gate.matrix.conj().T))
        else:  # x, h, cnot, cz are self-adjoint
            inv.append(replace(gate))
    return sim.Circuit(circuit.num_qubits, inv, circuit.param_count)


def kraus_reset_branches(amplitudes, discard):
    """Branches K_b|psi> of resetting ``discard`` qubits to |0>, as arrays.

    K_b projects the discarded qubits onto basis pattern b and maps them to
    |0...0>; the 2^{n_d} returned (sub-normalized) vectors have squared
    norms summing to |psi|^2.  Pattern bit order follows the sorted discard
    list, first qubit most significant.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    dim = amplitudes.shape[0]
    n = dim.bit_length() - 1
    discard = sorted(set(int(q) for q in discard))
    if not discard:
        raise ValueError("discard set must be non-empty")
    if discard[0] < 0 or discard[-1] >= n:
        raise ValueError(f"discard qubits {discard} out of range for {n} qubits")
    n_d = len(discard)
    idx = np.arange(dim)
    pattern = np.zeros(dim, dtype=np.int64)
    keep_mask = dim - 1
    for pos, q in enumerate(discard):
        shift = n - 1 - q
        pattern |= ((idx >> shift) & 1) << (n_d - 1 - pos)
        keep_mask &= ~(1 << shift)
    cleared = idx & keep_mask
    branches = []
    for b in range(1 << n_d):
        sel = pattern == b
        amp = np.zeros(dim, dtype=complex)
        amp[cleared[sel]] = amplitudes[sel]
        branches.append(amp)
    return branches


def kraus_fidelity(encoder, params, discard, state):
    """Reset-channel fidelity by simulation: encode, split into Kraus
    branches, decode every branch with the inverse circuit, sum |<psi|.>|^2."""
    encoded = sim.run_circuit_batch(encoder, params, state[None, :])[0]
    branches = kraus_reset_branches(encoded, discard)
    decoded = sim.run_circuit_batch(inverse_circuit(encoder), params, np.array(branches))
    return float(np.sum(np.abs(decoded @ state.conj()) ** 2))


def expectation_z_batch(amplitudes, num_qubits, qubit):
    """<Z_qubit> for every row of a (batch, 2^N) amplitude matrix."""
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    return (amplitudes * amplitudes.conj()).real @ sim.z_signs(num_qubits, qubit)


def classification_cost(circuit, readout, dataset, params):
    """Mean squared error between labels and readout expectations, in [0, 4]."""
    compiled = sim.CompiledCircuit(circuit)
    return training._Objective(compiled, dataset, "classify", readout=readout).cost(params)


def autoencoder_cost(encoder, discard, dataset, params):
    """Mean reset-penalty cost over the dataset, in [0, n_d]."""
    compiled = sim.CompiledCircuit(encoder)
    return training._Objective(compiled, dataset, "autoencode", discard=discard).cost(params)


# Two-point rule for rotation generators with eigenvalues +-1/2, and the
# four-term rule for controlled rotations (frequencies 1/2 and 1).
_SQRT2 = np.sqrt(2.0)
SHIFT_RULES = {
    "ry": ((np.pi / 2, 0.5), (-np.pi / 2, -0.5)),
    "rx": ((np.pi / 2, 0.5), (-np.pi / 2, -0.5)),
    "rz": ((np.pi / 2, 0.5), (-np.pi / 2, -0.5)),
    "cry": (
        (np.pi / 2, (_SQRT2 + 1) / (4 * _SQRT2)),
        (-np.pi / 2, -(_SQRT2 + 1) / (4 * _SQRT2)),
        (3 * np.pi / 2, -(_SQRT2 - 1) / (4 * _SQRT2)),
        (-3 * np.pi / 2, (_SQRT2 - 1) / (4 * _SQRT2)),
    ),
}


def param_shift_oracle(circuit, dataset, params, task="classify", readout=None,
                       discard=None):
    """Task-cost gradient by the parameter-shift rule: every parameterized
    gate occurrence is replayed with its angle shifted, the chain rule
    (MSE or linear) applied outside the expectation-level shift."""
    params = np.asarray(params, dtype=float)
    n = circuit.num_qubits
    mat = np.array([np.asarray(r.state, dtype=complex) for r in dataset.records])
    if task == "classify":
        observe = lambda amp: expectation_z_batch(amp, n, readout)
        m = observe(sim.run_circuit_batch(circuit, params, mat))
        prefactors = 2.0 * (m - dataset.labels()) / len(dataset)
    else:
        observe = lambda amp: sum(expectation_z_batch(amp, n, q) for q in discard)
        prefactors = np.full(len(dataset), -0.5 / len(dataset))
    grad = np.zeros(circuit.param_count)
    for index, gate in enumerate(circuit.gates):
        if gate.slot is None:
            continue
        d_expect = np.zeros(len(dataset))
        for shift, coeff in SHIFT_RULES[gate.kind]:
            # R(t + shift) = R(shift) R(t) for every rotation kind
            extra = sim.Gate(gate.kind, gate.targets, angle=shift)
            gates = circuit.gates[: index + 1] + [extra] + circuit.gates[index + 1:]
            shifted = sim.Circuit(n, gates, circuit.param_count)
            d_expect += coeff * observe(sim.run_circuit_batch(shifted, params, mat))
        grad[gate.slot] += gate.scale * float(prefactors @ d_expect)
    return grad


def pairs_outer_oracle(both, n, wires):
    """sum conj(lam) psi^T over a block's wires as a 4x4 matrix, where
    ``both`` stacks the (batch, 2^n) psi over lam: the contraction on a copy
    with the wires' axes first (a one-wire block fills the high bit only)."""
    k = len(wires)
    axes = np.moveaxis(both.reshape((2, -1) + (2,) * n), [w + 2 for w in wires], range(k))
    local = axes.reshape(1 << k, 2, -1)
    out = np.zeros((4, 4), both.dtype)
    bits = slice(None, None, 3 - k)
    out[bits, bits] = local[:, 1].conj() @ local[:, 0].T
    return out


def full_space_ground(kind, n, h):
    """Full-space LAPACK oracle, with no symmetry sector: the ground energy,
    the gap to the next level and the lowest eigenvector of the whole
    2^n x 2^n Hamiltonian (an arbitrary vector of a degenerate ground space)."""
    ham = build_hamiltonian(SpinModel(kind, n, h)).to_dense()
    w, v = scipy.linalg.eigh(ham, subset_by_index=(0, 1))
    return float(w[0]), float(w[1] - w[0]), v[:, 0]


def ground_state(model, solver="auto"):
    """(energy, full-space vector, solver used) of one chain, solved cold in
    its sector (Lanczos from all-ones): ``ground_states`` on it alone."""
    [(energy, state)] = ground_states([model], solver)
    return energy, state, spinmodels._resolve(solver, model.num_sites)


# results CSV columns that vary across runs even with fixed seeds
TIMING_COLUMNS = ("time_total_s", "time_per_sample_s")


def strip_timing_columns(csv_text):
    """A results CSV without its timing columns, for determinism comparisons."""
    rows = list(csv.reader(csv_text.splitlines()))
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows) + "\n"


ALL_KINDS = ["ry", "rx", "rz", "x", "h", "cnot", "cz", "cry", "u2"]
REAL_KINDS = ["ry", "x", "h", "cnot", "cz", "cry", "u2"]


def reference_dataset_text(dataset):
    """The text of a dataset file as ``json.dumps`` writes it, every amplitude
    through ``tolist()``; raises ValueError on a NaN or infinite value."""
    def dumps(obj):
        return json.dumps(obj, separators=(",", ":"), allow_nan=False)

    meta = dataset.metadata
    header = {
        "format_version": FORMAT_VERSION,
        "model": dataset.kind,
        "N": dataset.num_sites,
        "h_c": float(meta.get("h_c", float("nan"))),
        "bit_order": BIT_ORDER,
        "solver": meta.get("solver"),
        "seed": meta.get("seed"),
        "h_grid": [float(h) for h in meta.get("h_grid", [])],
        "train_fraction": meta.get("train_fraction"),
        "split": meta.get("split"),
        "phase_convention": meta.get("phase_convention"),
    }
    lines = [dumps(header)]
    for rec in dataset.records:
        state = np.asarray(rec.state)
        obj = {"h": float(rec.h), "label": int(rec.label),
               "re": np.asarray(state.real, dtype=float).tolist()}
        if np.iscomplexobj(state) and np.any(state.imag != 0.0):
            obj["im"] = np.asarray(state.imag, dtype=float).tolist()
        lines.append(dumps(obj))
    return "\n".join(lines) + "\n"


def roc_oracle(scores, labels):
    """ROC points, one threshold at a time: +inf, every distinct score from
    the highest down, -inf; a sample is called positive at score >= t."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == -1).sum())
    if n_pos == 0 or n_neg == 0:
        return []
    thresholds = [np.inf] + sorted(set(scores.tolist()), reverse=True) + [-np.inf]
    points = []
    for t in thresholds:
        called = scores >= t
        tp = int((called & (labels == 1)).sum())
        fp = int((called & (labels == -1)).sum())
        points.append((fp / n_neg, tp / n_pos))
    return points


def auc_oracle(scores, labels):
    """AUC as the pairwise Mann-Whitney statistic, ties counting one half;
    None when only one class is present."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def random_unitary4(rng, real=False):
    m = rng.normal(size=(4, 4)) + (0 if real else 1j * rng.normal(size=(4, 4)))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(n, rng, n_gates=12, kinds=None, param_count=0, real=False):
    """Random circuit; parameterized gates draw slots uniformly if
    param_count > 0, otherwise angles are bound.  ``real`` restricts it to
    gates with real matrices (u2 then draws a real orthogonal matrix)."""
    kinds = kinds or (REAL_KINDS if real else ALL_KINDS)
    gates = []
    used_slots = set()
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("cnot", "cz", "cry", "u2"):
            qa, qb = rng.choice(n, size=2, replace=False)
            targets = (int(qa), int(qb))
        else:
            targets = (int(rng.integers(n)),)
        angle = None
        slot = None
        if kind in sim.ROTATION_KINDS:
            if param_count > 0:
                slot = int(rng.integers(param_count))
                used_slots.add(slot)
            else:
                angle = float(rng.uniform(-np.pi, np.pi))
        matrix = random_unitary4(rng, real) if kind == "u2" else None
        gates.append(sim.Gate(kind, targets, angle=angle, slot=slot, matrix=matrix))
    if param_count > 0:
        # make sure every slot is referenced, as the Circuit invariant demands
        for missing in set(range(param_count)) - used_slots:
            gates.append(sim.ry(int(rng.integers(n)), slot=missing))
    return sim.Circuit(n, gates, param_count)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
