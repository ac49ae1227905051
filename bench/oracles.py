"""Reference computations the benchmark checks the program against.

Nothing here calls the simulator, the Hamiltonian builder or the solvers of
``vqcbench``: Hamiltonians come from Pauli Kronecker products, ground
energies from closed forms or ``scipy.sparse.linalg.eigsh``, and circuit
outputs from a ``tensordot`` contraction on a ``(batch,) + (2,) * N``
tensor with gate matrices built here from the gate kind and angle.  Only
the gate list of a circuit (kind, targets, slot or angle, scale) is read
from the program, as the description of what to contract.

Qubit 0 is the most significant bit of a basis index, so a C-order reshape
of a ``(batch, 2**N)`` amplitude matrix puts qubit q on tensor axis q + 1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


# ---------------------------------------------------------------- spin chains

def pauli_string(ops: dict, n: int) -> scipy.sparse.csr_matrix:
    """Kronecker product over sites 0..n-1 (site 0 leftmost) of the 2x2
    matrices in ``ops`` (site -> matrix), identity elsewhere."""
    out = scipy.sparse.identity(1, dtype=complex, format="csr")
    for site in range(n):
        factor = scipy.sparse.csr_matrix(ops.get(site, _I2), dtype=complex)
        out = scipy.sparse.kron(out, factor, format="csr")
    return out


@lru_cache(maxsize=None)
def _chain_terms(kind: str, n: int):
    """(coupling, field) operators with H = coupling + h * field."""
    bonds = range(n - 1)
    if kind == "tfi":
        coupling = -sum(pauli_string({j: _Z, j + 1: _Z}, n) for j in bonds)
        field = -sum(pauli_string({j: _X}, n) for j in range(n))
    elif kind == "xxz":
        coupling = -sum(pauli_string({j: _X, j + 1: _X}, n)
                        + pauli_string({j: _Y, j + 1: _Y}, n) for j in bonds)
        field = -sum(pauli_string({j: _Z, j + 1: _Z}, n) for j in bonds)
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    # Both models are real in the computational basis.
    return (scipy.sparse.csr_matrix(coupling.real), scipy.sparse.csr_matrix(field.real))


def chain_hamiltonian(kind: str, n: int, h: float) -> scipy.sparse.csr_matrix:
    """Open-chain TFI or XXZ Hamiltonian in the program's sign convention:
    H_tfi = -sum Z_j Z_j+1 - h sum X_j,
    H_xxz = -sum (X_j X_j+1 + Y_j Y_j+1 + h Z_j Z_j+1)."""
    coupling, field = _chain_terms(kind, n)
    return coupling + h * field


def tfi_ground_energy(n: int, h: float) -> float:
    """Open-chain TFI ground energy from the free-fermion solution.

    After a Jordan-Wigner transformation the chain is a quadratic fermion
    model whose single-particle energies are the singular values of the
    n x n bidiagonal matrix with h on the diagonal and the coupling (1) on
    the superdiagonal; the ground energy is minus their sum.
    """
    m = h * np.eye(n) + np.eye(n, k=1)
    return -float(np.linalg.svd(m, compute_uv=False).sum())


@lru_cache(maxsize=None)
def xxz_ground_energy(n: int, h: float) -> float:
    """Lowest eigenvalue of the Kronecker-product XXZ Hamiltonian (eigsh)."""
    ham = chain_hamiltonian("xxz", n, h)
    v0 = np.ones(ham.shape[0])
    w = scipy.sparse.linalg.eigsh(ham, k=1, which="SA", v0=v0, tol=1e-13,
                                  return_eigenvectors=False)
    return float(w[0])


def ground_energy(kind: str, n: int, h: float) -> float:
    return tfi_ground_energy(n, h) if kind == "tfi" else xxz_ground_energy(n, h)


def energy_and_residual(kind: str, n: int, h: float, vec) -> tuple[float, float]:
    """Rayleigh quotient E of a unit vector and its residual ||Hv - Ev||."""
    vec = np.asarray(vec, dtype=float)
    hv = chain_hamiltonian(kind, n, h) @ vec
    energy = float(vec @ hv)
    return energy, float(np.linalg.norm(hv - energy * vec))


# ------------------------------------------------------------ state vectors

def _rotation(kind: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "rz":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    raise ValueError(kind)


def _controlled(u: np.ndarray) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) u, control first."""
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


_FIXED = {
    "x": _X.astype(complex),
    "h": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
    "cnot": _controlled(_X),
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
}


def gate_unitary(gate, params) -> np.ndarray:
    """2x2 or 4x4 matrix of one gate, in the order of its targets."""
    if gate.kind in _FIXED:
        return _FIXED[gate.kind]
    if gate.kind == "u2":
        return np.asarray(gate.matrix, dtype=complex)
    angle = gate.scale * (gate.angle if gate.slot is None else float(params[gate.slot]))
    if gate.kind == "cry":
        return _controlled(_rotation("ry", angle))
    return _rotation(gate.kind, angle)


def contract(circuit, params, states) -> np.ndarray:
    """Circuit outputs for the rows of ``states`` as a (batch,) + (2,)*N tensor."""
    n = circuit.num_qubits
    psi = np.asarray(states, dtype=complex).reshape((-1,) + (2,) * n)
    for gate in circuit.gates:
        axes = [t + 1 for t in gate.targets]
        k = len(axes)
        u = gate_unitary(gate, params).reshape((2,) * (2 * k))
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, list(range(k)), axes)
    return psi


def expect_z(psi: np.ndarray, qubit: int) -> np.ndarray:
    """<Z_qubit> per row of a (batch,) + (2,)*N tensor."""
    probs = np.abs(np.moveaxis(psi, qubit + 1, 1)) ** 2
    probs = probs.reshape(probs.shape[0], 2, -1).sum(axis=2)
    return probs[:, 0] - probs[:, 1]


def classification_cost(circuit, readout, params, states, labels) -> float:
    m = expect_z(contract(circuit, params, states), readout)
    return float(np.mean((np.asarray(labels, dtype=float) - m) ** 2))


def autoencoder_cost(circuit, discard, params, states) -> float:
    psi = contract(circuit, params, states)
    z_sum = sum(expect_z(psi, q) for q in discard)
    return float(np.mean(0.5 * (len(discard) - z_sum)))


def reset_fidelity(circuit, params, discard, states) -> np.ndarray:
    """Reset-channel fidelity per input state, in closed form.

    With A the encoded amplitudes arranged as (kept, discarded) and a0 its
    column for the all-|0> discard pattern, F = ||A^dagger a0||^2 (Romero,
    Olson and Aspuru-Guzik, arXiv:1612.02806): one encoder pass, no decoder.
    """
    n = circuit.num_qubits
    discard = sorted(discard)
    kept = [q for q in range(n) if q not in discard]
    psi = contract(circuit, params, states)
    order = [0] + [q + 1 for q in kept] + [q + 1 for q in discard]
    a = psi.transpose(order).reshape(psi.shape[0], 1 << len(kept), 1 << len(discard))
    overlaps = np.einsum("bkd,bk->bd", a.conj(), a[:, :, 0])
    return np.sum(np.abs(overlaps) ** 2, axis=1)


def finite_difference_gradient(cost, params, step: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar cost, one slot at a time."""
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        shift = np.zeros_like(params)
        shift[i] = step
        grad[i] = (cost(params + shift) - cost(params - shift)) / (2 * step)
    return grad
