"""The benchmark's oracles against the dense-matrix route at N = 4.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracles.py

Dense route: full 2^N x 2^N matrices (Hamiltonians from the program's
builder, circuits as products of embedded gate matrices, the reset channel
as explicit Kraus operators) and LAPACK eigenvalues.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from vqcbench.ansatz import AnsatzSpec, build_ansatz  # noqa: E402
from vqcbench.simulator import Circuit, Gate  # noqa: E402
from vqcbench.spinmodels import DataRecord, Dataset, SpinModel, build_hamiltonian  # noqa: E402
from vqcbench.training import param_shift_gradient  # noqa: E402

N = 4
FIELDS = (0.0, 0.3, 0.9, 1.1, 1.7)


def dense_gate(gate, params, n):
    """Embed a 1- or 2-qubit gate as a 2^n x 2^n matrix by basis enumeration."""
    u = oracles.gate_unitary(gate, params)
    t = gate.targets
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        local = 0
        for q in t:
            local = 2 * local + bits[q]
        for out in range(len(u)):
            new = list(bits)
            for k, q in enumerate(t):
                new[q] = (out >> (len(t) - 1 - k)) & 1
            row = sum(b << (n - 1 - q) for q, b in enumerate(new))
            full[row, col] += u[out, local]
    return full


def dense_circuit(circuit, params):
    full = np.eye(1 << circuit.num_qubits, dtype=complex)
    for gate in circuit.gates:
        full = dense_gate(gate, params, circuit.num_qubits) @ full
    return full


def random_states(rng, count, n=N, real=False):
    x = rng.normal(size=(count, 1 << n))
    if not real:
        x = x + 1j * rng.normal(size=x.shape)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.mark.parametrize("kind", ["tfi", "xxz"])
@pytest.mark.parametrize("h", FIELDS)
def test_pauli_hamiltonian_matches_dense(kind, h):
    dense = build_hamiltonian(SpinModel(kind, N, h)).to_dense()
    assert np.allclose(oracles.chain_hamiltonian(kind, N, h).toarray(), dense, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("h", FIELDS)
def test_free_fermion_energy_matches_dense(n, h):
    dense = np.linalg.eigvalsh(oracles.chain_hamiltonian("tfi", n, h).toarray())[0]
    assert abs(oracles.tfi_ground_energy(n, h) - dense) < 1e-12


@pytest.mark.parametrize("h", FIELDS)
def test_xxz_eigsh_energy_matches_dense(h):
    dense = np.linalg.eigvalsh(oracles.chain_hamiltonian("xxz", N, h).toarray())[0]
    assert abs(oracles.xxz_ground_energy(N, h) - dense) < 1e-10


@pytest.mark.parametrize("kind", ["tfi", "xxz"])
def test_residual_matches_dense(kind, rng):
    dense = oracles.chain_hamiltonian(kind, N, 0.7).toarray()
    w, v = np.linalg.eigh(dense)
    energy, residual = oracles.energy_and_residual(kind, N, 0.7, v[:, 0])
    assert abs(energy - w[0]) < 1e-12 and residual < 1e-12
    x = random_states(rng, 1, real=True)[0]
    energy, residual = oracles.energy_and_residual(kind, N, 0.7, x)
    e_dense = x @ dense @ x
    assert abs(energy - e_dense) < 1e-12
    assert abs(residual - np.linalg.norm(dense @ x - e_dense * x)) < 1e-12


@pytest.mark.parametrize("kind", ["rx", "ry", "rz", "cry"])
def test_rotation_matrices_are_generator_exponentials(kind):
    pauli = {"rx": oracles._X, "ry": oracles._Y, "rz": oracles._Z, "cry": oracles._Y}[kind]
    for angle in (-2.1, 0.3, np.pi):
        want = scipy.linalg.expm(-0.5j * angle * pauli)
        if kind == "cry":
            want = scipy.linalg.block_diag(np.eye(2), want)
        gate = Gate(kind, (0, 1) if kind == "cry" else (0,), angle=angle)
        assert np.allclose(oracles.gate_unitary(gate, None), want, atol=1e-14)


def _mixed_circuit(rng):
    """Every gate kind the program has, on both target orders, bound angles."""
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    u2 = q * (np.diag(r) / np.abs(np.diag(r)))
    gates = [Gate("h", (0,)), Gate("ry", (1,), angle=0.4), Gate("rx", (2,), angle=-1.1),
             Gate("rz", (3,), angle=2.3), Gate("cnot", (3, 1)), Gate("cnot", (0, 2)),
             Gate("cz", (2, 0)), Gate("cry", (3, 0), angle=0.8), Gate("cry", (1, 2), angle=-0.5),
             Gate("x", (2,)), Gate("u2", (2, 1), matrix=u2), Gate("ry", (0,), angle=1.0, scale=-1.0)]
    return Circuit(N, gates, 0)


@pytest.mark.parametrize("family", ["qcnn_ry", "qcnn_so4", "qcnn_su4", "hea_ry", "hea_rxrzrx"])
def test_contraction_matches_dense(family, rng):
    spec = AnsatzSpec(family, N, 2 if family.startswith("qcnn") else 1)
    circuit, _ = build_ansatz(spec)
    params = rng.uniform(-np.pi, np.pi, circuit.param_count)
    x = random_states(rng, 3)
    want = x @ dense_circuit(circuit, params).T
    got = oracles.contract(circuit, params, x).reshape(3, -1)
    assert np.allclose(got, want, atol=1e-12)


def test_contraction_matches_dense_on_every_gate_kind(rng):
    circuit = _mixed_circuit(rng)
    x = random_states(rng, 2)
    want = x @ dense_circuit(circuit, None).T
    assert np.allclose(oracles.contract(circuit, None, x).reshape(2, -1), want, atol=1e-12)


def test_expectation_and_costs_match_dense(rng):
    circuit, _ = build_ansatz(AnsatzSpec("qcnn_ry", N, 2))
    params = rng.uniform(-np.pi, np.pi, circuit.param_count)
    x = random_states(rng, 4, real=True)
    out = x @ dense_circuit(circuit, params).T
    psi = oracles.contract(circuit, params, x)
    labels = np.array([1, -1, 1, -1])
    for q in range(N):
        zsign = 1 - 2 * ((np.arange(1 << N) >> (N - 1 - q)) & 1)
        assert np.allclose(oracles.expect_z(psi, q), np.abs(out) ** 2 @ zsign, atol=1e-12)
    m = oracles.expect_z(psi, 0)
    assert abs(oracles.classification_cost(circuit, 0, params, x, labels)
               - np.mean((labels - m) ** 2)) < 1e-14
    discard = [1, 3]
    s = oracles.expect_z(psi, 1) + oracles.expect_z(psi, 3)
    assert abs(oracles.autoencoder_cost(circuit, discard, params, x)
               - np.mean(0.5 * (2 - s))) < 1e-14


@pytest.mark.parametrize("discard", [[1, 3], [0], [0, 2, 3]])
def test_reset_fidelity_matches_dense_kraus_sum(discard, rng):
    circuit, _ = build_ansatz(AnsatzSpec("qcnn_su4", N, 1))
    params = rng.uniform(-np.pi, np.pi, circuit.param_count)
    x = random_states(rng, 3)
    u = dense_circuit(circuit, params)
    dim = 1 << N
    kraus = []
    for b in range(1 << len(discard)):
        k = np.zeros((dim, dim))
        for col in range(dim):
            pattern = [(col >> (N - 1 - q)) & 1 for q in discard]
            if int("".join(map(str, pattern)), 2) == b:
                row = col
                for q in discard:
                    row &= ~(1 << (N - 1 - q))
                k[row, col] = 1.0
        kraus.append(k)
    assert np.allclose(sum(k.T @ k for k in kraus), np.eye(dim))
    for i, psi in enumerate(x):
        rho = np.outer(psi, psi.conj())
        enc = u @ rho @ u.conj().T
        dec = u.conj().T @ sum(k @ enc @ k.T for k in kraus) @ u
        want = (psi.conj() @ dec @ psi).real
        got = oracles.reset_fidelity(circuit, params, discard, x[i:i + 1])[0]
        assert abs(got - want) < 1e-12


def test_finite_differences_match_dense_derivative(rng):
    """Central differences of the oracle cost against those of the dense
    cost, and the program's parameter-shift gradient against them."""
    circuit, _ = build_ansatz(AnsatzSpec("qcnn_su4", N, 2))
    params = rng.uniform(-np.pi, np.pi, circuit.param_count)
    x = random_states(rng, 3, real=True)
    labels = np.array([1, -1, 1])

    def dense_cost(p):
        out = x @ dense_circuit(circuit, p).T
        zsign = 1 - 2 * ((np.arange(1 << N) >> (N - 1)) & 1)
        m = (np.abs(out) ** 2) @ zsign
        return float(np.mean((labels - m) ** 2))

    oracle_cost = lambda p: oracles.classification_cost(circuit, 0, p, x, labels)
    fd = oracles.finite_difference_gradient(oracle_cost, params)
    dense_fd = oracles.finite_difference_gradient(dense_cost, params, step=1e-6)
    assert np.allclose(fd, dense_fd, atol=1e-7)

    data = Dataset("tfi", N, [DataRecord(s, 0.5, int(l)) for s, l in zip(x, labels)])
    grad = param_shift_gradient(circuit, data, params, readout=0)
    assert np.allclose(grad, fd, atol=1e-7)


@pytest.mark.parametrize("seed", [1, 1001])
def test_jitter_test_only_keeps_the_training_points(seed):
    """workloads.train_indices follows the program's split, so a workload
    that jitters only its test points trains on the same states for every
    seed (dense N = 4 solves stand in for the workload's own size)."""
    from vqcbench.spinmodels import generate_dataset
    from workloads import WORKLOADS, h_grid

    for workload in (w for w in WORKLOADS.values() if w.jitter_test_only):
        grid = h_grid(workload, seed)
        train, test = generate_dataset(
            workload.data["kind"], N, grid, train_fraction=workload.data["train_fraction"],
            seed=workload.data["seed"], solver="dense")
        base = {round(h, 9) for h in workload.grid}  # h_grid writes 9 decimals
        assert all(r.h in base for r in train.records)
        assert not any(r.h in base for r in test.records)
