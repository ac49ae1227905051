"""Statevector kernels against the dense-matrix oracle, plus the contracts
of the circuit-inversion and reset-channel oracles in conftest."""

import numpy as np
import pytest

from vqcbench import simulator as sim
from vqcbench.simulator import (
    Circuit,
    State,
    apply_gate,
    basis_state,
    cnot,
    cry,
    cz,
    expectation_z,
    h,
    run_circuit,
    ry,
    rz,
    state_fidelity,
    x,
    zero_state,
)

from conftest import (
    circuit_full_matrix,
    gate_full_matrix,
    inverse_circuit,
    kraus_reset_branches,
    random_circuit,
    random_state,
)


# ---------------------------------------------------------------------------
# single gates


def test_ry_pi_flips_zero_to_one():
    out = apply_gate(zero_state(1), ry(0, angle=np.pi))
    assert np.allclose(out.amplitudes, [0.0, 1.0], atol=1e-12)


def test_ry_half_pi_makes_plus():
    out = apply_gate(zero_state(1), ry(0, angle=np.pi / 2))
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_cz_phases_11():
    out = apply_gate(basis_state(2, 0b11), cz(0, 1))
    expected = np.zeros(4)
    expected[3] = -1.0
    assert np.allclose(out.amplitudes, expected, atol=1e-15)


def test_cnot_on_bit_ordering():
    # q0 is the most significant bit: CNOT(0, 1) on |10> flips q1 -> |11>
    out = apply_gate(basis_state(2, 0b10), cnot(0, 1))
    assert np.argmax(np.abs(out.amplitudes)) == 0b11


def test_gate_targets_validated():
    with pytest.raises(ValueError):
        apply_gate(zero_state(2), ry(2, angle=0.3))
    with pytest.raises(ValueError):
        sim.Gate("cnot", (1, 1))


def test_unresolvable_slot_rejected():
    with pytest.raises(ValueError):
        apply_gate(zero_state(1), ry(0, slot=0), params=[])
    with pytest.raises(ValueError):
        apply_gate(zero_state(1), ry(0, slot=0))


def test_u2_must_be_unitary():
    with pytest.raises(ValueError):
        sim.u2(0, 1, np.ones((4, 4)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_matches_dense_oracle(n, rng):
    for _ in range(40):
        circ = random_circuit(n, rng, n_gates=1)
        gate = circ.gates[0]
        psi = random_state(n, rng)
        out = apply_gate(psi, gate)
        expected = gate_full_matrix(gate, n) @ psi.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_norm_preserved_by_every_kind(rng):
    for kind in sorted(sim.GATE_KINDS):
        for _ in range(10):
            n = 3
            circ = random_circuit(n, rng, n_gates=1, kinds=[kind])
            psi = random_state(n, rng)
            out = apply_gate(psi, circ.gates[0])
            assert abs(out.norm() - psi.norm()) < 1e-12


# ---------------------------------------------------------------------------
# circuits


def test_empty_circuit_is_identity(rng):
    psi = random_state(3, rng)
    out = run_circuit(Circuit(3), [], psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_slot_circuit_on_q0():
    circ = Circuit(2, [ry(0, slot=0)], param_count=1)
    out = run_circuit(circ, [np.pi], zero_state(2))
    assert np.argmax(np.abs(out.amplitudes)) == 0b10
    assert abs(out.amplitudes[0b10] - 1.0) < 1e-12


def test_run_circuit_validates_dimensions():
    circ = Circuit(2, [ry(0, slot=0)], param_count=1)
    with pytest.raises(ValueError):
        run_circuit(circ, [0.1], zero_state(3))
    with pytest.raises(ValueError):
        run_circuit(circ, [0.1, 0.2], zero_state(2))


def test_circuit_slot_table_validated():
    with pytest.raises(ValueError):
        Circuit(2, [ry(0, slot=3)], param_count=2)
    with pytest.raises(ValueError):
        Circuit(2, [ry(0, slot=0)], param_count=2)  # slot 1 never referenced


def test_circuit_matches_dense_product(rng):
    for n in (2, 3, 4):
        circ = random_circuit(n, rng, n_gates=8, param_count=3)
        params = rng.uniform(-np.pi, np.pi, size=3)
        psi = random_state(n, rng)
        out = run_circuit(circ, params, psi)
        expected = circuit_full_matrix(circ, params) @ psi.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


# ---------------------------------------------------------------------------
# expectation values


def test_expectation_z_all_zero():
    for q in range(3):
        assert expectation_z(zero_state(3), q) == pytest.approx(1.0)


def test_expectation_z_one():
    assert expectation_z(basis_state(1, 1), 0) == pytest.approx(-1.0)


def test_expectation_z_plus():
    plus = apply_gate(zero_state(1), h(0))
    assert abs(expectation_z(plus, 0)) < 1e-12


def test_expectation_z_range_check():
    with pytest.raises(ValueError):
        expectation_z(zero_state(2), 2)


# ---------------------------------------------------------------------------
# inversion


def test_inverse_of_single_ry():
    circ = Circuit(1, [ry(0, angle=0.7)])
    inv = inverse_circuit(circ)
    assert sim.resolved_angle(inv.gates[0]) == pytest.approx(-0.7)


def test_inverse_reverses_and_adjoints(rng):
    circ = random_circuit(3, rng, n_gates=6)
    inv = inverse_circuit(circ)
    assert [g.kind for g in inv.gates] == [g.kind for g in reversed(circ.gates)]
    m = circuit_full_matrix(circ)
    m_inv = circuit_full_matrix(inv)
    assert np.max(np.abs(m_inv @ m - np.eye(m.shape[0]))) < 1e-10


def test_unitarity_roundtrip_randomized(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        circ = random_circuit(n, rng, n_gates=10, param_count=4)
        params = rng.uniform(-np.pi, np.pi, size=4)
        psi = random_state(n, rng)
        there = run_circuit(circ, params, psi)
        back = run_circuit(inverse_circuit(circ), params, there)
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10


# ---------------------------------------------------------------------------
# reset channel


def test_kraus_completeness(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        psi = random_state(n, rng)
        n_d = int(rng.integers(1, n))
        discard = rng.choice(n, size=n_d, replace=False)
        branches = kraus_reset_branches(psi.amplitudes, discard)
        assert len(branches) == 1 << n_d
        total = sum(np.linalg.norm(b) ** 2 for b in branches)
        assert abs(total - 1.0) < 1e-12


def test_kraus_on_all_zero_state():
    psi = zero_state(4)
    branches = kraus_reset_branches(psi.amplitudes, {1, 3})
    assert np.array_equal(branches[0], psi.amplitudes)
    for b in branches[1:]:
        assert np.linalg.norm(b) == 0.0


def test_kraus_plus_tensor_zero():
    # (|0>+|1>)/sqrt(2) (x) |0>, discard q0: two branches, each (1/sqrt2)|00>
    amp = np.zeros(4, dtype=complex)
    amp[0b00] = amp[0b10] = 1 / np.sqrt(2)
    branches = kraus_reset_branches(amp, {0})
    for b in branches:
        assert np.linalg.norm(b) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(b[0] - 1 / np.sqrt(2)) < 1e-12


def test_kraus_rejects_bad_discard():
    with pytest.raises(ValueError):
        kraus_reset_branches(zero_state(2).amplitudes, set())
    with pytest.raises(ValueError):
        kraus_reset_branches(zero_state(2).amplitudes, {2})


# ---------------------------------------------------------------------------
# real-state closure


def test_real_gates_preserve_real_amplitudes(rng):
    kinds = ["ry", "cry", "cnot", "cz", "x"]
    for _ in range(20):
        n = int(rng.integers(2, 6))
        circ = random_circuit(n, rng, n_gates=12, kinds=kinds)
        amp = rng.normal(size=1 << n)
        psi = State(n, amp / np.linalg.norm(amp))
        out = run_circuit(circ, [], psi)
        assert np.max(np.abs(out.amplitudes.imag)) < 1e-12


def test_state_validation():
    with pytest.raises(ValueError):
        State(2, np.zeros(3))
    with pytest.raises(ValueError):
        sim.from_amplitudes(np.array([1.0, 1.0]))
    s = sim.from_amplitudes(np.array([1.0, 0.0]))
    assert s.num_qubits == 1


def test_state_fidelity_helpers(rng):
    psi = random_state(3, rng)
    assert state_fidelity(psi, psi) == pytest.approx(1.0)
    assert state_fidelity(zero_state(2), basis_state(2, 3)) == 0.0
