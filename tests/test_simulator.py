"""Statevector kernels against the dense-matrix oracle, plus the contracts
of the circuit-inversion and reset-channel oracles in conftest.  States are
rows of a (batch, 2^N) array; a single state runs as a batch of one."""

import numpy as np
import pytest

from vqcbench import simulator as sim
from vqcbench.simulator import (
    Circuit,
    cnot,
    cry,
    cz,
    expectation_z_batch,
    h,
    run_circuit_batch,
    ry,
    rz,
    x,
)

from conftest import (
    basis_state,
    circuit_full_matrix,
    gate_full_matrix,
    inverse_circuit,
    kraus_reset_branches,
    random_circuit,
    random_state,
    zero_state,
)


def apply_gate(gate, states, params=None):
    """One gate through the kernel on a copy of a (batch, 2^N) array."""
    amp = np.array(states, dtype=complex)
    sim._apply_gate_inplace(amp, amp.shape[1].bit_length() - 1, gate, params)
    return amp


def random_states(n, rng, batch=3):
    return np.array([random_state(n, rng) for _ in range(batch)])


# ---------------------------------------------------------------------------
# single gates


def test_ry_pi_flips_zero_to_one():
    out = apply_gate(ry(0, angle=np.pi), [zero_state(1)])
    assert np.allclose(out, [[0.0, 1.0]], atol=1e-12)


def test_ry_half_pi_makes_plus():
    out = apply_gate(ry(0, angle=np.pi / 2), [zero_state(1)])
    assert np.allclose(out, [[1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-12)


def test_cz_phases_11():
    out = apply_gate(cz(0, 1), [basis_state(2, 0b11)])
    expected = np.zeros(4)
    expected[3] = -1.0
    assert np.allclose(out, [expected], atol=1e-15)


def test_cnot_on_bit_ordering():
    # q0 is the most significant bit: CNOT(0, 1) on |10> flips q1 -> |11>;
    # CNOT(1, 0) on |01> flips q0 -> |11>, on |10> it does nothing
    out = apply_gate(cnot(0, 1), [basis_state(2, 0b10)])
    assert np.argmax(np.abs(out[0])) == 0b11
    out = apply_gate(cnot(1, 0), [basis_state(2, 0b01), basis_state(2, 0b10)])
    assert [int(np.argmax(np.abs(row))) for row in out] == [0b11, 0b10]


def test_gate_targets_validated():
    with pytest.raises(ValueError):
        apply_gate(ry(2, angle=0.3), [zero_state(2)])
    with pytest.raises(ValueError):
        sim.Gate("cnot", (1, 1))


def test_unresolvable_slot_rejected():
    with pytest.raises(ValueError):
        apply_gate(ry(0, slot=0), [zero_state(1)], params=[])
    with pytest.raises(ValueError):
        apply_gate(ry(0, slot=0), [zero_state(1)])


def test_u2_must_be_unitary():
    with pytest.raises(ValueError):
        sim.u2(0, 1, np.ones((4, 4)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_matches_dense_oracle(n, rng):
    for _ in range(40):
        circ = random_circuit(n, rng, n_gates=1)
        gate = circ.gates[0]
        psi = random_states(n, rng)
        out = apply_gate(gate, psi)
        expected = psi @ gate_full_matrix(gate, n).T
        assert np.max(np.abs(out - expected)) < 1e-12


def test_norm_preserved_by_every_kind(rng):
    for kind in sorted(sim.GATE_KINDS):
        for _ in range(10):
            n = 3
            circ = random_circuit(n, rng, n_gates=1, kinds=[kind])
            psi = random_states(n, rng)
            out = apply_gate(circ.gates[0], psi)
            norms = np.linalg.norm(out, axis=1) - np.linalg.norm(psi, axis=1)
            assert np.max(np.abs(norms)) < 1e-12


# ---------------------------------------------------------------------------
# circuits


def test_empty_circuit_is_identity(rng):
    psi = random_states(3, rng)
    out = run_circuit_batch(Circuit(3), [], psi)
    assert np.array_equal(out, psi)
    assert out is not psi


def test_slot_circuit_on_q0():
    circ = Circuit(2, [ry(0, slot=0)], param_count=1)
    out = run_circuit_batch(circ, [np.pi], [zero_state(2)])[0]
    assert np.argmax(np.abs(out)) == 0b10
    assert abs(out[0b10] - 1.0) < 1e-12


def test_run_circuit_validates_dimensions():
    circ = Circuit(2, [ry(0, slot=0)], param_count=1)
    with pytest.raises(ValueError):
        run_circuit_batch(circ, [0.1], [zero_state(3)])
    with pytest.raises(ValueError):
        run_circuit_batch(circ, [0.1, 0.2], [zero_state(2)])
    with pytest.raises(ValueError):
        run_circuit_batch(circ, [0.1], zero_state(2))  # a vector, not a batch


def test_circuit_slot_table_validated():
    with pytest.raises(ValueError):
        Circuit(2, [ry(0, slot=3)], param_count=2)
    with pytest.raises(ValueError):
        Circuit(2, [ry(0, slot=0)], param_count=2)  # slot 1 never referenced


def test_circuit_matches_dense_product(rng):
    for n in (2, 3, 4):
        circ = random_circuit(n, rng, n_gates=8, param_count=3)
        params = rng.uniform(-np.pi, np.pi, size=3)
        psi = random_states(n, rng)
        out = run_circuit_batch(circ, params, psi)
        expected = psi @ circuit_full_matrix(circ, params).T
        assert np.max(np.abs(out - expected)) < 1e-12


# ---------------------------------------------------------------------------
# expectation values


def test_expectation_z_all_zero():
    for q in range(3):
        assert expectation_z_batch(np.array([zero_state(3)]), 3, q) == pytest.approx([1.0])


def test_expectation_z_one():
    assert expectation_z_batch(np.array([basis_state(1, 1)]), 1, 0) == pytest.approx([-1.0])


def test_expectation_z_plus():
    plus = apply_gate(h(0), [zero_state(1)])
    assert abs(expectation_z_batch(plus, 1, 0)[0]) < 1e-12


def test_expectation_z_range_check():
    with pytest.raises(ValueError):
        expectation_z_batch(np.array([zero_state(2)]), 2, 2)


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
        psi = random_states(n, rng)
        there = run_circuit_batch(circ, params, psi)
        back = run_circuit_batch(inverse_circuit(circ), params, there)
        assert np.max(np.abs(back - psi)) < 1e-10


# ---------------------------------------------------------------------------
# reset channel


def test_kraus_completeness(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        psi = random_state(n, rng)
        n_d = int(rng.integers(1, n))
        discard = rng.choice(n, size=n_d, replace=False)
        branches = kraus_reset_branches(psi, discard)
        assert len(branches) == 1 << n_d
        total = sum(np.linalg.norm(b) ** 2 for b in branches)
        assert abs(total - 1.0) < 1e-12


def test_kraus_on_all_zero_state():
    psi = zero_state(4)
    branches = kraus_reset_branches(psi, {1, 3})
    assert np.array_equal(branches[0], psi)
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
        kraus_reset_branches(zero_state(2), set())
    with pytest.raises(ValueError):
        kraus_reset_branches(zero_state(2), {2})


# ---------------------------------------------------------------------------
# real-state closure


def test_real_gates_preserve_real_amplitudes(rng):
    kinds = ["ry", "cry", "cnot", "cz", "x"]
    for _ in range(20):
        n = int(rng.integers(2, 6))
        circ = random_circuit(n, rng, n_gates=12, kinds=kinds)
        amp = rng.normal(size=(3, 1 << n))
        psi = amp / np.linalg.norm(amp, axis=1, keepdims=True)
        out = run_circuit_batch(circ, [], psi)
        assert np.max(np.abs(out.imag)) < 1e-12
