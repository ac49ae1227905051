"""Statevector kernels against the dense-matrix oracle, plus the contracts
of the circuit-inversion and reset-channel oracles in conftest.  States are
rows of a (batch, 2^N) array; a single state runs as a batch of one."""

import ast
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqcbench import simulator as sim
from vqcbench.ansatz import AnsatzSpec, build_ansatz
from vqcbench.spinmodels import SpinModel, ground_state
from vqcbench.simulator import (
    Circuit,
    cnot,
    cry,
    cz,
    h,
    run_circuit_batch,
    ry,
    rz,
    x,
)

from conftest import (
    ALL_KINDS,
    REAL_KINDS,
    basis_state,
    circuit_full_matrix,
    expectation_z_batch,
    gate_full_matrix,
    inverse_circuit,
    kraus_reset_branches,
    pairs_outer_oracle,
    random_circuit,
    random_state,
    random_unitary4,
    zero_state,
)


def apply_gate(gate, states, params=None):
    """One gate as a one-gate circuit on a (batch, 2^N) array."""
    amp = np.array(states, dtype=complex)
    params = [] if params is None else params
    circuit = Circuit(amp.shape[1].bit_length() - 1, [gate], len(params))
    return run_circuit_batch(circuit, params, amp)


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
    assert inv.gates[0].scale * inv.gates[0].angle == pytest.approx(-0.7)


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


# ---------------------------------------------------------------------------
# compiled blocks


@st.composite
def circuit_cases(draw):
    """1-5 qubits, gates of every kind in both wire orders (rotations bound
    or on shared slots with scale +-1), a batch of 1-6 real or complex
    states; ``real`` circuits use only gates with real matrices."""
    n = draw(st.integers(1, 5))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = REAL_KINDS if real else ALL_KINDS
    if n == 1:
        kinds = [k for k in kinds if k in ("ry", "rx", "rz", "x", "h")]
    param_count = draw(st.integers(0, 3))
    slotted = random_circuit(n, rng, draw(st.integers(0, 14)), kinds, param_count, real)
    bound = random_circuit(n, rng, draw(st.integers(0, 4)), kinds, real=real)
    gates = [replace(g, scale=float(rng.choice([-1.0, 1.0]))) if g.slot is not None else g
             for g in bound.gates + slotted.gates]
    rng.shuffle(gates)
    states = rng.normal(size=(draw(st.integers(1, 6)), 1 << n))
    if draw(st.booleans()):
        states = states + 1j * rng.normal(size=states.shape)
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    params = rng.uniform(-np.pi, np.pi, size=param_count)
    return Circuit(n, gates, param_count), params, states, real


@settings(max_examples=150, deadline=None)
@given(circuit_cases())
def test_compiled_pass_matches_dense_oracle(case):
    circ, params, states, real = case
    out = run_circuit_batch(circ, params, states)
    assert np.max(np.abs(out - states @ circuit_full_matrix(circ, params).T)) < 1e-12
    if real and not np.iscomplexobj(states):
        # the float64 path against the complex path, via a global phase
        assert out.dtype == np.float64
        assert np.max(np.abs(1j * out - run_circuit_batch(circ, params, 1j * states))) < 1e-12


def test_blocks_follow_the_folding_rule():
    # held RYs open the CZ block, later one-qubit gates join it, a CZ on the
    # same pair joins it too, a CZ on a new pair opens a block, and a wire no
    # two-qubit gate touches ends as a one-wire block
    circ = Circuit(4, [ry(0, angle=0.1), ry(1, angle=0.2), cz(0, 1), rz(1, angle=0.3),
                       cz(1, 0), h(3), cz(1, 2), x(0), cnot(2, 1)])
    compiled = sim.CompiledCircuit(circ)
    assert [wires for wires, _, _ in compiled.blocks] == [(0, 1), (1, 2), (3,)]
    psi = random_states(4, np.random.default_rng(3))
    expected = psi @ circuit_full_matrix(circ).T
    assert np.max(np.abs(run_circuit_batch(circ, [], psi) - expected)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(circuit_cases())
def test_shared_placements_leave_block_matrices_bit_identical(case):
    # a compile that places every factor afresh, as one without the cache does
    circ, params, _, _ = case
    shared = sim.CompiledCircuit(circ)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_placed_affine", sim._placed_affine.__wrapped__)
        fresh = sim.CompiledCircuit(circ)
    for name in ("a", "b", "c", "slot", "scale", "chains"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name))
    assert np.array_equal(shared.block_matrices(shared.factors(params)[0]),
                          fresh.block_matrices(fresh.factors(params)[0]))


def test_compile_places_each_kind_and_place_once():
    circ, _ = build_ansatz(AnsatzSpec("hea_rxrzrx", 8, 1))
    sim._placed_affine.cache_clear()
    compiled = sim.CompiledCircuit(circ)
    assert len(compiled.a) == 50  # the identity, 48 slot-bound factors and CZ
    assert sim._placed_affine.cache_info().misses <= 5  # RX, RZ at two places, CZ


@st.composite
def adjoint_blocks(draw):
    """A block's wires and a stacked (psi, lam) for it, one of each block
    shape: one wire, a window of R = 1 or R > 1 columns, or a far pair; real
    or complex, a batch of 1-5."""
    shape = draw(st.sampled_from(["one wire", "window, R = 1", "window, R > 1", "far pair"]))
    if shape == "one wire":
        n = draw(st.integers(1, 8))
        wires = (draw(st.integers(0, n - 1)),)
    elif shape == "window, R = 1":
        n = draw(st.integers(2, 8))
        lo = draw(st.integers(max(0, n - 5), n - 2))
        wires = (lo, draw(st.integers(lo + 1, n - 1)))
    elif shape == "window, R > 1":
        n = draw(st.integers(7, 8))
        lo = draw(st.integers(0, n - 6))
        wires = (lo, draw(st.integers(lo + 1, min(lo + 4, n - 2))))
    else:
        n = draw(st.integers(6, 8))
        lo = draw(st.integers(0, n - 6))
        wires = (lo, draw(st.integers(lo + 5, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    both = np.array([random_state(n, rng) for _ in range(2 * draw(st.integers(1, 5)))])
    m = random_unitary4(rng, real)
    return shape, n, wires, (both.real if real else both), (m.real if real else m)


@settings(max_examples=200, deadline=None)
@given(adjoint_blocks())
def test_adjoint_outer_matches_the_pair_first_contraction(block):
    shape, n, wires, both, m = block
    window = sim._window(n, wires)
    columns = None if window is None else window[2]  # R
    assert {"one wire": columns is not None, "window, R = 1": columns == 1,
            "window, R > 1": columns is not None and columns > 1,
            "far pair": columns is None}[shape]
    out, product = sim._kernel(both, n, wires, window, sim._padded(m[None])[0])
    assert (product is None) == (window is not None)
    outer = sim._adjoint_outer(out, window, product)
    assert outer.dtype == both.dtype
    assert np.max(np.abs(outer - pairs_outer_oracle(out, n, wires))) < 1e-12


@pytest.mark.parametrize("real", [True, False])
def test_gradient_sums_the_same_over_row_chunks(real, monkeypatch, rng):
    circ = random_circuit(7, rng, n_gates=30, param_count=5, real=real)
    circ.gates.append(cnot(0, 6))  # a far pair
    compiled = sim.CompiledCircuit(circ)
    params = rng.uniform(-np.pi, np.pi, size=5)
    states = random_states(7, rng, batch=5)
    psi = compiled.run(params, states.real if real else states)
    lam = rng.normal(size=psi.shape) * psi
    whole = compiled.gradient(params, psi, lam)
    monkeypatch.setattr(sim, "_SWEEP_BYTES", 3 * psi[0].nbytes)  # chunks of 1 row
    assert np.max(np.abs(compiled.gradient(params, psi, lam) - whole)) < 1e-12


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("real", [True, False])
def test_pass_is_the_same_over_row_chunks(real, rows, monkeypatch, rng):
    circ = random_circuit(7, rng, n_gates=30, param_count=5, real=real)
    circ.gates.append(cnot(0, 6))  # a far pair
    compiled = sim.CompiledCircuit(circ)
    params = rng.uniform(-np.pi, np.pi, size=5)
    states = random_states(7, rng, batch=5)
    states = np.ascontiguousarray(states.real) if real else states
    whole = compiled.run(params, states)
    assert len(sim._row_chunks(whole)) == 1
    monkeypatch.setattr(sim, "_SWEEP_BYTES", (2 * rows + 1) * whole[0].nbytes)
    assert len(sim._row_chunks(whole)) == -(-len(states) // rows)  # chunks of `rows` rows
    assert np.array_equal(compiled.run(params, states), whole)


@pytest.fixture(scope="module")
def tfi16_states():
    return np.array([ground_state(SpinModel("tfi", 16, h))[1] for h in (0.4, 0.8, 1.2, 1.6)])


@pytest.mark.parametrize("family", ["qcnn_ry", "qcnn_su4"])
def test_pass_at_16_qubits_is_the_same_over_row_chunks(family, tfi16_states, monkeypatch):
    circ, _ = build_ansatz(AnsatzSpec(family, 16, 4))
    compiled = sim.CompiledCircuit(circ)
    params = np.random.default_rng(5).uniform(-np.pi, np.pi, size=circ.param_count)
    chunked = compiled.run(params, tfi16_states)
    assert len(sim._row_chunks(chunked)) == len(tfi16_states)  # a row a chunk
    monkeypatch.setattr(sim, "_SWEEP_BYTES", 1 << 40)  # the whole batch in one chunk
    assert np.array_equal(compiled.run(params, tfi16_states), chunked)


def test_chunked_pass_memory_stays_within_the_output_and_three_chunks(rng):
    # A far pair holds its input chunk, the pair-first copy and the product;
    # walked whole, the same pass held three outputs.
    n = 14
    circ = random_circuit(n, rng, n_gates=40, param_count=4, real=True)
    circ.gates.append(cnot(0, n - 1))
    compiled = sim.CompiledCircuit(circ)
    assert any(window is None for _, _, window in compiled.blocks)
    params = rng.uniform(-np.pi, np.pi, size=4)
    states = np.ascontiguousarray(random_states(n, rng, batch=16).real)
    compiled.run(params, states)
    tracemalloc.start()
    try:
        out = compiled.run(params, states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunks = sim._row_chunks(out)
    assert len(chunks) == 4
    # plus the block matrices and a window's gathered 32 x 32 matrix, under 32 KiB
    assert peak <= out.nbytes + 3 * out[chunks[0]].nbytes + (1 << 15)


@pytest.mark.parametrize("family", ["qcnn_ry", "qcnn_su4"])
def test_qcnn_pass_at_16_qubits_makes_at_most_45_kernel_calls(family, monkeypatch):
    circ, _ = build_ansatz(AnsatzSpec(family, 16, 4))
    calls = []
    kernel = sim._kernel
    monkeypatch.setattr(sim, "_kernel", lambda *args: calls.append(1) or kernel(*args))
    params = np.full(circ.param_count, 0.3)
    run_circuit_batch(circ, params, np.eye(1, 1 << 16))
    assert len(calls) <= 45
    assert len(calls) < len(circ.gates) / 3


def test_real_circuit_pass_memory_stays_below_two_complex_states(rng):
    # On float64 amplitudes a pass holds at most the block's input, the copy
    # a pair far apart needs and the product, each half a complex state.
    n = 12
    circ = random_circuit(n, rng, n_gates=40, param_count=4, real=True)
    circ.gates.append(cnot(0, n - 1))
    compiled = sim.CompiledCircuit(circ)
    params = rng.uniform(-np.pi, np.pi, size=4)
    state = random_states(n, rng, batch=1).real.astype(complex)  # as Dataset.amplitudes()
    compiled.run(params, state)
    tracemalloc.start()
    try:
        out = compiled.run(params, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.dtype == np.float64
    assert peak <= 2 * state.nbytes


def test_no_module_imports_a_private_name_of_another_module():
    # each private helper has one owner (the compiled-block format and its
    # kernels in simulator, the discard check in training, ...): no module of
    # the package imports another's private name, or reads one off a name
    # it imported
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    source = Path(sim.__file__).parent
    offenders = []
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()  # local names an import from the package binds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("vqcbench")):
                offenders += [f"{path.name}: {a.name}" for a in node.names if private(a.name)]
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names
                               if a.name.startswith("vqcbench"))
        offenders += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in imported and private(node.attr)]
    assert offenders == []
