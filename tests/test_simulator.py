"""Statevector kernels against the dense-matrix oracle, plus the contracts
of the circuit-inversion and reset-channel oracles in conftest.  States are
rows of a (batch, 2^N) array; a single state runs as a batch of one."""

import ast
import os
import re
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqcbench import simulator as sim
from vqcbench.ansatz import AnsatzSpec, build_ansatz, readout_qubit
from vqcbench.metrics import evaluate_classifier, reconstruct_fidelity
from vqcbench.optimizers import OptimizerConfig
from vqcbench.spinmodels import DataRecord, Dataset, SpinModel
from vqcbench.training import _Objective, compile_for, train
from vqcbench.simulator import (
    Circuit,
    cnot,
    cry,
    cz,
    run_circuit_batch,
    ry,
    rz,
    x,
)

from conftest import (
    ALL_KINDS,
    REAL_KINDS,
    basis_state,
    canonical_pass,
    circuit_full_matrix,
    expectation_z_batch,
    gate_full_matrix,
    ground_state,
    inverse_circuit,
    kraus_reset_branches,
    pairs_outer_oracle,
    random_circuit,
    random_state,
    random_unitary4,
    tensordot_gradient,
    tensordot_pass,
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
        sim.Gate("u2", (0, 1), matrix=np.ones((4, 4)))


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
    plus = apply_gate(sim.Gate("h", (0,)), [zero_state(1)])
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
    """1-9 qubits, gates of every kind in both wire orders (rotations bound
    or on shared slots with scale +-1), a batch of 1-6 real or complex
    states; ``real`` circuits use only gates with real matrices.  From 6
    qubits on, one gate is on a pair at least 5 wires apart, which no
    window takes in the canonical layout (``_window``)."""
    n = draw(st.integers(1, 9))
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
    if n >= 6:
        a = int(rng.integers(n - 5))
        pair = rng.permutation([a, int(rng.integers(a + 5, n))])
        gates.append(sim.Gate("u2", tuple(pair), matrix=random_unitary4(rng, real)))
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
                       cz(1, 0), sim.Gate("h", (3,)), cz(1, 2), x(0), cnot(2, 1)])
    compiled = sim.CompiledCircuit(circ)
    assert [wires for wires, _, _ in compiled.blocks] == [(0, 1), (1, 2), (3,)]
    psi = random_states(4, np.random.default_rng(3))
    expected = psi @ circuit_full_matrix(circ).T
    assert np.max(np.abs(run_circuit_batch(circ, [], psi) - expected)) < 1e-12


def test_compile_places_each_kind_and_place_once():
    circ, _ = build_ansatz(AnsatzSpec("hea_rxrzrx", 8, 1))
    compiled = sim.CompiledCircuit(circ)
    assert len(compiled.a) == 50  # the identity, 48 slot-bound factors and CZ


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


@pytest.fixture
def workers(monkeypatch):
    """Sets ``sim._WORKERS``; a pool that starts in the test is its own, and is
    shut down after it."""
    monkeypatch.setattr(sim, "_pool", None)
    yield lambda count: monkeypatch.setattr(sim, "_WORKERS", count)
    if sim._pool is not None:
        sim._pool.shutdown()


def _no_pool(*args, **kwargs):
    raise AssertionError("the pass pool started")


def _single_rows(monkeypatch, amp):
    """Patches ``_SWEEP_BYTES`` so that amp's chunks hold one row each."""
    monkeypatch.setattr(sim, "_SWEEP_BYTES", 3 * amp[0].nbytes)
    assert len(sim._row_chunks(amp)) == len(amp)


def _pass_memo_and_gradient(compiled, params, states, obs):
    """A pass without a memo, a memo pass that resumes at its checkpoint
    after a one-slot move, and the gradient at the first pass."""
    out = compiled.run(params, states)
    memo, slot = sim.PassMemo(), int(np.argmax(compiled.first[:-1]))
    first, second = params.copy(), params.copy()
    first[slot] += 0.3
    second[slot] += 0.5
    compiled.run(params, states, memo)
    compiled.run(first, states, memo)
    assert memo.start == compiled.first[slot] > 0  # the next pass resumes here
    resumed = compiled.run(second, states, memo)
    return out, resumed, compiled.gradient(params, out, obs * out)


def test_pass_workers_are_the_cpus_the_process_may_use():
    assert sim.pass_workers() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("real", [True, False])
def test_pooled_walk_equals_the_inline_walk(real, workers, monkeypatch, rng):
    circ = random_circuit(6, rng, n_gates=30, param_count=5, real=real)
    circ.gates.append(cnot(0, 5))  # a far pair
    compiled = sim.CompiledCircuit(circ)
    params = rng.uniform(-np.pi, np.pi, size=5)
    states = compiled.state(random_states(6, rng, batch=5))
    _single_rows(monkeypatch, states)
    workers(1)
    inline = _pass_memo_and_gradient(compiled, params, states, sim.z_signs(6, 0))
    assert sim._pool is None
    workers(2)
    pooled = _pass_memo_and_gradient(compiled, params, states, sim.z_signs(6, 0))
    assert sim._pool is not None
    assert all(np.array_equal(a, b) for a, b in zip(pooled, inline))


@pytest.mark.parametrize("family", ["qcnn_ry", "qcnn_su4"])
def test_pooled_walk_at_16_qubits_equals_the_inline_walk(family, tfi16_states, workers):
    # rows of 2^16 amplitudes are chunks of one row as they stand
    circ, _ = build_ansatz(AnsatzSpec(family, 16, 4))
    compiled = sim.CompiledCircuit(circ)
    params = np.random.default_rng(5).uniform(-np.pi, np.pi, size=circ.param_count)
    obs = sim.z_signs(16, readout_qubit(AnsatzSpec(family, 16, 4)))
    results = []
    for count in (1, 2):
        workers(count)
        out = compiled.run(params, tfi16_states)
        results.append((out, compiled.gradient(params, out, obs * out)))
    assert sim._pool is not None
    assert len(sim._row_chunks(results[0][0])) == len(tfi16_states)
    assert all(np.array_equal(a, b) for a, b in zip(*results))


def test_a_chunk_that_fails_in_the_pool_fails_the_pass_and_empties_the_memo(
        workers, monkeypatch, rng):
    class Failed(Exception):
        pass

    circ = random_circuit(6, rng, n_gates=30, param_count=4)
    compiled = sim.CompiledCircuit(circ)
    params = rng.uniform(-np.pi, np.pi, size=4)
    states = compiled.state(random_states(6, rng, batch=4))
    _single_rows(monkeypatch, states)
    workers(2)
    memo = sim.PassMemo()
    compiled.run(params, states, memo)
    calls, kernel = [], sim._kernel

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise Failed("one chunk's kernel")
        return kernel(*args)

    monkeypatch.setattr(sim, "_kernel", failing)
    stepped = params + 0.25
    with pytest.raises(Failed, match="one chunk's kernel"):
        compiled.run(stepped, states, memo)
    assert memo.params is None and memo.output is None
    monkeypatch.setattr(sim, "_kernel", kernel)
    assert np.array_equal(compiled.run(stepped, states, memo), compiled.run(stepped, states))


@pytest.mark.parametrize("family,layers", [("qcnn_ry", 3), ("hea_rxrzrx", 1)])
def test_the_pool_never_starts_in_a_sweep_n8_cell(family, layers, workers, monkeypatch, rng):
    # 8 training states and 192 test states at N = 8: one chunk of float64
    # rows, or two chunks of 128 complex rows, walked inline
    monkeypatch.setattr(sim, "ThreadPoolExecutor", _no_pool)
    workers(2)
    spec = AnsatzSpec(family, 8, layers)
    circ, _ = build_ansatz(spec)
    readout = readout_qubit(spec)
    compiled = compile_for(circ, "classify", readout=readout)

    def dataset(size):
        states = np.ascontiguousarray(random_states(8, rng, batch=size).real)
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        return Dataset("xxz", 8, [DataRecord(s, 0.0, 1 - 2 * (i % 2))
                                  for i, s in enumerate(states)], {})

    train_ds, test_ds = dataset(8), dataset(192)
    record = train("classify", compiled, train_ds,
                   OptimizerConfig(kind="powell", max_iterations=1), readout=readout)
    _Objective(compiled, train_ds, "classify", readout).gradient(record.final_params)
    evaluate_classifier(compiled, readout, record.final_params, test_ds)
    assert len(sim._row_chunks(compiled.state(test_ds.amplitudes()))) == 1 + (not compiled.real)
    assert sim._pool is None


def test_concurrent_passes_share_one_pool_and_equal_the_inline_pass(workers, monkeypatch, rng):
    # benchmark cells running at once (cli --threads) share the pool: more
    # workers than CPUs and a short switch interval let a lost write show
    circ = random_circuit(6, rng, n_gates=30, param_count=4)
    compiled = sim.CompiledCircuit(circ)
    states = compiled.state(random_states(6, rng, batch=6))
    _single_rows(monkeypatch, states)
    points = rng.uniform(-np.pi, np.pi, size=(8, 4))
    workers(1)
    inline = [compiled.run(p, states) for p in points]
    workers(4)
    started = []
    pool_class = sim.ThreadPoolExecutor

    def slow_start(*args, **kwargs):  # a wide window for a second start
        started.append(1)
        time.sleep(0.05)
        return pool_class(*args, **kwargs)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", slow_start)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            futures = [callers.submit(compiled.run, p, states) for p in points]
            done, _ = wait(futures, timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(done) == len(points) and started == [1]
    assert all(np.array_equal(f.result(), want) for f, want in zip(futures, inline))


def test_the_pool_does_not_start_with_one_worker(workers, monkeypatch, rng):
    monkeypatch.setattr(sim, "ThreadPoolExecutor", _no_pool)
    workers(1)
    circ = random_circuit(6, rng, n_gates=30, param_count=4)
    compiled = sim.CompiledCircuit(circ)
    states = compiled.state(random_states(6, rng, batch=4))
    _single_rows(monkeypatch, states)
    _pass_memo_and_gradient(compiled, rng.uniform(-np.pi, np.pi, size=4), states,
                            sim.z_signs(6, 0))
    assert sim._pool is None


def test_pooled_pass_memory_stays_within_the_output_and_three_chunks_a_worker(
        workers, rng):
    # each worker holds at most its chunk, a far pair's pair-first copy and
    # its product at once
    n = 16
    circ = random_circuit(n, rng, n_gates=40, param_count=4, real=True)
    circ.gates.append(cnot(0, n - 1))
    compiled = sim.CompiledCircuit(circ)
    assert any(window is None for _, _, window in compiled.blocks)
    params = rng.uniform(-np.pi, np.pi, size=4)
    states = np.ascontiguousarray(random_states(n, rng, batch=4).real)
    workers(2)
    compiled.run(params, states)  # starts the pool and its threads
    tracemalloc.start()
    try:
        out = compiled.run(params, states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunks = sim._row_chunks(out)
    assert len(chunks) == 4
    assert peak <= out.nbytes + 3 * sim._WORKERS * out[chunks[0]].nbytes + (1 << 15)


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


# ---------------------------------------------------------------------------
# the pass memo: a pass through PassMemo against a fresh pass


FAMILIES = [("qcnn_ry", 3), ("qcnn_so4", 3), ("qcnn_su4", 3), ("hea_ry", 1), ("hea_rxrzrx", 1)]


@st.composite
def memo_sequences(draw):
    """(compiled circuit, two inputs, chunk rows or None, steps): a family at
    N = 4 or 8, or a random circuit of every kind with bound and slotted
    gates; real or complex inputs; steps that move one slot, several, none,
    go back to an earlier parameter vector or switch to the other input."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from([f for f, _ in FAMILIES] + ["random"]))
    if family == "random":
        n, real = draw(st.integers(2, 6)), draw(st.booleans())
        slotted = random_circuit(n, rng, draw(st.integers(1, 20)), param_count=draw(
            st.integers(1, 5)), real=real)
        bound = random_circuit(n, rng, draw(st.integers(0, 6)), real=real)
        gates = bound.gates + slotted.gates
        rng.shuffle(gates)
        circ = Circuit(n, gates, slotted.param_count)
    else:
        n = draw(st.sampled_from([4, 8]))
        top = n.bit_length() - 1 if family.startswith("qcnn") else 2
        circ, _ = build_ansatz(AnsatzSpec(family, n, draw(st.integers(1, top))))
    inputs = [random_states(n, rng, batch=draw(st.integers(1, 5))) for _ in range(2)]
    if draw(st.booleans()):
        inputs = [np.ascontiguousarray(states.real) for states in inputs]
    rows = draw(st.sampled_from([None, 1, 2]))
    params = [rng.uniform(-np.pi, np.pi, size=circ.param_count)]
    on = [0]
    for kind in draw(st.lists(st.sampled_from(["one", "several", "none", "back", "input"]),
                              min_size=1, max_size=12)):
        p, source = params[-1].copy(), on[-1]
        if kind == "one":
            p[rng.integers(len(p))] += rng.normal()
        elif kind == "several":
            moved = rng.choice(len(p), size=rng.integers(1, len(p) + 1), replace=False)
            p[moved] = rng.uniform(-np.pi, np.pi, size=len(moved))
        elif kind == "back":
            p = params[rng.integers(len(params))].copy()
        elif kind == "input":
            source = 1 - source
        params.append(p)
        on.append(source)
    return sim.CompiledCircuit(circ), inputs, rows, list(zip(params, on))


@settings(max_examples=150, deadline=None)
@given(memo_sequences())
def test_memo_pass_equals_a_fresh_pass(case):
    compiled, inputs, rows, steps = case
    memo = sim.PassMemo()
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            amp = compiled.state(inputs[0])
            patch.setattr(sim, "_SWEEP_BYTES", (2 * rows + 1) * amp[0].nbytes)
            assert len(sim._row_chunks(amp)) == -(-len(amp) // rows)
        for params, source in steps:
            kept = compiled.run(params, inputs[source], memo)
            fresh = compiled.run(params, inputs[source])
            assert kept.dtype == fresh.dtype
            assert np.array_equal(kept, fresh)
            assert kept is not fresh


def _first_changed_block(compiled, params, stepped) -> int:
    """The first block whose matrix differs between the two parameter vectors."""
    before, after = (compiled.block_matrices(compiled.factors(p)[0]) for p in (params, stepped))
    changed = [k for k, (_, u, _) in enumerate(compiled.blocks)
               if not np.array_equal(before[u], after[u])]
    return changed[0]


@pytest.mark.parametrize("family,layers", FAMILIES)
def test_memo_pass_after_a_step_in_one_slot_applies_only_the_blocks_from_its_first_on(
        family, layers, monkeypatch):
    circ, _ = build_ansatz(AnsatzSpec(family, 8, layers))
    compiled = sim.CompiledCircuit(circ)
    rng = np.random.default_rng(6)
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    states = compiled.state(random_states(8, rng, batch=2).real)
    calls = []
    kernel = sim._kernel
    monkeypatch.setattr(sim, "_kernel", lambda *args: calls.append(1) or kernel(*args))
    for slot in range(circ.param_count):
        memo = sim.PassMemo()
        compiled.run(params, states, memo)
        # the first step in the slot moves the checkpoint to the slot's first
        # block, and the second starts there
        first, second = params.copy(), params.copy()
        first[slot] += 0.3
        second[slot] += 0.5
        compiled.run(first, states, memo)
        calls.clear()
        out = compiled.run(second, states, memo)
        assert len(calls) == len(compiled.blocks) - _first_changed_block(compiled, first, second)
        assert np.array_equal(out, compiled.run(second, states))


@pytest.mark.parametrize("family,layers", FAMILIES)
def test_memo_pass_that_changes_no_block_runs_no_kernel(family, layers, monkeypatch):
    # the memo keeps the last output, read-only, and a pass whose moved slots
    # drive no block returns it: at the same parameters, or after a step in a
    # slot outside the readout's light cone
    spec = AnsatzSpec(family, 8, layers)
    circ, _ = build_ansatz(spec)
    cone = sim.CompiledCircuit(circ, observed=[readout_qubit(spec)])
    rng = np.random.default_rng(8)
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    states = cone.state(random_states(8, rng, batch=3).real)
    flat = np.flatnonzero(~cone.drives[: circ.param_count].any(axis=1))
    assert len(flat) == {"hea_ry": 13, "hea_rxrzrx": 39}.get(family, 0)
    calls = []
    kernel = sim._kernel
    monkeypatch.setattr(sim, "_kernel", lambda *args: calls.append(1) or kernel(*args))
    memo = sim.PassMemo()
    kept = cone.run(params, states, memo)
    assert not kept.flags.writeable
    steps = [params.copy()]
    for slot in flat:
        steps.append(steps[-1].copy())
        steps[-1][slot] += 0.7
    for stepped in steps:
        calls.clear()
        out = cone.run(stepped, states, memo)
        assert calls == []
        assert out is kept
        assert np.array_equal(out, cone.run(stepped, states))


# ---------------------------------------------------------------------------
# the light cone: a compile for an observed qubit against the full compile


@settings(max_examples=150, deadline=None)
@given(circuit_cases())
def test_cone_compile_equals_the_full_compile_on_every_observed_qubit(case):
    circ, params, states, _ = case
    weights = np.linspace(-1.0, 2.0, len(states))  # dC/dm_i of some cost
    full = sim.CompiledCircuit(circ)
    for q in range(circ.num_qubits):
        cone = sim.CompiledCircuit(circ, observed=[q])
        signs = sim.z_signs(circ.num_qubits, q)
        passes = [c.run(params, states) for c in (full, cone)]
        m_full, m_cone = (sim.expectation(psi, signs) for psi in passes)
        assert np.max(np.abs(m_cone - m_full)) < 1e-12
        g_full, g_cone = (c.gradient(params, psi, weights[:, None] * signs * psi)
                          for c, psi in zip((full, cone), passes))
        driving = cone.drives[: circ.param_count].any(axis=1)
        assert np.max(np.abs(g_cone - g_full)[driving], initial=0.0) < 1e-12
        assert np.all(g_cone[~driving] == 0.0)
        # a memo pass after a step in each slot in turn, flat slots included
        memo, stepped = sim.PassMemo(), params.copy()
        assert np.array_equal(cone.run(stepped, states, memo), passes[1])
        for slot in range(circ.param_count):
            stepped[slot] += 0.4
            assert np.array_equal(cone.run(stepped, states, memo), cone.run(stepped, states))


@settings(max_examples=150, deadline=None)
@given(circuit_cases(), st.data())
def test_cone_of_an_observed_set_reads_as_the_full_compile(case, data):
    # an autoencoder observes its discarded qubits D: its cost reads their
    # <Z>, but its reset-channel fidelity reads their whole reduced state
    circ, params, states, _ = case
    n = circ.num_qubits
    observed = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                        max_size=min(3, n))))
    full, cone = sim.CompiledCircuit(circ), sim.CompiledCircuit(circ, observed=observed)
    dataset = Dataset("tfi", n, [DataRecord(state, 0.0, 1) for state in states])
    costs = [_Objective(c, dataset, "autoencode", discard=observed).cost(params)
             for c in (full, cone)]
    assert abs(costs[1] - costs[0]) < 1e-12
    fidelities = [reconstruct_fidelity(c, params, observed, states) for c in (full, cone)]
    assert np.max(np.abs(fidelities[1] - fidelities[0])) < 1e-12
    signs = sum(sim.z_signs(n, q) for q in observed)  # O, the sum of Z over D

    def gradient(compiled):  # lam = O psi
        psi = compiled.run(params, states)
        return compiled.gradient(params, psi, signs * psi)

    g_full, g_cone = gradient(full), gradient(cone)
    driving = cone.drives[: circ.param_count].any(axis=1)
    assert np.max(np.abs(g_cone - g_full)[driving], initial=0.0) < 1e-12
    assert np.all(g_cone[~driving] == 0.0)


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("family,driving", [("hea_ry", 3), ("hea_rxrzrx", 9)])
def test_cone_compile_of_a_one_layer_hea_keeps_one_block(family, driving, n):
    # the readout's cone holds the last rotations on wires 0 and 1, the CZ
    # between them and the first rotations on both: 3 or 9 slots at any N
    spec = AnsatzSpec(family, n, 1)
    circ, _ = build_ansatz(spec)
    cone = sim.CompiledCircuit(circ, observed=[readout_qubit(spec)])
    assert len(sim.CompiledCircuit(circ).blocks) == n - 1
    assert [wires for wires, _, _ in cone.blocks] == [(0, 1)]
    assert cone.drives[: circ.param_count].any(axis=1).sum() == driving


@pytest.mark.parametrize("n,blocks", [(8, 19), (16, 43)])
@pytest.mark.parametrize("family", ["qcnn_ry", "qcnn_so4", "qcnn_su4"])
def test_cone_compile_of_a_full_depth_qcnn_keeps_every_block(family, n, blocks):
    # only the trailing X of each pooling unit, on the qubit it pools out,
    # lies outside the readout's cone
    spec = AnsatzSpec(family, n, n.bit_length() - 1)
    circ, _ = build_ansatz(spec)
    full, cone = sim.CompiledCircuit(circ), sim.CompiledCircuit(circ, [readout_qubit(spec)])
    assert [b[0] for b in cone.blocks] == [b[0] for b in full.blocks]
    assert len(cone.blocks) == blocks
    assert cone.drives[: circ.param_count].any(axis=1).all()

    def factors_applied(compiled):  # factor 0 is the identity that pads a chain
        return sum(np.count_nonzero(compiled.chains[u]) for _, u, _ in compiled.blocks)

    pooling_units = sum(g.kind == "cry" for g in circ.gates) // 2
    assert factors_applied(full) - factors_applied(cone) == pooling_units == n - 1


# ---------------------------------------------------------------------------
# the layout plan: a pass's steps, blocks and rotations of the register


def _rotation_steps(compiled):
    return [wires for wires, u, _ in compiled.steps if u is None]


def _unrotated(compiled):
    """Each block step's (wires, u) in the canonical layout, in step order."""
    n, turn, blocks = compiled.num_qubits, 0, []
    for wires, u, _ in compiled.steps:
        if u is None:
            turn = (turn + wires) % n
        else:
            blocks.append((tuple(sorted((q + turn) % n for q in wires)), u))
    assert turn == 0  # a pass ends in the canonical layout
    return blocks


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("family", ["qcnn_ry", "qcnn_so4", "qcnn_su4", "hea_ry", "hea_rxrzrx"])
def test_layout_plan_is_the_fold_itself_at_8_qubits_or_fewer(family, n):
    # every compile of these families walks its blocks in order with no
    # rotation, so that N <= 8 passes stay bit for bit those of the walk
    if family.startswith("qcnn"):
        specs = [AnsatzSpec(family, n, layers) for layers in range(1, n.bit_length())]
    else:
        specs = [AnsatzSpec(family, n, layers, hea_template=template)
                 for layers in (1, 2, 4) for template in ("single_column", "double_column")]
    for spec in specs:
        circ, _ = build_ansatz(spec)
        compiles = [compile_for(circ, "classify", readout_qubit(spec)),
                    compile_for(circ, "autoencode"), sim.CompiledCircuit(circ),
                    sim.CompiledCircuit(circ, observed=[n - 1])]
        for compiled in compiles:
            assert _rotation_steps(compiled) == []
            assert len(compiled.steps) == len(compiled.blocks)
            assert all(step is block for step, block in zip(compiled.steps, compiled.blocks))


@pytest.mark.parametrize("family", ["qcnn_ry", "qcnn_su4"])
def test_layout_plan_at_16_qubits_rotates_and_keeps_each_wires_block_order(family):
    spec = AnsatzSpec(family, 16, 4)
    circ, _ = build_ansatz(spec)
    compiled = compile_for(circ, "classify", readout_qubit(spec))
    assert 1 <= len(_rotation_steps(compiled)) <= len(compiled.blocks) // 4
    assert all(0 < d < 16 for d in _rotation_steps(compiled))
    steps = _unrotated(compiled)
    blocks = [(wires, u) for wires, u, _ in compiled.blocks]
    assert sorted(steps) == sorted(blocks)
    for q in range(16):  # blocks that share a wire never trade places
        assert [b for b in steps if q in b[0]] == [b for b in blocks if q in b[0]]
    kernels = [step for step in compiled.steps if step[1] is not None]
    assert sum(window is None for _, _, window in kernels) < sum(
        window is None for _, _, window in compiled.blocks)


def _planned_cases():
    """(family or "random", circuit) at 12 and 16 qubits: each family (QCNN
    at 16 only, as it needs a power of two), and random real and complex
    circuits with four far pairs."""
    rng = np.random.default_rng(23)
    cases = []
    for n in (12, 16):
        for family in ["qcnn_ry", "qcnn_so4", "qcnn_su4", "hea_ry", "hea_rxrzrx"]:
            if family.startswith("qcnn") and n == 12:
                continue
            circ, _ = build_ansatz(AnsatzSpec(family, n, 4 if family.startswith("qcnn") else 2))
            cases.append(pytest.param(family, circ, id=f"{family}-n{n}"))
        for real in (True, False):
            circ = random_circuit(n, rng, n_gates=40, param_count=5, real=real)
            for a in range(4):  # pairs n - 1 - a wires apart
                circ.gates.append(sim.Gate("u2", (a, n - 1), matrix=random_unitary4(rng, real)))
            kind = "real" if real else "complex"
            cases.append(pytest.param("random", circ, id=f"random-{kind}-n{n}"))
    return cases


@pytest.mark.parametrize("name,circ", _planned_cases())
def test_layout_plan_pass_gradient_and_memo_match_the_tensordot_oracle(name, circ):
    # one state at 16 qubits, where the oracle's gradient takes about a second
    # a state, two at 12 (two row chunks)
    n = circ.num_qubits
    compiled = sim.CompiledCircuit(circ)
    if name in ("qcnn_ry", "qcnn_su4", "random"):
        assert _rotation_steps(compiled)
    rng = np.random.default_rng(n)
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    states = np.array([random_state(n, rng) for _ in range(2 if n < 16 else 1)])
    if compiled.real:
        states = np.ascontiguousarray(states.real)
    psi = compiled.run(params, states)
    assert np.max(np.abs(psi - tensordot_pass(circ, params, states))) < 1e-12
    assert np.max(np.abs(psi - canonical_pass(compiled, params, states))) < 1e-12
    lam = np.array([[0.7], [-1.3]])[: len(states)] * sim.z_signs(n, 0) * psi
    assert np.max(np.abs(compiled.gradient(params, psi, lam)
                         - tensordot_gradient(circ, params, psi, lam))) < 1e-12
    # a memo pass after a step in the slot first driven at the latest step
    memo = sim.PassMemo()
    compiled.run(params, states, memo)
    stepped = params.copy()
    stepped[np.argmax(compiled.first[: circ.param_count])] += 0.3
    kept = compiled.run(stepped, states, memo)
    assert np.array_equal(kept, compiled.run(stepped, states))
    assert np.max(np.abs(kept - tensordot_pass(circ, stepped, states))) < 1e-12


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


# The public names of src/vqcbench that nothing in the package calls and that
# stay only because the benchmark harness under bench/ imports them; each
# leaves for tests/conftest.py once bench/ stops importing it.
BENCH_ONLY = {
    "run_circuit_batch",  # bench/tracing.py times gate kinds through it
    "param_shift_gradient",  # bench/checks.py checks it against finite differences
    "build_hamiltonian",  # bench/test_oracles.py checks it against Kronecker products
}


def test_every_public_function_and_class_is_used_inside_the_package():
    # code that only tests call belongs in tests/conftest.py, not in src/: a
    # public top-level function or class must be referenced somewhere in the
    # package outside its own definition, or be one of the BENCH_ONLY names
    source = Path(sim.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))]

    def references(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    total = sum((references(tree) for tree in trees), Counter())
    defined = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    unused = {node.name for node in defined
              if total[node.name] == references(node)[node.name]}
    assert unused == BENCH_ONLY
    bench = "".join(path.read_text() for path in (source.parents[1] / "bench").glob("*.py"))
    assert all(re.search(rf"import .*\b{name}\b", bench) for name in BENCH_ONLY)
