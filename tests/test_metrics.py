"""Classifier metrics (ROC/AUC) and compression fidelity, checked against
the Kraus-branch simulation and the density-matrix channel oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vqcbench.ansatz import AnsatzSpec, build_ansatz
from vqcbench.metrics import (
    ClassificationReport,
    auc_score,
    evaluate_autoencoder,
    evaluate_classifier,
    reconstruct_fidelity,
    roc_points,
)
from vqcbench.simulator import Circuit
from vqcbench.spinmodels import DataRecord, Dataset, SpinModel, ground_state
from vqcbench.training import autoencoder_cost, train
from vqcbench.optimizers import OptimizerConfig

from conftest import (
    basis_state,
    circuit_full_matrix,
    inverse_circuit,
    kraus_fidelity,
    random_circuit,
    random_state,
    zero_state,
)


def make_dataset(states, labels, n):
    records = [
        DataRecord(state=np.asarray(s), h=0.0, label=int(l))
        for s, l in zip(states, labels)
    ]
    return Dataset("tfi", n, records, {})


def density_matrix_fidelity(encoder, params, discard, state):
    """Oracle: build the reset channel explicitly on density matrices."""
    n = encoder.num_qubits
    dim = 1 << n
    u = circuit_full_matrix(encoder, params)
    u_inv = circuit_full_matrix(inverse_circuit(encoder), params)
    rho = np.outer(u @ state, (u @ state).conj())
    # Kraus operators K_b = |0><b| on the discarded qubits, identity elsewhere
    discard = sorted(discard)
    n_d = len(discard)
    rho_reset = np.zeros_like(rho)
    for b in range(1 << n_d):
        k_full = np.eye(1)
        pos = 0
        for q in range(n):
            if q in discard:
                bit = (b >> (n_d - 1 - discard.index(q))) & 1
                block = np.zeros((2, 2))
                block[0, bit] = 1.0
                k_full = np.kron(k_full, block)
            else:
                k_full = np.kron(k_full, np.eye(2))
        rho_reset += k_full @ rho @ k_full.conj().T
    rho_dec = u_inv @ rho_reset @ u_inv.conj().T
    return float(np.real(state.conj() @ rho_dec @ state))


# ---------------------------------------------------------------------------
# predictions / classifier evaluation


def test_predict_identity_circuit():
    ds = make_dataset([basis_state(1, 0), basis_state(1, 1)], [1, -1], 1)
    report = evaluate_classifier(Circuit(1), 0, [], ds)
    assert report.predictions == [1, -1]


def test_predict_tie_breaks_positive():
    # |+> has <Z> = 0 exactly, and an exact zero predicts +1
    plus = np.full(2, 1 / np.sqrt(2))
    ds = make_dataset([plus], [-1], 1)
    report = evaluate_classifier(Circuit(1), 0, [], ds)
    assert report.scores[0] == 0.0
    assert report.predictions == [1]


def test_perfect_separation_report():
    scores = [0.9, 0.8, -0.7, -0.6]
    labels = [1, 1, -1, -1]
    assert auc_score(scores, labels) == 1.0
    pts = roc_points(scores, labels)
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 1.0)
    fprs, tprs = zip(*pts)
    assert all(a <= b for a, b in zip(fprs, fprs[1:]))
    assert all(a <= b for a, b in zip(tprs, tprs[1:]))


def test_flipped_scores_auc_zero():
    scores = [-0.9, -0.8, 0.7, 0.6]
    labels = [1, 1, -1, -1]
    assert auc_score(scores, labels) == 0.0


def test_random_scores_auc_near_half():
    rng = np.random.default_rng(123)
    scores = rng.uniform(-1, 1, size=1000)
    labels = np.where(rng.uniform(size=1000) < 0.5, 1, -1)
    auc = auc_score(scores, labels)
    assert 0.45 <= auc <= 0.55


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    scores = rng.uniform(-1, 1, size=60)
    labels = np.where(rng.uniform(size=60) < 0.4, 1, -1)
    transformed = np.tanh(3.0 * scores) + 2.0
    assert auc_score(scores, labels) == auc_score(transformed, labels)
    assert roc_points(scores, labels) == roc_points(transformed, labels)


def test_single_class_auc_undefined():
    assert auc_score([0.1, 0.2], [1, 1]) is None
    assert roc_points([0.1, 0.2], [1, 1]) == []


def test_evaluate_classifier_end_to_end():
    # identity circuit on |0>, |1>: perfectly separable
    ds = make_dataset([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [1, -1], 1)
    report = evaluate_classifier(Circuit(1), 0, [], ds)
    assert report.accuracy == 1.0
    assert report.auc == 1.0
    assert report.confusion == {"tp": 1, "tn": 1, "fp": 0, "fn": 0}
    # deterministic
    report2 = evaluate_classifier(Circuit(1), 0, [], ds)
    assert report == report2


def test_accuracy_zero_when_labels_flipped():
    ds = make_dataset([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [-1, 1], 1)
    report = evaluate_classifier(Circuit(1), 0, [], ds)
    assert report.accuracy == 0.0
    assert report.auc == 0.0


# ---------------------------------------------------------------------------
# reconstruction fidelity


def test_identity_encoder_on_zero_state():
    assert reconstruct_fidelity(Circuit(4), [], [0, 2], [zero_state(4)]) == pytest.approx([1.0])


def test_identity_encoder_plus_tensor_zero():
    amp = np.zeros(4, dtype=complex)
    amp[0b00] = amp[0b10] = 1 / np.sqrt(2)
    assert reconstruct_fidelity(Circuit(2), [], [0], [amp]) == pytest.approx([0.5])


def test_fidelity_matches_density_matrix_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        circ = random_circuit(n, rng, n_gates=8, param_count=2)
        params = rng.uniform(-np.pi, np.pi, size=2)
        states = np.array([random_state(n, rng) for _ in range(3)])
        n_d = int(rng.integers(1, n))
        discard = tuple(sorted(rng.choice(n, size=n_d, replace=False).tolist()))
        got = reconstruct_fidelity(circ, params, discard, states)
        oracle = [density_matrix_fidelity(circ, params, list(discard), s) for s in states]
        assert got == pytest.approx(oracle, abs=1e-10)
        assert np.all((0.0 <= got) & (got <= 1.0 + 1e-9))


@st.composite
def compression_cases(draw):
    """A random circuit on 2-6 qubits, a discard set and a random state."""
    n = draw(st.integers(2, 6))
    discard = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
    n_gates = draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circ = random_circuit(n, rng, n_gates=n_gates, param_count=3)
    params = rng.uniform(-np.pi, np.pi, size=3)
    return circ, params, discard, random_state(n, rng)


@settings(max_examples=60, deadline=None)
@given(compression_cases())
def test_closed_form_fidelity_matches_kraus_and_density_oracles(case):
    circ, params, discard, state = case
    [got] = reconstruct_fidelity(circ, params, discard, [state])
    kraus = kraus_fidelity(circ, params, discard, state)
    dense = density_matrix_fidelity(circ, params, list(discard), state)
    assert got == pytest.approx(kraus, abs=1e-10)
    assert got == pytest.approx(dense, abs=1e-10)
    assert -1e-12 <= got <= 1.0 + 1e-9


def test_fidelity_memory_stays_within_a_few_states(rng):
    # The Kraus-branch route held a 2^n_d x 2^N batch (64 states here); the
    # closed form holds the encoded state, the gate kernels' half-size
    # temporaries and one reordered copy of the encoded state.
    n = 12
    circ = random_circuit(n, rng, n_gates=24, param_count=4)
    params = rng.uniform(-np.pi, np.pi, size=4)
    discard = list(range(0, n, 2))
    state = random_state(n, rng)[None, :]
    reconstruct_fidelity(circ, params, discard, state)
    tracemalloc.start()
    try:
        reconstruct_fidelity(circ, params, discard, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * state.nbytes


def test_fidelity_one_when_encoder_output_factorizes(rng):
    # encoder mapping the input to |0...0> x (anything) keeps fidelity 1
    n = 3
    state = zero_state(n)[None, :]
    circ = random_circuit(n, rng, n_gates=5, kinds=["cz", "cnot"])  # |000> fixed point? no
    # use the identity circuit plus a rotation on the kept qubit only
    from vqcbench.simulator import ry

    circ = Circuit(n, [ry(2, angle=0.7)])
    assert reconstruct_fidelity(circ, [], [0, 1], state) == pytest.approx([1.0], abs=1e-12)


def test_trained_cost_zero_implies_fidelity_one():
    # train a tiny autoencoder to exact compression, check the F=1 link
    circ, discard = build_ansatz(AnsatzSpec("qcnn_ry", 4, 1))
    _, state, _ = ground_state(SpinModel("tfi", 4, 1.8))
    ds = make_dataset([state], [1], 4)
    record = train(
        "autoencode", circ, ds,
        OptimizerConfig(kind="powell", max_iterations=200, cost_tolerance=1e-14),
        discard=discard, init_seed=1,
    )
    cost = min(record.cost_history)
    [fid] = reconstruct_fidelity(circ, record.final_params, discard, ds.amplitudes())
    if cost < 1e-9:
        assert fid >= 1 - 1e-6
    assert fid >= 1 - 2 * cost  # general cost-fidelity bound direction


def test_evaluate_autoencoder_report(rng):
    circ, discard = build_ansatz(AnsatzSpec("qcnn_ry", 4, 1))
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    _, s1, _ = ground_state(SpinModel("tfi", 4, 0.5))
    _, s2, _ = ground_state(SpinModel("tfi", 4, 1.5))
    ds = make_dataset([s1, s2], [-1, 1], 4)
    report = evaluate_autoencoder(circ, params, discard, ds, final_cost=0.123)
    assert len(report.fidelities) == 2
    assert report.mean_fidelity == pytest.approx(np.mean(report.fidelities))
    assert report.n_d == 2
    assert report.final_cost == 0.123
    for f in report.fidelities:
        assert 0.0 <= f <= 1.0 + 1e-9
    single = evaluate_autoencoder(circ, params, discard, make_dataset([s1], [1], 4))
    assert single.mean_fidelity == pytest.approx(single.fidelities[0])


def test_compression_spec_validation():
    # the discard list is checked where the fidelity is computed: non-empty,
    # in range, and read as a set
    for bad in ([], [-1], [2], [0, 5]):
        with pytest.raises(ValueError):
            reconstruct_fidelity(Circuit(2), [], bad, [zero_state(2)])
    amp = np.zeros(4)
    amp[0b00] = amp[0b10] = 1 / np.sqrt(2)
    for same in ([0], [0, 0], (0,)):
        assert reconstruct_fidelity(Circuit(2), [], same, [amp]) == pytest.approx([0.5])
    report = evaluate_autoencoder(Circuit(3), [], [2, 0, 2], make_dataset([zero_state(3)], [1], 3))
    assert report.n_d == 2
