"""Cost functions, adjoint gradients against the parameter-shift rule and
finite differences, and the end-to-end training loop."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    autoencoder_cost,
    classification_cost,
    expectation_z_batch,
    param_shift_oracle,
    random_circuit,
    tensordot_gradient,
    tensordot_pass,
)
from vqcbench import simulator, training
from vqcbench.ansatz import AnsatzSpec, build_ansatz, build_hea, build_qcnn
from vqcbench.optimizers import (
    OptimizerConfig,
    TrainRecord,
    gradient_descent_minimize,
    spsa_minimize,
)
from vqcbench.metrics import evaluate_autoencoder, evaluate_classifier
from vqcbench.simulator import Circuit, CompiledCircuit, Gate, pass_workers, ry
from vqcbench.spinmodels import DataRecord, Dataset, generate_dataset
from vqcbench.training import (
    TASKS,
    initial_parameters,
    param_shift_gradient,
    train,
)


def make_dataset(states, labels, n):
    records = [
        DataRecord(state=np.asarray(s, dtype=float), h=0.0, label=int(l))
        for s, l in zip(states, labels)
    ]
    return Dataset("tfi", n, records, {})


def finite_difference(cost, params, eps=1e-5):
    grad = np.zeros(len(params))
    for i in range(len(params)):
        up = params.copy()
        dn = params.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (cost(up) - cost(dn)) / (2 * eps)
    return grad


# ---------------------------------------------------------------------------
# costs


def test_classification_cost_zero_when_expectations_match_labels():
    # identity circuit; |0> has <Z>=+1 and |1> has <Z>=-1
    n = 1
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [+1, -1], n)
    assert classification_cost(Circuit(n), 0, ds, []) == pytest.approx(0.0)


def test_classification_cost_single_sample_midpoint():
    # one sample with <Z>=0 labeled +1 gives cost exactly 1
    amp = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    ds = make_dataset([amp], [+1], 1)
    assert classification_cost(Circuit(1), 0, ds, []) == pytest.approx(1.0)


def test_classification_cost_bounds(rng):
    spec = AnsatzSpec("qcnn_ry", 4, 2)
    circ = build_qcnn(spec)
    states = []
    for _ in range(5):
        amp = rng.normal(size=16)
        states.append(amp / np.linalg.norm(amp))
    ds = make_dataset(states, [1, -1, 1, -1, 1], 4)
    for _ in range(100):
        params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
        c = classification_cost(circ, 0, ds, params)
        assert 0.0 <= c <= 4.0


def test_classification_cost_rejects_empty_dataset():
    with pytest.raises(ValueError):
        classification_cost(Circuit(1), 0, make_dataset([], [], 1), [])


def test_autoencoder_cost_extremes():
    n = 3
    # all discarded qubits in |0>: cost 0
    ds0 = make_dataset([np.eye(8)[0]], [1], n)
    assert autoencoder_cost(Circuit(n), {1, 2}, ds0, []) == pytest.approx(0.0)
    # discarded qubits in |1> (state |011>): cost n_d = 2
    ds1 = make_dataset([np.eye(8)[0b011]], [1], n)
    assert autoencoder_cost(Circuit(n), {1, 2}, ds1, []) == pytest.approx(2.0)
    # discarded qubits in |+>: cost n_d / 2
    plus = np.zeros(8)
    for idx in (0b000, 0b001, 0b010, 0b011):
        plus[idx] = 0.5
    ds_plus = make_dataset([plus], [1], n)
    assert autoencoder_cost(Circuit(n), {1, 2}, ds_plus, []) == pytest.approx(1.0)


def test_autoencoder_cost_bounds(rng):
    circ, discard = build_ansatz(AnsatzSpec("qcnn_ry", 4, 1))
    amp = rng.normal(size=16)
    ds = make_dataset([amp / np.linalg.norm(amp)], [1], 4)
    for _ in range(100):
        params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
        c = autoencoder_cost(circ, discard, ds, params)
        assert 0.0 <= c <= len(discard)


def test_register_size_mismatch_rejected_everywhere():
    # a 3-site dataset offered to a 2-qubit circuit
    circ = Circuit(2, [ry(0, slot=0)], param_count=1)
    ds = make_dataset([np.eye(8)[0], np.eye(8)[5]], [1, -1], 3)
    params = np.array([0.3])
    with pytest.raises(ValueError):
        classification_cost(circ, 0, ds, params)
    with pytest.raises(ValueError):
        autoencoder_cost(circ, {1}, ds, params)
    for task, target in (("classify", {"readout": 0}), ("autoencode", {"discard": [1]})):
        with pytest.raises(ValueError):
            param_shift_gradient(circ, ds, params, task=task, **target)
    with pytest.raises(ValueError):
        evaluate_classifier(training.compile_for(circ, "classify", readout=0), params, ds)
    with pytest.raises(ValueError):
        evaluate_autoencoder(training.compile_for(circ, "autoencode", discard=[1]), params, ds)
    # a record whose length disagrees with the dataset's own register size
    bad = make_dataset([np.eye(4)[0], np.eye(8)[0]], [1, -1], 2)
    with pytest.raises(ValueError, match="record 1"):
        classification_cost(circ, 0, bad, params)


def test_autoencoder_cost_requires_discard():
    ds = make_dataset([np.eye(4)[0]], [1], 2)
    with pytest.raises(ValueError):
        autoencoder_cost(Circuit(2), set(), ds, [])
    with pytest.raises(ValueError):
        autoencoder_cost(Circuit(2), {5}, ds, [])


# ---------------------------------------------------------------------------
# parameter-shift gradients


def test_shift_rule_on_single_ry():
    # <Z_0> = cos(theta) on |0>; derivative at pi/2 is -1
    circ = Circuit(1, [ry(0, slot=0)], param_count=1)
    ds = make_dataset([[1.0, 0.0]], [+1], 1)
    grad = param_shift_gradient(circ, ds, np.array([np.pi / 2]), task="classify", readout=0)
    # chain rule: dC/dtheta = 2(m - l) * dm/dtheta = 2(0 - 1)(-1) = 2
    assert grad[0] == pytest.approx(2.0, abs=1e-12)


def test_gradient_of_parameterless_circuit_is_empty():
    ds = make_dataset([[1.0, 0.0]], [+1], 1)
    grad = param_shift_gradient(Circuit(1), ds, np.array([]), task="classify", readout=0)
    assert grad.shape == (0,)


@pytest.mark.parametrize(
    "family,n", [("qcnn_ry", 4), ("hea_ry", 4), ("hea_ry", 6)]
)
def test_gradient_matches_finite_difference_classify(family, n, rng):
    layers = (n.bit_length() - 1) if family.startswith("qcnn") else 2
    spec = AnsatzSpec(family, n, layers)
    circ, _ = build_ansatz(spec)
    states = []
    for _ in range(3):
        amp = rng.normal(size=1 << n)
        states.append(amp / np.linalg.norm(amp))
    ds = make_dataset(states, [1, -1, 1], n)
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    grad = param_shift_gradient(circ, ds, params, task="classify", readout=0)
    fd = finite_difference(lambda p: classification_cost(circ, 0, ds, p), params)
    assert np.max(np.abs(grad - fd)) < 1e-5


@pytest.mark.parametrize("family,n", [("qcnn_ry", 4), ("hea_ry", 4)])
def test_gradient_matches_finite_difference_autoencode(family, n, rng):
    circ, discard = build_ansatz(AnsatzSpec(family, n, 1))
    if discard is None:  # HEA
        discard = {0, 1}
    amp = rng.normal(size=1 << n)
    ds = make_dataset([amp / np.linalg.norm(amp)], [1], n)
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    grad = param_shift_gradient(circ, ds, params, task="autoencode", discard=discard)
    fd = finite_difference(lambda p: autoencoder_cost(circ, discard, ds, p), params)
    assert np.max(np.abs(grad - fd)) < 1e-5


def test_shared_slot_gradient_equals_sum_of_unshared(rng):
    spec = AnsatzSpec("qcnn_ry", 4, 2, weight_sharing=True)
    circ = build_qcnn(spec)
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    amp = rng.normal(size=16)
    ds = make_dataset([amp / np.linalg.norm(amp)], [1], 4)

    target_slot = 0
    occurrences = [i for i, g in enumerate(circ.gates) if g.slot == target_slot]
    assert len(occurrences) > 1  # sharing actually happens

    # Un-share: give every occurrence of the slot its own fresh slot at the
    # same value.  The original slot is kept alive (Circuit invariant) by a
    # canceling RY(theta0) RY(-theta0) pair, whose gradient is exactly zero.
    gates = list(circ.gates)
    for j, gi in enumerate(occurrences):
        g = gates[gi]
        gates[gi] = Gate(g.kind, g.targets, slot=circ.param_count + j, scale=g.scale)
    keeper = Gate("ry", (0,), slot=target_slot)
    anti_keeper = Gate("ry", (0,), slot=target_slot, scale=-1.0)
    unshared = Circuit(4, [keeper, anti_keeper] + gates, circ.param_count + len(occurrences))
    big_params = np.concatenate([params, np.full(len(occurrences), params[target_slot])])

    g_shared = param_shift_gradient(circ, ds, params, task="classify", readout=0)
    g_unshared = param_shift_gradient(unshared, ds, big_params, task="classify", readout=0)
    assert abs(g_unshared[target_slot]) < 1e-12
    assert g_unshared[circ.param_count:].sum() == pytest.approx(
        g_shared[target_slot], abs=1e-10
    )
    # every other slot is untouched by the re-slotting
    for s in range(1, circ.param_count):
        assert g_unshared[s] == pytest.approx(g_shared[s], abs=1e-10)


@st.composite
def gradient_cases(draw):
    """2-5 qubits, gates of every kind (u2 fixed, rotations bound or on
    shared slots with scale +-1), 1-6 real or complex states and a task;
    a real circuit has only gates with real matrices."""
    n = draw(st.integers(2, 5))
    task = draw(st.sampled_from(TASKS))
    param_count = draw(st.integers(1, 4))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slotted = random_circuit(n, rng, n_gates=draw(st.integers(0, 12)), param_count=param_count,
                             real=real)
    bound = random_circuit(n, rng, n_gates=draw(st.integers(0, 4)), real=real)
    gates = [replace(g, scale=float(rng.choice([-1.0, 1.0]))) if g.slot is not None else g
             for g in bound.gates + slotted.gates]
    rng.shuffle(gates)
    circ = Circuit(n, gates, param_count)
    records = []
    complex_states = draw(st.booleans())
    for _ in range(draw(st.integers(1, 6))):
        amp = rng.normal(size=1 << n) + (1j * rng.normal(size=1 << n) if complex_states else 0)
        records.append(DataRecord(amp / np.linalg.norm(amp), 0.0, int(rng.choice([-1, 1]))))
    ds = Dataset("tfi", n, records, {})
    params = rng.uniform(-np.pi, np.pi, size=param_count)
    if task == "classify":
        target = {"readout": int(rng.integers(n))}
    else:
        size = int(rng.integers(1, n + 1))
        target = {"discard": sorted(rng.choice(n, size=size, replace=False).tolist())}
    return circ, ds, params, task, target


@settings(max_examples=80, deadline=None)
@given(gradient_cases())
def test_adjoint_gradient_matches_shift_rule_and_finite_differences(case):
    circ, ds, params, task, target = case
    grad = param_shift_gradient(circ, ds, params, task=task, **target)
    oracle = param_shift_oracle(circ, ds, params, task=task, **target)
    assert np.max(np.abs(grad - oracle)) < 1e-10
    if task == "classify":
        cost = lambda p: classification_cost(circ, target["readout"], ds, p)
    else:
        cost = lambda p: autoencoder_cost(circ, target["discard"], ds, p)
    assert np.max(np.abs(grad - finite_difference(cost, params))) < 1e-5
    # a global phase sends real states down the complex path: same gradient
    phased = Dataset("tfi", circ.num_qubits,
                     [replace(r, state=1j * r.state) for r in ds.records], {})
    assert np.max(np.abs(param_shift_gradient(circ, phased, params, task=task, **target)
                         - grad)) < 1e-12


@pytest.mark.parametrize("spec", [
    AnsatzSpec("qcnn_ry", 8, 3), AnsatzSpec("qcnn_su4", 8, 3),
    AnsatzSpec("qcnn_so4", 8, 3, weight_sharing=False),
    AnsatzSpec("hea_ry", 4, 2), AnsatzSpec("hea_rxrzrx", 8, 1),
])
def test_gradient_gate_applications_do_not_grow_with_parameters(spec, monkeypatch, rng):
    circ, _ = build_ansatz(spec)
    n = spec.num_qubits
    ds = make_dataset([np.eye(1 << n)[0], np.eye(1 << n)[-1]], [1, -1], n)
    calls = []

    def counting(kernel):
        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)
        return counted

    # the forward pass and the backward sweep both run in the simulator
    monkeypatch.setattr(simulator, "_kernel", counting(simulator._kernel))
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    param_shift_gradient(circ, ds, params, readout=0)
    assert len(calls) <= 3 * len(simulator.CompiledCircuit(circ).blocks)


@pytest.mark.parametrize("spec,task", [
    (AnsatzSpec("qcnn_ry", 8, 2), "classify"), (AnsatzSpec("qcnn_su4", 4, 2), "classify"),
    (AnsatzSpec("hea_rxrzrx", 4, 2), "autoencode"),
])
def test_gradient_closure_equals_param_shift_gradient(spec, task, rng):
    circ, _ = build_ansatz(spec)
    n = spec.num_qubits
    states = rng.normal(size=(4, 1 << n))
    ds = make_dataset(states / np.linalg.norm(states, axis=1, keepdims=True), [1, -1, 1, -1], n)
    target = {"readout": 0} if task == "classify" else {"discard": [1, 3]}
    compiled = training.compile_for(circ, task, **target)
    objective = training._Objective(compiled, ds, task)
    for _ in range(2):
        params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
        expected = param_shift_gradient(circ, ds, params, task=task, **target)
        objective.cost(params + 0.5)
        assert np.array_equal(objective.gradient(params), expected)  # a fresh pass
        objective.cost(params)
        assert np.array_equal(objective.gradient(params.copy()), expected)  # the kept pass


@pytest.mark.parametrize("family,layers", [
    ("qcnn_ry", 3), ("qcnn_so4", 3), ("qcnn_su4", 3), ("hea_ry", 1), ("hea_rxrzrx", 1),
])
@pytest.mark.parametrize("task", TASKS)
def test_param_shift_gradient_is_the_gradient_train_runs(family, layers, task, rng,
                                                         monkeypatch):
    # the gradient the benchmark checks against finite differences is bit for
    # bit the one train runs, through the light cone of the qubits the task
    # reads (the readout, or the discarded qubits), and its minimizer is
    # handed that gradient on the live slots alone
    circ, pooled = build_ansatz(AnsatzSpec(family, 8, layers))
    states = rng.normal(size=(8, 256))
    ds = make_dataset(states / np.linalg.norm(states, axis=1, keepdims=True), [1, -1] * 4, 8)
    target = {"readout": 0} if task == "classify" else {"discard": pooled or [1, 3]}
    compiled = training.compile_for(circ, task, **target)
    handed = []

    def minimizer(f, grad, x0, config):
        f(x0)
        handed.append(grad(x0))
        return TrainRecord(np.asarray(x0))

    monkeypatch.setattr(training, "gradient_descent_minimize", minimizer)
    train(task, compiled, ds, OptimizerConfig(kind="param_shift_gd"), init_seed=5)
    params = initial_parameters(circ.param_count, 5)
    grad = param_shift_gradient(circ, ds, params, task, **target)
    outside = ~compiled.drives[: circ.param_count].any(axis=1)
    assert np.array_equal(grad[~outside], handed[0])
    assert np.array_equal(grad, training._Objective(compiled, ds, task).gradient(params))
    # a full-depth QCNN's last rotation acts on qubit 0 alone, which it keeps
    dead = {"classify": {"hea_ry": 13, "hea_rxrzrx": 39},
            "autoencode": {"hea_ry": 9, "hea_rxrzrx": 27}}[task].get(
                family, 1 if task == "autoencode" else 0)
    assert np.count_nonzero(outside) == dead
    assert np.all(grad[outside] == 0.0)
    # the whole circuit's gradient by the per-gate oracle, which compiles nothing
    psi = tensordot_pass(circ, params, ds.amplitudes())
    if task == "classify":
        obs = simulator.z_signs(8, 0)
        weights = 2.0 * (expectation_z_batch(psi, 8, 0) - ds.labels()) / len(ds)
    else:
        obs = sum(simulator.z_signs(8, q) for q in target["discard"])
        weights = np.full(len(ds), -0.5 / len(ds))
    whole = tensordot_gradient(circ, params, psi, weights[:, None] * obs * psi)
    assert np.max(np.abs(grad - whole)) < 1e-12


@pytest.mark.parametrize("kind,minimizer", [
    ("powell", "powell_minimize"), ("spsa", "spsa_minimize"),
    ("param_shift_gd", "gradient_descent_minimize"),
])
@pytest.mark.parametrize("family,task,live", [
    ("hea_ry", "classify", 3), ("hea_ry", "autoencode", 5),
    ("hea_rxrzrx", "classify", 9), ("hea_rxrzrx", "autoencode", 15),
])
def test_slots_outside_the_cone_keep_their_initial_values(kind, minimizer, family, task, live,
                                                          monkeypatch):
    # the cost reads no slot outside the light cone of the qubits its task
    # reads, so the minimizer sees only the live slots, and the others keep
    # their initial draw bit for bit
    circ, _ = build_ansatz(AnsatzSpec(family, 4, 1))
    states = np.random.default_rng(6).normal(size=(4, 16))
    ds = make_dataset(states / np.linalg.norm(states, axis=1, keepdims=True), [1, -1] * 2, 4)
    target = {"readout": 0} if task == "classify" else {"discard": [0, 1]}
    compiled = training.compile_for(circ, task, **target)
    handed, minimize = [], getattr(training, minimizer)

    def recording(f, *args):  # (x0, config), after the gradient under param_shift_gd
        handed.append(len(args[-2]))
        return minimize(f, *args)

    monkeypatch.setattr(training, minimizer, recording)
    record = train(task, compiled, ds, OptimizerConfig(kind=kind, max_iterations=4),
                   init_seed=3)
    assert handed == [live] and record.live_params == live
    dead = ~compiled.drives[: circ.param_count].any(axis=1)
    assert np.count_nonzero(~dead) == live
    x0 = initial_parameters(circ.param_count, 3)
    assert np.array_equal(record.final_params[dead], x0[dead])
    assert record.final_cost == training._Objective(compiled, ds, task).cost(record.final_params)


def test_gradient_descent_compiles_the_circuit_a_bounded_number_of_times(monkeypatch):
    # every construction, wherever it happens: the caller's one compile, and
    # none inside train however many steps it takes
    compiles = []
    init = simulator.CompiledCircuit.__init__

    def counting(self, circuit, observed=None):
        compiles.append(1)
        init(self, circuit, observed)

    monkeypatch.setattr(simulator.CompiledCircuit, "__init__", counting)
    circ, _ = build_ansatz(AnsatzSpec("qcnn_ry", 4, 2))
    ds = make_dataset([np.eye(16)[0], np.eye(16)[5], np.eye(16)[15]], [1, -1, -1], 4)
    counts = []
    for steps in (3, 6):
        compiles.clear()
        record = train("classify", training.compile_for(circ, "classify", readout=0), ds,
                       OptimizerConfig(kind="param_shift_gd", max_iterations=steps,
                                       learning_rate=0.05),
                       init_seed=1)
        assert len(record.cost_history) == steps + 1  # no early stop
        counts.append(len(compiles))
    assert counts == [1, 1]


@pytest.mark.parametrize("steps", [1, 4])
def test_gradient_descent_step_makes_one_forward_pass_and_one_sweep(steps, monkeypatch):
    calls = {"run": 0, "gradient": 0, "kernel": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(simulator, "_kernel", counting("kernel", simulator._kernel))
    for name in ("run", "gradient"):
        method = getattr(simulator.CompiledCircuit, name)
        monkeypatch.setattr(simulator.CompiledCircuit, name, counting(name, method))
    circ, _ = build_ansatz(AnsatzSpec("qcnn_su4", 8, 3))
    states = np.random.default_rng(4).normal(size=(3, 256))
    ds = make_dataset(states / np.linalg.norm(states, axis=1, keepdims=True), [1, -1, 1], 8)
    compiled = training.compile_for(circ, "classify", readout=0)
    record = train("classify", compiled, ds,
                   OptimizerConfig(kind="param_shift_gd", max_iterations=steps,
                                   learning_rate=0.05),
                   init_seed=1)
    assert len(record.cost_history) == steps + 1  # no early stop
    blocks = len(compiled.blocks)
    # the gradient's forward run returns the output the cost's run kept
    assert calls == {"run": 2 * steps + 1, "gradient": steps,
                     "kernel": (2 * steps + 1) * blocks}


@pytest.mark.parametrize("family,layers,readout", [
    ("qcnn_ry", 3, 0), ("qcnn_su4", 2, 0), ("hea_rxrzrx", 1, 7),
])
def test_powell_through_the_pass_memo_keeps_the_cost_history_of_fresh_passes(
        family, layers, readout, monkeypatch):
    # XXZ ground states tie costs to the last bit (Powell's Brent search
    # compares them), so any rounding change would show in the history.  A
    # one-layer HEA's cone of qubit 0 is one block, which leaves the memo
    # nothing to skip; its cone of qubit 7 runs back along the whole CZ chain
    train_set, _ = generate_dataset("xxz", 8, np.linspace(0.2, 1.8, 16), train_fraction=0.5,
                                    seed=0, solver="dense")
    compiled = training.compile_for(build_ansatz(AnsatzSpec(family, 8, layers))[0], "classify",
                                    readout=readout)
    config = OptimizerConfig(kind="powell", max_iterations=1, line_search_tol=1e-4)
    calls = []
    kernel = simulator._kernel
    monkeypatch.setattr(simulator, "_kernel", lambda *args: calls.append(1) or kernel(*args))
    kept = train("classify", compiled, train_set, config, init_seed=3)
    kept_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(training, "PassMemo", lambda: None)  # every pass from block 0
    fresh = train("classify", compiled, train_set, config, init_seed=3)
    assert kept.cost_history == fresh.cost_history
    assert np.array_equal(kept.final_params, fresh.final_params)
    assert kept_calls < 0.8 * len(calls)


# ---------------------------------------------------------------------------
# train()


def test_train_separable_pair_reaches_tiny_cost():
    n = 3
    spec = AnsatzSpec("hea_ry", n, 1)
    circ = build_hea(spec)
    ds = make_dataset([np.eye(8)[0], np.eye(8)[7]], [+1, -1], n)
    record = train(
        "classify", training.compile_for(circ, "classify", readout=0), ds,
        OptimizerConfig(kind="powell", max_iterations=60), init_seed=5,
    )
    assert min(record.cost_history) < 1e-3
    assert record.wall_time_per_sample == record.wall_time_total / 2


def test_train_deterministic_given_seed():
    n = 2
    circ = build_hea(AnsatzSpec("hea_ry", n, 1))
    ds = make_dataset([np.eye(4)[0], np.eye(4)[3]], [+1, -1], n)
    cfg = OptimizerConfig(kind="powell", max_iterations=10)
    rec_a, rec_b = (train("classify", training.compile_for(circ, "classify", readout=0), ds, cfg,
                          init_seed=9) for _ in range(2))
    assert rec_a.cost_history == rec_b.cost_history
    assert np.array_equal(rec_a.final_params, rec_b.final_params)


def test_train_autoencode_path():
    circ, discard = build_ansatz(AnsatzSpec("qcnn_ry", 4, 1))
    amp = np.zeros(16)
    amp[0] = 1.0
    ds = make_dataset([amp], [1], 4)
    record = train(
        "autoencode", training.compile_for(circ, "autoencode", discard=discard), ds,
        OptimizerConfig(kind="powell", max_iterations=20), init_seed=2,
    )
    assert min(record.cost_history) < 1e-6  # |0000> is compressible trivially


def test_train_with_gd_optimizer():
    # conflicting labels on the same state: optimum is the interior point
    # <Z> = 0 at theta = pi/2 with cost exactly 1, a quadratic basin
    circ = Circuit(1, [ry(0, slot=0)], param_count=1)
    ds = make_dataset([[1.0, 0.0], [1.0, 0.0]], [+1, -1], 1)
    cfg = OptimizerConfig(kind="param_shift_gd", max_iterations=300, learning_rate=0.2)
    objective = training._Objective(CompiledCircuit(circ), ds, "classify")
    record = gradient_descent_minimize(objective.cost, objective.gradient, np.array([0.3]), cfg)
    assert record.cost_history[-1] == pytest.approx(1.0, abs=1e-8)
    assert record.final_params[0] == pytest.approx(np.pi / 2, abs=1e-4)
    assert record.converged


def test_train_validates_inputs():
    circ = Circuit(1, [ry(0, slot=0)], param_count=1)
    ds = make_dataset([[1.0, 0.0]], [1], 1)
    with pytest.raises(ValueError):
        train("rank", CompiledCircuit(circ), ds, OptimizerConfig())


def test_a_compile_refuses_a_target_outside_the_register():
    # the compile is the one carrier of its task's target: an empty set, a
    # qubit at N or at -1, or a task with no target is refused
    circ = Circuit(2, [ry(0, slot=0), ry(1, slot=1)], param_count=2)
    for observed in ([], [2], [-1], [0, 2]):
        with pytest.raises(ValueError, match=rf"observed qubits {re.escape(str(observed))}"):
            CompiledCircuit(circ, observed)
    for readout in (2, -1, None):
        with pytest.raises(ValueError, match=rf"observed qubits \[{readout}\]"):
            training.compile_for(circ, "classify", readout=readout)
    with pytest.raises(ValueError, match=r"observed qubits \[None\]"):
        training.compile_for(circ, "classify")
    for discard in (None, set(), {2}, [-1, 0]):
        with pytest.raises(ValueError, match="observed qubits"):
            training.compile_for(circ, "autoencode", discard=discard)
    assert CompiledCircuit(circ).observed == [0, 1]
    assert training.compile_for(circ, "autoencode", discard={1, 0, 1}).observed == [0, 1]


def test_a_classifier_refuses_a_compile_that_observes_more_than_one_qubit():
    # a whole compile of a 2-qubit circuit observes both qubits: training and
    # evaluation refuse it rather than pick one
    circ = Circuit(2, [ry(0, slot=0), ry(1, slot=1)], param_count=2)
    ds = make_dataset([np.eye(4)[0], np.eye(4)[3]], [1, -1], 2)
    whole = CompiledCircuit(circ)
    message = r"a classifier reads one qubit, but its compile observes \[0, 1\]"
    with pytest.raises(ValueError, match=message):
        train("classify", whole, ds, OptimizerConfig())
    with pytest.raises(ValueError, match=message):
        evaluate_classifier(whole, [0.1, 0.2], ds)


def test_train_rejects_an_unknown_task_by_name():
    circ = Circuit(1, [ry(0, slot=0)], param_count=1)
    ds = make_dataset([[1.0, 0.0]], [1], 1)
    with pytest.raises(ValueError, match="unknown task 'regress'"):
        train("regress", CompiledCircuit(circ), ds, OptimizerConfig())


def test_train_owns_the_run_timing():
    circ = Circuit(1, [ry(0, slot=0)], param_count=1)
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]], [1, -1], 1)
    cfg = OptimizerConfig(kind="spsa", max_iterations=5)
    bare = spsa_minimize(lambda x: float(np.sum(x ** 2)), [0.3], cfg)
    assert bare.wall_time_total == bare.wall_time_per_sample == 0.0
    record = train("classify", CompiledCircuit(circ), ds, cfg, init_seed=1)
    assert record.wall_time_total > 0.0
    assert record.wall_time_per_sample == record.wall_time_total / 2
    assert bare.pass_workers is None
    assert record.pass_workers == pass_workers()


def test_initial_parameters_seeded_and_bounded():
    a = initial_parameters(50, 7)
    b = initial_parameters(50, 7)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= np.pi)
    assert not np.array_equal(a, initial_parameters(50, 8))
