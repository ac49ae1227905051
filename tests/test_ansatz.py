"""Circuit construction: parameter counts, the closed-form pooling set
against the built circuit, gate support, and realness of the RY/SO4
variants."""

import numpy as np
import pytest

from vqcbench.ansatz import (
    FAMILIES,
    QCNN_FAMILIES,
    AnsatzSpec,
    build_ansatz,
    build_hea,
    build_qcnn,
    param_count,
    pooled_qubits,
    readout_qubit,
)
from vqcbench.simulator import run_circuit_batch

from conftest import random_state, zero_state


def legal_qcnn_layers(n):
    return range(1, n.bit_length())


def test_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec("qcnn_ry", 6, 1)  # not a power of two
    with pytest.raises(ValueError):
        AnsatzSpec("qcnn_ry", 8, 4)  # too deep
    with pytest.raises(ValueError):
        AnsatzSpec("hea_ry", 4, 1, hea_template="ring")
    with pytest.raises(ValueError, match=r"'qcnn_rz'; expected one of \['qcnn_ry', "):
        AnsatzSpec("qcnn_rz", 4, 1)
    AnsatzSpec("hea_ry", 6, 2)  # HEA takes any N >= 2


@pytest.mark.parametrize("family,key,value", [
    ("qcnn_ry", "hea_template", "double_column"),
    ("qcnn_su4", "hea_template", "double_column"),
    ("hea_ry", "weight_sharing", False),
    ("hea_rxrzrx", "weight_sharing", False),
])
def test_spec_rejects_a_key_its_family_does_not_read(family, key, value):
    with pytest.raises(ValueError, match=f"{key} .* applies to .* families only, not {family}"):
        AnsatzSpec(family, 4, 1, **{key: value})
    # the key at its default, as every model file written from a spec holds it
    default = {"hea_template": "single_column", "weight_sharing": True}[key]
    assert AnsatzSpec(family, 4, 1, **{key: default}) == AnsatzSpec(family, 4, 1)


def test_qcnn_ry_16_full_depth_has_17_params():
    spec = AnsatzSpec("qcnn_ry", 16, 4)
    assert param_count(spec) == 17
    circ = build_qcnn(spec)
    assert circ.param_count == 17


def test_qcnn_ry_4_full_depth_has_9_params():
    spec = AnsatzSpec("qcnn_ry", 4, 2)
    assert param_count(spec) == 9


def test_qcnn_so4_and_su4_counts_at_16():
    assert param_count(AnsatzSpec("qcnn_so4", 16, 4)) == 4 * (6 + 2) + 1
    assert param_count(AnsatzSpec("qcnn_su4", 16, 4)) == 4 * (15 + 2) + 1


def test_hea_counts():
    assert param_count(AnsatzSpec("hea_ry", 4, 1)) == 8
    assert param_count(AnsatzSpec("hea_ry", 4, 1, hea_template="double_column")) == 12
    assert param_count(AnsatzSpec("hea_rxrzrx", 4, 1)) == 24
    assert param_count(AnsatzSpec("hea_ry", 16, 3)) == 64
    assert param_count(AnsatzSpec("hea_ry", 16, 3, hea_template="double_column")) == 112


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [4, 8, 16])
def test_built_slot_count_matches_formula(family, n):
    qcnn = family.startswith("qcnn")
    layer_range = legal_qcnn_layers(n) if qcnn else range(1, 4)
    # each family varies only the key it reads (the other must keep its default)
    for layers in layer_range:
        for sharing in (True, False) if qcnn else (True,):
            for template in ("single_column",) if qcnn else ("single_column", "double_column"):
                spec = AnsatzSpec(family, n, layers, weight_sharing=sharing,
                                  hea_template=template)
                circ, _ = build_ansatz(spec)
                assert circ.param_count == param_count(spec)
                slots = {g.slot for g in circ.gates if g.slot is not None}
                assert slots == set(range(circ.param_count))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_pooling_count_identity(n):
    for layers in legal_qcnn_layers(n):
        assert len(pooled_qubits(n, layers)) == n * (1 - 1 / 2**layers)
        _, pooled = build_ansatz(AnsatzSpec("qcnn_ry", n, layers))
        assert pooled == pooled_qubits(n, layers)


def layer_gates(spec):
    """(kind, targets, slot) of each gate layer ``spec.layers`` adds to the
    circuit one layer shallower."""
    def build(layers):
        circ = build_qcnn(AnsatzSpec(spec.family, spec.num_qubits, layers,
                                     weight_sharing=spec.weight_sharing))
        return [(g.kind, g.targets, g.slot) for g in circ.gates]

    gates = build(spec.layers)
    prefix = build(spec.layers - 1) if spec.layers > 1 else []
    assert gates[:len(prefix)] == prefix
    return gates[len(prefix):]


def test_qcnn_gate_support_respects_active_sets():
    # layer l acts on the qubits the first l - 1 layers left, and pools out
    # exactly the ones pooled_qubits adds at depth l
    for family in QCNN_FAMILIES:
        for n in (2, 4, 8, 16):
            for layers in legal_qcnn_layers(n):
                for sharing in (True, False):
                    gates = layer_gates(AnsatzSpec(family, n, layers, weight_sharing=sharing))
                    before = set(pooled_qubits(n, layers - 1))
                    touched = {q for _, targets, _ in gates for q in targets}
                    assert touched == set(range(n)) - before
                    sources = {targets[0] for kind, targets, _ in gates if kind == "cry"}
                    assert sources == set(pooled_qubits(n, layers)) - before


def test_qcnn_pooling_map_and_readout():
    spec = AnsatzSpec("qcnn_ry", 8, 3)
    circ, pooled = build_ansatz(spec)
    assert pooled_qubits(8, 1) == [1, 3, 5, 7]
    assert pooled == pooled_qubits(8, 3) == [1, 2, 3, 4, 5, 6, 7]
    assert circ.gates[-1].kind == "ry" and circ.gates[-1].targets == (0,)
    assert readout_qubit(spec) == 0
    assert readout_qubit(AnsatzSpec("hea_ry", 16, 2)) == 0
    assert build_ansatz(AnsatzSpec("hea_ry", 16, 2))[1] is None


def test_qcnn_n4_l1_active_set():
    _, pooled = build_ansatz(AnsatzSpec("qcnn_ry", 4, 1))
    assert pooled == [1, 3]


def test_conv_pairs_form_ring():
    circ = build_qcnn(AnsatzSpec("qcnn_ry", 8, 1))
    assert [g.targets for g in circ.gates if g.kind == "cz"] == [
        (0, 1), (2, 3), (4, 5), (6, 7),
        (1, 2), (3, 4), (5, 6), (7, 0),
    ]


def test_hea_zero_params_is_identity_on_zero():
    for template in ("single_column", "double_column"):
        spec = AnsatzSpec("hea_ry", 4, 2, hea_template=template)
        circ = build_hea(spec)
        out = run_circuit_batch(circ, np.zeros(circ.param_count), [zero_state(4)])
        assert abs(out[0, 0] - 1.0) < 1e-12


def test_unshared_strictly_increases_params():
    for family in ("qcnn_ry", "qcnn_so4", "qcnn_su4"):
        for n in (4, 8, 16):
            for layers in legal_qcnn_layers(n):
                shared = AnsatzSpec(family, n, layers, weight_sharing=True)
                unshared = AnsatzSpec(family, n, layers, weight_sharing=False)
                assert param_count(unshared) > param_count(shared)


@pytest.mark.parametrize("family", ["qcnn_ry", "qcnn_so4"])
def test_real_qcnn_variants_preserve_real_states(family, rng):
    for n in (4, 8):
        spec = AnsatzSpec(family, n, n.bit_length() - 1)
        circ, _ = build_ansatz(spec)
        params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
        amp = rng.normal(size=(3, 1 << n))
        psi = amp / np.linalg.norm(amp, axis=1, keepdims=True)
        out = run_circuit_batch(circ, params, psi)
        assert np.max(np.abs(out.imag)) < 1e-12


def test_su4_block_is_expressive_enough_to_entangle(rng):
    # sanity: the SU4 conv block is a genuine two-qubit unitary family
    spec = AnsatzSpec("qcnn_su4", 2, 1)
    circ = build_qcnn(spec)
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    out = run_circuit_batch(circ, params, [zero_state(2)])[0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # Schmidt check: generic parameters give an entangled output
    m = out.reshape(2, 2)
    sv = np.linalg.svd(m, compute_uv=False)
    assert sv[1] > 1e-3
