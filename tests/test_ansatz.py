"""Circuit construction: parameter counts, pooling schedule, gate support,
and realness of the RY/SO4 variants."""

import numpy as np
import pytest

from vqcbench.ansatz import (
    FAMILIES,
    AnsatzSpec,
    build_ansatz,
    build_hea,
    build_qcnn,
    param_count,
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
    with pytest.raises(ValueError):
        AnsatzSpec("qcnn_rz", 4, 1)
    AnsatzSpec("hea_ry", 6, 2)  # HEA takes any N >= 2


def test_qcnn_ry_16_full_depth_has_17_params():
    spec = AnsatzSpec("qcnn_ry", 16, 4)
    assert param_count(spec) == 17
    circ, _ = build_qcnn(spec)
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
    layer_range = legal_qcnn_layers(n) if family.startswith("qcnn") else range(1, 4)
    for layers in layer_range:
        for sharing in (True, False):
            for template in ("single_column", "double_column"):
                spec = AnsatzSpec(family, n, layers, weight_sharing=sharing,
                                  hea_template=template)
                circ, _ = build_ansatz(spec)
                assert circ.param_count == param_count(spec)
                slots = {g.slot for g in circ.gates if g.slot is not None}
                assert slots == set(range(circ.param_count))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_pooling_count_identity(n):
    for layers in legal_qcnn_layers(n):
        spec = AnsatzSpec("qcnn_ry", n, layers)
        _, layout = build_qcnn(spec)
        for l in range(1, layers + 1):
            assert len(layout.discard_after(l)) == n * (1 - 1 / 2**l)


def test_qcnn_gate_support_respects_active_sets():
    for n in (4, 8, 16):
        spec = AnsatzSpec("qcnn_ry", n, n.bit_length() - 1)
        circ, layout = build_qcnn(spec)
        for k, (start, stop) in enumerate(layout.layer_slices):
            allowed = set(layout.active[k])
            for g in circ.gates[start:stop]:
                assert set(g.targets) <= allowed


def test_qcnn_pooling_map_and_readout():
    spec = AnsatzSpec("qcnn_ry", 8, 3)
    _, layout = build_qcnn(spec)
    assert layout.active[1] == [0, 2, 4, 6]
    assert layout.discard_after(1) == frozenset({1, 3, 5, 7})
    assert layout.active[3] == [0]
    assert layout.readout_qubit == 0
    assert readout_qubit(spec) == 0
    assert readout_qubit(AnsatzSpec("hea_ry", 16, 2)) == 0


def test_qcnn_n4_l1_active_set():
    spec = AnsatzSpec("qcnn_ry", 4, 1)
    _, layout = build_qcnn(spec)
    assert layout.active[1] == [0, 2]
    assert layout.discard_after(1) == frozenset({1, 3})


def test_conv_pairs_form_ring():
    spec = AnsatzSpec("qcnn_ry", 8, 1)
    _, layout = build_qcnn(spec)
    assert layout.conv_pairs[0] == [
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
    circ, _ = build_qcnn(spec)
    params = rng.uniform(-np.pi, np.pi, size=circ.param_count)
    out = run_circuit_batch(circ, params, [zero_state(2)])[0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    # Schmidt check: generic parameters give an entangled output
    m = out.reshape(2, 2)
    sv = np.linalg.svd(m, compute_uv=False)
    assert sv[1] > 1e-3
