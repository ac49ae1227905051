"""Parameterized circuit families: QCNN variants and hardware-efficient
ansatze.

QCNN layers alternate convolution blocks on adjacent active-qubit pairs
(a ring once four or more qubits are active) with pooling units that fold
each odd-position active qubit into its even-position partner, halving the
active set.  After l layers the pooled-out count is N(1 - 1/2^l).  With
weight sharing every convolution block in a layer reuses one slot set and
every pooling unit another, which is what keeps the parameter count
logarithmic (e.g. 17 slots for the RY variant at 16 qubits, full depth).

HEA circuits alternate single-qubit rotation columns with a linear CZ
ladder; two layer templates are provided because the literature counts
"one layer" both ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .simulator import Circuit, Gate, cnot, cry, cz, rx, ry, rz

QCNN_FAMILIES = ("qcnn_ry", "qcnn_so4", "qcnn_su4")
HEA_FAMILIES = ("hea_ry", "hea_rxrzrx")
FAMILIES = QCNN_FAMILIES + HEA_FAMILIES
HEA_TEMPLATES = ("single_column", "double_column")

# slots consumed by one convolution block, per family
_CONV_PARAMS = {"qcnn_ry": 2, "qcnn_so4": 6, "qcnn_su4": 15}
_POOL_PARAMS = 2


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AnsatzSpec:
    family: str
    num_qubits: int
    layers: int
    weight_sharing: bool = True
    hea_template: str = "single_column"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown ansatz family {self.family!r}")
        if self.num_qubits < 2:
            raise ValueError("num_qubits must be >= 2")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.family in QCNN_FAMILIES:
            if not _is_power_of_two(self.num_qubits):
                raise ValueError("QCNN families require a power-of-two qubit count")
            if (1 << self.layers) > self.num_qubits:
                raise ValueError(
                    f"QCNN with {self.num_qubits} qubits supports at most "
                    f"{self.num_qubits.bit_length() - 1} layers"
                )
        if self.hea_template not in HEA_TEMPLATES:
            raise ValueError(f"unknown HEA template {self.hea_template!r}")

    @property
    def is_qcnn(self) -> bool:
        return self.family in QCNN_FAMILIES

    @property
    def full_depth(self) -> int:
        """Layer count at which a QCNN pools down to a single qubit."""
        return self.num_qubits.bit_length() - 1


@dataclass
class QcnnLayout:
    """Wiring bookkeeping of a built QCNN.

    ``active[k]`` is the active-qubit list after k layers (``active[0]`` is
    the full register); pooled-out qubits never reappear.
    """

    active: list[list[int]]
    conv_pairs: list[list[tuple[int, int]]]
    pool_map: list[list[tuple[int, int]]]  # (source, kept) per layer
    readout_qubit: int
    layer_slices: list[tuple[int, int]] = field(default_factory=list)

    def discard_after(self, layers: int) -> frozenset[int]:
        """Qubits pooled out during the first ``layers`` layers."""
        if not 1 <= layers <= len(self.pool_map):
            raise ValueError(f"layers must be in [1, {len(self.pool_map)}]")
        gone = set()
        for lay in self.pool_map[:layers]:
            gone.update(src for src, _ in lay)
        return frozenset(gone)


def _conv_block(family: str, q1: int, q2: int, slots: list[int]) -> list[Gate]:
    if family == "qcnn_ry":
        s0, s1 = slots
        return [ry(q1, slot=s0), ry(q2, slot=s1), cz(q1, q2)]
    if family == "qcnn_so4":
        s = slots
        return [
            ry(q1, slot=s[0]), ry(q2, slot=s[1]), cnot(q1, q2),
            ry(q1, slot=s[2]), ry(q2, slot=s[3]), cnot(q1, q2),
            ry(q1, slot=s[4]), ry(q2, slot=s[5]),
        ]
    if family == "qcnn_su4":
        # 15-parameter universal two-qubit block: ZYZ on each wire, a
        # three-CNOT entangling core, ZYZ on each wire again.
        s = slots
        return [
            rz(q1, slot=s[0]), ry(q1, slot=s[1]), rz(q1, slot=s[2]),
            rz(q2, slot=s[3]), ry(q2, slot=s[4]), rz(q2, slot=s[5]),
            cnot(q2, q1),
            rz(q1, slot=s[6]), ry(q2, slot=s[7]),
            cnot(q1, q2),
            ry(q2, slot=s[8]),
            cnot(q2, q1),
            rz(q1, slot=s[9]), ry(q1, slot=s[10]), rz(q1, slot=s[11]),
            rz(q2, slot=s[12]), ry(q2, slot=s[13]), rz(q2, slot=s[14]),
        ]
    raise ValueError(family)


def _pool_unit(source: int, kept: int, slots: list[int]) -> list[Gate]:
    # Controlled rotation of the kept qubit for each source basis value;
    # the X pair restores the source, which is simply ignored afterwards.
    s0, s1 = slots
    from .simulator import x as x_gate

    return [
        cry(source, kept, slot=s0),
        x_gate(source),
        cry(source, kept, slot=s1),
        x_gate(source),
    ]


def _layer_pairs(active: list[int]) -> list[tuple[int, int]]:
    m = len(active)
    pairs = [(active[i], active[i + 1]) for i in range(0, m - 1, 2)]
    if m >= 4:
        pairs += [(active[i], active[i + 1]) for i in range(1, m - 1, 2)]
        pairs.append((active[-1], active[0]))
    return pairs


def build_qcnn(spec: AnsatzSpec) -> tuple[Circuit, QcnnLayout]:
    """Construct the QCNN circuit and its layout for ``spec``.

    A single readout RY is appended only at full classification depth
    (layers == log2 N), where exactly one active qubit remains.
    """
    if not spec.is_qcnn:
        raise ValueError(f"{spec.family} is not a QCNN family")
    n = spec.num_qubits
    cp = _CONV_PARAMS[spec.family]
    gates: list[Gate] = []
    active = list(range(n))
    layout = QcnnLayout(active=[list(active)], conv_pairs=[], pool_map=[], readout_qubit=0)
    next_slot = 0

    def take(k: int) -> list[int]:
        nonlocal next_slot
        slots = list(range(next_slot, next_slot + k))
        next_slot += k
        return slots

    for _ in range(spec.layers):
        start = len(gates)
        pairs = _layer_pairs(active)
        shared_conv = take(cp) if spec.weight_sharing else None
        for q1, q2 in pairs:
            gates.extend(_conv_block(spec.family, q1, q2, shared_conv or take(cp)))
        pools = [(active[i + 1], active[i]) for i in range(0, len(active) - 1, 2)]
        shared_pool = take(_POOL_PARAMS) if spec.weight_sharing else None
        for source, kept in pools:
            gates.extend(_pool_unit(source, kept, shared_pool or take(_POOL_PARAMS)))
        active = [q for q in active[::2]]
        layout.conv_pairs.append(pairs)
        layout.pool_map.append(pools)
        layout.active.append(list(active))
        layout.layer_slices.append((start, len(gates)))

    if spec.layers == spec.full_depth:
        gates.append(ry(active[0], slot=take(1)[0]))
    layout.readout_qubit = active[0] if len(active) == 1 else 0
    return Circuit(n, gates, next_slot), layout


def build_hea(spec: AnsatzSpec) -> Circuit:
    """Hardware-efficient ansatz: rotation columns + linear CZ ladder.

    single_column layers are [rotations, ladder]; double_column layers are
    [rotations, ladder, rotations]; both close with a final rotation column.
    """
    if spec.is_qcnn:
        raise ValueError(f"{spec.family} is not an HEA family")
    n = spec.num_qubits
    gates: list[Gate] = []
    next_slot = 0

    def rot_column():
        nonlocal next_slot
        for q in range(n):
            if spec.family == "hea_ry":
                gates.append(ry(q, slot=next_slot))
                next_slot += 1
            else:  # hea_rxrzrx
                gates.append(rx(q, slot=next_slot))
                gates.append(rz(q, slot=next_slot + 1))
                gates.append(rx(q, slot=next_slot + 2))
                next_slot += 3

    def ladder():
        for q in range(n - 1):
            gates.append(cz(q, q + 1))

    for _ in range(spec.layers):
        rot_column()
        ladder()
        if spec.hea_template == "double_column":
            rot_column()
    rot_column()
    return Circuit(n, gates, next_slot)


def build_ansatz(spec: AnsatzSpec) -> tuple[Circuit, QcnnLayout | None]:
    if spec.is_qcnn:
        return build_qcnn(spec)
    return build_hea(spec), None


def param_count(spec: AnsatzSpec) -> int:
    """Closed-form slot count; matches the built circuit's slot table.

    QCNN with weight sharing: ``conv + 2`` slots per layer, where ``conv``
    is the convolution block's count (2 for qcnn_ry, 6 for qcnn_so4, 15 for
    qcnn_su4) and 2 belong to the pooling unit, plus one readout RY at full
    depth (layers == log2 N).  Without sharing every convolution block (one
    per active qubit once four or more are active, else one) and every
    pooling unit (half the active qubits) has its own slots.  HEA: 1
    (hea_ry) or 3 (hea_rxrzrx) slots per site and rotation column, with
    ``layers + 1`` columns (single_column) or ``2 layers + 1``
    (double_column).
    """
    n, l = spec.num_qubits, spec.layers
    if spec.is_qcnn:
        cp = _CONV_PARAMS[spec.family]
        total = 0
        active = n
        for _ in range(l):
            blocks = active if active >= 4 else 1
            pools = active // 2
            if spec.weight_sharing:
                total += cp + _POOL_PARAMS
            else:
                total += blocks * cp + pools * _POOL_PARAMS
            active //= 2
        if l == spec.full_depth:
            total += 1
        return total
    per_site = 1 if spec.family == "hea_ry" else 3
    columns = l + 1 if spec.hea_template == "single_column" else 2 * l + 1
    return per_site * n * columns


def readout_qubit(spec: AnsatzSpec) -> int:
    """Measured wire: the sole survivor of full-depth QCNN pooling, and by
    convention wire 0 for everything else."""
    return 0
