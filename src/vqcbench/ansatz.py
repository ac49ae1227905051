"""Parameterized circuit families: QCNN variants and hardware-efficient
ansatze.

QCNN layers alternate convolution blocks on adjacent active-qubit pairs
(a ring once four or more qubits are active) with pooling units that fold
each odd-position active qubit into its even-position partner, halving the
active set.  On a power-of-two register the qubits pooled out after l layers
are therefore {q : q mod 2^l != 0} (``pooled_qubits``): qubit 0 is never
pooled, so it is the readout of a full-depth QCNN.  With
weight sharing every convolution block in a layer reuses one slot set and
every pooling unit another, which is what keeps the parameter count
logarithmic (e.g. 17 slots for the RY variant at 16 qubits, full depth).

HEA circuits alternate single-qubit rotation columns with a linear CZ
ladder; two layer templates are provided because the literature counts
"one layer" both ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simulator import Circuit, Gate, cnot, cry, cz, rx, ry, rz, x

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
            raise ValueError(
                f"unknown ansatz family {self.family!r}; expected one of {list(FAMILIES)}"
            )
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
        # a key the family does not read must keep its default, so two specs
        # that build one circuit are one spec (and one model name)
        if self.is_qcnn and self.hea_template != HEA_TEMPLATES[0]:
            raise ValueError(f"hea_template {self.hea_template!r} applies to HEA "
                             f"families only, not {self.family}")
        if not self.is_qcnn and not self.weight_sharing:
            raise ValueError(f"weight_sharing false applies to QCNN families only, "
                             f"not {self.family}")

    @property
    def is_qcnn(self) -> bool:
        return self.family in QCNN_FAMILIES

    @property
    def full_depth(self) -> int:
        """Layer count at which a QCNN pools down to a single qubit."""
        return self.num_qubits.bit_length() - 1


def pooled_qubits(num_qubits: int, layers: int) -> list[int]:
    """Qubits a QCNN on ``num_qubits`` (a power of two) pools out during its
    first ``layers`` layers, ascending: all but the multiples of 2^layers."""
    return [q for q in range(num_qubits) if q % (1 << layers)]


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
    return [cry(source, kept, slot=s0), x(source), cry(source, kept, slot=s1), x(source)]


def _layer_pairs(active: list[int]) -> list[tuple[int, int]]:
    m = len(active)
    pairs = [(active[i], active[i + 1]) for i in range(0, m - 1, 2)]
    if m >= 4:
        pairs += [(active[i], active[i + 1]) for i in range(1, m - 1, 2)]
        pairs.append((active[-1], active[0]))
    return pairs


def build_qcnn(spec: AnsatzSpec) -> Circuit:
    """Construct the QCNN circuit for ``spec``.

    A single readout RY is appended only at full classification depth
    (layers == log2 N), where exactly one active qubit remains.
    """
    if not spec.is_qcnn:
        raise ValueError(f"{spec.family} is not a QCNN family")
    n = spec.num_qubits
    cp = _CONV_PARAMS[spec.family]
    gates: list[Gate] = []
    active = list(range(n))
    next_slot = 0

    def take(k: int) -> list[int]:
        nonlocal next_slot
        slots = list(range(next_slot, next_slot + k))
        next_slot += k
        return slots

    for _ in range(spec.layers):
        shared_conv = take(cp) if spec.weight_sharing else None
        for q1, q2 in _layer_pairs(active):
            gates.extend(_conv_block(spec.family, q1, q2, shared_conv or take(cp)))
        shared_pool = take(_POOL_PARAMS) if spec.weight_sharing else None
        for i in range(0, len(active) - 1, 2):
            gates.extend(_pool_unit(active[i + 1], active[i], shared_pool or take(_POOL_PARAMS)))
        active = active[::2]

    if spec.layers == spec.full_depth:
        gates.append(ry(active[0], slot=take(1)[0]))
    return Circuit(n, gates, next_slot)


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


def build_ansatz(spec: AnsatzSpec) -> tuple[Circuit, list[int] | None]:
    """The circuit for ``spec`` and, for a QCNN, the qubits its pooling
    discards (``pooled_qubits``); None for an HEA."""
    if spec.is_qcnn:
        return build_qcnn(spec), pooled_qubits(spec.num_qubits, spec.layers)
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
    """Measured wire: the sole survivor of full-depth QCNN pooling (qubit 0
    is never in ``pooled_qubits``), and by convention wire 0 for everything
    else."""
    return 0
