"""Exact statevector simulation of small parameterized circuits.

A state of N qubits is a row of 2^N complex amplitudes; every circuit pass
acts on a (batch, 2^N) array of them, and a single state is a batch of 1.

Conventions, fixed once and relied on everywhere (including persisted data):

* Qubit 0 is the most significant bit of the basis-state index, i.e. for
  N qubits the basis ket |q0 q1 ... q_{N-1}> has index
  q0*2^(N-1) + q1*2^(N-2) + ... + q_{N-1}.
* Rotations follow RY(t) = exp(-i t Y/2), so
  RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]], and likewise for
  RX and RZ.
* A two-qubit gate's 4x4 matrix (``u2``) is indexed with its first target
  as the high bit of the pair, whatever the wire order.

Gates act through strided in-place kernels on the amplitude array; full
2^N x 2^N matrices are never built here (the dense route exists only as a
test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

ROTATION_KINDS = frozenset({"rx", "ry", "rz", "cry"})
FIXED_KINDS = frozenset({"x", "h", "cnot", "cz"})
GATE_KINDS = ROTATION_KINDS | FIXED_KINDS | {"u2"}

_TWO_QUBIT_KINDS = frozenset({"cnot", "cz", "cry", "u2"})

_SQRT2_INV = 1.0 / np.sqrt(2.0)
_H_MAT = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)


@dataclass(eq=False)
class Gate:
    """One gate: a kind, target wire(s), and an angle source.

    Rotation kinds carry either a bound ``angle`` (radians) or a parameter
    ``slot`` index, never both.  ``scale`` multiplies the resolved angle, so
    a slot-bound rotation can be negated (as in an inverse circuit) without
    touching the slot table.  ``u2`` gates carry an explicit 4x4 unitary
    instead.
    """

    kind: str
    targets: tuple[int, ...]
    angle: float | None = None
    slot: int | None = None
    scale: float = 1.0
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        self.targets = tuple(int(t) for t in self.targets)
        arity = 2 if self.kind in _TWO_QUBIT_KINDS else 1
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("gate targets must be distinct")
        if self.kind in ROTATION_KINDS:
            if (self.angle is None) == (self.slot is None):
                raise ValueError(f"{self.kind} needs exactly one of angle or slot")
        elif self.angle is not None or self.slot is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if self.kind == "u2":
            if self.matrix is None:
                raise ValueError("u2 requires a matrix")
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (4, 4):
                raise ValueError("u2 matrix must be 4x4")
            if np.max(np.abs(m @ m.conj().T - np.eye(4))) > 1e-10:
                raise ValueError("u2 matrix is not unitary within 1e-10")
            self.matrix = m
        elif self.matrix is not None:
            raise ValueError(f"{self.kind} takes no matrix")

    def is_parameterized(self) -> bool:
        return self.slot is not None


# Shorthand constructors; ``angle`` and ``slot`` are mutually exclusive.
def ry(q: int, angle: float | None = None, slot: int | None = None) -> Gate:
    return Gate("ry", (q,), angle=angle, slot=slot)


def rx(q: int, angle: float | None = None, slot: int | None = None) -> Gate:
    return Gate("rx", (q,), angle=angle, slot=slot)


def rz(q: int, angle: float | None = None, slot: int | None = None) -> Gate:
    return Gate("rz", (q,), angle=angle, slot=slot)


def x(q: int) -> Gate:
    return Gate("x", (q,))


def h(q: int) -> Gate:
    return Gate("h", (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate("cz", (a, b))


def cry(control: int, target: int, angle: float | None = None, slot: int | None = None) -> Gate:
    return Gate("cry", (control, target), angle=angle, slot=slot)


def u2(a: int, b: int, matrix) -> Gate:
    return Gate("u2", (a, b), matrix=matrix)


@dataclass
class Circuit:
    """Ordered gate list over ``num_qubits`` wires with ``param_count`` slots.

    Slots may be shared between gates (QCNN weight sharing); every slot in
    ``[0, param_count)`` must be referenced by at least one gate.
    """

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    param_count: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if self.param_count < 0:
            raise ValueError("param_count must be >= 0")
        seen = set()
        for g in self.gates:
            for t in g.targets:
                if not 0 <= t < self.num_qubits:
                    raise ValueError(f"gate target {t} out of range for {self.num_qubits} qubits")
            if g.slot is not None:
                if not 0 <= g.slot < self.param_count:
                    raise ValueError(f"parameter slot {g.slot} >= param_count {self.param_count}")
                seen.add(g.slot)
        missing = set(range(self.param_count)) - seen
        if missing:
            raise ValueError(f"parameter slots never referenced: {sorted(missing)}")

    def parameterized_gates(self) -> list[tuple[int, Gate]]:
        return [(i, g) for i, g in enumerate(self.gates) if g.slot is not None]


def resolved_angle(gate: Gate, params=None) -> float:
    """Angle actually applied: scale * (bound angle or params[slot])."""
    if gate.angle is not None:
        return gate.scale * gate.angle
    if params is None or not 0 <= gate.slot < len(params):
        raise ValueError(f"unresolvable parameter slot {gate.slot}")
    return gate.scale * float(params[gate.slot])


def _rotation_matrix(kind: str, angle: float) -> np.ndarray:
    half = 0.5 * angle
    c, s = np.cos(half), np.sin(half)
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "rz":
        return np.array([[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]], dtype=complex)
    raise ValueError(kind)


def gate_matrix(gate: Gate, params=None) -> np.ndarray:
    """2x2 unitary of a single-qubit rotation or h, or a u2 gate's 4x4.

    The kernels apply x, cnot, cz and cry directly, without a matrix.
    """
    if gate.kind in ("ry", "rx", "rz"):
        return _rotation_matrix(gate.kind, resolved_angle(gate, params))
    if gate.kind == "h":
        return _H_MAT
    if gate.kind == "u2":
        return gate.matrix
    raise ValueError(f"{gate.kind} has no matrix here")


def _apply_1q(amp: np.ndarray, n: int, q: int, u: np.ndarray) -> None:
    # View as (left, qubit q, right); MSB convention puts q at bit n-1-q.
    right = 1 << (n - 1 - q)
    a3 = amp.reshape(-1, 2, right)
    lo = a3[:, 0, :].copy()
    hi = a3[:, 1, :]
    a3[:, 0, :] = u[0, 0] * lo + u[0, 1] * hi
    a3[:, 1, :] = u[1, 0] * lo + u[1, 1] * hi


def _pair_view(amp: np.ndarray, n: int, targets) -> np.ndarray:
    """amp as (left, first target, mid, second target, right).

    For targets against wire order this is a transposed view of the
    wire-ordered reshape, so it indexes the same elements.
    """
    qa, qb = sorted(targets)
    a5 = amp.reshape(-1, 2, 1 << (qb - qa - 1), 2, 1 << (n - 1 - qb))
    return a5 if targets[0] == qa else a5.transpose(0, 3, 2, 1, 4)


def _apply_2q(a5: np.ndarray, u: np.ndarray) -> None:
    # u indexed with the pair view's axis 1 as the high bit.
    b = [a5[:, i, :, j, :].copy() for i in (0, 1) for j in (0, 1)]
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        a5[:, i, :, j, :] = u[k, 0] * b[0] + u[k, 1] * b[1] + u[k, 2] * b[2] + u[k, 3] * b[3]


def _apply_gate_inplace(amp: np.ndarray, n: int, gate: Gate, params=None) -> None:
    for t in gate.targets:
        if not 0 <= t < n:
            raise ValueError(f"gate target {t} out of range for {n} qubits")
    kind = gate.kind
    if kind == "x":
        right = 1 << (n - 1 - gate.targets[0])
        a3 = amp.reshape(-1, 2, right)
        a3[:, [0, 1], :] = a3[:, [1, 0], :]
        return
    if len(gate.targets) == 1:
        _apply_1q(amp, n, gate.targets[0], gate_matrix(gate, params))
        return
    # two-qubit kinds: the control (or first target) on axis 1
    a5 = _pair_view(amp, n, gate.targets)
    if kind == "cz":  # diagonal: phase the |11> block only
        a5[:, 1, :, 1, :] *= -1.0
    elif kind == "cnot":  # swap target values within the control=1 block
        a5[:, 1, :, [0, 1], :] = a5[:, 1, :, [1, 0], :]
    elif kind == "cry":  # 2x2 rotation on the target within the control=1 block
        half = 0.5 * resolved_angle(gate, params)
        c, s = np.cos(half), np.sin(half)
        lo = a5[:, 1, :, 0, :].copy()
        hi = a5[:, 1, :, 1, :]
        a5[:, 1, :, 0, :] = c * lo - s * hi
        a5[:, 1, :, 1, :] = s * lo + c * hi
    else:
        _apply_2q(a5, gate_matrix(gate, params))


@lru_cache(maxsize=None)
def _z_signs(num_qubits: int, qubit: int) -> np.ndarray:
    shift = num_qubits - 1 - qubit
    signs = 1.0 - 2.0 * ((np.arange(1 << num_qubits) >> shift) & 1)
    signs.setflags(write=False)
    return signs


def run_circuit_batch(circuit: Circuit, params, amplitudes: np.ndarray) -> np.ndarray:
    """Apply the circuit to a whole (batch, 2^N) amplitude matrix at once.

    Row i of the result is the circuit output for input row i.  Batching is
    the deterministic, dataset-order equivalent of fanning sample
    evaluations out to workers; the kernels fold the batch axis into their
    stride bookkeeping, so per-call overhead is paid once per gate instead
    of once per sample.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (circuit.param_count,):
        raise ValueError(f"expected {circuit.param_count} parameters, got {params.shape}")
    amp = np.array(amplitudes, dtype=complex)
    if amp.ndim != 2 or amp.shape[1] != (1 << circuit.num_qubits):
        raise ValueError(
            f"amplitude matrix must be (batch, {1 << circuit.num_qubits}), got {amp.shape}"
        )
    for gate in circuit.gates:
        _apply_gate_inplace(amp, circuit.num_qubits, gate, params)
    return amp


def expectation_z_batch(amplitudes: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    """<Z_qubit> for every row of a (batch, 2^N) amplitude matrix."""
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    probs = amplitudes.real**2 + amplitudes.imag**2
    return probs @ _z_signs(num_qubits, qubit)
