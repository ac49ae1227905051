"""Exact statevector simulation of small parameterized circuits.

A state of N qubits is a row of 2^N amplitudes; every circuit pass acts on
a (batch, 2^N) array of them, and a single state is a batch of 1.

Conventions, fixed once and relied on everywhere (including persisted data):

* Qubit 0 is the most significant bit of the basis-state index, i.e. for
  N qubits the basis ket |q0 q1 ... q_{N-1}> has index
  q0*2^(N-1) + q1*2^(N-2) + ... + q_{N-1}.
* Rotations follow RY(t) = exp(-i t Y/2), so
  RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]], and likewise for
  RX and RZ.
* A two-qubit gate's 4x4 matrix (``u2``) is indexed with its first target
  as the high bit of the pair, whatever the wire order.

A circuit runs as blocks of at most two wires (``CompiledCircuit``): a
one-qubit gate joins the last block on its wire, or waits for the next one;
a two-qubit gate joins the last block if it was the last on both wires, else
it opens one.  A block matrix is 4x4 with its lower wire as the high bit (a
one-wire block uses the high bit only).  Amplitudes are float64 if all gate
matrices and the input are real.

Both walkers over a batch, the forward pass (``CompiledCircuit.run``) and the
adjoint sweep (``CompiledCircuit.gradient``), take its rows a chunk at a time
(``_row_chunks``: up to half a megabyte of amplitudes, or one larger row), so
that a chunk stays in cache through every block instead of the whole batch
streaming through each one.  A kernel gives each row the same result
whatever chunk it is in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

ROTATION_KINDS = frozenset({"rx", "ry", "rz", "cry"})
GATE_KINDS = ROTATION_KINDS | {"x", "h", "cnot", "cz", "u2"}
_TWO_QUBIT_KINDS = frozenset({"cnot", "cz", "cry", "u2"})

# (A, B, C) of every kind but u2, in its own target order.
_I2, _Z2, _Z4, _P1 = np.eye(2), np.zeros((2, 2)), np.zeros((4, 4)), np.diag([0.0, 1.0])
_X, _RY_SIN = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1.0], [1.0, 0.0]])
_AFFINE = {
    "ry": (_Z2, _I2, _RY_SIN),
    "rx": (_Z2, _I2, -1j * _X),
    "rz": (_Z2, _I2, np.diag([-1j, 1j])),
    "x": (_X, _Z2, _Z2),
    "h": (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), _Z2, _Z2),
    "cz": (np.diag([1.0, 1.0, 1.0, -1.0]), _Z4, _Z4),
    "cnot": (np.diag([1.0, 1.0, 0.0, 0.0]) + np.kron(_P1, _X), _Z4, _Z4),
    "cry": (np.diag([1.0, 1.0, 0.0, 0.0]), np.kron(_P1, _I2), np.kron(_P1, _RY_SIN)),
}
_SWAP = np.eye(4)[[0, 2, 1, 3]]
_MAX_WINDOW = 5  # wires in the widest matmul window (a 32 x 32 matrix)
_SWEEP_BYTES = 1 << 20  # a chunk's input and output in a pass, or its (psi, lam) in the sweep


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


def _pairs(amp: np.ndarray, n: int, wires) -> np.ndarray:
    """View of amp with axes (first wire, second wire or a unit axis, rest...)."""
    qa, qb = wires[0], wires[-1]
    shape = (-1, 2, 1 << max(qb - qa - 1, 0), 1 + (qb > qa), 1 << (n - 1 - qb))
    return amp.reshape(shape).transpose(1, 3, 0, 2, 4)


@lru_cache(maxsize=None)
def _window(n: int, wires: tuple[int, ...]):
    """(index, D, R) for a block in the window of k <= 5 wires from wires[0]
    (to the last wire if it fits): amplitudes reshape to (-1, D = 2^k, R), and
    the window matrix is the flattened block matrix + [0] at ``index``."""
    lo = wires[0]
    hi = n - 1 if n - lo <= _MAX_WINDOW else wires[-1]
    if hi - lo >= _MAX_WINDOW:
        return None
    r, c = np.indices((2 << (hi - lo), 2 << (hi - lo)))
    shifts = [hi - q for q in wires]
    rest = len(r) - 1 - sum(1 << s for s in shifts)
    row, col = (sum(((x >> s) & 1) << (1 - p) for p, s in enumerate(shifts)) for x in (r, c))
    index = np.where((r ^ c) & rest, 16, 4 * row + col)
    return index, len(r), 1 << (n - 1 - hi)


def _padded(mats: np.ndarray) -> np.ndarray:
    """Each 4x4 matrix as its 16 entries, row by row, and a 0: the vector a
    window's ``index`` gathers from."""
    return np.concatenate([mats.reshape(len(mats), 16), np.zeros((len(mats), 1))], axis=1)


def _kernel(amp: np.ndarray, n: int, wires, window, flat: np.ndarray):
    """(a new array, product): the block matrix whose ``_padded`` entries are
    ``flat`` on ``wires``, by one matmul in its window (product None), or,
    for a wider pair, on a copy with the pair's axes first, whose (4, -1)
    product it also returns."""
    if window is not None:
        index, d, r = window
        e = flat[index]
        out = amp.reshape(-1, d) @ e.T if r == 1 else np.matmul(e, amp.reshape(-1, d, r))
        return out.reshape(amp.shape), None
    product = flat[:16].reshape(4, 4) @ _pairs(amp, n, wires).reshape(4, -1)
    out = np.empty(amp.shape, product.dtype)
    view = _pairs(out, n, wires)
    view[...] = product.reshape(view.shape)
    return out, product


def _row_chunks(amp: np.ndarray) -> list[slice]:
    """The slices of amp's rows that both walkers take at once: two chunks
    fill _SWEEP_BYTES (one row each at N = 16 on float64)."""
    rows = max(1, _SWEEP_BYTES // (2 * amp.itemsize * amp.shape[1]))
    return [slice(start, start + rows) for start in range(0, len(amp), rows)]


def _adjoint_outer(both: np.ndarray, window, product) -> np.ndarray:
    """The 4x4 sum of conj(lam) psi^T over a block's wires (a one-wire block
    uses the high bit only), where ``both`` stacks psi over lam and window
    and product are what ``_kernel`` took and gave for the block.

    In a window the halves read as (-1, D, R) in place: one matmul gives the
    D x D sum (a single gemm when R = 1; taken in slices that keep the
    (slice, D, D) products within a half when R < D), and ``np.bincount``
    folds it to 4x4 through the window's index map.  A far pair reads the
    halves of the kernel's pair-first product."""
    if window is None:
        half = product.shape[1] // 2
        return product[:, half:].conj() @ product[:, :half].T
    index, d, r = window
    psi, lam = both.reshape(2, -1, d) if r == 1 else both.reshape(2, -1, d, r)
    complex_ = both.dtype.kind == "c"
    if complex_:
        lam = lam.conj()
    if r == 1:
        outer = lam.T @ psi
    else:
        step = max(len(lam) * r // d, 1)
        outer = np.matmul(lam[:step], psi[:step].transpose(0, 2, 1)).sum(0)
        for i in range(step, len(lam), step):
            outer += np.matmul(lam[i:i + step], psi[i:i + step].transpose(0, 2, 1)).sum(0)
    index = index.ravel()
    folded = np.bincount(index, outer.real.ravel(), minlength=17)[:16]
    if complex_:
        folded = folded + 1j * np.bincount(index, outer.imag.ravel(), minlength=17)[:16]
    return folded.reshape(4, 4)


def _place(abc, places: tuple[int, ...]) -> tuple:
    """A gate's (A, B, C), given in its own target order, in the 4x4 space of
    its block, where its targets sit at ``places``."""
    if len(places) == 1:  # kron(m, I) or kron(I, m), without np.kron's overhead
        pairs = [(m, _I2) if places == (0,) else (_I2, m) for m in abc]
        abc = [np.multiply.outer(*p).transpose(0, 2, 1, 3).reshape(4, 4) for p in pairs]
    elif places == (1, 0):
        abc = [_SWAP @ m @ _SWAP for m in abc]
    return tuple(abc)


@lru_cache(maxsize=None)
def _placed_affine(kind: str, places: tuple[int, ...]) -> tuple:
    """``_place`` of a kind's own (A, B, C), once per kind and places; read-only."""
    abc = _place(_AFFINE[kind], places)
    for m in abc:
        m.setflags(write=False)
    return abc


def _factor(g: Gate, places: tuple[int, ...], param_count: int):
    """(A, B, C, slot, scale) of gate g in the 4x4 space of its block, where
    its targets sit at ``places``; a bound angle is folded into A."""
    if g.angle is None and g.matrix is None:
        abc = _placed_affine(g.kind, places)
    else:
        abc = (g.matrix, _Z4, _Z4) if g.kind == "u2" else _AFFINE[g.kind]
        if g.angle is not None:
            half = 0.5 * g.scale * g.angle
            abc = (abc[0] + np.cos(half) * abc[1] + np.sin(half) * abc[2], 0 * abc[1], 0 * abc[2])
        abc = _place(abc, places)
    return (*abc, param_count if g.slot is None else g.slot, g.scale)


class CompiledCircuit:
    """A circuit folded once into blocks (module docstring): ``blocks`` holds
    (wires, u, window) in order, and block matrix u is the product of the
    factors ``chains[u]``, first applied first, padded with the identity.
    Each gate matrix is A + cos(t/2) B + sin(t/2) C in its angle t, so factor
    f is a[f] + cos(h) b[f] + sin(h) c[f], h = scale[f] theta[slot[f]] / 2."""

    def __init__(self, circuit: Circuit):
        n = self.num_qubits = circuit.num_qubits
        self.param_count = circuit.param_count
        gate_lists, last, held = [], {}, {q: [] for q in range(n)}
        for g in circuit.gates:
            a, b = g.targets[0], g.targets[-1]
            if a in last and last[a] == last.get(b):
                gate_lists[last[a]][1].append(g)
            elif a == b:
                held[a].append(g)
            else:
                last[a] = last[b] = len(gate_lists)
                opening = held.pop(a, []) + held.pop(b, []) + [g]
                gate_lists.append((tuple(sorted(g.targets)), opening))
        gate_lists += [((q,), gates) for q, gates in held.items() if gates]
        rows = [(np.eye(4), _Z4, _Z4, self.param_count, 0.0)]  # slot param_count reads 0
        index, chains, self.blocks = {}, {}, []
        for wires, gates in gate_lists:
            chain = []
            for g in gates:
                places = tuple(wires.index(t) for t in g.targets)
                key = (g.kind, places, g.slot, g.scale, g.angle,
                       None if g.matrix is None else g.matrix.tobytes())
                if key not in index:
                    index[key] = len(rows)
                    rows.append(_factor(g, places, self.param_count))
                chain.append(index[key])
            u = chains.setdefault(tuple(chain), len(chains))
            self.blocks.append((wires, u, _window(n, wires)))
        a, b, c, self.slot, self.scale = (np.array(column) for column in zip(*rows))
        self.real = not any(np.any(np.imag(m)) for m in (a, b, c))
        self.a, self.b, self.c = (np.real(m) if self.real else m.astype(complex) for m in (a, b, c))
        self.depth = max(map(len, chains), default=1)
        length = 1 << (self.depth - 1).bit_length()
        self.chains = np.zeros((len(chains), length), dtype=int)
        for chain, u in chains.items():
            self.chains[u, : len(chain)] = chain

    def factors(self, params):
        """Every factor matrix and its derivative in its slot's parameter."""
        half = 0.5 * self.scale * np.append(params, 0.0)[self.slot]
        cos, sin = np.cos(half)[:, None, None], np.sin(half)[:, None, None]
        return (self.a + cos * self.b + sin * self.c,
                (0.5 * self.scale)[:, None, None] * (cos * self.c - sin * self.b))

    def block_matrices(self, factors: np.ndarray) -> np.ndarray:
        """Product of every chain, by a pairwise batched-matmul reduction."""
        f = factors[self.chains]
        while f.shape[1] > 1:
            f = f[:, 1::2] @ f[:, ::2]
        return f[:, 0]

    def state(self, amplitudes) -> np.ndarray:
        """The (batch, 2^N) input, float64 if it and the circuit are real."""
        amp = np.asarray(amplitudes)
        if amp.ndim != 2 or amp.shape[1] != (1 << self.num_qubits):
            raise ValueError(f"amplitudes must be (batch, {1 << self.num_qubits}), got {amp.shape}")
        if self.real and not (np.iscomplexobj(amp) and np.any(amp.imag)):
            return np.ascontiguousarray(amp.real, dtype=float)
        return np.ascontiguousarray(amp, dtype=complex)

    def run(self, params, amplitudes) -> np.ndarray:
        """Every block on a (batch, 2^N) input, which is left unchanged.  A
        batch of more than one chunk (``_row_chunks``) goes through every
        block a chunk at a time, into the rows of the result."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.param_count,):
            raise ValueError(f"expected {self.param_count} parameters, got {params.shape}")
        amp = self.state(amplitudes)
        flats = _padded(self.block_matrices(self.factors(params)[0]))
        n = self.num_qubits
        chunks = _row_chunks(amp)
        if len(chunks) > 1:
            out = np.empty_like(amp)
            for rows in chunks:
                chunk = amp[rows]
                for wires, u, window in self.blocks:
                    chunk = _kernel(chunk, n, wires, window, flats[u])[0]
                out[rows] = chunk
            return out
        # One chunk: the whole batch, with no result allocated ahead; rebinding
        # amp frees an input ``state`` converted after the first block.
        for wires, u, window in self.blocks:
            amp = _kernel(amp, n, wires, window, flats[u])[0]
        return amp if self.blocks else amp.copy()

    def gradient(self, params, psi, lam) -> np.ndarray:
        """sum_i 2 Re <lam_i| dU/dtheta |psi0_i> for every slot theta, where
        psi = ``run(params, psi0)`` and lam has psi's shape.  With
        lam_i = (dC/dm_i) O psi_i for a diagonal observable O and
        m_i = <psi_i|O|psi_i>, this is the gradient of a cost C(m).

        Adjoint differentiation (Jones and Gacon, arXiv:2009.02823) by one
        backward sweep of one kernel call per block: psi and lam are walked
        back together, stacked in one array, a chunk of rows (``_row_chunks``)
        at a time so that the chunk stays in cache through the sweep.
        With block B undone, W = conj(B) sum conj(lam) psi^T over its wires
        gives slot theta 2 Re sum(dB/dtheta * W).  The sum is read from the
        layout the kernel used, with no pair-first copy (``_adjoint_outer``),
        and summed over chunks before conj(B) multiplies it.  dB/dtheta sums,
        over the block's factors in that slot, the later factors times the
        factor's derivative times the earlier."""
        n = self.num_qubits
        factors, derivatives = self.factors(params)
        conj = self.block_matrices(factors).conj()
        undo = _padded(conj.transpose(0, 2, 1))
        outers = np.zeros((len(self.blocks), 4, 4), np.result_type(psi, lam))
        for rows in _row_chunks(psi):
            # psi over lam in one array, so each block is undone on both in one call
            both = np.concatenate([psi[rows], lam[rows]])
            for k, (wires, u, window) in reversed(list(enumerate(self.blocks))):
                both, product = _kernel(both, n, wires, window, undo[u])
                outers[k] += _adjoint_outer(both, window, product)
        us = [u for _, u, _ in self.blocks]
        w = np.zeros(conj.shape, outers.dtype)
        np.add.at(w, us, conj[us] @ outers)
        # prefix[:, j] is the product of the factors before position j, suffix after
        # it; the padding past the longest chain is the identity with derivative 0
        chains = self.chains[:, : self.depth]
        chain = factors[chains]
        prefix, suffix = np.empty_like(chain), np.empty_like(chain)
        prefix[:, 0] = suffix[:, -1] = np.eye(4)
        for j in range(1, chain.shape[1]):
            prefix[:, j] = chain[:, j - 1] @ prefix[:, j - 1]
            suffix[:, -1 - j] = suffix[:, -j] @ chain[:, -j]
        inner = np.swapaxes(suffix, -1, -2) @ w[:, None] @ np.swapaxes(prefix, -1, -2)
        terms = 2.0 * np.sum(derivatives[chains] * inner, axis=(-1, -2)).real
        grad = np.bincount(self.slot[chains].ravel(), terms.ravel(),
                           minlength=self.param_count + 1)
        return grad[: self.param_count]


@lru_cache(maxsize=None)
def z_signs(num_qubits: int, qubit: int) -> np.ndarray:
    """The diagonal of Z on ``qubit`` over the 2^N basis states, +1 where the
    qubit is 0 and -1 where it is 1; cached and read-only.  The one range
    check of a readout qubit, in training and evaluation alike."""
    if qubit not in range(num_qubits):  # also refuses None
        raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
    signs = 1.0 - 2.0 * ((np.arange(1 << num_qubits) >> (num_qubits - 1 - qubit)) & 1)
    signs.setflags(write=False)
    return signs


def expectation(amplitudes: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """<O> = |psi|^2 . diag(O) for every row psi of a (batch, 2^N) amplitude
    matrix, where O is diagonal in the basis with entries ``diagonal`` (such
    as ``z_signs``): the one readout of training and evaluation."""
    return (amplitudes * amplitudes.conj()).real @ diagonal


def run_circuit_batch(circuit: Circuit, params, amplitudes: np.ndarray) -> np.ndarray:
    """Apply the circuit to a whole (batch, 2^N) amplitude matrix at once:
    row i of the result is the output for input row i.  It compiles the
    circuit on every call.  The package itself runs a ``CompiledCircuit``
    that it compiles once per model; this wrapper stays only because the
    benchmark harness under ``bench/`` imports it."""
    return CompiledCircuit(circuit).run(params, amplitudes)
