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
whatever chunk it is in.  Each walker walks a chunk by one function, which
``_walk_chunks`` maps over the chunks.  Chunks of a single row (rows of
2^16 amplitudes, or complex rows of 2^15) go to a pool of one thread per CPU
the process may use, since numpy releases the GIL in the matmuls and
transposes where a walk spends its time; every other batch is walked inline,
where a thread's hand-off would cost more than it saves.  Both ways give the
same result bit for bit: a chunk writes only its own rows, and whatever is
gathered over chunks (a memo's checkpoints, the sweep's sums) is gathered in
chunk order.

A third way through the blocks serves a caller that runs one circuit on one
input many times, changing a few parameters at a time (Powell's line
searches, through ``training._Objective``): it hands ``run`` a ``PassMemo``
of the last pass, which also keeps that pass's output.  A pass that changes
no block returns the kept output; any other recomputes only the block
matrices that the changed slots reach, and resumes at the memo's checkpoint,
the state entering the first step the last change reached, when no step
before it changed.  Every block matrix and every kernel input is bit for bit
the one a pass without the memo would use.

A caller that reads only qubits Q, such as a classifier's <Z> on its readout
or an autoencoder's discarded qubits, compiles with ``observed=Q``; without
it, Q is every qubit.  A gate acts as the identity on every wire but its
targets, so a gate whose wires no later gate links to Q cannot change what is
read on Q (the backward light cone of a local cost, Cerezo et al.,
arXiv:2001.00550).  The compiler walks the gates backwards from Q, keeps a
gate one of whose targets is already in the cone and adds its targets to the
cone; only the kept gates are folded into blocks, and with Q every qubit
every gate is kept.  A slot with no kept gate drives no block, so its
gradient is exactly 0, and ``training.train`` leaves it out of the vector its
minimizer sees.

A pass walks the steps of a layout plan (``_plan``), made once at compile
time.  A kernel is fast on a block whose window has many columns, and slow on
a pair more than four wires apart (a far pair, which ``_pairs`` copies) or on
the last wires of a large register: at N = 16 a block costs about 35 us per
float64 row on wires 0-8, and 2-13 times that on far pairs and the last
wires.  A rotation step by d wires transposes each row, seen as a
(2^d, 2^(N - d)) matrix (about 70 us a row at N = 16), so that the wire at
position p moves to (p - d) mod N; the blocks after it run at their wires'
rotated positions, where a far pair may become a window.  This relabels
qubits inside a circuit, as distributed simulators do (Haener and Steiger,
arXiv:1704.01127).  A dynamic program picks the rotations by a fixed price on
each block's shape at each rotation (``_PRICES``), and blocks that share no
wire may move so that they share a rotation.  The plan depends only on the
circuit's wires, whether its gates are real, and N.  Every pass starts and
ends in the canonical layout, so every reader of amplitudes sees the
conventions above.  Where rows are short a rotation rarely pays: prices scale
with the row but a rotation's call does not, so at N <= 8 one there and back
costs at least 6 us a row, more than moving a block saves (at most 1.7 us on
float64 rows, 4.5 us on complex ones).  No family's plan rotates there: its
steps are its blocks, and its passes compute bit for bit what the walk of the
blocks in order computes.  A rotated block may round in its last bits unlike
the same block unrotated, since a window sums its terms in another order than
a far pair's product.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
# threads that walk single-row chunks (``_walk_chunks``); the pool starts on first use
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool, _POOL_LOCK = None, threading.Lock()
# The layout plan's prices: us of one kernel call on a row of 2^16 amplitudes,
# float64 (a real circuit's) or complex128, one BLAS thread, as measured
# (medians inside QCNN passes where they reach the shape).  A block in a D x D
# window is priced by D and its R columns, past 64 alike; a far pair (D 0 here)
# by the R columns after its last wire.  A rotation costs _ROTATE_US, twice
# that by one wire.  Every price scales with the row, except the _CALL_US a
# rotation adds as one more call.
_PRICES = {
    True: {2: {1: 171, 32: 57, 64: 40}, 4: {1: 91, 16: 60, 32: 38, 64: 34},
           8: {1: 77, 8: 69, 16: 44, 32: 35, 64: 38},
           16: {1: 85, 4: 176, 8: 76, 16: 56, 32: 44, 64: 60},
           32: {1: 115, 2: 248, 4: 168, 8: 112, 16: 81, 32: 78, 64: 100},
           0: {1: 215, 2: 470, 4: 260, 8: 170, 16: 120, 32: 110, 64: 100}},
    False: {2: {1: 208, 32: 380, 64: 200}, 4: {1: 152, 16: 446, 32: 293, 64: 175},
            8: {1: 173, 8: 478, 16: 328, 32: 244, 64: 210},
            16: {1: 239, 4: 588, 8: 428, 16: 343, 32: 292, 64: 380},
            32: {1: 360, 2: 1302, 4: 664, 8: 516, 16: 442, 32: 438, 64: 410},
            0: {1: 420, 2: 600, 4: 415, 8: 365, 16: 330, 32: 330, 64: 330}},
}
_ROTATE_US, _CALL_US = {True: 70, False: 100}, 3
_NEAR_CHEAPEST = 1.1  # a block runs "well" at a rotation within 10 % of its cheapest


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


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate("cz", (a, b))


def cry(control: int, target: int, angle: float | None = None, slot: int | None = None) -> Gate:
    return Gate("cry", (control, target), angle=angle, slot=slot)


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
    """View of amp with axes (first wire, second wire or a unit axis, rest...),
    whichever of the wires comes first in the register."""
    qa, qb = min(wires), max(wires)
    shape = (-1, 2, 1 << max(qb - qa - 1, 0), 1 + (qb > qa), 1 << (n - 1 - qb))
    return amp.reshape(shape).transpose((1, 3, 0, 2, 4) if wires[0] == qa else (3, 1, 0, 2, 4))


def _span(n: int, wires) -> tuple | None:
    """(lo, hi): the window of k <= 5 wires a block runs in, from its first
    wire in the register to its last, or to the register's last wire if that
    fits; None for a far pair, whose wires no window spans."""
    lo = min(wires)
    hi = n - 1 if n - lo <= _MAX_WINDOW else max(wires)
    return None if hi - lo >= _MAX_WINDOW else (lo, hi)


@lru_cache(maxsize=None)
def _window(n: int, wires: tuple[int, ...]):
    """(index, D, R) for a block in its window (``_span``) of k wires:
    amplitudes reshape to (-1, D = 2^k, R), and the window matrix is the
    flattened block matrix + [0] at ``index``, with wires[0] as the block's
    high bit, whichever wire comes first in the register."""
    span = _span(n, wires)
    if span is None:
        return None
    lo, hi = span
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
    fill _SWEEP_BYTES, or a chunk is one row where a row fills half of it
    or more (at N = 16, and at N = 15 on complex rows).  ``_walk_chunks``
    walks single-row chunks on its pool and all others inline, with the same
    result bit for bit."""
    rows = max(1, _SWEEP_BYTES // (2 * amp.itemsize * amp.shape[1]))
    return [slice(start, start + rows) for start in range(0, len(amp), rows)]


def pass_workers() -> int:
    """Threads a pass may share its single-row chunks over (``_walk_chunks``),
    one per CPU the process may use."""
    return _WORKERS


def _walk_chunks(walk, chunks: list[slice]) -> list:
    """[walk(i) for every chunk i], in chunk order.  Two or more chunks of
    one row each are walked on a pool of ``_WORKERS`` threads, started on
    first use; every other batch, or any batch with one worker, inline.  A
    pooled walk returns once every chunk is done, and raises the first
    failure in chunk order."""
    global _pool
    if _WORKERS < 2 or len(chunks) < 2 or chunks[0].stop - chunks[0].start > 1:
        return [walk(i) for i in range(len(chunks))]
    with _POOL_LOCK:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="vqcbench-pass")
    futures = [_pool.submit(walk, i) for i in range(len(chunks))]
    wait(futures)
    return [future.result() for future in futures]


def _rotate(amp: np.ndarray, n: int, d: int) -> np.ndarray:
    """A new array: each row of amp, seen as a (2^d, 2^(N - d)) matrix,
    transposed, so that the wire at position p moves to (p - d) mod N."""
    return np.ascontiguousarray(amp.reshape(-1, 1 << d, 1 << (n - d)).swapaxes(1, 2)).reshape(
        amp.shape)


def _block_cost(n: int, wires, prices: dict) -> float:
    """A block's price in ``prices`` (``_PRICES``) on a row of 2^16 amplitudes."""
    span = _span(n, wires)
    if span is None:
        return prices[0][min(1 << (n - 1 - max(wires)), 64)]
    lo, hi = span
    return prices[2 << (hi - lo)][min(1 << (n - 1 - hi), 64)]


def _rotations(cost: np.ndarray, rotate: np.ndarray) -> tuple:
    """(price, rotations): the least priced rotation of the register for each
    block in turn, where running block k at rotation r costs cost[k, r],
    turning from r to t costs rotate[r, t], and the pass starts and ends at
    rotation 0 (dynamic programming over the blocks).  Ties keep the
    rotation, and end at the lowest."""
    n = cost.shape[1]
    keep = np.arange(n)
    total, back = rotate[0] + cost[0], []
    for row in cost[1:]:
        via = total[:, None] + rotate
        prev = via.argmin(axis=0)
        prev = np.where(via[keep, keep] <= via[prev, keep], keep, prev)
        back.append(prev)
        total = via[prev, keep] + row
    total = total + rotate[:, 0]
    turns = [int(total.argmin())]
    for prev in reversed(back):
        turns.append(int(prev[turns[-1]]))
    return total.min(), turns[::-1]


def _grouped(blocks: list, cost: np.ndarray) -> list:
    """An order of ``blocks`` that keeps each wire's blocks in their order, and
    so computes the same pass: the next block is the first ready one (no
    earlier block on its wires left) that runs well (``_NEAR_CHEAPEST``) at
    some rotation where every block since the group began also runs well, or,
    if none, the first ready one, which begins a new group."""
    well = cost <= _NEAR_CHEAPEST * cost.min(axis=1, keepdims=True)
    queues = {}
    for k, (wires, _, _) in enumerate(blocks):
        for q in wires:
            queues.setdefault(q, []).append(k)
    order, shared, left = [], np.ones(cost.shape[1], bool), list(range(len(blocks)))
    while left:
        ready = [k for k in left if all(queues[q][0] == k for q in blocks[k][0])]
        pick = next((k for k in ready if (well[k] & shared).any()), None)
        if pick is None:
            pick, shared = ready[0], np.ones(cost.shape[1], bool)
        shared &= well[pick]
        order.append(pick)
        left.remove(pick)
        for q in blocks[pick][0]:
            queues[q].pop(0)
    return order


def _plan(n: int, blocks: list, real: bool) -> list:
    """The steps of a pass over ``blocks`` (``CompiledCircuit``): blocks, each
    at the rotation of the register that ``_rotations`` picks at the prices
    ``_PRICES[real]`` and ``_ROTATE_US[real]``, and the rotations between
    them.  The blocks run in their order, or in the ``_grouped`` order where
    that is priced strictly lower (so with a rotation: prices are sums of
    dyadic numbers, exact in any order).  A plan with no rotation is
    ``blocks`` itself."""
    if not blocks:
        return []
    prices, scale = _PRICES[real], 2.0 ** (n - 16)  # prices are per row of 2^16

    def at(wires, r):
        return tuple((q - r) % n for q in wires)

    cost = scale * np.array([[_block_cost(n, at(wires, r), prices) for r in range(n)]
                             for wires, _, _ in blocks])
    d = (np.arange(n) - np.arange(n)[:, None]) % n  # d[from, to]
    rotate = np.where(d == 0, 0.0, _CALL_US + scale * _ROTATE_US[real] * (1 + (d == 1)))
    order = list(range(len(blocks)))
    price, turns = _rotations(cost, rotate)
    grouped = _grouped(blocks, cost)
    grouped_price, grouped_turns = _rotations(cost[grouped], rotate)
    if grouped_price < price:
        order, turns = grouped, grouped_turns
    if not any(turns):
        return list(blocks)
    steps, r = [], 0
    for k, t in zip(order, turns):
        if t != r:
            steps.append(((t - r) % n, None, None))
            r = t
        wires, u, _ = blocks[k]
        steps.append(blocks[k] if t == 0 else (at(wires, t), u, _window(n, at(wires, t))))
    if r:
        steps.append(((-r) % n, None, None))
    return steps


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


def _factor(g: Gate, places: tuple[int, ...], param_count: int):
    """(A, B, C, slot, scale) of gate g in the 4x4 space of its block, where
    its targets sit at ``places``; a bound angle is folded into A."""
    abc = (g.matrix, _Z4, _Z4) if g.kind == "u2" else _AFFINE[g.kind]
    if g.angle is not None:
        half = 0.5 * g.scale * g.angle
        abc = (abc[0] + np.cos(half) * abc[1] + np.sin(half) * abc[2], 0 * abc[1], 0 * abc[2])
    return (*_place(abc, places), param_count if g.slot is None else g.slot, g.scale)


@dataclass(eq=False)
class PassMemo:
    """The last pass of ``CompiledCircuit.run`` on one input, kept by the
    caller for the next pass: its parameters, every factor and padded block
    matrix, one checkpoint, the state entering step ``start`` (per row
    chunk, the output array of the step before, or a view of the input when
    ``start`` is 0), and its output, read-only, which a pass that changes no
    block returns.  The input must stay unchanged between passes; another
    input object starts the memo afresh."""

    source: object = None
    params: np.ndarray | None = None
    factors: np.ndarray | None = None
    flats: np.ndarray | None = None
    start: int = 0
    checkpoint: list | None = None
    output: np.ndarray | None = None


class CompiledCircuit:
    """A circuit folded once into blocks (module docstring): ``blocks`` holds
    (wires, u, window) in order, and block matrix u is the product of the
    factors ``chains[u]``, first applied first, padded with the identity.
    A pass walks ``steps``, the layout plan (module docstring): a block step
    (wires, u, window) of a block, with its wires at their rotated positions
    (the first still its matrix's high bit) and its window there, or a
    rotation step (d, None, None) by d wires.  At most 8 qubits, a family's
    steps are its blocks.
    Each gate matrix is A + cos(t/2) B + sin(t/2) C in its angle t, so factor
    f is a[f] + cos(h) b[f] + sin(h) c[f], h = scale[f] theta[slot[f]] / 2.
    Slot s drives chain u where ``drives[s, u]``, and ``first[s]`` is the
    first step whose chain it drives (the step count if none); slot
    ``param_count`` stands for no slot.

    Only the gates in the backward light cone of the ``observed`` qubits
    (module docstring; every qubit when None) are compiled, so a slot none of
    whose gates is in it drives no chain: its ``first`` is the step count."""

    def __init__(self, circuit: Circuit, observed=None):
        n = self.num_qubits = circuit.num_qubits
        self.param_count = circuit.param_count
        cone, gates = set(range(n) if observed is None else observed), []
        for g in reversed(circuit.gates):
            if cone.intersection(g.targets):
                cone.update(g.targets)
                gates.append(g)
        gates.reverse()
        gate_lists, last, held = [], {}, {q: [] for q in range(n)}
        for g in gates:
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
        self.drives = np.zeros((self.param_count + 1, len(chains)), dtype=bool)
        self.drives[self.slot[self.chains], np.arange(len(chains))[:, None]] = True
        self.steps = _plan(n, self.blocks, self.real)
        self.first = np.full(self.param_count + 1, len(self.steps))
        for k in reversed(range(len(self.steps))):
            if self.steps[k][1] is not None:
                self.first[self.drives[:, self.steps[k][1]]] = k

    def factors(self, params, rows=slice(None)):
        """Every factor matrix, or those of ``rows``, and its derivative in its
        slot's parameter."""
        scale = self.scale[rows]
        half = 0.5 * scale * np.append(params, 0.0)[self.slot[rows]]
        cos, sin = np.cos(half)[:, None, None], np.sin(half)[:, None, None]
        b, c = self.b[rows], self.c[rows]
        return self.a[rows] + cos * b + sin * c, (0.5 * scale)[:, None, None] * (cos * c - sin * b)

    def block_matrices(self, factors: np.ndarray, chains=slice(None)) -> np.ndarray:
        """Product of every chain, or of those of ``chains``, by a pairwise
        batched-matmul reduction."""
        f = factors[self.chains[chains]]
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

    def run(self, params, amplitudes, memo: PassMemo | None = None) -> np.ndarray:
        """Every step on a (batch, 2^N) input, which is left unchanged: each
        block, and each rotation of the register between them (``_rotate``),
        so that the output is in the canonical layout.  A batch of more than
        one chunk (``_row_chunks``) goes through every step a chunk at a
        time (``_walk_chunks``), into the rows of the result.  With a
        ``memo`` of the last pass on the same input, a pass that changes no
        block returns its output; any other starts at its checkpoint when no
        step before it changed (``_recall``), and keeps the state entering
        the first changed step and its own output, made read-only."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.param_count,):
            raise ValueError(f"expected {self.param_count} parameters, got {params.shape}")
        amp = self.state(amplitudes)
        if not self.steps:
            return amp.copy()
        if memo is None:
            flats, start, mark = _padded(self.block_matrices(self.factors(params)[0])), 0, None
        else:
            flats, start, mark = self._recall(memo, params, amplitudes)
            if flats is None:
                return memo.output
        chunks, n = _row_chunks(amp), self.num_qubits
        out = np.empty_like(amp) if len(chunks) > 1 else None
        if start:
            entries = memo.checkpoint
        else:
            entries = [amp[rows] for rows in chunks] if out is not None else [amp]
        # a lone chunk is the input itself, not a view of it, so that with no
        # other reference left a converted input is freed after the first block
        del amp

        def walk(i):
            """(the output, if chunk i is the only one, else None after
            writing it into the chunk's rows; the state entering step mark)."""
            chunk, entries[i], kept = entries[i], None, None
            for k in range(start, len(self.steps)):
                if k == mark:
                    kept = chunk
                wires, u, window = self.steps[k]
                if u is None:  # a rotation by ``wires`` wires
                    chunk = _rotate(chunk, n, wires)
                else:
                    chunk = _kernel(chunk, n, wires, window, flats[u])[0]
            if out is None:
                return chunk, kept
            out[chunks[i]] = chunk
            return None, kept

        walked = _walk_chunks(walk, chunks)
        if out is None:
            out = walked[0][0]
        if memo is not None:
            out.setflags(write=False)
            memo.params, memo.start, memo.output = params.copy(), mark, out
            memo.checkpoint = [kept for _, kept in walked]
        return out

    def _recall(self, memo: PassMemo, params: np.ndarray, amplitudes) -> tuple:
        """(flats, start, mark) of a pass through ``memo``, which it brings up
        to ``params``, or Nones if no slot whose bits changed drives a block,
        so that the memo's output stands.  Else the factors of those slots and
        the block matrices of the chains they drive are recomputed, and the
        rest are kept.  The pass starts at step ``start``, the checkpoint's,
        if no step before it changed, else at step 0, and keeps the state
        entering step ``mark``, the first changed one.  The memo reads as
        empty until the pass completes."""
        last, memo.params = memo.params, None
        if last is None or memo.source is not amplitudes:
            memo.source, memo.start = amplitudes, 0
            memo.factors = self.factors(params)[0]
            memo.flats = _padded(self.block_matrices(memo.factors))
            changed = np.arange(self.param_count)
        else:
            moved = np.append(params.view(np.int64) != last.view(np.int64), False)
            changed = np.flatnonzero(moved)
            if self.first[changed].min(initial=len(self.steps)) == len(self.steps):
                memo.params = last  # the kept output's, whole again
                return None, None, None
            memo.factors[moved[self.slot]] = self.factors(params, moved[self.slot])[0]
            chains = self.drives[changed].any(axis=0)
            memo.flats[chains] = _padded(self.block_matrices(memo.factors, chains))
        memo.output = None  # freed before the pass allocates its own
        mark = self.first[changed].min(initial=len(self.steps))
        return memo.flats, memo.start if memo.start <= mark else 0, mark

    def gradient(self, params, psi, lam) -> np.ndarray:
        """sum_i 2 Re <lam_i| dU/dtheta |psi0_i> for every slot theta, where
        psi = ``run(params, psi0)`` and lam has psi's shape.  With
        lam_i = (dC/dm_i) O psi_i for a diagonal observable O and
        m_i = <psi_i|O|psi_i>, this is the gradient of a cost C(m).

        Adjoint differentiation (Jones and Gacon, arXiv:2009.02823) by one
        backward sweep over the steps, one kernel call per block: psi and lam
        are walked back together, stacked in one array, a chunk of rows
        (``_row_chunks``, walked by ``_walk_chunks``) at a time so that the
        chunk stays in cache through the sweep.  A rotation step is undone by
        the inverse rotation, and adds nothing to the gradient.
        With block B undone, W = conj(B) sum conj(lam) psi^T over its wires
        gives slot theta 2 Re sum(dB/dtheta * W).  The sum is read from the
        layout the kernel used, with no pair-first copy (``_adjoint_outer``),
        and summed over chunks in chunk order, from zero, before conj(B)
        multiplies it.  dB/dtheta sums, over the block's factors in that slot,
        the later factors times the factor's derivative times the earlier."""
        n = self.num_qubits
        factors, derivatives = self.factors(params)
        conj = self.block_matrices(factors).conj()
        undo = _padded(conj.transpose(0, 2, 1))
        placed = [k for k, (_, u, _) in enumerate(self.steps) if u is not None]
        chunks, dtype = _row_chunks(psi), np.result_type(psi, lam)

        def sweep(i):
            """Each step's 4x4 sum over the rows of chunk i."""
            # psi over lam in one array, so each block is undone on both in one call
            both = np.concatenate([psi[chunks[i]], lam[chunks[i]]])
            outers = np.zeros((len(self.steps), 4, 4), dtype)
            for k, (wires, u, window) in reversed(list(enumerate(self.steps))):
                if u is None:  # undo a rotation by ``wires`` wires
                    both = _rotate(both, n, n - wires)
                    continue
                both, product = _kernel(both, n, wires, window, undo[u])
                outers[k] = _adjoint_outer(both, window, product)
            return outers

        outers = np.zeros((len(self.steps), 4, 4), dtype)
        for chunk_outers in _walk_chunks(sweep, chunks):
            outers += chunk_outers
        us = [self.steps[k][1] for k in placed]
        w = np.zeros(conj.shape, outers.dtype)
        np.add.at(w, us, conj[us] @ outers[placed])
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
