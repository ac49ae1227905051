"""Open-boundary spin chains, ground states, and labeled phase datasets.

Hamiltonians (Pauli matrices, site index j from 0, open chain):

    H_tfi = - sum_{j<N-1} Z_j Z_{j+1}  -  h sum_j X_j
    H_xxz = - sum_{j<N-1} (X_j X_{j+1} + Y_j Y_{j+1} + h Z_j Z_{j+1})

Both are real symmetric in the computational basis, so ground states are
real float64 vectors; ``Dataset.amplitudes`` stacks them into the
(samples, 2^N) float64 matrix the simulator takes.  Site j maps to qubit j
(qubit 0 = most significant bit, the simulator convention).

Both have the form H = A + h B:

- TFI: A = -sum ZZ, B = -sum X;
- XXZ: A = -sum (XX + YY), B = -sum ZZ.

XXZ, and TFI with h >= 0, are stoquastic (off-diagonal entries <= 0): in a
symmetry sector where the matrix is irreducible the ground state is the
unique positive vector (Perron-Frobenius), so every symmetry that commutes
with H leaves it fixed.  Each chain is solved in the sector of the states
invariant under the largest such group G of basis permutations:

- TFI: G = {1, P, R, PR}, with P = prod X (bit complement) and R the site
  reflection (bit reversal).  For h < 0 the chain is solved at -h and
  mapped back by prod Z, which gives parity (-1)^N.  At h = 0 this picks
  (|0...0> + |1...1>)/sqrt(2).  At N = 16 the sector has 16512 states.
- XXZ, h < 1: the states with floor(N/2) ones (for odd N this sector ties
  with its spin flip) and G = {1, R}; at even N the spin flip maps the
  sector onto itself and joins, G = {1, R, F, RF}.  At N = 16: 3299 states.
- XXZ, h >= 1: the polarized |1...1>, index 2^N - 1, a one-state sector of
  energy -h(N-1) that ties with |0...0>.

The sector basis is orbit-normalized: row a is |O_a>, the sum of the orbit
of the representative a (its smallest member) over sqrt(|O_a|).  A column y
of H in orbit b adds H[a, y] sqrt(|O_a| / |O_b|) to the sector entry (a, b),
and a sector vector v embeds as v[index[x]] / sqrt(|O_x|).  A and B are
built once per (kind, N, sector) directly from the representative columns
and cached, as values on one CSR structure (``indptr`` and int32
``indices``); a grid point forms only the values A + h B and runs one LAPACK
or Lanczos (``eigsh``) solve.

``ground_states`` is the one way to solve chains, by either solver of
``SOLVERS``; both return the same canonical vector, whose sign makes the
largest-magnitude amplitude positive: TFI with h >= 0 and XXZ states have
no negative amplitude.  It walks each sector's couplings in ascending
order, and each Lanczos solve starts from the previous solve's sector
vector (the first from all-ones, so one chain alone is a cold solve).  Both
starts are nonnegative, so they always overlap the positive ground state,
and the walk's states match cold solves to rounding (within 5e-15 per
amplitude at N = 13 to 16) whatever the order of the chains.
``build_hamiltonian`` assembles the full-space matrix from the same term
generator, as an oracle for tests.  scipy is imported inside the solve, so
a process that never solves (``train``, ``eval``) does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

MODEL_KINDS = ("tfi", "xxz")
MAX_SITES = 16
SOLVERS = ("auto", "dense", "lanczos")
DENSE_MAX_DIM = 1 << 12
_MAX_KRYLOV = 300  # Lanczos restarts times vectors; see _solve
_TOL = 1e-8  # bound on the Lanczos residual

# Default labeling boundaries; h_c = 1 for both models.  For the TFI chain
# this is the ferro/paramagnetic transition of the transverse field; for
# XXZ it separates the XY-critical regime from the Ising-ferromagnetic one.
CRITICAL_POINT = {"tfi": 1.0, "xxz": 1.0}
DEFAULT_H_RANGE = (0.2, 1.8)
# Default compression inputs: TFI ground states straddling the h=1 boundary
# (the exact critical point is excluded; 0.9 stands in for 1.0).
DEFAULT_COMPRESSION_H = (0.2, 0.6, 0.9, 1.4, 1.8)
DEFAULT_GRID_SIZE = 64


class LanczosConvergenceError(RuntimeError):
    """ARPACK's Lanczos failed within its restarts, or its vector missed the
    residual bound; the CLI exits 4."""


@dataclass(frozen=True)
class SpinModel:
    """Chain specification; boundary is always open."""

    kind: str
    num_sites: int
    field: float

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.num_sites < 2:
            raise ValueError("num_sites must be >= 2")
        if self.num_sites > MAX_SITES:
            raise ValueError(f"{self.num_sites} sites exceeds the ceiling of {MAX_SITES}")


@dataclass
class SparseHamiltonian:
    """Real symmetric full-space matrix in coordinate format, as
    ``build_hamiltonian`` assembles it."""

    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.dimension, self.dimension))
        np.add.at(m, (self.rows, self.cols), self.vals)
        return m


def _popcount(idx: np.ndarray, bits: int) -> np.ndarray:
    count = np.zeros_like(idx)
    for p in range(bits):
        count += (idx >> p) & 1
    return count


def _terms(kind: str, n: int, idx: np.ndarray) -> list[tuple]:
    """The columns ``idx`` of H = A + h B as coordinate terms (rows, cols,
    vals, on_field); a term with ``on_field`` set belongs to B."""
    # bit p of d is set where sites n-2-p and n-1-p differ
    d = (idx ^ (idx >> 1)) & ((1 << (n - 1)) - 1)
    zz = ((n - 1) - 2 * _popcount(d, n - 1)).astype(np.float64)  # sum_j Z_j Z_{j+1}
    if kind == "tfi":
        return [(idx, idx, -zz, False)] + [
            (idx ^ (1 << p), idx, np.full(len(idx), -1.0), True) for p in reversed(range(n))
        ]
    terms = [(idx, idx, -zz, True)]
    for p in reversed(range(n - 1)):
        hop = idx[(d >> p) & 1 == 1]
        # X_j X_{j+1} + Y_j Y_{j+1} = 2(|01><10| + |10><01|) on the pair
        terms.append((hop ^ (3 << p), hop, np.full(len(hop), -2.0), False))
    return terms


def build_hamiltonian(model: SpinModel) -> SparseHamiltonian:
    """Assemble the chain Hamiltonian; entries with exact value 0 are dropped."""
    dim = 1 << model.num_sites
    rows, cols, vals = [], [], []
    for r, c, v, on_field in _terms(model.kind, model.num_sites, np.arange(dim, dtype=np.int64)):
        if on_field:
            v = model.field * v
        keep = v != 0.0
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep])
    return SparseHamiltonian(dim, np.concatenate(rows), np.concatenate(cols),
                             np.concatenate(vals))


@dataclass(frozen=True)
class _Sector:
    """H = A + h B restricted to the symmetric states of one sector: A and
    B hold their values on one CSR structure (``indptr``, int32 ``indices``).

    Row i is the orbit-normalized state of the i-th representative; a
    sector vector v embeds as scale * v[index] (index -1 reads 0).
    """

    dimension: int
    indptr: np.ndarray
    indices: np.ndarray
    a: np.ndarray
    b: np.ndarray
    index: np.ndarray
    scale: np.ndarray

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry, rebuilt from ``indptr`` on the first
        dense solve of the sector and kept for its later ones."""
        return np.repeat(np.arange(self.dimension), np.diff(self.indptr))


@functools.lru_cache(maxsize=4)
def _sector(kind: str, n: int, ones: int | None) -> _Sector:
    """The sector invariant under site reflection R, and under the bit
    complement as well for TFI (P = prod X) and for XXZ at half filling
    (the spin flip); ``ones`` fixes the magnetization of XXZ."""
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    rev = np.zeros_like(idx)
    for p in range(n):
        rev |= ((idx >> p) & 1) << (n - 1 - p)
    images = [idx, rev]
    if ones is None or 2 * ones == n:
        images += [idx ^ (dim - 1), rev ^ (dim - 1)]
    images = np.array(images)
    rep = images.min(axis=0)
    size = len(images) // (images == idx).sum(axis=0)  # orbit size |G| / |stabilizer|
    is_rep = rep == idx
    if ones is not None:
        is_rep &= _popcount(idx, n) == ones
    reps = idx[is_rep]
    m = len(reps)
    row = np.full(dim, -1)
    row[reps] = np.arange(m)
    index = row[rep]
    # <O_b|H|O_a> = sqrt(|O_a| / |O_b|) * sum of H[y, a] over y in orbit b
    terms = _terms(kind, n, reps)
    key = np.concatenate([index[r] * m + index[c] for r, c, _, _ in terms])
    weight = np.concatenate([v * np.sqrt(size[c] / size[r]) for r, c, v, _ in terms])
    on_field = np.concatenate([np.full(len(v), f) for _, _, v, f in terms])
    entry, at = np.unique(key, return_inverse=True)  # CSR order, duplicates summed below
    a = np.bincount(at, np.where(on_field, 0.0, weight), len(entry))
    b = np.bincount(at, np.where(on_field, weight, 0.0), len(entry))
    indptr = np.searchsorted(entry, np.arange(m + 1) * m).astype(np.int32)
    return _Sector(m, indptr, (entry % m).astype(np.int32), a, b, index, np.sqrt(1.0 / size))


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def _solve(sector: _Sector, coupling: float, solver: str,
           start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the sector matrix A + coupling B, sign-fixed.

    Only the values A + coupling B are formed; the structure is the sector's.
    ``dense`` runs LAPACK, only up to dimension 2^12, and so do dimensions
    below 3, where ``eigsh`` cannot run.  ``lanczos`` runs ARPACK's restarted
    Lanczos (``eigsh``) from ``start``, or from the all-ones vector, on 20
    vectors with at most _MAX_KRYLOV // 20 restarts, to machine precision.
    Either start overlaps the positive ground state of a stoquastic matrix:
    all-ones does, and so does the nonnegative ground state of the same
    sector at another coupling.  The explicit residual of the returned vector
    must be <= _TOL, and either failure raises LanczosConvergenceError.  Its
    energy is the Rayleigh quotient.
    """
    dim = sector.dimension
    vals = sector.a + coupling * sector.b
    if solver == "dense" or dim < 3:
        if dim > DENSE_MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds the dense ceiling {DENSE_MAX_DIM}")
        import scipy.linalg
        mat = np.zeros((dim, dim))
        mat[sector.rows, sector.indices] = vals  # the coordinates are distinct
        w, v = scipy.linalg.eigh(mat, subset_by_index=(0, 0))
        return float(w[0]), _fix_sign(v[:, 0])
    import scipy.sparse
    import scipy.sparse.linalg
    mat = scipy.sparse.csr_matrix((vals, sector.indices, sector.indptr), shape=(dim, dim))
    ncv = min(dim, 20)
    try:
        _, vecs = scipy.sparse.linalg.eigsh(
            mat, k=1, which="SA", v0=np.ones(dim) if start is None else start, ncv=ncv,
            maxiter=max(1, _MAX_KRYLOV // ncv))
    except scipy.sparse.linalg.ArpackError as exc:  # ArpackNoConvergence among them
        raise LanczosConvergenceError(f"ARPACK: {exc}") from exc
    vec = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    hv = mat @ vec
    energy = float(vec @ hv)
    residual = float(np.linalg.norm(hv - energy * vec))
    if residual > _TOL:
        raise LanczosConvergenceError(f"residual {residual:.3e} > tol {_TOL:.3e}")
    return energy, _fix_sign(vec)


def _sector_key(model: SpinModel) -> tuple[tuple, float]:
    """The ``_sector`` arguments of model's chain, and the coupling of B."""
    n, h = model.num_sites, model.field
    if model.kind == "tfi":
        return ("tfi", n, None), abs(h)  # H(h) = U H(-h) U, U = prod Z
    return ("xxz", n, n if h >= 1.0 else n // 2), h


def _resolve(solver: str, num_sites: int) -> str:
    """``auto`` picks LAPACK up to 2^12 full-space states, Lanczos above."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    if solver == "auto":
        return "dense" if (1 << num_sites) <= DENSE_MAX_DIM else "lanczos"
    return solver


def ground_states(models: list[SpinModel],
                  solver: str = "auto") -> list[tuple[float, np.ndarray]]:
    """(energy, full-space vector) of each of models, chains of one length,
    from their sectors; ``auto`` picks LAPACK up to 2^12 full-space states,
    Lanczos above.

    Each sector walks its distinct couplings in ascending order, and each
    Lanczos solve starts from the sector vector of the one before it (the
    first from all-ones), so the states do not depend on the models' order;
    one model alone is a cold solve.
    """
    if not models:
        return []
    solver = _resolve(solver, models[0].num_sites)
    walks: dict[tuple, set] = {}
    for model in models:
        key, coupling = _sector_key(model)
        walks.setdefault(key, set()).add(coupling)
    solved = {}
    for key, couplings in walks.items():
        sector, start = _sector(*key), None
        for coupling in sorted(couplings):
            energy, start = _solve(sector, coupling, solver, start)
            solved[key, coupling] = energy, sector.scale * np.append(start, 0.0)[sector.index]
    out = []
    for model in models:
        energy, state = solved[_sector_key(model)]
        if model.kind == "tfi" and model.field < 0:
            n = model.num_sites
            state = state * (1 - 2 * (_popcount(np.arange(1 << n), n) & 1))
        out.append((energy, _fix_sign(state)))
    return out


@dataclass
class DataRecord:
    """One labeled ground state; amplitudes are real (see module docstring)."""

    state: np.ndarray
    h: float
    label: int


@dataclass
class Dataset:
    kind: str
    num_sites: int
    records: list[DataRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def amplitudes(self) -> np.ndarray:
        """The records' states as a (samples, 2^num_sites) matrix, float64 if
        every record is real (as ground states are) and complex otherwise."""
        if not self.records:
            raise ValueError("dataset must be non-empty")
        dim = 1 << self.num_sites
        states = [np.asarray(rec.state) for rec in self.records]
        mat = np.empty((len(states), dim), dtype=np.result_type(float, *states))
        for i, state in enumerate(states):
            if state.shape != (dim,):
                raise ValueError(
                    f"record {i} has {state.shape[0]} amplitudes, expected {dim}"
                )
            mat[i] = state
        return mat

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=int)


def uniform_grid(start: float, stop: float, count: int) -> list[float]:
    return [float(v) for v in np.linspace(start, stop, count)]


def train_count(train_fraction: float, count: int) -> int:
    """The size of the training split of count records: round(train_fraction
    * count), halves rounded up."""
    return int(math.floor(train_fraction * count + 0.5))


def generate_dataset(
    kind: str,
    num_sites: int,
    h_grid,
    h_c: float | None = None,
    train_fraction: float = 0.75,
    seed: int = 0,
    solver: str = "auto",
) -> tuple[Dataset, Dataset]:
    """Solve every grid point, label by sign(h - h_c), split by seeded shuffle.

    The Lanczos solves warm-start along each sector's couplings
    (``ground_states``), so a record can differ from its chain's cold solve
    in the last bits.

    Records stay in h_grid order inside each split; the shuffle only decides
    membership.  Train size is ``train_count(train_fraction, count)``.
    """
    if h_c is None:
        h_c = CRITICAL_POINT[kind]
    h_grid = [float(h) for h in h_grid]
    if len(set(h_grid)) != len(h_grid):
        raise ValueError("h_grid values must be distinct")
    for h in h_grid:
        if abs(h - h_c) < 1e-9:
            raise ValueError(f"grid point h={h} coincides with the critical point h_c={h_c}")
    if not 0.0 <= train_fraction <= 1.0:
        raise ValueError("train_fraction must be in [0, 1]")

    solver_used = _resolve(solver, num_sites) if h_grid else None
    models = [SpinModel(kind, num_sites, h) for h in h_grid]
    records = [DataRecord(state=vec, h=h, label=1 if h > h_c else -1)
               for h, (_, vec) in zip(h_grid, ground_states(models, solver_used))]

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(records))
    n_train = train_count(train_fraction, len(records))
    train_idx = sorted(perm[:n_train].tolist())
    test_idx = sorted(perm[n_train:].tolist())

    def make(indices, split):
        meta = {
            "h_grid": h_grid,
            "h_c": h_c,
            "solver": solver_used,
            "phase_convention": "largest-amplitude-positive",
            "seed": seed,
            "train_fraction": train_fraction,
            "split": split,
        }
        return Dataset(kind, num_sites, [records[i] for i in indices], meta)

    return make(train_idx, "train"), make(test_idx, "test")
