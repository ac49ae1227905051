"""Open-boundary spin chains, ground states, and labeled phase datasets.

Hamiltonians (Pauli matrices, site index j from 0, open chain):

    H_tfi = - sum_{j<N-1} Z_j Z_{j+1}  -  h sum_j X_j
    H_xxz = - sum_{j<N-1} (X_j X_{j+1} + Y_j Y_{j+1} + h Z_j Z_{j+1})

Both are real symmetric in the computational basis, so the solvers return
ground states as real float64 vectors; ``Dataset.amplitudes`` stacks them
into the (samples, 2^N) complex matrix the simulator takes.  Site j maps
to qubit j (qubit 0 = most significant bit, the simulator convention).
Ground states come from LAPACK below 2^12 and from a fully
reorthogonalized Lanczos iteration above; the global sign is fixed
by making the largest-magnitude amplitude positive, so a non-degenerate
ground state is persisted the same whichever solver found it.  A
degenerate (or nearly degenerate) ground space has no such fix: the solver
returns an arbitrary, solver- and seed-dependent vector in it.  That
happens for XXZ with h > 1, where |0...0> and |1...1> are both ground
states, and for TFI at small h on 16 sites, where the splitting of the two
lowest levels is below the 1e-8 Lanczos tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

MODEL_KINDS = ("tfi", "xxz")
MAX_SITES = 16
DENSE_MAX_DIM = 1 << 12

# Default labeling boundaries; h_c = 1 for both models.  For the TFI chain
# this is the ferro/paramagnetic transition of the transverse field; for
# XXZ it separates the XY-critical regime from the Ising-ferromagnetic one.
CRITICAL_POINT = {"tfi": 1.0, "xxz": 1.0}
DEFAULT_H_RANGE = (0.2, 1.8)
DEFAULT_GRID_SIZE = 64


class LanczosConvergenceError(RuntimeError):
    """Lanczos failed to reach the requested residual within max_krylov."""


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


@dataclass
class SparseHamiltonian:
    """Real symmetric matrix in coordinate format."""

    dimension: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValueError("coordinate arrays must have equal length")
        if len(self.rows) and (
            self.rows.min() < 0 or self.rows.max() >= self.dimension
            or self.cols.min() < 0 or self.cols.max() >= self.dimension
        ):
            raise ValueError("row/col index out of range")

    @property
    def num_sites(self) -> int:
        return self.dimension.bit_length() - 1

    def to_csr(self) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.dimension, self.dimension)
        )

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.dimension, self.dimension))
        np.add.at(m, (self.rows, self.cols), self.vals)
        return m


def build_hamiltonian(model: SpinModel, max_sites: int = MAX_SITES) -> SparseHamiltonian:
    """Assemble the chain Hamiltonian; entries with exact value 0 are dropped."""
    n = model.num_sites
    if n > max_sites:
        raise ValueError(f"{n} sites exceeds the configured ceiling of {max_sites}")
    dim = 1 << n
    h = model.field
    shifts = np.array([n - 1 - j for j in range(n)])
    idx = np.arange(dim, dtype=np.int64)
    zbits = 1 - 2 * ((idx[:, None] >> shifts[None, :]) & 1)  # +1 for |0>, -1 for |1>
    zz = (zbits[:, :-1] * zbits[:, 1:]).sum(axis=1).astype(np.float64)

    rows, cols, vals = [], [], []

    def add(r, c, v):
        keep = v != 0.0
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep])

    if model.kind == "tfi":
        add(idx, idx, -zz)
        if h != 0.0:
            for j in range(n):
                add(idx ^ (1 << shifts[j]), idx, np.full(dim, -h))
    else:  # xxz
        add(idx, idx, -h * zz)
        for j in range(n - 1):
            differ = zbits[:, j] != zbits[:, j + 1]
            partner = idx[differ] ^ ((1 << shifts[j]) | (1 << shifts[j + 1]))
            # X_j X_{j+1} + Y_j Y_{j+1} = 2(|01><10| + |10><01|) on the pair
            add(partner, idx[differ], np.full(differ.sum(), -2.0))

    if rows:
        return SparseHamiltonian(dim, np.concatenate(rows), np.concatenate(cols),
                                 np.concatenate(vals))
    return SparseHamiltonian(dim, np.empty(0), np.empty(0), np.empty(0))


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def ground_state_dense(hamiltonian: SparseHamiltonian) -> tuple[float, np.ndarray]:
    """Lowest eigenpair via LAPACK; only for dimension <= 2^12."""
    dim = hamiltonian.dimension
    if dim > DENSE_MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the dense ceiling {DENSE_MAX_DIM}")
    w, v = scipy.linalg.eigh(hamiltonian.to_dense(), subset_by_index=(0, 0))
    return float(w[0]), _fix_sign(v[:, 0])


def ground_state_lanczos(
    hamiltonian: SparseHamiltonian,
    max_krylov: int = 300,
    tol: float = 1e-8,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair by Lanczos with full reorthogonalization.

    The Krylov basis is reorthogonalized (two Gram-Schmidt passes) at every
    step, so the classical loss-of-orthogonality failure mode is excluded.
    Convergence means the explicit residual ||H v - E v|| <= tol; if that is
    not reached within ``max_krylov`` steps a LanczosConvergenceError is
    raised rather than returning an unconverged vector.  The reported energy
    is the Rayleigh quotient of the returned (sign-fixed, normalized)
    vector.
    """
    dim = hamiltonian.dimension
    if dim > (1 << 16):
        raise ValueError(f"dimension {dim} exceeds the Lanczos ceiling 2^16")
    mat = hamiltonian.to_csr()
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)

    limit = min(max_krylov, dim)
    basis = np.empty((limit, dim))
    basis[0] = v
    alphas: list[float] = []
    betas: list[float] = []

    w = mat @ v
    alphas.append(float(v @ w))
    w -= alphas[0] * v

    for k in range(1, limit + 1):
        # full reorthogonalization, two passes
        vk = basis[:k]
        w -= vk.T @ (vk @ w)
        w -= vk.T @ (vk @ w)
        beta = float(np.linalg.norm(w))

        # candidate from the current tridiagonal projection
        tri_w, tri_v = scipy.linalg.eigh_tridiagonal(
            np.array(alphas), np.array(betas), select="i", select_range=(0, 0)
        )
        est_residual = beta * abs(tri_v[-1, 0])
        exhausted = beta < 1e-13 or k == dim
        if est_residual <= tol or exhausted or k == limit:
            vec = vk.T @ tri_v[:, 0]
            vec /= np.linalg.norm(vec)
            hv = mat @ vec
            energy = float(vec @ hv)
            residual = float(np.linalg.norm(hv - energy * vec))
            if residual <= tol or exhausted:
                return energy, _fix_sign(vec)
            if k == limit:
                raise LanczosConvergenceError(
                    f"residual {residual:.3e} > tol {tol:.3e} after {k} Krylov steps"
                )
        basis[k] = w / beta
        betas.append(beta)
        w = mat @ basis[k] - beta * basis[k - 1]
        alphas.append(float(basis[k] @ w))
        w -= alphas[k] * basis[k]

    raise LanczosConvergenceError(f"no convergence within {max_krylov} Krylov steps")


def ground_state(
    hamiltonian: SparseHamiltonian, solver: str = "auto", seed: int = 0
) -> tuple[float, np.ndarray, str]:
    """Dispatch dense/Lanczos; returns (energy, real vector, solver_used)."""
    if solver not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown solver {solver!r}")
    if solver == "dense" or (solver == "auto" and hamiltonian.dimension <= DENSE_MAX_DIM):
        energy, state = ground_state_dense(hamiltonian)
        return energy, state, "dense"
    energy, state = ground_state_lanczos(hamiltonian, seed=seed)
    return energy, state, "lanczos"


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
        """The records' states as a (samples, 2^num_sites) complex matrix."""
        if not self.records:
            raise ValueError("dataset must be non-empty")
        dim = 1 << self.num_sites
        mat = np.empty((len(self.records), dim), dtype=complex)
        for i, rec in enumerate(self.records):
            state = np.asarray(rec.state)
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

    Records stay in h_grid order inside each split; the shuffle only decides
    membership.  Train size is round(train_fraction * count).
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

    records = []
    solver_used = None
    for h in h_grid:
        ham = build_hamiltonian(SpinModel(kind, num_sites, h))
        _, vec, solver_used = ground_state(ham, solver=solver, seed=seed)
        records.append(DataRecord(state=vec, h=h, label=1 if h > h_c else -1))

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(records))
    n_train = int(math.floor(train_fraction * len(records) + 0.5))
    train_idx = sorted(perm[:n_train].tolist())
    test_idx = sorted(perm[n_train:].tolist())

    def make(indices, split):
        meta = {
            "kind": kind,
            "num_sites": num_sites,
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
