"""Hamiltonian assembly against hand expansions, eigensolver cross-checks,
and dataset generation contracts."""

import numpy as np
import pytest

from vqcbench.simulator import expectation_z_batch
from vqcbench.spinmodels import (
    Dataset,
    LanczosConvergenceError,
    SparseHamiltonian,
    SpinModel,
    build_hamiltonian,
    generate_dataset,
    ground_state_dense,
    ground_state_lanczos,
    uniform_grid,
)


def dense(kind, n, h):
    return build_hamiltonian(SpinModel(kind, n, h)).to_dense()


def test_tfi_n2_h0_is_diagonal():
    m = dense("tfi", 2, 0.0)
    assert np.array_equal(m, np.diag([-1.0, 1.0, 1.0, -1.0]))


def test_tfi_n2_h1_hand_expansion():
    expected = np.array(
        [
            [-1, -1, -1, 0],
            [-1, 1, 0, -1],
            [-1, 0, 1, -1],
            [0, -1, -1, -1],
        ],
        dtype=float,
    )
    assert np.array_equal(dense("tfi", 2, 1.0), expected)


def test_xxz_n2_h0_flip_flop_only():
    m = dense("xxz", 2, 0.0)
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = -2.0
    assert np.array_equal(m, expected)


def test_hamiltonian_is_exactly_symmetric():
    for kind in ("tfi", "xxz"):
        for n in (2, 3, 5):
            m = dense(kind, n, 0.7)
            assert np.array_equal(m, m.T)


def test_site_ceiling_enforced():
    with pytest.raises(ValueError):
        build_hamiltonian(SpinModel("tfi", 17, 1.0))
    with pytest.raises(ValueError):
        SpinModel("tfi", 1, 1.0)
    with pytest.raises(ValueError):
        SpinModel("ising", 4, 1.0)


def test_ground_state_tfi_n2_h0():
    energy, state = ground_state_dense(build_hamiltonian(SpinModel("tfi", 2, 0.0)))
    assert energy == pytest.approx(-1.0, abs=1e-12)


def test_ground_state_tfi_n2_h1_is_sqrt5():
    energy, _ = ground_state_dense(build_hamiltonian(SpinModel("tfi", 2, 1.0)))
    assert energy == pytest.approx(-np.sqrt(5.0), abs=1e-10)


def test_ground_state_large_field_polarizes():
    # oracle value: dense diagonalization gives 0.998124 (second-order
    # corrections of about 3/(4h)^2 keep it just below 0.999)
    energy, state = ground_state_dense(build_hamiltonian(SpinModel("tfi", 4, 10.0)))
    plus = np.full(16, 0.25)
    fidelity = abs(np.vdot(plus, state)) ** 2
    assert fidelity == pytest.approx(0.9981242234645813, abs=1e-9)


def test_tfi_h0_energy_is_minus_n_minus_1():
    for n in range(2, 11):
        energy, _ = ground_state_dense(build_hamiltonian(SpinModel("tfi", n, 0.0)))
        assert energy == pytest.approx(-(n - 1), abs=1e-12)


def test_tfi_large_field_per_site_x():
    # h=10: every site nearly aligned with X
    _, state = ground_state_dense(build_hamiltonian(SpinModel("tfi", 6, 10.0)))
    # <X_j> via Hadamard-rotated Z would need circuits; compute directly
    amp = state
    n = 6
    for j in range(n):
        mask = 1 << (n - 1 - j)
        idx = np.arange(1 << n)
        x_val = 2 * float(np.dot(amp[idx & ~mask == idx], amp[(idx | mask) == idx]))
        # simpler: <X_j> = 2 sum_{i: bit=0} amp[i] * amp[i^mask]
        lo = idx[(idx & mask) == 0]
        x_val = 2 * float(np.dot(amp[lo], amp[lo | mask]))
        assert x_val >= 0.99


def test_sign_convention_largest_amplitude_positive():
    for h in (0.3, 0.8, 1.5):
        _, state = ground_state_dense(build_hamiltonian(SpinModel("tfi", 4, h)))
        vec = state
        assert vec[np.argmax(np.abs(vec))] > 0
        assert vec.dtype == np.float64


def test_dense_ceiling():
    ham = SparseHamiltonian(1 << 13, np.array([0]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ground_state_dense(ham)


def test_variational_bound(rng):
    ham = build_hamiltonian(SpinModel("xxz", 5, 0.6))
    e0, _ = ground_state_dense(ham)
    m = ham.to_dense()
    for _ in range(50):
        v = rng.normal(size=ham.dimension)
        v /= np.linalg.norm(v)
        assert v @ m @ v >= e0 - 1e-9


def test_lanczos_agrees_with_dense(rng):
    # XXZ is restricted to even N and h < 1: odd chains (any h) and even
    # chains at h > 1 have exactly degenerate ground doublets, where the
    # returned vector is basis-dependent and the comparison is ill-posed.
    for kind, ns, h_hi in (("tfi", (3, 5, 8, 10), 2.0), ("xxz", (4, 6, 8, 10), 0.9)):
        for n in ns:
            h = float(rng.uniform(0.2, h_hi))
            ham = build_hamiltonian(SpinModel(kind, n, h))
            e_dense, v_dense = ground_state_dense(ham)
            e_lan, v_lan = ground_state_lanczos(ham, tol=1e-13, seed=7)
            assert abs(e_dense - e_lan) <= 1e-8
            assert v_lan.dtype == np.float64
            fid = abs(np.vdot(v_dense, v_lan)) ** 2
            assert fid >= 1 - 1e-8


def test_lanczos_tfi16_h0():
    energy, _ = ground_state_lanczos(
        build_hamiltonian(SpinModel("tfi", 16, 0.0)), tol=1e-10, seed=3
    )
    assert energy == pytest.approx(-15.0, abs=1e-8)


def test_lanczos_rayleigh_quotient_consistency():
    ham = build_hamiltonian(SpinModel("tfi", 8, 0.9))
    energy, vec = ground_state_lanczos(ham, seed=1)
    rq = vec @ ham.to_csr() @ vec
    assert abs(rq - energy) <= 1e-10


def test_lanczos_nonconvergence_is_loud():
    ham = build_hamiltonian(SpinModel("tfi", 8, 0.9))
    with pytest.raises(LanczosConvergenceError):
        ground_state_lanczos(ham, max_krylov=3, tol=1e-14, seed=1)


def test_xxz_fixed_sector_above_h1():
    # deep Ising-ferromagnetic regime: Sum Z variance vanishes
    ham = build_hamiltonian(SpinModel("xxz", 6, 2.0))
    _, state = ground_state_dense(ham)
    n = 6
    amp = state
    idx = np.arange(1 << n)
    sz = np.zeros(1 << n)
    for j in range(n):
        sz += 1 - 2 * ((idx >> (n - 1 - j)) & 1)
    mean = float(np.dot(amp**2, sz))
    var = float(np.dot(amp**2, sz**2)) - mean**2
    assert abs(var) < 1e-9


# ---------------------------------------------------------------------------
# datasets


def test_generate_dataset_labels_and_counts():
    train, test = generate_dataset("tfi", 4, [0.5, 1.5], h_c=1.0, train_fraction=0.5, seed=3)
    assert len(train) + len(test) == 2
    all_records = train.records + test.records
    assert sorted(r.label for r in all_records) == [-1, 1]
    for r in all_records:
        assert r.label == (1 if r.h > 1.0 else -1)


def test_generate_dataset_split_sizes():
    grid = uniform_grid(0.2, 1.8, 64)
    train, test = generate_dataset("tfi", 3, grid, train_fraction=0.75, seed=9)
    assert len(train) == 48
    assert len(test) == 16


def test_generate_dataset_rejects_critical_grid_point():
    with pytest.raises(ValueError):
        generate_dataset("tfi", 3, [0.5, 1.0], h_c=1.0)
    with pytest.raises(ValueError):
        generate_dataset("tfi", 3, [0.5, 0.5])


def test_generated_states_are_ground_states():
    train, test = generate_dataset("tfi", 4, [0.4, 0.8, 1.3], train_fraction=1.0, seed=0)
    assert len(test) == 0
    for rec in train.records:
        ham = build_hamiltonian(SpinModel("tfi", 4, rec.h))
        e0, _ = ground_state_dense(ham)
        energy = rec.state @ ham.to_dense() @ rec.state
        assert energy == pytest.approx(e0, abs=1e-9)
        assert abs(np.linalg.norm(rec.state) - 1.0) < 1e-9


def test_generate_dataset_deterministic():
    a = generate_dataset("xxz", 3, [0.3, 0.6, 1.4, 1.7], seed=11)
    b = generate_dataset("xxz", 3, [0.3, 0.6, 1.4, 1.7], seed=11)
    for da, db in zip(a, b):
        assert len(da) == len(db)
        for ra, rb in zip(da.records, db.records):
            assert ra.h == rb.h and ra.label == rb.label
            assert np.array_equal(ra.state, rb.state)


def test_dataset_record_order_follows_grid():
    grid = [1.7, 0.3, 1.2, 0.6]
    train, test = generate_dataset("tfi", 3, grid, train_fraction=1.0, seed=5)
    assert [r.h for r in train.records] == grid


def test_dataset_state_helpers():
    train, _ = generate_dataset("tfi", 3, [0.5, 1.5], train_fraction=1.0, seed=1)
    amps = train.amplitudes()
    assert amps.shape == (2, 8) and amps.dtype == complex
    assert np.array_equal(amps.real, [r.state for r in train.records])
    assert np.all(expectation_z_batch(amps, 3, 0) <= 1.0)
    assert list(train.labels()) == [-1, 1]
    with pytest.raises(ValueError, match="non-empty"):
        Dataset("tfi", 3).amplitudes()
