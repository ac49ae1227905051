"""Hamiltonian assembly against hand expansions, eigensolver cross-checks,
and dataset generation contracts."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from conftest import expectation_z_batch, full_space_ground, ground_state
from vqcbench import cli, spinmodels
from vqcbench.spinmodels import (
    MODEL_KINDS,
    Dataset,
    LanczosConvergenceError,
    SpinModel,
    build_hamiltonian,
    generate_dataset,
    ground_states,
    train_count,
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
    energy, state, _ = ground_state(SpinModel("tfi", 2, 0.0))
    assert energy == pytest.approx(-1.0, abs=1e-12)


def test_ground_state_tfi_n2_h1_is_sqrt5():
    energy, _, _ = ground_state(SpinModel("tfi", 2, 1.0))
    assert energy == pytest.approx(-np.sqrt(5.0), abs=1e-10)


def test_ground_state_large_field_polarizes():
    # oracle value: dense diagonalization gives 0.998124 (second-order
    # corrections of about 3/(4h)^2 keep it just below 0.999)
    energy, state, _ = ground_state(SpinModel("tfi", 4, 10.0))
    plus = np.full(16, 0.25)
    fidelity = abs(np.vdot(plus, state)) ** 2
    assert fidelity == pytest.approx(0.9981242234645813, abs=1e-9)


def test_tfi_h0_energy_is_minus_n_minus_1():
    for n in range(2, 11):
        energy, _, _ = ground_state(SpinModel("tfi", n, 0.0))
        assert energy == pytest.approx(-(n - 1), abs=1e-12)


def test_tfi_large_field_per_site_x():
    # h=10: every site nearly aligned with X
    _, state, _ = ground_state(SpinModel("tfi", 6, 10.0))
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
        _, state, _ = ground_state(SpinModel("tfi", 4, h))
        vec = state
        assert vec[np.argmax(np.abs(vec))] > 0
        assert vec.dtype == np.float64


def test_dense_ceiling(tmp_path, capsys):
    # the TFI N = 14 sector holds 4160 states, over the 2^12 ceiling of LAPACK
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "task": "classify", "model": {"family": "hea_ry", "num_qubits": 14, "layers": 1},
        "data": {"kind": "tfi", "num_sites": 14, "h_values": [0.5, 1.5], "solver": "dense"},
    }))
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "dimension 4160 exceeds the dense ceiling 4096" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_variational_bound(rng):
    ham = build_hamiltonian(SpinModel("xxz", 5, 0.6))
    e0, _, _ = ground_state(SpinModel("xxz", 5, 0.6))
    m = ham.to_dense()
    for _ in range(50):
        v = rng.normal(size=ham.dimension)
        v /= np.linalg.norm(v)
        assert v @ m @ v >= e0 - 1e-9


def test_lanczos_agrees_with_dense(rng):
    # Solved in its symmetry sector, every chain has one canonical ground
    # state: odd chains and XXZ above h = 1 included.
    for kind, ns in (("tfi", (3, 5, 8, 10)), ("xxz", (3, 4, 5, 6, 8, 9, 10))):
        for n in ns:
            for h in (float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.0, 2.0))):
                model = SpinModel(kind, n, h)
                e_dense, v_dense, _ = ground_state(model, "dense")
                e_lan, v_lan, _ = ground_state(model, "lanczos")
                assert abs(e_dense - e_lan) <= 1e-8
                assert v_lan.dtype == np.float64
                fid = abs(np.vdot(v_dense, v_lan)) ** 2
                assert fid >= 1 - 1e-8
                assert np.max(np.abs(v_dense - v_lan)) <= 1e-10


def test_lanczos_tfi16_h0(monkeypatch):
    monkeypatch.setattr(spinmodels, "_TOL", 1e-10)
    energy, _, _ = ground_state(SpinModel("tfi", 16, 0.0), "lanczos")
    assert energy == pytest.approx(-15.0, abs=1e-8)


def test_lanczos_rayleigh_quotient_consistency():
    # the sector energy is the Rayleigh quotient of the full-space state
    energy, vec, _ = ground_state(SpinModel("tfi", 8, 0.9), "lanczos")
    rq = vec @ build_hamiltonian(SpinModel("tfi", 8, 0.9)).to_dense() @ vec
    assert abs(rq - energy) <= 1e-10


def test_lanczos_nonconvergence_is_loud(monkeypatch):
    model = SpinModel("tfi", 8, 0.9)
    # ARPACK stops after one pass of 20 vectors, short of machine precision
    with monkeypatch.context() as m:
        m.setattr(spinmodels, "_MAX_KRYLOV", 3)
        with pytest.raises(LanczosConvergenceError, match="ARPACK"):
            ground_state(model, "lanczos")
    # a vector ARPACK returns is checked against the residual bound
    eigsh = scipy.sparse.linalg.eigsh

    def perturbed(*args, **kwargs):
        w, v = eigsh(*args, **kwargs)
        return w, v + 1e-6 * np.arange(len(v))[:, None]

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
    with pytest.raises(LanczosConvergenceError, match="residual"):
        ground_state(model, "lanczos")


def test_xxz_fixed_sector_above_h1():
    # deep Ising-ferromagnetic regime: Sum Z variance vanishes
    _, state, _ = ground_state(SpinModel("xxz", 6, 2.0))
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
# symmetry sectors

SECTOR_FIELDS = (-1.5, -0.3, 0.0, 0.2, 0.99, 1.0, 1.01, 1.8)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("n", range(2, 11))
def test_sector_ground_state_matches_full_space_oracle(kind, n):
    for h in SECTOR_FIELDS:
        energy, gap, oracle = full_space_ground(kind, n, h)
        full = build_hamiltonian(SpinModel(kind, n, h)).to_dense()
        for solver in ("dense", "lanczos"):
            e, state, _ = ground_state(SpinModel(kind, n, h), solver)
            assert abs(e - energy) <= 1e-10, (h, solver)
            # a ground state of the whole chain, also where the space is degenerate
            assert np.linalg.norm(full @ state - energy * state) <= 1e-10, (h, solver)
            assert state[np.argmax(np.abs(state))] > 0
            if gap > 1e-6:
                assert min(np.max(np.abs(state - oracle)),
                           np.max(np.abs(state + oracle))) <= 1e-8, (h, solver)


@pytest.mark.parametrize("n", (3, 4, 8))
def test_sector_states_are_the_documented_canonical_vectors(n):
    dim = 1 << n
    # XXZ at and above h = 1: the polarized |1...1>, energy -h(N-1)
    for h in (1.0, 1.5):
        energy, state, _ = ground_state(SpinModel("xxz", n, h), "lanczos")
        assert energy == -h * (n - 1)
        assert np.array_equal(state, np.eye(dim)[-1])
    # TFI at h >= 0 and XXZ below h = 1: non-negative amplitudes; TFI at
    # h >= 0 is even under P = prod X (index i <-> its complement)
    for kind, h in (("tfi", 0.0), ("tfi", 0.4), ("tfi", 1.7), ("xxz", -0.9), ("xxz", -0.5),
                    ("xxz", 0.5)):
        _, state, _ = ground_state(SpinModel(kind, n, h), "dense")
        assert state.min() >= -1e-14
        if kind == "xxz":
            # not even a negative zero outside the magnetization sector, which
            # a dataset file would write as -0.0
            assert not np.signbit(state).any()
        if kind == "tfi":
            assert np.allclose(state, state[::-1], rtol=0, atol=1e-14)
    # TFI at h < 0 has parity (-1)^N: it is prod Z applied to the h > 0 state
    _, plus, _ = ground_state(SpinModel("tfi", n, 0.7), "dense")
    _, minus, _ = ground_state(SpinModel("tfi", n, -0.7), "dense")
    flipped = np.array([(-1) ** bin(i).count("1") for i in range(dim)]) * plus
    flipped *= np.sign(flipped[np.argmax(plus)])  # largest amplitude positive
    assert np.allclose(minus, flipped, rtol=0, atol=1e-14)
    assert np.allclose(minus[::-1], (-1) ** n * minus, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind,h", [("tfi", -0.3), ("tfi", 0.2), ("tfi", 1.3),
                                    ("xxz", 0.6), ("xxz", 1.4)])
def test_dense_and_lanczos_give_the_same_state_at_n12(kind, h):
    e_dense, v_dense, _ = ground_state(SpinModel(kind, 12, h), "dense")
    e_lan, v_lan, _ = ground_state(SpinModel(kind, 12, h), "lanczos")
    assert abs(e_dense - e_lan) <= 1e-10
    assert np.max(np.abs(v_dense - v_lan)) <= 1e-10


@pytest.mark.parametrize("kind,h", [("tfi", 0.2), ("xxz", 0.6), ("xxz", 1.4)])
def test_n16_ground_state_does_not_depend_on_the_seed(kind, h):
    # TFI at h = 0.2 has its two lowest levels closer than the residual
    # tolerance, XXZ at h = 1.4 an exact doublet: a full-space solve returns
    # a seed-dependent mix there, the sector solve one vector.
    [a], [b] = ([r.state for r in generate_dataset(kind, 16, [h], train_fraction=1.0,
                                                    seed=seed, solver="lanczos")[0].records]
                for seed in (0, 1))
    assert np.array_equal(a, b)
    assert a.min() >= -1e-12


def test_lanczos_memory_stays_far_below_a_krylov_basis():
    n = 14
    tracemalloc.start()
    try:
        ground_state(SpinModel("tfi", n, 0.5), "lanczos")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 160 full-space float64 vectors; a 300-vector Krylov basis alone exceeds it
    assert peak < 160 * 8 * (1 << n)


@pytest.mark.parametrize("kind,grid", [
    ("tfi", [-1.3, -0.6, -0.2, 0.0, 0.2, 0.45, 0.9, 1.0, 1.1, 1.6]),  # h and -h share a solve
    ("xxz", [0.2, 0.5, 0.8, 0.95, 1.0, 1.05, 1.4, 1.8]),
])
def test_warm_started_walk_matches_cold_solves_whatever_the_grid_order(kind, grid,
                                                                      monkeypatch):
    # N = 13 is the smallest chain auto solves by Lanczos
    models = [SpinModel(kind, 13, h) for h in grid]
    warm = ground_states(models)
    for model, (energy, state) in zip(models, warm, strict=True):
        cold_energy, cold, solver = ground_state(model)
        assert solver == "lanczos"
        assert abs(energy - cold_energy) <= 1e-12
        assert np.max(np.abs(state - cold)) <= 1e-12
    # the walk follows the couplings, not the grid: a shuffled grid solves the same
    cold_starts = []
    solve = spinmodels._solve

    def recorded(sector, coupling, solver, start=None):
        cold_starts.append(start is None)
        return solve(sector, coupling, solver, start)

    monkeypatch.setattr(spinmodels, "_solve", recorded)
    order = np.random.default_rng(5).permutation(len(grid))
    train, _ = generate_dataset(kind, 13, [grid[i] for i in order], h_c=0.7,
                                train_fraction=1.0)
    assert train.metadata["solver"] == "lanczos"
    # one solve a distinct coupling, and one cold start a sector: XXZ from h = 1
    # on is the polarized sector of one state
    assert len(cold_starts) == len({abs(h) for h in grid})
    assert sum(cold_starts) == (1 if kind == "tfi" else 2)
    for i, rec in zip(order, train.records, strict=True):
        assert rec.h == grid[i] and np.array_equal(rec.state, warm[i][1])


def _reversed_sites(n):
    idx = np.arange(1 << n)
    return sum(((idx >> p) & 1) << (n - 1 - p) for p in range(n))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODEL_KINDS), st.integers(2, 10),
       st.floats(-2.0, 2.0).filter(lambda h: abs(h - 1.0) > 1e-3))
def test_sector_states_match_the_oracle_and_keep_every_symmetry(kind, n, h):
    energy, gap, oracle = full_space_ground(kind, n, h)
    for solver in ("dense", "lanczos"):
        e, state, _ = ground_state(SpinModel(kind, n, h), solver)
        assert abs(e - energy) <= 1e-10, solver
        if gap > 1e-6:
            assert min(np.max(np.abs(state - oracle)),
                       np.max(np.abs(state + oracle))) <= 1e-8, solver
        # a state is built from its orbits, so its symmetries hold bit for bit
        assert np.array_equal(state[_reversed_sites(n)], state)
        if kind == "tfi" and h >= 0 or kind == "xxz" and n % 2 == 0 and h < 1:
            assert np.array_equal(state[::-1], state)  # P = prod X, or the spin flip


@pytest.mark.parametrize("kind,sectors", [("tfi", 1), ("xxz", 2)])
def test_generate_dataset_builds_each_sector_once_from_its_representatives(
        monkeypatch, kind, sectors):
    built = []
    terms = spinmodels._terms

    def counting(*args):
        built.append(len(args[2]))  # the columns it generates
        return terms(*args)

    monkeypatch.setattr(spinmodels, "_terms", counting)
    spinmodels._sector.cache_clear()
    grid = uniform_grid(-0.8, 1.8, 16)  # 16 points on both sides of h = 1 and of 0
    for solver in ("dense", "lanczos"):
        generate_dataset(kind, 10, grid, seed=3, solver=solver)
    # one build of A and B per sector, never of the 2^10 full-space columns
    assert len(built) == sectors
    assert max(built) < (1 << 10) // 3


def test_fresh_sector_solve_stays_far_below_a_full_space_fold():
    n = 14
    spinmodels._sector.cache_clear()
    tracemalloc.start()
    try:
        ground_state(SpinModel("tfi", n, 0.5), "lanczos")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sector build and solve peak near 6.6 MB; folding the whole 2^14
    # coordinate list onto the parity sector peaked at 13.5-15 MB
    assert peak < 10e6


def test_ground_state_rejects_unknown_solver():
    with pytest.raises(ValueError, match="solver"):
        ground_state(SpinModel("tfi", 4, 0.5), "arpack")


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


# benchmark sizes both splits from the config alone, before any solve, so
# train_count must be the size generate_dataset splits to; halves round up
@pytest.mark.parametrize("fraction,count,expected", [
    (0.75, 8, 6), (0.5, 5, 3), (0.1, 5, 1), (0.3, 10, 3), (0.0, 4, 0), (1.0, 4, 4),
])
def test_train_count_is_the_size_generate_dataset_splits_to(fraction, count, expected):
    assert train_count(fraction, count) == expected
    grid = [0.2 + 0.15 * i for i in range(count)]
    train, test = generate_dataset("tfi", 3, grid, train_fraction=fraction, seed=4)
    assert (len(train), len(test)) == (expected, count - expected)


def test_generate_dataset_rejects_critical_grid_point():
    with pytest.raises(ValueError):
        generate_dataset("tfi", 3, [0.5, 1.0], h_c=1.0)
    with pytest.raises(ValueError):
        generate_dataset("tfi", 3, [0.5, 0.5])


def test_generated_states_are_ground_states():
    train, test = generate_dataset("tfi", 4, [0.4, 0.8, 1.3], train_fraction=1.0, seed=0)
    assert len(test) == 0
    for rec in train.records:
        e0, _, _ = full_space_ground("tfi", 4, rec.h)
        energy = rec.state @ build_hamiltonian(SpinModel("tfi", 4, rec.h)).to_dense() @ rec.state
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
    assert amps.shape == (2, 8) and amps.dtype == np.float64
    assert np.array_equal(amps, [r.state for r in train.records])
    assert np.all(expectation_z_batch(amps, 3, 0) <= 1.0)
    assert list(train.labels()) == [-1, 1]
    with pytest.raises(ValueError, match="non-empty"):
        Dataset("tfi", 3).amplitudes()
