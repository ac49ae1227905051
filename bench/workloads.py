"""The benchmark's workloads: the configs and CLI calls of one round.

The benchmark seed moves grid points of the field values h by a small
uniform jitter and changes nothing else: the train/test split seed, the
initial-parameter seeds and the optimizer budgets stay fixed, so that the
score of a short training budget measures the program and not the luck of
a start point.  Grids keep away from the critical point h_c = 1 by more
than the jitter.

Powell's evaluation count depends on the training data (with every point
jittered, the sweep-n8 cells made 472 to 592 and 1547 to 1679 evaluations
from seed to seed), so a workload with ``jitter_test_only`` jitters only
the points its split puts in the test set: every seed then trains on the
same states and does the same work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "pipeline": gen-data, train, eval; "sweep": benchmark
    task: str
    model: dict
    data: dict          # data section without h_values
    grid: tuple         # base h grid before jitter
    jitter: float
    optimizer: dict
    init_seed: int = 0
    models: tuple = ()  # sweep families
    jitter_test_only: bool = False


def _qcnn(family, n, layers):
    return {"family": family, "num_qubits": n, "layers": layers}


def _hea(family, n, layers):
    return {"family": family, "num_qubits": n, "layers": layers,
            "hea_template": "single_column"}


# Step 0.0063; the points nearest h_c = 1 lie 0.0031 from it.
_N8_GRID = tuple(np.linspace(0.2, 1.8, 256).tolist())

WORKLOADS = {
    w.name: w for w in (
        Workload(
            # Split seed 11 puts h = 0.55, 0.75, 1.35, 1.55 in train and the
            # interleaved 0.45, 0.65, 1.25, 1.45 in test.  From init seed 2 a
            # 10-step SPSA run separates the test states; most other starts
            # stay at chance after so few steps (see README).
            name="classify-n16", kind="pipeline", task="classify",
            model=_qcnn("qcnn_ry", 16, 4),
            data={"kind": "tfi", "num_sites": 16, "train_fraction": 0.5, "seed": 11},
            grid=(0.45, 0.55, 0.65, 0.75, 1.25, 1.35, 1.45, 1.55), jitter=0.02,
            optimizer={"kind": "spsa", "max_iterations": 10, "seed": 0,
                       "spsa": {"a": 0.5, "c": 0.15}},
            init_seed=2,
        ),
        Workload(
            # One training state, which is also the evaluation state: the
            # Kraus-branch fidelity costs about 19 s and 1 GB per state at
            # N = 16 with 8 discarded qubits.  The second grid point goes to
            # the unused test split and doubles the data phase to about 1 s.
            name="compress-n16", kind="pipeline", task="autoencode",
            model=_qcnn("qcnn_ry", 16, 1),
            data={"kind": "tfi", "num_sites": 16, "train_fraction": 0.5, "seed": 0},
            grid=(1.4, 1.6), jitter=0.02,
            optimizer={"kind": "spsa", "max_iterations": 40, "seed": 0},
            init_seed=0,
        ),
        Workload(
            name="sweep-n8", kind="sweep", task="classify",
            model=_qcnn("qcnn_ry", 8, 3),
            models=(_qcnn("qcnn_ry", 8, 3), _qcnn("qcnn_so4", 8, 3), _qcnn("qcnn_su4", 8, 3),
                    _hea("hea_ry", 8, 1), _hea("hea_rxrzrx", 8, 1)),
            data={"kind": "xxz", "num_sites": 8, "train_fraction": 0.25, "seed": 0,
                  "solver": "dense"},
            grid=_N8_GRID, jitter=0.0015,
            # A full-precision (1e-10) line search makes one cycle take about
            # 15 s; 1e-4 leaves room for two rounds in a run.
            optimizer={"kind": "powell", "max_iterations": 1, "line_search_tol": 1e-4},
            init_seed=0, jitter_test_only=True,
        ),
        Workload(
            # qcnn_su4 is left out: at 3.3 s per gradient it alone would fill
            # a run; hea_rxrzrx carries the complex-gate path.
            name="grad-n8", kind="sweep", task="classify",
            model=_qcnn("qcnn_ry", 8, 3),
            models=(_qcnn("qcnn_ry", 8, 3), _qcnn("qcnn_so4", 8, 3), _hea("hea_ry", 8, 1),
                    _hea("hea_rxrzrx", 8, 1)),
            data={"kind": "tfi", "num_sites": 8, "train_fraction": 0.25, "seed": 0,
                  "solver": "dense"},
            grid=_N8_GRID, jitter=0.0015,
            optimizer={"kind": "param_shift_gd", "max_iterations": 3, "learning_rate": 1.0},
            init_seed=0,
        ),
    )
}

TRAIN_SIZE_N8 = 8  # training states per sweep cell, drawn from the 64-state train split


def h_grid(workload: Workload, seed: int) -> list[float]:
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    jitter = rng.uniform(-workload.jitter, workload.jitter, size=len(workload.grid))
    if workload.jitter_test_only:
        jitter[train_indices(workload)] = 0.0
    return [round(h + d, 9) for h, d in zip(workload.grid, jitter)]


def train_indices(workload: Workload) -> list[int]:
    """Grid indices of the training split: the membership rule of
    vqcbench.spinmodels.generate_dataset, which depends on the split seed
    and the point count but not on the h values."""
    count = len(workload.grid)
    n_train = int(np.floor(workload.data["train_fraction"] * count + 0.5))
    perm = np.random.default_rng(workload.data["seed"]).permutation(count)
    return sorted(perm[:n_train].tolist())


def write_config(workload: Workload, seed: int, round_dir: Path) -> Path:
    """The program's JSON config for one round; outputs go to round_dir."""
    cfg = {
        "task": workload.task,
        "model": workload.model,
        "data": dict(workload.data, h_values=h_grid(workload, seed)),
        "optimizer": workload.optimizer,
        "seed": workload.init_seed,
        "out_dir": str(round_dir),
    }
    if workload.kind == "sweep":
        cfg["models"] = list(workload.models)
        cfg["train_sizes"] = [TRAIN_SIZE_N8]
    path = round_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path


def cli_calls(workload: Workload, config: Path) -> list[list[str]]:
    if workload.kind == "pipeline":
        return [[cmd, "--config", str(config)] for cmd in ("gen-data", "train", "eval")]
    return [["benchmark", "--config", str(config)]]


def train_batch(workload: Workload) -> int:
    """States in one cost evaluation: the training set of a run or cell."""
    if workload.kind == "sweep":
        return TRAIN_SIZE_N8
    return int(np.floor(workload.data["train_fraction"] * len(workload.grid) + 0.5))


def gate_batch(workload: Workload, num_qubits: int) -> int:
    """Batch of the L0 gate timings at num_qubits: this workload's training
    batch, or that of the first workload with that register size."""
    same = [w for w in WORKLOADS.values() if w.data["num_sites"] == num_qubits]
    return train_batch(workload if workload in same else same[0])


def operations_per_round(workload: Workload) -> int:
    """One per CLI call, or one per cell for a benchmark sweep."""
    return 3 if workload.kind == "pipeline" else len(workload.models)
