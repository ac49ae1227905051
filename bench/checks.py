"""Checks of one round's outputs against the oracles.

Each check function returns a list of problems (empty when the output is
right).  The files are parsed here with ``json`` rather than through
``vqcbench.storage``, so a storage fault cannot hide itself.  Ground
states are compared through their energies and residuals, never as
vectors: degenerate ground spaces make the vector solver-dependent.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import oracles
from vqcbench.ansatz import AnsatzSpec, build_ansatz, readout_qubit
from vqcbench.cli import model_name
from vqcbench.training import param_shift_gradient
from workloads import TRAIN_SIZE_N8

H_C = 1.0
RESIDUAL_TOL = 1e-7   # the program's Lanczos stops at 1e-8
ENERGY_TOL = 1e-8
OUTPUT_TOL = 1e-9     # <Z_r>, costs and fidelities against the contraction
GRAD_TOL = 1e-6       # param-shift against central differences (step 1e-5)


def read_jsonl_dataset(path: Path):
    """(h, label, amplitudes) of every record of a dataset file."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    records = []
    for line in lines[1:]:  # the first line is the header
        obj = json.loads(line)
        amp = np.asarray(obj["re"], dtype=float)
        if "im" in obj:
            amp = amp + 1j * np.asarray(obj["im"], dtype=float)
        records.append((float(obj["h"]), int(obj["label"]), amp))
    return records


def check_states(kind: str, n: int, grid, records) -> list[str]:
    """Labels, norms, energies and residuals of generated ground states."""
    problems = []
    hs = sorted(h for h, _, _ in records)
    if len(hs) != len(grid) or not np.allclose(hs, sorted(grid), rtol=0, atol=1e-12):
        problems.append(f"dataset h values {hs} differ from the grid {sorted(grid)}")
    for h, label, amp in records:
        if label != (1 if h > H_C else -1):
            problems.append(f"h={h}: label {label}")
        if amp.shape != (1 << n,) or np.any(np.iscomplex(amp)):
            problems.append(f"h={h}: amplitudes are not a real vector of length 2^{n}")
            continue
        amp = amp.real
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-9:
            problems.append(f"h={h}: norm {norm}")
        energy, residual = oracles.energy_and_residual(kind, n, h, amp)
        exact = oracles.ground_energy(kind, n, h)
        if residual > RESIDUAL_TOL:
            problems.append(f"h={h}: residual ||Hv - Ev|| = {residual:.3e}")
        if abs(energy - exact) > ENERGY_TOL * max(1.0, abs(exact)):
            problems.append(f"h={h}: energy {energy!r} but the ground energy is {exact!r}")
    return problems


def check_training(circuit, params, history, evaluations, optimizer: dict,
                   oracle_cost) -> list[str]:
    """Final parameters and cost history of one training run."""
    problems = []
    params = np.asarray(params, dtype=float)
    history = np.asarray(history, dtype=float)
    if params.shape != (circuit.param_count,) or not np.all(np.isfinite(params)):
        return [f"final parameters malformed: shape {params.shape}"]
    if evaluations != len(history) or not np.all(np.isfinite(history)):
        problems.append(f"{evaluations} evaluations but {len(history)} finite costs recorded")
    if optimizer["kind"] == "spsa" and len(history) != 1 + 3 * optimizer["max_iterations"]:
        problems.append(f"SPSA made {len(history)} evaluations, its budget is "
                        f"{1 + 3 * optimizer['max_iterations']}")
    cost = oracle_cost(params)
    # SPSA returns its best iterate and Powell its line minimum, which need
    # not be the last evaluation; gradient descent returns the last one.
    if optimizer["kind"] == "param_shift_gd":
        if abs(history[-1] - cost) > OUTPUT_TOL:
            problems.append(f"final cost {history[-1]!r}, contraction gives {cost!r}")
    elif np.min(np.abs(history - cost)) > OUTPUT_TOL:
        problems.append(f"cost at the final parameters {cost!r} is not in the history")
    return problems


def check_classification(circuit, readout, params, states, labels, report) -> list[str]:
    """Scores, predictions and accuracy of a classification report."""
    problems = []
    scores = oracles.expect_z(oracles.contract(circuit, params, states), readout)
    got = np.asarray(report["scores"], dtype=float)
    if got.shape != scores.shape or np.max(np.abs(got - scores)) > OUTPUT_TOL:
        return [f"<Z_r> {got.tolist()} differ from the contraction {scores.tolist()}"]
    if list(report["labels"]) != [int(l) for l in labels]:
        problems.append("report labels differ from the dataset labels")
    predictions = np.where(scores >= 0.0, 1, -1)
    ambiguous = np.abs(scores) <= OUTPUT_TOL
    given = np.asarray(report["predictions"])
    if np.any((given != predictions) & ~ambiguous):
        problems.append(f"predictions {given.tolist()} but signs give {predictions.tolist()}")
    accuracy = float(np.mean(given == np.asarray(labels)))
    if report["accuracy"] != accuracy:
        problems.append(f"accuracy {report['accuracy']} but predictions give {accuracy}")
    return problems


def check_compression(circuit, params, discard, states, report) -> list[str]:
    fid = oracles.reset_fidelity(circuit, params, discard, states)
    got = np.asarray(report["fidelities"], dtype=float)
    problems = []
    if got.shape != fid.shape or np.max(np.abs(got - fid)) > OUTPUT_TOL:
        problems.append(f"fidelities {got.tolist()}, closed form gives {fid.tolist()}")
    if np.any(got < -OUTPUT_TOL) or np.any(got > 1 + OUTPUT_TOL):
        problems.append(f"fidelities {got.tolist()} outside [0, 1]")
    if abs(report["mean_fidelity"] - float(np.mean(got))) > 1e-12:
        problems.append("mean fidelity is not the mean of the fidelities")
    return problems


def check_gradient(grad, oracle_cost, params) -> list[str]:
    fd = oracles.finite_difference_gradient(oracle_cost, params)
    err = float(np.max(np.abs(np.asarray(grad) - fd)))
    return [] if err <= GRAD_TOL else [f"gradient differs from finite differences by {err:.2e}"]


def read_results_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _states(records):
    return np.array([amp for _, _, amp in records])


def check_pipeline(workload, config, round_dir: Path, codes) -> tuple[list, dict]:
    """Per-operation problems for gen-data, train and eval."""
    problems = [[f"exit code {c}"] if c else [] for c in codes]
    extra = {}
    data = config.data
    try:
        train = read_jsonl_dataset(round_dir / "train.jsonl")
        test = read_jsonl_dataset(round_dir / "test.jsonl")
        problems[0] += check_states(data.kind, data.num_sites, data.h_values, train + test)
        want = int(np.floor(data.train_fraction * len(data.h_values) + 0.5))
        if len(train) != want:
            problems[0].append(f"{len(train)} training records, expected {want}")

        model = json.loads((round_dir / "model.json").read_text())
        record = json.loads((round_dir / "train_record.json").read_text())
        circuit, _ = build_ansatz(AnsatzSpec(**model["model"]))
        params = np.asarray(model["params"], dtype=float)
        x_train = _states(train)
        if workload.task == "classify":
            labels = [label for _, label, _ in train]
            cost = lambda p: oracles.classification_cost(circuit, model["readout"], p,
                                                         x_train, labels)
        else:
            discard = model["discard"]
            if len(discard) != data.num_sites // 2:
                problems[1].append(f"discard set {discard} is not half the register")
            cost = lambda p: oracles.autoencoder_cost(circuit, discard, p, x_train)
        problems[1] += check_training(circuit, params, record["cost_history"],
                                      record["evaluations"], workload.optimizer, cost)

        report = json.loads((round_dir / "report.json").read_text())
        if workload.task == "classify":
            labels = [label for _, label, _ in test]
            problems[2] += check_classification(
                circuit, model["readout"], params, _states(test), labels, report)
            extra["score"] = report["accuracy"]
            extra["min_abs_z"] = float(np.min(np.abs(report["scores"])))
        else:
            problems[2] += check_compression(circuit, params, model["discard"],
                                             x_train, report)
            extra["score"] = report["mean_fidelity"]
    except (OSError, KeyError, ValueError, IndexError) as exc:
        for p in problems:
            p.append(f"outputs unreadable: {exc!r}")
    return problems, extra


def check_sweep(workload, config, round_dir: Path, codes, generated, subsets) -> tuple[list, dict]:
    """Per-cell problems for a benchmark sweep.

    ``generated`` holds the (train, test) pair of each ``generate_dataset``
    call and ``subsets`` the training set of each ``train`` call, in call
    order; the program keeps both in memory only.
    """
    specs = config.benchmark_models()
    problems = [[f"benchmark exit code {codes[0]}"] if codes[0] else [] for _ in specs]
    extra = {}
    data = config.data
    try:
        (train_ds, test_ds), = generated
        records = [(r.h, r.label, np.asarray(r.state)) for r in train_ds.records + test_ds.records]
        data_problems = check_states(data.kind, data.num_sites, data.h_values, records)
        rows = {row["model"]: row for row in read_results_csv(round_dir / "results.csv")}
        x_test = np.array([r.state for r in test_ds.records])
        y_test = [r.label for r in test_ds.records]
        accuracies, margins = [], []
        for i, spec in enumerate(specs):
            p = problems[i]
            p += data_problems
            name = model_name(spec)
            row = rows.get(name)
            if row is None or not row["status"].startswith("ok"):
                p.append(f"cell {name}: {row and row['status']}")
                continue
            cell = round_dir / "cells" / f"{name}_size{TRAIN_SIZE_N8}"
            model = json.loads((cell / "model.json").read_text())
            record = json.loads((cell / "train_record.json").read_text())
            report = json.loads((cell / "report.json").read_text())
            circuit, _ = build_ansatz(spec)
            readout = readout_qubit(spec)
            params = np.asarray(model["params"], dtype=float)
            subset = subsets[i]
            x_train = np.array([r.state for r in subset.records])
            y_train = [r.label for r in subset.records]
            if len(subset) != TRAIN_SIZE_N8 or not {r.h for r in subset.records} <= {
                    r.h for r in train_ds.records}:
                p.append(f"cell {name}: training subset is not {TRAIN_SIZE_N8} training records")
            cost = lambda q: oracles.classification_cost(circuit, readout, q, x_train, y_train)
            p += check_training(circuit, params, record["cost_history"],
                                record["evaluations"], workload.optimizer, cost)
            p += check_classification(circuit, readout, params, x_test, y_test, report)
            if float(row["metric_value"]) != report["accuracy"]:
                p.append(f"cell {name}: results table says {row['metric_value']}")
            if workload.optimizer["kind"] == "param_shift_gd":
                grad = param_shift_gradient(circuit, subset, params, readout=readout)
                p += check_gradient(grad, cost, params)
            accuracies.append(report["accuracy"])
            margins.append(float(np.min(np.abs(report["scores"]))))
        if accuracies:
            extra["score"] = float(np.mean(accuracies))
            extra["min_abs_z"] = min(margins)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        for p in problems:
            p.append(f"outputs unreadable: {exc!r}")
    return problems, extra
