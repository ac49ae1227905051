"""Command-line driver: gen-data, train, eval, benchmark.

Exit codes: 0 success, 2 config or validation error, 3 I/O error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import AnsatzSpec, build_ansatz, param_count, readout_qubit
from .config import BenchConfig, ConfigError, cell_seed, load_config
from .metrics import evaluate_autoencoder, evaluate_classifier
from .simulator import CompiledCircuit
from .spinmodels import Dataset, LanczosConvergenceError, generate_dataset, train_count
from .storage import (
    atomic_write,
    config_hash,
    read_dataset,
    read_model,
    write_dataset,
    write_model,
    write_report,
    write_results_csv,
    write_train_record,
)
from .training import compile_for, train


def model_name(spec: AnsatzSpec) -> str:
    name = f"{spec.family}_n{spec.num_qubits}_l{spec.layers}"
    if spec.hea_template == "double_column":
        name += "_dc"
    if not spec.weight_sharing:
        name += "_unshared"
    return name


def _resolve_discard(config: BenchConfig, pooled: list[int] | None) -> list[int]:
    if config.discard is not None:
        return list(config.discard)
    if pooled is not None:
        return pooled
    raise ConfigError(
        "autoencode with an HEA model needs an explicit 'discard' list in the config"
    )


def _generate(config: BenchConfig) -> tuple[Dataset, Dataset]:
    data = config.data
    return generate_dataset(
        data.kind, data.num_sites, data.h_values, h_c=data.h_c,
        train_fraction=data.train_fraction, seed=data.seed, solver=data.solver,
    )


def _dataset_paths(config: BenchConfig, out_dir: Path) -> tuple[Path, Path]:
    data = config.data
    train_path = Path(data.train_path) if data.train_path else out_dir / "train.jsonl"
    test_path = Path(data.test_path) if data.test_path else out_dir / "test.jsonl"
    return train_path, test_path


def _run_metadata(config: BenchConfig) -> dict:
    return {
        "surrogate_cost": True,  # training minimizes MSE on <Z>, sign applied at prediction
        "h_c": config.data.h_c,
        "param_count_formula": "qcnn shared: l*(conv+2)+[l==log2 N]; "
                               "hea: sites*columns (see vqcbench.ansatz.param_count)",
        "data": asdict(config.data),
        "version": __version__,
    }


def cmd_gen_data(config: BenchConfig, args) -> int:
    out_dir = Path(args.out or config.out_dir)
    train_path, test_path = _dataset_paths(config, out_dir)
    train_ds, test_ds = _generate(config)
    write_dataset(train_ds, train_path)
    write_dataset(test_ds, test_path)
    print(f"wrote {len(train_ds)} train records to {train_path}")
    print(f"wrote {len(test_ds)} test records to {test_path}")
    return 0


def _train_once(config: BenchConfig, spec: AnsatzSpec, dataset, seed: int,
                optimizer=None):
    """Build the circuit for spec, compile it for the readout qubit or the
    discard list and train it on dataset; returns (record, compiled), whose
    ``observed`` carries that target to ``_evaluate`` and ``_save_training``."""
    circuit, pooled = build_ansatz(spec)
    if config.task == "classify":
        compiled = compile_for(circuit, "classify", readout=readout_qubit(spec))
    else:
        compiled = compile_for(circuit, "autoencode", discard=_resolve_discard(config, pooled))
    record = train(config.task, compiled, dataset, optimizer or config.optimizer, init_seed=seed)
    return record, compiled


def _save_training(config: BenchConfig, spec: AnsatzSpec, record, compiled: CompiledCircuit,
                   seed: int, out_dir: Path) -> None:
    """Write out_dir/model.json, with the readout qubit or the discard list
    the model was compiled for, and out_dir/train_record.json."""
    target = ({"readout": compiled.observed[0]} if config.task == "classify"
              else {"discard": compiled.observed})
    write_model(out_dir / "model.json", config.task, asdict(spec), record.final_params,
                init_seed=seed, metadata=_run_metadata(config), **target)
    write_train_record(out_dir / "train_record.json", record)


def _evaluate(config: BenchConfig, compiled: CompiledCircuit, params, dataset: Dataset,
              out_dir: Path, final_cost=None):
    """Run the task's evaluator on the compiled circuit and write its report
    to out_dir/report.json."""
    if config.task == "classify":
        report = evaluate_classifier(compiled, params, dataset)
    else:
        report = evaluate_autoencoder(compiled, params, dataset, final_cost=final_cost)
    write_report(out_dir / "report.json", config.task, asdict(report))
    return report


def _read_data(path: Path, num_qubits: int, role: str) -> Dataset:
    """The dataset at path, which must hold a record, on a chain of one site
    per model qubit."""
    if not path.exists():
        raise FileNotFoundError(f"{role} dataset not found: {path}")
    dataset = read_dataset(path)
    if not dataset.records:
        raise ValueError(f"{role} dataset {path} holds no records")
    if dataset.num_sites != num_qubits:
        raise ConfigError(
            f"{path} holds {dataset.num_sites}-site states but the model acts on "
            f"{num_qubits} qubits"
        )
    return dataset


def cmd_train(config: BenchConfig, args) -> int:
    out_dir = Path(args.out or config.out_dir)
    train_path, _ = _dataset_paths(config, out_dir)
    dataset = _read_data(train_path, config.model.num_qubits, "training")
    seed = args.seed if args.seed is not None else config.seed
    record, compiled = _train_once(config, config.model, dataset, seed)
    _save_training(config, config.model, record, compiled, seed, out_dir)
    status = "converged" if record.converged else "not converged"
    print(
        f"trained {model_name(config.model)} on {len(dataset)} samples: "
        f"final cost {record.final_cost:.6g} ({status}), "
        f"{record.evaluations} evaluations, {record.wall_time_total:.3f}s"
    )
    return 0


def cmd_eval(config: BenchConfig, args) -> int:
    out_dir = Path(args.out or config.out_dir)
    model_path = Path(args.model) if args.model else out_dir / "model.json"
    if not model_path.exists():
        raise FileNotFoundError(f"model file not found: {model_path}")
    model = read_model(model_path)
    if model["task"] != config.task:
        raise ConfigError(
            f"{model_path}: model file was trained for task {model['task']!r} "
            f"but the config says {config.task!r}"
        )
    spec = model["spec"]
    circuit, _ = build_ansatz(spec)
    train_path, test_path = _dataset_paths(config, out_dir)
    path = train_path if config.eval_on == "train" else test_path
    dataset = _read_data(path, spec.num_qubits, "evaluation")
    compiled = compile_for(circuit, config.task, model.get("readout"), model.get("discard"))
    report = _evaluate(config, compiled, model["params"], dataset, out_dir)
    if config.task == "classify":
        headline = f"accuracy {report.accuracy:.4f}, auc {report.auc}"
    else:
        headline = f"mean fidelity {report.mean_fidelity:.4f} over {len(report.fidelities)} states"
    print(f"evaluated {model_name(spec)} on {len(dataset)} samples: {headline}")
    print(f"wrote {out_dir / 'report.json'}")
    return 0


def _subsample(dataset: Dataset, size: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    picks = sorted(rng.permutation(len(dataset))[:size].tolist())
    return Dataset(
        dataset.kind, dataset.num_sites,
        [dataset.records[i] for i in picks], dict(dataset.metadata),
    )


def _benchmark_cell(config: BenchConfig, spec: AnsatzSpec, size: int, seed: int,
                    train_ds: Dataset, eval_ds: Dataset, cell_dir: Path) -> dict:
    row = {
        "model": model_name(spec),
        "family": spec.family,
        "N": spec.num_qubits,
        "layers": spec.layers,
        "n_params": param_count(spec),
        "live_params": None,
        "train_size": size,
        "optimizer": config.optimizer.kind,
        "seed": seed,
        "metric_name": "test_accuracy" if config.task == "classify" else "mean_fidelity",
        "metric_value": None,
        "auc": None,
        "time_total_s": None,
        "time_per_sample_s": None,
        "status": "ok",
    }
    try:
        subset = _subsample(train_ds, size, seed)
        optimizer = replace(config.optimizer, seed=seed)
        record, compiled = _train_once(config, spec, subset, seed, optimizer)
        report = _evaluate(config, compiled, record.final_params, eval_ds, cell_dir,
                           final_cost=record.final_cost)
        if config.task == "classify":
            row["metric_value"], row["auc"] = report.accuracy, report.auc
        else:
            row["metric_value"] = report.mean_fidelity
        row["live_params"] = record.live_params
        row["time_total_s"] = record.wall_time_total
        row["time_per_sample_s"] = record.wall_time_per_sample
        if not record.converged:
            row["status"] = "ok (optimizer hit iteration cap)"
        _save_training(config, spec, record, compiled, seed, cell_dir)
    except Exception as exc:  # cell failures land in the row, the sweep goes on
        row["status"] = f"error: {exc}"
    return row


def cmd_benchmark(config: BenchConfig, args) -> int:
    for key in ("train_path", "test_path"):
        if getattr(config.data, key) is not None:
            raise ConfigError(f"data.{key} is not read by benchmark, which generates "
                              "its data in process; remove it")
    out_dir = Path(args.out or config.out_dir)
    run_seed = args.seed if args.seed is not None else config.seed
    sizes = config.train_sizes or [None]
    models = config.benchmark_models()
    cell_names = [(model_name(spec), size) for spec in models for size in sizes]
    for i, (name, size) in enumerate(cell_names):
        if (name, size) in cell_names[:i]:  # both would write one cell directory
            raise ConfigError(f"benchmark cell {name} at train size "
                              f"{'all' if size is None else size} is listed twice")

    # both split sizes follow from the config, so a bad one is refused before any solve
    count = len(config.data.h_values)
    n_train = train_count(config.data.train_fraction, count)
    if (n_train if config.eval_on == "train" else count - n_train) == 0:
        raise ConfigError(
            "evaluation split is empty; adjust train_fraction or eval_on"
        )
    if n_train == 0:
        raise ConfigError("training split is empty; adjust train_fraction")
    sizes = [s if s is not None else n_train for s in sizes]
    for s in sizes:
        if s > n_train:
            raise ConfigError(
                f"train_size {s} exceeds the {n_train} available training records"
            )

    train_ds, test_ds = _generate(config)
    eval_ds = train_ds if config.eval_on == "train" else test_ds

    cells = []
    for mi, spec in enumerate(models):
        for si, size in enumerate(sizes):
            seed = cell_seed(run_seed, mi, si)
            cell_dir = out_dir / "cells" / f"{model_name(spec)}_size{size}"
            cells.append((spec, size, seed, cell_dir))

    def run_cell(cell):
        spec, size, seed, cell_dir = cell
        return _benchmark_cell(config, spec, size, seed, train_ds, eval_ds, cell_dir)

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(c) for c in cells]

    failures = [r for r in rows if r["status"].startswith("error")]
    meta = {
        "run_seed": run_seed,
        "config_hash": config_hash(config.raw),
        "config": config.raw,
        "metadata": _run_metadata(config),
        "rows": len(rows),
        "failed_cells": len(failures),
    }
    write_results_csv(out_dir / "results.csv", rows)
    print(f"wrote {len(rows)} rows to {out_dir / 'results.csv'}")
    atomic_write(out_dir / "benchmark_meta.json", json.dumps(meta, indent=2) + "\n")
    for r in failures:
        print(f"cell {r['model']} size {r['train_size']}: {r['status']}", file=sys.stderr)
    return 0


def _worker_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqcbench",
        description="Benchmark QCNN and hardware-efficient ansatze on "
                    "phase classification and state compression.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen-data", "generate labeled ground-state datasets"),
        ("train", "train one model per the config"),
        ("eval", "evaluate a trained model file"),
        ("benchmark", "sweep models x training sizes, emit a results table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="override the output directory")
        if name in ("train", "benchmark"):
            p.add_argument("--seed", type=_seed, default=None, help="override the run seed")
        if name == "eval":
            p.add_argument("--model", default=None, help="model file (default: out/model.json)")
        if name == "benchmark":
            p.add_argument("--threads", type=_worker_count, default=1,
                           help="benchmark cells run at once (whatever it is, a pass "
                                "shares N = 16 rows across the CPUs)")
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LanczosConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
