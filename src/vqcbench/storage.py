"""File formats: JSONL datasets, JSON model/record/report files, CSV results.

Dataset files are line-delimited JSON: one header object, then one object
per record.  Floats are serialized with Python's shortest-roundtrip repr,
so write -> read -> write is byte-identical and parameter vectors survive
at full binary precision.  Records omit the "im" array when every
imaginary part is exactly zero (always true for the spin-chain ground
states persisted here).

Every file is written atomically by ``atomic_write``: a temporary file in
the target's directory, then ``os.replace``, so a failed write leaves the
previous file as it was.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import threading
from pathlib import Path

import numpy as np

from .optimizers import TrainRecord
from .spinmodels import DataRecord, Dataset

FORMAT_VERSION = 1
BIT_ORDER = "q0-most-significant"

RESULT_COLUMNS = [
    "model", "family", "N", "layers", "n_params", "train_size",
    "metric_name", "metric_value", "auc",
    "time_total_s", "time_per_sample_s", "optimizer", "seed", "status",
]

# columns that vary across runs even with fixed seeds
TIMING_COLUMNS = ("time_total_s", "time_per_sample_s")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def atomic_write(path, text: str) -> None:
    """Replace path's contents with text, creating its directory.

    The text goes to a temporary file beside path, which ``os.replace`` then
    moves over it; on any failure the temporary file is removed and path
    keeps its previous contents.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(text.encode())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def write_dataset(dataset: Dataset, path) -> None:
    meta = dataset.metadata
    header = {
        "format_version": FORMAT_VERSION,
        "model": dataset.kind,
        "N": dataset.num_sites,
        "h_c": float(meta.get("h_c", float("nan"))),
        "bit_order": BIT_ORDER,
        "solver": meta.get("solver"),
        "seed": meta.get("seed"),
        "h_grid": [float(h) for h in meta.get("h_grid", [])],
        "train_fraction": meta.get("train_fraction"),
        "split": meta.get("split"),
        "phase_convention": meta.get("phase_convention"),
    }
    lines = [_dumps(header)]
    for rec in dataset.records:
        state = np.asarray(rec.state)
        obj = {"h": float(rec.h), "label": int(rec.label),
               "re": [float(v) for v in state.real]}
        if np.iscomplexobj(state) and np.any(state.imag != 0.0):
            obj["im"] = [float(v) for v in state.imag]
        lines.append(_dumps(obj))
    atomic_write(path, "\n".join(lines) + "\n")


def read_dataset(path) -> Dataset:
    path = Path(path)
    with path.open() as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = json.loads(lines[0])
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {header.get('format_version')}")
    if header.get("bit_order") != BIT_ORDER:
        raise ValueError(f"{path}: unexpected bit_order {header.get('bit_order')!r}")
    n = int(header["N"])
    dim = 1 << n
    h_c = header.get("h_c")
    records = []
    for line in lines[1:]:
        obj = json.loads(line)
        re = np.asarray(obj["re"], dtype=float)
        if re.shape != (dim,):
            raise ValueError(f"{path}: record has {re.shape[0]} amplitudes, expected {dim}")
        state = re if "im" not in obj else re + 1j * np.asarray(obj["im"], dtype=float)
        if abs(np.linalg.norm(state) - 1.0) > 1e-9:
            raise ValueError(f"{path}: record at h={obj['h']} is not normalized")
        label = int(obj["label"])
        if label not in (-1, 1):
            raise ValueError(f"{path}: label must be +-1, got {label}")
        if h_c is not None and not np.isnan(h_c):
            if abs(obj["h"] - h_c) < 1e-9:
                raise ValueError(f"{path}: record at the critical point h={obj['h']}")
            if label != (1 if obj["h"] > h_c else -1):
                raise ValueError(f"{path}: label {label} inconsistent with h={obj['h']}")
        records.append(DataRecord(state=state, h=float(obj["h"]), label=label))
    metadata = {
        "kind": header["model"],
        "num_sites": n,
        "h_c": h_c,
        "h_grid": header.get("h_grid", []),
        "solver": header.get("solver"),
        "seed": header.get("seed"),
        "train_fraction": header.get("train_fraction"),
        "split": header.get("split"),
        "phase_convention": header.get("phase_convention"),
    }
    return Dataset(header["model"], n, records, metadata)


def write_model(path, task, model_spec_dict, params, readout=None, discard=None,
                init_seed=None, metadata=None) -> None:
    obj = {
        "format_version": FORMAT_VERSION,
        "task": task,
        "model": model_spec_dict,
        "params": [float(p) for p in params],
        "n_params": int(len(params)),
        "readout": readout,
        "discard": sorted(int(q) for q in discard) if discard else None,
        "n_d": len(discard) if discard else None,
        "init_seed": init_seed,
        "metadata": metadata or {},
    }
    atomic_write(path, _dumps(obj) + "\n")


def read_model(path) -> dict:
    obj = json.loads(Path(path).read_text())
    if obj.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format_version")
    obj["params"] = np.asarray(obj["params"], dtype=float)
    return obj


def write_train_record(path, record: TrainRecord) -> None:
    obj = {
        "format_version": FORMAT_VERSION,
        "cost_history": [float(c) for c in record.cost_history],
        "final_cost": float(record.final_cost),
        "best_cost": float(min(record.cost_history)),
        "evaluations": record.evaluations,
        "wall_time_total": record.wall_time_total,
        "wall_time_per_sample": record.wall_time_per_sample,
        "converged": record.converged,
    }
    atomic_write(path, _dumps(obj) + "\n")


def write_report(path, task: str, report_dict: dict) -> None:
    obj = {"format_version": FORMAT_VERSION, "task": task}
    obj.update(report_dict)
    atomic_write(path, _dumps(obj) + "\n")


def write_results_csv(path, rows: list[dict]) -> None:
    """Rows sorted by (model, train_size); missing values become ''."""
    ordered = sorted(rows, key=lambda r: (str(r.get("model")), int(r.get("train_size", 0))))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RESULT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in ordered:
        writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in RESULT_COLUMNS})
    atomic_write(path, buf.getvalue())


def write_results_json(path, rows: list[dict]) -> None:
    ordered = sorted(rows, key=lambda r: (str(r.get("model")), int(r.get("train_size", 0))))
    atomic_write(path, json.dumps(ordered, indent=2) + "\n")


def strip_timing_columns(csv_text: str) -> str:
    """Drop timing columns from a results CSV (for determinism comparisons)."""
    lines = csv_text.splitlines()
    reader = csv.reader(lines)
    rows = list(reader)
    header = rows[0]
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    out = []
    for row in rows:
        out.append(",".join(row[i] for i in keep))
    return "\n".join(out) + "\n"
