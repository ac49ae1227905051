"""File formats: JSONL datasets, JSON model/record/report files, CSV results.

Dataset files are line-delimited JSON: one header object, then one object
per record.  Floats are serialized with Python's shortest-roundtrip repr,
so write -> read -> write is byte-identical and parameter vectors survive
at full binary precision.  Records omit the "im" array when every
imaginary part is exactly zero (always true for the spin-chain ground
states persisted here).  A record's text is exactly what ``json.dumps``
writes, but an amplitude array is formatted one distinct value at a time:
a symmetry-sector ground state repeats each value over its orbit (a TFI
N = 16 state holds 16512 distinct values among 65536 amplitudes).  The
reader rejects, with the file and record in the message, a line that is
not JSON, a header ``N`` outside [1, MAX_SITES] and any field of the wrong
type, a boolean among amplitudes included.

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

from .config import ConfigError, checked_discard, integer, items, model_spec_from_dict, number
from .optimizers import TrainRecord
from .spinmodels import MAX_SITES, MODEL_KINDS, DataRecord, Dataset
from .training import TASKS

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


def _loads(line: str, where: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _floats_text(values) -> str:
    """``_dumps(values.tolist())`` for a 1-D array read as float64, with each
    distinct bit pattern (so -0.0 apart from 0.0) formatted once by
    ``float.__repr__``, the text json writes for a finite float."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        _dumps(float(values[~finite][0]))  # raises json's ValueError
    unique, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, unique.view(np.float64).tolist())), dtype=object)
    return "[" + ",".join(texts[inverse].tolist()) + "]"


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
        line = _dumps({"h": float(rec.h), "label": int(rec.label)})[:-1]  # open for "re"
        line += ',"re":' + _floats_text(state.real)
        if np.iscomplexobj(state) and np.any(state.imag != 0.0):
            line += ',"im":' + _floats_text(state.imag)
        lines.append(line + "}")
    atomic_write(path, "\n".join(lines) + "\n")


def read_dataset(path) -> Dataset:
    path = Path(path)
    with path.open() as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = _loads(lines[0], f"{path}: header")
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {header.get('format_version')}")
    if header.get("bit_order") != BIT_ORDER:
        raise ValueError(f"{path}: unexpected bit_order {header.get('bit_order')!r}")
    if header.get("model") not in MODEL_KINDS:
        raise ValueError(f"{path}: unknown model {header.get('model')!r}")
    n = integer(header.get("N"), "N", f"{path}: header")
    if not 1 <= n <= MAX_SITES:
        raise ValueError(f"{path}: header.N must be in [1, {MAX_SITES}], got {n}")
    dim = 1 << n
    h_c = header.get("h_c")
    critical = h_c is not None and not (isinstance(h_c, float) and np.isnan(h_c))
    if critical:
        number(h_c, "h_c", f"{path}: header")
    records = []
    for i, line in enumerate(lines[1:], 1):
        where = f"{path}: record {i}"
        obj = _loads(line, where)
        if not isinstance(obj, dict):
            raise ValueError(f"{where} is not a JSON object")
        h = number(obj.get("h"), "h", where)
        label = integer(obj.get("label"), "label", where)
        parts = {"re": obj.get("re")}
        if "im" in obj:
            parts["im"] = obj["im"]
        for key, values in parts.items():
            # no dtype here, so strings, nulls and nesting show in the dtype
            part = parts[key] = np.asarray(values)
            if part.shape != (dim,) or part.dtype.kind not in "iuf":
                raise ValueError(f"{where}: {key!r} must be a list of {dim} numbers, "
                                 f"got shape {part.shape} of {part.dtype}")
            if bool in set(map(type, values)):  # np.asarray reads them as 0 and 1
                raise ValueError(f"{where}: {key!r} must be a list of {dim} numbers, "
                                 "got a boolean among them")
        state = parts["re"].astype(float, copy=False)
        if "im" in parts:  # assigned, not re + 1j * im, which turns -0.0 into 0.0
            state = state.astype(complex)
            state.imag = parts["im"]
        if not abs(np.linalg.norm(state) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"{where} at h={h} is not normalized")
        if label not in (-1, 1):
            raise ValueError(f"{where}: label must be +-1, got {label}")
        if critical:
            if abs(h - h_c) < 1e-9:
                raise ValueError(f"{where} is at the critical point h={h}")
            if label != (1 if h > h_c else -1):
                raise ValueError(f"{where}: label {label} inconsistent with h={h}")
        records.append(DataRecord(state=state, h=h, label=label))
    metadata = {
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
    """A model file with its task, model section (parsed into ``spec``), finite
    parameters and the task's readout qubit or discard list (sorted and
    de-duplicated) checked, the last two against the model's qubits; any of
    them missing, of the wrong type or out of range raises ConfigError."""
    obj = _loads(Path(path).read_text(), str(path))
    if not isinstance(obj, dict) or obj.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format_version")
    where = "model file"
    if obj.get("task") not in TASKS:
        raise ConfigError(f"{where}.task must be one of {list(TASKS)}, got {obj.get('task')!r}")
    if not isinstance(obj.get("model"), dict):
        raise ConfigError(f"{where}.model must be an object, got {obj.get('model')!r}")
    obj["spec"] = spec = model_spec_from_dict(obj["model"], where)
    obj["params"] = np.asarray(items(obj, "params", where, number), dtype=float)
    n = spec.num_qubits
    if obj["task"] == "classify":
        obj["readout"] = readout = integer(obj.get("readout"), "readout", where)
        if not 0 <= readout < n:
            raise ConfigError(f"{where}.readout {readout} out of range for {n} qubits")
    else:
        obj["discard"] = checked_discard(items(obj, "discard", where, integer), n, where)
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
