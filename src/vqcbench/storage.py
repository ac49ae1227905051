"""File formats: JSONL datasets, JSON model/record/report files, CSV results.

Dataset files are line-delimited JSON: one header object, then one object
per record.  Records omit the "im" array when every imaginary part is
exactly zero (always true for the spin-chain ground states persisted here).
The header and the small files (model, train record, report) are written by
``json.dumps``, floats as Python's shortest-roundtrip repr, so parameter
vectors survive at full binary precision.  Records are written from their
numpy parts, and parsed, by orjson, several times faster than json on a
2^16-amplitude list.  Its float text is also the shortest that reads back
to the same bits, though spelled otherwise for some magnitudes
(``0.0000826171810295258`` for repr's ``8.26171810295258e-05``, ``1e16``
for ``1e+16``): stdlib json reads every value of a file to the same float,
and write -> read -> write is byte-identical.  A record line orjson refuses
(a NaN or Infinity literal, a number beyond the float range, a lone
surrogate, text that is not JSON) is parsed again by json, so it keeps
json's outcome and message.  The header stays on json, which reads an
integer beyond 64 bits exactly where orjson gives a float.  The reader
rejects, with the file and record in the message, a line that is not JSON,
a header ``N`` outside [1, MAX_SITES] and any field of the wrong type, a
boolean among amplitudes included.

Datasets are written and read one record at a time, so neither side holds
more than a record's text: ``write_dataset`` refuses a non-finite value
before the file opens (orjson would write it as null), then streams each
record's text into the temporary file of ``atomic_write``; ``read_dataset``
reads, decodes and checks one line at a time (``config.read_lines``), and
names a byte that is not UTF-8 by its offset in the file.

Every file is written atomically by ``atomic_write``: a temporary file in
the target's directory, then ``os.replace``, so a failed write leaves the
previous file as it was.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import threading
from pathlib import Path

import numpy as np

from .ansatz import param_count
from .config import (
    ConfigError,
    checked_discard,
    integer,
    items,
    model_spec_from_dict,
    number,
    read_lines,
    read_text,
)
from .optimizers import TrainRecord
from .spinmodels import MAX_SITES, MODEL_KINDS, DataRecord, Dataset
from .training import TASKS

FORMAT_VERSION = 1
BIT_ORDER = "q0-most-significant"

RESULT_COLUMNS = [
    "model", "family", "N", "layers", "n_params", "live_params", "train_size",
    "metric_name", "metric_value", "auc",
    "time_total_s", "time_per_sample_s", "optimizer", "seed", "status",
]


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _loads(line: str, where: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: {exc}") from None


def atomic_write(path, text) -> None:
    """Replace path's contents with text, a string or an iterable of strings
    or bytes written one at a time, creating its directory.

    The text goes to a temporary file beside path, which ``os.replace`` then
    moves over it; on any failure, one raised while the iterable yields its
    strings included, the temporary file is removed and path keeps its
    previous contents.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in [text] if isinstance(text, str) else text:
                f.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def write_dataset(dataset: Dataset, path) -> None:
    """Write dataset to path; a header without a critical point (an ``h_c``
    that is absent, None or NaN) gets ``"h_c": null``, as the reader takes."""
    import orjson  # at first use: a run that writes no dataset never loads it

    meta = dataset.metadata
    h_c = meta.get("h_c")
    header = {
        "format_version": FORMAT_VERSION,
        "model": dataset.kind,
        "N": dataset.num_sites,
        "h_c": None if h_c is None or math.isnan(h_c) else float(h_c),
        "bit_order": BIT_ORDER,
        "solver": meta.get("solver"),
        "seed": meta.get("seed"),
        "h_grid": [float(h) for h in meta.get("h_grid", [])],
        "train_fraction": meta.get("train_fraction"),
        "split": meta.get("split"),
        "phase_convention": meta.get("phase_convention"),
    }
    head = _dumps(header) + "\n"
    for rec in dataset.records:  # a non-finite value is refused before the file opens
        for part in (rec.h, np.real(rec.state), np.imag(rec.state)):
            values = np.asarray(part, dtype=float).ravel()
            bad = values[~np.isfinite(values)]
            if bad.size:
                _dumps(float(bad[0]))  # raises json's ValueError

    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE

    def chunks():
        yield head
        for rec in dataset.records:
            state = np.asarray(rec.state)
            # orjson writes a float64 array only when it is C-contiguous,
            # which the parts of a complex array are not
            obj = {"h": float(rec.h), "label": int(rec.label),
                   "re": np.ascontiguousarray(state.real, dtype=float)}
            if np.iscomplexobj(state) and np.any(state.imag != 0.0):
                obj["im"] = np.ascontiguousarray(state.imag, dtype=float)
            yield orjson.dumps(obj, option=option)

    atomic_write(path, chunks())


def read_dataset(path) -> Dataset:
    path = Path(path)
    lines = (line for line in read_lines(path) if line.strip())
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{path}: empty dataset file")
    header = _loads(first, f"{path}: header")
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
    # one record's parsed text is freed before the next line is read
    records = [_read_record(line, f"{path}: record {i}", dim, h_c if critical else None)
               for i, line in enumerate(lines, 1)]
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


def _read_record(line: str, where: str, dim: int, h_c) -> DataRecord:
    """The record a dataset line holds, checked; h_c is None where the header
    gives no critical point."""
    import orjson

    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError:  # NaN, Infinity, 1e400, a lone surrogate, not JSON
        obj = _loads(line, where)  # json's outcome and message
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
    if h_c is not None:
        if abs(h - h_c) < 1e-9:
            raise ValueError(f"{where} is at the critical point h={h}")
        if label != (1 if h > h_c else -1):
            raise ValueError(f"{where}: label {label} inconsistent with h={h}")
    return DataRecord(state=state, h=h, label=label)


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
    parameters, one per slot of the model (as ``n_params``, when present,
    says), and the task's readout qubit or discard list (sorted and
    de-duplicated) checked, the last two against the model's qubits; any of
    them missing, of the wrong type or out of range raises a ConfigError
    that names the file."""
    obj = _loads(read_text(path), str(path))
    if not isinstance(obj, dict) or obj.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format_version")
    try:
        _check_model(obj)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return obj


def _check_model(obj: dict) -> None:
    """``read_model``'s checks of a model file's fields, which it fills in."""
    where = "model file"
    if obj.get("task") not in TASKS:
        raise ConfigError(f"{where}.task must be one of {list(TASKS)}, got {obj.get('task')!r}")
    if not isinstance(obj.get("model"), dict):
        raise ConfigError(f"{where}.model must be an object, got {obj.get('model')!r}")
    obj["spec"] = spec = model_spec_from_dict(obj["model"], where)
    obj["params"] = np.asarray(items(obj, "params", where, number), dtype=float)
    slots = param_count(spec)
    if len(obj["params"]) != slots:
        raise ConfigError(f"params holds {len(obj['params'])} values, "
                          f"but the model has {slots} parameters")
    if "n_params" in obj and integer(obj["n_params"], "n_params", where) != slots:
        raise ConfigError(f"n_params is {obj['n_params']}, "
                          f"but the model has {slots} parameters")
    n = spec.num_qubits
    if obj["task"] == "classify":
        obj["readout"] = readout = integer(obj.get("readout"), "readout", where)
        if not 0 <= readout < n:
            raise ConfigError(f"{where}.readout {readout} out of range for {n} qubits")
    else:
        obj["discard"] = checked_discard(items(obj, "discard", where, integer), n, where)


def write_train_record(path, record: TrainRecord) -> None:
    obj = {
        "format_version": FORMAT_VERSION,
        "cost_history": [float(c) for c in record.cost_history],
        "final_cost": float(record.final_cost),
        "best_cost": float(min(record.cost_history)),
        "evaluations": record.evaluations,
        "live_params": record.live_params,
        "wall_time_total": record.wall_time_total,
        "pass_workers": record.pass_workers,
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
