"""Benchmark configuration: a single JSON document mirrored into dataclasses.

Validation is strict: unknown keys anywhere in the document are rejected
with the offending key named, so typos surface as exit code 2 instead of
silently falling back to defaults.  Numeric keys take finite JSON numbers
only, never null, booleans or strings, and a fraction given for an
integer key (counts, sizes, seeds, qubit indices) is rejected, not
truncated.  Path keys (``train_path``, ``test_path``, ``out_dir``) take
strings only.  The schema is the set of keys each
``from_dict`` below accepts; what the values mean is documented where they
are used: model families and parameter counts in ``vqcbench.ansatz``
(``param_count``), datasets in ``vqcbench.spinmodels``, optimizers in
``vqcbench.optimizers`` and the reported metrics in ``vqcbench.metrics``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ansatz import AnsatzSpec
from .optimizers import OptimizerConfig
from .spinmodels import (
    CRITICAL_POINT,
    DEFAULT_COMPRESSION_H,
    DEFAULT_GRID_SIZE,
    DEFAULT_H_RANGE,
    MODEL_KINDS,
    SOLVERS,
    uniform_grid,
)
from .training import TASKS, check_discard


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 2."""


def _check_keys(section: dict, allowed, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {section!r}")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def number(value, key: str, where: str) -> float:
    """A finite JSON number; null, booleans and strings are rejected."""
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def integer(value, key: str, where: str) -> int:
    """A JSON integer (2.0 counts as 2); fractions are rejected, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def seed(value, key: str, where: str) -> int:
    """A non-negative JSON integer, as numpy's seeded generators take."""
    value = integer(value, key, where)
    if value < 0:
        raise ConfigError(f"{where}.{key} must be a non-negative integer, got {value}")
    return value


def items(section: dict, key: str, where: str, parse) -> list:
    """The JSON list under key, each item read by ``parse``."""
    value = section.get(key)
    if not isinstance(value, list):
        raise ConfigError(f"{where}.{key} must be a list, got {value!r}")
    return [parse(item, f"{key}[{i}]", where) for i, item in enumerate(value)]


def checked_discard(discard: list[int], num_qubits: int, where: str) -> list[int]:
    """``check_discard`` of the discard list read from ``where``, whose
    ValueError becomes a ConfigError naming ``where``.discard."""
    try:
        return check_discard(discard, num_qubits)
    except ValueError as exc:
        raise ConfigError(f"{where}.discard: {exc} for {num_qubits} qubits") from exc


def read_text(path) -> str:
    """The UTF-8 text of the file at path; other bytes raise a ValueError
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _path(section: dict, key: str, where: str, default=None):
    """The string under key, or ``default`` when the key is absent."""
    value = section.get(key, default)
    if key in section and not isinstance(value, str):
        raise ConfigError(f"{where}.{key} must be a string, got {value!r}")
    return value


def model_spec_from_dict(d: dict, where: str = "model") -> AnsatzSpec:
    _check_keys(d, {"family", "num_qubits", "layers", "weight_sharing", "hea_template"}, where)
    family = _require(d, "family", where)
    weight_sharing = d.get("weight_sharing", True)
    if not isinstance(weight_sharing, bool):
        raise ConfigError(
            f"weight_sharing in {where} must be true or false, got {weight_sharing!r}"
        )
    try:
        return AnsatzSpec(
            family=family,
            num_qubits=integer(_require(d, "num_qubits", where), "num_qubits", where),
            layers=integer(_require(d, "layers", where), "layers", where),
            weight_sharing=weight_sharing,
            hea_template=d.get("hea_template", "single_column"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@dataclass
class DataSpec:
    kind: str
    num_sites: int
    h_values: list[float]
    h_c: float
    train_fraction: float = 0.75
    seed: int = 0
    solver: str = "auto"
    train_path: str | None = None
    test_path: str | None = None

    @classmethod
    def from_dict(cls, d: dict, task: str, where: str = "data") -> "DataSpec":
        allowed = {"kind", "num_sites", "h_values", "h_start", "h_stop", "h_count",
                   "h_c", "train_fraction", "seed", "solver", "train_path", "test_path"}
        _check_keys(d, allowed, where)
        kind = d.get("kind", "tfi")
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown data kind {kind!r} in {where}")
        num_sites = integer(_require(d, "num_sites", where), "num_sites", where)
        h_c = number(d.get("h_c", CRITICAL_POINT[kind]), "h_c", where)
        if "h_values" in d:
            if any(k in d for k in ("h_start", "h_stop", "h_count")):
                raise ConfigError(f"{where}: give either h_values or h_start/h_stop/h_count")
            h_values = items(d, "h_values", where, number)
            if not h_values:
                raise ConfigError(f"{where}.h_values must hold at least one field value")
        elif any(k in d for k in ("h_start", "h_stop", "h_count")):
            start = number(d.get("h_start", DEFAULT_H_RANGE[0]), "h_start", where)
            stop = number(d.get("h_stop", DEFAULT_H_RANGE[1]), "h_stop", where)
            count = integer(d.get("h_count", DEFAULT_GRID_SIZE), "h_count", where)
            if count < 1:
                raise ConfigError(f"{where}.h_count must be positive, got {count}")
            h_values = uniform_grid(start, stop, count)
        elif task == "autoencode":
            h_values = list(DEFAULT_COMPRESSION_H)
        else:
            h_values = uniform_grid(*DEFAULT_H_RANGE, DEFAULT_GRID_SIZE)
        default_fraction = 1.0 if task == "autoencode" else 0.75
        fraction = number(d.get("train_fraction", default_fraction), "train_fraction", where)
        if not 0.0 <= fraction <= 1.0:
            raise ConfigError(f"{where}: train_fraction must be in [0, 1]")
        solver = d.get("solver", "auto")
        if solver not in SOLVERS:
            raise ConfigError(f"{where}: unknown solver {solver!r}")
        return cls(
            kind=kind, num_sites=num_sites, h_values=h_values, h_c=h_c,
            train_fraction=fraction, seed=seed(d.get("seed", 0), "seed", where),
            solver=solver,
            train_path=_path(d, "train_path", where), test_path=_path(d, "test_path", where),
        )


def optimizer_from_dict(d: dict, where: str = "optimizer") -> OptimizerConfig:
    allowed = {"kind", "max_iterations", "cost_tolerance", "param_tolerance",
               "learning_rate", "spsa", "seed", "line_search_tol"}
    _check_keys(d, allowed, where)
    kwargs = {"kind": d.get("kind", "powell")}
    if "max_iterations" in d:
        kwargs["max_iterations"] = integer(d["max_iterations"], "max_iterations", where)
    if "seed" in d:
        kwargs["seed"] = seed(d["seed"], "seed", where)
    for key in ("cost_tolerance", "param_tolerance", "learning_rate", "line_search_tol"):
        if key in d:
            kwargs[key] = number(d[key], key, where)
    spsa = d.get("spsa", {})
    _check_keys(spsa, {"a", "c", "alpha", "gamma"}, f"{where}.spsa")
    for src, dst in (("a", "spsa_a"), ("c", "spsa_c"),
                     ("alpha", "spsa_alpha"), ("gamma", "spsa_gamma")):
        if src in spsa:
            kwargs[dst] = number(spsa[src], src, f"{where}.spsa")
    try:
        return OptimizerConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@dataclass
class BenchConfig:
    task: str
    model: AnsatzSpec
    data: DataSpec
    optimizer: OptimizerConfig
    seed: int = 0
    out_dir: str = "runs"
    models: list[AnsatzSpec] = field(default_factory=list)
    train_sizes: list[int] = field(default_factory=list)
    discard: list[int] | None = None
    eval_on: str | None = None  # defaults: classify -> test, autoencode -> train
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "BenchConfig":
        allowed = {"task", "model", "models", "data", "optimizer", "seed",
                   "out_dir", "train_sizes", "discard", "eval_on"}
        _check_keys(d, allowed, "config")
        task = _require(d, "task", "config")
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}; expected one of {list(TASKS)}")
        model = model_spec_from_dict(_require(d, "model", "config"))
        data = DataSpec.from_dict(_require(d, "data", "config"), task)
        optimizer = optimizer_from_dict(d.get("optimizer", {}))
        models = items(d, "models", "config",
                       lambda m, key, _: model_spec_from_dict(m, key)) if "models" in d else []
        train_sizes = items(d, "train_sizes", "config", integer) if "train_sizes" in d else []
        if any(s <= 0 for s in train_sizes):
            raise ConfigError("train_sizes must be positive")
        discard = None
        if d.get("discard") is not None:
            discard = checked_discard(items(d, "discard", "config", integer),
                                      model.num_qubits, "config")
            if task != "autoencode":  # a key the task does not read is refused
                raise ConfigError(f"discard applies to autoencode only, not {task}")
        eval_on = d.get("eval_on")
        if eval_on not in (None, "train", "test"):
            raise ConfigError(f"eval_on must be 'train' or 'test', got {eval_on!r}")
        if model.num_qubits != data.num_sites:
            raise ConfigError(
                f"model acts on {model.num_qubits} qubits but data has {data.num_sites} sites"
            )
        for i, m in enumerate(models):
            if m.num_qubits != data.num_sites:
                raise ConfigError(
                    f"models[{i}] acts on {m.num_qubits} qubits but data has "
                    f"{data.num_sites} sites"
                )
        return cls(
            task=task, model=model, data=data, optimizer=optimizer,
            seed=seed(d.get("seed", 0), "seed", "config"),
            out_dir=_path(d, "out_dir", "config", "runs"),
            models=models, train_sizes=train_sizes, discard=discard,
            eval_on=eval_on or ("train" if task == "autoencode" else "test"),
            raw=d,
        )

    def benchmark_models(self) -> list[AnsatzSpec]:
        return self.models if self.models else [self.model]


def load_config(path) -> BenchConfig:
    path = Path(path)
    text = read_text(path)
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return BenchConfig.from_dict(d)


def cell_seed(run_seed: int, model_index: int, size_index: int) -> int:
    """Stable per-cell seed derived from the run seed and cell coordinates."""
    ss = np.random.SeedSequence((run_seed, model_index, size_index))
    return int(ss.generate_state(1)[0])
