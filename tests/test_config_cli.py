"""Config validation, file formats, and the four CLI commands end to end."""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import assume, given, settings, strategies as st

import vqcbench
from vqcbench import cli, simulator, spinmodels, storage
from vqcbench.config import BenchConfig, ConfigError, cell_seed, load_config
from vqcbench.optimizers import TrainRecord
from vqcbench.spinmodels import DataRecord, Dataset, generate_dataset
from vqcbench.storage import (
    read_dataset,
    read_model,
    write_dataset,
    write_model,
    write_report,
    write_results_csv,
    write_train_record,
)

from conftest import (
    assert_dataset_file_reads_as_reference,
    reference_dataset_text,
    strip_timing_columns,
)


def write_config(path, **overrides):
    base = {
        "task": "classify",
        "seed": 42,
        "out_dir": str(path.parent / "run"),
        "model": {"family": "qcnn_ry", "num_qubits": 4, "layers": 2},
        "data": {"kind": "tfi", "num_sites": 4, "h_start": 0.2, "h_stop": 1.8,
                 "h_count": 16, "seed": 7},
        "optimizer": {"kind": "powell", "max_iterations": 5},
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return base


# ---------------------------------------------------------------------------
# config parsing


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg, typo_key=1)
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(cfg)


def test_config_rejects_unknown_family(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg, model={"family": "qcnn_rz", "num_qubits": 4, "layers": 1})
    with pytest.raises(ConfigError, match=r"unknown ansatz family 'qcnn_rz'; expected one of "
                                          r"\['qcnn_ry', 'qcnn_so4', 'qcnn_su4', 'hea_ry', "
                                          r"'hea_rxrzrx'\]"):
        load_config(cfg)


def test_config_rejects_model_data_size_mismatch(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg, model={"family": "qcnn_ry", "num_qubits": 8, "layers": 1})
    with pytest.raises(ConfigError, match="8 qubits"):
        load_config(cfg)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_weight_sharing_must_be_a_json_boolean(tmp_path, value):
    cfg = tmp_path / "c.json"
    write_config(cfg, model={"family": "qcnn_ry", "num_qubits": 4, "layers": 2,
                             "weight_sharing": value})
    with pytest.raises(ConfigError, match="weight_sharing"):
        load_config(cfg)


def test_weight_sharing_false_is_read_as_false(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg, model={"family": "qcnn_ry", "num_qubits": 4, "layers": 2,
                             "weight_sharing": False})
    assert load_config(cfg).model.weight_sharing is False


def test_config_defaults(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg)
    config = load_config(cfg)
    assert config.eval_on == "test"
    assert config.optimizer.kind == "powell"
    assert len(config.data.h_values) == 16


def test_autoencode_defaults_to_five_states(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(
        cfg, task="autoencode",
        model={"family": "qcnn_ry", "num_qubits": 4, "layers": 1},
        data={"kind": "tfi", "num_sites": 4, "seed": 3},
    )
    config = load_config(cfg)
    assert config.data.h_values == [0.2, 0.6, 0.9, 1.4, 1.8]
    assert config.data.train_fraction == 1.0
    assert config.eval_on == "train"


def test_cell_seed_stable():
    assert cell_seed(42, 0, 1) == cell_seed(42, 0, 1)
    assert cell_seed(42, 0, 1) != cell_seed(42, 1, 0)
    assert cell_seed(1, 0, 0) != cell_seed(2, 0, 0)


# ---------------------------------------------------------------------------
# storage round trips


def test_dataset_roundtrip_byte_identical(tmp_path):
    train, _ = generate_dataset("tfi", 3, [0.4, 0.8, 1.3, 1.7], seed=5, train_fraction=1.0)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_dataset(train, p1)
    write_dataset(read_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_write_and_read_hold_one_record_at_a_time(tmp_path, monkeypatch):
    train, _ = generate_dataset("tfi", 14, [0.3, 0.6, 0.8, 1.2, 1.5, 1.8], train_fraction=1.0)
    path = tmp_path / "d.jsonl"
    # the reader's fixed 4 MiB file buffer would hide what it holds itself
    monkeypatch.setattr("vqcbench.config._READ_BUFFER", 1 << 16)
    tracemalloc.start()
    try:
        write_dataset(train, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_dataset(path)
        kept, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_dataset_file_reads_as_reference(path.read_bytes(), train)
    assert len(back) == 6
    # about 0.35 MB of text a record; holding the whole file's text peaked near
    # 19 records' worth when writing, and near 10 beyond the states read back
    record_text = path.stat().st_size / len(train)
    assert write_peak < 4 * record_text
    assert read_peak - kept < 4 * record_text


def test_dataset_reader_validates(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = {"format_version": 1, "model": "tfi", "N": 1, "h_c": 1.0,
              "bit_order": "q0-most-significant", "solver": "dense", "seed": 0,
              "h_grid": [0.5], "train_fraction": 1.0, "split": "train",
              "phase_convention": "largest-amplitude-positive"}
    # wrong label for h < h_c
    path.write_text(json.dumps(header) + "\n" +
                    json.dumps({"h": 0.5, "label": 1, "re": [1.0, 0.0]}) + "\n")
    with pytest.raises(ValueError, match="inconsistent"):
        read_dataset(path)
    # unnormalized record
    path.write_text(json.dumps(header) + "\n" +
                    json.dumps({"h": 0.5, "label": -1, "re": [1.0, 1.0]}) + "\n")
    with pytest.raises(ValueError, match="not normalized"):
        read_dataset(path)


@pytest.mark.parametrize("amplitudes", [{"re": [1.0]}, {"re": [1.0, 0.0], "im": [0.0]},
                                        {"re": [0.6, 0.0], "im": [0.0, 0.8, 0.0]}])
def test_dataset_reader_rejects_a_part_of_the_wrong_length(tmp_path, amplitudes):
    # a one-element "im" used to be broadcast over every amplitude
    path = tmp_path / "bad.jsonl"
    header = {"format_version": 1, "model": "tfi", "N": 1, "h_c": 1.0,
              "bit_order": "q0-most-significant"}
    path.write_text(json.dumps(header) + "\n" +
                    json.dumps({"h": 0.5, "label": -1, **amplitudes}) + "\n")
    with pytest.raises(ValueError, match=r"must be a list of 2 numbers, got shape \(\d,\)"):
        read_dataset(path)


@pytest.mark.parametrize("line,field,edit", [
    (1, "h", lambda rec: {**rec, "h": str(rec["h"])}),
    (1, "h", lambda rec: {**rec, "h": None}),
    (1, "h", lambda rec: {**rec, "h": True}),
    (1, "label", lambda rec: {**rec, "label": rec["label"] == 1}),
    (1, "'re'", lambda rec: {**rec, "re": [str(a) for a in rec["re"]]}),
    (1, "'re'", lambda rec: {**rec, "re": np.reshape(rec["re"], (4, 4)).tolist()}),
    (1, "'re'", lambda rec: {k: v for k, v in rec.items() if k != "re"}),
    (1, "'im'", lambda rec: {**rec, "im": ["0"] * len(rec["re"])}),
    (1, "'re'", lambda rec: {**rec, "re": [1, False] + [0] * (len(rec["re"]) - 2)}),
    (1, "'re'", lambda rec: {**rec, "re": [True] + [0.0] * (len(rec["re"]) - 1)}),
    (1, "not normalized", lambda rec: {**rec, "re": [float("nan")] + rec["re"][1:]}),
    (1, "label must be +-1", lambda rec: {**rec, "label": 10**30}),
    (1, "not normalized", lambda rec: {**rec, "re": [10**30] + rec["re"][1:]}),
    (1, "not a JSON object", lambda rec: [rec]),
    (0, "N", lambda header: {**header, "N": None}),
    (0, "h_c", lambda header: {**header, "h_c": "1.0"}),
    (0, "header is not a JSON object", lambda header: [header]),
    (0, "model", lambda header: {k: v for k, v in header.items() if k != "model"}),
    (0, "header.N must be in [1, 16], got -1", lambda header: {**header, "N": -1}),
    (0, "header.N must be in [1, 16], got 0", lambda header: {**header, "N": 0}),
    (0, "header.N must be in [1, 16], got 17", lambda header: {**header, "N": 17}),
    (0, "header.N must be in [1, 16], got 100000", lambda header: {**header, "N": 100000}),
], ids=["h-string", "h-null", "h-bool", "label-bool", "re-strings", "re-nested",
        "re-missing", "im-strings", "re-bool-mixed", "re-bool-float-mixed", "re-nan",
        "label-30-digits", "re-30-digits",
        "record-list", "header-N-null", "header-h_c-string", "header-list",
        "header-model-missing", "header-N-negative", "header-N-zero", "header-N-17",
        "header-N-100000"])
def test_bad_dataset_line_exits_2_without_traceback(tmp_path, capsys, line, field, edit):
    cfg = tmp_path / "c.json"
    write_config(cfg)
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "train.jsonl"
    lines = path.read_text().splitlines()
    lines[line] = json.dumps(edit(json.loads(lines[line])))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(path) in err and field in err and (line == 0 or "record 1" in err)
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("line,where", [(0, "header"), (1, "record 1")])
def test_dataset_line_that_is_not_json_exits_2_naming_file_and_line(tmp_path, capsys,
                                                                     line, where):
    cfg = tmp_path / "c.json"
    write_config(cfg)
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "train.jsonl"
    lines = path.read_text().splitlines()
    lines[line] = "{"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"train.jsonl: {where}: Expecting property name" in err


def test_model_roundtrip_full_precision(tmp_path):
    params = np.array([np.pi, 1 / 3, -7.123456789012345e-11, -0.0])  # one per slot
    path = tmp_path / "model.json"
    write_model(path, "classify", {"family": "hea_ry", "num_qubits": 2, "layers": 1,
                                   "weight_sharing": True, "hea_template": "single_column"},
                params, readout=0, init_seed=3)
    model = read_model(path)
    assert np.array_equal(model["params"], params)  # exact, not approximate
    assert model["task"] == "classify"
    assert model["readout"] == 0


@pytest.mark.parametrize("write", [
    lambda path, v: write_dataset(
        Dataset("tfi", 1, [DataRecord(np.array([1.0 - v, v]), 0.5, -1)], {"h_c": 1.0}), path),
    lambda path, v: write_model(path, "classify", {}, [v], readout=0),
    lambda path, v: write_train_record(
        path, TrainRecord(np.zeros(1), cost_history=[v], final_cost=v)),
    lambda path, v: write_report(path, "classify", {"accuracy": v}),
    lambda path, v: write_results_csv(path, [{"model": "m", "metric_value": v}]),
], ids=["dataset", "model", "train_record", "report", "results_csv"])
def test_failed_write_keeps_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, write):
    path = tmp_path / "sub" / "out.file"
    write(path, 0.0)  # creates the directory
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("injected failure before the replace")

    monkeypatch.setattr(storage.os, "replace", fail)
    with pytest.raises(OSError, match="injected"):
        write(path, 1.0)
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == ["out.file"]
    monkeypatch.undo()
    write(path, 1.0)
    assert path.read_bytes() != before
    assert [p.name for p in path.parent.iterdir()] == ["out.file"]


# Floats whose text is easy to get wrong: a signed zero, the smallest
# subnormal and a value near the top of the range.
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 1e308, -1e308)
finite = st.floats(allow_nan=False, allow_infinity=False)


def _write_read_write(write, read, obj):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        write(obj, first)
        back = read(first)
        write(back, second)
        assert first.read_bytes() == second.read_bytes()
    return back


@st.composite
def amplitude_parts(draw, dim, count, edge_values=st.sampled_from(EDGE_FLOATS[:3])):
    """``count`` real vectors of length ``dim`` whose joint norm is 1; drawn
    positions hold an ``edge_values`` float, by default a signed zero or a
    subnormal, which leave the norm be."""
    body = np.array([draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
                     for _ in range(count)])
    edges = draw(st.lists(edge_values, min_size=count * dim,
                          max_size=count * dim))
    at = np.array(draw(st.lists(st.booleans(), min_size=count * dim,
                                max_size=count * dim))).reshape(count, dim)
    body[at] = 0.0
    norm = np.linalg.norm(body)
    assume(norm > 1e-3)
    body /= norm
    body[at] = np.reshape(edges, (count, dim))[at]
    return body


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 3))
    h_c = draw(st.floats(-2.0, 2.0))
    h_values = st.one_of(finite, st.sampled_from(EDGE_FLOATS)).filter(
        lambda h: abs(h - h_c) >= 1e-9)
    records = []
    for h in draw(st.lists(h_values, max_size=3)):
        if draw(st.booleans()):
            re, im = draw(amplitude_parts(1 << n, 2))
            state = re + 1j * im
        else:
            state = draw(amplitude_parts(1 << n, 1))[0]
        records.append(DataRecord(state=state, h=h, label=1 if h > h_c else -1))
    meta = {"h_c": h_c, "h_grid": draw(st.lists(h_values, max_size=4)),
            "solver": draw(st.sampled_from([None, "dense", "lanczos"])),
            "seed": draw(st.integers(0, 2**80)), "train_fraction": draw(st.floats(0.0, 1.0)),
            "split": draw(st.sampled_from(["train", "test"])),
            "phase_convention": "largest-amplitude-positive"}
    return Dataset(draw(st.sampled_from(["tfi", "xxz"])), n, records, meta)


def _assert_same_records(got, records):
    """got holds records' h and label, and their amplitudes bit for bit; an
    imaginary part of exact zeros may come back as a real state."""
    for rec, back in zip(records, got, strict=True):
        assert back.label == rec.label
        assert np.array_equal(np.float64(back.h).view(np.uint64), np.float64(rec.h).view(np.uint64))
        state = np.asarray(rec.state)
        parts = [(state.real, back.state.real)]
        if np.any(state.imag != 0.0):
            parts.append((state.imag, back.state.imag))
        else:
            assert not np.any(back.state.imag)
        for want, have in parts:
            assert np.array_equal(want.view(np.uint64), have.view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(datasets())
def test_dataset_write_read_write_is_byte_identical(dataset):
    back = _write_read_write(write_dataset, read_dataset, dataset)
    _assert_same_records(back.records, dataset.records)


@settings(max_examples=80, deadline=None)
@given(datasets())
def test_dataset_file_reads_under_json_as_the_reference_text(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        write_dataset(dataset, path)
        assert_dataset_file_reads_as_reference(path.read_bytes(), dataset)


@pytest.mark.parametrize("kind,h_values", [("tfi", [0.3, 0.9, 1.2, 1.7]),
                                           ("xxz", [0.4, 0.8, 1.3, 1.6])])
def test_generated_dataset_file_reads_under_json_as_the_reference_text(tmp_path, kind,
                                                                       h_values):
    train, _ = generate_dataset(kind, 10, h_values, seed=3, train_fraction=1.0)
    write_dataset(train, tmp_path / "d.jsonl")
    assert_dataset_file_reads_as_reference((tmp_path / "d.jsonl").read_bytes(), train)


@settings(max_examples=80, deadline=None)
@given(datasets())
def test_dataset_file_in_the_json_dumps_text_reads_bit_for_bit(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        path.write_text(reference_dataset_text(dataset))
        back = read_dataset(path)
    _assert_same_records(back.records, dataset.records)


# Floats that orjson and repr spell apart: magnitudes below 1e-4 (-0.0 and
# subnormals among them) and from 1e16 up.
SPELLED_APART = st.one_of(st.floats(-1e-4, 1e-4), st.sampled_from(EDGE_FLOATS),
                          st.floats(min_value=1e16, allow_infinity=False),
                          st.floats(max_value=-1e16, allow_infinity=False))


@st.composite
def datasets_of_rows(draw, parts_of, h_values):
    """A dataset of one to three records on one to three sites, each state
    real or complex with its parts drawn by ``parts_of(dim, count)``, and no
    critical point, so any h and label read back."""
    n = draw(st.integers(1, 3))
    records = []
    for _ in range(draw(st.integers(1, 3))):
        parts = draw(parts_of(1 << n, draw(st.sampled_from([1, 2]))))
        state = parts[0]
        if len(parts) == 2:  # assigned, not re + 1j * im, which loses a -0.0
            state = parts[0].astype(complex)
            state.imag = parts[1]
        records.append(DataRecord(state, draw(h_values), draw(st.sampled_from([-1, 1]))))
    return Dataset("tfi", n, records, {"h_c": None})


@st.composite
def any_finite_parts(draw, dim, count):
    values = st.one_of(finite, SPELLED_APART)
    return np.array([draw(st.lists(values, min_size=dim, max_size=dim)) for _ in range(count)])


@settings(max_examples=80, deadline=None)
@given(datasets_of_rows(any_finite_parts, st.one_of(finite, SPELLED_APART)))
def test_any_finite_row_reads_under_json_to_its_bits(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        write_dataset(dataset, path)
        assert_dataset_file_reads_as_reference(path.read_bytes(), dataset)


@settings(max_examples=80, deadline=None)
@given(datasets_of_rows(lambda dim, count: amplitude_parts(
    dim, count, st.one_of(st.sampled_from(EDGE_FLOATS[:3]), st.floats(-1e-6, 1e-6))),
    st.one_of(finite, SPELLED_APART)))
def test_normalized_rows_read_under_json_and_read_dataset_to_their_bits(dataset):
    # edges below 1e-6 in magnitude move a norm of 1 by less than 1e-11
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        write_dataset(dataset, path)
        assert_dataset_file_reads_as_reference(path.read_bytes(), dataset)
        _assert_same_records(read_dataset(path).records, dataset.records)


@pytest.mark.parametrize("h_c", ["null", "NaN", None])
def test_dataset_without_a_critical_point_reads_writes_and_reads_again(tmp_path, h_c):
    record = {"h": 0.5, "label": 1, "re": [0.6, 0.8]}
    if h_c is None:  # a dataset whose metadata has no h_c at all
        write_dataset(Dataset("tfi", 1, [DataRecord(np.array(record["re"]), 0.5, 1)], {}),
                      tmp_path / "a.jsonl")
    else:
        header = {"format_version": 1, "model": "tfi", "N": 1,
                  "bit_order": "q0-most-significant"}
        (tmp_path / "a.jsonl").write_text(json.dumps(header)[:-1] + f', "h_c": {h_c}}}\n'
                                          + json.dumps(record) + "\n")
    first = read_dataset(tmp_path / "a.jsonl")
    write_dataset(first, tmp_path / "b.jsonl")
    assert json.loads((tmp_path / "b.jsonl").read_text().splitlines()[0])["h_c"] is None
    back = _write_read_write(write_dataset, read_dataset, read_dataset(tmp_path / "b.jsonl"))
    assert back.metadata["h_c"] is None
    _assert_same_records(back.records, first.records)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["re", "im"])
def test_dataset_with_a_non_finite_amplitude_raises_and_writes_nothing(tmp_path, bad, part):
    state = np.array([0.6, 0.0, 0.8j, 0.0])
    state[1] = complex(bad, 0.0) if part == "re" else complex(0.0, bad)
    dataset = Dataset("tfi", 2, [DataRecord(state, 0.5, -1)], {"h_c": 1.0})
    with pytest.raises(ValueError, match="JSON compliant"):
        reference_dataset_text(dataset)
    with pytest.raises(ValueError, match="JSON compliant"):
        write_dataset(dataset, tmp_path / "d.jsonl")
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["classify", "autoencode"]),
       st.lists(st.one_of(finite, st.sampled_from(EDGE_FLOATS)), min_size=4, max_size=4),
       st.integers(0, 7), st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
       st.one_of(st.none(), st.integers(0, 2**32)),
       st.dictionaries(st.text(max_size=5), st.one_of(finite, st.sampled_from(EDGE_FLOATS)),
                       max_size=3))
def test_model_write_read_write_is_byte_identical(task, params, readout, discard, init_seed,
                                                   metadata):
    spec = {"family": "qcnn_ry", "num_qubits": 8, "layers": 1}  # 4 parameters
    classify = task == "classify"

    def write(obj, path):
        write_model(path, obj["task"], obj["model"], obj["params"],
                    readout=obj["readout"], discard=obj["discard"],
                    init_seed=obj["init_seed"], metadata=obj["metadata"])

    back = _write_read_write(write, read_model, {
        "task": task, "model": spec, "params": params,
        "readout": readout if classify else None, "discard": None if classify else discard,
        "init_seed": init_seed, "metadata": metadata})
    assert np.array_equal(np.asarray(params, dtype=float).view(np.uint64),
                          back["params"].view(np.uint64))


def test_strip_timing_columns():
    text = "model,time_total_s,seed\nqcnn,1.23,7\n"
    assert strip_timing_columns(text) == "model,seed\nqcnn,7\n"


# ---------------------------------------------------------------------------
# CLI commands


def test_gen_data_counts_and_determinism(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg, data={"kind": "tfi", "num_sites": 4, "h_start": 0.2,
                            "h_stop": 1.8, "h_count": 64, "seed": 7,
                            "train_fraction": 0.75})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out_b)]) == 0
    train_a = read_dataset(out_a / "train.jsonl")
    test_a = read_dataset(out_a / "test.jsonl")
    assert len(train_a) == 48
    assert len(test_a) == 16
    assert (out_a / "train.jsonl").read_bytes() == (out_b / "train.jsonl").read_bytes()
    assert (out_a / "test.jsonl").read_bytes() == (out_b / "test.jsonl").read_bytes()


def test_gen_data_rejects_critical_grid_point(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_config(cfg, data={"kind": "tfi", "num_sites": 4, "h_values": [0.5, 1.0],
                            "seed": 7})
    code = cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "1.0" in capsys.readouterr().err


def test_unknown_family_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_config(cfg, model={"family": "qcnn_xy", "num_qubits": 4, "layers": 1})
    assert cli.main(["gen-data", "--config", str(cfg)]) == 2
    assert "qcnn_xy" in capsys.readouterr().err


@pytest.mark.parametrize("gain", [{"c": 0}, {"a": -0.2}, {"alpha": -1},
                                  {"gamma": float("nan")}, {"c": float("inf")},
                                  {"c": None}, {"a": "0.2"}, {"c": True}, 5])
def test_bad_spsa_gain_exits_2_without_traceback(tmp_path, capsys, gain):
    cfg = tmp_path / "c.json"
    write_config(cfg, optimizer={"kind": "spsa", "max_iterations": 2, "spsa": gain})
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "spsa" in err


@pytest.mark.parametrize("iterations,gain,key", [
    (400, {"gamma": 200}, "spsa_gamma"),  # (k+1)^gamma overflows
    (2, {"gamma": 1e308}, "spsa_gamma"),
    (2, {"alpha": 1e308}, "spsa_alpha"),
    (1000, {"c": 1e-300, "gamma": 10}, "spsa_gamma"),  # c/(k+1)^gamma underflows to 0
    (1000, {"a": 1e-300, "alpha": 10}, "spsa_alpha"),
])
def test_spsa_gain_that_reaches_zero_exits_2_naming_its_key(tmp_path, capsys, iterations, gain,
                                                              key):
    cfg = tmp_path / "c.json"
    write_config(cfg, optimizer={"kind": "spsa", "max_iterations": iterations, "spsa": gain})
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{key} {float(gain[key.split('_')[1]])!r} makes the gain" in err
    assert f"reach 0 within max_iterations {iterations}" in err


@pytest.mark.parametrize("iterations,gain", [
    (1, {"gamma": 1e308}),  # the only gain is c/1^gamma = c
    (20, {"c": 1e-300, "gamma": 5}),  # the last c_k is subnormal, not 0
])
def test_spsa_gain_that_stays_above_zero_trains(tmp_path, iterations, gain):
    cfg = tmp_path / "c.json"
    write_config(cfg, optimizer={"kind": "spsa", "max_iterations": iterations, "spsa": gain})
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("grid,message", [
    ({"h_count": 0}, "data.h_count must be positive, got 0"),
    ({"h_count": -3}, "data.h_count must be positive, got -3"),
    ({"h_start": 0.2, "h_stop": 1.8, "h_count": 0}, "data.h_count must be positive, got 0"),
    ({"h_values": []}, "data.h_values must hold at least one field value"),
])
def test_empty_field_grid_exits_2_naming_its_key(tmp_path, capsys, grid, message):
    cfg = tmp_path / "c.json"
    write_config(cfg, data={"kind": "tfi", "num_sites": 4, **grid})
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not out.exists()


_DATA = {"kind": "tfi", "num_sites": 4, "h_start": 0.2, "h_stop": 1.8, "h_count": 16}


@pytest.mark.parametrize("command,overrides,flags,message", [
    ("benchmark", {"seed": -1}, [], "config.seed must be a non-negative integer, got -1"),
    ("gen-data", {"data": {**_DATA, "seed": -7}}, [],
     "data.seed must be a non-negative integer, got -7"),
    ("train", {"data": {**_DATA, "seed": -7}}, [],
     "data.seed must be a non-negative integer, got -7"),
    ("train", {"optimizer": {"kind": "spsa", "max_iterations": 5, "seed": -1}}, [],
     "optimizer.seed must be a non-negative integer, got -1"),
    ("benchmark", {}, ["--seed", "-2"], "--seed: expected a non-negative integer, got '-2'"),
])
def test_negative_seed_exits_2_naming_its_key_before_any_solve(tmp_path, capsys, monkeypatch,
                                                               command, overrides, flags,
                                                               message):
    solves = []
    monkeypatch.setattr(cli, "generate_dataset", lambda *a, **k: solves.append(a))
    cfg = tmp_path / "c.json"
    write_config(cfg, **overrides)
    out = tmp_path / "run"
    try:
        code = cli.main([command, "--config", str(cfg), "--out", str(out)] + flags)
    except SystemExit as exc:  # argparse refuses the flag's value itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert solves == []
    assert not out.exists()


@pytest.mark.parametrize("section,key,value", [
    ("optimizer", "max_iterations", None),
    ("optimizer", "max_iterations", 2.9),
    ("optimizer", "max_iterations", "3"),
    ("optimizer", "seed", True),
    ("optimizer", "learning_rate", None),
    ("optimizer", "cost_tolerance", "1e-8"),
    ("model", "layers", 1.7),
    ("model", "layers", 10**30),  # 1 << layers would overflow
    ("model", "num_qubits", None),
    ("data", "num_sites", "4"),
    ("data", "h_count", 2.5),
    ("data", "h_start", None),
    ("data", "h_c", float("inf")),
    ("data", "train_fraction", False),
    ("data", "seed", 7.5),
    ("config", "seed", "42"),
    ("config", "train_sizes", [2.5]),
    ("config", "train_sizes", 4),
    ("config", "discard", [0.5]),
    ("config", "models", 5),
    ("data", "train_path", 5),
    ("data", "test_path", None),
    ("config", "out_dir", 5),
])
def test_bad_numeric_key_exits_2_without_traceback(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "c.json"
    base = write_config(cfg)
    if section == "config":
        base[key] = value
    else:
        base[section][key] = value
    cfg.write_text(json.dumps(base))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert key in err


def test_bad_h_values_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_config(cfg, data={"kind": "tfi", "num_sites": 4, "h_values": [0.5, None]})
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "h_values[1]" in capsys.readouterr().err


def test_diverging_gradient_descent_exits_4_without_traceback(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_config(cfg, optimizer={"kind": "param_shift_gd", "max_iterations": 50,
                                 "learning_rate": 1e308})
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "diverged" in err
    assert not (out / "train_record.json").exists()


def test_arpack_nonconvergence_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    cfg = tmp_path / "c.json"
    write_config(cfg, data={"kind": "tfi", "num_sites": 4, "h_values": [0.5, 1.5],
                            "solver": "lanczos"})
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "No convergence" in err
    assert not (out / "train.jsonl").exists()


def test_importing_the_cli_leaves_scipy_unloaded():
    # train and eval never solve, so their processes do not pay for scipy
    code = ("import sys, vqcbench.cli; "
            "sys.exit(next((m for m in sys.modules if m.startswith('scipy')), None))")
    env = dict(os.environ, PYTHONPATH=str(Path(vqcbench.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# A line_search_step of 1e308 used to expand Powell's bracket until the run
# ended in exit 4 with ``message``; the bracket step is now fixed, and the
# config refuses the key before anything runs.
@pytest.mark.parametrize("seed,data,message", [
    (42, {"kind": "tfi", "num_sites": 4, "h_start": 0.2, "h_stop": 1.8, "h_count": 16,
          "seed": 7}, "non-finite parameters"),
    (0, {"kind": "tfi", "num_sites": 4, "h_values": [0.5, 0.7, 1.3, 1.5], "seed": 1},
     "non-finite width"),
])
def test_diverging_powell_line_search_exits_4_without_traceback(tmp_path, capsys, seed, data,
                                                                 message):
    cfg = tmp_path / "c.json"
    write_config(cfg, seed=seed, data=data,
                 optimizer={"kind": "powell", "line_search_step": 1e308})
    out = tmp_path / "run"
    for command in ("gen-data", "train"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "unknown key 'line_search_step' in optimizer" in err
    assert message not in err
    assert not out.exists()


def test_train_missing_dataset_exits_3(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 3


def test_train_classify_writes_model_with_9_params(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg)
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    model = read_model(out / "model.json")
    assert model["n_params"] == 9
    assert len(model["params"]) == 9
    assert model["readout"] == 0
    assert model["metadata"]["surrogate_cost"] is True
    record = json.loads((out / "train_record.json").read_text())
    assert record["evaluations"] == len(record["cost_history"])


def test_train_record_keeps_the_pass_worker_count_beside_the_wall_time(tmp_path, monkeypatch):
    # a reader can tell a time taken on one CPU from one taken on several
    cfg = tmp_path / "c.json"
    write_config(cfg)
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    for workers in (1, 3):
        monkeypatch.setattr(simulator, "_WORKERS", workers)
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        record = json.loads((out / "train_record.json").read_text())
        keys = list(record)
        assert keys[keys.index("wall_time_total") + 1] == "pass_workers"
        assert record["pass_workers"] == workers


def test_train_autoencode_records_discard(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(
        cfg, task="autoencode",
        model={"family": "qcnn_ry", "num_qubits": 4, "layers": 1},
        data={"kind": "tfi", "num_sites": 4, "seed": 3},
        optimizer={"kind": "powell", "max_iterations": 3},
    )
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    model = read_model(out / "model.json")
    assert model["discard"] == [1, 3]
    assert model["n_d"] == 2
    assert model["task"] == "autoencode"


def _perfect_toy_model(tmp_path):
    """Handcrafted identity-circuit model plus a separable basis-state
    dataset: |10> at h=0.5 (label -1) and |00> at h=1.5 (label +1)."""
    out = tmp_path / "run"
    out.mkdir(parents=True, exist_ok=True)
    header = {"format_version": 1, "model": "tfi", "N": 2, "h_c": 1.0,
              "bit_order": "q0-most-significant", "solver": "dense", "seed": 0,
              "h_grid": [0.5, 1.5], "train_fraction": 0.0, "split": "test",
              "phase_convention": "largest-amplitude-positive"}
    rec_lo = {"h": 0.5, "label": -1, "re": [0.0, 0.0, 1.0, 0.0]}
    rec_hi = {"h": 1.5, "label": 1, "re": [1.0, 0.0, 0.0, 0.0]}
    (out / "test.jsonl").write_text(
        "\n".join(json.dumps(o) for o in (header, rec_lo, rec_hi)) + "\n"
    )
    spec = {"family": "hea_ry", "num_qubits": 2, "layers": 1,
            "weight_sharing": True, "hea_template": "single_column"}
    write_model(out / "model.json", "classify", spec, np.zeros(4), readout=0, init_seed=0)
    return out


def test_eval_perfect_toy_classifier(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg, model={"family": "hea_ry", "num_qubits": 2, "layers": 1},
                 data={"kind": "tfi", "num_sites": 2, "h_values": [0.5, 1.5], "seed": 0})
    out = _perfect_toy_model(tmp_path)
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["accuracy"] == 1.0
    assert report["auc"] == 1.0
    # idempotent: same inputs, byte-identical report
    first = (out / "report.json").read_bytes()
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report.json").read_bytes() == first


def test_eval_task_mismatch_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg, task="autoencode",
                 model={"family": "qcnn_ry", "num_qubits": 2, "layers": 1},
                 data={"kind": "tfi", "num_sites": 2, "seed": 0})
    out = _perfect_toy_model(tmp_path)  # classify model file
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 2


def test_eval_identity_encoder_fidelities_are_one(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(
        cfg, task="autoencode",
        model={"family": "hea_ry", "num_qubits": 2, "layers": 1},
        data={"kind": "tfi", "num_sites": 2, "h_values": [0.5, 1.5], "seed": 0,
              "train_path": str(tmp_path / "run" / "test.jsonl")},
        discard=[1],
    )
    out = _perfect_toy_model(tmp_path)
    spec = {"family": "hea_ry", "num_qubits": 2, "layers": 1,
            "weight_sharing": True, "hea_template": "single_column"}
    write_model(out / "model.json", "autoencode", spec, np.zeros(4), discard=[1], init_seed=0)
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fidelities"] == [1.0, 1.0]


@pytest.mark.parametrize("task,key,value", [
    ("classify", "readout", 1.5),
    ("autoencode", "discard", [1.5, 1]),
])
def test_eval_rejects_non_integer_model_fields(tmp_path, capsys, task, key, value):
    cfg = tmp_path / "c.json"
    write_config(cfg, task=task, model={"family": "hea_ry", "num_qubits": 2, "layers": 1},
                 data={"kind": "tfi", "num_sites": 2, "h_values": [0.5, 1.5], "seed": 0,
                       "train_path": str(tmp_path / "run" / "test.jsonl")})
    out = _perfect_toy_model(tmp_path)
    model = json.loads((out / "model.json").read_text())
    model.update({"task": task, "discard": [1], key: value})
    (out / "model.json").write_text(json.dumps(model))
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert key in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("task,key,value", [
    ("classify", "task", None), ("classify", "task", 5),
    ("classify", "model", None), ("classify", "model", "hea_ry"),
    ("classify", "params", None), ("classify", "params", [0.0, "x", 0.0, 0.0]),
    ("classify", "readout", None), ("classify", "readout", "0"),
    ("autoencode", "discard", None), ("autoencode", "discard", 1),
    # in type but out of range for the model's 2 qubits
    ("classify", "readout", 9), ("autoencode", "discard", [9]), ("autoencode", "discard", []),
], ids=lambda v: "missing" if v is None else None)
def test_eval_rejects_model_file_missing_or_mistyped_key(tmp_path, capsys, task, key, value):
    cfg = tmp_path / "c.json"
    write_config(cfg, task=task, model={"family": "hea_ry", "num_qubits": 2, "layers": 1},
                 data={"kind": "tfi", "num_sites": 2, "h_values": [0.5, 1.5], "seed": 0,
                       "train_path": str(tmp_path / "run" / "test.jsonl")})
    out = _perfect_toy_model(tmp_path)
    model = json.loads((out / "model.json").read_text())
    model.update({"task": task, "discard": [1]})
    if value is None:
        del model[key]
    else:
        model[key] = value
    (out / "model.json").write_text(json.dumps(model))
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"model file.{key}" in err
    assert not (out / "report.json").exists()


def test_eval_names_a_model_file_that_is_not_json(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_config(cfg, model={"family": "hea_ry", "num_qubits": 2, "layers": 1},
                 data={"kind": "tfi", "num_sites": 2, "h_values": [0.5, 1.5], "seed": 0,
                       "train_path": str(tmp_path / "run" / "test.jsonl")})
    out = _perfect_toy_model(tmp_path)
    (out / "model.json").write_text("{\n")
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "model.json: Expecting property name" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("fraction,command,role,name", [
    (0.0, "train", "training", "train.jsonl"), (1.0, "eval", "evaluation", "test.jsonl"),
])
def test_train_and_eval_name_a_dataset_with_no_records(tmp_path, capsys, fraction, command,
                                                       role, name):
    cfg = tmp_path / "c.json"
    write_config(cfg, data={"kind": "tfi", "num_sites": 4, "h_values": [0.5, 1.5], "seed": 7,
                            "train_fraction": fraction},
                 optimizer={"kind": "spsa", "max_iterations": 2})
    out = tmp_path / "run"
    for step in ["gen-data"] + (["train"] if command == "eval" else []):
        assert cli.main([step, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{role} dataset {out / name} holds no records" in err
    assert not (out / {"train": "model.json", "eval": "report.json"}[command]).exists()


@pytest.mark.parametrize("command,name", [
    ("train", "c.json"), ("train", "test.jsonl"), ("eval", "model.json"),
])
def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, command, name):
    cfg = tmp_path / "c.json"
    write_config(cfg, model={"family": "hea_ry", "num_qubits": 2, "layers": 1},
                 data={"kind": "tfi", "num_sites": 2, "h_values": [0.5, 1.5], "seed": 0,
                       "train_path": str(tmp_path / "run" / "test.jsonl")})
    toy = _perfect_toy_model(tmp_path)  # run/test.jsonl, read by both commands
    bad = cfg if name == "c.json" else toy / name
    bad.write_bytes(b"\xff" + bad.read_bytes())
    out = tmp_path / "trained" if command == "train" else toy
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}: not UTF-8 text (invalid start byte at byte 0)" in err
    assert not (tmp_path / "trained").exists()
    assert not (toy / "report.json").exists()


def test_a_bad_byte_inside_a_record_exits_2_with_its_offset_in_the_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_config(cfg)
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "train.jsonl"
    text = path.read_bytes()
    lines = text.splitlines(keepends=True)
    offset = sum(map(len, lines[:4])) + 30  # inside record 4, past the header and 3 records
    path.write_bytes(text[:offset] + b"\xff" + text[offset + 1:])
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path}: not UTF-8 text (invalid start byte at byte {offset})" in err
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("key,value,message", [
    ("params", [0.1] * 8, "params holds 8 values, but the model has 9 parameters"),
    ("n_params", 99, "n_params is 99, but the model has 9 parameters"),
])
def test_eval_checks_a_model_files_parameter_count(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "c.json"
    write_config(cfg)  # qcnn_ry on 4 qubits, 2 layers: 9 parameters
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    write_model(out / "model.json", "classify", {"family": "qcnn_ry", "num_qubits": 4,
                                                  "layers": 2}, np.zeros(9), readout=0)
    model = json.loads((out / "model.json").read_text())
    model[key] = value
    (out / "model.json").write_text(json.dumps(model))
    assert cli.main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{out / 'model.json'}: {message}" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("change,message", [
    ({"readout": 9}, "model file.readout 9 out of range for 4 qubits"),
    ({"task": "autoencode", "discard": [1]},
     "model file was trained for task 'autoencode' but the config says 'classify'"),
    ({"model": {"family": "nope", "num_qubits": 4, "layers": 2}},
     "invalid model file: unknown ansatz family 'nope'"),
    ({"model": {"family": "qcnn_ry", "num_qubits": 4, "layers": 10**30}},
     "invalid model file: QCNN with 4 qubits supports at most 2 layers"),
], ids=["readout", "task", "family", "layers-30-digits"])
def test_eval_names_the_model_file_it_refuses(tmp_path, capsys, change, message):
    cfg = tmp_path / "c.json"
    write_config(cfg)  # a classifier: qcnn_ry on 4 qubits, 2 layers
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    path = tmp_path / "m.json"
    write_model(path, "classify", {"family": "qcnn_ry", "num_qubits": 4, "layers": 2},
                np.zeros(9), readout=0)
    model = json.loads(path.read_text())
    model.update(change)
    path.write_text(json.dumps(model))
    args = ["eval", "--config", str(cfg), "--out", str(out), "--model", str(path)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{path}: {message}" in err
    assert not (out / "report.json").exists()


def test_benchmark_rows_and_determinism(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(
        cfg,
        model={"family": "qcnn_ry", "num_qubits": 4, "layers": 2},
        models=[
            {"family": "qcnn_ry", "num_qubits": 4, "layers": 2},
            {"family": "hea_ry", "num_qubits": 4, "layers": 1},
        ],
        data={"kind": "tfi", "num_sites": 4, "h_start": 0.2, "h_stop": 1.8,
              "h_count": 16, "seed": 7},
        optimizer={"kind": "powell", "max_iterations": 2},
        train_sizes=[4, 8, 12],
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out_b)]) == 0
    lines = (out_a / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 6  # header + 2 models x 3 sizes
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    qcnn_rows = [r for r in rows if r["family"] == "qcnn_ry"]
    assert all(r["n_params"] == "9" for r in qcnn_rows)
    for r in rows:
        assert r["status"].startswith("ok")
        total = float(r["time_total_s"])
        per = float(r["time_per_sample_s"])
        assert per == total / int(r["train_size"])
    # determinism modulo timing columns
    a = strip_timing_columns((out_a / "results.csv").read_text())
    b = strip_timing_columns((out_b / "results.csv").read_text())
    assert a == b
    meta = json.loads((out_a / "benchmark_meta.json").read_text())
    assert meta["run_seed"] == 42
    assert "config_hash" in meta


def test_benchmark_cell_failure_recorded_and_sweep_continues(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(
        cfg, task="autoencode",
        model={"family": "qcnn_ry", "num_qubits": 4, "layers": 1},
        models=[
            {"family": "qcnn_ry", "num_qubits": 4, "layers": 1},
            {"family": "hea_ry", "num_qubits": 4, "layers": 1},  # no discard -> cell error
        ],
        data={"kind": "tfi", "num_sites": 4, "seed": 3},
        optimizer={"kind": "powell", "max_iterations": 2},
        train_sizes=[3],
    )
    out = tmp_path / "out"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    by_family = {r["family"]: r for r in rows}
    assert by_family["qcnn_ry"]["status"].startswith("ok")
    assert by_family["hea_ry"]["status"].startswith("error")
    assert by_family["hea_ry"]["metric_value"] == ""
    meta = json.loads((out / "benchmark_meta.json").read_text())
    assert meta["rows"] == 2
    assert meta["failed_cells"] == 1


def test_benchmark_size_exceeding_records_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(cfg, train_sizes=[1000])
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


_DATA16 = {"kind": "tfi", "num_sites": 4, "h_start": 0.2, "h_stop": 1.8, "h_count": 16, "seed": 7}


@pytest.mark.parametrize("extra,message", [
    ({"train_sizes": [100]}, "train_size 100 exceeds the 12 available training records"),
    ({"data": dict(_DATA16, train_fraction=1.0)},
     "evaluation split is empty; adjust train_fraction or eval_on"),
    ({"data": dict(_DATA16, train_fraction=0.0), "eval_on": "train"},
     "evaluation split is empty; adjust train_fraction or eval_on"),
    # every cell would train on no state
    ({"data": dict(_DATA16, train_fraction=0.0)}, "training split is empty; adjust train_fraction"),
], ids=["oversized-train-size", "empty-test-split", "empty-train-split", "no-training-state"])
def test_benchmark_refuses_a_bad_split_before_any_solve(tmp_path, capsys, monkeypatch, extra,
                                                        message):
    # both split sizes follow from the config, so no ground state is solved
    solves = []
    solve = spinmodels._solve  # every ground state, cold or warm-started, is one call

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spinmodels, "_solve", counted)
    cfg = tmp_path / "c.json"
    write_config(cfg, **extra)
    out = tmp_path / "o"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert solves == []
    assert not (out / "results.csv").exists()
    # the same data section does solve every grid point once the split is not refused
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(solves) == 16


@pytest.mark.parametrize("key", ["train_path", "test_path"])
def test_benchmark_refuses_a_dataset_path_before_any_solve(tmp_path, capsys, monkeypatch, key):
    # benchmark generates its data in process, so a path it would not read is refused
    solves = []
    monkeypatch.setattr(spinmodels, "_solve", lambda *args: solves.append(args))
    cfg = tmp_path / "c.json"
    data = {"kind": "tfi", "num_sites": 4, "h_count": 8, "seed": 7,
            key: str(tmp_path / "missing.jsonl")}
    write_config(cfg, data=data)
    out = tmp_path / "o"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"config error: data.{key} is not read by benchmark" in err
    assert solves == []
    assert not (out / "results.csv").exists()


_QCNN4 = {"family": "qcnn_ry", "num_qubits": 4, "layers": 2}


@pytest.mark.parametrize("models,sizes,message", [
    ([_QCNN4, _QCNN4], [3, 3], "benchmark cell qcnn_ry_n4_l2 at train size 3 is listed twice"),
    ([_QCNN4], [3, 5, 3], "benchmark cell qcnn_ry_n4_l2 at train size 3 is listed twice"),
    # hea_template means nothing to a QCNN, so a spec that differs only there
    # would share the first one's name: it is rejected when the config loads
    ([_QCNN4, dict(_QCNN4, hea_template="double_column")], [3],
     "invalid models[1]: hea_template 'double_column' applies to HEA families only, "
     "not qcnn_ry"),
    # without train_sizes every cell trains on the whole training split
    ([_QCNN4, _QCNN4], None, "benchmark cell qcnn_ry_n4_l2 at train size all is listed twice"),
], ids=["model-twice", "size-twice", "same-model-name", "whole-split"])
def test_benchmark_cells_sharing_a_directory_exit_2(tmp_path, capsys, monkeypatch,
                                                     models, sizes, message):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the cells were checked")

    monkeypatch.setattr(cli, "generate_dataset", no_data)
    cfg = tmp_path / "c.json"
    extra = {} if sizes is None else {"train_sizes": sizes}
    write_config(cfg, models=models, **extra)
    out = tmp_path / "o"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("task,models,discard", [
    ("classify", [_QCNN4, {"family": "hea_ry", "num_qubits": 4, "layers": 1}], None),
    ("autoencode", [dict(_QCNN4, layers=1), {"family": "hea_rxrzrx", "num_qubits": 4,
                                             "layers": 1}], [1, 3]),
])
def test_a_benchmark_cell_compiles_its_circuit_once(tmp_path, monkeypatch, task, models,
                                                    discard):
    # training and evaluation run one CompiledCircuit: one construction per cell
    compiles = []
    init = simulator.CompiledCircuit.__init__

    def counting(self, circuit, observed=None):
        compiles.append(circuit.num_qubits)
        init(self, circuit, observed)

    monkeypatch.setattr(simulator.CompiledCircuit, "__init__", counting)
    cfg = tmp_path / "c.json"
    write_config(cfg, task=task, model=models[0], models=models, train_sizes=[3, 5],
                 discard=discard, data={"kind": "tfi", "num_sites": 4, "h_count": 8, "seed": 7},
                 optimizer={"kind": "spsa", "max_iterations": 2})
    out = tmp_path / "o"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    assert [r["status"][:2] for r in rows] == ["ok"] * 4
    assert compiles == [4] * len(rows)


@pytest.mark.parametrize("task,model,observed", [
    ("classify", {"family": "hea_ry", "num_qubits": 4, "layers": 1}, [0]),
    ("autoencode", _QCNN4, [1, 2, 3]),
])
def test_train_and_eval_compile_the_cone_of_the_qubits_the_task_reads(tmp_path, monkeypatch,
                                                                      task, model, observed):
    # a classifier reads <Z> on its readout only; an autoencoder's cost and
    # reset-channel fidelity read only its discarded qubits (here the pooled
    # ones, the default discard set)
    seen = []
    init = simulator.CompiledCircuit.__init__

    def recording(self, circuit, observed=None):
        seen.append(observed)
        init(self, circuit, observed)

    monkeypatch.setattr(simulator.CompiledCircuit, "__init__", recording)
    cfg = tmp_path / "c.json"
    write_config(cfg, task=task, model=model, optimizer={"kind": "powell", "max_iterations": 1})
    out = tmp_path / "o"
    for command in ("gen-data", "train", "eval"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert seen == [observed, observed]


def test_classify_config_with_a_discard_list_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    write_config(cfg, model={"family": "hea_ry", "num_qubits": 4, "layers": 1}, discard=[1, 2])
    out = tmp_path / "o"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "config error: discard applies to autoencode only, not classify" in err
    assert not out.exists()


@pytest.mark.parametrize("section,value,message", [
    ("model", dict(_QCNN4, hea_template="double_column"),
     "invalid model: hea_template 'double_column' applies to HEA families only, not qcnn_ry"),
    ("model", {"family": "hea_ry", "num_qubits": 4, "layers": 1, "weight_sharing": False},
     "invalid model: weight_sharing false applies to QCNN families only, not hea_ry"),
    ("optimizer", {"kind": "adam"}, "invalid optimizer: unknown optimizer kind 'adam'; "
     "expected one of ['powell', 'spsa', 'param_shift_gd']"),
    ("optimizer", {"kind": "nelder_mead"}, "invalid optimizer: unknown optimizer kind "
     "'nelder_mead'; expected one of ['powell', 'spsa', 'param_shift_gd']"),
])
def test_a_key_or_kind_that_cannot_apply_exits_2_naming_it(tmp_path, capsys, section, value,
                                                            message):
    cfg = tmp_path / "c.json"
    write_config(cfg, **{section: value})
    out = tmp_path / "o"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not out.exists()


def test_train_and_eval_name_a_dataset_of_the_wrong_size(tmp_path, capsys):
    toy = _perfect_toy_model(tmp_path)  # 2-site test.jsonl, 2-qubit model.json
    data = toy / "test.jsonl"
    cfg = tmp_path / "train.json"
    write_config(cfg, model={"family": "hea_ry", "num_qubits": 4, "layers": 1},
                 data={"kind": "tfi", "num_sites": 4, "train_path": str(data)})
    out = tmp_path / "trained"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{data} holds 2-site states but the model acts on 4 qubits" in err
    assert not out.exists()

    spec = {"family": "hea_ry", "num_qubits": 4, "layers": 1}
    write_model(toy / "model.json", "classify", spec, np.zeros(8), readout=0)
    cfg = tmp_path / "eval.json"
    write_config(cfg, model={"family": "hea_ry", "num_qubits": 2, "layers": 1},
                 data={"kind": "tfi", "num_sites": 2, "h_values": [0.5, 1.5]})
    assert cli.main(["eval", "--config", str(cfg), "--out", str(toy)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{data} holds 2-site states but the model acts on 4 qubits" in err
    assert not (toy / "report.json").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(
        cfg,
        data={"kind": "tfi", "num_sites": 4, "h_count": 8, "seed": 7},
        optimizer={"kind": "powell", "max_iterations": 2},
        train_sizes=[4],
    )
    out = tmp_path / "o"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out),
                     "--seed", "99"]) == 0
    meta = json.loads((out / "benchmark_meta.json").read_text())
    assert meta["run_seed"] == 99


def test_benchmark_threads_flag(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(
        cfg,
        data={"kind": "tfi", "num_sites": 4, "h_count": 8, "seed": 7},
        optimizer={"kind": "powell", "max_iterations": 2},
        train_sizes=[2, 4],
    )
    out_seq = tmp_path / "seq"
    out_par = tmp_path / "par"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out_seq)]) == 0
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out_par),
                     "--threads", "4"]) == 0
    a = strip_timing_columns((out_seq / "results.csv").read_text())
    b = strip_timing_columns((out_par / "results.csv").read_text())
    assert a == b


@pytest.mark.parametrize("argv,message", [
    (["gen-data", "--threads", "8"], "unrecognized arguments: --threads 8"),
    (["eval", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["train", "--format", "json"], "unrecognized arguments: --format json"),
    (["benchmark", "--threads", "0"], "--threads: expected a positive integer, got '0'"),
    (["benchmark", "--threads", "-2"], "--threads: expected a positive integer, got '-2'"),
    (["benchmark", "--threads", "\u00b2"], "--threads: expected a positive integer, got '\u00b2'"),
    (["benchmark", "--format", "json"], "unrecognized arguments: --format json"),
    (["benchmark", "--format", "csv"], "unrecognized arguments: --format csv"),
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, argv, message):
    # each flag exists only on the commands that read it, so none is ignored
    cfg = tmp_path / "c.json"
    write_config(cfg)
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--config", str(cfg), "--out", str(tmp_path / "o")] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


_DATA_KEYS = ["kind", "num_sites", "h_values", "h_c", "train_fraction", "seed", "solver",
              "train_path", "test_path"]
_METADATA_KEYS = ["surrogate_cost", "h_c", "param_count_formula", "data", "version"]


def test_output_files_keep_their_key_order(tmp_path):
    # the files are written from the dataclasses' fields, so field order is key order
    cfg = tmp_path / "c.json"
    write_config(cfg, data={"kind": "tfi", "num_sites": 4, "h_count": 8, "seed": 7},
                 optimizer={"kind": "spsa", "max_iterations": 2})
    out = tmp_path / "run"
    for command in ("gen-data", "train", "eval"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    assert list(model) == ["format_version", "task", "model", "params", "n_params", "readout",
                           "discard", "n_d", "init_seed", "metadata"]
    assert list(model["model"]) == ["family", "num_qubits", "layers", "weight_sharing",
                                    "hea_template"]
    assert list(model["metadata"]) == _METADATA_KEYS
    assert list(model["metadata"]["data"]) == _DATA_KEYS
    report = json.loads((out / "report.json").read_text())
    assert list(report) == ["format_version", "task", "accuracy", "scores", "predictions",
                            "labels", "confusion", "roc_points", "auc"]
    assert all(isinstance(p, list) and len(p) == 2 for p in report["roc_points"])

    write_config(cfg, task="autoencode", model={"family": "qcnn_ry", "num_qubits": 4, "layers": 1},
                 data={"kind": "tfi", "num_sites": 4, "seed": 3},
                 optimizer={"kind": "spsa", "max_iterations": 2}, train_sizes=[3])
    bench = tmp_path / "bench"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(bench)]) == 0
    (cell,) = (bench / "cells").iterdir()
    report = json.loads((cell / "report.json").read_text())
    assert list(report) == ["format_version", "task", "fidelities", "mean_fidelity", "n_d",
                            "final_cost"]
    meta = json.loads((bench / "benchmark_meta.json").read_text())
    assert list(meta["metadata"]) == _METADATA_KEYS
    assert list(meta["metadata"]["data"]) == _DATA_KEYS
