"""Config validation, file formats, and the four CLI commands end to end."""

import json
from pathlib import Path

import numpy as np
import pytest

from vqcbench import cli, storage
from vqcbench.config import BenchConfig, ConfigError, cell_seed, load_config
from vqcbench.optimizers import TrainRecord
from vqcbench.spinmodels import DataRecord, Dataset, generate_dataset
from vqcbench.storage import (
    read_dataset,
    read_model,
    strip_timing_columns,
    write_dataset,
    write_model,
    write_report,
    write_results_csv,
    write_results_json,
    write_train_record,
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
    with pytest.raises(ConfigError, match="qcnn_rz"):
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


def test_model_roundtrip_full_precision(tmp_path):
    params = np.array([np.pi, 1 / 3, -7.123456789012345e-11])
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
    lambda path, v: write_results_json(path, [{"model": "m", "metric_value": v}]),
], ids=["dataset", "model", "train_record", "report", "results_csv", "results_json"])
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


@pytest.mark.parametrize("section,key,value", [
    ("optimizer", "max_iterations", None),
    ("optimizer", "max_iterations", 2.9),
    ("optimizer", "max_iterations", "3"),
    ("optimizer", "seed", True),
    ("optimizer", "learning_rate", None),
    ("optimizer", "cost_tolerance", "1e-8"),
    ("model", "layers", 1.7),
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


@pytest.mark.parametrize("seed,data,message", [
    (42, {"kind": "tfi", "num_sites": 4, "h_start": 0.2, "h_stop": 1.8, "h_count": 16,
          "seed": 7}, "non-finite parameters"),
    # the bracket's ends stay finite but its width overflows, which used to
    # end in a ZeroDivisionError inside Brent's step
    (0, {"kind": "tfi", "num_sites": 4, "h_values": [0.5, 0.7, 1.3, 1.5], "seed": 1},
     "non-finite width"),
])
def test_diverging_powell_line_search_exits_4_without_traceback(tmp_path, capsys, seed, data,
                                                                 message):
    cfg = tmp_path / "c.json"
    write_config(cfg, seed=seed, data=data,
                 optimizer={"kind": "powell", "line_search_step": 1e308})
    out = tmp_path / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err
    assert not (out / "train_record.json").exists()


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


def test_benchmark_json_format(tmp_path):
    cfg = tmp_path / "c.json"
    write_config(
        cfg,
        data={"kind": "tfi", "num_sites": 4, "h_count": 8, "seed": 7},
        optimizer={"kind": "powell", "max_iterations": 2},
        train_sizes=[4],
    )
    out = tmp_path / "o"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 0
    rows = json.loads((out / "results.json").read_text())
    assert len(rows) == 1
    assert rows[0]["metric_name"] == "test_accuracy"


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
