import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neurofuzzy import cli
from neurofuzzy.anfis import (AnfisEnsemble, TrainingConfig, TrainingTrace,
                              build_grid_model)
from neurofuzzy.cli import main
from neurofuzzy.data import CLASS_LABELS
from neurofuzzy.errors import ModelFormatError, UndefinedKappaError
from neurofuzzy.mlp import MlpTrainingConfig, MlpTrainingTrace, build_mlp
from neurofuzzy.model_io import load_model, model_to_json

ROOT = Path(__file__).resolve().parents[1]
LABELS = ["very_low", "low", "middle", "high"]
# serialized key order, pinned: model files and traces are byte-compared
ANFIS_TRAINING_KEYS = ["epochs", "learn_rate", "ridge", "seed", "early_stop_rmse"]
MLP_TRAINING_KEYS = ["epochs", "learn_rate", "loss", "batch_mode", "seed",
                     "early_stop_mse"]
ANFIS_TRACE_KEYS = ["train_rmse", "test_rmse", "epochs_run"]
MLP_TRACE_KEYS = ["train_mse", "test_mse", "epochs_run"]


@pytest.mark.parametrize("record, keys", [
    (TrainingConfig(), ANFIS_TRAINING_KEYS), (MlpTrainingConfig(), MLP_TRAINING_KEYS),
    (TrainingTrace(), ANFIS_TRACE_KEYS), (MlpTrainingTrace(), MLP_TRACE_KEYS),
], ids=["anfis-config", "mlp-config", "anfis-trace", "mlp-trace"])
def test_record_writes_pinned_key_order(record, keys):
    """A record writes its fields in the order ``__init__`` sets them, the
    pinned order, and hands out copies of its lists."""
    written = record.to_dict()
    assert list(written) == keys
    for value in written.values():
        if isinstance(value, list):
            value.append(0.0)
    assert record == type(record)()


def toy_rows(n=48, seed=0, classes=(0, 1, 2, 3)):
    """CSV rows whose label is decided by the PEG and LPR bits."""
    rng = np.random.default_rng(seed)
    rows = []
    made = 0
    while made < n:
        c = classes[made % len(classes)]
        peg_hi, lpr_hi = bool(c & 2), bool(c & 1)
        peg = rng.uniform(0.55, 0.95) if peg_hi else rng.uniform(0.05, 0.45)
        lpr = rng.uniform(0.55, 0.95) if lpr_hi else rng.uniform(0.05, 0.45)
        stg, scg, strv = rng.uniform(0.05, 0.95, size=3)
        rows.append(f"{stg:.3f},{scg:.3f},{strv:.3f},{lpr:.3f},{peg:.3f},"
                    f"{LABELS[c]}")
        made += 1
    return rows


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    path.write_text("STG,SCG,STR,LPR,PEG,UNS\n"
                    + "".join(r + "\n" for r in toy_rows()), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def three_class_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy3.csv"
    path.write_text("STG,SCG,STR,LPR,PEG,UNS\n"
                    + "".join(r + "\n"
                              for r in toy_rows(30, seed=1, classes=(0, 1, 2))),
                    encoding="utf-8")
    return path


def write_config(path, **kv):
    path.write_text("".join(f"{k}={v}\n" for k, v in kv.items()),
                    encoding="utf-8")
    return str(path)


def mlp_config(tmp_path, dataset, out_name="run", **extra):
    out_dir = tmp_path / out_name
    kv = dict(dataset=dataset, model="mlp", epochs=300,
              learn_rate=0.5, hidden=8, split="ratio", ratio=0.75,
              seed=1, out_dir=out_dir)
    kv.update(extra)
    return write_config(tmp_path / f"{out_name}.cfg", **kv), out_dir


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    """One trained network shared by the read-only command tests."""
    tmp_path = tmp_path_factory.mktemp("trained")
    config, out_dir = mlp_config(tmp_path, dataset)
    assert main(["train", "--config", config]) == 0
    return {"config": config, "out_dir": out_dir,
            "model": str(out_dir / "model.json")}


class TestTrain:
    def test_writes_model_trace_and_split(self, trained, capsys):
        out_dir = trained["out_dir"]
        model = load_model(out_dir / "model.json")
        payload = json.loads((out_dir / "model.json").read_text())
        assert payload["kind"] == "mlp"
        assert list(payload["training"]) == MLP_TRAINING_KEYS
        trace = json.loads((out_dir / "trace.json").read_text())
        assert list(trace) == MLP_TRACE_KEYS
        assert trace["epochs_run"] <= 300
        split = json.loads((out_dir / "split.json").read_text())
        assert len(split["train_indices"]) + len(split["test_indices"]) == 48
        # reload -> reserialize is byte identical
        assert model_to_json(model) == \
            (out_dir / "model.json").read_text(encoding="utf-8")

    def test_repeat_run_is_byte_identical(self, tmp_path, dataset):
        cfg_a, out_a = mlp_config(tmp_path, dataset, "a", epochs=40)
        cfg_b, out_b = mlp_config(tmp_path, dataset, "b", epochs=40)
        assert main(["train", "--config", cfg_a]) == 0
        assert main(["train", "--config", cfg_b]) == 0
        for name in ("model.json", "trace.json", "split.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_anfis_single_mode(self, tmp_path, dataset, capsys):
        out_dir = tmp_path / "anfis"
        config = write_config(
            tmp_path / "anfis.cfg", dataset=dataset, model="anfis",
            output_mode="single", mf_shape="gbell", epochs=5,
            split="ratio", ratio=0.75, seed=3, out_dir=out_dir)
        assert main(["train", "--config", config]) == 0
        payload = json.loads((out_dir / "model.json").read_text())
        assert payload["kind"] == "anfis"
        assert payload["output_mode"] == "single"
        assert list(payload["training"]) == ANFIS_TRAINING_KEYS
        trace = json.loads((out_dir / "trace.json").read_text())
        assert list(trace) == ANFIS_TRACE_KEYS
        out = capsys.readouterr().out
        assert "final train rmse" in out
        assert "test accuracy" in out

    def test_anfis_oaa_mode(self, tmp_path, dataset, capsys):
        out_dir = tmp_path / "oaa"
        config = write_config(
            tmp_path / "oaa.cfg", dataset=dataset, model="anfis",
            output_mode="oaa", epochs=2, split="ratio", ratio=0.75, seed=3,
            out_dir=out_dir)
        assert main(["train", "--config", config]) == 0
        payload = json.loads((out_dir / "model.json").read_text())
        assert payload["output_mode"] == "oaa"
        for member in payload["members"]:
            assert list(member["training"]) == ANFIS_TRAINING_KEYS
        trace = json.loads((out_dir / "trace.json").read_text())
        assert list(trace) == ["members"]
        for member in trace["members"]:
            assert list(member) == ANFIS_TRACE_KEYS
        out = capsys.readouterr().out.splitlines()
        assert [line.rsplit(" ", 1)[0] for line in out[3:7]] == [
            f"member {k} final train rmse" for k in range(4)]

    @pytest.mark.parametrize("model,flag,value", [
        ("anfis", "--ridge", "nan"),
        ("anfis", "--early-stop", "nan"),
        ("anfis", "--ridge", "inf"),
        ("anfis", "--learn-rate", "inf"),
        ("mlp", "--learn-rate", "nan"),
    ])
    def test_non_finite_training_value_exits_2(self, tmp_path, dataset,
                                               model, flag, value):
        out_dir = tmp_path / "run"
        assert main(["train", "--dataset", str(dataset), "--model", model,
                     "--epochs", "1", flag, value,
                     "--out-dir", str(out_dir)]) == 2
        assert not (out_dir / "model.json").exists()

    @pytest.mark.parametrize("model,flag,value", [
        ("anfis", "--ridge", "nan"),
        ("anfis", "--mfs-per-input", "1"),
        ("anfis", "--mf-shape", "hexagon"),
        ("mlp", "--learn-rate", "nan"),
    ])
    def test_bad_training_value_creates_no_out_dir(self, tmp_path, dataset,
                                                   model, flag, value):
        out_dir = tmp_path / "run"
        assert main(["train", "--dataset", str(dataset), "--model", model,
                     "--epochs", "1", flag, value,
                     "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_out_dir_that_is_a_file_exits_2_before_training(
            self, tmp_path, dataset, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        config, _ = mlp_config(tmp_path, dataset, out_dir=taken)
        monkeypatch.setattr(cli, "train_backprop",
                            lambda *_: pytest.fail("training started"))
        assert main(["train", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {taken}")

    def test_missing_dataset_exits_3_and_writes_nothing(self, tmp_path):
        out_dir = tmp_path / "never"
        config = write_config(tmp_path / "bad.cfg",
                              dataset=tmp_path / "absent.csv",
                              model="mlp", out_dir=out_dir)
        assert main(["train", "--config", config]) == 3
        assert not out_dir.exists()

    def test_fold_out_of_range_exits_2(self, tmp_path, dataset, capsys):
        assert main(["train", "--dataset", str(dataset), "--split", "kfold",
                     "--folds", "5", "--fold", "9",
                     "--out-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            "error: fold 9 out of range for folds=5\n")

    def test_unknown_config_key_exits_2(self, tmp_path, dataset):
        config = write_config(tmp_path / "bad.cfg", dataset=dataset,
                              momentum=0.9)
        assert main(["train", "--config", config]) == 2

    def test_bad_value_exits_2(self, tmp_path, dataset):
        config = write_config(tmp_path / "bad.cfg", dataset=dataset,
                              model="mlp", epochs="many")
        assert main(["train", "--config", config]) == 2

    def test_duplicate_key_exits_2(self, tmp_path, dataset):
        path = tmp_path / "dup.cfg"
        path.write_text(f"dataset={dataset}\nepochs=5\nepochs=6\n",
                        encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text", [None, "model=mlp\nepochs 5\n"],
                             ids=["missing-file", "line-without-equals"])
    def test_unreadable_config_file_exits_2(self, tmp_path, dataset, text, capsys):
        path = tmp_path / "run.cfg"
        if text is not None:
            path.write_text(f"dataset={dataset}\n" + text, encoding="utf-8")
        assert main(["train", "--config", str(path),
                     "--out-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    def test_config_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a run\n\nmodel = mlp  # the network\n   \n# epochs=3\n",
                        encoding="utf-8")
        assert cli.read_config_file(path) == {"model": "mlp"}

    def test_flags_override_config_file(self, tmp_path, dataset):
        config, out_dir = mlp_config(tmp_path, dataset, "ovr", epochs=5)
        assert main(["train", "--config", config, "--epochs", "9"]) == 0
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["epochs_run"] == 9

    def test_dataset_file_never_modified(self, tmp_path, dataset):
        before = dataset.read_bytes()
        config, _ = mlp_config(tmp_path, dataset, "ro", epochs=5)
        assert main(["train", "--config", config]) == 0
        assert dataset.read_bytes() == before


def _oaa(edit):
    payload = AnfisEnsemble([build_grid_model("gauss2", output_mode="binary",
                                              positive_class=k)
                             for k in range(4)]).to_dict()
    edit(payload["members"])
    return payload, True


def _edited(payload, **changes):
    return {**payload, **changes}, True


def _set(payload, path, value):
    """``payload`` with the element at ``path``, keys and indexes, set to ``value``."""
    *outer, last = path
    target = payload
    for step in outer:
        target = target[step]
    target[last] = value
    return payload, True


# model files refused with exit 5: (payload, refused by load_model itself);
# scores that are not four columns are refused when the model is scored
REFUSED_MODELS = {
    "oaa-members-reversed": lambda: _oaa(list.reverse),
    "oaa-three-members": lambda: _oaa(list.pop),
    "oaa-member-single": lambda: _oaa(
        lambda members: members[2].update(output_mode="single")),
    "oaa-members-on-two-grids": lambda: _oaa(
        lambda members: members.__setitem__(3, build_grid_model(
            "gbell", output_mode="binary", positive_class=3).to_dict())),
    "anfis-output-mode-bogus": lambda: _edited(
        build_grid_model("gauss2").to_dict(), output_mode="bogus"),
    "anfis-consequent-order-bogus": lambda: _edited(
        build_grid_model("gauss2").to_dict(), consequent_order="bogus"),
    "mlp-unknown-activation": lambda: _edited(
        build_mlp().to_dict(), hidden_activation="relu"),
    "mlp-three-classes": lambda: (build_mlp(n_classes=3).to_dict(), False),
    # integer fields: json reads Infinity, and 2.9 must not load as 2
    "anfis-seed-infinite": lambda: _edited(
        build_grid_model("gauss2").to_dict(), seed=math.inf),
    "anfis-mfs-per-input-fractional": lambda: _edited(
        build_grid_model("gauss2").to_dict(), mfs_per_input=2.9),
    "oaa-member-seed-infinite": lambda: _oaa(
        lambda members: members[1].update(seed=math.inf)),
    "mlp-seed-infinite": lambda: _edited(build_mlp().to_dict(), seed=math.inf),
    "mlp-hidden-fractional": lambda: _edited(
        build_mlp(hidden=2).to_dict(), hidden=2.9),
    # json's true and 2.0 are not integers either; 1 == True and 2 == 2.0
    "anfis-seed-true": lambda: _edited(build_grid_model("gauss2").to_dict(), seed=True),
    "oaa-member-positive-class-true": lambda: _oaa(
        lambda members: members[1].update(positive_class=True)),
    "oaa-member-positive-class-float": lambda: _oaa(
        lambda members: members[2].update(positive_class=2.0)),
    "anfis-single-positive-class": lambda: _edited(
        build_grid_model("gauss2").to_dict(), positive_class=2),
    "mlp-seed-false": lambda: _edited(build_mlp().to_dict(), seed=False),
    "mlp-hidden-true": lambda: _edited(build_mlp(hidden=1).to_dict(), hidden=True),
    # input_range: two finite numbers lo < hi
    **{f"anfis-input-range-{name}": lambda value=value: _edited(
        build_grid_model("gauss2").to_dict(), input_range=value)
       for name, value in [("one-value", [0.0]), ("string", "ab"),
                           ("three-values", [0, 1, 2]), ("nan", [math.nan, 1]),
                           ("reversed", [1, -1])]},
    # declared sizes that the arrays do not have, and an empty bank or row
    "anfis-mf-shape-disagrees": lambda: _edited(
        build_grid_model("gauss2").to_dict(), mf_shape="gbell"),
    "anfis-mfs-per-input-disagrees": lambda: _edited(
        build_grid_model("gauss2").to_dict(), mfs_per_input=3),
    "anfis-input-dim-disagrees": lambda: _edited(
        build_grid_model("gauss2").to_dict(), input_dim=4),
    "anfis-bank-empty": lambda: _edited(
        build_grid_model("gauss2").to_dict(), mf_bank=[]),
    "anfis-bank-row-empty": lambda: _edited(
        build_grid_model("gauss2", input_dim=1).to_dict(), mf_bank=[[]]),
    "mlp-input-dim-disagrees": lambda: _edited(build_mlp().to_dict(), input_dim=4),
    "mlp-hidden-disagrees": lambda: _edited(build_mlp().to_dict(), hidden=11),
    "mlp-n-classes-disagrees": lambda: _edited(build_mlp().to_dict(), n_classes=3),
    # values that do not save back as the file holds them
    "anfis-consequent-true": lambda: _set(
        build_grid_model("gauss2").to_dict(), ["consequents", 0, 0], True),
    "anfis-antecedent-true": lambda: _set(
        build_grid_model("gauss2").to_dict(), ["antecedents", 1, -1], True),
    "anfis-consequent-string": lambda: _set(
        build_grid_model("gauss2").to_dict(), ["consequents", 0, 0], "0.5"),
    "mlp-weight-true": lambda: _set(build_mlp().to_dict(), ["w_hidden", 0, 0], True),
    "mlp-weight-string": lambda: _set(build_mlp().to_dict(), ["w_out", 0, 0], "0.5"),
    "oaa-member-consequent-true": lambda: _oaa(
        lambda members: members[1]["consequents"][0].__setitem__(0, True)),
    "anfis-unknown-key": lambda: _edited(
        build_grid_model("gauss2").to_dict(), colour="red"),
    "anfis-format-version-true": lambda: _edited(
        build_grid_model("gauss2").to_dict(), format_version=True),
    "mlp-format-version-float": lambda: _edited(build_mlp().to_dict(), format_version=1.0),
    # an integer too large for a float, where a float is written
    **{f"{name}-huge-integer": lambda payload=payload, path=path: _set(
        payload(), path, 10**400)
       for name, payload, path in [
           ("anfis-consequent", lambda: build_grid_model("gauss2").to_dict(),
            ["consequents", 0, 0]),
           ("anfis-input-range", lambda: build_grid_model("gauss2").to_dict(),
            ["input_range", 0]),
           ("anfis-mf-param", lambda: build_grid_model("gbell").to_dict(),
            ["mf_bank", 0, 0, "b"]),
           ("mlp-weight", build_mlp().to_dict, ["w_out", 0, 0])]},
}


class TestEvaluate:
    def test_stdout_report(self, trained, capsys):
        assert main(["evaluate", trained["model"],
                     "--config", trained["config"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_samples"] == 12
        assert len(report["per_class"]) == 4
        for row in report["per_class"]:
            if row["tpr"] is not None:
                assert math.isclose(row["tpr"] + row["fnr"], 1.0)
            if row["fpr"] is not None:
                assert math.isclose(row["fpr"] + row["tnr"], 1.0)

    def test_report_files_byte_identical(self, trained, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["evaluate", trained["model"],
                         "--config", trained["config"],
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_perfect_model_full_marks(self, trained, tmp_path, dataset,
                                      capsys):
        # whole-file evaluation of a net trained to saturation on it
        assert main(["evaluate", trained["model"], "--dataset", str(dataset),
                     "--split", "none"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall_accuracy"] == 1.0
        assert report["wrong_count"] == 0
        assert report["cap"] == 100.0
        for row in report["per_class"]:
            assert row["kappa"] == 1.0
            assert row["auc"] == 1.0

    def test_corrupt_model_exits_5(self, tmp_path, dataset):
        bad = tmp_path / "model.json"
        bad.write_text("{\"kind\": \"anfis\"", encoding="utf-8")
        assert main(["evaluate", str(bad), "--dataset", str(dataset)]) == 5

    def test_non_finite_anfis_model_exits_5(self, tmp_path, dataset, capsys):
        out_dir = tmp_path / "anfis"
        assert main(["train", "--dataset", str(dataset), "--model", "anfis",
                     "--output-mode", "single", "--epochs", "1",
                     "--out-dir", str(out_dir)]) == 0
        path = out_dir / "model.json"
        payload = json.loads(path.read_text())
        payload["consequents"][0][0] = math.nan
        payload["mf_bank"][0][0]["c_left"] = math.nan
        path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", str(path), "--dataset", str(dataset),
                     "--split", "none"]) == 5
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def overflowing_model(tmp_path):
        # every parameter is finite, so the file loads, but (x - c)^2
        # overflows and the firing strengths come out NaN
        payload = build_grid_model("gauss2", input_dim=5).to_dict()
        payload["mf_bank"][0][0].update(sigma_left=1e200, c_left=1e200,
                                        sigma_right=1e200, c_right=1e200)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_overflowing_degrees_exit_4(self, tmp_path, dataset, capsys):
        with np.errstate(all="ignore"):
            assert main(["evaluate", self.overflowing_model(tmp_path), "--dataset",
                         str(dataset), "--split", "none"]) == 4
        assert "non-finite firing strengths" in capsys.readouterr().err

    def test_overflowing_degrees_print_only_the_error(self, tmp_path, dataset):
        # as a program, where numpy's RuntimeWarnings would reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "neurofuzzy.cli", "evaluate",
             self.overflowing_model(tmp_path), "--dataset", str(dataset),
             "--split", "none"], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 4
        assert proc.stderr == ("error: non-finite firing strengths: "
                               "a membership degree overflowed\n")

    @pytest.mark.parametrize("command", [["evaluate"], ["roc", "--class-index", "0"]])
    def test_overflowing_scores_exit_4(self, command, tmp_path, dataset):
        # finite consequents whose rule values overflow to inf - inf: scored,
        # every NaN row would go to class 0
        members = [build_grid_model("gauss2", output_mode="binary", positive_class=k)
                   for k in range(4)]
        for member in members:
            member.consequents[:] = 1e308
            member.consequents[::2] *= -1
        path, out = tmp_path / "model.json", tmp_path / "out"
        path.write_text(model_to_json(AnfisEnsemble(members)), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "neurofuzzy.cli", *command, str(path),
             "--dataset", str(dataset), "--split", "none", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 4
        assert proc.stderr == f"error: {path}: model gives non-finite scores\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["evaluate"], ["roc", "--class-index", "0"]])
    def test_overflowing_single_output_exits_4(self, command, tmp_path, dataset):
        # one output whose rule values overflow to inf - inf: it has no class
        model = build_grid_model("gauss2")
        model.consequents[:] = 1e308
        model.consequents[::2] *= -1
        path, out = tmp_path / "model.json", tmp_path / "out"
        path.write_text(model_to_json(model), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "neurofuzzy.cli", *command, str(path),
             "--dataset", str(dataset), "--split", "none", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 4
        assert proc.stderr == "error: non-finite model outputs have no class\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", REFUSED_MODELS)
    def test_refused_model_file_exits_5(self, case, tmp_path, dataset, capsys):
        payload, at_load = REFUSED_MODELS[case]()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        if at_load:
            with pytest.raises(ModelFormatError):
                load_model(path)
        assert main(["evaluate", str(path), "--dataset", str(dataset),
                     "--split", "none"]) == 5
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", [b'{"format_version": 1, "kind": "\xff"}',
                                      b"[" * 200_000],
                             ids=["not-utf-8", "deeply-nested"])
    def test_unparsed_model_file_exits_5(self, text, tmp_path, dataset, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(text)
        assert main(["evaluate", str(path), "--dataset", str(dataset),
                     "--split", "none"]) == 5
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON (")

    def test_empty_selection_exits_3(self, trained, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("STG,SCG,STR,LPR,PEG,UNS\n", encoding="utf-8")
        assert main(["evaluate", trained["model"], "--dataset", str(empty),
                     "--split", "none"]) == 3

    @pytest.mark.parametrize("keys", [
        {"split": "predefined", "train_count": 36},
        {"split": "kfold", "fold": 2},
        {"encoding": "passthrough"},
    ], ids=["predefined", "kfold", "passthrough"])
    def test_evaluates_the_split_train_wrote(self, keys, tmp_path, dataset, capsys):
        config, out_dir = mlp_config(tmp_path, dataset, epochs=30, **keys)
        assert main(["train", "--config", config]) == 0
        split = json.loads((out_dir / "split.json").read_text())
        if keys.get("split") == "predefined":
            assert split["train_indices"] == list(range(36))
        capsys.readouterr()
        assert main(["evaluate", str(out_dir / "model.json"), "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_samples"] == len(split["test_indices"]) > 0

    def test_empty_out_exits_2(self, trained, capsys):
        assert main(["evaluate", trained["model"], "--config", trained["config"],
                     "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write ")
        assert captured.out == ""

    def test_out_that_is_a_directory_exits_2(self, trained, tmp_path, capsys):
        assert main(["evaluate", trained["model"], "--config", trained["config"],
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}")


# the config keys each data-reading command takes as flags
SELECTION = {"dataset", "encoding", "threshold", "split", "ratio", "seed",
             "folds", "fold", "train_count"}
COMMAND_KEYS = {
    "evaluate": (["evaluate", "model.json"], SELECTION),
    "roc": (["roc", "model.json", "--class-index", "0", "--out", "r.csv"], SELECTION),
    "dataset-stats": (["dataset-stats"], {"dataset"}),
}


@pytest.mark.parametrize("key", list(cli.CONFIG_SCHEMA))
@pytest.mark.parametrize("command", list(COMMAND_KEYS))
def test_command_takes_only_the_flags_it_reads(command, key, capsys):
    argv, keys = COMMAND_KEYS[command]
    argv = [*argv, "--" + key.replace("_", "-"), "1"]
    if key in keys:
        assert getattr(cli.build_parser().parse_args(argv), key) == "1"
    else:
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["evaluate"], ["roc", "--class-index", "1"]])
def test_stand_alone_binary_model_exits_5(command, tmp_path, dataset, capsys):
    """A binary model regresses one class's 0/1 target: scored alone, it
    would be read as a class value 1..4."""
    path = tmp_path / "binary.json"
    path.write_text(model_to_json(build_grid_model(
        "gauss2", input_dim=5, output_mode="binary", positive_class=1)),
        encoding="utf-8")
    out = ["--out", str(tmp_path / "out")]
    assert main([command[0], str(path), *command[1:], *out, "--dataset", str(dataset),
                 "--split", "none"]) == 5
    assert "one one-against-all member" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["anfis_single", "anfis_oaa", "mlp"])
@pytest.mark.parametrize("command", [["evaluate"], ["roc", "--class-index", "1"]])
def test_model_of_other_inputs_exits_5(command, name, tmp_path, dataset, capsys):
    """The models under tests/models take two inputs, not the five attributes."""
    path = ROOT / "tests" / "models" / f"{name}.json"
    out = ["--out", str(tmp_path / "out")]
    assert main([command[0], str(path), *command[1:], *out, "--dataset", str(dataset),
                 "--split", "none"]) == 5
    assert capsys.readouterr().err == (
        f"error: {path}: model takes 2 inputs, evaluation gives 5\n")
    assert not (tmp_path / "out").exists()


class TestRoc:
    def test_curve_csv_and_printed_auc(self, trained, tmp_path, dataset,
                                       capsys):
        out = tmp_path / "roc.csv"
        assert main(["roc", trained["model"], "--class-index", "1",
                     "--out", str(out), "--dataset", str(dataset),
                     "--split", "none"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "threshold,fpr,tpr"
        pts = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        fpr = [p[1] for p in pts]
        tpr = [p[2] for p in pts]
        assert all(b >= a for a, b in zip(fpr, fpr[1:]))
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
        # perfectly separated class shows the ideal corner
        assert (0.0, 1.0) in [(f, t) for _, f, t in pts]

        printed = capsys.readouterr().out.strip().split("\n")[-1]
        assert printed.startswith("class 1 auc ")
        shown = float(printed.rsplit(" ", 1)[1])
        assert math.isclose(shown, float(np.trapezoid(tpr, fpr)), abs_tol=1e-12)

    def test_absent_class_exits_4(self, tmp_path, three_class_dataset,
                                  dataset):
        # train quickly on the full toy, then ask for a class the
        # evaluation file does not contain
        cfg, out_dir = mlp_config(tmp_path, dataset, "m", epochs=20)
        assert main(["train", "--config", cfg]) == 0
        assert main(["roc", str(out_dir / "model.json"),
                     "--class-index", "3", "--out", str(tmp_path / "r.csv"),
                     "--dataset", str(three_class_dataset),
                     "--split", "none"]) == 4

    def test_bad_class_index_exits_2(self, trained, tmp_path):
        assert main(["roc", trained["model"], "--class-index", "7",
                     "--out", str(tmp_path / "r.csv"),
                     "--config", trained["config"]]) == 2

    def test_class_index_refused_before_the_model_is_read(self, tmp_path, capsys):
        assert main(["roc", str(tmp_path / "nope.json"), "--class-index", "7",
                     "--out", str(tmp_path / "r.csv")]) == 2
        assert "--class-index: invalid choice: 7" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_out_dash_writes_the_curve_to_stdout(self, trained, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["roc", trained["model"], "--class-index", "0",
                     "--out", "-", "--config", trained["config"]]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[-2].startswith("class 0 auc ")
        assert not (tmp_path / "-").exists()

    def test_out_in_a_missing_directory_exits_2(self, trained, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        assert main(["roc", trained["model"], "--class-index", "0",
                     "--out", str(out), "--config", trained["config"]]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
        assert not out.parent.exists()


PUBLISHED_ROW = {"method": "probe", "mwcs": 2.0, "cap_percent": 98.62, "cap_decimals": 2}
# baselines files refused with exit 2 before any output is written
MALFORMED_BASELINES = {
    "top-level-number": 5,
    "test-size-zero": {"test_size": 0, "rows": [PUBLISHED_ROW]},
    "test-size-true": {"test_size": True, "rows": [PUBLISHED_ROW]},
    "test-size-float": {"test_size": 145.0, "rows": [PUBLISHED_ROW]},
    "rows-a-number": {"test_size": 145, "rows": 5},
    "row-a-number": {"test_size": 145, "rows": [5]},
    "row-without-mwcs": {"test_size": 145, "rows": [
        {k: v for k, v in PUBLISHED_ROW.items() if k != "mwcs"}]},
    "row-without-cap-percent": {"test_size": 145, "rows": [
        {k: v for k, v in PUBLISHED_ROW.items() if k != "cap_percent"}]},
    "method-a-number": {"test_size": 145, "rows": [{**PUBLISHED_ROW, "method": 7}]},
    "mwcs-a-string": {"test_size": 145, "rows": [{**PUBLISHED_ROW, "mwcs": "1"}]},
    "cap-percent-false": {"test_size": 145, "rows": [{**PUBLISHED_ROW,
                                                      "cap_percent": False}]},
    "cap-decimals-a-string": {"test_size": 145, "rows": [{**PUBLISHED_ROW,
                                                          "cap_decimals": "2"}]},
    "cap-decimals-negative": {"test_size": 145, "rows": [{**PUBLISHED_ROW,
                                                          "cap_decimals": -400}]},
}


class TestCompare:
    def test_constants_only(self, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--out-dir", str(out_dir)]) == 0
        payload = json.loads((out_dir / "comparison.json").read_text())
        rows = payload["rows"]
        assert len(rows) == 9
        assert all(r["status"] == "published" for r in rows)
        flags = {r["method"]: r["cap_consistent"] for r in rows}
        # exactly one published pair fails its own error-count arithmetic
        assert flags["ANN (published)"] is False
        assert sum(1 for ok in flags.values() if not ok) == 1
        table = (out_dir / "comparison.txt").read_text()
        assert capsys.readouterr().out.endswith(table)
        assert "ANN (published)" in table

    def test_computed_row_joins_published(self, tmp_path, dataset, capsys):
        config, _ = mlp_config(tmp_path, dataset, "cmp_run", epochs=60)
        out_dir = tmp_path / "cmp"
        assert main(["compare", config, "--out-dir", str(out_dir)]) == 0
        rows = json.loads((out_dir / "comparison.json").read_text())["rows"]
        assert len(rows) == 10
        computed = rows[0]
        assert computed["status"] == "computed"
        assert computed["method"] == "mlp:cmp_run"
        assert computed["runs"] == 1
        assert len(computed["per_run_wrong"]) == 1
        assert math.isclose(
            computed["cap_percent"],
            100.0 * (1 - computed["per_run_wrong"][0] / computed["test_size"]))

    def test_identical_configs_identical_rows(self, tmp_path, dataset):
        rows_by_dir = []
        for name in ("one", "two"):
            sub = tmp_path / name
            sub.mkdir()
            config, _ = mlp_config(sub, dataset, "run", epochs=40)
            out_dir = sub / "cmp"
            assert main(["compare", config, "--out-dir", str(out_dir)]) == 0
            rows = json.loads((out_dir / "comparison.json").read_text())["rows"]
            rows_by_dir.append(rows[0])
        assert rows_by_dir[0] == rows_by_dir[1]

    def test_failing_config_marked_not_fatal(self, tmp_path, dataset, capsys):
        good, _ = mlp_config(tmp_path, dataset, "good", epochs=30)
        bad = write_config(tmp_path / "bad.cfg",
                           dataset=tmp_path / "absent.csv", model="mlp")
        out_dir = tmp_path / "cmp"
        assert main(["compare", good, bad, "--out-dir", str(out_dir)]) == 3
        rows = json.loads((out_dir / "comparison.json").read_text())["rows"]
        assert rows[0]["status"] == "computed"
        assert rows[1]["status"] == "failed"
        assert "error" in rows[1]
        assert len(rows) == 11   # both attempts plus the published table
        assert "failed" in (out_dir / "comparison.txt").read_text()

    def test_numeric_subclass_failure_exits_4(self, tmp_path, monkeypatch):
        def undefined_kappa(config_path):
            raise UndefinedKappaError("random accuracy is 1")

        monkeypatch.setattr(cli, "_compare_run", undefined_kappa)
        out_dir = tmp_path / "cmp"
        assert main(["compare", "any.cfg", "--out-dir", str(out_dir)]) == 4
        rows = json.loads((out_dir / "comparison.json").read_text())["rows"]
        assert rows[0]["status"] == "failed"

    def test_refused_training_value_is_a_failed_row(self, tmp_path, dataset):
        good, _ = mlp_config(tmp_path, dataset, "good", epochs=30)
        bad = write_config(tmp_path / "nan.cfg", dataset=dataset, model="mlp",
                           learn_rate="nan")
        out_dir = tmp_path / "cmp"
        assert main(["compare", good, bad, "--out-dir", str(out_dir)]) == 2
        rows = json.loads((out_dir / "comparison.json").read_text())["rows"]
        assert [r["status"] for r in rows[:2]] == ["computed", "failed"]
        assert rows[1]["method"] == "nan"
        assert "failed" in (out_dir / "comparison.txt").read_text()

    def test_failed_solve_is_a_failed_row_exiting_4(self, tmp_path, monkeypatch):
        def singular(config_path):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "_compare_run", singular)
        out_dir = tmp_path / "cmp"
        assert main(["compare", "any.cfg", "--out-dir", str(out_dir)]) == 4
        rows = json.loads((out_dir / "comparison.json").read_text())["rows"]
        assert rows[0] == {"method": "any", "status": "failed",
                           "error": "Singular matrix"}

    def test_config_without_a_test_set_is_a_failed_row(self, tmp_path, dataset):
        config, _ = mlp_config(tmp_path, dataset, "whole", split="none")
        out_dir = tmp_path / "cmp"
        assert main(["compare", config, "--out-dir", str(out_dir)]) == 3
        rows = json.loads((out_dir / "comparison.json").read_text())["rows"]
        assert rows[0] == {"method": "whole", "status": "failed",
                           "error": "comparison run has an empty test set"}

    def test_kfold_config_runs_every_fold(self, tmp_path, dataset):
        config = write_config(
            tmp_path / "kf.cfg", dataset=dataset, model="mlp", epochs=30,
            learn_rate=0.5, split="kfold", folds=4, seed=2)
        out_dir = tmp_path / "cmp"
        assert main(["compare", config, "--out-dir", str(out_dir)]) == 0
        row = json.loads((out_dir / "comparison.json").read_text())["rows"][0]
        assert row["runs"] == 4
        assert len(row["per_run_wrong"]) == 4
        assert len(row["per_run_cap"]) == 4
        assert math.isclose(row["mwcs"],
                            sum(row["per_run_wrong"]) / 4.0)
        assert row["best_cap_percent"] == max(row["per_run_cap"])

    def test_custom_baselines_file(self, tmp_path, capsys):
        custom = tmp_path / "base.json"
        custom.write_text(json.dumps({
            "test_size": 100,
            "rows": [{"method": "probe", "mwcs": 10.0,
                      "cap_percent": 90.0, "cap_decimals": 2}],
        }), encoding="utf-8")
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--out-dir", str(out_dir),
                     "--baselines", str(custom)]) == 0
        rows = json.loads((out_dir / "comparison.json").read_text())["rows"]
        assert rows == [{"method": "probe", "status": "published",
                         "test_size": 100, "mwcs": 10.0, "cap_percent": 90.0,
                         "cap_consistent": True}]

    def test_malformed_baselines_exits_2(self, tmp_path):
        custom = tmp_path / "base.json"
        custom.write_text("{\"rows\": []}", encoding="utf-8")
        assert main(["compare", "--out-dir", str(tmp_path / "cmp"),
                     "--baselines", str(custom)]) == 2

    @pytest.mark.parametrize("case", MALFORMED_BASELINES)
    def test_malformed_baselines_file_exits_2(self, case, tmp_path, capsys):
        custom = tmp_path / "base.json"
        custom.write_text(json.dumps(MALFORMED_BASELINES[case]), encoding="utf-8")
        assert main(["compare", "--out-dir", str(tmp_path / "cmp"),
                     "--baselines", str(custom)]) == 2
        assert capsys.readouterr().err.startswith("error: baselines ")
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("text", [None, "{\"test_size\": 145,", "[" * 200_000],
                             ids=["missing-file", "not-json", "deeply-nested"])
    def test_unreadable_baselines_exits_2(self, text, tmp_path, capsys):
        custom = tmp_path / "base.json"
        if text is not None:
            custom.write_text(text, encoding="utf-8")
        assert main(["compare", "--out-dir", str(tmp_path / "cmp"),
                     "--baselines", str(custom)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestDatasetStats:
    def test_summary(self, dataset, capsys):
        assert main(["dataset-stats", "--dataset", str(dataset)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_samples"] == 48
        assert sum(stats["class_counts"].values()) == 48
        assert set(stats["attributes"]) == {"STG", "SCG", "STR", "LPR", "PEG"}
        for entry in stats["attributes"].values():
            assert entry["min"] <= entry["mean"] <= entry["max"]

    def test_header_only_file_has_no_attribute_ranges(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("STG,SCG,STR,LPR,PEG,UNS\n", encoding="utf-8")
        assert main(["dataset-stats", "--dataset", str(path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == {"n_samples": 0, "attributes": {},
                         "class_counts": dict.fromkeys(CLASS_LABELS, 0)}

    def test_missing_dataset_exits_3(self, tmp_path):
        assert main(["dataset-stats",
                     "--dataset", str(tmp_path / "none.csv")]) == 3

    def test_no_dataset_configured_exits_2(self):
        assert main(["dataset-stats"]) == 2

    def test_encoding_flag_exits_2(self, dataset, capsys):
        assert main(["dataset-stats", "--dataset", str(dataset),
                     "--encoding", "passthrough"]) == 2
        assert "unrecognized arguments: --encoding" in capsys.readouterr().err

    def test_config_encoding_keys_are_not_read(self, tmp_path, dataset, capsys):
        assert main(["dataset-stats", "--dataset", str(dataset)]) == 0
        alone = capsys.readouterr().out
        config = write_config(tmp_path / "nan.cfg", dataset=dataset, threshold="nan")
        assert main(["dataset-stats", "--config", config]) == 0
        assert capsys.readouterr().out == alone

    def test_field_over_csv_limit_exits_3(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("STG,SCG,STR,LPR,PEG,UNS,NOTE\n0.1,0.2,0.3,0.4,0.5,low,x\n"
                        "0.1,0.2,0.3,0.4,0.5,low," + "x" * (csv.field_size_limit() + 1)
                        + "\n", encoding="utf-8")
        assert main(["dataset-stats", "--dataset", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: data row 2: field larger than field limit "
            f"({csv.field_size_limit()})\n")

    def test_bytes_not_utf8_exit_3(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"STG,SCG,STR,LPR,PEG,UNS\n0.1,0.2,0.3,0.4,0.5,low\n"
                         b"0.1,0.2,0.3,0.4,0.5,l\xffow\n")
        assert main(["dataset-stats", "--dataset", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (invalid start byte, byte 0xff)\n")
