"""Output contract: one command set on a parent export and on the working tree.

Run from the repository root:

    python3 tools/output_contract.py --parent REV

The parent side runs from a clean export of ``--parent`` (``git archive``
into a temporary directory, removed at the end); the change side runs,
twice, from a copy in the same directory of the working tree's files that
git does not ignore.  Each side runs ``python -m neurofuzzy.cli``
with its own ``src`` and ``data/ukm_synthetic.csv``, one BLAS thread, and
every output under the temporary directory:

- ``train`` for each of the configs in ``CONFIGS``, then per config
  ``evaluate`` to a file and to stdout and ``roc`` for classes 0..3;
- ``roc`` to stdout (``--out -``) for one model;
- ``evaluate`` and ``roc`` with ``--split none`` for the models in
  ``REPEATED``, on the bundled rows repeated 12 times (4,836 rows, several
  scoring row blocks for each model);
- ``compare`` over every config, and ``dataset-stats`` from ``--dataset``
  and from a config whose ``threshold`` is nan, which it does not read;
- the misuse cases in ``misuse``, which exit 2 to 5 (bad config, a flag
  the command does not read, an unwritable output path, bad data, a class
  absent from the data, bad model files, a model of two inputs, a model
  whose membership degrees or rule values overflow, malformed baselines
  files), their model files edited from the side's own trained models.
  Each faulty data file (a non-numeric, out-of-range or missing cell, a
  missing or duplicated column, two faults in one file in either order)
  goes through both ``dataset-stats`` and ``train``;
- the bundled data rewritten in well-formed but unusual ways (quoted
  cells, CRLF line ends, an extra column, a reordered header, a
  whitespace-only line, padded label text), each through
  ``dataset-stats`` and ``train``.

Each command's stdout and stderr, with the temporary paths replaced, are
output files too.  The report gives each output file as "identical",
as differing text, or, when only numbers differ, as the worst relative
difference of its numbers, element by element and relative to the
largest magnitude among the file's numbers; each command's exit code on
both sides; whether each parent-written ``model.json`` loads and
re-saves byte for byte under the change; and any file or exit code that
differs between the two runs of the change.  It exits 1 on any
difference.  Nothing in the repository is written.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ONE_THREAD, export, snapshot

# name: config keys besides the dataset
CONFIGS = {
    "oaa": {},
    "single-gbell": {"output_mode": "single", "mf_shape": "gbell"},
    "mlp-full": {"model": "mlp", "epochs": 200, "learn_rate": 0.5},
    "mlp-stochastic-ce": {"model": "mlp", "epochs": 20, "learn_rate": 0.2,
                          "batch_mode": "stochastic", "loss": "cross_entropy"},
    "mlp-raw-full-ce": {"model": "mlp", "encoding": "passthrough", "epochs": 200,
                        "learn_rate": 0.5, "loss": "cross_entropy"},
    "mlp-tansig-out": {"model": "mlp", "epochs": 200, "learn_rate": 0.5,
                       "output_activation": "tansig"},
    "kfold-passthrough": {"encoding": "passthrough", "split": "kfold",
                          "folds": 5, "fold": 2, "epochs": 20},
    "triangular-none": {"mf_shape": "triangular", "split": "none",
                        "output_mode": "single", "epochs": 20},
    "predefined-constant": {"split": "predefined", "consequent_order": "constant"},
    "m3-single": {"mfs_per_input": 3, "output_mode": "single", "epochs": 10},
    "raw-gauss2-oaa": {"encoding": "passthrough"},
    "raw-gbell-m3-oaa": {"encoding": "passthrough", "mf_shape": "gbell",
                         "mfs_per_input": 3, "epochs": 5},
    "oaa-early-stop": {"early_stop": 0.16},
}
# models also scored on the bundled rows repeated: an OAA one and two M = 3 ones
REPEATED = ("oaa", "m3-single", "raw-gbell-m3-oaa")
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def edited_model(src, dest, edit):
    """Write ``src``'s model JSON to ``dest`` after ``edit(payload)``."""
    payload = json.loads(Path(src).read_text(encoding="utf-8"))
    edit(payload)
    Path(dest).write_text(json.dumps(payload), encoding="utf-8")
    return str(dest)


def drop_last_class(payload):
    payload.update(n_classes=3, w_out=payload["w_out"][:3], b_out=payload["b_out"][:3])


def overflow_consequents(payload):
    """Set every member's consequents to +-1e308 by rule, finite values whose
    rule values overflow to inf - inf."""
    for member in payload["members"]:
        member["consequents"] = [[(-1) ** r * 1e308] * len(row)
                                 for r, row in enumerate(member["consequents"])]


def misuse(inp, run, dataset):
    """(name, argv) of the misuse cases, given the trained models under ``run``."""
    oaa, single, mlp = (run / name / "model.json"
                        for name in ("oaa", "single-gbell", "mlp-full"))
    lines = Path(dataset).read_text(encoding="utf-8").splitlines(keepends=True)
    empty, three, badlabel = inp / "empty.csv", inp / "three.csv", inp / "badlabel.csv"
    empty.write_text(lines[0], encoding="utf-8")
    three.write_text("".join(line for line in lines
                             if not line.rstrip().endswith(",High")),
                     encoding="utf-8")
    badlabel.write_text(lines[0] + "0.1,0.2,0.3,0.4,0.5,Expert\n", encoding="utf-8")
    faults = {
        "non-numeric": lines[0] + "0.1,0.2,abc,0.4,0.5,Low\n",
        "out-of-range": lines[0] + "0.1,1.2,0.3,0.4,0.5,Low\n",
        "short-row": lines[0] + "0.1,0.2,0.3,0.4\n",
        "missing-column": "STG,SCG,STR,LPR,UNS\n0.1,0.2,0.3,0.4,Low\n",
        "duplicated-column": ("STG,SCG,STR,LPR,PEG,stg,UNS\n"
                              "0.1,0.2,0.3,0.4,0.5,0.5,Low\n"),
        "two-faults": "".join(lines[:3]) + "0.1,0.2,0.3,1.5,0.5,Low\n"
                      + lines[3] + "0.1,0.2,0.3,0.4,0.5,Expert\n",
        "two-faults-reversed": "".join(lines[:3]) + "0.1,0.2,0.3,0.4,0.5,Expert\n"
                               + lines[3] + "0.1,0.2,0.3,1.5,0.5,Low\n",
    }
    for name, text in faults.items():
        (inp / f"{name}.csv").write_text(text, encoding="utf-8")
    unknown_key = inp / "unknown_key.cfg"
    unknown_key.write_text(f"dataset={dataset}\ncolour=red\n", encoding="utf-8")
    short, nan_rate = inp / "short.cfg", inp / "nan_rate.cfg"
    short.write_text(f"dataset={dataset}\nepochs=2\n", encoding="utf-8")
    nan_rate.write_text(f"dataset={dataset}\nlearn_rate=nan\n", encoding="utf-8")
    row = {"method": "probe", "cap_percent": 98.62}
    baselines = {"test-size-zero": {"test_size": 0, "rows": [{**row, "mwcs": 2.0}]},
                 "row-without-mwcs": {"test_size": 145, "rows": [row]}}
    for name, payload in baselines.items():
        (inp / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
    (inp / "a_file").write_text("", encoding="utf-8")
    data = ["--dataset", str(dataset)]
    (inp / "corrupt.json").write_text('{"kind": "anfis"', encoding="utf-8")
    (inp / "not_utf8.json").write_bytes(b'{"format_version": 1, "kind": "\xff"}')
    (inp / "nested.json").write_bytes(b"[" * 200_000)
    models = {
        "corrupt": str(inp / "corrupt.json"),
        "not-utf8": str(inp / "not_utf8.json"),
        "deeply-nested": str(inp / "nested.json"),
        "format-version-2": edited_model(
            oaa, inp / "v2.json", lambda d: d.update(format_version=2)),
        "unknown-kind": edited_model(
            mlp, inp / "svm.json", lambda d: d.update(kind="svm")),
        "non-finite": edited_model(
            single, inp / "nan.json",
            lambda d: d["consequents"][0].__setitem__(0, float("nan"))),
        "oaa-members-reversed": edited_model(
            oaa, inp / "reversed.json", lambda d: d["members"].reverse()),
        "oaa-three-members": edited_model(
            oaa, inp / "three_members.json", lambda d: d["members"].pop()),
        "oaa-member-single": edited_model(
            oaa, inp / "member_single.json",
            lambda d: d["members"][2].update(output_mode="single")),
        "output-mode-bogus": edited_model(
            single, inp / "mode.json", lambda d: d.update(output_mode="bogus")),
        "consequent-order-bogus": edited_model(
            single, inp / "order.json", lambda d: d.update(consequent_order="bogus")),
        "mlp-unknown-activation": edited_model(
            mlp, inp / "relu.json", lambda d: d.update(hidden_activation="relu")),
        "mlp-three-classes": edited_model(
            mlp, inp / "three_classes.json", drop_last_class),
        "permuted-rules": edited_model(single, inp / "permuted.json", lambda d: d.update(
            antecedents=d["antecedents"][::-1], consequents=d["consequents"][::-1])),
        "subset-rules": edited_model(single, inp / "subset.json", lambda d: d.update(
            antecedents=d["antecedents"][:8], consequents=d["consequents"][:8])),
        "seed-infinite": edited_model(
            single, inp / "seed_inf.json", lambda d: d.update(seed=float("inf"))),
        "seed-true": edited_model(
            single, inp / "seed_true.json", lambda d: d.update(seed=True)),
        "oaa-member-positive-class-float": edited_model(
            oaa, inp / "class_float.json",
            lambda d: d["members"][2].update(positive_class=2.0)),
        "input-range-one-value": edited_model(
            single, inp / "range_one.json", lambda d: d.update(input_range=[0.0])),
        "consequent-true": edited_model(
            single, inp / "consequent_true.json",
            lambda d: d["consequents"][0].__setitem__(0, True)),
        "mf-param-true": edited_model(
            single, inp / "mf_param_true.json",
            lambda d: d["mf_bank"][0][0].update(b=True)),
        "weight-string": edited_model(
            mlp, inp / "weight_string.json",
            lambda d: d["w_out"][0].__setitem__(0, "0.5")),
        "unknown-key": edited_model(
            mlp, inp / "unknown_key.json", lambda d: d.update(colour="red")),
        "two-inputs": edited_model(mlp, inp / "two_inputs.json", lambda d: d.update(
            input_dim=2, w_hidden=[row[:2] for row in d["w_hidden"]])),
        "overflowing-consequents": edited_model(
            oaa, inp / "big_consequents.json", overflow_consequents),
        # finite parameters whose gauss2 degrees overflow to NaN
        "overflowing-degrees": edited_model(
            oaa, inp / "overflow.json", lambda d: d["members"][0]["mf_bank"][0][0].update(
                sigma_left=1e200, c_left=1e200, sigma_right=1e200, c_right=1e200)),
    }
    cases = [
        ("misuse-unknown-key", ["train", "--config", str(unknown_key),
                                "--out-dir", str(run / "bad1")]),
        ("misuse-bad-value", ["train", *data, "--mf-shape", "hexagon",
                              "--out-dir", str(run / "bad2")]),
        ("misuse-ridge-nan", ["train", *data, "--ridge", "nan",
                              "--out-dir", str(run / "bad3")]),
        ("misuse-one-mf", ["train", *data, "--mfs-per-input", "1",
                           "--out-dir", str(run / "bad4")]),
        ("misuse-no-dataset", ["train", "--out-dir", str(run / "bad5")]),
        ("misuse-out-dir-file", ["train", *data, "--out-dir", str(inp / "a_file")]),
        ("misuse-class-index", ["roc", str(oaa), *data, "--class-index", "7",
                                "--out", str(run / "bad.csv")]),
        ("misuse-dataset-stats-encoding", ["dataset-stats", *data,
                                           "--encoding", "passthrough"]),
        ("misuse-evaluate-training-flags", ["evaluate", str(oaa), *data,
                                            "--mf-shape", "gbell", "--epochs", "7"]),
        ("misuse-compare-nan-rate", ["compare", str(short), str(nan_rate),
                                     "--out-dir", str(run / "bad-compare")]),
        ("misuse-evaluate-out-dir", ["evaluate", str(oaa), *data,
                                     "--out", str(run / "oaa")]),
        ("misuse-roc-out-missing-dir", ["roc", str(oaa), *data, "--class-index", "0",
                                        "--out", str(run / "missing" / "r.csv")]),
        ("misuse-missing-dataset", ["train", "--dataset", str(inp / "nope.csv"),
                                    "--out-dir", str(run / "bad6")]),
        ("misuse-bad-label", ["dataset-stats", "--dataset", str(badlabel)]),
        ("misuse-empty-selection", ["evaluate", str(oaa), "--dataset", str(empty),
                                    "--split", "none"]),
        ("misuse-absent-class", ["roc", str(oaa), "--dataset", str(three),
                                 "--split", "none", "--class-index", "3",
                                 "--out", str(run / "absent.csv")]),
    ]
    cases += [(f"misuse-baselines-{name}", ["compare", "--baselines", str(inp / f"{name}.json"),
                                            "--out-dir", str(run / f"bad-{name}")])
              for name in baselines]
    cases += [(f"misuse-data-{name}-{command}",
               [command, "--dataset", str(inp / f"{name}.csv"),
                *(["--out-dir", str(run / f"bad-{name}")] if command == "train" else [])])
              for name in faults for command in ("dataset-stats", "train")]
    return cases + [(f"misuse-model-{name}", ["evaluate", path, *data,
                                              "--split", "none"])
                    for name, path in models.items()]


def unusual_data(inp, run, dataset):
    """(name, argv) of ``dataset-stats`` and ``train`` on well-formed but
    unusual rewrites of ``dataset``, whose lines end in LF but the crlf
    file's (the bundled file's own line ends are CRLF)."""
    rows = [line.split(",") for line in
            Path(dataset).read_text(encoding="utf-8").splitlines()]
    middle = len(rows) // 2
    files = {
        "quoted-cells": [[f'"{cell}"' for cell in row] for row in rows],
        "crlf": rows,
        "extra-column": [row + ["NOTE" if k == 0 else "x"] for k, row in enumerate(rows)],
        "reordered-header": [row[::-1] for row in rows],
        "whitespace-only-line": rows[:middle] + [["   "]] + rows[middle:],
        "padded-label": [row[:-1] + [f"  {row[-1]}\t"] for row in rows],
    }
    for name, table in files.items():
        end = "\r\n" if name == "crlf" else "\n"
        (inp / f"{name}.csv").write_bytes(
            "".join(",".join(row) + end for row in table).encode("utf-8"))
    return [(f"data-{name}-{command}",
             [command, "--dataset", str(inp / f"{name}.csv"),
              *(["--out-dir", str(run / f"data-{name}")] if command == "train" else [])])
            for name in files for command in ("dataset-stats", "train")]


def run_side(tree, run):
    """Run the command set with ``tree``'s program into ``run``; returns
    {command name: exit code}."""
    inp, logs = run / "inputs", run / "logs"
    inp.mkdir(parents=True)
    logs.mkdir()
    dataset = Path(tree) / "data" / "ukm_synthetic.csv"
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(Path(tree) / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    codes = {}

    def cli(name, argv):
        proc = subprocess.run([sys.executable, "-m", "neurofuzzy.cli", *argv],
                              cwd=run, env=env, capture_output=True, text=True)
        for stream, text in (("out", proc.stdout), ("err", proc.stderr)):
            text = text.replace(str(run), "<run>").replace(str(tree), "<tree>")
            (logs / f"{name}.{stream}").write_text(text, encoding="utf-8")
        codes[name] = proc.returncode

    configs = {}
    for name, keys in CONFIGS.items():
        configs[name] = inp / f"{name}.cfg"
        configs[name].write_text("".join(f"{k}={v}\n" for k, v in
                                         {"dataset": dataset, **keys}.items()),
                                 encoding="utf-8")
        cli(f"train-{name}", ["train", "--config", str(configs[name]),
                              "--out-dir", str(run / name)])
    for name, config in configs.items():
        model, out = str(run / name / "model.json"), run / name
        cli(f"evaluate-{name}", ["evaluate", model, "--config", str(config),
                                 "--out", str(out / "report.json")])
        cli(f"evaluate-stdout-{name}", ["evaluate", model, "--config", str(config)])
        for k in range(4):
            cli(f"roc{k}-{name}", ["roc", model, "--config", str(config),
                                   "--class-index", str(k), "--out",
                                   str(out / f"roc{k}.csv")])
    cli("roc0-stdout-oaa", ["roc", str(run / "oaa" / "model.json"), "--config",
                            str(configs["oaa"]), "--class-index", "0", "--out", "-"])
    lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    repeated = inp / "repeated.csv"
    repeated.write_text(lines[0] + "".join(lines[1:]) * 12, encoding="utf-8")
    for name in REPEATED:
        model, out = str(run / name / "model.json"), run / name
        data = ["--config", str(configs[name]), "--dataset", str(repeated),
                "--split", "none"]
        cli(f"evaluate-repeated-{name}", ["evaluate", model, *data])
        cli(f"roc0-repeated-{name}", ["roc", model, *data, "--class-index", "0",
                                      "--out", str(out / "roc0-repeated.csv")])
    cli("compare", ["compare", *map(str, configs.values()),
                    "--out-dir", str(run / "compare")])
    cli("dataset-stats", ["dataset-stats", "--dataset", str(dataset)])
    nan_threshold = inp / "nan_threshold.cfg"
    nan_threshold.write_text(f"dataset={dataset}\nthreshold=nan\n", encoding="utf-8")
    cli("dataset-stats-nan-threshold", ["dataset-stats", "--config", str(nan_threshold)])
    for name, argv in unusual_data(inp, run, dataset) + misuse(inp, run, dataset):
        cli(name, argv)
    return codes


def outputs(run):
    return {str(p.relative_to(run)): p.read_bytes() for p in sorted(run.rglob("*"))
            if p.is_file() and p.relative_to(run).parts[0] != "inputs"}


def number_pairs(a, b):
    """The numbers of ``a`` and ``b`` side by side, as floats, when the two
    texts differ only in them; otherwise None."""
    try:
        ta, tb = a.decode("utf-8"), b.decode("utf-8")
    except UnicodeDecodeError:
        return None
    na, nb = NUMBER.findall(ta), NUMBER.findall(tb)
    if NUMBER.sub("#", ta) != NUMBER.sub("#", tb) or len(na) != len(nb):
        return None
    return [(float(x), float(y)) for x, y in zip(na, nb)]


def difference(a, b):
    """"identical", the worst relative difference of the numbers when only
    numbers differ, or "differs"."""
    if a == b:
        return "identical"
    pairs = number_pairs(a, b)
    if pairs is None:
        return "differs"
    worst = max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y),
                default=0.0)
    return f"worst relative difference {worst:.3g}"


def scaled_difference(a, b):
    """The worst difference of the numbers relative to the largest magnitude
    among both files' numbers, when only numbers differ; otherwise None.
    A tiny value that moved reads small here, where ``difference`` gives
    it the full weight of its own size."""
    pairs = number_pairs(a, b)
    if not pairs:
        return None
    scale = max(max(abs(x), abs(y)) for x, y in pairs)
    return max(abs(x - y) for x, y in pairs) / scale if scale else 0.0


def resaved(tree, run):
    """{model file: re-saved byte for byte} of the models under ``run``,
    loaded and saved by ``tree``'s program."""
    code = ("import json, sys; from pathlib import Path\n"
            "from neurofuzzy.model_io import load_model, model_to_json\n"
            "print(json.dumps({p: model_to_json(load_model(p)) == "
            "Path(p).read_text(encoding='utf-8') for p in sys.argv[1:]}))")
    paths = [str(run / name / "model.json") for name in CONFIGS]
    proc = subprocess.run([sys.executable, "-c", code, *paths], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(tree) / "src"),
                               "PYTHONDONTWRITEBYTECODE": "1"})
    return {str(Path(p).relative_to(run)): ok
            for p, ok in json.loads(proc.stdout).items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="output-contract-"))
    try:
        trees = {"parent": export(args.parent, scratch / "parent"),
                 "change": snapshot(scratch / "change")}
        runs = {side: scratch / "runs" / side for side in ("parent", "change", "again")}
        codes = {side: run_side(trees["change" if side == "again" else side], run)
                 for side, run in runs.items()}
        files = {side: outputs(run) for side, run in runs.items()}
        roundtrip = resaved(trees["change"], runs["parent"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = 0
    print("output files, parent -> change:")
    for name in sorted(set(files["parent"]) | set(files["change"])):
        a, b = files["parent"].get(name), files["change"].get(name)
        verdict = ("only in the change" if a is None else "only in the parent"
                   if b is None else difference(a, b))
        problems += verdict != "identical"
        if verdict.startswith("worst"):
            verdict += f", {scaled_difference(a, b):.3g} of the largest number"
        print(f"  {name}: {verdict}")
    print("exit codes, parent -> change:")
    for name in codes["parent"]:
        p, c = codes["parent"][name], codes["change"].get(name)
        problems += p != c
        print(f"  {name}: {p} -> {c}" + ("" if p == c else "  CHANGED"))
    print("parent model files re-saved by the change:")
    for name, ok in roundtrip.items():
        problems += not ok
        print(f"  {name}: {'byte for byte' if ok else 'differs'}")
    unstable = sorted(name for name in set(files["change"]) | set(files["again"])
                      if files["change"].get(name) != files["again"].get(name))
    unstable += [name for name in codes["change"]
                 if codes["change"][name] != codes["again"].get(name)]
    problems += len(unstable)
    print("differences between two runs of the change: "
          + (", ".join(unstable) if unstable else "none"))
    print(f"{problems} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
