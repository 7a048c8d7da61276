"""Command-line front end for reproducible train/evaluate runs.

A run is described by a flat key=value config file; a command takes the
keys it reads as command-line flags too, and flags win.  Every
command is deterministic given (config, seed) at a fixed BLAS thread
count: repeated runs write byte-identical model files, reports, and
curves.  With 3 functions per input, OpenBLAS rounds each row of the
rule-output GEMM by how it splits the rows among its threads, so runs
under 1 and 2 threads differ.  No command mutates its inputs.

Exit codes: 0 success, 2 bad config or arguments, 3 data load/split
error, 4 numeric failure, 5 model file/format error.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
from importlib import resources
from pathlib import Path

import numpy as np

from .anfis import TrainingConfig, build_grid_model, train_hybrid, train_oaa
from .data import (ATTRIBUTES, CLASS_LABELS, binarize, class_distribution,
                   kfold, load_dataset, passthrough, predefined_split,
                   split_stratified, split_to_json, to_arrays)
from .errors import (ConfigError, DataLoadError, ModelFormatError,
                     NeurofuzzyError, NumericError, SplitError)
from .fuzzy import MF_SHAPES
from .metrics import auc, cap_consistent, evaluate_multiclass, roc_curve, roc_to_csv
from .mlp import MlpTrainingConfig, build_mlp, train_backprop
from .model_io import load_model, model_to_json

__all__ = ["read_config_file", "build_run_config", "main"]

# key: (type converter, default, allowed values or None, help)
CONFIG_SCHEMA = {
    "dataset": (str, None, None, "dataset CSV path"),
    "encoding": (str, "binarize", ("binarize", "passthrough"),
                 "feature encoding"),
    "threshold": (float, 0.5, None, "binarize threshold"),
    "split": (str, "ratio", ("ratio", "predefined", "kfold", "none"),
              "train/test split mode"),
    "ratio": (float, 0.8, None, "train fraction for split=ratio"),
    "seed": (int, 0, None, "seed for splits, init, and training"),
    "folds": (int, 5, None, "fold count for split=kfold"),
    "fold": (int, 0, None, "held-out fold for split=kfold"),
    "train_count": (int, 258, None, "train rows for split=predefined"),
    "model": (str, "anfis", ("anfis", "mlp"), "model family"),
    "mf_shape": (str, "gauss2", tuple(MF_SHAPES), "membership function shape"),
    "mfs_per_input": (int, 2, None, "membership functions per input"),
    "output_mode": (str, "oaa", ("single", "oaa"), "decision head"),
    "consequent_order": (str, "linear", ("linear", "constant"),
                         "rule consequent form"),
    "epochs": (int, 100, None, "training epochs"),
    "learn_rate": (float, 0.01, None, "gradient step size"),
    "ridge": (float, 1e-8, None, "consequent solve regularization"),
    "early_stop": (float, 0.0, None, "stop when train error reaches this"),
    "hidden": (int, 10, None, "hidden layer size"),
    "hidden_activation": (str, "tansig", ("tansig", "logsig"),
                          "hidden activation"),
    "output_activation": (str, "logsig", ("tansig", "logsig"),
                          "output activation"),
    "loss": (str, "mse", ("mse", "cross_entropy"), "training loss"),
    "batch_mode": (str, "full", ("full", "stochastic"), "update granularity"),
    "out_dir": (str, ".", None, "output directory"),
}
# the keys the data-reading commands take as flags; config files take every key
DATA_KEYS = ("dataset",)
SELECTION_KEYS = DATA_KEYS + ("encoding", "threshold", "split", "ratio", "seed",
                              "folds", "fold", "train_count")


def _convert(key, raw):
    conv, _, allowed, _ = CONFIG_SCHEMA[key]
    try:
        value = conv(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"config key {key}: expected {conv.__name__}, got {raw!r}") from None
    if allowed is not None and value not in allowed:
        raise ConfigError(
            f"config key {key}: {value!r} not one of {'/'.join(allowed)}")
    return value


def read_config_file(path):
    """Parse a flat key=value file; # starts a comment."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate config key {key!r}")
        values[key] = _convert(key, raw)
    return values


def build_run_config(config_path=None, overrides=None):
    """Defaults, then the file, then explicit flag overrides; flags win.
    The keys of ``CONFIG_SCHEMA`` are the result's attributes."""
    merged = {key: entry[1] for key, entry in CONFIG_SCHEMA.items()}
    if config_path is not None:
        merged.update(read_config_file(config_path))
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = _convert(key, value)
    if not merged["dataset"]:
        raise ConfigError("no dataset configured (set dataset= or --dataset)")
    return types.SimpleNamespace(**merged)


def _overrides_from_args(args):
    return {key: getattr(args, key, None) for key in CONFIG_SCHEMA}


def _add_config_flags(parser, keys=tuple(CONFIG_SCHEMA)):
    parser.add_argument("--config", default=None, help="key=value run config")
    for key in keys:
        conv, _, allowed, help_text = CONFIG_SCHEMA[key]
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, default=None,
            metavar=key.upper(),
            help=help_text + (f" ({'/'.join(allowed)})" if allowed else ""))


def _load_encoded(cfg):
    raw = load_dataset(cfg.dataset)
    return (binarize(raw, cfg.threshold) if cfg.encoding == "binarize"
            else passthrough(raw))


def _build_split(cfg, encoded):
    """The configured DatasetSplit, or None for split=none."""
    if cfg.split == "none":
        return None
    if cfg.split == "ratio":
        return split_stratified(encoded, cfg.ratio, cfg.seed)
    if cfg.split == "predefined":
        return predefined_split(encoded, cfg.train_count)
    splits = kfold(encoded, cfg.folds, cfg.seed)
    if not 0 <= cfg.fold < cfg.folds:
        raise ConfigError(f"fold {cfg.fold} out of range for folds={cfg.folds}")
    return splits[cfg.fold]


def _input_range(cfg):
    # binarized features live in {-1, +1}; raw attributes in [0, 1]
    return (-1.0, 1.0) if cfg.encoding == "binarize" else (0.0, 1.0)


def _trainer(cfg):
    """``run(train, test) -> (model, trace dict, lines)``; bad values raise here."""
    if cfg.model == "mlp":
        proto = build_mlp(hidden=cfg.hidden, seed=cfg.seed, input_dim=5,
                          n_classes=4, hidden_activation=cfg.hidden_activation,
                          output_activation=cfg.output_activation)
        mconf = MlpTrainingConfig(
            epochs=cfg.epochs, learn_rate=cfg.learn_rate, loss=cfg.loss,
            batch_mode=cfg.batch_mode, seed=cfg.seed, early_stop_mse=cfg.early_stop)
        def run(train, test):
            model, trace = train_backprop(proto, train, test, mconf)
            return model, trace.to_dict(), [f"final train mse {trace.train_mse[-1]:.6f}"]
        return run

    proto = build_grid_model(
        cfg.mf_shape, cfg.mfs_per_input, _input_range(cfg), seed=cfg.seed,
        input_dim=5, consequent_order=cfg.consequent_order)
    tconf = TrainingConfig(epochs=cfg.epochs, learn_rate=cfg.learn_rate, ridge=cfg.ridge,
                           seed=cfg.seed, early_stop_rmse=cfg.early_stop)
    def run(train, test):
        if cfg.output_mode != "oaa":
            model, trace = train_hybrid(proto, train, test, tconf)
            return model, trace.to_dict(), [f"final train rmse {trace.train_rmse[-1]:.6f}"]
        model, traces = train_oaa(proto, train, test, tconf)
        return model, {"members": [t.to_dict() for t in traces]}, [
            f"member {k} final train rmse {t.train_rmse[-1]:.6f}"
            for k, t in enumerate(traces)]
    return run


def _accuracy_line(model, samples):
    X, _, _, labels = to_arrays(samples)
    return int(np.sum(model.classify(X)[0] == labels)), len(samples)


def _make_out_dir(path):
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {out_dir}: {exc}") from exc
    return out_dir


def _write_text(path, text):
    """Write ``text`` to ``path``, or to stdout if ``path`` is ``-``."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def cmd_train(args):
    cfg = build_run_config(args.config, _overrides_from_args(args))
    encoded = _load_encoded(cfg)
    split = _build_split(cfg, encoded)
    train_samples, test_samples = ((encoded, []) if split is None
                                   else (split.train, split.test))
    run = _trainer(cfg)
    out_dir = _make_out_dir(cfg.out_dir)

    model, trace_dict, lines = run(train_samples, test_samples)

    _write_text(out_dir / "model.json", model_to_json(model))
    _write_text(out_dir / "trace.json",
                json.dumps(trace_dict, indent=2) + "\n")
    if split is not None:
        _write_text(out_dir / "split.json", split_to_json(split))

    print("\n".join(lines))
    if test_samples:
        right, n = _accuracy_line(model, test_samples)
        print(f"test accuracy {right / n:.4f} ({right}/{n})")
    return 0


def _scored_selection(args):
    """Load the model and score the configured evaluation rows: the test
    side of the split, or every row for split=none.

    Returns (labels, predicted classes, per-class scores); a model
    that does not take the five attributes or score the four classes
    raises ModelFormatError.
    """
    model = load_model(args.model_file)
    if getattr(model, "output_mode", None) == "binary":
        raise ModelFormatError(f"{args.model_file}: a binary model is one "
                               "one-against-all member, not a classifier")
    if model.input_dim != len(ATTRIBUTES):
        raise ModelFormatError(f"{args.model_file}: model takes {model.input_dim} "
                               f"inputs, evaluation gives {len(ATTRIBUTES)}")
    cfg = build_run_config(args.config, _overrides_from_args(args))
    encoded = _load_encoded(cfg)
    split = _build_split(cfg, encoded)
    samples = encoded if split is None else split.test
    if not samples:
        raise SplitError("evaluation selection is empty")
    X, _, _, labels = to_arrays(samples)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below instead
        predicted, scores = model.classify(X)
    if scores.shape[1:] != (len(CLASS_LABELS),):
        raise ModelFormatError(
            f"{args.model_file}: model scores {scores.shape[1]} classes, "
            f"evaluation needs {len(CLASS_LABELS)}")
    if not np.all(np.isfinite(scores)):
        raise NumericError(f"{args.model_file}: model gives non-finite scores")
    return labels, predicted, scores


def cmd_evaluate(args):
    labels, predicted, scores = _scored_selection(args)
    report = evaluate_multiclass(labels, predicted, scores,
                                 class_names=list(CLASS_LABELS))
    _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def cmd_roc(args):
    labels, _, scores = _scored_selection(args)
    k = args.class_index
    positives = (labels == k).astype(int)
    if positives.sum() in (0, len(positives)):
        raise NumericError(
            f"class {CLASS_LABELS[k]} needs both positives and negatives "
            "in the evaluation set")
    curve = roc_curve(scores[:, k], positives)
    _write_text(args.out, roc_to_csv(curve))
    print(f"class {k} auc {auc(curve)!r}")
    return 0


def _is_number(value, kinds=(int, float)):
    """Whether a JSON value is of ``kinds``; true and false are not numbers."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _load_baselines(path):
    """The published rows: ``test_size`` an int >= 1, and ``rows`` a list of
    objects with a str ``method``, numeric ``mwcs`` and ``cap_percent``, and
    optionally an int ``cap_decimals`` >= 0, the printed CAP's precision."""
    if path is None:
        ref = resources.files("neurofuzzy") / "published" / "baselines.json"
        payload = json.loads(ref.read_text(encoding="utf-8"))
    else:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read baselines file: {exc}") from exc
        except (ValueError, RecursionError) as exc:   # not UTF-8 or JSON, or too deep
            raise ConfigError(f"baselines file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("baselines file must hold a JSON object")
    for field in ("test_size", "rows"):
        if field not in payload:
            raise ConfigError(f"baselines file is missing {field!r}")
    if not (_is_number(payload["test_size"], int) and payload["test_size"] >= 1):
        raise ConfigError("baselines test_size must be an int >= 1, "
                          f"got {payload['test_size']!r}")
    if not isinstance(payload["rows"], list):
        raise ConfigError("baselines rows must be a list")
    for k, row in enumerate(payload["rows"]):
        if not (isinstance(row, dict) and isinstance(row.get("method"), str)
                and _is_number(row.get("mwcs")) and _is_number(row.get("cap_percent"))
                and _is_number(row.get("cap_decimals", 0), int)
                and row.get("cap_decimals", 0) >= 0):
            raise ConfigError(f"baselines row {k} needs a str method, numeric mwcs "
                              "and cap_percent, and an int cap_decimals >= 0 if any")
    return payload


def _compare_run(config_path):
    """One computed comparison row; kfold configs contribute every fold."""
    cfg = build_run_config(config_path)
    encoded = _load_encoded(cfg)
    if cfg.split == "kfold":
        splits = kfold(encoded, cfg.folds, cfg.seed)
    else:
        splits = [_build_split(cfg, encoded)]

    run = _trainer(cfg)
    wrong_counts, sizes = [], []
    for split in splits:
        if split is None or not split.test:
            raise SplitError("comparison run has an empty test set")
        model, _, _ = run(split.train, split.test)
        right, n = _accuracy_line(model, split.test)
        wrong_counts.append(n - right)
        sizes.append(n)

    mwcs = float(np.mean(wrong_counts))
    cap = 100.0 * (1.0 - sum(wrong_counts) / sum(sizes))
    per_run_cap = [100.0 * (1.0 - w / n) for w, n in zip(wrong_counts, sizes)]
    return {
        "method": f"{cfg.model}:{Path(config_path).stem}",
        "status": "computed",
        "runs": len(splits),
        "test_size": sizes[0] if len(set(sizes)) == 1 else float(np.mean(sizes)),
        "per_run_wrong": wrong_counts,
        "per_run_cap": per_run_cap,
        "mwcs": mwcs,
        "cap_percent": cap,
        "best_cap_percent": max(per_run_cap),
    }


def _format_compare_text(rows):
    lines = [f"{'method':<24} {'mwcs':>8} {'cap%':>8} {'consistent':>10}  status"]
    for row in rows:
        if row["status"] == "failed":
            lines.append(f"{row['method']:<24} {'-':>8} {'-':>8} {'-':>10}  "
                         f"failed: {row['error']}")
            continue
        flag = row.get("cap_consistent")
        flag_text = "-" if flag is None else ("yes" if flag else "no")
        lines.append(f"{row['method']:<24} {row['mwcs']:>8.2f} "
                     f"{row['cap_percent']:>8.2f} {flag_text:>10}  {row['status']}")
    return "\n".join(lines) + "\n"


def cmd_compare(args):
    baselines = _load_baselines(args.baselines)
    out_dir = _make_out_dir(args.out_dir)
    rows, worst = [], 0
    for config_path in args.configs:
        try:
            rows.append(_compare_run(config_path))
        except tuple(_EXIT_CODES) as exc:
            rows.append({"method": Path(config_path).stem,
                         "status": "failed", "error": str(exc)})
            worst = max(worst, _exit_code_for(exc))

    test_size = baselines["test_size"]
    for base in baselines["rows"]:
        # a full ulp at the row's printed precision tolerates rounding
        # either way; anything beyond it is genuinely inconsistent
        tol = 10.0 ** (-base["cap_decimals"]) if "cap_decimals" in base else 0.005
        rows.append({
            "method": base["method"],
            "status": "published",
            "test_size": test_size,
            "mwcs": base["mwcs"],
            "cap_percent": base["cap_percent"],
            "cap_consistent": cap_consistent(
                base["mwcs"], base["cap_percent"], test_size, tol=tol),
        })

    payload = {"source": baselines.get("source"), "rows": rows}
    text = _format_compare_text(rows)
    _write_text(out_dir / "comparison.json",
                json.dumps(payload, indent=2) + "\n")
    _write_text(out_dir / "comparison.txt", text)
    sys.stdout.write(text)
    return worst


def cmd_dataset_stats(args):
    cfg = build_run_config(args.config, _overrides_from_args(args))
    raw = load_dataset(cfg.dataset)
    counts = class_distribution(raw)
    stats = {
        "n_samples": len(raw),
        "class_counts": {label: int(c) for label, c in zip(CLASS_LABELS, counts)},
        "attributes": {
            name: {"min": float(col.min()), "max": float(col.max()),
                   "mean": float(col.mean())}
            for name, col in zip(ATTRIBUTES, raw.X.T) if col.size  # none for no rows
        },
    }
    sys.stdout.write(json.dumps(stats, indent=2) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="neurofuzzy",
        description="Train and evaluate fuzzy-rule and dense-network "
                    "knowledge-level classifiers, reproducibly.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a run config")
    _add_config_flags(p_train)
    p_train.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model")
    p_eval.add_argument("model_file", help="model JSON path")
    p_eval.add_argument("--out", default="-",
                        help="report path (default: stdout)")
    _add_config_flags(p_eval, SELECTION_KEYS)
    p_eval.set_defaults(handler=cmd_evaluate)

    p_roc = sub.add_parser("roc", help="emit one class's ROC curve as CSV")
    p_roc.add_argument("model_file", help="model JSON path")
    p_roc.add_argument("--class-index", type=int, choices=range(4), required=True,
                       help="positive class")
    p_roc.add_argument("--out", required=True, help="CSV output path (- for stdout)")
    _add_config_flags(p_roc, SELECTION_KEYS)
    p_roc.set_defaults(handler=cmd_roc)

    p_cmp = sub.add_parser(
        "compare", help="train each config and tabulate against published rows")
    p_cmp.add_argument("configs", nargs="*", help="run config files")
    p_cmp.add_argument("--out-dir", default=".", help="where to write the table")
    p_cmp.add_argument("--baselines", default=None,
                       help="published constants JSON (default: packaged)")
    p_cmp.set_defaults(handler=cmd_compare)

    p_stats = sub.add_parser("dataset-stats", help="summarize a dataset file")
    _add_config_flags(p_stats, DATA_KEYS)
    p_stats.set_defaults(handler=cmd_dataset_stats)
    return parser


# failure -> exit code, first match wins; the library's constructors
# refuse bad values with ValueError, and LinAlgError is a ValueError
_EXIT_CODES = {
    ConfigError: 2,
    DataLoadError: 3,
    SplitError: 3,
    NumericError: 4,
    ModelFormatError: 5,
    NeurofuzzyError: 2,
    np.linalg.LinAlgError: 4,
    ValueError: 2,
}


def _exit_code_for(exc):
    return next(code for klass, code in _EXIT_CODES.items() if isinstance(exc, klass))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
