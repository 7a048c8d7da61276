"""Benchmark of the neurofuzzy train, evaluate and one-row classify paths.

Run from the repository root:

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 30 --trace 0

It drives the program in-process through ``neurofuzzy.cli.main`` and
checks every output against ``oracle.py``, which does not import the
program.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--size smoke`` runs one small round of each kind.
README.md next to this file describes the workloads and the metrics.
"""

import os

# One BLAS and OpenMP thread, set before numpy loads: with OpenBLAS's
# default pool the small consequent solves ran slower and much less
# steadily on a two-CPU machine (README.md has the figures).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "data" / "ukm_synthetic.csv"
OUT = Path(__file__).resolve().parent / "out"

# allowed distance of the ANFIS CAP from the generative cell rule's CAP on
# the same rows, in percentage points
CAP_MARGIN = 2.5
DEFAULT_MLP = {"model": "mlp", "epochs": 500, "learn_rate": 0.5}

END_TO_END = (("setup_s", "s"), ("train_s", "s"), ("test_cap_pct", "%"),
              ("peak_rss_mb", "MB"))
# printed with the end-to-end metrics but left out of the result: their
# run-to-run spread on a shared two-CPU machine exceeded the largest bound
UNBOUNDED = (("score_s", "s"), ("classify_p50_us", "us"), ("classify_p99_us", "us"))

# <span name>.<calls | s (inclusive) | self_s>, from the traced rounds
PER_LAYER = (
    "fuzzy.degree.calls", "fuzzy.degree.s", "fuzzy.degree_and_param_grads.s",
    "fuzzy.with_params.calls",
    "anfis.lse_consequents.calls", "anfis.lse_consequents.self_s",
    "anfis.linalg.s",
    "anfis.premise_gradients.self_s", "anfis.premise_gradient_step.self_s",
    "anfis.train_hybrid.self_s",
    "anfis.class_scores.s", "anfis.predict_classes.s",
    "mlp.train_backprop.self_s", "mlp.mlp_loss_and_gradients.calls",
    "mlp.mlp_loss_and_gradients.self_s", "mlp.mlp_forward.s",
    "metrics.evaluate_multiclass.self_s", "metrics.roc_curve.calls",
    "metrics.roc_curve.s", "metrics.auc.s",
    "data.load_dataset.s", "data.encode.s", "data.to_arrays.s",
    "model_io.save_model.s", "model_io.load_model.s",
    "cli.self_s",
)


@dataclass(frozen=True)
class Workload:
    name: str
    encoding: str
    families: dict          # family -> run-config keys of its train command
    classify_rows: int      # one-row ANFIS classifications per round
    score_reps: int         # evaluate passes over both models per round
    cap_floor: float | None = None   # acceptance gate 8, every family
    cohorts: tuple | None = None     # class-count multipliers (train, score)


def make_workload(name, smoke):
    """The workload's inputs and run configs at full or smoke size."""
    if name == "paper-default":
        return Workload(
            name, "binarize",
            {"anfis": {"epochs": 2} if smoke else {},
             "mlp": dict(DEFAULT_MLP, epochs=100) if smoke else DEFAULT_MLP},
            classify_rows=80 if smoke else 400, score_reps=1 if smoke else 10,
            cap_floor=90.0)
    if name == "grid-m3":
        return Workload(
            name, "binarize",
            {"anfis": {"mfs_per_input": 3, "output_mode": "single",
                       "epochs": 1 if smoke else 2}},
            classify_rows=80 if smoke else 400, score_reps=1 if smoke else 10)
    return Workload(
        name, "passthrough",
        {"anfis": {"epochs": 2 if smoke else 5},
         "mlp": dict(DEFAULT_MLP, epochs=100) if smoke else DEFAULT_MLP},
        classify_rows=200 if smoke else 500, score_reps=1,
        cohorts=(5, 10) if smoke else (10, 100))


@dataclass
class Ops:
    """Operations attempted and failed: commands, evaluates, classifications."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what, problems, count=1):
        self.attempted += count
        if problems:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Round:
    train_s: float = 0.0
    score_s: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    cap: float | None = None


def blas_environment():
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": build.get("name"), "blas_version": build.get("version"),
           "blas_threads": None, "blas_core": None, "cpus": os.cpu_count()}
    env.update({var: os.environ[var] for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    env["blas_threads"] = threads()
                    env["blas_core"] = config().decode()
                    return env
    return env


def import_program():
    """Put the checkout's ``src`` first on the path and import the package."""
    if not (ROOT / "src" / "neurofuzzy" / "cli.py").is_file() or not BUNDLED.is_file():
        raise SystemExit(f"error: no neurofuzzy source tree under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("neurofuzzy.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported neurofuzzy from {cli.__file__}")


def setup_once(inputs):
    """Seconds to import the package, then load, validate and encode each
    input file once, with numpy already loaded.

    The heap is collected and frozen first, so that the garbage
    collections inside the set-up see only its own objects, as in a
    fresh process, and not what the benchmark holds.
    """
    for name in [m for m in sys.modules
                 if m == "neurofuzzy" or m.startswith("neurofuzzy.")]:
        del sys.modules[name]
    gc.collect()
    gc.freeze()
    try:
        start = perf_counter()
        importlib.import_module("neurofuzzy.cli")
        data = sys.modules["neurofuzzy.data"]
        for path, encoding in inputs:
            samples = data.load_dataset(path)
            data.binarize(samples) if encoding == "binarize" else data.passthrough(samples)
        return perf_counter() - start
    finally:
        gc.unfreeze()


def write_cohorts(workload, seed, work):
    """The workload's seeded cohort files, made by ``neurofuzzy.synthetic``."""
    from neurofuzzy import synthetic
    paths = []
    for k, mult in enumerate(workload.cohorts):
        counts = tuple(c * mult for c in synthetic.DEFAULT_CLASS_COUNTS)
        path = work / f"cohort{k}.csv"
        synthetic.write_csv(synthetic.generate(counts, seed=2 * seed + k), path)
        paths.append(path)
    return paths


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Bench:
    """One workload's inputs, configs and reference values, and its rounds."""

    def __init__(self, workload, seed, work):
        self.w = workload
        self.work = work
        if workload.cohorts:
            self.train_path, self.score_path = write_cohorts(workload, seed, work)
            common = {"encoding": workload.encoding, "split": "none", "seed": seed}
        else:
            self.train_path = self.score_path = BUNDLED
            common = {}
        self.configs = {}
        for family, keys in workload.families.items():
            cfg = work / f"{family}.cfg"
            body = dict(common, dataset=self.train_path, out_dir=work / family, **keys)
            cfg.write_text("".join(f"{k}={v}\n" for k, v in body.items()),
                           encoding="utf-8")
            self.configs[family] = cfg
        self.setup_inputs = sorted({(str(self.train_path), workload.encoding),
                                    (str(self.score_path), workload.encoding)})
        self.seed = seed
        self.rows = None     # scoring rows, known once the first train wrote its split
        self.rule_cap = float("nan")
        self.first_bytes = {}
        self.expected = {}   # model file bytes -> its recomputed outputs
        self.setup_times = []

    def setup(self):
        """One timed set-up; the rest of the round uses the modules it imported."""
        self.setup_times.append(setup_once(self.setup_inputs))
        from neurofuzzy import anfis, cli, model_io
        self.anfis, self.cli, self.model_io = anfis, cli, model_io

    def _scoring_rows(self, split_path):
        """Features, labels and request order of the rows evaluate scores."""
        feats, labels = oracle.read_csv(self.score_path)
        if self.w.cohorts is None:
            split = oracle.load_json(split_path)
            idx, rest = split["test_indices"], split["train_indices"]
            if sorted(idx + rest) != list(range(len(labels))):
                raise ValueError("split.json does not partition the file")
            feats, labels = feats[idx], labels[idx]
        order = np.random.default_rng(self.seed).permutation(len(labels))
        requests = order[np.arange(self.w.classify_rows) % len(labels)]
        rule_cap = 100.0 * np.mean(oracle.cell_rule_classes(feats) == labels)
        return oracle.encode(feats, self.w.encoding), labels, requests, rule_cap

    def _expected(self, model_path):
        """(labels, scores, decisions, near ties) recomputed from a model file."""
        if self.rows is None:
            self.X, self.labels, self.requests, self.rule_cap = self._scoring_rows(
                model_path.with_name("split.json"))
            self.rows = len(self.labels)
        data = model_path.read_bytes()
        if data not in self.expected:
            self.expected[data] = (self.labels, *oracle.model_outputs(
                json.loads(data.decode("utf-8")), self.X))
        return self.expected[data]

    def _cli(self, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        with tracer.recording() if tracer else contextlib.nullcontext():
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            except (Exception, SystemExit):
                return [f"raised {traceback.format_exc(limit=-3)}"], perf_counter() - start
            elapsed = perf_counter() - start
        return ([f"exit {code}: {err.getvalue().strip()}"] if code != 0 else []), elapsed

    def _same_as_first(self, path):
        data = path.read_bytes()
        if self.first_bytes.setdefault(path, data) != data:
            return [f"{path.name} differs from the first round's"]
        return []

    def _round_trip(self, path):
        copy = path.with_name("resaved.json")
        self.model_io.save_model(self.model_io.load_model(path), copy)
        if copy.read_bytes() != path.read_bytes():
            return ["load -> save does not reproduce the model file"]
        return self._same_as_first(path)

    def _check_report(self, family, path, expected):
        report = oracle.load_json(path)
        labels, scores, decisions, near_tie = expected
        problems = oracle.report_mismatches(report, labels, scores, decisions, near_tie)
        problems += self._same_as_first(path)
        if family == "anfis" and abs(report["cap"] - self.rule_cap) > CAP_MARGIN:
            problems.append(f"CAP {report['cap']:.2f}% is more than {CAP_MARGIN} "
                            f"points from the cell rule's {self.rule_cap:.2f}%")
        if self.w.cap_floor is not None and report["cap"] < self.w.cap_floor:
            problems.append(f"CAP {report['cap']:.2f}% under the "
                            f"{self.w.cap_floor}% gate")
        return problems, report["cap"]

    def run_round(self, ops, tracer=None):
        """Train, score and classify once.  An untraced round also sets up
        before training, between evaluate passes and before classifying,
        so that the set-up times sample the whole run as the round times do."""
        set_up = self.setup if tracer is None else (lambda: None)
        rnd = Round()
        trained, expected = {}, {}
        set_up()
        for family, cfg in self.configs.items():
            problems, elapsed = self._cli(["train", "--config", str(cfg)], tracer)
            rnd.train_s += elapsed
            model_path = self.work / family / "model.json"
            try:
                if not problems:
                    problems = self._round_trip(model_path)
                    expected[family] = self._expected(model_path)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
            ops.record(f"train {family}", problems)
            if not problems:
                trained[family] = model_path

        for rep in range(self.w.score_reps):
            if rep:
                set_up()
            pair = 0.0
            for family, cfg in self.configs.items():
                if family not in trained:
                    ops.record(f"evaluate {family}", ["no model"])
                    continue
                out = self.work / f"report-{family}.json"
                problems, elapsed = self._cli(
                    ["evaluate", str(trained[family]), "--config", str(cfg),
                     "--dataset", str(self.score_path), "--out", str(out)], tracer)
                pair += elapsed
                try:
                    if not problems:
                        problems, cap = self._check_report(family, out, expected[family])
                        if family == "anfis":
                            rnd.cap = cap
                except Exception as exc:
                    problems = [f"check raised {exc!r}"]
                ops.record(f"evaluate {family}", problems)
            rnd.score_s.append(pair)

        set_up()
        if "anfis" in trained:
            self._classify(rnd, ops, trained["anfis"], expected["anfis"], tracer)
        else:
            ops.record("classify", ["no model"], count=self.w.classify_rows)
        return rnd

    def _classify(self, rnd, ops, model_path, expected, tracer):
        try:
            model = self.model_io.load_model(model_path)
        except Exception as exc:
            ops.record("classify", [f"load_model raised {exc!r}"],
                       count=self.w.classify_rows)
            return
        single = oracle.load_json(model_path)["output_mode"] == "single"
        anfis = self.anfis

        def classify(row):
            if single:
                return int(anfis.predict_classes(model, row)[0])
            return int(np.argmax(anfis.class_scores(model, row)[0]))

        rows = [self.X[i:i + 1] for i in self.requests]
        decisions = []
        with tracer.recording() if tracer else contextlib.nullcontext():
            for row in rows:
                start = perf_counter()
                try:
                    decisions.append(classify(row))
                except Exception as exc:
                    decisions.append(exc)
                rnd.latencies.append(perf_counter() - start)

        try:
            batch = (anfis.predict_classes(model, self.X) if single
                     else np.argmax(anfis.class_scores(model, self.X), axis=1))
        except Exception as exc:
            batch = exc
        _, _, reference, near_tie = expected
        for i, decision in zip(self.requests, decisions):
            problems = []
            if isinstance(decision, Exception):
                problems.append(f"row {i}: raised {decision!r}")
            elif isinstance(batch, Exception):
                problems.append(f"batch decision raised {batch!r}")
            elif decision != batch[i]:
                problems.append(f"row {i}: one-row class {decision} != batch {batch[i]}")
            elif decision != reference[i] and not near_tie[i]:
                problems.append(f"row {i}: class {decision} != recomputed {reference[i]}")
            ops.record("classify", problems)


def run_rounds(bench, ops, seconds, smoke, tracer=None):
    """Whole rounds until the next one would end past ``seconds``.

    With a tracer, rounds alternate untraced and traced, so that both
    kinds see the same machine; returns (untraced, traced) rounds.
    """
    untraced, traced = [], []
    start = perf_counter()
    while True:
        if tracer is not None and len(untraced) > len(traced):
            tracer.install()
            try:
                traced.append(bench.run_round(ops, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(bench.run_round(ops))
        done = len(untraced) + len(traced)
        elapsed = perf_counter() - start
        if (tracer is None or traced) and (
                smoke or elapsed * (done + 1) / done > seconds):
            return untraced, traced


def end_to_end(setup_times, rounds):
    """(the end-to-end metrics, the unbounded ones) of a run's rounds.

    Failed operations leave gaps: the CAP comes from the last round that
    has one (0 if none does), and the latencies read NaN if no
    classification ran.
    """
    latencies = [t for r in rounds for t in r.latencies]
    caps = [r.cap for r in rounds if r.cap is not None]
    values = {
        "setup_s": statistics.median(setup_times),
        "train_s": statistics.median(r.train_s for r in rounds),
        "test_cap_pct": caps[-1] if caps else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unbounded = {
        "score_s": statistics.median(t for r in rounds for t in r.score_s),
        "classify_p50_us": 1e6 * statistics.median(latencies) if latencies else math.nan,
        "classify_p99_us": (1e6 * float(np.quantile(latencies, 0.99))
                            if latencies else math.nan),
    }
    return values, unbounded


def per_layer(tracer, traced, untraced):
    calls, inclusive, self_time = tracer.totals()
    stats = {"calls": calls, "s": inclusive, "self_s": self_time}
    values = {}
    for metric in PER_LAYER:
        span, stat = metric.rsplit(".", 1)
        values[metric] = stats[stat].get(span, 0) / len(traced)
    values["trace.overhead_s"] = (statistics.median(r.train_s for r in traced)
                                  - statistics.median(r.train_s for r in untraced))
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-default", "grid-m3", "cohort-raw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    smoke = args.size == "smoke"

    import_program()
    env = blas_environment()
    workload = make_workload(args.workload, smoke)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        bench = Bench(workload, args.seed, work)
        inputs = {Path(p).name: sha256(p) for p, _ in bench.setup_inputs}
        ops = Ops()
        tracer = Tracer() if args.trace else None
        untraced, traced = run_rounds(bench, ops, args.seconds, smoke, tracer)
        rounds = untraced + traced
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"environment": env}))
    print(f"workload {workload.name}, seed {args.seed}, size {args.size}: "
          f"{len(rounds)} rounds; scoring {bench.rows} rows, cell-rule CAP "
          f"{bench.rule_cap:.4f}%")
    for name, digest in inputs.items():
        print(f"input {name} sha256 {digest}")
    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        values = per_layer(tracer, traced, untraced)
        units = {m: "count" if m.endswith(".calls") else "s" for m in values}
        print(f"per-layer means over {len(traced)} traced rounds; "
              f"spans in {spans_path.relative_to(ROOT)}")
    else:
        values, unbounded = end_to_end(bench.setup_times, rounds)
        units = dict(END_TO_END)
        print("setup reps: " + " ".join(f"{t:.4f}" for t in bench.setup_times))
        print("per round: train_s " + " ".join(f"{r.train_s:.4f}" for r in rounds)
              + "; score_s " + " ".join(f"{t:.4f}" for r in rounds for t in r.score_s))
        print(f"classify: {sum(len(r.latencies) for r in rounds)} rows one at "
              "a time, closed loop with one caller")
        for name, unit in UNBOUNDED:
            print(f"  {name:36s} {unbounded[name]:14.6f} {unit} (no bound)")
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    for problem in ops.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
