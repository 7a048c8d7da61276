"""Runs the benchmark at smoke size and checks what it reports, never its timings.

    python -m pytest perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# SHA-256 of cohort-raw's smoke-size cohort files for --seed 3; README.md
# gives the full-size ones
COHORT_SHA256_SMOKE_SEED3 = [
    "6bf2f8c5d387df821e31c78ac1434e124b9f45fd0a72ef700f5e9580c6db914e",
    "8561c569c17ff46d439cd00f06857e085c30266d00f62132c6e0cee6b800f34d",
]


def bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload):
    result, stdout = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    w = run.make_workload(workload, smoke=True)
    families = len(w.families)
    assert result["attempted"] == families * (1 + w.score_reps) + w.classify_rows
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0
    assert '"blas_threads": 1' in stdout


def test_traced_smoke_run_reports_every_layer():
    result, _ = smoke("paper-default", trace=1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    for name in ("fuzzy.degree.calls", "anfis.lse_consequents.calls",
                 "mlp.mlp_loss_and_gradients.calls", "metrics.roc_curve.calls"):
        assert metrics[name]["value"] > 0, name
        assert metrics[name]["unit"] == "count"


def test_a_failing_train_is_counted_and_reported(monkeypatch, capsys):
    make = run.make_workload

    def broken(name, smoke):
        w = make(name, smoke)
        return dataclasses.replace(
            w, families=dict(w.families, anfis={"mfs_per_input": "none"}))

    monkeypatch.setattr(run, "make_workload", broken)
    assert run.main(["--workload", "paper-default", "--seed", "3",
                     "--seconds", "1", "--size", "smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    w = broken("paper-default", smoke=True)
    # the ANFIS train, its evaluates and every classification fail; the MLP's pass
    assert result["correct"] is False
    assert result["attempted"] == len(w.families) * (1 + w.score_reps) + w.classify_rows
    assert result["failed"] == 1 + w.score_reps + w.classify_rows
    assert result["metrics"]["test_cap_pct"]["value"] == 0.0


def test_cohort_inputs_are_pinned(tmp_path):
    """A change to how neurofuzzy.synthetic draws or writes rows would
    change cohort-raw's inputs; it must show here, not in the figures."""
    run.import_program()
    paths = run.write_cohorts(run.make_workload("cohort-raw", smoke=True), 3, tmp_path)
    assert [run.sha256(p) for p in paths] == COHORT_SHA256_SMOKE_SEED3


def test_missing_public_function_reads_zero(monkeypatch):
    run.import_program()
    from neurofuzzy import anfis
    monkeypatch.delattr(anfis, "lse_consequents")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    rounds = [run.Round(train_s=1.0)]
    assert run.per_layer(tracer, rounds, rounds)["anfis.lse_consequents.calls"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "paper-default", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_mann_whitney_counts_ties_as_half():
    scores = np.array([0.9, 0.5, 0.5, 0.1])
    positive = np.array([True, True, False, False])
    # pairs: 0.9>0.5, 0.9>0.1, 0.5=0.5 (half), 0.5>0.1
    assert oracle.mann_whitney_auc(scores, positive) == 3.5 / 4


def test_sugeno_recomputation_matches_a_hand_worked_rule_base():
    gauss = {"shape": "gauss2", "sigma_left": 1.0, "c_left": 0.0,
             "sigma_right": 1.0, "c_right": 0.0}
    member = {"mf_bank": [[gauss, dict(gauss, c_left=1.0, c_right=1.0)]],
              "antecedents": [[0], [1]],
              "consequents": [[1.0, 0.0], [3.0, 2.0]]}
    x = 0.5
    w = np.exp(-0.5 * np.array([x**2, (x - 1.0) ** 2]))
    want = (w[0] * 1.0 + w[1] * (3.0 + 2.0 * x)) / w.sum()
    assert oracle.sugeno_output(member, np.array([[x]]))[0] == pytest.approx(want)
