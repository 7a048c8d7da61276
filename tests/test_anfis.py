import copy
import ctypes
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from neurofuzzy.anfis import (AnfisEnsemble, AnfisModel, TrainingConfig,
                              anfis_forward, build_grid_model, class_scores,
                              decode_values, ensemble_predict_classes,
                              lse_consequents, predict_classes,
                              premise_gradients, train_hybrid, train_oaa)
from neurofuzzy import anfis
from neurofuzzy.anfis import _forward_batch
from neurofuzzy.cli import main
from neurofuzzy.data import Dataset
from neurofuzzy.errors import ModelFormatError, NumericError
from neurofuzzy.fuzzy import MF_SHAPES, MIN_WIDTH
from neurofuzzy.model_io import load_model, model_to_json, save_model
from neurofuzzy.mlp import build_mlp
from hybrid_reference import gathered_firing
from sugeno_reference import rules, sugeno_infer

ROOT = Path(__file__).resolve().parents[1]
DATASET = ROOT / "data" / "ukm_synthetic.csv"
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")}


def openblas_config():
    """The build and running core of the OpenBLAS bundled with numpy, as
    OpenBLAS reports them, or "" for any other BLAS."""
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"):
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config"):
            get = getattr(ctypes.CDLL(str(lib)), name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return ""


# the BLAS on which anfis.BLOCK_ALIGN was found to keep one pass's GEMM bytes
BLAS = openblas_config()
BLOCK_ALIGN_VERIFIED = BLAS.startswith("OpenBLAS 0.3.31") and "SkylakeX" in BLAS.split()


def random_model(rng, mf_shape="gbell", input_dim=3, mfs=2):
    """Grid model with jittered premises and random consequents."""
    model = build_grid_model(mf_shape, mfs_per_input=mfs, input_dim=input_dim,
                             input_range=(-1.0, 1.0))
    for j, row in enumerate(model.mf_bank):
        for m, mf in enumerate(row):
            p = mf.params()
            p = p * rng.uniform(0.7, 1.3, size=p.shape) \
                + rng.uniform(-0.1, 0.1, size=p.shape)
            model.mf_bank[j][m] = _repair(mf, p)
    model.consequents = rng.normal(size=model.consequents.shape)
    return model


def _repair(mf, p):
    # keep jittered parameters legal for the shape under test
    if mf.shape_name == "gbell":
        p[0] = max(abs(p[0]), 0.2)
        p[1] = max(abs(p[1]), 1.0)
    else:  # gauss2
        p[0] = max(abs(p[0]), 0.2)
        p[2] = max(abs(p[2]), 0.2)
        if p[1] > p[3]:
            p[1], p[3] = p[3], p[1]
    return mf.with_params(p)


def stepped_bank(model, grads, learn_rate):
    """The model's bank moved one step against ``grads`` and repaired, as
    a training epoch steps it."""
    shape = model.mf_class
    return shape.unstack(shape.repair(shape.stack(model.mf_bank) - learn_rate * grads))


def batch_loss(model, X, t):
    y, _, _, _, _ = _forward_batch(model, X)
    return float(np.mean((y - t) ** 2))


def constant_output_model(value, input_dim=2):
    model = build_grid_model("gbell", input_dim=input_dim)
    model.consequents[:, :] = 0.0
    model.consequents[:, 0] = value
    return model


def toy_samples(n, rng, input_dim=5):
    X = np.where(rng.uniform(size=(n, input_dim)) < 0.5, -1.0, 1.0)
    # class driven by two feature signs: a learnable rule structure
    return Dataset(X, (X[:, 0] > 0) * 2 + (X[:, 1] > 0))


def lse_cases(rng, n, trials):
    """(model, X, t) for the consequent solve on two inputs.

    First ``trials`` random designs, then the shapes the solve treats
    apart: repeated rows with conflicting targets (folded, 16 distinct
    rows for 12 coefficients) and a wide design (27 coefficients for 10
    rows) that takes the dual form.
    """
    for _ in range(trials):
        yield (random_model(rng, input_dim=2),
               rng.uniform(-1, 1, size=(n, 2)), rng.normal(size=n))
    X = np.repeat(rng.uniform(-1, 1, size=(16, 2)), 3, axis=0)
    yield random_model(rng, input_dim=2), X, rng.normal(size=len(X))
    yield (random_model(rng, input_dim=2, mfs=3),
           rng.uniform(-1, 1, size=(10, 2)), rng.normal(size=10))


def design_matrix(Wbar, X):
    """Phi built column by column: [wbar_i, wbar_i * x_1, wbar_i * x_2]."""
    n, R = Wbar.shape
    Phi = np.zeros((n, R * 3))
    for i in range(R):
        Phi[:, i * 3] = Wbar[:, i]
        Phi[:, i * 3 + 1] = Wbar[:, i] * X[:, 0]
        Phi[:, i * 3 + 2] = Wbar[:, i] * X[:, 1]
    return Phi


class TestBuildGridModel:
    def test_rule_count_five_inputs(self):
        model = build_grid_model("gbell")
        assert model.n_rules == 32
        assert model.antecedents.shape == (32, 5)
        assert model.consequents.shape == (32, 6)

    def test_rule_count_three_mfs(self):
        model = build_grid_model("gauss2", mfs_per_input=3, input_dim=2)
        assert model.n_rules == 9

    def test_every_grid_cell_once(self):
        model = build_grid_model("gbell", mfs_per_input=3, input_dim=2)
        cells = {tuple(row) for row in model.antecedents}
        assert cells == set(itertools.product(range(3), repeat=2))

    def test_centers_span_range(self):
        model = build_grid_model("gbell", mfs_per_input=3, input_dim=1,
                                 input_range=(0.0, 1.0))
        centers = [mf.c for mf in model.mf_bank[0]]
        assert centers == [0.0, 0.5, 1.0]

    def test_gauss2_plateau_collapsed(self):
        model = build_grid_model("gauss2", input_dim=1)
        for mf in model.mf_bank[0]:
            assert mf.c_left == mf.c_right

    def test_deterministic(self):
        a = build_grid_model("gbell", seed=3)
        b = build_grid_model("gbell", seed=3)
        assert model_to_json(a) == model_to_json(b)

    def test_single_mf_rejected(self):
        with pytest.raises(ValueError):
            build_grid_model("gbell", mfs_per_input=1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"mf_shape": "hexagon"}, "unknown mf_shape 'hexagon'"),
        ({"input_range": (1.0, 1.0)}, "hi > lo"),
        ({"input_range": (1.0, -1.0)}, "hi > lo"),
    ], ids=["unknown-shape", "empty-range", "reversed-range"])
    def test_bad_grid_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            build_grid_model(**{"mf_shape": "gbell", **kwargs})

    @pytest.mark.parametrize("changes, message", [
        ({"output_mode": "oaa"}, "unknown output_mode 'oaa'"),
        ({"output_mode": "binary"}, "binary model needs positive_class"),
        ({"output_mode": "binary", "positive_class": 4}, "binary model needs"),
    ], ids=["unknown-output-mode", "binary-without-class", "binary-class-4"])
    def test_bad_model_fields_rejected(self, changes, message):
        grid = build_grid_model("gbell", input_dim=2)
        with pytest.raises(ValueError, match=message):
            AnfisModel(input_range=grid.input_range, mf_bank=grid.mf_bank,
                       consequents=grid.consequents, **changes)

    def test_zero_consequents(self):
        assert not build_grid_model("triangular").consequents.any()

    def test_sizes_follow_an_assigned_bank(self):
        # the bank assigned the way acceptance gate 6 assigns one
        model = build_grid_model("gauss2", input_dim=2)
        grid = build_grid_model("gbell", mfs_per_input=3, input_dim=2)
        model.mf_bank = [[x for x in r] for r in grid.mf_bank]
        model.consequents = grid.consequents = np.random.default_rng(7).normal(
            size=(9, 3))
        assert (model.mf_shape, model.mfs_per_input, model.n_rules) == ("gbell", 3, 9)
        X = np.random.default_rng(8).uniform(-1, 1, size=(20, 2))
        for got, want in zip(model.classify(X), grid.classify(X)):
            np.testing.assert_array_equal(got, want)


class TestForward:
    def test_constant_intercepts_pass_through(self):
        model = constant_output_model(2.0)
        for x in ([0.3, -0.7], [0.0, 0.0], [1.0, 1.0]):
            assert anfis_forward(model, np.array(x)).y == pytest.approx(2.0)

    def test_normalized_layer_sums_to_one(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        for _ in range(20):
            d = anfis_forward(model, rng.uniform(-1, 1, 3))
            assert math.isclose(d.normalized.sum(), 1.0, abs_tol=1e-9)
            assert not d.degenerate

    def test_own_grid_point_maximizes_rule(self):
        model = build_grid_model("gbell", input_dim=2)
        centers = [[mf.c for mf in row] for row in model.mf_bank]
        for r, ant in enumerate(model.antecedents):
            x = np.array([centers[j][m] for j, m in enumerate(ant)])
            d = anfis_forward(model, x)
            assert d.normalized[r] == pytest.approx(d.normalized.max())

    def test_contributions_sum_to_output(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, mf_shape="gauss2")
        d = anfis_forward(model, rng.uniform(-1, 1, 3))
        assert d.y == pytest.approx(float(d.contributions.sum()))

    def test_agrees_with_rule_by_rule_reference(self):
        # vectorized path against the scalar rule-walking implementation
        rng = np.random.default_rng(2)
        for shape in ("gbell", "gauss2", "triangular"):
            model = random_model(rng, mf_shape=shape) if shape != "triangular" \
                else build_grid_model("triangular", input_dim=3)
            if shape == "triangular":
                model.consequents = rng.normal(size=model.consequents.shape)
            for _ in range(25):
                x = rng.uniform(-1, 1, 3)
                y_ref, wbar_ref = sugeno_infer(rules(model), model.mf_bank, x)
                d = anfis_forward(model, x)
                assert d.y == pytest.approx(y_ref, abs=1e-12)
                np.testing.assert_allclose(d.normalized, wbar_ref, atol=1e-12)

    @pytest.mark.parametrize("X", [np.zeros((4, 2)), np.zeros(3)], ids=["width-2", "1-d"])
    def test_wrong_input_width_rejected(self, X):
        model = build_grid_model("gbell", input_dim=3)
        P = MF_SHAPES["gbell"].stack(model.mf_bank)[None]
        with pytest.raises(ValueError, match=r"expected \(n, 3\) inputs"):
            anfis._layers(model, P, X)

    def test_degenerate_input_falls_back_to_uniform(self):
        model = build_grid_model("triangular", input_dim=1, mfs_per_input=2)
        # all triangles are zero miles away from the grid
        d = anfis_forward(model, np.array([50.0]))
        assert d.degenerate
        np.testing.assert_allclose(d.normalized, [0.5, 0.5])


class TestFiringGrid:
    """The outer-product rule layer, byte for byte against the gather."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)],
                             ids=["no-member-axis", "members", "two-axes"])
    def test_bytes_equal_the_gather(self, d, M, lead):
        rng = np.random.default_rng(100 + 10 * d + M)
        D = rng.uniform(0.0, 1.0, size=lead + (d, M, 7))
        D[rng.uniform(size=D.shape) < 0.2] = 0.0                 # exact zeros
        D[..., 0] = 1e-160                                       # products underflow
        model = build_grid_model("gbell", mfs_per_input=M, input_dim=d)
        R = model.n_rules
        assert anfis._firing(D).tobytes() == gathered_firing(model, D).tobytes()
        for skip in range(d):
            got = anfis._firing(np.delete(D, skip, axis=-3))
            assert got.shape == lead + (M ** (d - 1), 7)
            got = np.broadcast_to(got.reshape(lead + (M**skip, 1, -1, 7)),
                                  lead + (M**skip, M, M ** (d - 1 - skip), 7))
            # with no other input the gather is the int 1; 1.0 * 1 is exact
            want = 1.0 * np.broadcast_to(gathered_firing(model, D, skip), lead + (R, 7))
            assert got.reshape(lead + (R, 7)).tobytes() == want.tobytes(), skip

    @pytest.mark.parametrize("shape", ["gbell", "gauss2"])
    @pytest.mark.parametrize("d,M", [(1, 2), (2, 3), (3, 2), (5, 2), (5, 3)])
    @pytest.mark.parametrize("C", [1, 4])
    def test_premise_gradient_bytes_equal_the_gather(self, shape, d, M, C):
        rng = np.random.default_rng(200 + 10 * d + M + C)
        model = build_grid_model(shape, mfs_per_input=M, input_dim=d)
        bank = MF_SHAPES[shape]
        P = bank.stack(model.mf_bank)
        P = bank.repair(P * rng.uniform(0.8, 1.2, size=(C,) + P.shape))
        X = rng.uniform(-1.0, 1.0, size=(30, d))
        X[:2] = [[40.0], [3.0]]     # tiny products; on gauss2 row 0 underflows to 0
        rows, *fold = anfis._fold_rows(X, rng.normal(size=(C, 30)))
        layers = anfis._layers(model, P, rows, True)
        consequents = rng.normal(size=(C, model.n_rules, d + 1))
        _, got = anfis._loss_and_grads(model, layers, rows, consequents, fold)
        want = one_pass_premise_gradient(model, layers, rows, consequents, fold)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not BLOCK_ALIGN_VERIFIED, reason="BLOCK_ALIGN is verified "
                        "only on OpenBLAS 0.3.31's SkylakeX kernels")
    def test_premise_gradient_bytes_across_block_seams(self):
        # one BLAS thread, as for the block scores: the rule values' GEMM
        # rounds a row by its place among the threads' row panels
        proc = subprocess.run(
            [sys.executable, "-c",
             "import test_anfis; print(test_anfis.gradient_seam_mismatches())"],
            cwd=Path(__file__).parent, capture_output=True, text=True, timeout=600,
            env={**os.environ, **ONE_THREAD, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("C,M", [(1, 3), (4, 2)])
    def test_loss_and_grads_run_in_the_row_blocks(self, C, M, monkeypatch):
        rows = block_rows(C, M**5)
        calls, outputs = [], anfis._outputs
        monkeypatch.setattr(anfis, "_outputs", lambda X, *rest: (
            calls.append(len(X)) or outputs(X, *rest)))
        for n, blocks in [(3 * rows + 5, [rows, rows, rows, 5]),
                          (2 * rows + 1, [rows, rows + 1])]:
            model, X, consequents, fold, layers = gradient_case("gauss2", C, M, n)
            for grads in (True, False):
                calls.clear()
                anfis._loss_and_grads(model, layers, X, consequents, fold, grads)
                assert calls == blocks

    @pytest.mark.parametrize("M,d", [(2, 1), (2, 5), (3, 2), (4, 3)])
    def test_antecedents_are_the_grid_in_product_order(self, M, d):
        model = build_grid_model("gbell", mfs_per_input=M, input_dim=d)
        assert model.antecedents.tolist() == [
            list(cell) for cell in itertools.product(range(M), repeat=d)]

    @pytest.mark.parametrize("table", ["permuted", "subset", "repeated-row",
                                       "out-of-range"])
    def test_other_rule_table_in_a_file_is_refused(self, table, tmp_path, capsys):
        payload = build_grid_model("gbell").to_dict()
        grid, consequents = payload["antecedents"], payload["consequents"]
        payload["antecedents"], payload["consequents"] = {
            "permuted": (grid[::-1], consequents[::-1]),
            "subset": (grid[:8], consequents[:8]),
            "repeated-row": (grid + grid[-1:], consequents + consequents[-1:]),
            "out-of-range": (grid[:3] + [[0, 2, 0, 0, 0]] + grid[4:], consequents),
        }[table]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
        assert main(["evaluate", str(path), "--dataset", str(DATASET),
                     "--split", "none"]) == 5
        assert capsys.readouterr().err.startswith("error: ")


def one_pass_premise_gradient(model, layers, rows, consequents, fold):
    """The premise gradient in one pass over all rows, its rule sums a
    one-hot matmul over the gathered leave-one-input-out products."""
    D, dD, S, Wbar, degenerate = layers
    counts, means, _ = fold
    F, y = anfis._outputs(rows, consequents, Wbar)
    dEdy = 2.0 * counts * (y - means) / counts.sum()
    dEdW = np.zeros_like(Wbar)
    np.divide(dEdy[..., None] * (F - y[..., None]), S[..., None], out=dEdW,
              where=~degenerate[..., None])
    dEdW = np.swapaxes(dEdW, -1, -2)
    onehot = np.eye(model.mfs_per_input)[model.antecedents.T]
    dEdD = np.stack([onehot[j].T @ (dEdW * gathered_firing(model, D, skip=j))
                     for j in range(model.input_dim)], axis=1)
    return np.einsum("kcjmg,cjmg->cjmk", dD, dEdD)


def gradient_case(shape, C, M, n):
    """(model, folded rows, consequents, fold, layers) of C jittered members
    on n distinct rows in 5 inputs, two of them far out (tiny products; on
    gauss2 the row of 40s underflows to the fallback)."""
    rng = np.random.default_rng(300 + n + 10 * C + M)
    model = build_grid_model(shape, mfs_per_input=M)
    bank = MF_SHAPES[shape]
    P = bank.stack(model.mf_bank)
    P = bank.repair(P * rng.uniform(0.8, 1.2, size=(C,) + P.shape))
    X = rng.uniform(-1.0, 1.0, size=(n, 5))
    X[:2] = [[40.0], [3.0]]
    rows, *fold = anfis._fold_rows(X, rng.normal(size=(C, n)))
    assert len(rows) == n
    consequents = rng.normal(size=(C, model.n_rules, 6))
    return model, rows, consequents, fold, anfis._layers(model, P, rows, True)


def gradient_seam_mismatches():
    """The (shape, C, M, n) cases whose premise gradient from the row blocks
    differs, by bytes, from one pass over n folded rows: rows spanning three
    blocks and a tail, and rows ending in a 1-row tail."""
    mismatches = []
    for shape, C, M in itertools.product(("gbell", "gauss2"), (1, 4), (2, 3)):
        rows = block_rows(C, M**5)
        for n in (3 * rows + 5, 2 * rows + 1):
            model, X, consequents, fold, layers = gradient_case(shape, C, M, n)
            _, got = anfis._loss_and_grads(model, layers, X, consequents, fold)
            want = one_pass_premise_gradient(model, layers, X, consequents, fold)
            if got.tobytes() != want.tobytes():
                mismatches.append((shape, C, M, n))
    return mismatches


def scoring_model(shape, M, oaa):
    """An untrained grid model (gbell's b is exactly 2) or OAA ensemble on 5
    inputs with random consequents, and its member count."""
    rng = np.random.default_rng(0)
    members = [build_grid_model(shape, mfs_per_input=M, output_mode="binary",
                                positive_class=k) for k in range(4)] if oaa \
        else [build_grid_model(shape, mfs_per_input=M)]
    for member in members:
        member.consequents = rng.normal(size=member.consequents.shape)
    return (AnfisEnsemble(members) if oaa else members[0]), len(members)


def block_rows(C, R):
    """Rows per scoring block: the largest multiple of ``BLOCK_ALIGN`` whose
    (C, rows, R) temporaries hold at most ``BLOCK_VALUES`` values, or
    ``BLOCK_ALIGN``."""
    fit = anfis.BLOCK_VALUES // (C * R) // anfis.BLOCK_ALIGN * anfis.BLOCK_ALIGN
    return max(anfis.BLOCK_ALIGN, fit)


def block_seam_mismatches():
    """The (shape, M, oaa, n) cases whose block scores differ, by bytes, from
    one ``_forward_batch`` pass per member over all rows."""
    rng = np.random.default_rng(40)
    mismatches = []
    for shape, M, oaa in itertools.product(("gbell", "gauss2", "triangular"),
                                           (2, 3), (True, False)):
        model, C = scoring_model(shape, M, oaa)
        members = model.members if oaa else [model]
        rows = block_rows(C, M**5)
        for n in (1, rows - 1, rows, rows + 1, 3 * rows + 5):
            X = rng.uniform(-1.5, 1.5, size=(n, 5))
            want = np.column_stack([_forward_batch(m, X)[0] for m in members])
            if anfis._member_outputs(members, X).tobytes() != want.tobytes():
                mismatches.append((shape, M, oaa, n))
    return mismatches


class TestBlockScoring:
    """classify scores every member in one pass over bounded row blocks."""

    @pytest.mark.skipif(not BLOCK_ALIGN_VERIFIED, reason="BLOCK_ALIGN is verified "
                        "only on OpenBLAS 0.3.31's SkylakeX kernels")
    def test_bytes_equal_one_pass_per_member(self):
        # how BLAS splits a GEMM's rows among its threads changes its bytes
        # (at M = 3, one pass over all rows differs between 1 and 2
        # threads), so the comparison runs under one BLAS thread
        proc = subprocess.run(
            [sys.executable, "-c",
             "import test_anfis; print(test_anfis.block_seam_mismatches())"],
            cwd=Path(__file__).parent, capture_output=True, text=True, timeout=600,
            env={**os.environ, **ONE_THREAD, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_untrained_gbell_bytes_past_4096_rows(self):
        model, _ = scoring_model("gbell", 2, False)
        X = np.random.default_rng(42).uniform(-1.5, 1.5, size=(4097, 5))
        want = _forward_batch(model, X)[0]
        assert anfis._member_outputs([model], X)[:, 0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("oaa", [True, False], ids=["oaa", "single"])
    def test_one_layers_call_per_block(self, oaa, M, monkeypatch):
        model, C = scoring_model("gauss2", M, oaa)
        rows = block_rows(C, M**5)
        calls, layers = [], anfis._layers
        monkeypatch.setattr(anfis, "_layers", lambda model, P, X, *rest: (
            calls.append(len(X)) or layers(model, P, X, *rest)))
        X = np.zeros((3 * rows + 5, 5))
        for n, blocks in [(3 * rows + 5, [rows, rows, rows, 5]),
                          (2 * rows + 1, [rows, rows + 1]),    # a 1-row tail joins
                          (rows, [rows]), (1, [1])]:
            calls.clear()
            model.classify(X[:n])
            assert calls == blocks

    @pytest.mark.parametrize("oaa,M", [(True, 2), (False, 3)],
                             ids=["oaa-m2", "single-m3"])
    def test_classify_memory_is_bounded(self, oaa, M):
        # one pass per member over all 40,300 rows peaked at 42.8 MiB (OAA,
        # M = 2) and 301 MiB (single, M = 3)
        model, _ = scoring_model("gauss2", M, oaa)
        X = np.random.default_rng(41).uniform(0.0, 1.0, size=(40300, 5))
        tracemalloc.start()
        try:
            model.classify(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_training_memory_is_bounded(self):
        # one pass over all rows, holding two sets of layers while the next
        # epoch's were built, peaked at 32.2e6 bytes; row blocks with the raw
        # firing strengths kept beside the normalized ones, at 22.3e6
        rng = np.random.default_rng(43)
        train = Dataset(rng.uniform(0.0, 1.0, size=(4030, 5)), rng.integers(0, 4, 4030))
        proto = build_grid_model("gauss2", input_range=(0.0, 1.0))
        tracemalloc.start()
        try:
            train_oaa(proto, train, None, TrainingConfig(epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @pytest.mark.parametrize("kind,M", [("single", 2), ("single", 3), ("oaa", 2),
                                        ("oaa", 3), ("mlp", None)])
    def test_zero_rows_classify_to_empty_arrays(self, kind, M):
        model = build_mlp() if kind == "mlp" else \
            scoring_model("gauss2", M, kind == "oaa")[0]
        decisions, scores = model.classify(np.empty((0, 5)))
        assert decisions.shape == (0,) and scores.shape == (0, 4)


class TestLse:
    def test_constant_target_exact(self):
        model = build_grid_model("gbell", input_dim=2,
                                 consequent_order="constant")
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(12, 2))
        residual = lse_consequents(model, X, np.full(12, 3.25), ridge=0.0)
        assert residual < 1e-12
        np.testing.assert_allclose(model.consequents[:, 0], 3.25)

    def test_representable_targets_recovered(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            model = random_model(rng, input_dim=2)
            truth = rng.normal(size=model.consequents.shape)
            keep = copy.deepcopy(model)
            keep.consequents = truth
            X = rng.uniform(-1, 1, size=(60, 2))
            t, _, _, _, _ = _forward_batch(keep, X)
            residual = lse_consequents(model, X, t, ridge=0.0)
            assert residual < 1e-8

    def test_matches_normal_equations(self):
        # independent oracle: build the regression matrix from scratch and
        # solve (Phi'Phi + ridge I) p = Phi' t directly
        rng = np.random.default_rng(2)
        ridge = 1e-8
        for model, X, t in lse_cases(rng, n=40, trials=10):
            _, _, Wbar, _, _ = _forward_batch(model, X)
            Phi = design_matrix(Wbar, X)
            p = np.linalg.solve(Phi.T @ Phi + ridge * np.eye(Phi.shape[1]),
                                Phi.T @ t)
            want = float(np.sqrt(np.mean((Phi @ p - t) ** 2)))

            got = lse_consequents(model, X, t, ridge=ridge)
            assert math.isclose(got, want, abs_tol=1e-8)

    def test_no_perturbation_beats_solution(self):
        rng = np.random.default_rng(3)
        ridge = 1e-6
        for model, X, t in lse_cases(rng, n=30, trials=1):
            lse_consequents(model, X, t, ridge=ridge)
            p_star = model.consequents.ravel()
            _, _, Wbar, _, _ = _forward_batch(model, X)
            Phi = design_matrix(Wbar, X)

            def penalized(p):
                return float(np.sum((Phi @ p - t) ** 2) + ridge * np.sum(p**2))

            best = penalized(p_star)
            for _ in range(300):
                delta = rng.normal(scale=10.0 ** rng.uniform(-4, 0),
                                   size=p_star.shape)
                assert penalized(p_star + delta) >= best

    def test_ridge_free_rank_deficient_gives_minimum_norm(self):
        # 5 distinct rows, each 4 times with its own targets, against 27
        # coefficients: the pseudo-inverse of the unfolded design is the oracle
        rng = np.random.default_rng(6)
        model = random_model(rng, input_dim=2, mfs=3)
        X = np.repeat(rng.uniform(-1, 1, size=(5, 2)), 4, axis=0)
        t = rng.normal(size=len(X))
        _, _, Wbar, _, _ = _forward_batch(model, X)
        Phi = design_matrix(Wbar, X)
        p = np.linalg.pinv(Phi) @ t
        want = float(np.sqrt(np.mean((Phi @ p - t) ** 2)))

        got = lse_consequents(model, X, t, ridge=0.0)
        assert math.isclose(got, want, abs_tol=1e-10)
        np.testing.assert_allclose(model.consequents.ravel(), p, atol=1e-8)

    def test_failed_factorization_still_solves_ridge_problem(self, monkeypatch):
        rng = np.random.default_rng(7)
        ridge = 1e-3

        def not_positive_definite(G):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        for model, X, t in lse_cases(rng, n=30, trials=1):
            _, _, Wbar, _, _ = _forward_batch(model, X)
            Phi = design_matrix(Wbar, X)
            p = np.linalg.solve(Phi.T @ Phi + ridge * np.eye(Phi.shape[1]),
                                Phi.T @ t)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "cholesky", not_positive_definite)
                lse_consequents(model, X, t, ridge=ridge)
            np.testing.assert_allclose(model.consequents.ravel(), p, atol=1e-9)

    def test_reduces_rmse(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, input_dim=2)
        X = rng.uniform(-1, 1, size=(40, 2))
        t = rng.normal(size=40)
        before = math.sqrt(batch_loss(model, X, t))
        after = lse_consequents(model, X, t)
        assert after <= before + 1e-12

    def test_constant_order_zeroes_slopes(self):
        model = build_grid_model("gbell", input_dim=2,
                                 consequent_order="constant")
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(20, 2))
        lse_consequents(model, X, rng.normal(size=20))
        assert not model.consequents[:, 1:].any()

    def test_empty_batch_rejected(self):
        model = build_grid_model("gbell", input_dim=2)
        with pytest.raises(ValueError):
            lse_consequents(model, np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("bad", ["nan_input", "inf_input", "nan_target"])
    def test_non_finite_batch_rejected(self, bad):
        model = build_grid_model("gbell", input_dim=2)
        X, t = np.zeros((4, 2)), np.zeros(4)
        if bad == "nan_target":
            t[2] = np.nan
        else:
            X[1, 0] = np.nan if bad == "nan_input" else np.inf
        with pytest.raises(NumericError):
            lse_consequents(model, X, t)

    @pytest.mark.filterwarnings("error")     # refused, with no numpy warning
    def test_non_finite_solution_refused(self):
        # finite rows this large overflow the ridge solve; ridge=0 solves them
        X = np.array([[.1, .2], [.3, -.4], [.5, .6], [-.2, .1], [.7, .9]]) * 1e155
        t = np.array([1.0, 2.0, 3.0, 4.0, 1.0])
        model = build_grid_model("gauss2", 2, input_dim=2)
        with pytest.raises(NumericError, match="solve produced non-finite values"):
            lse_consequents(model, X, t, ridge=1e-8)
        assert not model.consequents.any()
        assert math.isfinite(lse_consequents(model, X, t, ridge=0.0))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_residual_refused(self):
        # the solve is finite, but the residual's square overflows
        X = np.array([[.1, .2], [.3, -.4], [.5, .6], [-.2, .1]])
        t = np.array([1.0, 2.0, 3.0, 4.0]) * 1e160
        model = build_grid_model("gauss2", 2, input_dim=2)
        with pytest.raises(NumericError, match="solve produced non-finite values"):
            lse_consequents(model, X, t, ridge=1e-8)
        assert not model.consequents.any()


class TestPremiseGradients:
    @pytest.mark.parametrize("shape", ["gbell", "gauss2"])
    def test_matches_central_differences(self, shape):
        rng = np.random.default_rng(10)
        h = 1e-6
        checked = 0
        for trial in range(9):
            model = random_model(rng, mf_shape=shape, input_dim=2)
            X = rng.uniform(-0.9, 0.9, size=(15, 2))
            t = rng.normal(size=15)
            _, grads = premise_gradients(model, X, t)
            for j in range(2):
                for m, mf in enumerate(model.mf_bank[j]):
                    base = mf.params()
                    for k in range(base.size):
                        plus, minus = base.copy(), base.copy()
                        plus[k] += h
                        minus[k] -= h
                        lo = copy.deepcopy(model)
                        hi = copy.deepcopy(model)
                        hi.mf_bank[j][m] = mf.with_params(plus)
                        lo.mf_bank[j][m] = mf.with_params(minus)
                        fd = (batch_loss(hi, X, t)
                              - batch_loss(lo, X, t)) / (2 * h)
                        got = grads[j][m][k]
                        denom = max(abs(fd), abs(got), 1e-8)
                        assert abs(got - fd) / denom < 1e-4, \
                            f"{shape} input {j} mf {m} param {k}"
                        checked += 1
        assert checked >= 100

    def test_single_input_matches_central_differences(self):
        # no other inputs: each rule's degree is its own membership
        rng = np.random.default_rng(16)
        h = 1e-6
        model = random_model(rng, mf_shape="gbell", input_dim=1, mfs=3)
        X = rng.uniform(-0.9, 0.9, size=(15, 1))
        t = rng.normal(size=15)
        _, grads = premise_gradients(model, X, t)
        assert grads.shape == (1, 3, 3)
        for m, mf in enumerate(model.mf_bank[0]):
            for k, step in enumerate(h * np.eye(3)):
                hi, lo = copy.deepcopy(model), copy.deepcopy(model)
                hi.mf_bank[0][m] = mf.with_params(mf.params() + step)
                lo.mf_bank[0][m] = mf.with_params(mf.params() - step)
                fd = (batch_loss(hi, X, t) - batch_loss(lo, X, t)) / (2 * h)
                assert grads[0, m, k] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_small_step_does_not_increase_loss(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            model = random_model(rng, input_dim=2)
            X = rng.uniform(-0.9, 0.9, size=(20, 2))
            t = rng.normal(size=20)
            before = batch_loss(model, X, t)
            model.mf_bank = stepped_bank(model, premise_gradients(model, X, t)[1], 1e-5)
            assert batch_loss(model, X, t) <= before + 1e-12

    def test_frozen_shape_has_zero_gradients(self):
        model = build_grid_model("triangular", input_dim=2)
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, size=(10, 2))
        _, grads = premise_gradients(model, X, rng.normal(size=10))
        for per_input in grads:
            assert not np.asarray(per_input).any()

    def test_step_leaves_a_triangular_model_unchanged(self):
        model = build_grid_model("triangular", input_dim=2)
        rng = np.random.default_rng(16)
        samples = Dataset(rng.uniform(-1, 1, size=(10, 2)), np.arange(10) % 4)
        trained, _ = train_hybrid(model, samples, [],
                                  TrainingConfig(epochs=3, learn_rate=0.5))
        assert trained.to_dict()["mf_bank"] == model.to_dict()["mf_bank"]

    def test_step_keeps_widths_positive(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, mf_shape="gauss2", input_dim=2)
        samples = Dataset(rng.uniform(-1, 1, size=(40, 2)), rng.integers(0, 4, size=40))
        # absurd rate to slam into the clamps
        trained, _ = train_hybrid(model, samples, [],
                                  TrainingConfig(epochs=50, learn_rate=50.0))
        sigmas = [s for row in trained.mf_bank for mf in row
                  for s in (mf.sigma_left, mf.sigma_right)]
        assert min(sigmas) == MIN_WIDTH
        for row in trained.mf_bank:
            for mf in row:
                assert mf.c_left <= mf.c_right

    @pytest.mark.parametrize("param, grad", [(1, np.nan), (0, np.inf)])
    def test_non_finite_step_rejected(self, param, grad, monkeypatch):
        # unchecked, a NaN center would be kept and a -inf width clamped
        rng = np.random.default_rng(15)
        model = random_model(rng, mf_shape="gauss2", input_dim=2)
        samples = Dataset(rng.uniform(-1, 1, size=(10, 2)), np.arange(10) % 4)
        loss_and_grads = anfis._loss_and_grads

        def poisoned(*args, **kwargs):
            loss, grads = loss_and_grads(*args, **kwargs)
            if grads is not None:
                grads[0, 1, 0, param] = grad
            return loss, grads

        monkeypatch.setattr(anfis, "_loss_and_grads", poisoned)
        with pytest.raises(NumericError, match="premise step produced non-finite"):
            train_hybrid(model, samples, [], TrainingConfig(epochs=1))

    @pytest.mark.parametrize("rows, targets, message", [
        (0, 0, "need at least one training sample"),
        (3, 2, "3 input rows but 2 targets"),
    ], ids=["no-rows", "fewer-targets"])
    def test_bad_batch_refused(self, rows, targets, message):
        """The package, not numpy, refuses the batch, at each entry point."""
        model = build_grid_model("gbell", input_dim=2)
        X, t = np.zeros((rows, 2)), np.zeros(targets)
        for call in (lambda: premise_gradients(model, X, t),
                     lambda: lse_consequents(model, X, t)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_subnormal_total_strength_is_refused(self):
        # every degree is tiny and S = 7.8e-313: dE/dW = dE/dy (F - y) / S
        # overflows to inf, which the zero products turn into NaN
        model = build_grid_model("gauss2", mfs_per_input=3, input_dim=5)
        model.consequents = np.random.default_rng(0).normal(size=model.consequents.shape)
        X = np.full((1, 5), 8.2)
        assert 0.0 < _forward_batch(model, X)[1].sum() < np.finfo(float).tiny
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            premise_gradients(model, X, [1.0])
        with warnings.catch_warnings():      # and without a numpy warning
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                premise_gradients(model, X, [1.0])


class TestTrainHybrid:
    def test_one_epoch_equals_manual_steps(self):
        rng = np.random.default_rng(20)
        samples = toy_samples(24, rng, input_dim=3)
        model = build_grid_model("gbell", input_dim=3)
        config = TrainingConfig(epochs=1, learn_rate=0.05, ridge=1e-8, seed=0)
        trained, trace = train_hybrid(model, samples, [], config)

        manual = copy.deepcopy(model)
        X, t = samples.X, samples.labels + 1.0
        lse_consequents(manual, X, t, ridge=1e-8)
        manual.mf_bank = stepped_bank(manual, premise_gradients(manual, X, t)[1], 0.05)
        np.testing.assert_array_equal(trained.consequents, manual.consequents)
        for j in range(3):
            for m in range(2):
                np.testing.assert_array_equal(
                    trained.mf_bank[j][m].params(), manual.mf_bank[j][m].params())
        assert trace.epochs_run == 1 and len(trace.train_rmse) == 1

    def test_original_model_untouched(self):
        rng = np.random.default_rng(21)
        samples = toy_samples(20, rng, input_dim=3)
        model = build_grid_model("gbell", input_dim=3)
        before = model_to_json(model)
        train_hybrid(model, samples, [], TrainingConfig(epochs=3))
        assert model_to_json(model) == before

    def test_learns_feature_driven_labels(self):
        rng = np.random.default_rng(22)
        samples = toy_samples(48, rng, input_dim=2)
        model = build_grid_model("gbell", input_dim=2)
        trained, trace = train_hybrid(
            model, samples, [], TrainingConfig(epochs=50, learn_rate=0.01))
        assert trace.train_rmse[-1] < 0.1
        np.testing.assert_array_equal(predict_classes(trained, samples.X),
                                      samples.labels)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        samples = toy_samples(30, rng, input_dim=3)
        config = TrainingConfig(epochs=5, learn_rate=0.02)
        a, ta = train_hybrid(build_grid_model("gauss2", input_dim=3),
                             samples, samples.take(range(8)), config)
        b, tb = train_hybrid(build_grid_model("gauss2", input_dim=3),
                             samples, samples.take(range(8)), config)
        assert model_to_json(a) == model_to_json(b)
        assert ta.train_rmse == tb.train_rmse
        assert ta.test_rmse == tb.test_rmse

    def test_early_stop(self):
        rng = np.random.default_rng(24)
        samples = toy_samples(30, rng, input_dim=2)
        trained, trace = train_hybrid(
            build_grid_model("gbell", input_dim=2), samples, [],
            TrainingConfig(epochs=100, learn_rate=0.01, early_stop_rmse=0.5))
        assert trace.epochs_run < 100
        assert trace.train_rmse[-1] <= 0.5

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            train_hybrid(build_grid_model("gbell"), [], [], TrainingConfig())

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learn_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(ridge=-1.0)
        for bad in ({"epochs": 2.5}, {"epochs": math.nan},
                    {"learn_rate": math.inf}, {"learn_rate": math.nan},
                    {"ridge": math.inf}, {"ridge": math.nan},
                    {"early_stop_rmse": math.inf}, {"early_stop_rmse": math.nan}):
            with pytest.raises(ValueError):
                TrainingConfig(**bad)

    def test_oaa_members_cover_classes(self):
        rng = np.random.default_rng(25)
        samples = toy_samples(40, rng, input_dim=2)
        proto = build_grid_model("gbell", input_dim=2)
        ensemble, traces = train_oaa(proto, samples, samples.take(range(10)),
                                     TrainingConfig(epochs=3))
        assert [m.positive_class for m in ensemble.members] == [0, 1, 2, 3]
        assert all(m.output_mode == "binary" for m in ensemble.members)
        assert len(traces) == 4


class TestDecoding:
    @pytest.mark.parametrize("y,expect", [
        (1.3, 0), (4.7, 3), (0.2, 0), (9.0, 3),
        (1.49, 0), (1.5, 1), (2.5, 2), (3.5, 3), (2.49, 1),
    ])
    def test_rounding_and_clamping(self, y, expect):
        assert decode_values(np.array([y]))[0] == expect

    def test_vectorized(self):
        got = decode_values(np.array([0.9, 1.6, 2.2, 3.7, 5.0]))
        np.testing.assert_array_equal(got, [0, 1, 1, 3, 3])

    @pytest.mark.parametrize("y", [[np.nan], [1.0, np.inf], [-np.inf, 2.0]])
    def test_non_finite_output_refused(self, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # and no numpy warning
            with pytest.raises(NumericError, match="non-finite model outputs"):
                decode_values(np.array(y))

    def test_predict_classes_matches_forward_decode(self):
        rng = np.random.default_rng(30)
        model = random_model(rng, input_dim=3)
        X = rng.uniform(-1, 1, size=(20, 3))
        y, _, _, _, _ = _forward_batch(model, X)
        np.testing.assert_array_equal(predict_classes(model, X),
                                      decode_values(y))

    def test_single_mode_scores_rank_by_distance(self):
        model = constant_output_model(2.9)
        scores = class_scores(model, np.zeros((3, 2)))
        assert scores.shape == (3, 4)
        np.testing.assert_allclose(scores[0],
                                   [-1.9, -0.9, -0.1, -1.1], atol=1e-12)
        assert int(np.argmax(scores[0])) == 2

    def test_ensemble_argmax_and_ties(self):
        members = []
        for value in (0.2, 0.7, 0.7, 0.1):
            m = constant_output_model(value)
            m.output_mode = "binary"
            m.positive_class = len(members)
            members.append(m)
        ensemble = AnfisEnsemble(members=members)
        X = np.zeros((4, 2))
        scores = class_scores(ensemble, X)
        np.testing.assert_allclose(scores[0], [0.2, 0.7, 0.7, 0.1])
        # tie between classes 1 and 2 breaks to the lower index
        np.testing.assert_array_equal(ensemble_predict_classes(ensemble, X),
                                      [1, 1, 1, 1])

    @pytest.mark.filterwarnings("error")     # refused, with no numpy warning
    @pytest.mark.parametrize("head", [ensemble_predict_classes, class_scores])
    def test_ensemble_non_finite_outputs_refused(self, head):
        # finite consequents whose rule values overflow to inf - inf: scored,
        # every row would go to class 0 with NaN scores
        samples = toy_samples(24, np.random.default_rng(31), input_dim=2)
        ensemble, _ = train_oaa(build_grid_model("gbell", input_dim=2), samples, [],
                                TrainingConfig(epochs=2))
        for member in ensemble.members:
            member.consequents[:] = 1e308
            member.consequents[::2] *= -1
        with pytest.raises(NumericError, match="non-finite model outputs have no class"):
            head(ensemble, samples.X)


class TestSerialization:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(40)
        for shape in ("gbell", "gauss2", "triangular"):
            model = build_grid_model(shape, input_dim=2, seed=1)
            model.consequents = rng.normal(size=model.consequents.shape)
            path = tmp_path / f"{shape[:6]}.json"
            save_model(model, path)
            text = path.read_text(encoding="utf-8")
            loaded = load_model(path)
            assert model_to_json(loaded) == text
            save_model(loaded, path)
            assert path.read_text(encoding="utf-8") == text

    def test_ensemble_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        samples = toy_samples(20, rng, input_dim=2)
        ensemble, _ = train_oaa(build_grid_model("gbell", input_dim=2),
                                samples, [], TrainingConfig(epochs=2))
        path = tmp_path / "ensemble.json"
        save_model(ensemble, path)
        loaded = load_model(path)
        assert isinstance(loaded, AnfisEnsemble)
        assert model_to_json(loaded) == path.read_text(encoding="utf-8")

    def test_reload_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(42)
        model = random_model(rng, mf_shape="gauss2", input_dim=3)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(10):
            x = rng.uniform(-1, 1, 3)
            assert anfis_forward(loaded, x).y == anfis_forward(model, x).y

    def test_bad_version_rejected(self, tmp_path):
        model = build_grid_model("gbell", input_dim=2)
        d = json.loads(model_to_json(model))
        d["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        model = build_grid_model("gbell", input_dim=2)
        d = json.loads(model_to_json(model))
        d["kind"] = "svm"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read model file"):
            load_model(tmp_path / "absent.json")

    def test_top_level_array_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([build_grid_model("gbell").to_dict()]), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="expected a JSON object"):
            load_model(path)

    def test_inconsistent_shapes_rejected(self, tmp_path):
        model = build_grid_model("gbell", input_dim=2)
        d = json.loads(model_to_json(model))
        d["consequents"] = [[0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
        with pytest.raises(ValueError):
            AnfisModel.from_dict(d)

    @pytest.mark.parametrize("where", ["consequent", "center"])
    def test_non_finite_parameter_rejected(self, tmp_path, where):
        model = build_grid_model("gauss2", input_dim=2)
        d = json.loads(model_to_json(model))
        if where == "consequent":
            d["consequents"][1][0] = math.nan
        else:
            d["mf_bank"][0][1]["c_left"] = math.nan
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
        with pytest.raises(ValueError):
            AnfisModel.from_dict(d)

    @pytest.mark.parametrize("index", [2, -1])
    def test_antecedent_index_out_of_range_rejected(self, tmp_path, index):
        # -1 would otherwise pick the last function without complaint
        model = build_grid_model("gbell", input_dim=2)
        d = json.loads(model_to_json(model))
        d["antecedents"][3][1] = index
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_mixed_shape_bank_rejected(self, tmp_path):
        model = build_grid_model("gauss2", input_dim=2)
        d = json.loads(model_to_json(model))
        d["mf_bank"][1][0] = {"shape": "gbell", "a": 1.0, "b": 2.0, "c": -1.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
        with pytest.raises(ValueError):
            AnfisModel.from_dict(d)
