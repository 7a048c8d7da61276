import copy
import json
import math

import numpy as np
import pytest

import mlp_reference as reference
from neurofuzzy import mlp
from neurofuzzy.data import Dataset
from neurofuzzy.errors import ModelFormatError, NumericError
from neurofuzzy.mlp import (MlpModel, MlpTrainingConfig, build_mlp, logsig,
                            mlp_forward, mlp_loss_and_gradients, sweep_hidden,
                            tansig, train_backprop)
from neurofuzzy.model_io import load_model, model_to_json, save_model


def toy_samples(n, rng, input_dim=5):
    X = np.where(rng.uniform(size=(n, input_dim)) < 0.5, -1.0, 1.0)
    return Dataset(X, (X[:, 0] > 0) * 2 + (X[:, 1] > 0))


def numeric_loss(model, X, T, loss):
    O, _ = mlp_forward(model, X)
    if loss == "cross_entropy":
        eps = 1e-12
        return float(-np.mean(T * np.log(O + eps)
                              + (1 - T) * np.log(1 - O + eps)))
    return float(np.mean((O - T) ** 2))


class TestActivations:
    def test_tansig_shape(self):
        assert tansig(np.array([0.0]))[0] == 0.0
        assert tansig(np.array([40.0]))[0] == pytest.approx(1.0)
        assert tansig(np.array([-40.0]))[0] == pytest.approx(-1.0)

    def test_tansig_odd(self):
        x = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(tansig(-x), -tansig(x), atol=1e-15)

    def test_tansig_is_scaled_logsig(self):
        # the two sigmoids are affinely related; checks both at once
        x = np.linspace(-5, 5, 31)
        np.testing.assert_allclose(tansig(x), 2 * logsig(2 * x) - 1,
                                   atol=1e-12)

    def test_logsig_values(self):
        assert logsig(np.array([0.0]))[0] == 0.5
        assert logsig(np.array([2.0]))[0] == pytest.approx(
            0.8807970779778823, abs=1e-15)
        assert logsig(np.array([50.0]))[0] == pytest.approx(1.0)

    def test_logsig_complement(self):
        x = np.linspace(-6, 6, 25)
        np.testing.assert_allclose(logsig(x) + logsig(-x), 1.0, atol=1e-12)

    def test_no_overflow_warnings(self):
        with np.errstate(over="raise"):
            tansig(np.array([-1000.0, 1000.0]))
            logsig(np.array([-1000.0, 1000.0]))


class TestForward:
    def test_zero_weights(self):
        model = build_mlp(hidden=4)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            getattr(model, name)[:] = 0.0
        O, H = mlp_forward(model, np.ones((3, 5)))
        np.testing.assert_allclose(H, 0.0)      # tansig(0)
        np.testing.assert_allclose(O, 0.5)      # logsig(0)

    def test_hand_computed_two_neuron(self):
        model = build_mlp(hidden=1, input_dim=1, n_classes=1,
                          hidden_activation="tansig",
                          output_activation="logsig")
        model.w_hidden[:] = 2.0
        model.b_hidden[:] = 0.0
        model.w_out[:] = 1.0
        model.b_out[:] = -0.5
        X = np.array([[0.25]])
        h = math.tanh(0.5)
        want = 1.0 / (1.0 + math.exp(-(h - 0.5)))
        O, H = mlp_forward(model, X)
        assert H[0, 0] == pytest.approx(h, abs=1e-12)
        assert O[0, 0] == pytest.approx(want, abs=1e-12)

    def test_hidden_unit_permutation_invariance(self):
        rng = np.random.default_rng(0)
        model = build_mlp(hidden=6, seed=1)
        perm = rng.permutation(6)
        shuffled = copy.deepcopy(model)
        shuffled.w_hidden = model.w_hidden[perm]
        shuffled.b_hidden = model.b_hidden[perm]
        shuffled.w_out = model.w_out[:, perm]
        X = rng.uniform(-1, 1, size=(10, 5))
        np.testing.assert_allclose(mlp_forward(shuffled, X)[0],
                                   mlp_forward(model, X)[0], atol=1e-12)

    def test_init_bounds_and_determinism(self):
        a = build_mlp(hidden=8, seed=5)
        b = build_mlp(hidden=8, seed=5)
        assert model_to_json(a) == model_to_json(b)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            arr = getattr(a, name)
            assert np.all(arr >= -0.5) and np.all(arr <= 0.5)
        c = build_mlp(hidden=8, seed=6)
        assert model_to_json(c) != model_to_json(a)


class TestGradients:
    @pytest.mark.parametrize("loss,out_act", [
        ("mse", "logsig"), ("mse", "tansig"), ("cross_entropy", "logsig"),
    ])
    def test_matches_central_differences(self, loss, out_act):
        rng = np.random.default_rng(7)
        h = 1e-6
        checked = 0
        for trial in range(4):
            model = build_mlp(hidden=3, seed=trial,
                              output_activation=out_act)
            X = rng.uniform(-1, 1, size=(8, 5))
            T = np.eye(4)[rng.integers(0, 4, 8)]
            if out_act == "tansig":
                T = 2 * T - 1
            _, grads = mlp_loss_and_gradients(model, X, T, loss=loss)
            for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
                arr = getattr(model, name)
                flat_grad = grads[name].ravel()
                flat = arr.ravel()
                idx = rng.choice(flat.size, size=min(10, flat.size),
                                 replace=False)
                for k in idx:
                    orig = flat[k]
                    flat[k] = orig + h
                    up = numeric_loss(model, X, T, loss)
                    flat[k] = orig - h
                    down = numeric_loss(model, X, T, loss)
                    flat[k] = orig
                    fd = (up - down) / (2 * h)
                    got = flat_grad[k]
                    denom = max(abs(fd), abs(got), 1e-8)
                    assert abs(got - fd) / denom < 1e-4, f"{name}[{k}]"
                    checked += 1
        assert checked >= 100

    def test_cross_entropy_needs_logsig(self):
        model = build_mlp(hidden=3, output_activation="tansig")
        X = np.zeros((2, 5))
        T = np.eye(4)[[0, 1]]
        with pytest.raises(ValueError):
            mlp_loss_and_gradients(model, X, T, loss="cross_entropy")

    def test_loss_at_exact_targets_is_zero_gradient_free(self):
        # saturate the net so outputs match targets almost exactly
        model = build_mlp(hidden=2, seed=0)
        model.w_hidden[:] = 0.0
        model.b_hidden[:] = 0.0
        model.w_out[:] = 0.0
        model.b_out[:] = 60.0   # logsig -> 1
        T = np.ones((3, 4))
        loss, grads = mlp_loss_and_gradients(model, np.zeros((3, 5)), T)
        assert loss == pytest.approx(0.0, abs=1e-20)
        for g in grads.values():
            np.testing.assert_allclose(g, 0.0, atol=1e-20)


class TestTraining:
    def test_zero_learn_rate_is_identity(self):
        rng = np.random.default_rng(1)
        samples = toy_samples(20, rng)
        model = build_mlp(hidden=5, seed=2)
        before = model_to_json(model)
        config = MlpTrainingConfig(epochs=3, learn_rate=0.0)
        trained, _ = train_backprop(model, samples, [], config)
        after = model_to_json(trained)
        # training echo differs; weights must not
        assert json.loads(after)["w_hidden"] == json.loads(before)["w_hidden"]
        assert json.loads(after)["b_out"] == json.loads(before)["b_out"]

    def test_original_model_untouched(self):
        rng = np.random.default_rng(2)
        samples = toy_samples(20, rng)
        model = build_mlp(hidden=5, seed=3)
        before = model_to_json(model)
        train_backprop(model, samples, [],
                       MlpTrainingConfig(epochs=5, learn_rate=0.5))
        assert model_to_json(model) == before

    def test_learns_separable_toy(self):
        rng = np.random.default_rng(3)
        samples = toy_samples(60, rng)
        model = build_mlp(hidden=8, seed=0)
        trained, trace = train_backprop(
            model, samples, [], MlpTrainingConfig(epochs=500, learn_rate=0.5))
        assert np.all(trained.classify(samples.X)[0] == samples.labels)
        assert trace.train_mse[-1] < trace.train_mse[0]

    def test_small_rate_never_increases_full_batch_loss(self):
        rng = np.random.default_rng(4)
        samples = toy_samples(30, rng)
        _, trace = train_backprop(
            build_mlp(hidden=6, seed=1), samples, [],
            MlpTrainingConfig(epochs=40, learn_rate=1e-4))
        diffs = np.diff(trace.train_mse)
        assert np.all(diffs <= 1e-12)

    def test_deterministic_traces(self):
        rng = np.random.default_rng(5)
        samples = toy_samples(30, rng)
        config = MlpTrainingConfig(epochs=10, learn_rate=0.3)
        test = samples.take(range(8))
        a, ta = train_backprop(build_mlp(seed=4), samples, test, config)
        b, tb = train_backprop(build_mlp(seed=4), samples, test, config)
        assert model_to_json(a) == model_to_json(b)
        assert ta.train_mse == tb.train_mse
        assert ta.test_mse == tb.test_mse

    def test_stochastic_mode_differs_but_is_seeded(self):
        rng = np.random.default_rng(6)
        samples = toy_samples(30, rng)
        full = MlpTrainingConfig(epochs=5, learn_rate=0.3, batch_mode="full")
        sto = MlpTrainingConfig(epochs=5, learn_rate=0.3,
                                batch_mode="stochastic", seed=9)
        a, _ = train_backprop(build_mlp(seed=4), samples, [], sto)
        b, _ = train_backprop(build_mlp(seed=4), samples, [], sto)
        c, _ = train_backprop(build_mlp(seed=4), samples, [], full)
        assert model_to_json(a) == model_to_json(b)
        assert model_to_json(a) != model_to_json(c)

    def test_early_stop(self):
        rng = np.random.default_rng(7)
        samples = toy_samples(40, rng)
        _, trace = train_backprop(
            build_mlp(hidden=8, seed=0), samples, [],
            MlpTrainingConfig(epochs=500, learn_rate=0.5, early_stop_mse=0.05))
        assert trace.epochs_run < 500
        assert trace.train_mse[-1] <= 0.05

    @pytest.mark.parametrize("call, message", [
        (lambda: build_mlp(hidden=0), "hidden must be >= 1, got 0"),
        (lambda: mlp_forward(build_mlp(), np.zeros((3, 4))), r"expected \(n, 5\) inputs"),
        (lambda: mlp_forward(build_mlp(), np.zeros(5)), r"expected \(n, 5\) inputs"),
        (lambda: train_backprop(build_mlp(), Dataset(np.empty((0, 5)), []), [],
                                MlpTrainingConfig()), "training set is empty"),
    ], ids=["no-hidden-units", "wrong-width", "one-dimensional", "no-rows"])
    def test_bad_input_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            MlpTrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            MlpTrainingConfig(learn_rate=-0.1)
        with pytest.raises(ValueError):
            MlpTrainingConfig(loss="hinge")
        with pytest.raises(ValueError):
            MlpTrainingConfig(batch_mode="minibatch")
        for bad in ({"learn_rate": math.inf}, {"learn_rate": math.nan},
                    {"early_stop_mse": math.inf}, {"early_stop_mse": math.nan}):
            with pytest.raises(ValueError):
                MlpTrainingConfig(**bad)


class TestScoresAndPrediction:
    def test_logsig_scores_are_outputs(self):
        rng = np.random.default_rng(8)
        model = build_mlp(hidden=4, seed=0, output_activation="logsig")
        X = rng.uniform(-1, 1, size=(6, 5))
        np.testing.assert_allclose(model.classify(X)[1],
                                   mlp_forward(model, X)[0])

    def test_tansig_scores_rescaled_to_unit_interval(self):
        rng = np.random.default_rng(9)
        model = build_mlp(hidden=4, seed=0, output_activation="tansig")
        X = rng.uniform(-1, 1, size=(6, 5))
        O, _ = mlp_forward(model, X)
        scores = model.classify(X)[1]
        np.testing.assert_allclose(scores, (O + 1.0) / 2.0)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_predict_is_argmax(self):
        rng = np.random.default_rng(10)
        model = build_mlp(hidden=4, seed=2)
        X = rng.uniform(-1, 1, size=(12, 5))
        O, _ = mlp_forward(model, X)
        np.testing.assert_array_equal(model.classify(X)[0],
                                      np.argmax(O, axis=1))


class TestSweep:
    def test_reports_every_size_and_picks_best(self):
        rng = np.random.default_rng(11)
        train = toy_samples(40, rng)
        test = toy_samples(16, rng)
        config = MlpTrainingConfig(epochs=30, learn_rate=0.5)
        results, best = sweep_hidden(train, test, config, sizes=range(4, 8))
        assert [r["hidden"] for r in results] == [4, 5, 6, 7]
        accs = [r["test_accuracy"] for r in results]
        top = max(accs)
        assert best == results[accs.index(top)]["hidden"]

    def test_tie_breaks_to_smaller(self):
        rng = np.random.default_rng(12)
        train = toy_samples(40, rng)
        test = toy_samples(12, rng)
        # epochs plenty for all sizes to reach 100%: guaranteed tie
        config = MlpTrainingConfig(epochs=300, learn_rate=0.5)
        results, best = sweep_hidden(train, test, config, sizes=range(6, 10))
        accs = [r["test_accuracy"] for r in results]
        first_top = next(r["hidden"] for r, a in zip(results, accs)
                         if a == max(accs))
        assert best == first_top


class TestSerialization:
    def test_round_trip_byte_identical(self, tmp_path):
        model = build_mlp(hidden=7, seed=3)
        path = tmp_path / "mlp.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        loaded = load_model(path)
        assert isinstance(loaded, MlpModel)
        assert model_to_json(loaded) == text
        save_model(loaded, path)
        assert path.read_text(encoding="utf-8") == text

    def test_reload_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(13)
        samples = toy_samples(20, rng)
        trained, _ = train_backprop(
            build_mlp(hidden=5, seed=1), samples, [],
            MlpTrainingConfig(epochs=5, learn_rate=0.5))
        path = tmp_path / "m.json"
        save_model(trained, path)
        loaded = load_model(path)
        X = rng.uniform(-1, 1, size=(8, 5))
        np.testing.assert_array_equal(mlp_forward(loaded, X)[0],
                                      mlp_forward(trained, X)[0])

    def test_wrong_kind_rejected(self, tmp_path):
        model = build_mlp(hidden=3)
        d = json.loads(model_to_json(model))
        d["kind"] = "rbf"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_inconsistent_shapes_rejected(self, tmp_path):
        model = build_mlp(hidden=3)
        d = json.loads(model_to_json(model))
        d["w_out"] = [[0.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        model = build_mlp(hidden=3)
        d = json.loads(model_to_json(model))
        d["w_hidden"][0][1] = math.nan
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)


def weights_bytes(model):
    return [getattr(model, name).tobytes() for name in reference.WEIGHTS]


class TestOnePassLoop:
    """Full-batch training, its handed-on forward pass and ``logsig``
    against the two-pass loop and masked ``logsig`` in ``mlp_reference``."""

    @staticmethod
    def raw_samples(seed, n=48):
        rng = np.random.default_rng(seed)
        return Dataset(rng.uniform(0.0, 1.0, (n, 5)), rng.integers(0, 4, n))

    @pytest.mark.parametrize("loss,out_act,early_stop", [
        ("mse", "logsig", 0.0),
        ("mse", "tansig", 0.0),
        ("cross_entropy", "logsig", 0.0),
        ("mse", "logsig", 0.05),
    ])
    def test_matches_two_pass_reference_bit_for_bit(self, loss, out_act,
                                                    early_stop):
        samples = (toy_samples(40, np.random.default_rng(7)) if early_stop
                   else self.raw_samples(11))
        model = build_mlp(hidden=7, seed=3, output_activation=out_act)
        config = MlpTrainingConfig(epochs=300, learn_rate=0.5, loss=loss,
                                   early_stop_mse=early_stop)
        trained, trace = train_backprop(model, samples, [], config)
        want, want_mse = reference.train_full_batch(model, samples, config)
        assert weights_bytes(trained) == weights_bytes(want)
        assert trace.train_mse == want_mse
        assert trace.epochs_run == len(want_mse)
        if early_stop:
            assert trace.epochs_run < config.epochs

    def test_divergence_still_raises(self):
        # an infinite input saturates its row's hidden units, so the
        # first step's hidden gradient takes 0 * inf and the weights turn NaN
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.0, 1.0, (12, 5))
        X[3, 2] = np.inf
        samples = Dataset(X, rng.integers(0, 4, 12))
        model = build_mlp(hidden=4, seed=0)
        assert np.all(np.isfinite(mlp_forward(model, X)[0]))
        config = MlpTrainingConfig(epochs=5)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="diverged"):
                train_backprop(model, samples, [], config)
            with pytest.raises(NumericError, match="diverged"):
                reference.train_full_batch(model, samples, config)

    @pytest.mark.parametrize("batch_mode,passes", [("full", 7 + 1),
                                                   ("stochastic", 7)])
    def test_one_full_set_pass_per_epoch(self, monkeypatch, batch_mode, passes):
        rows = []
        forward = mlp.mlp_forward
        monkeypatch.setattr(mlp, "mlp_forward",
                            lambda model, X: rows.append(len(X)) or forward(model, X))
        train_backprop(build_mlp(seed=1), self.raw_samples(2, n=10), [],
                       MlpTrainingConfig(epochs=7, batch_mode=batch_mode))
        assert rows.count(10) == passes

    def test_given_forward_gives_the_same_loss_and_gradients(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1.0, 1.0, (15, 5))
        T = np.eye(4)[rng.integers(0, 4, 15)]
        for loss in ("mse", "cross_entropy"):
            model = build_mlp(hidden=6, seed=2)
            want_loss, want = mlp_loss_and_gradients(model, X, T, loss)
            got_loss, got = mlp_loss_and_gradients(
                model, X, T, loss, forward=mlp_forward(model, X))
            assert got_loss == want_loss
            assert {k: g.tobytes() for k, g in got.items()} == {
                k: g.tobytes() for k, g in want.items()}

    def test_logsig_matches_masked_reference_bit_for_bit(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([
            rng.uniform(-800.0, 800.0, 5000), rng.normal(0.0, 5.0, 5000),
            [0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 745.0, -745.0, np.nan]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = logsig(x)
        want = reference.logsig(x)
        assert np.array_equal(got, want, equal_nan=True)
        assert got[~np.isnan(want)].tobytes() == want[~np.isnan(want)].tobytes()
