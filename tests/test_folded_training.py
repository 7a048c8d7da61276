"""Training on folded rows along a member axis against raw-row oracles.

``hybrid_reference`` trains one member at a time on every raw row.  The
package folds the rows once and trains all members together; both must
give the same models up to rounding.  The folded-statistics tests check
the folded loss, gradient and solve against plain per-row sums.
"""

import copy

import numpy as np
import pytest

import hybrid_reference as reference
from neurofuzzy import anfis
from neurofuzzy.anfis import (TrainingConfig, _fold_rows, _layers,
                              build_grid_model, ensemble_predict_classes,
                              lse_consequents, predict_classes,
                              premise_gradients, train_hybrid, train_oaa)
from neurofuzzy.data import Dataset, to_arrays
from neurofuzzy.fuzzy import MF_SHAPES
from neurofuzzy.model_io import model_to_json
from test_anfis import random_model

TRACE_TOL = 1e-12


def conflicting_samples(rng, n, pool, input_dim=3, binary=False):
    """n samples drawn from ``pool`` rows with random classes, so repeated
    rows carry conflicting targets; ``binary`` rows are -1/+1 like the
    bundled data's."""
    rows = (rng.choice([-1.0, 1.0], size=(pool, input_dim)) if binary
            else rng.uniform(-1, 1, size=(pool, input_dim)))
    pick = rng.integers(pool, size=n)
    return Dataset(rows[pick], [rng.integers(4) for _ in pick])


def outside_grid_samples(rng, n, input_dim=3):
    """Rows in the grid mixed with rows far outside it, where every firing
    strength is exactly zero (uniform fallback rows)."""
    feats = rng.uniform(-1, 1, size=(n, input_dim))
    feats[: n // 3, 0] = 40.0
    return Dataset(feats, [rng.integers(4) for _ in feats])


def assert_same_training(got, want, X):
    (got_model, got_trace), (want_model, want_trace) = got, want
    assert got_trace.epochs_run == want_trace.epochs_run
    np.testing.assert_allclose(got_trace.train_rmse, want_trace.train_rmse,
                               rtol=0, atol=TRACE_TOL)
    if want_trace.test_rmse is not None:
        assert abs(got_trace.test_rmse - want_trace.test_rmse) <= TRACE_TOL
    np.testing.assert_array_equal(predict_classes(got_model, X),
                                  predict_classes(want_model, X))


CASES = {
    "gauss2": ("gauss2", lambda rng: conflicting_samples(rng, 60, 12)),
    "gbell": ("gbell", lambda rng: conflicting_samples(rng, 60, 12)),
    "triangular": ("triangular", lambda rng: conflicting_samples(rng, 60, 12)),
    "repeated-binary": ("gauss2", lambda rng: conflicting_samples(
        rng, 90, 8, binary=True)),
    "degenerate-triangular": ("triangular", lambda rng: outside_grid_samples(rng, 60)),
    "degenerate-gauss2": ("gauss2", lambda rng: outside_grid_samples(rng, 60)),
}


class TestReferenceEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_single_output_matches_raw_row_loop(self, case):
        shape, make = CASES[case]
        rng = np.random.default_rng(sorted(CASES).index(case))
        samples = make(rng)
        rows = np.arange(len(samples))
        train, test = samples.take(rows[:-10]), samples.take(rows[-10:])
        proto = build_grid_model(shape, input_dim=3)
        config = TrainingConfig(epochs=15, learn_rate=0.05)
        X = to_arrays(samples)[0]
        assert_same_training(train_hybrid(proto, train, test, config),
                             reference.train_hybrid(proto, train, test, config), X)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_oaa_matches_raw_row_loop(self, case):
        shape, make = CASES[case]
        rng = np.random.default_rng(10 + sorted(CASES).index(case))
        samples = make(rng)
        rows = np.arange(len(samples))
        train, test = samples.take(rows[:-10]), samples.take(rows[-10:])
        proto = build_grid_model(shape, input_dim=3)
        config = TrainingConfig(epochs=15, learn_rate=0.05)
        got, got_traces = train_oaa(proto, train, test, config)
        want, want_traces = reference.train_oaa(proto, train, test, config)
        X = to_arrays(samples)[0]
        np.testing.assert_array_equal(ensemble_predict_classes(got, X),
                                      ensemble_predict_classes(want, X))
        for k in range(4):
            assert_same_training((got.members[k], got_traces[k]),
                                 (want.members[k], want_traces[k]), X)

    def test_members_early_stop_at_their_own_epochs(self):
        rng = np.random.default_rng(30)
        samples = conflicting_samples(rng, 60, 10)
        proto = build_grid_model("gbell", input_dim=3)
        free = reference.train_oaa(proto, samples, [], TrainingConfig(epochs=40))[1]
        # a threshold that some members reach early, some late, some never
        stop = float(np.median([t.train_rmse[5] for t in free]))
        config = TrainingConfig(epochs=40, early_stop_rmse=stop)
        got, got_traces = train_oaa(proto, samples, samples, config)
        want, want_traces = reference.train_oaa(proto, samples, samples, config)
        assert len({t.epochs_run for t in want_traces}) > 1
        X = to_arrays(samples)[0]
        for k in range(4):
            assert_same_training((got.members[k], got_traces[k]),
                                 (want.members[k], want_traces[k]), X)


def raw_row_loss_and_grads(model, X, t):
    """Mean squared error and its premise gradient, one sample and one
    rule at a time, from each function's scalar degree and gradients."""
    n, d, M = len(X), model.input_dim, model.mfs_per_input
    loss, grads = 0.0, np.zeros((d, M, len(model.mf_bank[0][0].params())))
    for x, target in zip(X, t):
        mu, dmu = np.zeros((d, M)), np.zeros(grads.shape)
        for j in range(d):
            for m, mf in enumerate(model.mf_bank[j]):
                mu[j, m], dmu[j, m] = mf.degree_and_param_grads(x[j])
        w = np.array([np.prod([mu[j, a[j]] for j in range(d)])
                      for a in model.antecedents])
        f = model.consequents @ np.concatenate([[1.0], x])
        S = w.sum()
        y = w @ f / S
        loss += (y - target) ** 2 / n
        dEdy = 2.0 * (y - target) / n
        for i, a in enumerate(model.antecedents):
            dEdw = dEdy * (f[i] - y) / S
            for j in range(d):
                others = np.prod([mu[k, a[k]] for k in range(d) if k != j])
                grads[j, a[j]] += dEdw * others * dmu[j, a[j]]
    return loss, grads


def repeated_design(rng, input_dim=2):
    """48 rows over 12 distinct inputs with conflicting targets."""
    X = np.repeat(rng.uniform(-1, 1, size=(12, input_dim)),
                  rng.integers(1, 7, size=12), axis=0)
    X = X[rng.permutation(len(X))]
    return X, rng.normal(size=len(X))


class TestFoldedStatistics:
    @pytest.mark.parametrize("shape", ["gbell", "gauss2"])
    def test_gradient_matches_raw_row_sums(self, shape):
        rng = np.random.default_rng(40)
        for _ in range(3):
            model = random_model(rng, mf_shape=shape, input_dim=2)
            X, t = repeated_design(rng)
            assert len(np.unique(X, axis=0)) < len(X)
            loss, grads = premise_gradients(model, X, t)
            want_loss, want_grads = raw_row_loss_and_grads(model, X, t)
            assert abs(loss - want_loss) <= 1e-12
            np.testing.assert_allclose(grads, want_grads, rtol=0, atol=1e-12)

    def test_folded_solve_matches_raw_solve(self):
        rng = np.random.default_rng(41)
        for mfs in (2, 3):                        # primal, then dual form
            folded = random_model(rng, input_dim=2, mfs=mfs)
            raw = copy.deepcopy(folded)
            X, t = repeated_design(rng)
            rows, inverse, counts = np.unique(
                X, axis=0, return_inverse=True, return_counts=True)
            means = np.bincount(inverse.ravel(), weights=t) / counts
            lse_consequents(raw, X, t)
            lse_consequents(folded, rows, means, counts=counts)
            np.testing.assert_allclose(folded.consequents, raw.consequents,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("counts, targets", [
        ([1, 2], np.ones(3)), ([1, 0, 2], np.ones(3)), ([[1, 2, 3]], np.ones(3)),
        ([1, 2, 3], 1.0), ([1, 2, 3], np.ones(1)), ([1, 2, 3], np.ones(4))])
    def test_folded_solve_rejects_bad_counts(self, counts, targets):
        model = random_model(np.random.default_rng(42), input_dim=2)
        with pytest.raises(ValueError):
            lse_consequents(model, np.zeros((3, 2)) + [[0], [1], [2]],
                            targets, counts=counts)

    @pytest.mark.parametrize("shape", ["gbell", "gauss2", "triangular"])
    def test_given_normalized_strengths_give_the_same_solve(self, shape):
        rng = np.random.default_rng(44)
        for mfs in (2, 3):                        # primal, then dual form
            model = (build_grid_model(shape, mfs_per_input=mfs, input_dim=2)
                     if shape == "triangular"
                     else random_model(rng, mf_shape=shape, input_dim=2, mfs=mfs))
            X, t = repeated_design(rng)
            rows, counts, means, _ = _fold_rows(X, t[None])
            # the strengths as the epoch loop holds them, from its own pass
            bank = MF_SHAPES[shape]
            normalized = _layers(model, bank.stack(model.mf_bank)[None], rows,
                                 bank.trainable)[4][0]
            raw, plain, given = (copy.deepcopy(model) for _ in range(3))
            lse_consequents(raw, X, t)
            want = lse_consequents(plain, rows, means[0], counts=counts)
            got = lse_consequents(given, rows, means[0], counts=counts,
                                  normalized=normalized)
            assert got == want
            assert (given.consequents.tobytes() == plain.consequents.tobytes()
                    == raw.consequents.tobytes())

    def test_normalized_strengths_need_counts(self):
        model = random_model(np.random.default_rng(45), input_dim=2)
        X = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="counts"):
            lse_consequents(model, X, np.ones(2),
                            normalized=np.full((2, model.n_rules), 0.25))

    @pytest.mark.parametrize("shape", ["gauss2", "triangular"])
    def test_solve_reuses_the_epoch_loops_pass(self, monkeypatch, shape):
        passes = []
        forward = anfis._forward_batch
        monkeypatch.setattr(anfis, "_forward_batch",
                            lambda *args: passes.append(1) or forward(*args))
        samples = conflicting_samples(np.random.default_rng(46), 40, 10)
        train_oaa(build_grid_model(shape, input_dim=3), samples, [],
                  TrainingConfig(epochs=3))
        assert passes == []

    def test_premise_records_written_once_per_member(self, monkeypatch):
        shape = MF_SHAPES["gauss2"]
        calls, unstack = [], shape.unstack
        monkeypatch.setattr(shape, "unstack", classmethod(
            lambda cls, P: calls.append(1) or unstack(P)))
        samples = conflicting_samples(np.random.default_rng(47), 40, 10)
        train_oaa(build_grid_model("gauss2", input_dim=3), samples, [],
                  TrainingConfig(epochs=100))
        assert len(calls) == 4

    @pytest.mark.parametrize("shape", ["gauss2", "triangular"])
    def test_oaa_member_equals_training_it_alone(self, shape):
        rng = np.random.default_rng(43)
        samples = conflicting_samples(rng, 50, 10)
        config = TrainingConfig(epochs=8, learn_rate=0.05)
        ensemble, traces = train_oaa(build_grid_model(shape, input_dim=3),
                                     samples, samples.take(range(10)), config)
        for k in range(4):
            alone, trace = train_hybrid(
                build_grid_model(shape, input_dim=3, output_mode="binary",
                                 positive_class=k),
                samples, samples.take(range(10)), config)
            assert model_to_json(ensemble.members[k]) == model_to_json(alone)
            assert traces[k] == trace
