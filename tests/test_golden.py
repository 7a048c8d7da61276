"""Numeric contract for training on the bundled dataset.

Faster numerics may move low-order bits but must not move what a user
sees.  These values were recorded with the ridge-augmented SVD
least-squares consequent solve, on the default config's split (binarized
features, ratio 0.8, seed 0).  Class predictions must match exactly and
final errors within ``RMSE_TOL``.
"""

from pathlib import Path

import numpy as np
import pytest

from neurofuzzy.anfis import (TrainingConfig, build_grid_model,
                              ensemble_predict_classes, predict_classes,
                              train_hybrid, train_oaa)
from neurofuzzy.data import binarize, load_dataset, split_stratified, to_arrays

DATASET = Path(__file__).resolve().parents[1] / "data" / "ukm_synthetic.csv"
RMSE_TOL = 1e-9

# class indices of the 80 held-out rows, in split order
OAA_PREDICTIONS = ("31120032231112100331231222332332132212323031232002111102"
                   "310122132102211212111133")
M3_SINGLE_PREDICTIONS = ("3112003223111210033123122233233213221232303123200211"
                         "1102310122132102211212111133")
# (final train RMSE, test RMSE) per one-against-all member, classes 0..3
OAA_MEMBER_RMSE = [
    (0.16261853658698466, 0.15317813705580494),
    (0.1545738205464598, 0.15644915500641957),
    (0.16166382068500254, 0.13441294680097127),
    (0.1439732312498633, 0.1331131260059734),
]


@pytest.fixture(scope="module")
def split():
    return split_stratified(binarize(load_dataset(DATASET)), 0.8, seed=0)


def _digits(classes):
    return "".join(str(int(c)) for c in classes)


def test_default_oaa_training_is_pinned(split):
    X = to_arrays(split.test)[0]
    ensemble, traces = train_oaa(build_grid_model("gauss2", mfs_per_input=2),
                                 split.train, split.test,
                                 TrainingConfig(epochs=100))
    assert _digits(ensemble_predict_classes(ensemble, X)) == OAA_PREDICTIONS
    for trace, (train_rmse, test_rmse) in zip(traces, OAA_MEMBER_RMSE):
        assert trace.epochs_run == 100
        assert abs(trace.train_rmse[-1] - train_rmse) <= RMSE_TOL
        assert abs(trace.test_rmse - test_rmse) <= RMSE_TOL


def test_three_mf_single_output_is_pinned(split):
    X = to_arrays(split.test)[0]
    model, _ = train_hybrid(build_grid_model("gauss2", mfs_per_input=3),
                            split.train, split.test, TrainingConfig(epochs=2))
    assert _digits(predict_classes(model, X)) == M3_SINGLE_PREDICTIONS


# Recorded before the premise bank was evaluated in one call per pass
# (Cholesky consequent solve, per-function membership calls).  Both runs
# decide every held-out row as the default OAA run does.
GBELL_SINGLE_PREDICTIONS = OAA_PREDICTIONS
GBELL_SINGLE_RMSE = (0.35421127148416637, 0.2289152017635648)
TRIANGULAR_OAA_PREDICTIONS = OAA_PREDICTIONS
TRIANGULAR_OAA_MEMBER_RMSE = [
    (0.16261853658698466, 0.15317813705165406),
    (0.1545738205464598, 0.15644915500891138),
    (0.16166382068500254, 0.13441294681147006),
    (0.14397323124986328, 0.1331131260017607),
]


def test_gbell_single_output_training_is_pinned(split):
    X = to_arrays(split.test)[0]
    model, trace = train_hybrid(build_grid_model("gbell", mfs_per_input=2),
                                split.train, split.test,
                                TrainingConfig(epochs=100))
    assert _digits(predict_classes(model, X)) == GBELL_SINGLE_PREDICTIONS
    train_rmse, test_rmse = GBELL_SINGLE_RMSE
    assert trace.epochs_run == 100
    assert abs(trace.train_rmse[-1] - train_rmse) <= RMSE_TOL
    assert abs(trace.test_rmse - test_rmse) <= RMSE_TOL


def test_triangular_oaa_training_is_pinned(split):
    X = to_arrays(split.test)[0]
    ensemble, traces = train_oaa(build_grid_model("triangular", mfs_per_input=2),
                                 split.train, split.test,
                                 TrainingConfig(epochs=100))
    assert _digits(ensemble_predict_classes(ensemble, X)) == \
        TRIANGULAR_OAA_PREDICTIONS
    for trace, (train_rmse, test_rmse) in zip(traces, TRIANGULAR_OAA_MEMBER_RMSE):
        assert trace.epochs_run == 100
        assert abs(trace.train_rmse[-1] - train_rmse) <= RMSE_TOL
        assert abs(trace.test_rmse - test_rmse) <= RMSE_TOL
