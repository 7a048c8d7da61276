import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roc_reference as reference
from neurofuzzy.errors import NumericError, UndefinedKappaError
from neurofuzzy.metrics import (BinaryConfusion, RocCurve, auc, cap_consistent,
                                cohen_kappa, evaluate_multiclass, mwcs_cap,
                                oaa_confusion, random_accuracy, roc_curve,
                                roc_to_csv, total_accuracy)


def pairwise_auc(scores, labels):
    """Probability a random positive outscores a random negative, ties 1/2.

    Brute-force ranking statistic, used as the independent check on the
    trapezoid value.
    """
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def points(curve):
    """The curve's (fpr, tpr) pairs as Python float tuples."""
    return tuple(zip(curve.fpr.tolist(), curve.tpr.tolist()))


EMPTY = BinaryConfusion(tp=0, fp=0, tn=0, fn=0)


@pytest.mark.parametrize("call, message", [
    (lambda: BinaryConfusion(tp=1, fp=-1, tn=0, fn=0), "must be non-negative"),
    (lambda: oaa_confusion([0, 1], [0], 0), "differ in length: 2 vs 1"),
    (lambda: oaa_confusion([], [], 0), "must be non-empty"),
    (lambda: total_accuracy(EMPTY), "empty confusion"),
    (lambda: random_accuracy(EMPTY), "empty confusion"),
    (lambda: roc_curve([0.1, 0.9], [0, 1, 1]), "differ in length"),
    (lambda: evaluate_multiclass([0, 1, 2], [0, 1]), "differ in length"),
    (lambda: evaluate_multiclass([], []), "must be non-empty"),
], ids=["negative-count", "oaa-lengths", "oaa-empty", "total-accuracy-empty",
        "random-accuracy-empty", "roc-lengths", "multiclass-lengths", "multiclass-empty"])
def test_malformed_input_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestOaaConfusion:
    def test_hand_count(self):
        true = [0, 0, 1, 2]
        pred = [0, 1, 1, 2]
        c = oaa_confusion(true, pred, 0)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 0, 2)

    def test_partition(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, 60)
        pred = rng.integers(0, 4, 60)
        for k in range(4):
            c = oaa_confusion(true, pred, k)
            assert c.tp + c.fp + c.tn + c.fn == 60
            assert c.total == 60

    def test_class_counts(self):
        true = [0, 0, 0, 1, 2, 3]
        pred = [1, 1, 1, 1, 1, 1]
        c = oaa_confusion(true, pred, 1)
        assert c.tp + c.fn == 1          # actual positives
        assert c.fp + c.tn == 5          # actual negatives


class TestAccuracy:
    def test_example(self):
        c = BinaryConfusion(tp=40, fp=5, tn=50, fn=5)
        assert total_accuracy(c) == 0.90

    def test_extremes(self):
        assert total_accuracy(BinaryConfusion(10, 0, 10, 0)) == 1.0
        assert total_accuracy(BinaryConfusion(0, 10, 0, 10)) == 0.0

    def test_random_accuracy_balanced(self):
        c = BinaryConfusion(tp=25, fp=25, tn=25, fn=25)
        assert random_accuracy(c) == 0.5

    def test_random_accuracy_example(self):
        # marginals 55/45 on both axes
        c = BinaryConfusion(tp=30, fp=25, tn=20, fn=25)
        assert math.isclose(random_accuracy(c), 0.505)


class TestKappa:
    def test_example(self):
        c = BinaryConfusion(tp=40, fp=5, tn=50, fn=5)
        # (0.90 - 0.505) / (1 - 0.505)
        assert math.isclose(cohen_kappa(c), 0.797979797979798)

    def test_perfect(self):
        assert cohen_kappa(BinaryConfusion(60, 0, 85, 0)) == 1.0

    def test_undefined_when_chance_is_total(self):
        with pytest.raises(UndefinedKappaError):
            cohen_kappa(BinaryConfusion(tp=10, fp=0, tn=0, fn=0))

    def test_chance_level_predictions_score_near_zero(self):
        # independent predictions should average out to kappa ~ 0
        rng = np.random.default_rng(42)
        vals = []
        for _ in range(50):
            true = rng.uniform(size=1000) < 0.3
            pred = rng.uniform(size=1000) < 0.5
            c = BinaryConfusion(
                tp=int(np.sum(true & pred)), fp=int(np.sum(~true & pred)),
                tn=int(np.sum(~true & ~pred)), fn=int(np.sum(true & ~pred)))
            vals.append(cohen_kappa(c))
        assert abs(float(np.mean(vals))) < 0.05

    @given(tp=st.integers(1, 50), tn=st.integers(1, 50),
           fp=st.integers(0, 50), fn=st.integers(0, 50))
    def test_one_iff_no_errors(self, tp, tn, fp, fn):
        c = BinaryConfusion(tp=tp, fp=fp, tn=tn, fn=fn)
        try:
            k = cohen_kappa(c)
        except UndefinedKappaError:
            return
        assert (k == 1.0) == (fp == 0 and fn == 0)

    @given(tp=st.integers(0, 50), tn=st.integers(0, 50),
           fp=st.integers(0, 50), fn=st.integers(0, 50))
    def test_swap_invariance(self, tp, tn, fp, fn):
        a = BinaryConfusion(tp=tp, fp=fp, tn=tn, fn=fn)
        b = BinaryConfusion(tp=tn, fp=fn, tn=tp, fn=fp)
        if a.total == 0:
            return
        try:
            ka = cohen_kappa(a)
        except UndefinedKappaError:
            with pytest.raises(UndefinedKappaError):
                cohen_kappa(b)
            return
        assert math.isclose(ka, cohen_kappa(b), abs_tol=1e-12)


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert (0.0, 1.0) in points(curve)
        assert auc(curve) == 1.0

    def test_all_tied_scores(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert points(curve) == ((0.0, 0.0), (1.0, 1.0))
        assert auc(curve) == 0.5

    def test_hand_traced_sweep(self):
        scores = [0.9, 0.6, 0.4, 0.1]
        labels = [1, 0, 1, 0]
        curve = roc_curve(scores, labels)
        assert points(curve) == ((0.0, 0.0), (0.0, 0.5), (0.5, 0.5),
                                (0.5, 1.0), (1.0, 1.0))
        assert curve.thresholds[0] == math.inf
        assert math.isclose(auc(curve), 0.75)

    def test_endpoints_always_present(self):
        rng = np.random.default_rng(3)
        curve = roc_curve(rng.uniform(size=30), rng.integers(0, 2, 30))
        assert points(curve)[0] == (0.0, 0.0)
        assert points(curve)[-1] == (1.0, 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.9], [1, 1])

    @given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False),
                              st.integers(0, 1)),
                    min_size=4, max_size=40))
    @settings(max_examples=60)
    def test_monotone_staircase(self, rows):
        scores = [r[0] for r in rows]
        labels = [r[1] for r in rows]
        if len(set(labels)) < 2:
            return
        curve = roc_curve(scores, labels)
        assert all(b >= a for a, b in zip(curve.fpr, curve.fpr[1:]))
        assert all(b >= a for a, b in zip(curve.tpr, curve.tpr[1:]))

    @given(st.lists(st.tuples(st.floats(-5, 5, allow_nan=False),
                              st.integers(0, 1)),
                    min_size=4, max_size=40))
    @settings(max_examples=60)
    def test_area_equals_ranking_statistic(self, rows):
        scores = [r[0] for r in rows]
        labels = [r[1] for r in rows]
        if len(set(labels)) < 2:
            return
        got = auc(roc_curve(scores, labels))
        assert math.isclose(got, pairwise_auc(scores, labels), abs_tol=1e-12)


ROC_CASES = ("all-distinct", "two-decimal-ties", "all-tied", "single-positive")


def seeded_roc_case(case):
    """Seeded (scores, labels) of 500 rows for one of ``ROC_CASES``."""
    rng = np.random.default_rng(list(ROC_CASES).index(case))
    scores, labels = rng.uniform(size=500), rng.integers(0, 2, 500)
    if case == "two-decimal-ties":
        scores = np.round(scores, 2)
    elif case == "all-tied":
        scores = np.full(500, 0.25)
    elif case == "single-positive":
        labels = (np.arange(500) == rng.integers(500)).astype(int)
    return scores, labels


class TestRocAgainstReference:
    @pytest.mark.parametrize("case", ROC_CASES)
    def test_points_and_thresholds_are_exact(self, case):
        scores, labels = seeded_roc_case(case)
        want_points, want_thresholds = reference.roc_points(scores, labels)
        curve = roc_curve(scores, labels)
        assert points(curve) == want_points
        assert tuple(curve.thresholds.tolist()) == want_thresholds

    def test_signed_zero_threshold_is_the_groups_first_score(self):
        scores, labels = [0.0, -0.0, 0.5], [1, 0, 1]
        thresholds = roc_curve(scores, labels).thresholds.tolist()
        assert [math.copysign(1, t) for t in thresholds] == \
            [math.copysign(1, t) for t in reference.roc_points(scores, labels)[1]]


class TestRocCurveInvariants:
    @pytest.mark.parametrize("fpr, tpr, thresholds, message", [
        ([0, 1], [0, 1], [math.inf], "one threshold per point"),
        ([0, 0.5], [0, 1], [math.inf, 0.5], "from \\(0,0\\) to \\(1,1\\)"),
        ([0.1, 1], [0, 1], [math.inf, 0.5], "from \\(0,0\\) to \\(1,1\\)"),
        ([0, 0.6, 0.4, 1], [0, 0, 1, 1], [math.inf, 3, 2, 1], "fpr must be"),
        ([0, 0, 1, 1], [0, 0.6, 0.4, 1], [math.inf, 3, 2, 1], "tpr must be"),
    ])
    def test_bad_curve_rejected(self, fpr, tpr, thresholds, message):
        with pytest.raises(ValueError, match=message):
            RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)

    def test_fields_are_float_arrays(self):
        curve = RocCurve(fpr=[0, 1], tpr=[0, 1], thresholds=[math.inf, 1])
        for field in (curve.fpr, curve.tpr, curve.thresholds):
            assert isinstance(field, np.ndarray) and field.dtype == float


class TestMwcsCap:
    def test_single_run(self):
        mwcs, cap = mwcs_cap([2], 145)
        assert mwcs == 2.0
        assert math.isclose(cap, 100.0 * (1.0 - 2.0 / 145.0))

    def test_perfect_runs(self):
        mwcs, cap = mwcs_cap([0, 0, 0], 50)
        assert mwcs == 0.0 and cap == 100.0

    def test_mean_over_runs(self):
        mwcs, cap = mwcs_cap([3, 4], 100)
        assert mwcs == 3.5
        assert math.isclose(cap, 96.5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            mwcs_cap([], 100)
        with pytest.raises(ValueError):
            mwcs_cap([101], 100)
        with pytest.raises(ValueError, match="test_size must be >= 1, got 0"):
            mwcs_cap([0], 0)

    def test_consistency_check(self):
        assert cap_consistent(3.5, 96.5, 100)
        assert cap_consistent(2.0, 98.62, 145)          # rounded to 2 places
        assert not cap_consistent(3.5, 97.24, 145)      # off by ~0.35 points
        # 96.5517 truncated to one decimal: needs a full last-digit ulp
        assert not cap_consistent(5.0, 96.5, 145, tol=0.05)
        assert cap_consistent(5.0, 96.5, 145, tol=0.1)


class TestEvaluateMulticlass:
    @pytest.mark.parametrize("true, pred, message", [
        ([0, 1, 2, 3], [0, 1, 2, -1], "prediction -1 outside 0..3"),
        ([0, 1, 2, 3], [0, 1, 2, 4], "prediction 4 outside 0..3"),
        ([0, 1, 5, 3], [0, 1, 2, 3], "label 5 outside 0..3"),
        ([-2, 1, 2, 3], [0, 1, 2, 9], "label -2 outside 0..3"),
    ])
    def test_out_of_range_class_rejected(self, true, pred, message):
        # unchecked, -1 would index the last column and 4 past the matrix
        with pytest.raises(ValueError, match=message):
            evaluate_multiclass(true, pred)

    @pytest.mark.parametrize("true, pred, message", [
        ([0.0, 1.0, 2.5, 3.0], [0, 1, 2, 3], "label 2.5 outside 0..3"),
        ([0, 1, 2, 3], [0.0, 1.0, 2.0, 0.5], "prediction 0.5 outside 0..3"),
        ([0.0, np.nan, 2.0, 3.0], [0, 1, 2, 3], "label nan outside 0..3"),
        ([0, 1, 2, 3], [0.0, 1.0, 2.0, np.inf], "prediction inf outside 0..3"),
    ])
    def test_non_integer_class_rejected(self, true, pred, message):
        with pytest.raises(ValueError, match=message):
            evaluate_multiclass(true, pred)

    def test_integral_floats_score_as_their_integers(self):
        true, pred = [0, 0, 1, 3, 3, 2], [0, 1, 1, 3, 2, 2]
        want = evaluate_multiclass(true, pred).to_dict()
        assert evaluate_multiclass(np.array(true, dtype=float),
                                   np.array(pred, dtype=float)).to_dict() == want

    def test_confusion_counts_each_pair(self):
        true = [0, 0, 1, 3, 3, 3, 2]
        pred = [0, 1, 1, 3, 2, 3, 0]
        want = np.zeros((4, 4), dtype=int)
        for t, p in zip(true, pred):
            want[t, p] += 1
        np.testing.assert_array_equal(evaluate_multiclass(true, pred).confusion, want)

    def test_perfect_predictions(self):
        true = [0] * 5 + [1] * 7 + [2] * 6 + [3] * 2
        report = evaluate_multiclass(true, list(true))
        assert report.overall_accuracy == 1.0
        assert report.wrong_count == 0
        assert report.mwcs == 0.0
        assert report.cap == 100.0
        for row in report.per_class:
            assert row["tpr"] == 1.0 and row["fpr"] == 0.0
            assert row["kappa"] == 1.0

    def test_rates_partition(self):
        rng = np.random.default_rng(1)
        true = rng.integers(0, 4, 80)
        pred = rng.integers(0, 4, 80)
        report = evaluate_multiclass(true, pred)
        for row in report.per_class:
            assert math.isclose(row["tpr"] + row["fnr"], 1.0)
            assert math.isclose(row["fpr"] + row["tnr"], 1.0)

    def test_cap_matches_accuracy(self):
        rng = np.random.default_rng(2)
        true = rng.integers(0, 4, 120)
        pred = rng.integers(0, 4, 120)
        report = evaluate_multiclass(true, pred)
        assert math.isclose(report.cap, 100.0 * report.overall_accuracy,
                            abs_tol=1e-12)
        assert report.wrong_count == int(np.sum(true != pred))

    def test_aucs_from_scores(self):
        true = [0, 1, 2, 3, 0, 1, 2, 3]
        scores = np.eye(4)[true] * 0.8 + 0.1
        report = evaluate_multiclass(true, true, scores=scores)
        for row in report.per_class:
            assert row["auc"] == 1.0

    def test_absent_class_reports_none(self):
        report = evaluate_multiclass([0, 0, 1], [0, 0, 1])
        high = report.per_class[3]
        assert high["tpr"] is None
        # no positives and no false alarms: chance accuracy is 1, kappa 0/0
        assert high["kappa"] is None
        assert high["fpr"] == 0.0

    def test_report_round_trips_to_dict(self):
        report = evaluate_multiclass(
            [0, 1, 2, 3], [0, 1, 2, 2],
            class_names=("VeryLow", "Low", "Middle", "High"))
        d = report.to_dict()
        assert d["n_samples"] == 4
        assert d["wrong_count"] == 1
        assert len(d["per_class"]) == 4
        assert [r["class_label"] for r in d["per_class"]] == \
            ["VeryLow", "Low", "Middle", "High"]


class TestRocCsv:
    def test_format_and_round_trip(self):
        curve = roc_curve([0.9, 0.6, 0.4, 0.1], [1, 0, 1, 0])
        text = roc_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == 1 + len(curve.fpr)
        parsed = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        for (thr, f, t), pt, want_thr in zip(parsed, points(curve),
                                             curve.thresholds):
            assert (f, t) == pt
            assert thr == want_thr
        # repr round trip keeps the values exact
        thr, fpr, tpr = zip(*parsed)
        assert math.isclose(auc(RocCurve(fpr=fpr, tpr=tpr, thresholds=thr)),
                            auc(curve), abs_tol=0.0)
