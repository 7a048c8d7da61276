import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurofuzzy.fuzzy import (GeneralizedBell, Triangular, TwoSidedGaussian,
                              mf_from_dict, normalize_weights)
from sugeno_reference import SugenoRule, firing_strengths, sugeno_infer

finite = dict(allow_nan=False, allow_infinity=False)


class TestGeneralizedBell:
    def test_center_degree_is_one(self):
        assert GeneralizedBell(a=2, b=1, c=0).degree(0.0) == 1.0

    def test_half_width_point(self):
        # (x - c)/a = 1 regardless of b, so degree = 1/(1 + 1)
        assert GeneralizedBell(a=2, b=1, c=0).degree(2.0) == pytest.approx(0.5)

    def test_hand_evaluated_point(self):
        # ((1.0 - 0.5)/1)^(2*2) = 0.0625, 1/1.0625 = 0.9411764705882353
        mf = GeneralizedBell(a=1, b=2, c=0.5)
        assert mf.degree(1.0) == pytest.approx(0.9411764705882353, abs=1e-15)

    @pytest.mark.parametrize("a,b", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_nonpositive_shape_rejected(self, a, b):
        with pytest.raises(ValueError):
            GeneralizedBell(a=a, b=b, c=0)

    @given(st.floats(0.0, 30.0, **finite))
    def test_symmetric_about_center(self, d):
        mf = GeneralizedBell(a=1.3, b=2.5, c=0.7)
        assert mf.degree(0.7 + d) == pytest.approx(mf.degree(0.7 - d), abs=1e-12)

    @given(st.floats(1e-3, 10.0, **finite), st.floats(0.1, 8.0, **finite),
           st.floats(-10.0, 10.0, **finite), st.floats(-50.0, 50.0, **finite))
    def test_degree_bounded(self, a, b, c, x):
        assert 0.0 <= GeneralizedBell(a=a, b=b, c=c).degree(x) <= 1.0


class TestTwoSidedGaussian:
    def mf(self):
        return TwoSidedGaussian(sigma_left=1, c_left=-0.5,
                                sigma_right=1, c_right=0.5)

    def test_plateau_interior(self):
        assert self.mf().degree(0.0) == 1.0

    def test_plateau_boundary(self):
        assert self.mf().degree(-0.5) == 1.0
        assert self.mf().degree(0.5) == 1.0

    def test_tail_one_sigma_out(self):
        # exp(-1/2) = 0.6065306597126334
        assert self.mf().degree(1.5) == pytest.approx(0.6065306597126334,
                                                      abs=1e-15)

    def test_continuous_at_plateau_edges(self):
        mf = self.mf()
        for edge in (-0.5, 0.5):
            inside, outside = mf.degree(edge), mf.degree(edge + np.sign(edge) * 1e-9)
            assert abs(inside - outside) < 1e-9

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TwoSidedGaussian(sigma_left=0, c_left=0, sigma_right=1, c_right=1)
        with pytest.raises(ValueError):
            TwoSidedGaussian(sigma_left=1, c_left=2, sigma_right=1, c_right=1)

    @given(st.floats(1e-3, 5.0, **finite), st.floats(1e-3, 5.0, **finite),
           st.floats(-5.0, 5.0, **finite), st.floats(0.0, 5.0, **finite),
           st.floats(-30.0, 30.0, **finite))
    def test_degree_bounded(self, sl, sr, cl, width, x):
        mf = TwoSidedGaussian(sigma_left=sl, c_left=cl,
                              sigma_right=sr, c_right=cl + width)
        assert 0.0 <= mf.degree(x) <= 1.0


def triangle_by_cases(left, peak, right, x):
    """Independent piecewise definition used as the oracle."""
    if x <= left or x >= right:
        return 0.0
    if x < peak:
        return (x - left) / (peak - left)
    if x == peak:
        return 1.0
    return (right - x) / (right - peak)


class TestTriangular:
    def test_peak_midpoint_outside(self):
        mf = Triangular(left=-1, peak=0, right=1)
        assert mf.degree(0.0) == 1.0
        assert mf.degree(0.5) == pytest.approx(0.5)
        assert mf.degree(2.0) == 0.0
        assert mf.degree(-2.0) == 0.0

    @pytest.mark.parametrize("l,p,r", [(0, 0, 1), (0, 1, 1), (1, 0, 2), (0, 0, 0)])
    def test_degenerate_geometry_rejected(self, l, p, r):
        with pytest.raises(ValueError):
            Triangular(left=l, peak=p, right=r)

    def test_matches_piecewise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pts = np.sort(rng.uniform(-5, 5, 3))
            if not pts[0] < pts[1] < pts[2]:
                continue
            mf = Triangular(left=pts[0], peak=pts[1], right=pts[2])
            xs = rng.uniform(-6, 6, 200)
            expect = [triangle_by_cases(*pts, x) for x in xs]
            np.testing.assert_allclose(mf.degree(xs), expect, atol=1e-12)

    @given(st.floats(-10.0, 10.0, **finite))
    def test_degree_bounded(self, x):
        assert 0.0 <= Triangular(left=-2, peak=0.5, right=3).degree(x) <= 1.0


class TestRoundTrip:
    @pytest.mark.parametrize("mf", [
        GeneralizedBell(a=1.5, b=2.0, c=-0.25),
        TwoSidedGaussian(sigma_left=0.4, c_left=-1, sigma_right=0.6, c_right=1),
        Triangular(left=-2, peak=0, right=2),
    ])
    def test_dict_round_trip(self, mf):
        assert mf_from_dict(mf.to_dict()) == mf

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            mf_from_dict({"shape": "trapezoid", "a": 1})


class TestRepair:
    """Each shape's repair of stepped parameters, on a (d, M, K) block."""

    @pytest.mark.parametrize("shape, block, repaired", [
        (GeneralizedBell,
         [[[-0.5, 2.0, 0.1],          # negative width
           [0.4, 0.0, -0.3]],         # zero slope
          [[0.7, 1.5, 0.2],           # already valid
           [1e-9, -1.0, 0.0]]],       # both below the floor
         [[[1e-6, 2.0, 0.1],
           [0.4, 1e-6, -0.3]],
          [[0.7, 1.5, 0.2],
           [1e-6, 1e-6, 0.0]]]),
        (TwoSidedGaussian,
         [[[-0.2, 0.5, 0.3, -0.5],    # crossed, left sigma negative
           [0.4, -0.1, 0.6, 0.2]],    # already valid
          [[0.0, 0.2, -3.0, 0.1],     # crossed, both sigmas clamped
           [0.5, 0.3, -0.5, 0.3]]],   # touching edges stay, sigma clamped
         [[[0.3, -0.5, 1e-6, 0.5],
           [0.4, -0.1, 0.6, 0.2]],
          [[1e-6, 0.1, 1e-6, 0.2],
           [0.5, 0.3, 1e-6, 0.3]]]),
        (Triangular,
         [[[-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]],
         [[[-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]]),
    ])
    def test_repaired_block(self, shape, block, repaired):
        block = np.array(block)
        before = block.copy()
        out = shape.repair(block)
        np.testing.assert_array_equal(out, repaired)
        np.testing.assert_array_equal(block, before)
        # every repaired row builds a valid function
        assert [[mf.params().tolist() for mf in row]
                for row in shape.unstack(out)] == repaired


def bank_1d(degree_at):
    """Single-input bank holding one triangle whose degree at 0 is known."""
    # triangle peaked at 0 with unit half-width: degree(x) = 1 - |x|
    return [[Triangular(left=-1, peak=0, right=1)]], 1.0 - abs(degree_at)


class TestFiringStrengths:
    def test_single_input_single_rule(self):
        bank, expected = bank_1d(0.3)
        rules = [SugenoRule(antecedent=(0,), consequent=(0.0, 0.0))]
        w = firing_strengths(rules, bank, [0.3])
        assert w[0] == pytest.approx(expected)

    def test_product_of_two_inputs(self):
        bank = [[Triangular(left=-1, peak=0, right=1)],
                [Triangular(left=-1, peak=0, right=1)]]
        rules = [SugenoRule(antecedent=(0, 0), consequent=(0.0, 0.0, 0.0))]
        # each degree is 0.5 at |x| = 0.5
        w = firing_strengths(rules, bank, [0.5, -0.5])
        assert w[0] == pytest.approx(0.25)

    def test_zero_degree_annihilates(self):
        bank = [[Triangular(left=-1, peak=0, right=1)],
                [Triangular(left=-1, peak=0, right=1)]]
        rules = [SugenoRule(antecedent=(0, 0), consequent=(0.0, 0.0, 0.0))]
        assert firing_strengths(rules, bank, [5.0, 0.0])[0] == 0.0

    def test_dimension_mismatch_rejected(self):
        bank = [[Triangular(left=-1, peak=0, right=1)]]
        rules = [SugenoRule(antecedent=(0, 0), consequent=(0.0, 0.0, 0.0))]
        with pytest.raises(ValueError):
            firing_strengths(rules, bank, [0.0, 0.0])
        with pytest.raises(ValueError):
            firing_strengths(
                [SugenoRule(antecedent=(3,), consequent=(0.0, 0.0))],
                bank, [0.0])


class TestNormalizeWeights:
    def test_direct_ratio(self):
        w_bar, degenerate = normalize_weights([1.0, 3.0])
        np.testing.assert_allclose(w_bar, [0.25, 0.75])
        assert not degenerate

    def test_single_support(self):
        w_bar, degenerate = normalize_weights([2.0, 0.0])
        np.testing.assert_allclose(w_bar, [1.0, 0.0])
        assert not degenerate

    def test_all_zero_falls_back_to_uniform(self):
        w_bar, degenerate = normalize_weights([0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(w_bar, 0.25)
        assert degenerate

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights([0.5, -0.1])

    @given(st.lists(st.floats(0.0, 1.0, **finite), min_size=1, max_size=40))
    def test_sums_to_one_whenever_supported(self, w):
        w_bar, degenerate = normalize_weights(w)
        if not degenerate:
            assert abs(w_bar.sum() - 1.0) < 1e-12


def toy_system():
    bank = [[Triangular(left=-2, peak=-1, right=1),
             Triangular(left=-1, peak=1, right=2)]]
    rules = [SugenoRule(antecedent=(0,), consequent=(1.0, 0.0)),
             SugenoRule(antecedent=(1,), consequent=(3.0, 0.0))]
    return rules, bank


class TestSugenoInfer:
    def test_equal_constant_consequents(self):
        rules, bank = toy_system()
        rules = [SugenoRule(antecedent=r.antecedent, consequent=(3.0, 0.0))
                 for r in rules]
        for x in (-1.0, 0.0, 0.7):
            y, _ = sugeno_infer(rules, bank, [x])
            assert y == pytest.approx(3.0)

    def test_single_rule_passthrough(self):
        bank = [[Triangular(left=-1, peak=0, right=1)]]
        rules = [SugenoRule(antecedent=(0,), consequent=(2.0, 0.5))]
        y, w_bar = sugeno_infer(rules, bank, [0.4])
        assert y == pytest.approx(rules[0].output([0.4]))
        np.testing.assert_allclose(w_bar, [1.0])

    def test_equal_firing_midpoint(self):
        rules, bank = toy_system()
        # x = 0 sits symmetrically between the two peaks: degrees 0.5, 0.5
        y, w_bar = sugeno_infer(rules, bank, [0.0])
        np.testing.assert_allclose(w_bar, [0.5, 0.5])
        assert y == pytest.approx(2.0)

    @settings(deadline=None)
    @given(st.floats(-3.0, 3.0, **finite), st.floats(-3.0, 3.0, **finite))
    def test_output_bounded_by_consequents(self, x, shift):
        rules, bank = toy_system()
        rules = [SugenoRule(antecedent=(0,), consequent=(1.0 + shift, 0.3)),
                 SugenoRule(antecedent=(1,), consequent=(3.0, -0.2))]
        y, _ = sugeno_infer(rules, bank, [x])
        outputs = [r.output([x]) for r in rules]
        assert min(outputs) - 1e-12 <= y <= max(outputs) + 1e-12


class TestSugenoRule:
    def test_output_is_affine(self):
        rule = SugenoRule(antecedent=(0, 0), consequent=(1.0, 2.0, -1.0))
        assert rule.output([0.5, 1.0]) == pytest.approx(1.0 + 1.0 - 1.0)

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValueError):
            SugenoRule(antecedent=(0, 1), consequent=(1.0, 2.0))
