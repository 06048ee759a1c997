"""Closed-form model checks: frozen values, identities, and domains."""

import math

import pytest

from randev.model import (
    ModelPrediction,
    binary_entropy,
    deadtime_a1,
    deviation_quadratic,
    deviation_sigma,
    markov_prediction,
    mi_exact_unbiased,
    n_max,
    predict_source,
)
from randev.sources import ParameterError, SourceConfig

LN2 = math.log(2.0)

# frozen by direct evaluation, checked against independent formulas below
H_055 = 0.9927744539878083
MI_EXACT_01 = 0.007225546012191789
MI_EXACT_05 = 0.18872187554086717
MI_PARA_01 = 0.007213475204444818
MI_PARA_05 = 0.18033688011112042
DEX_01_01 = 0.014442257988428353
DAP_01_01 = 0.014426950408889637
DEX_002_004 = 0.001442998560652664
SIGMA_002_004_1E7 = 2.0404935027897102e-05
NMAX_1E_18 = 2.8853900817779267e18


def admissible_grid(step_num, step_den):
    """Integer-ratio grid of valid (b, a1) pairs, origin included."""
    pts = []
    for bi in range(-step_num, step_num + 1):
        for ai in range(-step_num, step_num + 1):
            b = bi / step_den
            a1 = ai / step_den
            if abs(b) >= 1.0 or a1 > 1.0:
                continue
            if a1 < -(1.0 - abs(b)) / (1.0 + abs(b)):
                continue
            pts.append((b, a1))
    return pts


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_deterministic_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        assert binary_entropy(0.55) == pytest.approx(H_055, rel=1e-12)

    def test_symmetry(self):
        for i in range(1, 50):
            q = i / 100.0
            assert binary_entropy(q) == pytest.approx(
                binary_entropy(1.0 - q), rel=1e-13
            )

    @pytest.mark.parametrize("q", [-0.1, 1.0001, 2.0, float("nan")])
    def test_domain(self, q):
        with pytest.raises(ParameterError):
            binary_entropy(q)


class TestDeadtimeA1:
    def test_zero_dead_time(self):
        assert deadtime_a1(1000.0, 0.0) == 0.0

    def test_reroute_value(self):
        # -x/(1 + x) at x = tau_d/tau = 0.04
        assert deadtime_a1(1000.0, 40.0) == pytest.approx(-0.04 / 1.04, rel=1e-13)
        assert deadtime_a1(1000.0, 40.0) == pytest.approx(-0.038462, abs=5e-7)

    def test_loss_value(self):
        # -x/(2 + x) at x = 0.04
        assert deadtime_a1(1000.0, 40.0, "loss") == pytest.approx(-0.04 / 2.04, rel=1e-13)
        assert deadtime_a1(1000.0, 40.0, "loss") == pytest.approx(-0.019608, abs=5e-7)

    def test_long_dead_time_limit(self):
        assert deadtime_a1(1.0, 1e6) == pytest.approx(-1e6 / (1.0 + 1e6), rel=1e-13)
        assert deadtime_a1(1.0, 1e6, "loss") == pytest.approx(-1e6 / (2.0 + 1e6), rel=1e-13)
        # an x = tau_d/tau past the float range
        assert deadtime_a1(1e-310, 1.0) == deadtime_a1(1e-310, 1.0, "loss") == -1.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            deadtime_a1(0.0, 1.0)
        with pytest.raises(ParameterError):
            deadtime_a1(-2.0, 1.0)
        with pytest.raises(ParameterError):
            deadtime_a1(1.0, -0.5)
        with pytest.raises(ParameterError):
            deadtime_a1(1.0, 1.0, "bounce")
        for tau, tau_d in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                           (1.0, math.inf), (-math.inf, 1.0), (math.nan, math.nan)):
            with pytest.raises(ParameterError):
                deadtime_a1(tau, tau_d)


class TestMutualInfoCurves:
    def test_exact_at_zero(self):
        assert mi_exact_unbiased(0.0) == 0.0

    def test_exact_at_extremes(self):
        assert mi_exact_unbiased(1.0) == 1.0
        assert mi_exact_unbiased(-1.0) == 1.0

    def test_exact_frozen_values(self):
        assert mi_exact_unbiased(0.1) == pytest.approx(MI_EXACT_01, rel=1e-12)
        assert mi_exact_unbiased(0.5) == pytest.approx(MI_EXACT_05, rel=1e-12)

    def test_exact_even_in_a1(self):
        for i in range(0, 100):
            a1 = i / 100.0
            assert mi_exact_unbiased(a1) == pytest.approx(
                mi_exact_unbiased(-a1), rel=1e-13, abs=1e-15
            )

    def test_exact_matches_entropy_complement(self):
        for i in range(-99, 100):
            a1 = i / 100.0
            expect = 1.0 - binary_entropy((1.0 + a1) / 2.0)
            assert mi_exact_unbiased(a1) == pytest.approx(
                expect, rel=1e-12, abs=1e-15
            )

    def test_parabolic_frozen_values(self):
        assert deviation_quadratic(0.0, 0.0) == 0.0
        assert deviation_quadratic(0.0, 0.1) == pytest.approx(MI_PARA_01, rel=1e-12)
        assert deviation_quadratic(0.0, 0.5) == pytest.approx(MI_PARA_05, rel=1e-12)
        assert deviation_quadratic(0.0, 1.0) == pytest.approx(1.0 / (2.0 * LN2), rel=1e-13)

    def test_parabolic_remainder_bound(self):
        # quartic remainder: |exact - parabolic| <= a1**4 for |a1| <= 0.5
        for i in range(-50, 51):
            a1 = i / 100.0
            err = abs(mi_exact_unbiased(a1) - deviation_quadratic(0.0, a1))
            assert err <= a1**4 + 1e-18

    @pytest.mark.parametrize("fn", [mi_exact_unbiased])
    def test_domain(self, fn):
        with pytest.raises(ParameterError):
            fn(1.0001)
        with pytest.raises(ParameterError):
            fn(-1.5)


class TestMarkovPrediction:
    def test_origin_is_perfectly_random(self):
        p = markov_prediction(0.0, 0.0)
        assert p.cond_entropy == 1.0
        assert p.mutual_info == 0.0
        assert p.deviation_exact == 0.0
        assert p.deviation_approx == 0.0

    def test_pure_bias_has_zero_mutual_info(self):
        p = markov_prediction(0.1, 0.0)
        assert p.mutual_info == 0.0
        assert p.cond_entropy == pytest.approx(H_055, rel=1e-12)
        assert p.deviation_exact == pytest.approx(1.0 - H_055, rel=1e-9)

    def test_frozen_mixed_point(self):
        p = markov_prediction(0.1, 0.1)
        assert p.deviation_exact == pytest.approx(DEX_01_01, rel=1e-12)
        assert p.deviation_approx == pytest.approx(DAP_01_01, rel=1e-12)
        rel = abs(p.deviation_approx - p.deviation_exact) / p.deviation_exact
        assert rel == pytest.approx(0.00106, abs=2e-5)

    def test_frozen_small_point(self):
        p = markov_prediction(0.02, 0.04)
        assert p.deviation_exact == pytest.approx(DEX_002_004, rel=1e-12)

    def test_alternation_limit(self):
        p = markov_prediction(0.0, -1.0)
        assert p.cond_entropy == 0.0
        assert p.deviation_exact == 1.0
        assert p.mutual_info == 1.0

    def test_invariants_on_grid(self):
        for b, a1 in admissible_grid(9, 10):
            p = markov_prediction(b, a1)
            assert 0.0 <= p.cond_entropy <= 1.0
            assert p.mutual_info >= 0.0
            assert 0.0 <= p.deviation_exact <= 1.0
            assert p.deviation_exact == 1.0 - p.cond_entropy

    def test_chain_rule_on_grid(self):
        for b, a1 in admissible_grid(9, 10):
            p = markov_prediction(b, a1)
            marginal = binary_entropy((1.0 + b) / 2.0)
            assert abs(marginal - p.cond_entropy - p.mutual_info) <= 1e-12

    def test_agrees_with_direct_route(self):
        # same quantity through two unrelated code paths
        for i in range(-99, 100):
            a1 = i / 100.0
            p = markov_prediction(0.0, a1)
            assert abs(p.mutual_info - mi_exact_unbiased(a1)) <= 1e-12
            assert abs(p.deviation_exact - mi_exact_unbiased(a1)) <= 1e-12

    def test_bias_sign_symmetry(self):
        for b, a1 in admissible_grid(9, 10):
            if b <= 0.0:
                continue
            p_pos = markov_prediction(b, a1)
            p_neg = markov_prediction(-b, a1)
            assert p_pos.deviation_exact == pytest.approx(
                p_neg.deviation_exact, rel=1e-12, abs=1e-15
            )
            assert p_pos.mutual_info == pytest.approx(
                p_neg.mutual_info, rel=1e-12, abs=1e-15
            )

    def test_a1_sign_symmetry_at_zero_bias(self):
        for i in range(1, 100):
            a1 = i / 100.0
            p_pos = markov_prediction(0.0, a1)
            p_neg = markov_prediction(0.0, -a1)
            assert p_pos.deviation_exact == pytest.approx(
                p_neg.deviation_exact, rel=1e-13, abs=1e-15
            )

    def test_quadratic_approx_error_small_on_grid(self):
        # relative error of the quadratic form stays below 0.25%
        # for |b| <= 0.1, |a1| <= 0.1, step 0.02, origin excluded
        worst = 0.0
        for bi in range(-5, 6):
            for ai in range(-5, 6):
                if bi == 0 and ai == 0:
                    continue
                p = markov_prediction(bi * 0.02, ai * 0.02)
                rel = (
                    abs(p.deviation_approx - p.deviation_exact)
                    / p.deviation_exact
                )
                worst = max(worst, rel)
        assert worst <= 0.0025
        # the maximum sits at the mixed-sign corners, not the pure edges
        assert worst == pytest.approx(0.002418992131600917, rel=1e-9)

    def test_rejects_inadmissible_parameters(self):
        with pytest.raises(ParameterError):
            markov_prediction(0.5, -0.9)
        with pytest.raises(ParameterError):
            markov_prediction(1.0, 0.0)


class TestPredictSource:
    def test_ideal_and_xorshift_are_all_zero(self):
        for cfg in (SourceConfig.ideal(), SourceConfig.xorshift64(seed=7)):
            p = predict_source(cfg)
            assert p.bias == 0.0
            assert p.a1 == 0.0
            assert p.mutual_info == 0.0
            assert p.deviation_exact == 0.0
            assert p.deviation_approx == 0.0

    def test_bernoulli_matches_splitter(self):
        pb = predict_source(SourceConfig.bernoulli(0.55))
        ps = predict_source(SourceConfig.splitter(0.1))
        assert pb.bias == pytest.approx(0.1, abs=1e-15)
        assert pb.deviation_exact == pytest.approx(
            ps.deviation_exact, rel=1e-12
        )
        assert pb.mutual_info == 0.0
        assert ps.mutual_info == 0.0
        # a memoryless kind is the chain with equal rows, which is the very
        # chain markov_transition_matrix(b, 0) builds, float for float
        for b, cfg in (
            (0.0, SourceConfig.ideal()),
            (0.0, SourceConfig.xorshift64(seed=7)),
            (0.0, SourceConfig.bernoulli(0.5)),
            (2.0 * 0.55 - 1.0, SourceConfig.bernoulli(0.55)),
            (2.0 * 2**-53 - 1.0, SourceConfig.bernoulli(2**-53)),
            (0.1, SourceConfig.splitter(0.1)),
            (-0.0, SourceConfig.splitter(-0.0)),
            (1.0 - 2**-53, SourceConfig.splitter(1.0 - 2**-53)),
            (-(1.0 - 1e-6), SourceConfig.splitter(-(1.0 - 1e-6))),
        ):
            assert predict_source(cfg) == markov_prediction(b, 0.0)

    def test_bernoulli_is_the_chain_its_source_draws_from(self):
        # rows at p itself, as the source compares its draws with p; the
        # chain of bias 2p - 1 has rows (1 + (2p - 1))/2, an ulp off p here
        for p in (0.1, 0.05, 0.01):
            assert predict_source(SourceConfig.bernoulli(p)).cond_entropy == binary_entropy(p)
        assert predict_source(SourceConfig.bernoulli(0.1)).bias == 2.0 * 0.1 - 1.0

    def test_constant_bernoulli(self):
        p = predict_source(SourceConfig.bernoulli(1.0))
        assert p.bias == 1.0
        assert p.cond_entropy == 0.0
        assert p.deviation_exact == 1.0
        assert p.mutual_info == 0.0
        # the constant-zero stream is the same chain with its rows at 0
        q = predict_source(SourceConfig.bernoulli(0.0))
        assert (q.bias, q.cond_entropy, q.deviation_exact, q.mutual_info) == (-1.0, 0.0, 1.0, 0.0)

    def test_markov_passthrough(self):
        direct = markov_prediction(0.1, 0.1)
        via = predict_source(SourceConfig.markov(0.1, 0.1))
        assert via == direct

    def test_deadtime_uses_mode_formula(self):
        reroute = predict_source(SourceConfig.deadtime(1000.0, 40.0))
        assert reroute.a1 == pytest.approx(deadtime_a1(1000.0, 40.0), rel=1e-13)
        assert reroute.bias == 0.0
        assert reroute.deviation_approx == pytest.approx(
            reroute.a1**2 / (2.0 * LN2), rel=1e-12
        )
        loss = predict_source(
            SourceConfig.deadtime(1000.0, 40.0, mode="loss")
        )
        assert loss.a1 == pytest.approx(-0.04 / 2.04, rel=1e-13)
        assert abs(loss.a1) < abs(reroute.a1)
        # exact at order 1: the balanced chain's deviation 1 - h((1 - a1)/2)
        for p in (reroute, loss):
            assert p.deviation_exact == pytest.approx(
                1.0 - binary_entropy((1.0 - p.a1) / 2.0), rel=1e-12)


class TestDeviationSigma:
    def test_zero_deviation(self):
        assert deviation_sigma(0.0, 10) == 0.0

    def test_frozen_value(self):
        assert deviation_sigma(DEX_002_004, 1e7) == pytest.approx(
            SIGMA_002_004_1E7, rel=1e-12
        )
        assert deviation_sigma(DEX_002_004, 1e7) == pytest.approx(
            2.04e-5, abs=5e-8
        )

    def test_matches_propagated_gradient(self):
        # sigma**2 == (dD/da1 / sqrt(N))**2 + (dD/db / sqrt(N))**2
        # for the quadratic deviation form
        for b, a1, n in [(0.02, 0.04, 1e7), (0.1, -0.1, 1e6), (0.0, 0.3, 12345)]:
            d_approx = (a1 * a1 + b * b) / (2.0 * LN2)
            grad = math.hypot(a1 / LN2, b / LN2) / math.sqrt(n)
            assert deviation_sigma(d_approx, n) == pytest.approx(
                grad, rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(ParameterError):
            deviation_sigma(-1e-9, 10)
        with pytest.raises(ParameterError):
            deviation_sigma(0.1, 0)
        with pytest.raises(ParameterError):
            deviation_sigma(math.nan, 10)
        for deviation in (1.5, math.inf):
            with pytest.raises(ParameterError):
                deviation_sigma(deviation, 10)
        with pytest.raises(ParameterError):
            deviation_sigma(0.1, math.nan)


class TestNMax:
    def test_tiny_deviation(self):
        assert n_max(1e-18) == pytest.approx(NMAX_1E_18, rel=1e-12)
        assert abs(n_max(1e-18) - 2.885e18) / 2.885e18 <= 1e-3

    def test_unit_deviation(self):
        assert n_max(1.0) == pytest.approx(2.8853900817779268, rel=1e-12)

    def test_zero_is_unbounded(self):
        assert n_max(0.0) == math.inf

    def test_monotone_decreasing(self):
        values = [n_max(10.0**-k) for k in range(0, 10)]
        assert values == sorted(values)

    def test_domain(self):
        with pytest.raises(ParameterError):
            n_max(-0.5)
        with pytest.raises(ParameterError):
            n_max(math.nan)
        for deviation in (1.5, math.inf):
            with pytest.raises(ParameterError):
                n_max(deviation)


def test_prediction_is_plain_value():
    p = markov_prediction(0.05, 0.02)
    assert isinstance(p, ModelPrediction)
    assert p == markov_prediction(0.05, 0.02)
    with pytest.raises(Exception):
        p.bias = 0.9
