import math

import numpy as np
import pytest

from toepquant import (
    big_k,
    evaluate_bounds,
    gen_toeplitz_vandermonde,
    kappa,
    lambda_diag,
    op_norm,
    principal_submatrix,
    ruler_alpha,
    script_k,
    script_l,
    script_l_prime,
    threshold_zeta,
    toep,
    toeplitz_from_modes,
    vsc_predict,
)
from toepquant.exceptions import InvalidArgumentError


class TestBigK:
    def test_values(self):
        assert big_k(1.0, 0.0) == 2.0
        assert big_k(1.0, 2.0) == 18.0
        assert big_k(0.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            big_k(-1.0, 0.0)


class TestKappa:
    def test_values(self):
        assert kappa(1.0, 1.0, 0.0, 1.0) == 1.0
        assert kappa(1.0, 1.0, 1.0, 2.0) == pytest.approx(0.25)

    def test_monotone_in_noise_floor(self):
        # doubling ||T||^2 + delta^4 at fixed eps, phi halves the rate
        base = kappa(0.5, 1.0, 0.0, 3.0)
        noisier = kappa(0.5, 1.0, 1.0, 3.0)  # 1 + 1 doubles the denominator
        assert noisier == pytest.approx(base / 2)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            kappa(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            kappa(0.5, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            kappa(0.5, 1.0, 0.0, 0.0)


class TestCoefficients:
    def test_script_l_unquantized_is_one(self):
        for opn in (0.5, 1.0, 7.0):
            assert script_l(opn, 0.0) == 1.0

    def test_script_l_prime_values(self):
        assert script_l_prime(1.0, 1.0, 4, 16) == pytest.approx(2.0)  # k^2 = d
        assert script_l_prime(1.0, 0.0, 2, 16) == pytest.approx(4 / 16)

    def test_script_l_at_least_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert script_l(float(rng.uniform(0.1, 5)), float(rng.uniform(0, 5))) >= 1.0

    def test_range_checks(self):
        with pytest.raises(InvalidArgumentError):
            script_l(0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            script_l_prime(1.0, 1.0, 0, 16)


class TestVscPredict:
    def test_full_ruler_formula(self):
        d, eps, prob = 64, 0.2, 0.05
        want = math.log(d / (eps * prob)) * max(1.0, math.log(d)) / eps**2
        assert vsc_predict(d, eps, prob, 1.0, 1.0) == pytest.approx(want)

    def test_sparse_ruler_formula(self):
        d, eps, prob, lv = 64, 0.2, 0.05, 3.0
        want = lv * math.log(d / (eps * prob)) * d / eps**2
        assert vsc_predict(d, eps, prob, 0.5, lv) == pytest.approx(want)

    def test_halving_eps_at_least_quadruples(self):
        base = vsc_predict(32, 0.2, 0.05, 0.5, 1.0)
        finer = vsc_predict(32, 0.1, 0.05, 0.5, 1.0)
        assert 4.0 <= finer / base <= 4.6

    def test_sparse_to_full_ratio_grows(self):
        ratios = []
        for d in (16, 64, 256, 1024):
            ratios.append(
                vsc_predict(d, 0.1, 0.05, 0.5, 1.0) / vsc_predict(d, 0.1, 0.05, 1.0, 1.0)
            )
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            vsc_predict(16, 1.0, 0.05, 0.5, 1.0)


class TestThresholdZeta:
    def test_constructed_plugin(self):
        # log|R| = 0 and 4 p log d = 1 make the square root equal one
        assert threshold_zeta(2.0, 1, math.e**0.25, 1.0, 1, 1.0) == pytest.approx(2.0)

    def test_inverse_sqrt_n(self):
        z1 = threshold_zeta(3.0, 7, 16, 2.0, 100, 0.5)
        z4 = threshold_zeta(3.0, 7, 16, 2.0, 400, 0.5)
        assert z1 == pytest.approx(2 * z4)

    def test_scales_with_c(self):
        base = script_k(3.0, 7, 16, 2.0, 100)
        assert threshold_zeta(3.0, 7, 16, 2.0, 100, 0.25) == pytest.approx(0.25 * base)

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            threshold_zeta(1.0, 7, 16, 0.5, 100)
        with pytest.raises(InvalidArgumentError):
            threshold_zeta(1.0, 7, 16, 2.0, 0)
        with pytest.raises(InvalidArgumentError):
            threshold_zeta(1.0, 7, 16, 2.0, 100, 0.0)


class TestLambdaDiag:
    def test_exact_rank_truncation_vanishes(self):
        rng = np.random.default_rng(2)
        t = toeplitz_from_modes(rng.uniform(0, 1, 2), np.abs(rng.standard_normal(2)), 16)
        check = lambda_diag(t, 4, 0.5)  # rank is 4, so T_4 == T
        assert check.lambda_value <= 1e-12
        assert check.submatrix_norm_sq <= check.bound_value

    def test_identity_case(self):
        d = 16
        t = toep(np.eye(1, d)[0])
        check = lambda_diag(t, d, 0.5)
        assert check.submatrix_norm_sq == pytest.approx(1.0)
        assert check.bound_value >= 32.0 * d * d / d  # first term alone
        assert check.submatrix_norm_sq <= check.bound_value

    def test_holds_on_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            kf = int(rng.integers(1, 9))
            t = gen_toeplitz_vandermonde(16, kf, rng)
            for alpha in (0.5, 0.75):
                check = lambda_diag(t, min(16, 2 * kf), alpha)
                assert check.submatrix_norm_sq <= check.bound_value

    def test_submatrix_norm_matches_direct(self):
        rng = np.random.default_rng(4)
        t = gen_toeplitz_vandermonde(16, 3, rng)
        check = lambda_diag(t, 6, 0.5)
        direct = op_norm(principal_submatrix(t, ruler_alpha(16, 0.5).indices)) ** 2
        assert check.submatrix_norm_sq == pytest.approx(direct)

    def test_submatrix_read_from_the_generating_vector_is_exact(self):
        # the submatrix of T_R is read as a[|R_i - R_j|]: the same floats as the dense matrix's
        t = gen_toeplitz_vandermonde(64, 5, np.random.default_rng(5))
        idx = ruler_alpha(64, 0.5).indices
        dense = op_norm(t.dense()[np.ix_(idx, idx)]) ** 2
        assert lambda_diag(t, 10, 0.5).submatrix_norm_sq == dense


class TestEvaluateBounds:
    def test_report_fields(self):
        rep = evaluate_bounds(16, 0.5, 2.0, 0.1, 0.05, op_norm_t=3.0, k=4)
        assert rep.ruler_size == 7
        assert rep.big_k == big_k(3.0, 2.0)
        assert rep.script_l >= 1.0
        assert rep.script_l_prime == pytest.approx(script_l_prime(3.0, 2.0, 4, 16))
        assert rep.lambda_low_rank == pytest.approx(1.0)
        assert rep.zeta == pytest.approx(rep.c * rep.script_k)
        assert rep.up_to_constant
        for v in (rep.phi, rep.kappa, rep.vsc_pred, rep.zeta, rep.script_k):
            assert v >= 0.0

    def test_unquantized_coefficient_is_one(self):
        rep = evaluate_bounds(16, 1.0, 0.0, 0.1, 0.05)
        assert rep.script_l == 1.0

    def test_low_rank_switches_prediction(self):
        general = evaluate_bounds(64, 0.5, 0.0, 0.1, 0.05)
        lowrank = evaluate_bounds(64, 0.5, 0.0, 0.1, 0.05, k=2)
        # lambda = 4/64 < 1 shrinks the predicted sample count
        assert lowrank.vsc_pred < general.vsc_pred
