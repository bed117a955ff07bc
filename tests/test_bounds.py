import math

import numpy as np
import pytest

from toepquant import (
    big_k,
    evaluate_bounds,
    gen_toeplitz_vandermonde,
    kappa,
    lambda_diag,
    ruler_alpha,
    script_k,
    script_l,
    script_l_prime,
    threshold_zeta,
    toep,
    toeplitz_from_modes,
    vsc_predict,
)
from toepquant.exceptions import InvalidArgumentError, NumericError


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        for call in (
            lambda: big_k(bad, 0.0), lambda: big_k(1.0, bad), lambda: kappa(0.5, bad, 0.0, 1.0),
            lambda: kappa(0.5, 1.0, 0.0, bad), lambda: script_l(bad, 0.0), lambda: script_l_prime(bad, 0.0, 1, 4),
        ):
            with pytest.raises(InvalidArgumentError):
                call()

    @pytest.mark.parametrize("op_norm_t", [1e200, 1e-200])
    def test_norm_whose_square_is_no_positive_float_rejected(self, op_norm_t):
        # ||T||^2 overflows to inf at 1e200 and underflows to zero at 1e-200
        for call in (
            lambda: kappa(0.5, op_norm_t, 0.0, 1.0), lambda: script_l(op_norm_t, 0.0),
            lambda: script_l_prime(op_norm_t, 0.0, 1, 4),
        ):
            with pytest.raises(InvalidArgumentError, match="must be finite and positive"):
                call()


    @pytest.mark.parametrize(
        "call, message",
        [
            # ||T||^2 = 1e-320 is a positive float, but delta^4 / 1e-320 is not
            (lambda: script_l(1e-160, 1.0), "bounds not finite for this configuration: script_l"),
            (lambda: script_l_prime(1e-160, 1.0, 1, 16), "bounds not finite for this configuration: script_l_prime"),
            (lambda: kappa(0.1, 1e-160, 1.0, 6.3), "bounds not finite for this configuration: script_l"),
            (lambda: script_l(1.0, 1e78), "delta^4 must be finite, got delta = 1e+78"),
            # script_l = 1.4641e308 is finite, but script_l * phi is not: kappa was 0.0
            (lambda: kappa(0.1, 1.0, 1.1e77, 6.3), "bounds not finite for this configuration: kappa"),
            # eps^2 underflows to zero: kappa was 0.0
            (lambda: kappa(1e-200, 1.0, 0.0, 1.0), "bounds not finite for this configuration: kappa"),
            # eps^2 underflows to zero: a ZeroDivisionError
            (lambda: vsc_predict(16, 1e-200, 0.05, 0.5, 1.0), "bounds not finite for this configuration: vsc_pred"),
            # eps * delta_prob underflows to zero: a ZeroDivisionError
            (lambda: vsc_predict(16, 1e-170, 1e-170, 0.5, 1.0), "bounds not finite for this configuration: vsc_pred"),
        ],
        ids=[
            "script_l", "script_l_prime", "kappa", "delta^4",
            "kappa-product-overflows", "kappa-eps-underflows", "vsc-eps-underflows", "vsc-eps-delta-underflows",
        ],
    )
    def test_penalty_that_is_no_finite_float_rejected(self, call, message):
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call, name",
        [
            # finite inputs whose constant overflows: each was returned as inf
            (lambda: big_k(1e308, 0.0), "big_k"),
            (lambda: big_k(1.0, 1e154), "big_k"),
            (lambda: script_k(1.0, 7, 16, 1e308, 1000), "script_k"),
            (lambda: threshold_zeta(2e100, 7, 16, 2.0, 1000, 1e300), "zeta"),
        ],
        ids=["big_k-norm", "big_k-delta", "script_k", "zeta"],
    )
    def test_constant_that_overflows_rejected_where_computed(self, call, name):
        with pytest.raises(InvalidArgumentError) as info:
            call()
        assert str(info.value) == f"bounds not finite for this configuration: {name}"

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
        for d in (1, 0):
            with pytest.raises(InvalidArgumentError, match=f"dimension must be at least 2, got {d}"):
                vsc_predict(d, 0.1, 0.05, 0.5, 1.0)


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
        for ruler_size, d in ((0, 16), (7, 0.5), (-1, 16)):
            with pytest.raises(InvalidArgumentError, match="ruler_size and d must be positive"):
                script_k(1.0, ruler_size, d, 2.0, 100)


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

    def test_dimension_one(self):
        # ruler_alpha(1, alpha) is {0}; T - T_1 vanishes, so lambda is zero
        assert tuple(lambda_diag(toep(np.array([2.0])), 1, 0.5)) == (4.0, 128.0, 0.0)

    def test_submatrix_norm_matches_direct(self):
        rng = np.random.default_rng(4)
        t = gen_toeplitz_vandermonde(16, 3, rng)
        check = lambda_diag(t, 6, 0.5)
        idx = ruler_alpha(16, 0.5).indices
        direct = float(np.abs(np.linalg.eigvalsh(t.dense()[np.ix_(idx, idx)])).max()) ** 2
        assert check.submatrix_norm_sq == pytest.approx(direct)

    def test_submatrix_read_from_the_generating_vector_is_exact(self):
        # the submatrix of T_R is read as a[|R_i - R_j|]: the same floats as the dense matrix's
        t = gen_toeplitz_vandermonde(64, 5, np.random.default_rng(5))
        idx = ruler_alpha(64, 0.5).indices
        dense = float(np.abs(np.linalg.eigvalsh(t.dense()[np.ix_(idx, idx)])).max()) ** 2
        assert lambda_diag(t, 10, 0.5).submatrix_norm_sq == dense

    @pytest.mark.parametrize("k", [0, -1, 17])
    def test_rank_outside_the_dimension_rejected(self, k):
        with pytest.raises(InvalidArgumentError, match=rf"k must lie in \[1, 16\], got {k}"):
            lambda_diag(toep(np.eye(1, 16)[0]), k, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("s", [0, 5, 15])
    def test_non_finite_matrix_is_a_numeric_error(self, bad, s):
        # checked before either eigenvalue call, which would fail to converge instead
        a = np.ones(16)
        a[s] = bad
        with pytest.raises(NumericError, match="non-finite"):
            lambda_diag(toep(a), 4, 0.5)

    @pytest.mark.parametrize("d", [2, 7, 16, 33])
    def test_matches_an_explicit_truncation(self, d):
        # T_k keeps the k eigenpairs of T of largest modulus; T may be indefinite
        rng = np.random.default_rng(d)
        for _ in range(5):
            t = toep(rng.standard_normal(d) * rng.uniform(0.1, 10))
            dense = t.dense()
            w, u = np.linalg.eigh(dense)
            order = np.argsort(np.abs(w))[::-1]
            norm_sq = float(np.abs(w).max()) ** 2
            for k in range(1, d + 1):
                keep = order[:k]
                resid = dense - (u[:, keep] * w[keep]) @ u[:, keep].T
                for alpha in (0.5, 0.75, 1.0):
                    lam = min(np.linalg.norm(resid, 2) ** 2, 2.0 / d ** (1.0 - alpha) * np.linalg.norm(resid) ** 2)
                    scale = 32.0 * k * k / d ** (2.0 - 2.0 * alpha)
                    check = lambda_diag(t, k, alpha)
                    assert abs(check.lambda_value - lam) <= 1e-12 * norm_sq
                    # the first term scales ||T||^2, and its rounding with it
                    assert abs(check.bound_value - (scale * norm_sq + 8.0 * lam)) <= 1e-12 * (1.0 + scale) * norm_sq

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

    def test_kappa_survives_an_overflowing_product(self):
        # (||T||^2 + delta^4) * phi overflows at ||T|| = 1e154, but script_l = 1
        rep = evaluate_bounds(16, 0.5, 0.0, 0.1, 0.05, op_norm_t=1e154)
        assert rep.kappa == 0.1 * 0.1 / rep.phi

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_dimension_below_two_rejected_first(self, d):
        # ruler_alpha takes d = 1, and phi would be the empty sum 0.0; an alpha out of range is not reported first
        with pytest.raises(InvalidArgumentError, match=f"^dimension must be at least 2, got {d}$"):
            evaluate_bounds(d, 7.0, 0.0, 0.1, 0.05)

    def test_non_finite_constant_rejected(self):
        # ||T||^2 = 1e-320 is a positive float, but 1 / 1e-320 is not
        with pytest.raises(InvalidArgumentError, match="^bounds not finite for this configuration: script_l$"):
            evaluate_bounds(16, 0.5, 1.0, 0.1, 0.05, op_norm_t=1e-160)
