import numpy as np
import pytest

from toepquant import (
    Correction,
    Dither,
    QuantizerConfig,
    Ruler,
    SampleBatch,
    SymToeplitz,
    banded_estimate,
    full_ruler,
    gen_banded,
    gen_toeplitz_vandermonde,
    observe,
    op_norm,
    quantized_estimate,
    relative_error,
    ruler_estimate,
    sample_gaussian,
    threshold_estimate,
    toep,
)
from toepquant.exceptions import InvalidArgumentError, NumericError

from reference import avg


def brute_force_estimate(rows, indices, d, delta, correction):
    """Triple-loop reference for the bias-corrected pair-product estimator."""
    rows = np.asarray(rows)
    indices = list(indices)
    n = rows.shape[0]
    a = []
    for s in range(d):
        pairs = [
            (u, v)
            for u in range(len(indices))
            for v in range(len(indices))
            if abs(indices[u] - indices[v]) == s
        ]
        total = 0.0
        for l in range(n):
            for u, v in pairs:
                total += rows[l][u] * rows[l][v]
        a.append(total / (n * len(pairs)))
    if correction is Correction.TRIANGULAR_QUARTER:
        a[0] -= delta**2 / 4
    elif correction is Correction.UNIFORM_SIXTH:
        a[0] -= delta**2 / 6
    return np.array(a)


def raw_batch(rows, d, indices=None):
    ruler = full_ruler(d) if indices is None else Ruler(d, np.asarray(indices))
    return SampleBatch(np.asarray(rows, dtype=float), ruler, 0.0)


class TestDotA:
    """The averaged pair product at distance s, read as ``ruler_estimate(batch).a[s]``."""

    def test_single_value(self):
        batch = raw_batch([[3.0]], 1)
        assert ruler_estimate(batch).a[0] == 9.0

    def test_hand_sum(self):
        # ordered pairs at distance 1: (0,1) and (1,0) for both samples
        batch = raw_batch([[1.0, 2.0], [3.0, 4.0]], 2)
        assert ruler_estimate(batch).a[1] == pytest.approx((1 * 2 + 2 * 1 + 3 * 4 + 4 * 3) / 4)

    def test_unique_pair_is_plain_mean(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((7, 3))
        batch = raw_batch(rows, 3)
        want = np.mean(rows[:, 0] * rows[:, 2])
        assert ruler_estimate(batch).a[2] == pytest.approx(want, rel=1e-14)


class TestRulerEstimate:
    def test_full_ruler_equals_diagonal_averaging(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 6))
        est = ruler_estimate(raw_batch(x, 6))
        want = avg(x.T @ x / 50).a
        np.testing.assert_allclose(est.a, want, rtol=1e-12, atol=1e-14)

    def test_zero_data(self):
        est = ruler_estimate(raw_batch(np.zeros((4, 3)), 3))
        np.testing.assert_array_equal(est.a, np.zeros(3))

    def test_rejects_quantized_batch(self):
        ruler = full_ruler(2)
        batch = SampleBatch(np.full((2, 2), 0.5), ruler, 1.0)
        with pytest.raises(InvalidArgumentError, match=r"ruler_estimate expects an unquantized batch \(delta == 0\)"):
            ruler_estimate(batch)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(3)
        t = toep([2.0, 1.0, 0.5])
        trials, n = 300, 100
        hats = []
        for _ in range(trials):
            x = sample_gaussian(t, n, rng)
            hats.append(ruler_estimate(raw_batch(x, 3)).a)
        hats = np.array(hats)
        se = hats.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(hats.mean(axis=0) - t.a) <= 5 * se)


class TestQuantizedEstimate:
    def test_zero_delta_matches_ruler_estimate(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 4))
        batch = raw_batch(x, 4)
        plain = ruler_estimate(batch).a
        for corr in Correction:
            np.testing.assert_array_equal(quantized_estimate(batch, corr).a, plain)

    def test_scalar_unbiased(self):
        rng = np.random.default_rng(5)
        sigma2, delta, trials = 1.7, 2.0, 2000
        ruler = full_ruler(1)
        cfg = QuantizerConfig(delta, Dither.TRIANGULAR)
        hats = []
        for _ in range(trials):
            x = rng.standard_normal((25, 1)) * np.sqrt(sigma2)
            batch = observe(x, ruler, cfg, rng)
            hats.append(quantized_estimate(batch, Correction.TRIANGULAR_QUARTER).a[0])
        hats = np.array(hats)
        se = hats.std(ddof=1) / np.sqrt(trials)
        assert abs(hats.mean() - sigma2) <= 5 * se

    def test_uncorrected_bias_is_quarter_delta_sq(self):
        rng = np.random.default_rng(6)
        sigma2, delta, trials = 1.0, 2.0, 2000
        ruler = full_ruler(1)
        cfg = QuantizerConfig(delta, Dither.TRIANGULAR)
        hats = []
        for _ in range(trials):
            x = rng.standard_normal((25, 1))
            batch = observe(x, ruler, cfg, rng)
            hats.append(quantized_estimate(batch, Correction.NONE).a[0])
        hats = np.array(hats)
        se = hats.std(ddof=1) / np.sqrt(trials)
        assert abs(hats.mean() - (sigma2 + delta**2 / 4)) <= 5 * se

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            subset = sorted(
                set(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist())
            )
            from toepquant import is_ruler

            indices = subset if is_ruler(subset, d)[0] else list(range(d))
            delta = float(rng.choice([0.0, 0.5, 2.0]))
            dither = Dither(rng.choice([d.value for d in Dither]))
            corr = Correction(rng.choice([c.value for c in Correction]))
            x = rng.standard_normal((n, d)) * 2
            batch = observe(x, Ruler(d, np.array(indices)), QuantizerConfig(delta, dither), rng)
            got = quantized_estimate(batch, corr).a
            want = brute_force_estimate(batch.rows, indices, d, delta, corr)
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-12)

    def test_correction_only_touches_diagonal(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 4))
        batch = observe(x, full_ruler(4), QuantizerConfig(2.0, Dither.TRIANGULAR), rng)
        results = {c: quantized_estimate(batch, c).a for c in Correction}
        for c in (Correction.TRIANGULAR_QUARTER, Correction.UNIFORM_SIXTH):
            np.testing.assert_array_equal(results[c][1:], results[Correction.NONE][1:])
            assert results[c][0] != results[Correction.NONE][0]

    def test_deterministic_given_batch(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10, 3))
        batch = raw_batch(x, 3)
        a1 = quantized_estimate(batch, Correction.NONE).a
        a2 = quantized_estimate(batch, Correction.NONE).a
        np.testing.assert_array_equal(a1, a2)


class TestThresholdAndBanded:
    def test_threshold_zero_is_identity(self):
        est = ruler_estimate(raw_batch(np.random.default_rng(10).standard_normal((5, 3)), 3))
        np.testing.assert_array_equal(threshold_estimate(est, 0.0).a, est.a)

    def test_threshold_values(self):
        est = toep([3.0, 0.5, 1.5])
        np.testing.assert_array_equal(threshold_estimate(est, 1.0).a, [3.0, 0.0, 1.5])

    def test_threshold_keeps_boundary(self):
        est = toep([1.0, -1.0])
        np.testing.assert_array_equal(threshold_estimate(est, 1.0).a, [1.0, -1.0])

    def test_threshold_idempotent(self):
        rng = np.random.default_rng(11)
        est = ruler_estimate(raw_batch(rng.standard_normal((5, 4)), 4))
        once = threshold_estimate(est, 0.2)
        twice = threshold_estimate(once, 0.2)
        np.testing.assert_array_equal(once.a, twice.a)

    def test_threshold_negative_rejected(self):
        est = ruler_estimate(raw_batch(np.zeros((1, 2)), 2))
        with pytest.raises(InvalidArgumentError):
            threshold_estimate(est, -0.1)

    def test_banded_full_and_diagonal(self):
        rng = np.random.default_rng(12)
        est = ruler_estimate(raw_batch(rng.standard_normal((5, 4)), 4))
        np.testing.assert_array_equal(banded_estimate(est, 4).a, est.a)
        diag = banded_estimate(est, 1)
        assert diag.a[0] == est.a[0] and not diag.a[1:].any()

    def test_banded_idempotent_and_range(self):
        rng = np.random.default_rng(13)
        est = ruler_estimate(raw_batch(rng.standard_normal((5, 4)), 4))
        once = banded_estimate(est, 2)
        np.testing.assert_array_equal(once.a, banded_estimate(once, 2).a)
        with pytest.raises(InvalidArgumentError):
            banded_estimate(est, 5)

    def test_banded_beats_plain_on_banded_truth(self):
        rng = np.random.default_rng(14)
        wins = 0
        trials = 500
        for _ in range(trials):
            t = gen_banded(12, 3, rng)
            x = sample_gaussian(t, 60, rng)
            est = ruler_estimate(raw_batch(x, 12))
            if op_norm(banded_estimate(est, 3) - t) <= op_norm(est - t):
                wins += 1
        assert wins >= 0.9 * trials


class TestEstimateIsItsMatrix:
    """Every estimator returns the estimated ``SymToeplitz``, read-only, and leaves its input as it was."""

    def estimates(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((20, 5))
        plain = ruler_estimate(raw_batch(x, 5))
        quantized = quantized_estimate(
            observe(x, full_ruler(5), QuantizerConfig(1.0, Dither.TRIANGULAR), rng), Correction.TRIANGULAR_QUARTER
        )
        return plain, quantized, threshold_estimate(plain, 0.1), banded_estimate(plain, 2)

    def test_every_estimator_returns_a_read_only_toeplitz_matrix(self):
        for est in self.estimates():
            assert isinstance(est, SymToeplitz)
            assert est.d == 5
            assert not est.a.flags.writeable
            with pytest.raises(ValueError):
                est.a[0] = 0.0

    def test_post_processing_leaves_its_input_unchanged(self):
        est = toep([3.0, 0.5, -1.5, 0.05])
        before = est.a.copy()
        assert threshold_estimate(est, 1.0) is not est
        assert banded_estimate(est, 2) is not est
        np.testing.assert_array_equal(est.a, before)


class TestRelativeError:
    def test_exact_estimate(self):
        t = toep([2.0, 1.0])
        est = toep(t.a)
        for norm in ("op", "fro", "max"):
            assert relative_error(t, est, norm) == 0.0

    def test_identity_doubled(self):
        t = toep([1.0, 0.0])
        double = toep([2.0, 0.0])
        for norm in ("op", "fro", "max"):
            assert relative_error(t, double, norm) == pytest.approx(1.0)

    def test_diagonal_shift(self):
        t = toep([2.0, 1.0, 0.0])
        eps = 0.01
        shifted = toep(t.a + np.array([eps, 0.0, 0.0]))
        assert relative_error(t, shifted, "op") == pytest.approx(eps / op_norm(t))

    def test_fro_of_a_matrix_whose_squares_underflow(self):
        assert relative_error(toep([1e-200, 0.0]), toep([2e-200, 0.0]), "fro") == 1.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(NumericError, match="relative error undefined for a zero matrix"):
            relative_error(toep([0.0, 0.0]), toep([1.0, 0.0]))

    def test_unknown_norm(self):
        with pytest.raises(InvalidArgumentError):
            relative_error(toep([1.0]), toep([1.0]), "spectral")

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            relative_error(toep([1.0, 0.0]), toep([1.0]))

    def test_cached_norm_matches_a_fresh_one_bit_for_bit(self):
        rng = np.random.default_rng(31)
        t = gen_toeplitz_vandermonde(24, 5, rng)
        ests = [toep(t.a + 0.1 * rng.standard_normal(24)) for _ in range(3)]
        fresh = [relative_error(toep(t.a), est) for est in ests]
        sample_gaussian(t, 10, rng)  # t is now factored and ...
        relative_error(t, ests[0])  # ... its norm is cached
        for est, first in zip(ests, fresh):
            want = op_norm(est - t) / op_norm(t)
            assert first == want
            assert relative_error(t, est) == want

    def test_truth_norm_computed_once_through_the_module_binding(self, monkeypatch):
        import toepquant.estimators as estimators

        seen = []
        norm = estimators.op_norm

        def counting(m):
            seen.append(m.a.copy())
            return norm(m)

        monkeypatch.setattr(estimators, "op_norm", counting)
        t = toep([2.0, 1.0, 0.0])
        ests = [toep([1.0, 0.5, 0.0]), toep([1.5, 0.5, 0.1])]
        for est in ests:
            relative_error(t, est)
        # the denominator on the first call only, and one numerator per call
        want = [t.a, ests[0].a - t.a, ests[1].a - t.a]
        assert len(seen) == 3
        for got, w in zip(seen, want):
            np.testing.assert_array_equal(got, w)
