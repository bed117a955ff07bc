import numpy as np
import pytest

from toepquant import (
    Dither,
    GenSpec,
    QuantizerConfig,
    Ruler,
    SampleBatch,
    SymToeplitz,
    full_ruler,
    gen_banded,
    gen_toeplitz_vandermonde,
    observe,
    principal_submatrix,
    ruler_alpha,
    sample_gaussian,
    toep,
    toeplitz_from_modes,
)
from toepquant._seeding import generator_rng
from toepquant.exceptions import InvalidArgumentError, NumericError
from toepquant.experiments import draw_truth

from reference import avg


def complex_mode_matrix(freqs, powers, d):
    """Independent route: real part of F diag(p) F* with Fourier columns."""
    j = np.arange(d)[:, None]
    f = np.exp(2j * np.pi * j * np.asarray(freqs)[None, :])
    return np.real(f @ np.diag(powers) @ f.conj().T)


def significant_rank(t, rel_tol=1e-8):
    w = np.abs(np.linalg.eigvalsh(t.dense()))
    return int(np.sum(w > rel_tol * w.max()))


class TestModeGenerator:
    def test_single_zero_frequency_is_all_ones(self):
        t = toeplitz_from_modes([0.0], [1.0], 5)
        np.testing.assert_allclose(t.dense(), np.ones((5, 5)), atol=1e-12)
        assert significant_rank(t) == 1

    def test_matches_complex_construction(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            d = int(rng.integers(2, 33))
            k = int(rng.integers(1, min(d, 6) + 1))
            freqs = rng.uniform(0, 1, k)
            powers = np.abs(rng.standard_normal(k))
            t = toeplitz_from_modes(freqs, powers, d)
            np.testing.assert_allclose(
                t.dense(), complex_mode_matrix(freqs, powers, d), atol=1e-10
            )

    def test_generic_single_mode_rank_two(self):
        rng = np.random.default_rng(13)
        t = gen_toeplitz_vandermonde(8, 1, rng)
        assert significant_rank(t) == 2

    def test_full_rank_case(self):
        # full rank holds generically; this seed draws well-separated modes
        rng = np.random.default_rng(21)
        t = gen_toeplitz_vandermonde(16, 8, rng)
        assert significant_rank(t) == 16
        assert np.linalg.eigvalsh(t.dense()).min() >= -1e-10 * t.a[0]

    def test_rank_is_twice_modes_usually(self):
        # algebraic rank is min(d, 2k) almost surely; the fixed numerical
        # threshold only resolves it reliably when the 2k modes sit well
        # under the 1/d resolution limit, hence k <= d/4 here
        rng = np.random.default_rng(15)
        hits = 0
        for _ in range(200):
            d = int(rng.integers(8, 33))
            k = int(rng.integers(1, d // 4 + 1))
            if significant_rank(gen_toeplitz_vandermonde(d, k, rng)) == min(d, 2 * k):
                hits += 1
        assert hits >= 190

    def test_bad_k(self):
        rng = np.random.default_rng(16)
        with pytest.raises(InvalidArgumentError):
            gen_toeplitz_vandermonde(4, 5, rng)

    def test_carries_its_modes_outside_its_value(self):
        t = toeplitz_from_modes([0.1, 0.37], [1.0, 0.5], 8)
        np.testing.assert_array_equal(t.modes[0], [0.1, 0.37])
        np.testing.assert_array_equal(t.modes[1], [1.0, 0.5])
        plain = toep(t.a)
        assert plain.modes is None and (t - plain).modes is None
        assert repr(t) == repr(plain)

    def test_freqs_and_powers_of_unequal_length_rejected(self):
        with pytest.raises(InvalidArgumentError, match="freqs and powers must be 1-D of equal length"):
            toeplitz_from_modes([0.1, 0.2], [1.0], 4)

    def test_a_negative_power_carries_no_modes(self):
        # no real factor of width 2k exists, so the factor comes from eigh, which rejects it
        t = toeplitz_from_modes([0.1, 0.3], [1.0, -0.5], 4)
        assert t.modes is None
        with pytest.raises(NumericError):
            t.psd_factor()
        with pytest.raises(InvalidArgumentError, match="non-negative"):
            SymToeplitz(t.a, ([0.1, 0.3], [1.0, -0.5]))


class TestBandedGenerator:
    def test_bandwidth_one_is_diagonal(self):
        rng = np.random.default_rng(17)
        t = gen_banded(6, 1, rng)
        assert t.a[0] > 0
        np.testing.assert_array_equal(t.a[1:], np.zeros(5))

    def test_tail_is_exactly_zero_and_psd(self):
        rng = np.random.default_rng(18)
        t = gen_banded(32, 5, rng)
        assert np.all(t.a[5:] == 0.0)
        assert np.linalg.eigvalsh(t.dense()).min() >= -1e-10 * t.a[0]

    def test_taper_shape(self):
        rng = np.random.default_rng(19)
        t = gen_banded(3, 2, rng)
        np.testing.assert_allclose(t.a / t.a[0], [1.0, 0.5, 0.0], atol=1e-12)
        assert np.linalg.eigvalsh(t.dense()).min() >= -1e-12

    def test_bad_bandwidth(self):
        rng = np.random.default_rng(20)
        with pytest.raises(InvalidArgumentError):
            gen_banded(4, 4, rng)


class TestSampleGaussian:
    def test_identity_covariance(self):
        rng = np.random.default_rng(21)
        n, d = 10**5, 4
        x = sample_gaussian(toep([1.0, 0.0, 0.0, 0.0]), n, rng)
        emp = x.T @ x / n
        # entrywise CLT band: Var of an empirical covariance entry is <= 2/n here
        assert np.abs(emp - np.eye(d)).max() <= 5 * np.sqrt(2 / n)

    def test_zero_matrix(self):
        rng = np.random.default_rng(22)
        x = sample_gaussian(toep([0.0, 0.0]), 100, rng)
        assert not x.any()

    def test_toeplitz_covariance_recovered(self):
        rng = np.random.default_rng(23)
        n = 10**5
        t = toep([2.0, 1.0, 0.0])
        x = sample_gaussian(t, n, rng)
        a_emp = avg(x.T @ x / n).a
        # Var(x_j x_k) = T_jj T_kk + T_jk^2 <= 8; no pooling credit taken
        assert np.abs(a_emp - t.a).max() <= 5 * np.sqrt(8 / n)

    def test_mixture_draws_through_its_modal_factor(self):
        # two modes on six coordinates: a 6 x 4 factor, so each row spends four normals, not six
        t = toeplitz_from_modes([0.25, 0.1], [1.0, 0.5], 6)
        rng, ref = np.random.default_rng(27), np.random.default_rng(27)
        x = sample_gaussian(t, 50, rng)
        factor = t.psd_factor()
        assert factor.shape == (6, 4)
        assert np.abs(factor @ factor.T - t.dense()).max() <= 1e-15 * t.a[0]
        assert x.tobytes() == (ref.standard_normal((50, 4)) @ factor.T).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        # on three of them 2k = 4 > 3: the square eigh factor
        assert sample_gaussian(t, 50, rng, np.array([0, 2, 5])).shape == (50, 3)
        assert t.psd_factor(np.array([0, 2, 5])).shape == (3, 3)

    def test_low_rank_exact_singular(self):
        rng = np.random.default_rng(24)
        t = toeplitz_from_modes([0.25], [1.0], 6)  # rank 2, exactly singular
        x = sample_gaussian(t, 50, rng)
        assert x.shape == (50, 6)

    def test_not_psd_rejected(self):
        rng = np.random.default_rng(25)
        with pytest.raises(NumericError, match="matrix has eigenvalue .* below -"):
            sample_gaussian(toep([1.0, 1.2, 0.0]), 10, rng)

    def test_not_psd_rejected_on_every_draw(self):
        # a failed factorization is not cached, so the check runs again
        t = toep([1.0, 1.2, 0.0])
        rng = np.random.default_rng(25)
        for _ in range(2):
            with pytest.raises(NumericError, match="matrix has eigenvalue .* below -"):
                sample_gaussian(t, 10, rng)

    def test_factor_computed_once_per_matrix(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        t = toep([2.0, 1.0, 0.0])
        a = sample_gaussian(t, 8, np.random.default_rng(7))
        b = sample_gaussian(t, 8, np.random.default_rng(7))
        fresh = sample_gaussian(toep([2.0, 1.0, 0.0]), 8, np.random.default_rng(7))
        # every index is the kept full factor; another index set gets its own, kept too
        sample_gaussian(t, 8, np.random.default_rng(7), np.arange(3))
        for _ in range(2):
            sample_gaussian(t, 8, np.random.default_rng(7), np.array([0, 2]))
        assert calls == [(3, 3), (3, 3), (2, 2)]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, fresh)

    def test_ruler_only_draw_has_the_principal_submatrix_covariance(self):
        d, n = 96, 40_000
        ruler = ruler_alpha(d, 0.5)
        t = gen_toeplitz_vandermonde(d, 6, np.random.default_rng(40))
        x = sample_gaussian(t, n, np.random.default_rng(41), ruler.indices)
        assert x.shape == (n, ruler.size) and ruler.size < d
        want = principal_submatrix(t, ruler.indices)
        emp = x.T @ x / n
        # Var(x_j x_k) = T_jj T_kk + T_jk^2 <= 2 a_0^2: an entrywise 5-sigma band
        assert np.abs(emp - want).max() <= 5 * np.sqrt(2 / n) * t.a[0]

    def test_every_index_draws_as_no_indices(self):
        t = gen_toeplitz_vandermonde(24, 5, np.random.default_rng(42))
        rng_all, rng_none = np.random.default_rng(43), np.random.default_rng(43)
        every = sample_gaussian(t, 30, rng_all, np.arange(24))
        default = sample_gaussian(t, 30, rng_none)
        np.testing.assert_array_equal(every, default)
        assert rng_all.bit_generator.state == rng_none.bit_generator.state

    def test_zero_samples_rejected(self):
        rng = np.random.default_rng(26)
        with pytest.raises(InvalidArgumentError):
            sample_gaussian(toep([1.0]), 0, rng)

    def test_bit_reproducible(self):
        t = toep([2.0, 1.0, 0.0])
        a = sample_gaussian(t, 64, np.random.default_rng(99))
        b = sample_gaussian(t, 64, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)


class TestObserve:
    def test_full_ruler_passthrough(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((10, 6))
        batch = observe(x, full_ruler(6), QuantizerConfig(0.0, Dither.NONE), rng)
        np.testing.assert_array_equal(batch.rows, x)
        assert batch.n == 10 and batch.delta == 0.0

    def test_sparse_ruler_quantized(self):
        rng = np.random.default_rng(28)
        ruler = Ruler(10, np.array([0, 1, 4, 7, 9]))
        x = rng.standard_normal((200, 10))
        batch = observe(x, ruler, QuantizerConfig(1.5, Dither.TRIANGULAR), rng)
        assert batch.rows.shape == (200, 5)
        on_grid = batch.rows / 1.5 - 0.5
        np.testing.assert_allclose(on_grid, np.round(on_grid), atol=1e-9)

    def test_rows_drawn_on_the_ruler(self):
        # (n, |R|) rows are already restricted: they are quantized as they are
        ruler = Ruler(10, np.array([0, 1, 4, 7, 9]))
        x = np.random.default_rng(45).standard_normal((20, 10))
        cfg = QuantizerConfig(1.5, Dither.TRIANGULAR)
        whole = observe(x, ruler, cfg, np.random.default_rng(46))
        drawn = observe(x[:, ruler.indices], ruler, cfg, np.random.default_rng(46))
        np.testing.assert_array_equal(whole.rows, drawn.rows)

    def test_zero_row_uniform(self):
        rng = np.random.default_rng(29)
        batch = observe(
            np.zeros((1, 3)), full_ruler(3), QuantizerConfig(1.0, Dither.UNIFORM), rng
        )
        assert set(np.unique(batch.rows)) <= {-0.5, 0.5}

    def test_batch_keeps_a_read_only_view(self):
        x = np.random.default_rng(32).standard_normal((4, 2))
        batch = SampleBatch(x, full_ruler(2), 0.0)
        assert np.shares_memory(batch.rows, x)
        assert not batch.rows.flags.writeable
        assert x.flags.writeable

    def test_batch_of_another_width_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"rows must be \(n, \|R\|\) = \(n, 3\), got \(4, 2\)"):
            SampleBatch(np.zeros((4, 2)), full_ruler(3), 0.0)
        with pytest.raises(InvalidArgumentError, match=r"got \(3,\)"):
            SampleBatch(np.zeros(3), full_ruler(3), 0.0)

    def test_batch_without_rows_rejected(self):
        with pytest.raises(InvalidArgumentError, match="a batch needs at least one sample"):
            SampleBatch(np.zeros((0, 3)), full_ruler(3), 0.0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(30)
        with pytest.raises(InvalidArgumentError):
            observe(np.zeros((5, 4)), full_ruler(3), QuantizerConfig(0.0, Dither.NONE), rng)

    def test_non_finite_rejected(self):
        rng = np.random.default_rng(31)
        with pytest.raises(NumericError):
            observe(
                np.full((2, 3), np.nan), full_ruler(3), QuantizerConfig(0.0, Dither.NONE), rng
            )


class TestGenSpec:
    def test_dispatch(self):
        # draw_truth draws each kind of recipe from the seed's generator stream
        mixture = gen_toeplitz_vandermonde(8, 2, generator_rng(32))
        np.testing.assert_array_equal(draw_truth(GenSpec(8, k=2), 32).a, mixture.a)
        banded = draw_truth(GenSpec(8, m=3), 32)
        np.testing.assert_array_equal(banded.a, gen_banded(8, 3, generator_rng(32)).a)
        assert banded.a[3:].sum() == 0.0

    def test_normalized_mixture_keeps_a_unit_diagonal_and_its_modes(self):
        raw = draw_truth(GenSpec(12, k=3), 33)
        unit = draw_truth(GenSpec(12, k=3, normalize=True), 33)
        assert unit.a.tobytes() == (raw.a / raw.a[0]).tobytes() and unit.a[0] == 1.0
        np.testing.assert_array_equal(unit.modes[1], raw.modes[1] / raw.a[0])
        factor = unit.psd_factor()
        assert factor.shape == (12, 6)
        assert np.abs(factor @ factor.T - unit.dense()).max() <= 1e-14

    def test_requires_exactly_one_kind(self):
        with pytest.raises(InvalidArgumentError):
            GenSpec(8)
        with pytest.raises(InvalidArgumentError):
            GenSpec(8, k=2, m=3)

    def test_range_checks(self):
        with pytest.raises(InvalidArgumentError, match="^dimension must be positive, got 0$"):
            GenSpec(0, k=1)
        for k in (9, 0):
            want = f"^a mixture of k modes needs 1 <= k <= d, got k = {k} and d = 8$"
            with pytest.raises(InvalidArgumentError, match=want):
                GenSpec(8, k=k)
        with pytest.raises(InvalidArgumentError):
            GenSpec(8, m=8)
