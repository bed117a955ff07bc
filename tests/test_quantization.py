import tracemalloc

import numpy as np
import pytest

from toepquant import (
    Dither,
    QuantizerConfig,
    draw_dither,
    quantize_vector,
)
from toepquant.exceptions import InvalidArgumentError, NumericError
from toepquant.quantization import _BLOCK


class TestQuantizeScalar:
    """One value at a time through ``quantize_vector`` without dither."""

    @staticmethod
    def quantize(x, delta):
        return quantize_vector(np.array([x]), QuantizerConfig(delta, Dither.NONE), None).output[0]

    @pytest.mark.parametrize(
        "x,delta,want",
        [(0.5, 2.0, 1.0), (-0.5, 2.0, -1.0), (3.0, 2.0, 3.0), (2.0, 2.0, 3.0)],
    )
    def test_values(self, x, delta, want):
        # a value on a cell boundary maps to the upper cell's midpoint
        assert self.quantize(x, delta) == want

    def test_non_finite(self):
        with pytest.raises(NumericError):
            self.quantize(float("inf"), 1.0)

    def test_half_cell_accuracy(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            x = float(rng.uniform(-50, 50))
            delta = float(rng.uniform(0.1, 10))
            q = self.quantize(x, delta)
            assert abs(q - x) <= delta / 2 + 1e-12
            assert abs(q / delta - 0.5 - round(q / delta - 0.5)) < 1e-9


class TestDrawDither:
    def test_none_is_zero(self):
        rng = np.random.default_rng(0)
        assert not draw_dither(QuantizerConfig(2.0, Dither.NONE), 100, rng).any()

    def test_uniform_moments(self):
        # variance of U[-1, 1] is (b - a)^2 / 12 = 1/3
        rng = np.random.default_rng(1)
        tau = draw_dither(QuantizerConfig(2.0, Dither.UNIFORM), 10**6, rng)
        assert np.abs(tau).max() <= 1.0
        assert tau.var() == pytest.approx(1 / 3, rel=0.01)
        assert abs(tau.mean()) < 0.005

    def test_triangular_moments(self):
        # sum of two independent U[-1, 1]: variance 2/3, support [-2, 2]
        rng = np.random.default_rng(2)
        tau = draw_dither(QuantizerConfig(2.0, Dither.TRIANGULAR), 10**6, rng)
        assert np.abs(tau).max() <= 2.0
        assert tau.var() == pytest.approx(2 / 3, rel=0.01)
        assert abs(tau.mean()) < 0.005

    def test_invalid_delta(self):
        with pytest.raises(InvalidArgumentError):
            QuantizerConfig(-1.0, Dither.UNIFORM)

    @pytest.mark.parametrize("delta", [1e155, 1e200, np.finfo(np.float64).max])
    def test_delta_whose_square_overflows(self, delta):
        # delta^2 / 4 is the dither's noise power, read by the correction and the bounds
        with pytest.raises(InvalidArgumentError, match="noise power"):
            QuantizerConfig(delta)
        assert QuantizerConfig(1e150).delta == 1e150

    @pytest.mark.parametrize(
        "delta,dither,planes",
        [(0.0, Dither.TRIANGULAR, 0), (2.0, Dither.NONE, 0), (2.0, Dither.UNIFORM, 1), (2.0, Dither.TRIANGULAR, 2)],
    )
    def test_planes_read(self, delta, dither, planes):
        assert QuantizerConfig(delta, dither).planes == planes

    def test_planes_are_read_not_written(self):
        # planes may be shared by several quantizers, so even writable ones stay as they were
        planes = np.random.default_rng(3).random((2, 4, 5))
        before = planes.copy()
        uniform = draw_dither(QuantizerConfig(2.0, Dither.UNIFORM), (4, 5), planes)
        triangular = draw_dither(QuantizerConfig(2.0, Dither.TRIANGULAR), (4, 5), planes)
        np.testing.assert_array_equal(planes, before)
        np.testing.assert_array_equal(uniform, -1.0 + 2.0 * before[0])
        assert not np.shares_memory(uniform, planes) and not np.shares_memory(triangular, planes)

    @pytest.mark.parametrize("shape", [(1, 4, 5), (2, 5, 4), (2, 4)])
    def test_planes_of_another_shape_rejected(self, shape):
        with pytest.raises(InvalidArgumentError, match="planes"):
            draw_dither(QuantizerConfig(2.0, Dither.TRIANGULAR), (4, 5), np.zeros(shape))

    @pytest.mark.parametrize("source", ["generator", "planes"])
    def test_triangular_holds_one_full_size_array(self, source):
        # the second plane is added one row block at a time, so the traced peak
        # is the output plus one block, not two full-size planes
        n, r = 20000, 7
        rng = np.random.default_rng(4)
        if source == "planes":
            rng = rng.random((2, n, r))
        tracemalloc.start()
        try:
            tau = draw_dither(QuantizerConfig(2.0, Dither.TRIANGULAR), (n, r), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tau.nbytes + 8 * _BLOCK + 64 * 1024


class TestQuantizeVector:
    def test_zero_delta_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        for dither in (Dither.TRIANGULAR, Dither.NONE):
            trace = quantize_vector(x, QuantizerConfig(0.0, dither), rng)
            np.testing.assert_array_equal(trace.output, x)
            assert not trace.tau.any() and not trace.error.any() and not trace.noise.any()

    def test_zero_input_uniform(self):
        rng = np.random.default_rng(4)
        trace = quantize_vector(
            np.zeros(1000), QuantizerConfig(1.0, Dither.UNIFORM), rng
        )
        assert set(np.unique(trace.output)) <= {-0.5, 0.5}

    def test_trace_consistency_and_grid(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10000) * 3
        cfg = QuantizerConfig(0.7, Dither.TRIANGULAR)
        trace = quantize_vector(x, cfg, rng)
        np.testing.assert_allclose(trace.noise, trace.error + trace.tau, atol=1e-12)
        np.testing.assert_allclose(trace.output, x + trace.noise, atol=1e-12)
        assert np.abs(trace.error).max() <= cfg.delta / 2
        on_grid = trace.output / cfg.delta - 0.5
        np.testing.assert_allclose(on_grid, np.round(on_grid), atol=1e-9)

    def test_non_finite(self):
        rng = np.random.default_rng(6)
        with pytest.raises(NumericError):
            quantize_vector(np.array([1.0, np.nan]), QuantizerConfig(1.0, Dither.NONE), rng)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    @pytest.mark.parametrize("dither", list(Dither))
    def test_zero_d_input_traces_as_a_one_entry_vector(self, delta, dither):
        cfg = QuantizerConfig(delta, dither)
        scalar = quantize_vector(np.float64(0.3), cfg, np.random.default_rng(10))
        vector = quantize_vector(np.array([0.3]), cfg, np.random.default_rng(10))
        for name in ("x", "tau", "output", "error", "noise"):
            got, want = getattr(scalar, name), getattr(vector, name)
            assert isinstance(got, np.ndarray) and got.shape == (), name
            assert got.tobytes() == want.tobytes(), name

    def test_triangular_noise_power(self):
        # with triangular dither the noise second moment is delta^2 / 4
        rng = np.random.default_rng(7)
        x = rng.standard_normal(10**6)
        trace = quantize_vector(x, QuantizerConfig(2.0, Dither.TRIANGULAR), rng)
        assert np.mean(trace.noise**2) == pytest.approx(1.0, rel=0.01)

    def test_error_independent_of_input(self):
        # the error is uniform on [-delta/2, delta/2], variance delta^2 / 12, whatever the input
        rng = np.random.default_rng(9)
        for dither in (Dither.TRIANGULAR, Dither.UNIFORM):
            x = rng.standard_normal(3 * 10**5)
            trace = quantize_vector(x, QuantizerConfig(2.0, dither), rng)
            corr = np.corrcoef(trace.x, trace.error)[0, 1]
            assert abs(corr) < 0.01
            assert trace.error.var() == pytest.approx(4 / 12, rel=0.02)
