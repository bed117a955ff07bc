import math
import re

import numpy as np
import pytest

from toepquant import (
    Ruler,
    coverage_coefficient,
    full_ruler,
    is_ruler,
    phi_bound,
    ruler_alpha,
)
from toepquant.exceptions import InvalidArgumentError, NotARulerError


class TestFullRuler:
    def test_d3_pair_counts(self):
        r = full_ruler(3)
        assert r.indices.tolist() == [0, 1, 2]
        # ordered pairs: distance 1 -> (0,1),(1,0),(1,2),(2,1); distance 2 -> (0,2),(2,0)
        assert r.pair_counts.tolist() == [3, 4, 2]

    def test_d1(self):
        r = full_ruler(1)
        assert r.indices.tolist() == [0]
        assert r.pair_counts.tolist() == [1]

    def test_d16(self):
        assert (full_ruler(16).indices + 1).tolist() == list(range(1, 17))

    @pytest.mark.parametrize("d", [0, -2])
    def test_dimension_below_one_rejected(self, d):
        with pytest.raises(InvalidArgumentError, match=f"dimension must be positive, got {d}"):
            full_ruler(d)

    def test_empty_index_set_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"ruler indices must be a non-empty 1-D set, got shape \(0,\)"):
            Ruler(4, [])


class TestEquality:
    def test_equal_values(self):
        assert full_ruler(3) == full_ruler(3)
        assert hash(full_ruler(3)) == hash(full_ruler(3))
        # the indices are taken sorted and without repeats
        assert Ruler(4, [3, 0, 1, 1, 2]) == full_ruler(4)
        assert ruler_alpha(4, 1.0) == full_ruler(4)

    def test_unequal_values_of_one_length(self):
        assert Ruler(10, [0, 1, 4, 7, 9]) != Ruler(10, [0, 1, 2, 6, 9])
        assert Ruler(5, [0, 1, 2, 4]) != Ruler(5, [0, 2, 3, 4])

    def test_unequal_lengths(self):
        assert full_ruler(3) != full_ruler(4)
        assert ruler_alpha(16, 0.5) != full_ruler(16)
        assert full_ruler(3) != [0, 1, 2]

    def test_dict_key(self):
        table = {full_ruler(3): "full", ruler_alpha(16, 0.5): "sparse"}
        assert table[full_ruler(3)] == "full"
        assert table[Ruler(16, ruler_alpha(16, 0.5).indices[::-1])] == "sparse"
        assert len({full_ruler(5), full_ruler(5), ruler_alpha(5, 0.5)}) == 2


class TestRulerAlpha:
    def test_half_d16_matches_reference(self):
        assert (ruler_alpha(16, 0.5).indices + 1).tolist() == [1, 2, 3, 4, 8, 12, 16]

    def test_three_quarter_d16_matches_reference(self):
        want = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16]
        assert (ruler_alpha(16, 0.75).indices + 1).tolist() == want

    def test_alpha_one_is_full(self):
        assert ruler_alpha(16, 1.0).indices.tolist() == list(range(16))

    def test_alpha_out_of_range(self):
        for d in (1, 16):  # d = 1 checks its alpha too
            for alpha in (0.3, 1.2, math.nan):
                with pytest.raises(InvalidArgumentError, match=r"^alpha must lie in \[1/2, 1\], got "):
                    ruler_alpha(d, alpha)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_d1_is_the_full_ruler(self, alpha):
        assert ruler_alpha(1, alpha).indices.tolist() == [0]

    @pytest.mark.parametrize("d", [0, -3])
    def test_dimension_below_one_rejected(self, d):
        with pytest.raises(InvalidArgumentError, match=f"^dimension must be positive, got {d}$"):
            ruler_alpha(d, 0.5)

    @pytest.mark.parametrize("d, alpha", [(2**70, 0.5), (10**10, 1.0), (2**63, 0.5)])
    def test_dimension_whose_distance_matrix_cannot_be_sized_rejected(self, d, alpha):
        # |R| <= 2 r1, and numpy sizes no int64 array of more than 2**60 entries
        with pytest.raises(InvalidArgumentError, match=f"^dimension {d} too large for a ruler at alpha {alpha}: "):
            ruler_alpha(d, alpha)

    @pytest.mark.parametrize("d", [16.5, 16.0, np.float64(16), "16"])
    def test_dimension_that_is_not_an_integer_rejected(self, d):
        with pytest.raises(InvalidArgumentError, match=f"^dimension takes integers only, got {re.escape(repr(d))}$"):
            ruler_alpha(d, 0.5)

    def test_numpy_integer_dimension_accepted(self):
        assert ruler_alpha(np.int64(16), 0.5) == ruler_alpha(16, 0.5)

    def test_two_block_bound_holds_wherever_rounding_can_land(self):
        # ruler_alpha's proof needs d <= r1 (s + 2) - s for every pair
        # (r1, s) = (round(d^a), round(d^(1-a))) with a in [1/2, 1].  The pair
        # only changes where d^a or d^(1-a) crosses a half-integer, so every
        # pair is met just below or just above one of those alphas.  They are
        # enumerated through x = d^a, which increases with a over [sqrt d, d]:
        # d^a crosses k + 1/2 at x = k + 1/2, and d^(1-a) = d / x crosses
        # j + 1/2 at x = d / (j + 1/2).  No two crossings are closer than
        # 1 / (4 sqrt d) (4d is even, (2k + 1)(2j + 1) odd), so x (1 -+ 1e-9)
        # lies between a crossing and its neighbours.
        for d in range(2, 10_001):
            root = math.sqrt(d)
            half = np.arange(1, d) + 0.5
            crossings = np.concatenate((half[half >= root], d / half[half <= root]))
            x = np.concatenate((crossings * (1 - 1e-9), crossings * (1 + 1e-9), (root, d)))
            x = x[(x >= root) & (x <= d)]
            r1 = np.floor(x + 0.5)
            s = np.floor(d / x + 0.5)
            assert np.all(s <= r1), d
            assert np.all(d <= r1 * (s + 2) - s), d

    def test_always_valid_and_small(self):
        for d in (16, 32, 64, 128, 256):
            for alpha in (0.5, 0.6, 0.75, 0.9, 1.0):
                r = ruler_alpha(d, alpha)
                ok, missing = is_ruler(r.indices, d)
                assert ok and not missing
                assert r.size <= 2 * d**alpha + 2


class TestIsRuler:
    def test_reference_sparse_ruler(self):
        ok, missing = is_ruler([0, 1, 4, 7, 9], 10)
        assert ok and missing == []

    def test_missing_distances(self):
        ok, missing = is_ruler([0, 1], 4)
        assert not ok and missing == [2, 3]

    def test_singleton(self):
        ok, missing = is_ruler([0], 1)
        assert ok and missing == []

    def test_empty(self):
        assert is_ruler([], 3) == (False, [0, 1, 2])

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError, match=r"ruler indices must lie in \[0, 3\], got \[0, 5\]"):
            is_ruler([0, 5], 4)


class TestPairs:
    """The ordered-pair index that the estimator reads: pair positions in the distance matrix."""

    def test_full_d3_distance2(self):
        np.testing.assert_array_equal(full_ruler(3).distance_matrix(), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_sparse_distance3(self):
        r = Ruler(10, np.array([0, 1, 4, 7, 9]))
        assert r.indices[np.argwhere(r.distance_matrix() == 3)].tolist() == [[1, 4], [4, 1], [4, 7], [7, 4]]

    def test_distance_zero_is_diagonal(self):
        r = Ruler(10, np.array([0, 1, 4, 7, 9]))
        np.testing.assert_array_equal(np.argwhere(r.distance_matrix() == 0), [[j, j] for j in range(5)])
        assert r.pair_counts[0] == r.size

    def test_counts_even_off_diagonal(self):
        for d, alpha in ((16, 0.5), (64, 0.75), (100, 1.0)):
            r = ruler_alpha(d, alpha)
            assert np.all(r.pair_counts[1:] % 2 == 0)
            assert math.isqrt(d) <= r.size <= d


class TestCoverage:
    def test_full_ruler_harmonic(self):
        # ordered-pair count at distance s is 2(d-s), so phi = H_{d-1} / 2
        assert coverage_coefficient(full_ruler(4)) == pytest.approx(11 / 12, abs=0)
        for d in (2, 3, 10, 100, 1000):
            want = math.fsum(1.0 / (2.0 * j) for j in range(1, d))
            assert coverage_coefficient(full_ruler(d)) == want

    def test_reference_sparse_ruler(self):
        r = Ruler(10, np.array([0, 1, 4, 7, 9]))
        assert coverage_coefficient(r) == pytest.approx(4.25, abs=0)

    def test_d1_empty_sum(self):
        assert coverage_coefficient(full_ruler(1)) == 0.0

    def test_not_a_ruler_rejected(self):
        with pytest.raises(NotARulerError) as err:
            Ruler(4, np.array([0, 1]))
        assert err.value.missing == [2, 3]

    def test_adding_index_weakly_decreases_phi(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = int(rng.integers(4, 40))
            r = ruler_alpha(d, 0.5)
            free = sorted(set(range(d)) - set(r.indices.tolist()))
            if not free:
                continue
            j = int(rng.choice(free))
            bigger = Ruler(d, np.append(r.indices, j))
            assert coverage_coefficient(bigger) <= coverage_coefficient(r) + 1e-15


class TestPhiBound:
    def test_alpha_one(self):
        for d in (4, 16, 100):
            assert phi_bound(d, 1.0) == pytest.approx(1 + math.log(d))

    def test_alpha_half_d16(self):
        assert phi_bound(16, 0.5) == pytest.approx(16 + 4 * math.log(16))

    @pytest.mark.parametrize("alpha", [5.0, float("nan"), -1e10, 0.49])
    def test_alpha_outside_half_to_one_rejected(self, alpha):
        # unchecked, these would give 4.2e-05, nan and a bare OverflowError
        with pytest.raises(InvalidArgumentError, match=r"^alpha must lie in \[1/2, 1\], got "):
            phi_bound(16, alpha)

    def test_envelopes_constructed_rulers(self):
        for d in (16, 64, 256):
            for alpha in (0.5, 0.75):
                phi = coverage_coefficient(ruler_alpha(d, alpha))
                assert phi <= 4 * phi_bound(d, alpha)
