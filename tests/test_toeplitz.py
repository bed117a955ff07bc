import numpy as np
import pytest

from toepquant import (
    Ruler,
    SymToeplitz,
    banded_estimate,
    fro_norm,
    is_ruler,
    max_norm,
    op_norm,
    principal_submatrix,
    relative_error,
    sample_gaussian,
    sup_l,
    threshold_estimate,
    toep,
    toeplitz_from_modes,
)
from toepquant.exceptions import InvalidArgumentError, NumericError
from toepquant.rulers import full_ruler, ruler_alpha

from reference import avg


def char_poly_eigvals(m):
    """Independent reference: eigenvalues via characteristic polynomial, d <= 3."""
    d = m.shape[0]
    if d == 1:
        return np.array([m[0, 0]])
    if d == 2:
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        disc = np.sqrt(max(tr * tr / 4.0 - det, 0.0))
        return np.array([tr / 2.0 - disc, tr / 2.0 + disc])
    tr = np.trace(m)
    minors = (
        m[0, 0] * m[1, 1] - m[0, 1] ** 2
        + m[0, 0] * m[2, 2] - m[0, 2] ** 2
        + m[1, 1] * m[2, 2] - m[1, 2] ** 2
    )
    det = np.linalg.det(m)
    return np.sort(np.roots([1.0, -tr, minors, -det]).real)


class TestToep:
    def test_basic(self):
        np.testing.assert_array_equal(
            toep([2, 1, 0]).dense(), [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
        )

    def test_scalar(self):
        np.testing.assert_array_equal(toep([1.0]).dense(), [[1.0]])

    def test_delta_generator_is_identity(self):
        for d in (1, 2, 5, 17):
            a = np.zeros(d)
            a[0] = 1.0
            np.testing.assert_array_equal(toep(a).dense(), np.eye(d))

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError, match="generating vector must be 1-D and non-empty"):
            toep([])

    def test_modes_of_unequal_length_rejected(self):
        with pytest.raises(InvalidArgumentError, match="modes must be 1-D freqs and powers of equal length"):
            SymToeplitz(np.ones(4), (np.array([0.1, 0.2]), np.array([1.0])))

    def test_entry_and_symmetry(self):
        rng = np.random.default_rng(3)
        t = toep(rng.standard_normal(6))
        dense = t.dense()
        for j in range(6):
            for k in range(6):
                assert dense[j, k] == t.a[abs(j - k)]
        np.testing.assert_array_equal(dense, dense.T)


class TestEquality:
    def test_equal_generating_vectors(self):
        assert toep([1.0, 2.0]) == toep([1.0, 2.0])
        assert hash(toep([1.0, 2.0])) == hash(toep([1.0, 2.0]))
        # -0.0 == 0.0, so their hashes agree too
        assert toep([1.0, -0.0]) == toep([1.0, 0.0])
        assert hash(toep([1.0, -0.0])) == hash(toep([1.0, 0.0]))

    def test_modes_are_not_part_of_the_value(self):
        t = toeplitz_from_modes([0.1, 0.3], [1.0, 0.5], 6)
        assert t.modes is not None
        assert t == toep(t.a) and hash(t) == hash(toep(t.a))

    def test_unequal_values(self):
        assert toep([1.0, 2.0]) != toep([1.0, 2.5])
        assert toep([1.0, 2.0]) != toep([1.0, 2.0, 0.0])
        assert toep([1.0]) != [1.0]

    def test_dict_key(self):
        table = {toep([1.0, 2.0]): "a", toep([1.0, 2.0, 0.0]): "b"}
        assert table[toep([1.0, 2.0])] == "a"
        assert table[toep([1.0, 2.0, 0.0])] == "b"
        assert len({toep([3.0]), toep([3.0])}) == 1


class TestAvg:
    def test_hand_example(self):
        np.testing.assert_array_equal(avg(np.array([[1.0, 3.0], [5.0, 7.0]])).a, [4.0, 4.0])

    def test_fixed_point_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal(rng.integers(1, 9))
            t = toep(a)
            assert np.array_equal(avg(t.dense()).a, t.a)

    def test_rank_one_example(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(avg(np.outer(x, x)).a, [2.5, 2.0], rtol=0, atol=0)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidArgumentError, match=r"expected a square matrix, got shape \(2, 3\)"):
            avg(np.ones((2, 3)))


class TestPrincipalSubmatrix:
    def test_identity(self):
        np.testing.assert_array_equal(
            principal_submatrix(toep(np.eye(1, 4)[0]), [0, 2]), np.eye(2)
        )

    def test_toeplitz_corners(self):
        np.testing.assert_array_equal(
            principal_submatrix(toep([3, 2, 1, 0]), [0, 3]), [[3, 0], [0, 3]]
        )

    def test_full_ruler_is_whole_matrix(self):
        t = toep(np.random.default_rng(5).standard_normal(4))
        np.testing.assert_array_equal(principal_submatrix(t, full_ruler(4).indices), t.dense())

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError, match=r"^indices must lie in \[0, 2\], got \[0, 3\]"):
            principal_submatrix(toep([1.0, 0.5, 0.0]), [0, 3])
        # the modal factor reads no entry of T_R, so it checks the indices itself
        with pytest.raises(InvalidArgumentError, match=r"^indices must lie in \[0, 2\], got \[0, 3\]"):
            toeplitz_from_modes([0.1], [1.0], 3).psd_factor(np.array([0, 1, 3]))

    def test_empty_index_set(self):
        with pytest.raises(InvalidArgumentError, match=r"^indices must be a non-empty 1-D set, got shape \(0,\)"):
            principal_submatrix(toep([1.0, 0.5]), [])

    def test_toeplitz_read_without_the_dense_matrix(self, monkeypatch):
        t = toeplitz_from_modes([0.1, 0.37], [1.0, 0.5], 64)
        ruler = ruler_alpha(64, 0.5)
        want = t.dense()[np.ix_(ruler.indices, ruler.indices)]
        monkeypatch.setattr(SymToeplitz, "dense", lambda self: pytest.fail("built the d x d matrix"))
        got = principal_submatrix(t, ruler.indices)
        assert got.tobytes() == want.tobytes()
        # indices are taken in ascending order
        np.testing.assert_array_equal(principal_submatrix(t, [9, 2, 5]), t.a[[[0, 3, 7], [3, 0, 4], [7, 4, 0]]])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda t: Ruler(4, [0, 1.5, 2.2, 3]), "ruler indices"),
        (lambda t: Ruler(4, ["0", "1", "2", "3"]), "ruler indices"),
        (lambda t: is_ruler([0, 1.5, 3], 4), "ruler indices"),
        (lambda t: principal_submatrix(t, [0.5, 2.9]), "indices"),
        (lambda t: sample_gaussian(t, 2, np.random.default_rng(0), np.array([0.5, 2.9])), "indices"),
    ],
    ids=["Ruler-fractions", "Ruler-text", "is_ruler", "principal_submatrix", "sample_gaussian"],
)
def test_index_that_is_not_an_integer_value_rejected(call, name):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be integer values, got "):
        call(toep([1.0, 0.5, 0.25, 0.125]))


class TestNorms:
    def test_op_norm_identity(self):
        assert op_norm(toep(np.eye(1, 7)[0])) == pytest.approx(1.0)

    def test_op_norm_tridiagonal(self):
        # eigenvalues of Toep(2,1,0) are 2 + 2 cos(k pi / 4), k = 1..3
        assert op_norm(toep([2, 1, 0])) == pytest.approx(2 + np.sqrt(2), abs=1e-12)

    def test_op_norm_signed(self):
        # eigenvalues -1 - 2 and -1 + 2: the norm is the modulus of the negative one
        assert op_norm(toep([-1.0, 2.0])) == pytest.approx(3.0)

    def test_op_norm_matches_char_poly(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t = toep(rng.standard_normal(int(rng.integers(1, 4))))
            want = np.abs(char_poly_eigvals(t.dense())).max()
            assert op_norm(t) == pytest.approx(want, abs=1e-9)

    def test_fro_and_max(self):
        assert fro_norm(toep([1.0, 0.0])) == pytest.approx(np.sqrt(2))
        assert max_norm(toep([1.0, 0.0])) == 1.0
        m = toep([1.0, -2.0])
        assert fro_norm(m) == pytest.approx(np.sqrt(10))
        assert max_norm(m) == 2.0
        assert fro_norm(toep(np.zeros(3))) == 0.0
        assert max_norm(toep(np.zeros(3))) == 0.0

    def test_fro_norm_squared_is_entry_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            t = toep(rng.standard_normal(8))
            dense = t.dense()
            assert fro_norm(t) ** 2 == pytest.approx((dense**2).sum(), rel=1e-12)
            assert max_norm(t) == np.abs(dense).max()

    @pytest.mark.parametrize(
        "a, want",
        [([1e160, 0.0, 0.0], np.sqrt(3) * 1e160), ([1e-200, 0.0], np.sqrt(2) * 1e-200), ([1e-320], 1e-320)],
        ids=["squares-overflow", "squares-underflow", "subnormal"],
    )
    def test_fro_norm_whose_squares_leave_the_float_range(self, a, want):
        assert fro_norm(toep(a)) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_fro_norm_keeps_the_bytes_of_the_plain_sum(self):
        # every entry within 2**±300 of 1 and 2**±100 of the largest: every
        # square and partial sum is a normal float before and after the rescale
        rng = np.random.default_rng(29)
        for _ in range(500):
            d = int(rng.integers(1, 20))
            a = rng.standard_normal(d) * 2.0 ** rng.uniform(-100, 0, d) * 2.0 ** int(rng.integers(-200, 200))
            a[rng.random(d) < 0.2] = 0.0
            t = toep(a)
            assert fro_norm(t) == float(np.linalg.norm(t.dense()))

    @pytest.mark.parametrize(
        "norm, a",
        [
            (op_norm, [1e308, 1e308]),
            (op_norm, [1e308, -1e308, 1e308]),
            (op_norm, [0.6e308] * 4),  # finite blocks of order 2, eigenvalue 2.4e308
            (fro_norm, [1e308] * 3),
            (fro_norm, [0.0, 1.5e308]),
        ],
        ids=["op-block-overflows", "op-block-nan", "op-eigenvalue-overflows", "fro-3x3", "fro-off-diagonal"],
    )
    def test_norm_that_is_no_finite_float_raises(self, norm, a):
        with pytest.raises(NumericError, match="norm is not a finite float"):
            norm(toep(a))


class TestCosinePolynomial:
    def test_sup_delta_generator(self):
        a = np.zeros(5)
        a[0] = 1.0
        assert sup_l(a, 8 * 25) == 1.0

    def test_sup_dominates_op_norm(self):
        e = np.array([2.0, 1.0, 0.0])
        assert sup_l(e, 8 * 9) >= op_norm(toep(e))

    def test_sup_dominates_op_norm_random(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            d = int(rng.integers(1, 33))
            e = rng.standard_normal(d) * rng.uniform(0.1, 10)
            assert op_norm(toep(e)) <= sup_l(e, 8 * d * d) + 1e-9

    def test_sup_grid_too_small(self):
        with pytest.raises(InvalidArgumentError):
            sup_l(np.ones(4), 100)


def with_entry(size, at, value):
    """``size`` ones with ``value`` at the first, a middle or the last place."""
    a = np.ones(size)
    a[{"first": 0, "middle": size // 2, "last": size - 1}[at]] = value
    return a


# label -> the call that builds a matrix whose entry at ``at`` is ``bad``
NON_FINITE_MATRICES = {
    "SymToeplitz": lambda bad, at: SymToeplitz(with_entry(5, at, bad)),
    "toep": lambda bad, at: toep(with_entry(5, at, bad)),
    # a non-finite power makes every entry non-finite
    "toeplitz_from_modes": lambda bad, at: toeplitz_from_modes([0.1, 0.2, 0.3], with_entry(3, at, bad), 4),
    "sup_l": lambda bad, at: sup_l(with_entry(5, at, bad), 2048),
    # 1e308 - (-1e308) overflows to inf; a difference of finite entries is never NaN
    "__sub__": lambda bad, at: (
        toep(with_entry(5, at, np.copysign(1e308, bad))) - toep(with_entry(5, at, -np.copysign(1e308, bad)))
    ),
}


def _non_finite_cases():
    for label, make in NON_FINITE_MATRICES.items():
        for bad in (np.nan, np.inf, -np.inf):
            if (label, np.isnan(bad)) != ("__sub__", True):
                for at in ("first", "middle", "last"):
                    yield pytest.param(make, bad, at, id=f"{label}-{bad}-{at}")


@pytest.mark.parametrize("make, bad, at", _non_finite_cases())
def test_a_matrix_with_a_non_finite_entry_is_refused_where_it_is_built(make, bad, at):
    # under the suite's warnings-as-errors a RuntimeWarning would fail this too
    with pytest.raises(NumericError, match="^matrix contains non-finite entries$"):
        make(bad, at)


@pytest.mark.parametrize(
    "read",
    [
        lambda: max_norm(toep([np.nan, 0.0])),
        lambda: relative_error(toep([1.0, 0.0]), toep([np.inf, 0.0]), "max"),
        lambda: relative_error(toep([np.nan, 0.0]), toep([1.0, 0.0]), "max"),
        lambda: threshold_estimate(toep([np.nan, 0.0, 0.0]), 0.1),
        lambda: banded_estimate(toep([np.nan, 0.0, 0.0]), 1),
        lambda: sup_l(np.array([np.nan, 1.0]), 64),
        # a NaN matrix t had t != t while hash(t) == hash(t)
        lambda: (lambda t: t == t)(toep([np.nan, 1.0])),
    ],
    ids=["max_norm-nan", "relative_error-inf-estimate", "relative_error-nan-truth", "threshold_estimate-nan",
         "banded_estimate-nan", "sup_l-nan", "eq-nan"],
)
def test_no_reader_sees_a_non_finite_matrix(read):
    # each once answered nan, inf, False or a zeroed NaN instead of raising
    with pytest.raises(NumericError, match="^matrix contains non-finite entries$"):
        read()
