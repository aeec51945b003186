import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

import goeritz._intlinalg as la
from goeritz.lattice import GramLattice, is_definite


def oracle_det(a) -> int:
    """Determinant by Fraction Gaussian elimination with row swaps."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return int(det)


def oracle_minors(a) -> list[int]:
    return [oracle_det([row[:k] for row in a[:k]]) for k in range(1, len(a) + 1)]


@st.composite
def symmetric_matrix(draw, n):
    upper = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
    return la.freeze(
        [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    )


def symmetric_matrices():
    return st.integers(1, 8).flatmap(symmetric_matrix)


@st.composite
def forms(draw):
    """Symmetric matrices of every signature: arbitrary ones (mostly
    indefinite), and +/-(A^T A) with A of 1..n+1 rows, which is semidefinite
    and singular when A has fewer than n independent rows."""
    kind = draw(st.sampled_from(["any", "gram", "negative gram"]))
    if kind == "any":
        return draw(symmetric_matrices())
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, n + 1))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=rows, max_size=rows))
    g = la.matmul(la.transpose(a), a)
    return la.neg(g) if kind == "negative gram" else g


class TestLeadingPrincipalMinors:
    @given(symmetric_matrices())
    @example(((0, 1), (1, 0)))
    @example(((1, 1, 0), (1, 1, 0), (0, 0, 5)))
    def test_matches_oracle_up_to_first_zero(self, a):
        want = oracle_minors(a)
        if 0 in want:
            want = want[: want.index(0) + 1]
        assert la.leading_principal_minors(a) == want


class TestIsDefinite:
    @given(forms(), st.sampled_from([1, -1]))
    @example(((1, 0), (0, -1)), 1)  # indefinite
    @example(((1, 1), (1, 1)), 1)  # positive semidefinite, singular
    @example(((-2, 1), (1, -1)), -1)  # negative definite
    def test_agrees_with_sylvester(self, g, sign):
        sylvester = all(d > 0 for d in oracle_minors(la.scale(sign, g)))
        assert is_definite(GramLattice(g), sign) == sylvester


class TestPermutationOrder:
    @given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))))
    def test_matches_repeated_matmul(self, images):
        f = la.permutation_matrix(images)
        power, k = f, 1
        while power != la.identity(len(images)):
            power, k = la.matmul(power, f), k + 1
        assert la.permutation_order(la.permutation_images(f)) == k
        assert la.permutation_order(images) == k
        assert la.permutation_images(f) == tuple(images)

    def test_order_beyond_ten_thousand(self):
        # disjoint cycles of lengths 7, 11, 13 and 17 on 48 points
        images, start = [], 0
        for length in (7, 11, 13, 17):
            images += [start + (i + 1) % length for i in range(length)]
            start += length
        assert la.permutation_order(images) == 7 * 11 * 13 * 17 == 17_017
        f = la.permutation_matrix(images)
        assert la.permutation_order(la.permutation_images(f)) == 17_017

    @pytest.mark.parametrize(
        "a",
        [
            ((1, 1), (0, 1)),
            ((2,),),
            ((1, 0), (0, -1)),
            ((0, 1), (1, 0), (0, 0)),
        ],
    )
    def test_rejects_non_permutation_matrix(self, a):
        with pytest.raises(ValueError):
            la.permutation_order(la.permutation_images(a))


class TestPreservesForm:
    @given(
        st.integers(1, 7).flatmap(lambda n: st.permutations(range(n))),
        st.data(),
        st.booleans(),
    )
    def test_matches_matrix_isometry(self, images, data, invariant):
        n = len(images)
        g = data.draw(symmetric_matrix(n))
        f = la.permutation_matrix(images)
        if invariant:
            # sum over the cyclic group generated by f, so f^T g f == g
            total, power = ((0,) * n,) * n, la.identity(n)
            for _ in range(la.permutation_order(images)):
                term = la.matmul(la.matmul(la.transpose(power), g), power)
                total = tuple(
                    tuple(x + y for x, y in zip(r, s)) for r, s in zip(total, term)
                )
                power = la.matmul(power, f)
            g = total
        want = la.matmul(la.matmul(la.transpose(f), g), f) == g
        assert la.preserves_form(images, g) == want
        if invariant:
            assert want

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            la.preserves_form((0, 1), ((1,),))


@st.composite
def int_matrix(draw, rows, cols, bound=3):
    row = st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols)
    return la.freeze(draw(st.lists(row, min_size=rows, max_size=rows)))


@st.composite
def full_column_rank(draw):
    """An m x n integer matrix of rank n, with m >= n."""
    n = draw(st.integers(1, 6))
    a = draw(int_matrix(draw(st.integers(n, n + 3)), n))
    assume(oracle_det(la.matmul(la.transpose(a), a)) != 0)
    return a


class TestHnfCoordinates:
    @given(full_column_rank(), st.data())
    def test_recovers_integer_coordinates(self, a, data):
        h = la.column_hnf(a)
        x = data.draw(int_matrix(len(a[0]), data.draw(st.integers(1, 4)), bound=5))
        assert la.hnf_coordinates(h, la.matmul(h, x)) == x


class TestSolveFractionFree:
    @given(full_column_rank(), st.data())
    def test_square_matches_fraction_solution(self, a, data):
        n = len(a[0])
        a = a[:n] if oracle_det(a[:n]) else la.matmul(la.transpose(a), a)
        b = data.draw(int_matrix(n, data.draw(st.integers(1, 4)), bound=5))
        num, det = la.solve_fraction_free(a, b)
        assert det != 0
        assert la.matmul(a, num) == la.scale(det, b)
        # the solution is unique, so x = num / det is the Cramer solution
        d = oracle_det(a)
        for j in range(len(b[0])):
            for i in range(n):
                swapped = [list(row) for row in a]
                for r in range(n):
                    swapped[r][i] = b[r][j]
                assert Fraction(num[i][j], det) == Fraction(oracle_det(swapped), d)

    @given(full_column_rank(), st.data())
    def test_consistent_rectangular_system(self, a, data):
        x = data.draw(int_matrix(len(a[0]), 2, bound=5))
        num, det = la.solve_fraction_free(a, la.matmul(a, x))
        assert la.scale(det, x) == num

    def test_rank_deficient_is_value_error(self):
        with pytest.raises(ValueError, match="rank"):
            la.solve_fraction_free(((1, 2), (2, 4)), ((1,), (2,)))

    def test_inconsistent_is_value_error(self):
        with pytest.raises(ValueError, match="inconsistent"):
            la.solve_fraction_free(((1,), (1,)), ((1,), (2,)))


def oracle_rank(a) -> int:
    """Rank over the rationals by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for k in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][k] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][k] / m[rank][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def any_rank(draw):
    """An m x n integer matrix b @ c of rank at most r, for random r."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    if r == 0:
        return ((0,) * n,) * m
    return la.matmul(draw(int_matrix(m, r)), draw(int_matrix(r, n)))


def matrices():
    """Integer matrices of every rank: random ones (mostly of full rank) and
    low-rank products."""
    dims = st.tuples(st.integers(1, 6), st.integers(1, 6))
    return st.one_of(any_rank(), dims.flatmap(lambda d: int_matrix(*d)))


class TestKernelBasis:
    @given(matrices())
    @example(((0, 0), (0, 0)))
    @example(((1, 0), (0, 1)))
    def test_saturated_kernel_of_full_dimension(self, a):
        n = len(a[0])
        k = la.kernel_basis(a)
        assert la.shape(k) == (n, n - oracle_rank(a))
        assert all(not any(row) for row in la.matmul(a, k))
        cols = len(k[0])
        if cols:
            assert oracle_rank(k) == cols
            # saturated iff the maximal minors are coprime
            minors = [oracle_det([k[i] for i in rows])
                      for rows in itertools.combinations(range(n), cols)]
            assert math.gcd(*minors) == 1

    @pytest.mark.parametrize(
        "a, want",
        [
            (((1, 2, 3), (4, 5, 6)), ((1,), (-2,), (1,))),
            (((2, 4, 6), (1, 2, 3)), ((-2, -3), (1, 0), (0, 1))),
            (((0, 0), (0, 0)), ((1, 0), (0, 1))),
            (((1, 0), (0, 1)), ((), ())),
            (((6, 10, 15),), ((-5, 5), (-3, 0), (4, -2))),
            # floor division: truncating quotients give another basis here
            (((1, 4, -5), (2, -5, -3)), ((-37,), (-7,), (-13,))),
            (
                ((0, 3, -6, 9), (0, 2, -4, 6), (1, 1, 1, 1)),
                ((-3, 2), (2, -3), (1, 0), (0, 1)),
            ),
        ],
    )
    def test_fixed_outputs(self, a, want):
        assert la.kernel_basis(a) == want


class TestColumnHnf:
    @given(full_column_rank())
    def test_hermite_shape_and_same_lattice(self, a):
        h = la.column_hnf(a)
        assert la.shape(h) == la.shape(a)
        pivots = [next(i for i, x in enumerate(col) if x) for col in zip(*h)]
        assert pivots == sorted(set(pivots))  # strictly increasing
        for j, p in enumerate(pivots):
            assert h[p][j] > 0
            assert all(0 <= h[p][t] < h[p][j] for t in range(j))
        # each basis is an integer combination of the other
        for x, y in ((a, h), (h, a)):
            num, det = la.solve_fraction_free(x, y)
            assert all(v % det == 0 for row in num for v in row)

    @pytest.mark.parametrize(
        "a, want",
        [
            (((2, 0), (1, 3), (4, 5)), ((2, 0), (1, 3), (4, 5))),
            (((6, 4), (9, 6), (1, 1)), ((2, 0), (3, 0), (0, 1))),
            (((0, 0), (-3, 5), (7, 2)), ((0, 0), (1, 0), (25, 41))),
            (((4,), (-6,)), ((4,), (-6,))),
            (
                ((1, 2, 3), (4, 5, 6), (7, 8, 10)),
                ((1, 0, 0), (1, 3, 0), (0, 0, 1)),
            ),
        ],
    )
    def test_fixed_outputs(self, a, want):
        assert la.column_hnf(a) == want

    @pytest.mark.parametrize("a", [((1, 2), (2, 4)), ((0,),), ((1, 0, 2),)])
    def test_rank_deficient_is_value_error(self, a):
        with pytest.raises(ValueError, match="full column rank"):
            la.column_hnf(a)


class TestPermutationMatrix:
    @given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))))
    def test_round_trip(self, images):
        f = la.permutation_matrix(images)
        assert la.is_permutation_matrix(f)
        assert all(f[img][i] == 1 for i, img in enumerate(images))
        assert la.permutation_images(f) == tuple(images)
        assert la.permutation_matrix(la.permutation_images(f)) == f
