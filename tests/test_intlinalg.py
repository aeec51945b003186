import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import goeritz._intlinalg as la
from goeritz import family
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


def oracle_ldlt_positive(a) -> bool:
    """True iff a is positive definite: every pivot of a symmetric Fraction
    elimination (LDL^T) in index order is positive."""
    m = [[Fraction(x) for x in row] for row in a]
    for k, pivot_row in enumerate(m):
        d = pivot_row[k]
        if d <= 0:
            return False
        for row in m[k + 1 :]:
            f = row[k] / d
            if f:
                for j in range(k + 1, len(m)):
                    row[j] -= f * pivot_row[j]
    return True


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


@st.composite
def relabelled(draw, matrices):
    """(g, perm, signs): a matrix g from `matrices` and a signed permutation
    of its size, P e_i = signs[i] e_perm[i]."""
    g = draw(matrices)
    perm = draw(st.permutations(range(len(g))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(g), max_size=len(g)))
    return g, perm, signs


def relabel(a, perm, signs):
    """P^T a P for the signed permutation (perm, signs): congruent to a."""
    return la.freeze(
        [[si * sj * a[pi][pj] for pj, sj in zip(perm, signs)] for pi, si in zip(perm, signs)]
    )


@st.composite
def laplacians(draw, vertices, negative_edges=2):
    """The Laplacian of a random connected multigraph, shaped like a
    pre-Goeritz matrix: a spanning tree plus up to `vertices` more edges,
    each of weight 1 but for at most `negative_edges` of weight -1."""
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, vertices)]
    pair = st.lists(st.integers(0, vertices - 1), min_size=2, max_size=2, unique=True)
    edges += draw(st.lists(pair, max_size=vertices))
    negative = draw(st.sets(st.integers(0, len(edges) - 1), max_size=negative_edges))
    g = [[0] * vertices for _ in range(vertices)]
    for e, (i, j) in enumerate(edges):
        w = -1 if e in negative else 1
        g[i][j] -= w
        g[j][i] -= w
        g[i][i] += w
        g[j][j] += w
    return la.freeze(g)


@st.composite
def dense_grams(draw):
    """+/-(A^T A + shift * I) of rank 12..30, A with n - 2..n + 2 rows of
    entries in [-5, 5]: dense forms that are definite, singular (fewer than
    n rows) or, with a negative shift, mostly indefinite."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(12, 30))
    a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(n - 2, n + 2))]
    g = la.matmul(la.transpose(a), a)
    shift = draw(st.sampled_from([0, 0, 1, -1, -3]))
    g = tuple(tuple(x + shift * (i == j) for j, x in enumerate(row)) for i, row in enumerate(g))
    return la.neg(g) if draw(st.booleans()) else g


def reduced(g):
    """g without row and column 0, as the Goeritz form drops region 0."""
    return tuple(row[1:] for row in g[1:])


def kn_block_sum(ns) -> la.IntMatrix:
    """The block sum of the K_n Goeritz forms goeritz_Gn(n), n in ns."""
    size = 2 * sum(ns)
    return family._block_sum([family.goeritz_Gn(n).matrix for n in ns], size, size)


def sylvester(minors, sign) -> bool:
    """Sylvester's criterion for sign * a, from the leading minors of a."""
    return all(sign**k * d > 0 for k, d in enumerate(minors, 1))


class TestIsPositiveDefinite:
    @settings(max_examples=12, deadline=None)
    @given(relabelled(st.integers(10, 41).flatmap(laplacians).map(reduced)))
    def test_reduced_laplacians_match_oracle(self, case):
        a = relabel(*case)
        minors = oracle_minors(a)
        for sign in (1, -1):
            assert la.is_positive_definite(a, sign) == sylvester(minors, sign)

    @settings(max_examples=30, deadline=None)
    @given(
        relabelled(st.lists(st.integers(1, 4), min_size=1, max_size=5).map(kn_block_sum)),
        st.booleans(),
    )
    def test_kn_block_sums_match_oracle(self, case, flip_last):
        g, perm, signs = case
        if flip_last:  # a positive definite last summand makes the sum indefinite
            g = tuple(row[:-2] + tuple(-x for x in row[-2:]) for row in g)
        a = relabel(g, perm, signs)
        minors = oracle_minors(a)
        assert sylvester(minors, -1) == (not flip_last)
        for sign in (1, -1):
            assert la.is_positive_definite(a, sign) == sylvester(minors, sign)

    @settings(max_examples=25, deadline=None)
    @given(relabelled(dense_grams()))
    def test_dense_grams_match_ldlt_oracle(self, case):
        g = case[0]
        a = relabel(*case)
        for sign in (1, -1):
            assert la.is_positive_definite(a, sign) == oracle_ldlt_positive(la.scale(sign, g))

    @settings(max_examples=10, deadline=None)
    @given(relabelled(st.integers(2, 25).flatmap(lambda n: laplacians(n, 0))), st.booleans())
    def test_fails_only_at_last_pivot(self, case, indefinite):
        # Every proper principal submatrix of the Laplacian g of a connected
        # graph on n vertices is positive definite, with least eigenvalue at
        # least 1 / (diameter * (n - 1)) > 1 / n^2, and det g = 0: in any
        # pivot order only the last pivot is 0.  n^2 * g - e_0 e_0^T keeps
        # those submatrices positive definite and has det < 0.
        g, perm, signs = case
        n = len(g)
        if indefinite:
            g = [[n * n * x - (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(g)]
        a = relabel(g, perm, signs)
        minors = oracle_minors(a)
        assert all(d > 0 for d in minors[:-1])
        assert (minors[-1] < 0) if indefinite else (minors[-1] == 0)
        assert not la.is_positive_definite(a, 1)
        assert not la.is_positive_definite(a, -1)

    @given(
        relabelled(st.one_of(forms(), st.integers(2, 41).flatmap(laplacians).map(reduced))),
        st.sampled_from([1, -1]),
    )
    @example((((0, 1), (1, 0)), (1, 0), (1, -1)), 1)  # zero first pivot in every order
    @example((((1, 1, 0), (1, 1, 0), (0, 0, 5)), (2, 0, 1), (1, 1, -1)), 1)  # singular block
    def test_invariant_under_signed_permutation(self, case, sign):
        g = case[0]
        assert la.is_positive_definite(relabel(*case), sign) == la.is_positive_definite(g, sign)

    def test_k100_is_negative_definite(self):
        g = family.goeritz_Gn(100)
        assert is_definite(g, -1)
        assert not is_definite(g, 1)


class TestIsDefinite:
    @given(forms(), st.sampled_from([1, -1]))
    @example(((1, 0), (0, -1)), 1)  # indefinite
    @example(((1, 1), (1, 1)), 1)  # positive semidefinite, singular
    @example(((-2, 1), (1, -1)), -1)  # negative definite
    def test_agrees_with_sylvester(self, g, sign):
        sylvester = all(d > 0 for d in oracle_minors(la.scale(sign, g)))
        assert is_definite(GramLattice(g), sign) == sylvester


class TestIsSymmetric:
    @given(
        st.one_of(
            symmetric_matrices(),
            st.integers(0, 5).flatmap(
                lambda n: st.lists(
                    st.lists(st.integers(0, 1), max_size=n + 1), min_size=n, max_size=n
                )
            ),
        )
    )
    @example(())
    @example(((7,),))
    @example(((1, 2), (2,)))
    def test_matches_index_loop(self, a):
        n, m = la.shape(a)
        try:
            want = n == m and all(a[i][j] == a[j][i] for i in range(n) for j in range(i))
        except IndexError:
            return  # a ragged input the index loop gives no answer on
        assert la.is_symmetric(a) == want


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
            # the first 1 of each column rebuilds a, but repeats an image
            ((1, 1), (0, 0)),
            ((1, 0), (0,)),  # ragged
            ((1, 0, 0), (0, 1, 0)),  # 2 x 3
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


def oracle_matmul(a, b):
    """a @ b by the triple loop, with matmul's truncation: the width of the
    shortest row of b, and len(b) terms per entry at most."""
    width = min((len(row) for row in b), default=0)
    return tuple(
        tuple(
            sum(row[k] * b[k][j] for k in range(min(len(row), len(b))))
            for j in range(width)
        )
        for row in a
    )


@st.composite
def sparse_int_matrix(draw, rows, cols):
    """A rows x cols matrix, mostly zero, with some entries up to 10**20 and
    some rows and columns zeroed out."""
    entry = st.one_of(
        st.just(0), st.just(0), st.integers(-3, 3), st.integers(-(10**20), 10**20)
    )
    row = st.lists(entry, min_size=cols, max_size=cols)
    mat = draw(st.lists(row, min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    return la.freeze(
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
        for i, r in enumerate(mat)
    )


@st.composite
def matmul_pairs(draw):
    """(a, b) of shapes m x k and k x n, each of m, k, n from 0 to 6, so
    empty, 1 x k and k x 1 shapes all occur."""
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(sparse_int_matrix(m, k)), draw(sparse_int_matrix(k, n))


class TestMatmul:
    @given(matmul_pairs())
    @example((((1, 2),), ((3,), (4,))))
    @example(((), ()))
    @example((((), ()), ()))
    @example((((0, 0), (0, 5)), ((7, 0), (0, 0))))
    def test_matches_triple_loop(self, pair):
        a, b = pair
        assert la.matmul(a, b) == oracle_matmul(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            # a row longer than b has rows: only the first len(b) terms count
            (((1, 2, 3),), ((4,), (5,))),
            # a ragged b: the width is its shortest row
            (((1, 1), (2, 0)), ((1, 2, 3), (4, 5))),
            (((1, 0),), ((1, 2), ())),
        ],
    )
    def test_truncates_like_zip(self, a, b):
        assert la.matmul(a, b) == oracle_matmul(a, b)

    def test_result_is_tuple_of_int_tuples(self):
        got = la.matmul(((0, 2), (0, 0)), ((5, 0), (1, -1)))
        assert got == ((2, -2), (0, 0))
        assert all(type(row) is tuple for row in got)
        assert all(type(x) is int for row in got for x in row)


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


def oracle_minor_gcd(a, r) -> int:
    """The gcd of the r x r minors of a.  Unimodular column operations and
    zero columns leave it unchanged, so for a of rank r it depends only on
    the lattice the columns span, and a sublattice of rank r and index k has
    k times the value."""
    m, n = la.shape(a)
    return math.gcd(*(
        oracle_det([[a[i][j] for j in cols] for i in rows])
        for rows in itertools.combinations(range(m), r)
        for cols in itertools.combinations(range(n), r)
    ))


def fraction_coordinates(h, b):
    """The x with (h @ x)[p] = b[p] on each pivot row p of the Hermite basis
    h, by Fraction forward substitution."""
    m, r = la.shape(h)
    x = []
    for j in range(r):
        p = next(i for i in range(m) if h[i][j])
        x.append([
            (v - sum(h[p][t] * x[t][k] for t in range(j))) / Fraction(h[p][j])
            for k, v in enumerate(b[p])
        ])
    return x


def assert_hermite_basis_of(h, a):
    """h is in Hermite form and its columns span the lattice of a's."""
    r = oracle_rank(a)
    assert la.shape(h) == (len(a), r)
    pivots = [next(i for i, x in enumerate(col) if x) for col in zip(*h)]
    assert pivots == sorted(set(pivots))  # strictly increasing
    for j, p in enumerate(pivots):
        assert h[p][j] > 0
        assert all(0 <= h[p][t] < h[p][j] for t in range(j))
    if not r:
        return  # a is zero, and h has no columns
    # a's columns are integer combinations of h's, and span a lattice of
    # index 1 in h's
    x = fraction_coordinates(h, a)
    assert all(v.denominator == 1 for row in x for v in row)
    assert la.matmul(h, x) == a
    assert oracle_minor_gcd(h, r) == oracle_minor_gcd(a, r)


class TestColumnHnf:
    @given(matrices())
    @example(((0, 0), (0, 0)))
    @example(((1, 2), (1, 2), (0, 0)))
    def test_hermite_shape_and_same_lattice(self, a):
        assert_hermite_basis_of(la.column_hnf(a), a)

    @given(matrices(), st.data())
    def test_depends_only_on_the_lattice(self, a, data):
        # shuffled, negated, one added to another, a zero and a repeated
        # column: other generators of the same lattice
        n = len(a[0])
        cols = [list(col) for col in zip(*a)]
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(-2, 2))
        if i != j:
            cols[i] = [x + k * y for x, y in zip(cols[i], cols[j])]
        cols = [[-x for x in col] if data.draw(st.booleans()) else col for col in cols]
        cols += [[0] * len(a), cols[i]]
        cols = data.draw(st.permutations(cols))
        assert la.column_hnf(la.transpose(cols)) == la.column_hnf(a)

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
            # zero columns are dropped
            (((0, 0), (0, 0)), ((), ())),
            (((0,),), ((),)),
            (((0, 4), (0, -6)), ((4,), (-6,))),
            # a repeated column is dropped
            (((2, 2, 0), (1, 1, 3), (4, 4, 5)), ((2, 0), (1, 3), (4, 5))),
            # dependent columns are reduced to a basis
            (((1, 2), (2, 4)), ((1,), (2,))),
            (((1, 0, 2),), ((1,),)),
            (((6, 10, 15),), ((1,),)),
            (((1, 2, 3), (4, 5, 6), (7, 8, 9)), ((1, 0), (1, 3), (1, 6))),
            (
                ((3, -3, 0, 1), (1, -1, 2, 0), (0, 0, 4, 1)),
                ((1, 0, 0), (0, 1, 0), (1, 7, 10)),
            ),
        ],
    )
    def test_fixed_outputs(self, a, want):
        assert la.column_hnf(a) == want
        assert_hermite_basis_of(want, a)


class TestHnfCoordinates:
    @given(full_column_rank(), st.data())
    def test_recovers_integer_coordinates(self, a, data):
        h = la.column_hnf(a)
        x = data.draw(int_matrix(len(a[0]), data.draw(st.integers(1, 4)), bound=5))
        num, det = la.hnf_coordinates(h, la.matmul(h, x))
        assert num == la.scale(det, x)

    @given(matrices(), st.data())
    def test_matches_fraction_forward_substitution(self, a, data):
        # h spans a sublattice of a's lattice of the same rank, so b = a @ y
        # lies in the span of h and its coordinates are rational
        n = len(a[0])
        u = data.draw(int_matrix(n, n))
        sub = la.matmul(a, u)
        assume(oracle_rank(sub) == oracle_rank(a))
        h = la.column_hnf(sub)
        b = la.matmul(a, data.draw(int_matrix(n, data.draw(st.integers(1, 3)), bound=5)))
        num, det = la.hnf_coordinates(h, b)
        assert det == math.prod(next(x for x in col if x) for col in zip(*h))
        assert [[Fraction(v, det) for v in row] for row in num] == fraction_coordinates(h, b)
        if num:  # when a is zero, h and num are empty and b is zero
            assert la.matmul(h, num) == la.scale(det, b)

    @pytest.mark.parametrize(
        "h, b, want",
        [
            # pivots 2 and 3: b's coordinates 1/2 and -1/6 over det = 6
            (((2, 0), (1, 3), (0, 0)), ((1,), (0,), (0,)), (((3,), (-1,)), 6)),
            # integral coordinates 2 and -1, scaled by det = 6
            (((2, 0), (1, 3), (0, 0)), ((4, 0), (-1, 0), (0, 0)), (((12, 0), (-6, 0)), 6)),
            # a unimodular basis: det = 1, and b is read off the pivot rows
            (((1, 0), (3, 0), (0, 1)), ((2,), (6,), (-5,)), (((2,), (-5,)), 1)),
        ],
    )
    def test_fixed_outputs(self, h, b, want):
        assert la.hnf_coordinates(h, b) == want


class TestPermutationMatrix:
    @given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))))
    def test_round_trip(self, images):
        f = la.permutation_matrix(images)
        assert all(f[img][i] == 1 for i, img in enumerate(images))
        assert la.permutation_images(f) == tuple(images)
        assert la.permutation_matrix(la.permutation_images(f)) == f
