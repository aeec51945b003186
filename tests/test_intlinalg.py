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


def dense_solve(a, b):
    """The dense fraction-free Gauss-Jordan pass: every row other than the
    pivot row is rewritten at every step, even when its multiplier is 0."""
    m, n = la.shape(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, m) if rows[i][k]), None)
        if piv is None:
            raise ValueError("solve_fraction_free requires full column rank")
        rows[k], rows[piv] = rows[piv], rows[k]
        row_k = rows[k]
        p = row_k[k]
        for i in range(m):
            if i != k:
                f = rows[i][k]
                rows[i] = [(x * p - f * y) // prev for x, y in zip(rows[i], row_k)]
        prev = p
    if any(any(row[n:]) for row in rows[n:]):
        raise ValueError("inconsistent linear system")
    return la.freeze(row[n:] for row in rows[:n]), prev


def solve_outcome(solve, a, b):
    """(num, det), or the message of the ValueError raised."""
    try:
        return solve(a, b)
    except ValueError as exc:
        return str(exc)


@st.composite
def sparse_systems(draw):
    """(a, b) with a of full column rank, or close to it, whose elimination
    leaves many rows untouched for several steps, so their entries are
    brought up to date late: scaled signed permutations, block-diagonal
    matrices, scaled identities with a few dense rows, and random sparse
    matrices; the rows of a are then shuffled.  b is a @ x for an integer
    x, or random (then a tall system is mostly inconsistent)."""
    kind = draw(st.sampled_from(["monomial", "blocks", "identity+dense", "sparse"]))
    n = draw(st.integers(1, 8))
    extra = draw(st.integers(0, 3))
    a = [[0] * n for _ in range(n + extra)]
    if kind == "monomial":
        perm = draw(st.permutations(range(n)))
        for i, j in enumerate(perm):
            a[i][j] = draw(st.sampled_from((1, -1, 2, -2, 3, 5, -7)))
    elif kind == "blocks":
        start = 0
        while start < n:
            size = min(n - start, draw(st.integers(1, 3)))
            block = draw(int_matrix(size, size, bound=4))
            for i, row in enumerate(block):
                a[start + i][start : start + size] = row
            start += size
    elif kind == "identity+dense":
        for i in range(n):
            a[i][i] = draw(st.sampled_from((1, -1, 2, 3)))
        dense = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
        for i in draw(st.sets(st.integers(0, n + extra - 1), max_size=3)):
            a[i] = draw(dense)
    else:
        entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-4, 4))
        a = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          min_size=n + extra, max_size=n + extra))
    for i in range(n, n + extra):  # some tall rows: the sum of two rows above
        if draw(st.booleans()):
            a[i] = [x + y for x, y in zip(a[i - n], a[(i + 1) % n])]
    a = la.freeze(draw(st.permutations(a)))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        b = la.matmul(a, draw(int_matrix(n, k, bound=5)))
    else:
        b = draw(int_matrix(n + extra, k, bound=5))
    return a, b


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

    @settings(max_examples=400, deadline=None)
    @given(sparse_systems())
    # row 2 skips step 0; step 1 swaps it in as the pivot row for row 1,
    # which step 0 rewrote and which is now zero in column 1
    @example((((3, 1, 0), (6, 2, 1), (0, 5, 1)), ((1,), (2,), (3,))))
    # row 1 skips steps 0 and 1, moves down in the swap of step 1 and is
    # the pivot row of step 2
    @example((((2, 1, 0), (0, 0, 3), (1, 4, 0)), ((1, 0), (0, 1), (5, 5))))
    def test_sparse_systems_match_dense_pass(self, system):
        a, b = system
        assert solve_outcome(la.solve_fraction_free, a, b) == solve_outcome(
            dense_solve, a, b
        )

    @given(full_column_rank(), st.data())
    def test_dense_systems_match_dense_pass(self, a, data):
        b = data.draw(int_matrix(len(a), data.draw(st.integers(1, 3)), bound=5))
        assert solve_outcome(la.solve_fraction_free, a, b) == solve_outcome(
            dense_solve, a, b
        )

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
