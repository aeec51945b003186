import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import goeritz._intlinalg as la
from goeritz import equivariance, family, lattice
from goeritz.equivariance import (
    EquivarianceVerdict,
    SpanTestResult,
    exists_equivariant_embedding,
    find_equivariant_witness,
    is_isometry,
    span_restriction_test,
)
from goeritz.lattice import (
    GramLattice,
    LatticeEmbedding,
    SearchIncomplete,
    SignedPermutation,
    StandardTarget,
    _canonical_rows,
    _match_rows,
    enumerate_embeddings,
    iter_embeddings,
)

G_MINUS = GramLattice(family.G_MINUS_12A1019)


def exhaustive_witness_exists(phi_mat, f):
    """Oracle: iterate all signed permutations of the target coordinates."""
    m = len(phi_mat)
    rhs = la.matmul(phi_mat, f)
    for perm in itertools.permutations(range(m)):
        signs = []
        for r in range(m):
            row = phi_mat[perm[r]]
            if rhs[r] == row:
                signs.append(1)
            elif rhs[r] == tuple(-x for x in row):
                signs.append(-1)
            else:
                break
        else:
            return True
    return False


def fraction_solve(a, b):
    """Oracle: solve a @ x = b by Fraction Gauss-Jordan (a of full column
    rank, the system consistent); an n x k matrix of Fractions."""
    m, n = la.shape(a)
    _, k = la.shape(b)
    aug = [[Fraction(x) for x in ra] + [Fraction(x) for x in rb] for ra, rb in zip(a, b)]
    r = 0
    for c in range(n):
        piv = next(i for i in range(r, m) if aug[i][c] != 0)
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    assert all(x == 0 for row in aug[n:] for x in row[n:]), "inconsistent"
    return tuple(tuple(aug[i][n + j] for j in range(k)) for i in range(n))


def integer_kernel(a, n):
    """Z-basis of {v in Z^n : a @ v = 0}, as a list of vectors: the columns
    of the Hermite basis of a stacked over the n x n identity that vanish on
    the rows of a (an echelon basis meets that sublattice in a basis)."""
    h = la.column_hnf(tuple(a) + la.identity(n))
    return [col[len(a):] for col in zip(*h) if not any(col[: len(a)])]


def saturation(rows):
    """Column Hermite basis of the saturation of the lattice spanned by the
    columns of rows: the integer vectors orthogonal to every integer vector
    orthogonal to those columns."""
    m = len(rows)
    left = integer_kernel(la.transpose(rows), m)
    return la.column_hnf(la.transpose(integer_kernel(left, m)))


def oracle_span_test(phi, f):
    """The span test on the saturation of the image, by integer kernels, a
    column HNF and Fraction elimination, with the explicit isometry check on
    the saturation that the library leaves out as implied.  Its induced map
    is written in the Hermite basis of the saturation."""
    basis = saturation(phi.matrix)
    coords = fraction_solve(basis, phi.matrix)
    assert all(x.denominator == 1 for row in coords for x in row)
    coords = tuple(tuple(int(x) for x in row) for row in coords)
    rhs = la.matmul(coords, f)
    induced = la.transpose(fraction_solve(la.transpose(coords), la.transpose(rhs)))
    certificate = tuple(
        (i, j, x)
        for i, row in enumerate(induced)
        for j, x in enumerate(row)
        if x.denominator != 1
    )
    if not certificate:
        m_int = tuple(tuple(int(x) for x in row) for row in induced)
        form = la.scale(phi.target.sign, la.matmul(la.transpose(basis), basis))
        assert la.matmul(la.matmul(la.transpose(m_int), form), m_int) == form, (
            "induced map is not an isometry of the saturation"
        )
    return SpanTestResult(induced, certificate)


def checked_span_test(phi, f):
    """span_restriction_test(phi, f), checked against the oracle: it passes
    iff the oracle does, its induced map M satisfies H^T f = M H^T exactly
    for the Hermite basis H of the row lattice of phi (which fixes M, as H^T
    has full row rank), and its certificate lists the non-integral entries
    of M."""
    res = span_restriction_test(phi, f)
    ht = la.transpose(la.column_hnf(la.transpose(phi.matrix)))
    assert la.matmul(res.induced_map, ht) == la.matmul(ht, f)
    assert res.certificate == tuple(
        (i, j, x)
        for i, row in enumerate(res.induced_map)
        for j, x in enumerate(row)
        if x.denominator != 1
    )
    assert res.passed == oracle_span_test(phi, f).passed
    return res


def span_first_verdict(phi, f):
    """Oracle: the span test first, then the row match."""
    span = checked_span_test(phi, f)
    if not span.passed:
        return EquivarianceVerdict(certificate=span.certificate)
    return EquivarianceVerdict(witness=_match_rows(phi.matrix, la.matmul(phi.matrix, f)))


def with_dependent_column(phi, f, v):
    """([phi | phi v], [[f, f v - v], [0, 1]]): one more source column, the
    combination v of the others, so the source form is semidefinite.  The
    new action is an isometry of it: [phi | phi v] times it is
    [phi f | phi f v]."""
    v_col = tuple((x,) for x in v)
    mat = tuple(row + extra for row, extra in zip(phi, la.matmul(phi, v_col)))
    ext = tuple(row + (y - x,) for row, (y,), x in zip(f, la.matmul(f, v_col), v))
    return mat, ext + ((0,) * len(v) + (1,),)


# |entry| shapes of small vectors by squared norm.  Two shapes of one norm
# are twins: (1, 3) and (1, 1, 2, 2) leave a row match to fail, while (2,)
# and (1, 1, 1, 1), whose first shape is not primitive, make the image
# lattice unsaturated and the induced map non-integral.
SHAPES: dict[int, list[tuple[int, ...]]] = {}
for _len in (1, 2, 3, 4):
    for _shape in itertools.combinations_with_replacement((1, 2, 3), _len):
        SHAPES.setdefault(sum(x * x for x in _shape), []).append(_shape)
NORMS = sorted(SHAPES)
TWIN_NORMS = [norm for norm in NORMS if len(SHAPES[norm]) > 1]


@st.composite
def invariant_embeddings(draw):
    """(phi, f): an embedding of a definite or semidefinite form and an
    isometry f of it.

    The columns come in blocks.  Every column of a block has the same norm,
    its own disjoint support, and the block's shared vector c on a few common
    coordinates, so every permutation of a block's columns preserves the
    form; f rotates each block, and negates columns where c = 0.  Twin
    shapes within a block make all three outcomes occur.  Zero rows, up to
    two dependent columns (with_dependent_column, so the form may be
    semidefinite), a signed permutation of the rows and a relabelling of the
    source basis are drawn too.
    """
    shared = draw(st.integers(0, 2))
    cols, images = [], []
    for _ in range(draw(st.integers(1, 3))):
        norm = draw(st.sampled_from(TWIN_NORMS) | st.sampled_from(NORMS))
        size = draw(st.integers(1, 3))
        c = draw(st.lists(st.integers(-2, 2), min_size=shared, max_size=shared))
        shift = draw(st.integers(1, size))  # shift == size fixes the block
        for k in range(size):
            shape = draw(st.sampled_from(SHAPES[norm]))
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(shape),
                                  max_size=len(shape)))
            flip = draw(st.sampled_from((1, -1))) if not any(c) else 1
            cols.append((c, tuple(s * x for s, x in zip(signs, shape))))
            images.append((len(cols) - 1 - k + (k + shift) % size, flip))
    pad = draw(st.integers(0, 2))
    m = shared + sum(len(part) for _, part in cols) + pad
    rows = [[0] * len(cols) for _ in range(m)]
    offset = shared
    for j, (c, part) in enumerate(cols):
        for i, x in enumerate(c):
            rows[i][j] = x
        for i, x in enumerate(part):
            rows[offset + i][j] = x
        offset += len(part)
    n = len(cols)
    f = [[0] * n for _ in range(n)]
    for j, (img, flip) in enumerate(images):
        f[img][j] = flip
    rows, f = la.freeze(rows), la.freeze(f)
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        v = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
        rows, f = with_dependent_column(rows, f, v)
        n += 1
    t = SignedPermutation(
        tuple(draw(st.permutations(range(m)))),
        tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))),
    )
    q = draw(st.permutations(range(n)))
    phi = la.freeze([[row[q[k]] for k in range(n)] for row in t.apply_rows(rows)])
    f = la.freeze([[f[q[a]][q[b]] for b in range(n)] for a in range(n)])
    sign = draw(st.sampled_from((1, -1)))
    g = la.scale(sign, la.matmul(la.transpose(phi), phi))
    return LatticeEmbedding(phi, GramLattice(g), StandardTarget(m, sign)), f


def reflection(p, j):
    """x -> x - <x, e_j> e_j for the positive form p with p[j][j] == 2."""
    n = len(p)
    return la.freeze([[(a == b) - (a == j) * p[j][b] for b in range(n)] for a in range(n)])


@st.composite
def invariant_forms(draw, max_rank=6):
    """(G, f, sign): a sign-definite form of rank 1 to max_rank invariant
    under a permutation matrix P; entries off the diagonal are in {-1, 0, 1},
    one value per orbit of index pairs, and the diagonal dominates.  The
    isometry f is P, -P, -Id, or the reflection in a basis vector of norm 2
    when there is one, whose columns have two nonzero entries."""
    n = draw(st.integers(1, max_rank))
    perm = draw(st.permutations(range(n)))
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and g[i][j] is None:
                v = draw(st.integers(-1, 1))
                a, b = i, j
                while g[a][b] is None:
                    g[a][b] = g[b][a] = v
                    a, b = perm[a], perm[b]
    slack = draw(st.integers(1, 2))
    for i in range(n):
        g[i][i] = -(sum(abs(g[i][j]) for j in range(n) if j != i) + slack)
    sign = draw(st.sampled_from((1, -1)))
    p = la.permutation_matrix(perm)
    actions = [p, la.neg(p), la.neg(la.identity(n))]
    roots = [j for j in range(n) if g[j][j] == -2]
    if roots:
        actions.append(reflection(la.neg(la.freeze(g)), draw(st.sampled_from(roots))))
    f = draw(st.sampled_from(actions))
    lat = GramLattice(la.scale(-sign, la.freeze(g)))
    assert is_isometry(f, lat)
    return lat, f, sign


def first_stream_match(lat, f, corank, sign):
    """(rep, witness) for the first class of the unpruned stream whose rows
    match under f, or None: the oracle for the pruned search."""
    for rep in iter_embeddings(lat, corank, sign):
        witness = _match_rows(rep.matrix, la.matmul(rep.matrix, f))
        if witness is not None:
            return rep, witness
    return None


def assert_pruned_stream_keeps_every_match(lat, f, corank, sign):
    """The action only cuts: the pruned stream is the unpruned one, in its
    order, less classes whose rows do not match."""
    full = [e.matrix for e in iter_embeddings(lat, corank, sign)]
    pruned = [e.matrix for e in iter_embeddings(lat, corank, sign, action=f)]
    rest = iter(full)
    assert all(mat in rest for mat in pruned)  # a subsequence
    matching = [mat for mat in full if _match_rows(mat, la.matmul(mat, f))]
    assert set(matching) <= set(pruned)


# Positive definite root lattices (Cartan matrices).  A simple reflection is
# an integral isometry with two nonzero entries in some columns, and the
# products below have more, so the row-match checks see actions that are
# not signed permutations.
ROOT_FORMS = {
    "A_2": ((2, -1), (-1, 2)),
    "A_3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "D_4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
}


def coxeter_element(p):
    """The product of the simple reflections, in basis order."""
    return functools.reduce(la.matmul, [reflection(p, j) for j in range(len(p))])


def root_form_cases():
    for name, p in ROOT_FORMS.items():
        reflections = [reflection(p, j) for j in range(len(p))]
        # each simple reflection, and their product: a Coxeter element
        actions = reflections + [coxeter_element(p)]
        if name == "D_4":  # triality after the central reflection: no witness
            actions.append(la.matmul(la.permutation_matrix((2, 1, 3, 0)), reflections[1]))
        for k, f in enumerate(actions):
            yield pytest.param(p, f, id=f"{name}-{k}")


def fixture_cases():
    cases = [(phi, family.ACTION_12A1019) for phi in family.phi_embeddings_12a1019()]
    for corank in (1, 2):
        cases += [(e, family.ACTION_12A1019)
                  for e in enumerate_embeddings(G_MINUS, corank, -1)]
    for n in (2, 3, 4, 5):
        cases += [(e, family.action_fn(n)) for e in family.family_embeddings(n)]
    return cases


def random_signed_permutation(m, rng):
    perm = list(range(m))
    rng.shuffle(perm)
    return SignedPermutation(
        tuple(perm), tuple(rng.choice((1, -1)) for _ in range(m))
    )


class TestIsIsometry:
    def test_12a1019_rotation(self):
        assert is_isometry(family.ACTION_12A1019, G_MINUS)

    def test_identity(self):
        assert is_isometry(la.identity(6), G_MINUS)

    def test_swap_fails_on_g1(self):
        assert not is_isometry(((0, 1), (1, 0)), family.goeritz_Gn(1))

    def test_kn_rotation(self):
        for n in (2, 3, 4, 5, 6):
            assert is_isometry(family.action_fn(n), family.goeritz_Gn(n))
            assert la.permutation_order(la.permutation_images(family.action_fn(n))) == n


class TestSpanRestriction:
    def test_identity_passes(self):
        for phi in family.phi_embeddings_12a1019():
            assert span_restriction_test(phi, la.identity(6)).passed

    def test_phi2_passes_with_rotation(self):
        phi2 = family.phi_embeddings_12a1019()[1]
        assert span_restriction_test(phi2, family.ACTION_12A1019).passed

    def test_k2_psi1_denominator(self):
        phi = family.family_embeddings(2)[0]  # psi_1, first index 1
        res = span_restriction_test(phi, family.action_fn(2))
        assert not res.passed
        assert res.certificate == ((0, 3, Fraction(-11, 5)), (1, 3, Fraction(-3, 5)))

    def test_k2_psi2_denominator(self):
        phi = family.family_embeddings(2)[1]  # psi_2, first index 2
        res = span_restriction_test(phi, family.action_fn(2))
        assert res.certificate == ((0, 3, Fraction(-6, 5)), (1, 3, Fraction(-8, 5)))

    def test_k4_psi1_denominator(self):
        phi = family.family_embeddings(4)[0]  # psi_1 + psi_1
        res = span_restriction_test(phi, family.action_fn(4))
        assert res.certificate == tuple(
            (i, j, Fraction(x, 5))
            for i, j, x in [(0, 3, -8), (0, 7, -3), (1, 3, -4), (1, 7, 1),
                            (4, 3, -3), (4, 7, -8), (5, 3, 1), (5, 7, -4)]
        )

    def test_k4_psi2_first_denominator(self):
        phi = family.family_embeddings(4)[-1]  # psi_2 + psi_2
        res = span_restriction_test(phi, family.action_fn(4))
        assert res.certificate == tuple(
            (i, j, Fraction(x, 5))
            for i, j, x in [(0, 3, -3), (0, 7, -3), (1, 3, -9), (1, 7, 1),
                            (4, 3, -3), (4, 7, -3), (5, 3, 1), (5, 7, -9)]
        )

    def test_k3_family_denominators(self):
        for phi in family.family_embeddings(3):
            res = span_restriction_test(phi, family.action_fn(3))
            assert not res.passed
            assert any(x.denominator == 5 for _, _, x in res.certificate)

    @pytest.mark.parametrize("v", [(0, 0, 0, 0), (1, 0, 0, 0), (1, -1, 0, 1)])
    def test_semidefinite_source(self, v):
        # K_2's psi_2 with a zero, a repeated or a dependent fifth column:
        # the source form is semidefinite, the rows still fail to match, and
        # the certificate is psi_2's, in the first four columns of the
        # induced map
        phi = family.family_embeddings(2)[1]
        mat, f = with_dependent_column(phi.matrix, family.action_fn(2), v)
        g = la.scale(phi.target.sign, la.matmul(la.transpose(mat), mat))
        emb = LatticeEmbedding(mat, GramLattice(g), phi.target)
        assert not any(itertools.chain(*la.matmul(g, tuple((x,) for x in v + (-1,)))))
        res = checked_span_test(emb, f)
        assert res.certificate == ((0, 3, Fraction(-6, 5)), (1, 3, Fraction(-8, 5)))
        assert find_equivariant_witness(emb, f).outcome == "refuted_rational"

    @settings(max_examples=150, deadline=None)
    @given(invariant_embeddings())
    def test_agrees_with_fraction_oracle(self, case):
        checked_span_test(*case)

    def test_fixtures_agree_with_fraction_oracle(self):
        for phi, f in fixture_cases():
            checked_span_test(phi, f)

    @settings(max_examples=150, deadline=None)
    @given(invariant_embeddings())
    def test_integral_induced_map_is_isometry_of_saturation(self, case):
        # phi maps L' = {y : phi y integral} onto the saturation: the basis D
        # dual to H (H^T D = Id, D in the row space) goes to a basis of it,
        # on which the induced map preserves the form.  So an integral
        # induced map is an isometry of the saturation, and the span test
        # needs no isometry check of its own.
        phi, f = case
        res = span_restriction_test(phi, f)
        h = la.column_hnf(la.transpose(phi.matrix))
        ht = la.transpose(h)
        d = la.transpose(fraction_solve(la.matmul(ht, h), ht))
        assert la.matmul(ht, d) == la.identity(len(ht))
        image = la.matmul(phi.matrix, d)
        assert all(x.denominator == 1 for row in image for x in row)
        basis = tuple(tuple(int(x) for x in row) for row in image)
        assert la.column_hnf(basis) == saturation(phi.matrix)
        form = la.scale(phi.target.sign, la.matmul(la.transpose(basis), basis))
        m = res.induced_map
        assert la.matmul(la.matmul(la.transpose(m), form), m) == form

    def test_zero_rows_change_nothing(self):
        # the result depends only on the row lattice: zero rows interleaved
        # anywhere or removed, and rows permuted and negated, leave the
        # induced map and the certificate the same
        rng = random.Random(11)
        for phi, f in fixture_cases():
            rows = [row for row in phi.matrix if any(row)]
            zero = (0,) * phi.source.rank
            results = set()
            for extra in (0, 1, 3):
                mixed = list(rows)
                for _ in range(extra):
                    mixed.insert(rng.randrange(len(mixed) + 1), zero)
                t = random_signed_permutation(len(mixed), rng)
                target = StandardTarget(len(mixed), phi.target.sign)
                emb = LatticeEmbedding(t.apply_rows(tuple(mixed)), phi.source, target)
                results.add(repr(span_restriction_test(emb, f)))
            assert results == {repr(span_restriction_test(phi, f))}

    def test_column_hnf_sees_only_the_nonzero_rows(self, monkeypatch):
        seen = []
        column_hnf = la.column_hnf

        def spy(a):
            seen.append(la.shape(a))
            return column_hnf(a)

        monkeypatch.setattr(la, "column_hnf", spy)
        for phi, f in fixture_cases():
            zero = (0,) * phi.source.rank
            padded = LatticeEmbedding(
                phi.matrix + (zero,) * 5, phi.source,
                StandardTarget(phi.target.rank + 5, phi.target.sign),
            )
            nonzero = sum(1 for row in phi.matrix if any(row))
            seen.clear()
            span_restriction_test(padded, f)
            # column_hnf(a) reads a's columns as phi's rows
            assert seen == [(phi.source.rank, nonzero)]

    def test_oracle_saturation_of_family_is_coordinate_prefix(self):
        # even n: the image saturates to the first 2n coordinates
        phi = family.family_embeddings(2)[0]
        assert saturation(phi.matrix) == tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(5)
        )


class TestFindWitness:
    def test_12a1019_both_classes_witnessed(self):
        for phi in family.phi_embeddings_12a1019():
            v = find_equivariant_witness(phi, family.ACTION_12A1019)
            assert v.outcome == "witness"
            fmat = v.witness.matrix()
            assert la.matmul(fmat, phi.matrix) == la.matmul(
                phi.matrix, family.ACTION_12A1019
            )

    def test_zero_rows_are_matched_identically_in_index_order(self):
        # 10**5 zero rows: each is matched to itself with sign +1
        phi = family.phi_embeddings_12a1019()[1]
        extra = 10**5
        padded = LatticeEmbedding(
            phi.matrix + ((0,) * 6,) * extra, phi.source,
            StandardTarget(7 + extra, phi.target.sign),
        )
        v = find_equivariant_witness(padded, family.ACTION_12A1019)
        assert v.witness.perm[:7] == find_equivariant_witness(
            phi, family.ACTION_12A1019
        ).witness.perm
        assert v.witness.perm[7:] == tuple(range(7, 7 + extra))
        assert v.witness.signs[7:] == (1,) * extra

    def test_identity_action_identity_witness(self):
        phi = family.phi_embeddings_12a1019()[0]
        v = find_equivariant_witness(phi, la.identity(6))
        assert v.witness == SignedPermutation(tuple(range(7)), (1,) * 7)

    def test_k2_refuted_with_fifths_certificate(self):
        phi = family.family_embeddings(2)[0]
        v = find_equivariant_witness(phi, family.action_fn(2))
        assert v.outcome == "refuted_rational"
        assert v.certificate == ((0, 3, Fraction(-11, 5)), (1, 3, Fraction(-3, 5)))

    def test_k4_refuted_with_fifths_certificate(self):
        phi = family.family_embeddings(4)[0]
        v = find_equivariant_witness(phi, family.action_fn(4))
        assert v.outcome == "refuted_rational"
        assert v.certificate[:2] == ((0, 3, Fraction(-8, 5)), (0, 7, Fraction(-3, 5)))

    def test_precondition_checked(self):
        phi = family.psi_block(3)
        with pytest.raises(ValueError, match="isometry"):
            find_equivariant_witness(phi, ((0, 1), (1, 0)))

    @settings(max_examples=150, deadline=None)
    @given(invariant_embeddings())
    def test_match_first_equals_span_first(self, case):
        phi, f = case
        assert find_equivariant_witness(phi, f) == span_first_verdict(phi, f)

    def test_fixtures_match_first_equals_span_first(self):
        for phi, f in fixture_cases():
            assert find_equivariant_witness(phi, f) == span_first_verdict(phi, f)

    @pytest.mark.parametrize(
        "f",
        [
            ((1, 0), (0, 1), (0, 0)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0, 0), (0, 1, 0)),
            ((1, 0), (0,)),
            ((1,),),
        ],
    )
    def test_wrong_shape_is_value_error(self, f):
        phi = family.psi_block(3)  # rank 2
        with pytest.raises(ValueError, match="shape"):
            find_equivariant_witness(phi, f)
        with pytest.raises(ValueError, match="shape"):
            span_restriction_test(phi, f)

    def test_non_isometry_is_value_error_on_every_class(self):
        # A non-isometry never has a witness, so the span test always runs
        # and rejects it.
        swap = la.freeze([[1 if j == (i + 1) % 6 else 0 for j in range(6)]
                          for i in range(6)])
        assert not is_isometry(swap, G_MINUS)
        for phi in enumerate_embeddings(G_MINUS, 1, -1):
            with pytest.raises(ValueError, match="isometry"):
                find_equivariant_witness(phi, swap)

    def test_is_isometry_at_most_once(self, monkeypatch):
        calls = []
        real = equivariance.is_isometry
        monkeypatch.setattr(
            equivariance, "is_isometry", lambda *a: calls.append(1) or real(*a)
        )
        cases = [(phi, family.ACTION_12A1019) for phi in family.phi_embeddings_12a1019()]
        cases.append((family.family_embeddings(2)[0], family.action_fn(2)))
        for phi, f in cases:
            calls.clear()
            v = find_equivariant_witness(phi, f)
            assert len(calls) == (0 if v.witness is not None else 1)

    def test_witness_order_fixes_span(self):
        # a witness for an order-p action fixes every image vector at power p
        phi = family.phi_embeddings_12a1019()[0]
        v = find_equivariant_witness(phi, family.ACTION_12A1019)
        fmat = v.witness.matrix()
        power = la.identity(7)
        for _ in range(3):
            power = la.matmul(power, fmat)
        assert la.matmul(power, phi.matrix) == phi.matrix

    def test_agrees_with_exhaustive_iteration(self):
        rng = random.Random(11)
        fixtures = [
            (phi, family.ACTION_12A1019) for phi in family.phi_embeddings_12a1019()
        ] + [(family.family_embeddings(2)[i], family.action_fn(2)) for i in (0, 1)]
        cases = 0
        while cases < 20:
            phi, f = fixtures[cases % len(fixtures)]
            t = random_signed_permutation(len(phi.matrix), rng)
            moved = LatticeEmbedding(t.apply_rows(phi.matrix), phi.source, phi.target)
            got = find_equivariant_witness(moved, f).outcome == "witness"
            assert got == exhaustive_witness_exists(moved.matrix, f)
            cases += 1

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        for phi, f, expect in [
            (family.phi_embeddings_12a1019()[0], family.ACTION_12A1019, True),
            (family.family_embeddings(2)[0], family.action_fn(2), False),
        ]:
            for _ in range(10):
                t = random_signed_permutation(len(phi.matrix), rng)
                moved = LatticeEmbedding(
                    t.apply_rows(phi.matrix), phi.source, phi.target
                )
                assert (
                    find_equivariant_witness(moved, f).outcome == "witness"
                ) is expect

    def test_span_failure_implies_search_refutes(self):
        # a rational refutation must never contradict the exhaustive search
        for n in (2, 3):
            f = family.action_fn(n)
            for phi in family.family_embeddings(n):
                assert find_equivariant_witness(phi, f).witness is None
                assert not exhaustive_witness_exists(phi.matrix, f)


class TestExistsEquivariant:
    def test_12a1019_has_witness_pair(self):
        hit = exists_equivariant_embedding(G_MINUS, family.ACTION_12A1019, 1, -1)
        assert hit is not None
        emb, witness = hit
        assert la.matmul(witness.matrix(), emb.matrix) == la.matmul(
            emb.matrix, family.ACTION_12A1019
        )

    def test_k2_empty(self):
        assert (
            exists_equivariant_embedding(
                family.goeritz_Gn(2), family.action_fn(2), 1, -1
            )
            is None
        )

    def test_k3_empty(self):
        assert (
            exists_equivariant_embedding(
                family.goeritz_Gn(3), family.action_fn(3), 2, -1
            )
            is None
        )

    def test_isometry_precondition(self):
        with pytest.raises(ValueError, match="isometry"):
            exists_equivariant_embedding(
                family.goeritz_Gn(1), ((0, 1), (1, 0)), 1, -1
            )

    def test_wrong_shape_is_value_error(self):
        with pytest.raises(ValueError, match="shape"):
            exists_equivariant_embedding(G_MINUS, la.identity(7), 1, -1)

    @pytest.mark.parametrize(
        "lat, f, corank, expect",
        [
            (G_MINUS, family.ACTION_12A1019, 1, True),
            (family.goeritz_Gn(2), family.action_fn(2), 1, False),
            (family.goeritz_Gn(3), family.action_fn(3), 2, False),
        ],
    )
    def test_row_match_alone_decides(self, monkeypatch, lat, f, corank, expect):
        # iter_embeddings checks the isometry, once, in lattice
        calls = []
        real = lattice.is_isometry

        def forbidden(*args):
            raise AssertionError("span test on the decision path")

        monkeypatch.setattr(
            lattice, "is_isometry", lambda *a: calls.append(1) or real(*a)
        )
        monkeypatch.setattr(equivariance, "span_restriction_test", forbidden)
        monkeypatch.setattr(equivariance, "find_equivariant_witness", forbidden)
        hit = exists_equivariant_embedding(lat, f, corank, -1)
        assert (hit is not None) is expect
        assert len(calls) == 1

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_12a1019_stops_at_the_first_witness(self, sign):
        # the whole unpruned corank-1 search takes 2,484 nodes; the first
        # class, which has a witness, is found within 894, row-match checks
        # included
        lat = G_MINUS if sign == -1 else G_MINUS.negated()
        f = family.ACTION_12A1019
        assert exists_equivariant_embedding(lat, f, 1, sign, max_nodes=894) is not None
        with pytest.raises(SearchIncomplete):
            exists_equivariant_embedding(lat, f, 1, sign, max_nodes=893)

    def test_k4_refutation_needs_more_than_1000_nodes(self):
        # obstruct --preset k_n:4 --budget 1000 must stay inconclusive: each
        # row-match check is charged 2 * rows * |J| nodes (at 1 per check the
        # refutation would take 515)
        lat, f = family.goeritz_Gn(4), family.action_fn(4)
        assert exists_equivariant_embedding(lat, f, 1, -1, max_nodes=1308) is None
        with pytest.raises(SearchIncomplete):
            exists_equivariant_embedding(lat, f, 1, -1, max_nodes=1307)
        with pytest.raises(SearchIncomplete):
            exists_equivariant_embedding(lat, f, 1, -1, max_nodes=1000)

    @pytest.mark.parametrize(
        "n, corank, nodes",
        [
            pytest.param(n, 2, nodes, id=f"{n}-{nodes}")
            for n, nodes in [(5, 4361), (7, 16706), (9, 52337), (11, 125976), (17, 955581)]
        ]
        + [pytest.param(20, 1, 1897668, id="20-corank-1-1897668")],
    )
    def test_kn_refutation_node_counts(self, n, corank, nodes):
        # the row-match charges included; the count is exact, so a change
        # to how the checks are computed must keep every cut and every charge
        lat, f = family.goeritz_Gn(n), family.action_fn(n)
        assert exists_equivariant_embedding(lat, f, corank, -1, max_nodes=nodes) is None
        with pytest.raises(SearchIncomplete):
            exists_equivariant_embedding(lat, f, corank, -1, max_nodes=nodes - 1)

    @pytest.mark.parametrize(
        "lat, f, corank, sign, classes, nodes",
        [pytest.param(G_MINUS, family.ACTION_12A1019, 1, -1, 2, 2150, id="12a1019")]
        + [  # D_4-4 of root_form_cases: image columns with several terms
            pytest.param(
                GramLattice(ROOT_FORMS["D_4"]), coxeter_element(ROOT_FORMS["D_4"]),
                corank, 1, 3, nodes, id=f"D_4-4-corank-{corank}",
            )
            for corank, nodes in [(0, 216), (1, 246), (2, 276)]
        ],
    )
    def test_whole_pruned_stream_node_count(self, lat, f, corank, sign, classes, nodes):
        stream = iter_embeddings(lat, corank, sign, max_nodes=nodes, action=f)
        assert len(list(stream)) == classes
        with pytest.raises(SearchIncomplete):
            list(iter_embeddings(lat, corank, sign, max_nodes=nodes - 1, action=f))

    def test_k4_relabellings_refute_at_nearly_the_same_cost(self):
        # every permutation of the blocks of K_4 with any basis signs
        # refutes in 1,295 to 1,351 nodes: the checks use every power of f
        # and the search runs in one sign gauge (with f alone and no gauge,
        # 1,573 to 1,791)
        g, f = family.goeritz_Gn(4).matrix, family.action_fn(4)
        rng = random.Random(4)
        for blocks in itertools.permutations(range(4)):
            images = [blocks[k] * 2 + a for k in range(4) for a in range(2)]
            signs = [rng.choice((1, -1)) for _ in range(8)]
            p = [[signs[j] if images[j] == i else 0 for j in range(8)] for i in range(8)]
            pt = la.transpose(p)
            lat = GramLattice(la.matmul(la.matmul(pt, g), p))
            f2 = la.matmul(la.matmul(pt, f), p)
            assert exists_equivariant_embedding(lat, f2, 1, -1, max_nodes=1351) is None
            with pytest.raises(SearchIncomplete):
                exists_equivariant_embedding(lat, f2, 1, -1, max_nodes=1294)

    @pytest.mark.parametrize("signs", [(1, 1, 1, -1, -1, -1), (1, -1, 1, 1, -1, -1)])
    def test_12a1019_with_negated_basis_vectors_stops_at_the_same_node(self, signs):
        # without the sign gauge, negating one triangle took 1,395 nodes
        d = la.freeze([[signs[i] if i == j else 0 for j in range(6)] for i in range(6)])
        lat = GramLattice(la.matmul(la.matmul(d, G_MINUS.matrix), d))
        f = la.matmul(la.matmul(d, family.ACTION_12A1019), d)
        emb, witness = exists_equivariant_embedding(lat, f, 1, -1, max_nodes=894)
        with pytest.raises(SearchIncomplete):
            exists_equivariant_embedding(lat, f, 1, -1, max_nodes=893)
        ours, _ = exists_equivariant_embedding(G_MINUS, family.ACTION_12A1019, 1, -1)
        assert _canonical_rows(la.matmul(emb.matrix, d)) == ours.matrix
        assert la.matmul(witness.matrix(), emb.matrix) == la.matmul(emb.matrix, f)

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("corank", [1, 2, 3])
    def test_12a1019_pruned_hit_is_first_match_of_the_stream(self, corank, sign):
        lat = G_MINUS if sign == -1 else G_MINUS.negated()
        f = family.ACTION_12A1019
        assert exists_equivariant_embedding(lat, f, corank, sign) == first_stream_match(
            lat, f, corank, sign
        )

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("p, f", root_form_cases())
    def test_reflections_of_root_lattices(self, p, f, sign):
        lat = GramLattice(la.scale(sign, p))
        assert is_isometry(f, lat)
        for corank in (0, 1, 2):
            assert exists_equivariant_embedding(lat, f, corank, sign) == first_stream_match(
                lat, f, corank, sign
            )
            assert_pruned_stream_keeps_every_match(lat, f, corank, sign)

    @settings(max_examples=40, deadline=None)
    @given(case=invariant_forms(max_rank=4), corank=st.integers(0, 2))
    def test_pruned_stream_keeps_every_matching_class(self, case, corank):
        lat, f, sign = case
        assert_pruned_stream_keeps_every_match(lat, f, corank, sign)

    @settings(max_examples=60, deadline=None)
    @given(case=invariant_forms(), corank=st.integers(0, 2))
    def test_pruned_hit_is_first_match_of_the_stream(self, case, corank):
        lat, f, sign = case
        assert exists_equivariant_embedding(lat, f, corank, sign) == first_stream_match(
            lat, f, corank, sign
        )

    @settings(max_examples=60, deadline=None)
    @given(case=invariant_forms(), corank=st.integers(0, 2))
    def test_agrees_with_sorted_enumeration(self, case, corank):
        lat, f, sign = case
        classes = enumerate_embeddings(lat, corank, sign)
        expect = any(
            _match_rows(e.matrix, la.matmul(e.matrix, f)) is not None for e in classes
        )
        hit = exists_equivariant_embedding(lat, f, corank, sign)
        assert (hit is not None) is expect
        if hit is not None:
            emb, witness = hit
            assert emb.matrix in [e.matrix for e in classes]
            assert la.matmul(witness.matrix(), emb.matrix) == la.matmul(emb.matrix, f)

    def test_12a1019_witness_is_first_class_in_sorted_order(self):
        classes = enumerate_embeddings(G_MINUS, 1, -1)
        emb, witness = exists_equivariant_embedding(G_MINUS, family.ACTION_12A1019, 1, -1)
        assert emb == classes[0]
        assert witness == find_equivariant_witness(emb, family.ACTION_12A1019).witness

    def test_long_period_is_bounded_by_the_budget(self):
        # a (7, 11, 13, 17)-cycle on -2 * Id of rank 48 has order 17,017;
        # only the powers up to f^48 are formed, so the budget ends the call
        images, start = [], 0
        for c in (7, 11, 13, 17):
            images += [start + (k + 1) % c for k in range(c)]
            start += c
        f = la.freeze([[int(images[j] == i) for j in range(48)] for i in range(48)])
        lat = GramLattice(la.scale(-2, la.identity(48)))
        began = time.perf_counter()
        with pytest.raises(SearchIncomplete):
            exists_equivariant_embedding(lat, f, 1, -1, max_nodes=10)
        assert time.perf_counter() - began < 1

    @pytest.mark.parametrize(
        "diag", [(1,) * 9, (1,) * 4 + (2,) * 5, (2,) * 4 + (1,) * 5, (2,) * 9]
    )
    @pytest.mark.parametrize("corank", [0, 1])
    def test_capped_powers_agree_with_sorted_enumeration(self, diag, corank):
        # a (4, 5)-cycle has order 20 > 2 * 9, so only f^1 .. f^9 are
        # checked; -Id has a witness
        images = [(k + 1) % 4 for k in range(4)] + [4 + (k + 1) % 5 for k in range(5)]
        f = la.freeze([[int(images[j] == i) for j in range(9)] for i in range(9)])
        lat = GramLattice(
            [[-x if i == j else 0 for j in range(9)] for i, x in enumerate(diag)]
        )
        classes = enumerate_embeddings(lat, corank, -1)
        expect = any(
            _match_rows(e.matrix, la.matmul(e.matrix, f)) is not None for e in classes
        )
        hit = exists_equivariant_embedding(lat, f, corank, -1)
        assert (hit is not None) is expect
        assert hit == first_stream_match(lat, f, corank, -1)
        assert_pruned_stream_keeps_every_match(lat, f, corank, -1)
        if diag == (1,) * 9:
            assert expect
