import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import goeritz._intlinalg as la
from goeritz import family
from goeritz.lattice import (
    GramLattice,
    LatticeEmbedding,
    SearchIncomplete,
    SignedPermutation,
    StandardTarget,
    _canonical_rows,
    _column_order,
    _columns,
    _half_powers,
    _match_rows,
    _sign_gauge,
    brute_force_embeddings,
    enumerate_embeddings,
    gram_of,
    is_definite,
    iter_embeddings,
)

G_MINUS = GramLattice(family.G_MINUS_12A1019)


def random_signed_permutation(m, rng):
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    return SignedPermutation(tuple(perm), tuple(signs))


def random_negative_definite(rank, rng, max_col_norm=4):
    """-(A^T A) for a random full-rank integer A with small columns."""
    while True:
        a = [[rng.randint(-1, 1) for _ in range(rank)] for _ in range(rank)]
        g = la.scale(-1, la.matmul(la.transpose(a), a))
        if all(-4 <= g[i][i] <= -1 for i in range(rank)) and is_definite(
            GramLattice(g), -1
        ):
            return GramLattice(g)


@st.composite
def definite_forms(draw):
    """-(A^T A) for a drawn full-rank A with entries in {-1, 0, 1}."""
    rank = draw(st.integers(1, 4))
    row = st.lists(st.integers(-1, 1), min_size=rank, max_size=rank)
    a = draw(st.lists(row, min_size=rank, max_size=rank))
    lat = GramLattice(la.scale(-1, la.matmul(la.transpose(a), a)))
    assume(is_definite(lat, -1))
    return lat


def connected(g):
    """Whether the graph of the nonzero entries of g is connected."""
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        new = {j for j, x in enumerate(g[i]) if x} - seen
        seen |= new
        todo.extend(new)
    return len(seen) == len(g)


def search_nodes(lat, corank):
    """Nodes of the whole search: the least budget under which it ends."""
    lo, hi = 0, 1
    while True:
        try:
            enumerate_embeddings(lat, corank, -1, max_nodes=hi)
            break
        except SearchIncomplete:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            enumerate_embeddings(lat, corank, -1, max_nodes=mid)
            hi = mid
        except SearchIncomplete:
            lo = mid
    return hi


class TestGramLattice:
    @pytest.mark.parametrize("entry", [-2.0, "a", True])
    def test_rejects_non_int_entries(self, entry):
        with pytest.raises(ValueError, match="integers"):
            GramLattice(((entry,),))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="square"):
            GramLattice(((-3, 1), (1,)))


class TestIsDefinite:
    def test_g_minus_negative_definite(self):
        assert is_definite(G_MINUS, -1)
        assert not is_definite(G_MINUS, 1)

    def test_minus_one(self):
        lat = GramLattice(((-1,),))
        assert not is_definite(lat, 1)
        assert is_definite(lat, -1)

    def test_gn_blocks(self):
        for n in (1, 2, 3):
            assert is_definite(family.goeritz_Gn(n), -1)
            assert is_definite(family.goeritz_Gn(n).negated(), 1)

    def test_indefinite(self):
        assert not is_definite(GramLattice(((1, 0), (0, -1))), 1)
        assert not is_definite(GramLattice(((1, 0), (0, -1))), -1)


class TestGramOf:
    def test_psi3(self):
        psi3 = family.psi_block(3)
        assert gram_of(psi3.matrix, psi3.target) == ((-3, 1), (1, -2))

    def test_zero(self):
        assert gram_of(((0, 0),) * 3, StandardTarget(3, -1)) == ((0, 0),) * 2

    def test_phi1(self):
        assert gram_of(family.PHI1_12A1019, StandardTarget(7, -1)) == G_MINUS.matrix


class TestCanonicalize:
    def test_idempotent(self):
        for phi in family.phi_embeddings_12a1019():
            c = _canonical_rows(phi.matrix)
            assert _canonical_rows(c) == c

    def test_constant_on_orbit(self):
        rng = random.Random(7)
        phi = family.phi_embeddings_12a1019()[0]
        c = _canonical_rows(phi.matrix)
        for _ in range(100):
            t = random_signed_permutation(7, rng)
            moved = LatticeEmbedding(t.apply_rows(phi.matrix), phi.source, phi.target)
            assert _canonical_rows(moved.matrix) == c

    def test_separates_phi1_phi2(self):
        phi1, phi2 = family.phi_embeddings_12a1019()
        assert _canonical_rows(phi1.matrix) != _canonical_rows(phi2.matrix)


class TestEmbeddingsEquivalent:
    def test_self_identity(self):
        phi = family.phi_embeddings_12a1019()[0]
        t = _match_rows(phi.matrix, phi.matrix)
        assert t == SignedPermutation(tuple(range(7)), (1,) * 7)

    def test_phi1_phi2_inequivalent(self):
        phi1, phi2 = family.phi_embeddings_12a1019()
        assert _match_rows(phi1.matrix, phi2.matrix) is None

    def test_psi1_psi2_inequivalent(self):
        assert _match_rows(family.psi_block(1).matrix, family.psi_block(2).matrix) is None

    def test_witness_verifies(self):
        rng = random.Random(3)
        phi = family.phi_embeddings_12a1019()[1]
        for _ in range(20):
            t = random_signed_permutation(7, rng)
            moved = LatticeEmbedding(t.apply_rows(phi.matrix), phi.source, phi.target)
            w = _match_rows(phi.matrix, moved.matrix)
            assert w is not None
            assert w.apply_rows(phi.matrix) == moved.matrix


class TestSignedPermutationAutomorphisms:
    def test_all_orthogonal_integer_matrices_are_signed_permutations(self):
        # justifies representing target automorphisms as SignedPermutation
        for m in (1, 2, 3):
            ident = la.identity(m)
            count = 0
            for entries in itertools.product((-1, 0, 1), repeat=m * m):
                mat = tuple(
                    tuple(entries[i * m + j] for j in range(m)) for i in range(m)
                )
                if la.matmul(la.transpose(mat), mat) == ident:
                    count += 1
                    assert la.is_permutation_matrix(
                        tuple(tuple(abs(x) for x in row) for row in mat)
                    )
            import math

            assert count == 2**m * math.factorial(m)


class TestEnumerate:
    def test_norm_one(self):
        classes = enumerate_embeddings(GramLattice(((-1,),)), 1, -1)
        assert [e.matrix for e in classes] == [((-1,), (0,))]

    def test_eq1_two_classes(self):
        classes = enumerate_embeddings(G_MINUS, 1, -1)
        assert len(classes) == 2
        expected = sorted(
            _canonical_rows(p.matrix) for p in family.phi_embeddings_12a1019()
        )
        assert [e.matrix for e in classes] == expected

    def test_g2_psi_classes(self):
        classes = enumerate_embeddings(family.goeritz_Gn(2), 1, -1)
        expected = sorted(
            {_canonical_rows(e.matrix) for e in family.family_embeddings(2)}
        )
        assert [e.matrix for e in classes] == expected

    def test_g1_corank2_is_psi3(self):
        classes = enumerate_embeddings(family.goeritz_Gn(1), 2, -1)
        assert len(classes) == 1
        psi3 = family.family_embeddings(1)[0]
        assert classes[0].matrix == _canonical_rows(psi3.matrix)

    def test_indefinite_returns_empty(self):
        assert enumerate_embeddings(GramLattice(((1, 0), (0, -1))), 1, -1) == ()

    def test_gram_invariant_and_pairwise_inequivalent(self):
        classes = enumerate_embeddings(G_MINUS, 1, -1)
        for e in classes:
            assert gram_of(e.matrix, e.target) == G_MINUS.matrix
        for a, b in itertools.combinations(classes, 2):
            assert _match_rows(a.matrix, b.matrix) is None

    def test_entry_bound(self):
        for e in enumerate_embeddings(G_MINUS, 1, -1):
            for j in range(G_MINUS.rank):
                bound = abs(G_MINUS.matrix[j][j])
                assert all(e.matrix[i][j] ** 2 <= bound for i in range(7))

    def test_negation_symmetry(self):
        neg = enumerate_embeddings(G_MINUS, 1, -1)
        pos = enumerate_embeddings(G_MINUS.negated(), 1, 1)
        assert [e.matrix for e in neg] == [e.matrix for e in pos]

    def test_budget_raises_incomplete(self):
        with pytest.raises(SearchIncomplete):
            enumerate_embeddings(G_MINUS, 1, -1, max_nodes=10)

    def test_negative_corank_rejected(self):
        with pytest.raises(ValueError, match="corank must be non-negative"):
            enumerate_embeddings(G_MINUS, -1, -1)

    def test_node_count_includes_scanned_values(self):
        # one per call of the column filling, plus one per value it scans:
        # 12a1019 at corank 1 needs exactly 2,484
        with pytest.raises(SearchIncomplete, match="after 2484 nodes"):
            enumerate_embeddings(G_MINUS, 1, -1, max_nodes=2483)
        assert len(enumerate_embeddings(G_MINUS, 1, -1, max_nodes=2484)) == 2

    def test_stream_yields_a_class_before_the_search_ends(self):
        # the first 12a1019 class is yielded within 884 of the 2,484 nodes
        first = next(iter_embeddings(G_MINUS, 1, -1, max_nodes=884))
        assert first.matrix in [e.matrix for e in enumerate_embeddings(G_MINUS, 1, -1)]
        with pytest.raises(SearchIncomplete):
            next(iter_embeddings(G_MINUS, 1, -1, max_nodes=883))

    @pytest.mark.parametrize("action", [la.identity(5), ((1,) * 6,) * 5, ((1,) * 5,) * 6])
    def test_action_of_wrong_shape_is_value_error(self, action):
        with pytest.raises(ValueError, match="shape"):
            next(iter_embeddings(G_MINUS, 1, -1, action=action))

    def test_action_that_is_not_an_isometry_is_value_error(self):
        # its powers would never reach the identity
        action = la.permutation_matrix((1, 0, 2, 3, 4, 5))
        with pytest.raises(ValueError, match="isometry"):
            next(iter_embeddings(G_MINUS, 1, -1, action=action))

    @pytest.mark.parametrize("n, kept", [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)])
    def test_half_powers_of_the_rotation(self, n, kept):
        f = family.action_fn(n)
        dense = [
            tuple(tuple(dict(power[j]).get(i, 0) for j in range(2 * n)) for i in range(2 * n))
            for power in _half_powers(_columns(f))
        ]
        expect, g = [], f
        for _ in range(kept):
            expect.append(g)
            g = la.matmul(g, f)
        assert dense == expect

    @pytest.mark.parametrize("f, kept", [(la.identity(3), 0), (la.neg(la.identity(3)), 1)])
    def test_half_powers_of_plus_and_minus_identity(self, f, kept):
        assert len(_half_powers(_columns(f))) == kept

    def test_fixtures_are_in_the_sign_gauge(self):
        for p in (la.neg(family.G_MINUS_12A1019), la.neg(family.goeritz_Gn(5).matrix)):
            assert _sign_gauge(p, _column_order(p)) == [1] * len(p)

    @settings(max_examples=40, deadline=None)
    @given(g=definite_forms(), corank=st.integers(0, 2), data=st.data())
    def test_negated_basis_vectors_give_the_same_stream(self, g, corank, data):
        # the search runs on the gauged form, so D.G.D yields the classes of
        # G times D at the same node count.  The order is the same only for
        # a connected G: negating an orthogonal summand leaves D.G.D = G, so
        # both searches are one and the same, while mapping by D can reorder
        # the classes (G = ((-2,0,1),(0,-3,0),(1,0,-2)), d = (1,-1,1)).
        n = g.rank
        d = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        flip = la.freeze([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
        h = GramLattice(la.matmul(la.matmul(flip, g.matrix), flip))
        ours = [e.matrix for e in iter_embeddings(g, corank, -1)]
        theirs = [
            _canonical_rows(la.matmul(e.matrix, flip)) for e in iter_embeddings(h, corank, -1)
        ]
        assert sorted(theirs) == sorted(ours)
        if connected(g.matrix):
            assert theirs == ours
        assert search_nodes(h, corank) == search_nodes(g, corank)

    def test_negated_summand_may_reorder_the_stream(self):
        # the example of the test above: one stream, reordered by D
        lat = GramLattice(((-2, 0, 1), (0, -3, 0), (1, 0, -2)))
        flip = la.freeze([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
        assert la.matmul(la.matmul(flip, lat.matrix), flip) == lat.matrix
        ours = [e.matrix for e in iter_embeddings(lat, 0, -1)]
        theirs = [_canonical_rows(la.matmul(mat, flip)) for mat in ours]
        assert sorted(theirs) == sorted(ours) and theirs == ours[::-1]

    def test_half_powers_stop_at_n(self):
        # a (4, 5)-cycle on 9 coordinates has order 20 > 2 * 9: only f^1 .. f^9
        images = [(k + 1) % 4 for k in range(4)] + [4 + (k + 1) % 5 for k in range(5)]
        f = la.freeze([[int(images[j] == i) for j in range(9)] for i in range(9)])
        powers = _half_powers(_columns(f))
        assert len(powers) == 9
        g = f
        for power in powers:
            assert power == _columns(g)
            g = la.matmul(g, f)

    def test_budget_charges_scans_past_the_machine_word(self):
        # 2 * 10**20 + 1 values to scan: counted, not sized with len()
        lat = GramLattice(((-(10**40),),))
        with pytest.raises(SearchIncomplete):
            enumerate_embeddings(lat, 0, -1, max_nodes=10)

    def test_too_many_rows_for_the_column_filling_is_value_error(self):
        # the filling recurses once per searched row: 991 rows is too deep
        with pytest.raises(ValueError, match="991 rows"):
            enumerate_embeddings(GramLattice(((-1000,),)), 990, -1)

    def test_rows_past_the_trace_are_zero(self):
        # every nonzero row adds at least 1 to trace(-G_2) = 10, so corank
        # 10**4 searches the 10 rows of corank 6 and pads with zero rows
        lat = family.goeritz_Gn(2)
        pad = ((0,) * 4,) * (10**4 - 6)
        small = enumerate_embeddings(lat, 6, -1, max_nodes=168)
        big = enumerate_embeddings(lat, 10**4, -1, max_nodes=168)
        assert [e.matrix for e in big] == [e.matrix + pad for e in small]
        for corank in (6, 10**4):
            with pytest.raises(SearchIncomplete, match="after 168 nodes"):
                enumerate_embeddings(lat, corank, -1, max_nodes=167)

    @settings(max_examples=40, deadline=None)
    @given(lat=definite_forms(), corank=st.integers(0, 2))
    def test_leaves_are_the_oracle_classes(self, lat, corank):
        # no dedup after the search: the lex-leader rule alone makes the
        # leaves pairwise inequivalent.  The oracle lists all 2^m m! matrices
        # of each class, so m stays at most 5.
        assume(lat.rank + corank <= 5)
        classes = enumerate_embeddings(lat, corank, -1)
        assert [e.matrix for e in classes] == [
            e.matrix for e in brute_force_embeddings(lat, corank, -1)
        ]
        for a, b in itertools.combinations(classes, 2):
            assert _match_rows(a.matrix, b.matrix) is None

    def test_deep_form_has_no_recursion_error(self):
        # 45 columns: the column stack is explicit, only one column recurses
        lat = GramLattice(la.scale(-1, la.identity(45)))
        classes = enumerate_embeddings(lat, 0, -1)
        assert [e.matrix for e in classes] == [la.scale(-1, la.identity(45))]

    @settings(max_examples=40, deadline=None)
    @given(lat=definite_forms(), corank=st.integers(0, 2), data=st.data())
    def test_classes_independent_of_basis_order(self, lat, corank, data):
        # G' = P^T G P puts basis vector perm[a] of G at position a, so the
        # search sees another column order; column a of each class of G'
        # is column perm[a] of a class of G.
        perm = data.draw(st.permutations(range(lat.rank)))
        moved = GramLattice(
            tuple(tuple(lat.matrix[a][b] for b in perm) for a in perm)
        )
        back = []
        for e in enumerate_embeddings(moved, corank, -1):
            cols = [None] * lat.rank
            for a, j in enumerate(perm):
                cols[j] = tuple(row[a] for row in e.matrix)
            back.append(
                _canonical_rows(
                    LatticeEmbedding(tuple(zip(*cols)), lat, e.target).matrix
                )
            )
        assert sorted(back) == [
            e.matrix for e in enumerate_embeddings(lat, corank, -1)
        ]


    @settings(max_examples=40, deadline=None)
    @given(lat=definite_forms(), corank=st.integers(0, 2))
    def test_stream_yields_each_class_once(self, lat, corank):
        stream = [e.matrix for e in iter_embeddings(lat, corank, -1)]
        assert len(set(stream)) == len(stream)
        assert sorted(stream) == [
            e.matrix for e in enumerate_embeddings(lat, corank, -1)
        ]
        assert list(iter_embeddings(lat, corank, 1)) == []


class TestBruteForceOracle:
    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            brute_force_embeddings(family.goeritz_Gn(4), 1, -1)
        with pytest.raises(ValueError, match="guard"):
            brute_force_embeddings(GramLattice(((-5,),)), 1, -1)

    def test_norm_two_single_class(self):
        classes = brute_force_embeddings(GramLattice(((-2,),)), 1, -1)
        assert len(classes) == 1
        assert classes[0].matrix == _canonical_rows(
            LatticeEmbedding(((1,), (1,)), GramLattice(((-2,),)), StandardTarget(2, -1)).matrix
        )

    def test_agrees_on_g1(self):
        for corank in (0, 1, 2):
            lat = family.goeritz_Gn(1)
            assert [e.matrix for e in brute_force_embeddings(lat, corank, -1)] == [
                e.matrix for e in enumerate_embeddings(lat, corank, -1)
            ]

    def test_agrees_on_random_forms(self):
        rng = random.Random(2024)
        for _ in range(15):
            lat = random_negative_definite(3, rng)
            corank = rng.choice((1, 2))
            oracle = brute_force_embeddings(lat, corank, -1)
            fast = enumerate_embeddings(lat, corank, -1)
            assert [e.matrix for e in oracle] == [e.matrix for e in fast]
