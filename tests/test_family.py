import itertools

import pytest

import goeritz._intlinalg as la
from goeritz import family
from goeritz.diagram import goeritz, validate_action
from goeritz.lattice import (
    LatticeEmbedding,
    StandardTarget,
    _canonical_rows,
    enumerate_embeddings,
    gram_of,
)

BLOCK = ((-3, 1), (1, -2))


class TestGoeritzGn:
    def test_block_structure(self):
        assert family.goeritz_Gn(1).matrix == BLOCK
        g2 = family.goeritz_Gn(2).matrix
        assert g2[0][:2] == BLOCK[0] and g2[2][2:] == BLOCK[0]
        assert all(g2[i][j] == 0 for i in range(2) for j in range(2, 4))

    def test_matches_diagram(self):
        for n in range(1, 6):
            assert goeritz(family.diagram_Kn(n)).matrix == family.goeritz_Gn(n).matrix

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            family.goeritz_Gn(0)


class TestActionFn:
    def test_n2_entries(self):
        f = family.action_fn(2)
        ones = {(i, j) for i in range(4) for j in range(4) if f[i][j] == 1}
        assert ones == {(2, 0), (3, 1), (0, 2), (1, 3)}

    def test_order_and_isometry(self):
        for n in range(2, 7):
            f = family.action_fn(n)
            assert la.permutation_order(la.permutation_images(f)) == n
            g = family.goeritz_Gn(n).matrix
            assert la.matmul(la.transpose(f), la.matmul(g, f)) == g

    def test_region_action_validates(self):
        for n in (2, 3, 4):
            rep = validate_action(family.diagram_Kn(n), family.rotation_region_action(n))
            assert rep.passed, rep.failures


class TestPsiBlocks:
    def test_grams(self):
        for which, want in ((1, family.goeritz_Gn(2).matrix), (2, family.goeritz_Gn(2).matrix), (3, BLOCK)):
            psi = family.psi_block(which)
            assert gram_of(psi.matrix, psi.target) == want

    def test_psi1_first_column(self):
        # psi_1(X_1) = -Y_1 + Y_3 - Y_4
        assert tuple(row[0] for row in family.psi_block(1).matrix) == (-1, 0, 1, -1)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            family.psi_block(4)


class TestFamilyEmbeddings:
    def test_counts_and_shapes(self):
        for n in range(1, 6):
            embs = family.family_embeddings(n)
            if n % 2 == 0:
                assert len(embs) == 2 ** (n // 2)
                rows = 2 * n + 1
            else:
                assert len(embs) == 2 ** ((n - 1) // 2)
                rows = 2 * n + 2
            for e in embs:
                assert la.shape(e.matrix) == (rows, 2 * n)
                assert gram_of(e.matrix, e.target) == family.goeritz_Gn(n).matrix

    def test_n1_is_psi3(self):
        (e,) = family.family_embeddings(1)
        assert _canonical_rows(e.matrix) == _canonical_rows(family.psi_block(3).matrix)

    def test_pairwise_inequivalent(self):
        for n in (2, 3, 4):
            classes = {_canonical_rows(e.matrix) for e in family.family_embeddings(n)}
            assert len(classes) == len(family.family_embeddings(n))


class TestEnumeratorVsFamily:
    """The enumerator is ground truth; it lists classes up to signed
    permutation of the target only.

    For n = 1 and n = 2 the closed-form family lists the same classes.  From
    n = 3 on, the enumerator finds more: the family places its blocks on
    consecutive domain pairs (and puts the corank-2 block last), and pairing
    the domain blocks differently -- or placing the 4x2 block on an earlier
    block -- gives embeddings that no signed permutation of the target maps
    to a family member.  Each of these extra classes is a reordering of the n
    identical summands of G_n applied to a family member, so the family
    closed under those reorderings gives exactly the enumerator's classes
    (checked here for n <= 5).  The counts below follow the combinatorial
    pattern (#matchings of the paired blocks) x 2^(#pairs), times the choice
    of the odd block for odd n, and were frozen after the enumerator was
    validated against the brute-force oracle.
    """

    def test_n1_n2_coincide(self):
        for n, corank in ((1, 2), (2, 1)):
            got = [e.matrix for e in enumerate_embeddings(family.goeritz_Gn(n), corank, -1)]
            want = sorted({_canonical_rows(e.matrix) for e in family.family_embeddings(n)})
            assert got == want

    def test_family_always_subset(self):
        for n, corank in ((1, 2), (2, 1), (3, 2), (4, 1)):
            got = {e.matrix for e in enumerate_embeddings(family.goeritz_Gn(n), corank, -1)}
            fam = {_canonical_rows(e.matrix) for e in family.family_embeddings(n)}
            assert fam <= got

    def test_frozen_class_counts(self):
        # n=3: 3 positions for the 4x2 block x 2 psi choices = 6
        # n=4: 3 pairings of the 4 blocks x 4 psi choices = 12
        # n=5: 5 odd-block positions x 3 pairings x 4 psi choices = 60
        for n, corank, count in ((3, 2, 6), (4, 1, 12), (5, 2, 60)):
            classes = enumerate_embeddings(family.goeritz_Gn(n), corank, -1)
            assert len(classes) == count

    def test_n3_extra_class_constructed_by_hand(self):
        # the 4x2 block on the FIRST domain block, psi_1 on blocks 2 and 3:
        # a valid embedding outside the closed-form family
        mat = [[0] * 6 for _ in range(8)]
        for i in range(4):
            for j in range(2):
                mat[i][j] = family._PSI3[i][j]
            for j in range(4):
                mat[4 + i][2 + j] = family._PSI1[i][j]
        emb = LatticeEmbedding(
            la.freeze(mat), family.goeritz_Gn(3), StandardTarget(8, -1)
        )
        c = _canonical_rows(emb.matrix)
        got = {e.matrix for e in enumerate_embeddings(family.goeritz_Gn(3), 2, -1)}
        fam = {_canonical_rows(e.matrix) for e in family.family_embeddings(3)}
        assert c in got
        assert c not in fam

    def test_reorderings_of_family_give_every_class(self):
        for n, corank in ((1, 2), (2, 1), (3, 2), (4, 1), (5, 2)):
            got = [e.matrix for e in enumerate_embeddings(family.goeritz_Gn(n), corank, -1)]
            closure = set()
            for e in family.family_embeddings(n):
                for sigma in itertools.permutations(range(n)):
                    cols = [2 * k + a for k in sigma for a in (0, 1)]
                    moved = tuple(tuple(row[c] for c in cols) for row in e.matrix)
                    moved = LatticeEmbedding(moved, e.source, e.target)
                    closure.add(_canonical_rows(moved.matrix))
            assert got == sorted(closure)


class TestCertificates:
    def test_kn_fields(self):
        for n in (2, 3, 4, 5):
            cert = family.make_certificate_Kn(n)
            assert cert.signature == 0
            assert cert.arf == n % 2
            assert cert.period == n
            assert cert.known_gamma4 == (2 if n % 2 else 1)
            assert cert.goeritz_plus.matrix == la.neg(cert.goeritz_minus.matrix)

    def test_kn_rejects_n1(self):
        with pytest.raises(ValueError):
            family.make_certificate_Kn(1)

    def test_12a1019(self):
        cert = family.fixture_12a1019()
        assert cert.goeritz_minus.matrix == family.G_MINUS_12A1019
        assert cert.goeritz_plus.matrix == la.neg(family.G_MINUS_12A1019)
        assert cert.period == 3
        assert cert.signature == 0 and cert.arf == 0
        assert cert.known_gamma4 == 1

    def test_phi_embeddings_gram(self):
        for phi in family.phi_embeddings_12a1019():
            assert gram_of(phi.matrix, phi.target) == family.G_MINUS_12A1019
