"""Acceptance gate: the nine primary criteria, one test each.

Every comparison is exact integer/rational arithmetic; tolerance is zero.
Each test prints a single ``[PASS]``/``[FAIL]`` line (run with ``pytest -s``
to see them inline; failed criteria also show the line in the captured
output).

Criterion 3 note: the two sides of its n = 2, 3 clause are lists of
classes, and they are taken under different equivalences.  The enumerator
lists embeddings up to signed permutation of the target only.  The
closed-form family lists raw block sums of psi_1/psi_2 on consecutive domain
pairs, with psi_3 last, and does not list the reorderings of the n identical,
orthogonal summands of G_n separately; every such reordering is an isometry of
G_n.  The clause therefore compares the enumerator's list with the closure of
the family under all n! reorderings of the summands (each result put in
canonical form), as exact list equality.  For n = 3 the enumerator finds 6
classes, the family 2, and its closure 6.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import goeritz._intlinalg as la
from goeritz import family
from goeritz.diagram import CheckerboardDiagram, goeritz, pre_goeritz
from goeritz.equivariance import (
    exists_equivariant_embedding,
    find_equivariant_witness,
    span_restriction_test,
)
from goeritz.lattice import (
    GramLattice,
    LatticeEmbedding,
    SignedPermutation,
    _canonical_rows,
    _match_rows,
    brute_force_embeddings,
    enumerate_embeddings,
    is_definite,
)
from goeritz.obstruction import congruence_residue, gamma4p_lower_bound, CoverSign, mobius_cover_sign

G_MINUS = GramLattice(family.G_MINUS_12A1019)


def family_classes_up_to_reordering(n: int) -> list[la.IntMatrix]:
    """Canonical classes of the closed-form family of G_n closed under every
    reordering of the n summands, i.e. every permutation of the column
    blocks (2k, 2k+1).  Built from the closed form alone."""
    classes = set()
    for emb in family.family_embeddings(n):
        for sigma in itertools.permutations(range(n)):
            cols = [2 * k + a for k in sigma for a in (0, 1)]
            moved = tuple(tuple(row[c] for c in cols) for row in emb.matrix)
            moved = LatticeEmbedding(moved, emb.source, emb.target)
            classes.add(_canonical_rows(moved.matrix))
    return sorted(classes)


@contextmanager
def criterion(number: int, description: str, limit_seconds: float | None = None):
    failures: list[str] = []
    start = time.monotonic()
    try:
        yield failures
    except Exception as exc:  # noqa: BLE001 - report, then re-raise via assert
        failures.append(f"exception: {exc!r}")
    elapsed = time.monotonic() - start
    if limit_seconds is not None and elapsed > limit_seconds:
        failures.append(f"runtime {elapsed:.1f}s exceeds {limit_seconds:.0f}s")
    verdict = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " -- " + "; ".join(failures)
    print(f"[{verdict}] criterion {number}: {description} ({elapsed:.1f}s){detail}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_1_corank1_classes_of_12a1019():
    with criterion(1, "corank-1 classes of the period-3 example match the two "
                      "known embeddings", limit_seconds=10) as failures:
        classes = enumerate_embeddings(G_MINUS, 1, -1)
        if len(classes) != 2:
            failures.append(f"expected 2 canonical classes, got {len(classes)}")
        else:
            for known in family.phi_embeddings_12a1019():
                if not any(_match_rows(known.matrix, e.matrix) for e in classes):
                    failures.append("a known embedding is missing from the output")


def test_criterion_2_equivariant_witnesses_of_12a1019():
    with criterion(2, "both classes admit an equivariant intertwiner for the "
                      "order-3 action, verified exactly", limit_seconds=5) as failures:
        f = family.ACTION_12A1019
        for emb in enumerate_embeddings(G_MINUS, 1, -1):
            v = find_equivariant_witness(emb, f)
            if v.outcome != "witness":
                failures.append(f"no witness for a class ({v.outcome})")
                continue
            t = v.witness.matrix()
            if la.matmul(t, emb.matrix) != la.matmul(emb.matrix, f):
                failures.append("witness does not intertwine exactly")


def test_criterion_3_family_class_enumeration():
    with criterion(3, "enumerator classes (up to signed permutation of the target) "
                      "vs the closed-form family closed under reordering of the "
                      "summands (n=2,3 coincide; n=4,5 frozen derived counts)",
                   limit_seconds=60) as failures:
        for n, corank in ((2, 1), (3, 2)):
            got = [e.matrix for e in enumerate_embeddings(family.goeritz_Gn(n), corank, -1)]
            want = family_classes_up_to_reordering(n)
            if got != want:
                failures.append(
                    f"n={n}: enumerator has {len(got)} classes, "
                    f"closed form up to reordering {len(want)}"
                )
        if len(enumerate_embeddings(family.goeritz_Gn(2), 1, -1)) != 2:
            failures.append("n=2 class count is not 2")
        # frozen regression values, first derived from the oracle-validated
        # enumerator: n=4 -> 12, n=5 -> 60
        for n, corank, frozen in ((4, 1, 12), (5, 2, 60)):
            got = len(enumerate_embeddings(family.goeritz_Gn(n), corank, -1))
            if got != frozen:
                failures.append(f"n={n}: {got} classes, frozen value {frozen}")


def test_criterion_4_family_non_equivariance():
    with criterion(4, "no equivariant embedding for n in {2,3,4,5}; rational "
                      "certificates carry denominator 5", limit_seconds=120) as failures:
        for n in (2, 3, 4, 5):
            corank = 1 if n % 2 == 0 else 2
            hit = exists_equivariant_embedding(
                family.goeritz_Gn(n), family.action_fn(n), corank, -1
            )
            if hit is not None:
                failures.append(f"n={n}: unexpected equivariant witness")
        # certificate values on the closed-form family members
        for n in (2, 3, 4, 5):
            for k, emb in enumerate(family.family_embeddings(n)):
                res = span_restriction_test(emb, family.action_fn(n))
                if not res.certificate or any(x.denominator != 5 for _, _, x in res.certificate):
                    failures.append(f"n={n} class {k}: certificate {res.certificate}")
        res = span_restriction_test(family.family_embeddings(2)[0], family.action_fn(2))
        if res.certificate != ((0, 3, Fraction(-11, 5)), (1, 3, Fraction(-3, 5))):
            failures.append(f"n=2 first-index-1 certificate is {res.certificate}")
        res = span_restriction_test(family.family_embeddings(2)[1], family.action_fn(2))
        if res.certificate != ((0, 3, Fraction(-6, 5)), (1, 3, Fraction(-8, 5))):
            failures.append(f"n=2 first-index-2 certificate is {res.certificate}")
        for n in (4, 5):
            first = span_restriction_test(
                family.family_embeddings(n)[0], family.action_fn(n)
            )
            if first.certificate[0] != (0, 3, Fraction(-8, 5)):
                failures.append(f"n={n} first-index-1 entry is {first.certificate[0]}")
            last = span_restriction_test(
                family.family_embeddings(n)[-1], family.action_fn(n)
            )
            if last.certificate[0] != (0, 3, Fraction(-3, 5)):
                failures.append(f"n={n} first-index-2 entry is {last.certificate[0]}")


def test_criterion_5_lower_bounds_and_gaps():
    with criterion(5, "certified bounds: period 2 -> >= 2 (gap over gamma_4 = 1), "
                      "period 3 -> >= 3 (gap over gamma_4 = 2)") as failures:
        rep2 = gamma4p_lower_bound(family.make_certificate_Kn(2))
        if rep2.gamma4p_lower_bound != 2 or rep2.cert.known_gamma4 != 1 or not rep2.gap_detected:
            failures.append(
                f"period 2: bound {rep2.gamma4p_lower_bound}, known {rep2.cert.known_gamma4}, "
                f"gap {rep2.gap_detected}"
            )
        rep3 = gamma4p_lower_bound(family.make_certificate_Kn(3))
        if rep3.gamma4p_lower_bound != 3 or rep3.cert.known_gamma4 != 2 or not rep3.gap_detected:
            failures.append(
                f"period 3: bound {rep3.gamma4p_lower_bound}, known {rep3.cert.known_gamma4}, "
                f"gap {rep3.gap_detected}"
            )
        if not (rep2.mobius.certifying and rep3.mobius.certifying):
            failures.append("bounds were not certified by complete enumerations")


def test_criterion_6_oracle_equivalence():
    with criterion(6, "enumerator agrees with the brute-force oracle on 50 "
                      "random negative definite forms", limit_seconds=300) as failures:
        rng = random.Random(20260823)
        cases = 0
        while cases < 50:
            rank = rng.randint(1, 3)
            a = [[rng.randint(-1, 1) for _ in range(rank)] for _ in range(rank)]
            g = la.scale(-1, la.matmul(la.transpose(a), a))
            if not all(-4 <= g[i][i] <= -1 for i in range(rank)):
                continue
            lat = GramLattice(g)
            if not is_definite(lat, -1):
                continue
            corank = rng.randint(0, 2)
            oracle = [e.matrix for e in brute_force_embeddings(lat, corank, -1)]
            fast = [e.matrix for e in enumerate_embeddings(lat, corank, -1)]
            if oracle != fast:
                failures.append(f"mismatch on {g} corank {corank}")
            cases += 1


def test_criterion_7_signed_permutation_exhaustion():
    with criterion(7, "witness search agrees with exhaustive iteration over all "
                      "2^m m! signed permutations on 20 fixture-orbit instances") as failures:
        def exhaustive(phi_mat, f):
            m = len(phi_mat)
            rhs = la.matmul(phi_mat, f)
            # row r of T.phi is signs[r] * phi[perm[r]], as in
            # SignedPermutation.apply_rows, built here from plain tuples
            signed = {1: phi_mat, -1: la.neg(phi_mat)}
            for perm in itertools.permutations(range(m)):
                for signs in itertools.product((1, -1), repeat=m):
                    if tuple(signed[s][k] for k, s in zip(perm, signs)) == rhs:
                        assert SignedPermutation(perm, signs).apply_rows(phi_mat) == rhs
                        return True
            return False

        rng = random.Random(77)
        fixtures = [
            (phi, family.ACTION_12A1019) for phi in family.phi_embeddings_12a1019()
        ] + [
            (family.family_embeddings(2)[i], family.action_fn(2)) for i in (0, 1)
        ]
        for k in range(20):
            phi, f = fixtures[k % len(fixtures)]
            m = len(phi.matrix)
            perm = list(range(m))
            rng.shuffle(perm)
            t = SignedPermutation(
                tuple(perm), tuple(rng.choice((1, -1)) for _ in range(m))
            )
            moved = LatticeEmbedding(t.apply_rows(phi.matrix), phi.source, phi.target)
            fast = find_equivariant_witness(moved, f).outcome == "witness"
            slow = exhaustive(moved.matrix, f)
            if fast != slow:
                failures.append(f"instance {k}: engine {fast}, exhaustion {slow}")


def test_criterion_8_congruence_table():
    with criterion(8, "mod-8 congruence rule on all 8 (signature, Arf) "
                      "combinations") as failures:
        expected = {
            (0, 0): CoverSign.INDETERMINATE,
            (0, 1): CoverSign.MOBIUS_IMPOSSIBLE,
            (2, 0): CoverSign.POSITIVE_DEFINITE,
            (2, 1): CoverSign.NEGATIVE_DEFINITE,
            (4, 0): CoverSign.MOBIUS_IMPOSSIBLE,
            (4, 1): CoverSign.INDETERMINATE,
            (6, 0): CoverSign.NEGATIVE_DEFINITE,
            (6, 1): CoverSign.POSITIVE_DEFINITE,
        }
        for (sigma, arf), want in expected.items():
            got = mobius_cover_sign(congruence_residue(sigma, arf))
            if got is not want:
                failures.append(f"(sigma={sigma}, arf={arf}): {got} != {want}")


def test_criterion_9_goeritz_properties():
    with criterion(9, "Goeritz matrices: 200 random diagrams symmetric with zero "
                      "row sums; family diagrams reproduce their forms; all-(-1) "
                      "fixtures negative definite") as failures:
        rng = random.Random(9)
        for _ in range(200):
            regions = rng.randint(2, 7)
            count = rng.randint(1, 14)
            crossings = []
            for _ in range(count):
                i = rng.randrange(regions)
                j = rng.randrange(regions - 1)
                if j >= i:
                    j += 1
                crossings.append((i, j, rng.choice((1, -1))))
            pg = pre_goeritz(CheckerboardDiagram(regions, tuple(crossings)))
            if not la.is_symmetric(pg):
                failures.append("pre-Goeritz not symmetric")
                break
            if any(sum(row) != 0 for row in pg):
                failures.append("pre-Goeritz row sums not zero")
                break
        for n in range(1, 6):
            if goeritz(family.diagram_Kn(n)).matrix != family.goeritz_Gn(n).matrix:
                failures.append(f"family diagram n={n} does not reproduce its form")
        fixtures = [
            CheckerboardDiagram(2, ((0, 1, -1),)),
            CheckerboardDiagram(3, ((0, 1, -1),) * 2 + ((1, 2, -1), (2, 0, -1))),
            family.diagram_12a1019(),
            family.diagram_Kn(4),
        ]
        for d in fixtures:
            if not is_definite(goeritz(d), -1):
                failures.append(f"{d.label or 'fixture'} not negative definite")
