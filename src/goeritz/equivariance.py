"""Equivariant structure on lattice embeddings.

Given an embedding phi of a Gram lattice and an isometry f of its source,
decide whether some signed permutation F of the target intertwines them
(F . phi = phi . f).  Matching the rows of phi . f against the rows of phi up
to sign decides this completely, and the matching is the witness.  When the
match fails, a rational refutation looks at the map induced by f on the
saturation of the image lattice: if that map fails to be integral, no
intertwiner of any kind exists and the offending rational entries form a
reproducible certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import _intlinalg as la
from .lattice import (
    GramLattice,
    LatticeEmbedding,
    SearchIncomplete,
    SignedPermutation,
    _match_rows,
    _require_square,
    is_isometry,
    iter_embeddings,
)


@dataclass(frozen=True)
class SpanTestResult:
    """Outcome of the rational-span test.

    The induced map is expressed in the frozen saturation basis (column
    Hermite form of the saturation of the image lattice), so certificates are
    reproducible.  certificate lists every non-integral entry as
    (row, col, value); the test passes iff there is none.
    """

    induced_map: tuple[tuple[Fraction, ...], ...]
    certificate: tuple[tuple[int, int, Fraction], ...] = ()

    @property
    def passed(self) -> bool:
        return not self.certificate


def saturation_basis(phi: la.IntMatrix) -> la.IntMatrix:
    """Canonical basis of the saturation of the column lattice of phi.

    The saturation is the intersection of the rational column span with the
    ambient integer lattice; the basis returned is its column Hermite normal
    form, which is the frozen choice used for span-test certificates.
    """
    left_kernel = la.kernel_basis(la.transpose(phi))  # columns spanning ker phi^T
    _, corank = la.shape(left_kernel)
    m, _ = la.shape(phi)
    if corank == 0:
        return la.identity(m)
    sat = la.kernel_basis(la.transpose(left_kernel))
    return la.column_hnf(sat)


def span_restriction_test(phi: LatticeEmbedding, f: la.IntMatrix) -> SpanTestResult:
    """Necessary condition for an intertwiner: integrality on the saturation.

    The map sending phi(X_i) to phi(f(X_i)) is uniquely defined on the
    rational span of the image; it must restrict to an integral map of the
    saturation for any intertwiner to exist.  Failure is a complete
    refutation; passing is necessary but not sufficient.  An integral induced
    map is always an isometry of the saturation (the source form is preserved
    by f and read off the saturation through coordinates of full row rank),
    so integrality is the whole test.

    All arithmetic is integral: coordinates come from forward substitution
    on the column HNF, and the induced map from one fraction-free solve;
    the reported map shares one Fraction per distinct numerator.
    """
    f = la.freeze(f)
    if not is_isometry(f, phi.source):
        raise ValueError("f is not an isometry of the source form")
    # zero rows lie outside the span: the saturation, its basis on the other
    # rows and the coordinates are the same without them
    image = tuple(filter(any, phi.matrix))
    basis = saturation_basis(image)
    coords = la.hnf_coordinates(basis, image)  # basis @ coords = image
    # the induced map M solves M @ coords = coords @ f; solve the transpose
    num, det = la.solve_fraction_free(
        la.transpose(coords), la.transpose(la.matmul(coords, f))
    )
    value = {x: Fraction(x, det) for x in set(itertools.chain(*num))}.__getitem__
    induced = tuple(tuple(map(value, col)) for col in zip(*num))
    certificate = tuple(
        (i, j, x)
        for i, row in enumerate(induced)
        for j, x in enumerate(row)
        if x.denominator != 1
    )
    return SpanTestResult(induced, certificate)


@dataclass(frozen=True)
class EquivarianceVerdict:
    """A witness, or a refutation: rational if it carries the span test's
    certificate, by the row match alone if not."""

    witness: SignedPermutation | None = None
    certificate: tuple[tuple[int, int, Fraction], ...] = ()

    @property
    def outcome(self) -> str:
        # a plain string: str-mixin enums format differently across Pythons
        if self.witness is not None:
            return "witness"
        return "refuted_rational" if self.certificate else "refuted_search"


def find_equivariant_witness(
    phi: LatticeEmbedding, f: la.IntMatrix
) -> EquivarianceVerdict:
    """Decide existence of a signed permutation F with F . phi = phi . f.

    The rows of phi . f are matched against the rows of phi up to sign: F
    exists iff the two row multisets agree up to sign, and the matching
    itself is the witness.  Coordinates outside the image span (zero rows)
    are filled by the identity assignment.  A witness proves that f is an
    isometry (f^T phi^T phi f = phi^T F^T F phi); only a failed match runs
    the span test, which checks that precondition and tells a rational
    refutation (with its certificate) from a refutation by the search.
    """
    f = la.freeze(f)
    _require_square(f, phi.source.rank)
    image = la.matmul(phi.matrix, f)
    witness = _match_rows(phi.matrix, image)
    if witness is not None:
        assert witness.apply_rows(phi.matrix) == image
        return EquivarianceVerdict(witness=witness)
    span = span_restriction_test(phi, f)  # validates the isometry precondition
    return EquivarianceVerdict(certificate=span.certificate)


def exists_equivariant_embedding(
    lat: GramLattice,
    f: la.IntMatrix,
    corank: int,
    sign: int,
    max_nodes: int | None = None,
) -> tuple[LatticeEmbedding, SignedPermutation] | None:
    """First equivariant embedding of (Z^n, G) into (Z^{n+corank}, sign*Id).

    Passes f to iter_embeddings, which cuts every subtree whose placed
    columns already fail the row match under a power of f, and matches rows
    for each canonical representative it yields, in search order; the first
    witness decides.
    The cut loses no witness, so the answer is the first matching class of
    the unpruned stream, with the same witness.  A form with an equivariant
    embedding is searched only up to the first class that has one (894
    nodes for 12a1019 at corank 1, where the whole unpruned search takes
    2,484), a form without one only through the subtrees the cut leaves
    (refuting K_5 at corank 2 takes 4,361 nodes, 11,689 unpruned), and no
    class list is kept.  Checking representatives suffices because
    conjugating an embedding by a signed permutation conjugates any witness
    to another signed permutation.  No span test runs: the match alone
    decides.  iter_embeddings checks once that f is an isometry (ValueError
    if not).  Propagates SearchIncomplete: an exhausted budget never turns
    into a "no equivariant embedding" answer.
    """
    for rep in iter_embeddings(lat, corank, sign, max_nodes=max_nodes, action=f):
        witness = _match_rows(rep.matrix, la.matmul(rep.matrix, f))
        if witness is not None:
            return rep, witness
    return None


__all__ = [
    "EquivarianceVerdict",
    "SearchIncomplete",
    "SpanTestResult",
    "exists_equivariant_embedding",
    "find_equivariant_witness",
    "is_isometry",
    "saturation_basis",
    "span_restriction_test",
]
