"""Built-in fixtures: the figure-eight connected-sum family K_n and the
3-periodic knot 12a_1019.

K_n is the n-fold connected sum of the figure-eight knot.  Its negative
definite Goeritz form is the block sum of n copies of [[-3,1],[1,-2]], and
the rotation by 2*pi/n shifts the blocks cyclically.  Three explicit building
blocks generate the corank-1/corank-2 embeddings of the form: every class up
to signed permutation of the target is a block sum of them, up to reordering
of the n summands of G_n (checked against the enumerator for n <= 5).
"""

from __future__ import annotations

import itertools

from . import _intlinalg as la
from .diagram import CheckerboardDiagram, RegionAction
from .lattice import GramLattice, LatticeEmbedding, StandardTarget
from .obstruction import KnotCertificate

_BLOCK = ((-3, 1), (1, -2))

# Columns are images of the domain basis vectors.
_PSI1 = (
    (-1, 1, -1, 0),
    (0, 1, 1, 0),
    (1, 0, -1, 1),
    (-1, 0, 0, 1),
)
_PSI2 = (
    (-1, 1, 1, 0),
    (0, 1, -1, 0),
    (1, 0, 0, 1),
    (-1, 0, -1, 1),
)
_PSI3 = (
    (-1, 1),
    (0, 1),
    (1, 0),
    (1, 0),
)

G_MINUS_12A1019 = (
    (-4, 1, 1, 1, 0, 0),
    (1, -4, 1, 0, 1, 0),
    (1, 1, -4, 0, 0, 1),
    (1, 0, 0, -3, 1, 1),
    (0, 1, 0, 1, -3, 1),
    (0, 0, 1, 1, 1, -3),
)

# (X1 X2 X3)(X4 X5 X6) as a matrix on the basis X_1..X_6.
ACTION_12A1019 = (
    (0, 0, 1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
)

# The two corank-1 embeddings of G_- into (Z^7, -Id), unique up to signed
# permutation; columns X_1..X_6, rows Y_1..Y_7.
PHI1_12A1019 = (
    (0, 0, -1, 1, -1, 0),
    (0, 1, 0, 1, 0, -1),
    (-1, -1, 1, 1, 0, 0),
    (-1, 0, 0, 0, 1, -1),
    (1, -1, -1, 0, 1, 0),
    (-1, 1, -1, 0, 0, 1),
    (0, 0, 0, 0, 0, 0),
)
PHI2_12A1019 = (
    (0, 0, 1, 1, -1, 0),
    (0, -1, 0, 1, 0, -1),
    (-1, 1, -1, 1, 0, 0),
    (1, 0, 0, 0, 1, -1),
    (-1, -1, 1, 0, 1, 0),
    (1, -1, -1, 0, 0, 1),
    (0, 0, 0, 0, 0, 0),
)


def goeritz_Gn(n: int) -> GramLattice:
    """Block sum of n copies of [[-3,1],[1,-2]]: the negative definite
    Goeritz form of K_n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return GramLattice(_block_sum([_BLOCK] * n, 2 * n, 2 * n))


def action_fn(n: int) -> la.IntMatrix:
    """Matrix of the rotation action on X_1..X_2n: X_i -> X_{i+2} with the
    last block wrapping around to the first."""
    if n < 2:
        raise ValueError("the rotation action needs at least 2 summands")
    size = 2 * n
    return la.permutation_matrix([(k + 2) % size for k in range(size)])


def diagram_Kn(n: int) -> CheckerboardDiagram:
    """Crossing encoding of the periodic checkerboard diagram of K_n.

    Regions 2k-1, 2k belong to the k-th figure-eight summand; the contract is
    that its Goeritz form equals goeritz_Gn(n).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    crossings = []
    for k in range(1, n + 1):
        a, b = 2 * k - 1, 2 * k
        crossings += [(0, a, -1), (0, a, -1), (a, b, -1), (b, 0, -1)]
    return CheckerboardDiagram(2 * n + 1, tuple(crossings), label=f"K_{n}")


def rotation_region_action(n: int) -> RegionAction:
    """The region permutation realizing the 2*pi/n rotation of diagram_Kn."""
    if n < 2:
        raise ValueError("the rotation needs at least 2 summands")
    perm = [0] * (2 * n + 1)
    for i in range(1, 2 * n + 1):
        perm[i] = i + 2 if i <= 2 * n - 2 else i + 2 - 2 * n
    return RegionAction(tuple(perm), period=n)


def psi_block(which: int) -> LatticeEmbedding:
    """The building-block embeddings: psi_1, psi_2 map the rank-4 two-block
    form into (Z^4, -Id); psi_3 maps one block into (Z^4, -Id)."""
    if which == 1:
        return LatticeEmbedding(_PSI1, goeritz_Gn(2), StandardTarget(4, -1))
    if which == 2:
        return LatticeEmbedding(_PSI2, goeritz_Gn(2), StandardTarget(4, -1))
    if which == 3:
        return LatticeEmbedding(_PSI3, goeritz_Gn(1), StandardTarget(4, -1))
    raise ValueError("which must be 1, 2 or 3")


def _block_sum(blocks: list[la.IntMatrix], rows: int, cols: int) -> la.IntMatrix:
    mat = [[0] * cols for _ in range(rows)]
    r = c = 0
    for b in blocks:
        br, bc = la.shape(b)
        for i in range(br):
            for j in range(bc):
                mat[r + i][c + j] = b[i][j]
        r += br
        c += bc
    return la.freeze(mat)


def family_embeddings(n: int) -> tuple[LatticeEmbedding, ...]:
    """The closed-form embedding family of G_n, as raw block sums.

    Even n: all 2^(n/2) sums of psi_1/psi_2 blocks on consecutive domain
    pairs into rank 2n+1 (the last coordinate is untouched).  Odd n: all
    2^((n-1)/2) such sums ending in psi_3 into rank 2n+2.  Not deduplicated
    up to isomorphism.  Reorderings of the n summands of G_n are isometries
    of G_n and are not listed separately; closing this family under them
    gives every class of embeddings up to signed permutation of the target
    (checked against the enumerator for n <= 5).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    source = goeritz_Gn(n)
    rank = 2 * n + 1 + n % 2
    target = StandardTarget(rank, -1)
    tail = [_PSI3] * (n % 2)
    return tuple(
        LatticeEmbedding(_block_sum(list(choice) + tail, rank, 2 * n), source, target)
        for choice in itertools.product((_PSI1, _PSI2), repeat=n // 2)
    )


def make_certificate_Kn(n: int) -> KnotCertificate:
    """Certificate bundle for K_n: G_- = G_n, G_+ = -G_n, rotation action,
    period n, signature 0, Arf = n mod 2, known gamma_4 per parity."""
    if n < 2:
        raise ValueError("K_n certificates need n >= 2")
    g_minus = goeritz_Gn(n)
    action = action_fn(n)
    return KnotCertificate(
        name=f"K_{n}",
        goeritz_minus=g_minus,
        goeritz_plus=g_minus.negated(),
        action_minus=action,
        action_plus=action,
        period=n,
        signature=0,
        arf=n % 2,
        known_gamma4=2 if n % 2 else 1,
    )


def diagram_12a1019() -> CheckerboardDiagram:
    """A crossing encoding of the 3-periodic coloring of 12a_1019 whose
    Goeritz form is G_MINUS_12A1019; every crossing has weight -1."""
    pairs = [
        (0, 1), (0, 2), (0, 3),
        (1, 2), (2, 3), (3, 1),
        (1, 4), (2, 5), (3, 6),
        (4, 5), (5, 6), (6, 4),
    ]
    return CheckerboardDiagram(
        7, tuple((i, j, -1) for i, j in pairs), label="12a1019"
    )


def fixture_12a1019() -> KnotCertificate:
    """Certificate for the slice knot 12a_1019 with its order-3 rotation.

    Sliceness forces signature 0 and Arf 0 (residue 0); gamma_4 = 1.
    """
    g_minus = GramLattice(G_MINUS_12A1019)
    return KnotCertificate(
        name="12a1019",
        goeritz_minus=g_minus,
        goeritz_plus=g_minus.negated(),
        action_minus=ACTION_12A1019,
        action_plus=ACTION_12A1019,
        period=3,
        signature=0,
        arf=0,
        known_gamma4=1,
    )


def phi_embeddings_12a1019() -> tuple[LatticeEmbedding, LatticeEmbedding]:
    """The two corank-1 embeddings of G_- for 12a_1019."""
    source = GramLattice(G_MINUS_12A1019)
    target = StandardTarget(7, -1)
    return (
        LatticeEmbedding(PHI1_12A1019, source, target),
        LatticeEmbedding(PHI2_12A1019, source, target),
    )
