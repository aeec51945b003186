"""Exact-arithmetic obstructions for the equivariant non-orientable 4-genus
of periodic alternating knots, via Goeritz forms and definite lattice
embeddings."""

from .diagram import (
    CheckerboardDiagram,
    RegionAction,
    goeritz,
    induced_action_matrix,
    pre_goeritz,
    validate_action,
)
from .equivariance import (
    EquivarianceVerdict,
    exists_equivariant_embedding,
    find_equivariant_witness,
    is_isometry,
    span_restriction_test,
)
from .lattice import (
    GramLattice,
    LatticeEmbedding,
    SearchIncomplete,
    SignedPermutation,
    StandardTarget,
    brute_force_embeddings,
    enumerate_embeddings,
    gram_of,
    is_definite,
    iter_embeddings,
)
from .obstruction import (
    CoverSign,
    KnotCertificate,
    ObstructionReport,
    congruence_residue,
    gamma4p_lower_bound,
    mobius_cover_sign,
    obstruct_equivariant_klein,
    obstruct_equivariant_mobius,
)

__version__ = "0.1.0"
