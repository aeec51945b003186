"""Checkerboard-colored knot diagrams and their Goeritz forms.

A diagram is recorded purely combinatorially: the number of white regions and
a multiset of weighted crossings (i, j, eta), one triple per double point
incident to white regions i and j.  Region 0 is the region deleted when
passing from the pre-Goeritz matrix to the Goeritz matrix, and any declared
symmetry must fix it; re-label the regions if your rotation fixes a different
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _intlinalg as la
from .lattice import GramLattice


@dataclass(frozen=True)
class CheckerboardDiagram:
    """White-region count plus weighted crossings of a checkerboard coloring.

    region_count is the total number of white regions (indexed 0..n, so the
    Goeritz rank is region_count - 1).  Repeated (i, j, eta) triples encode
    multiple crossings between the same region pair.
    """

    region_count: int
    crossings: tuple[tuple[int, int, int], ...]
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "crossings", tuple(tuple(c) for c in self.crossings))
        if self.region_count < 2:
            raise ValueError("a checkerboard diagram needs at least 2 white regions")
        if not self.crossings:
            raise ValueError("crossing list must be non-empty")
        for i, j, eta in self.crossings:
            if i == j:
                raise ValueError(f"crossing ({i},{j}) joins a region to itself")
            if not (0 <= i < self.region_count and 0 <= j < self.region_count):
                raise ValueError(f"crossing ({i},{j}) has a region index out of range")
            if eta not in (1, -1):
                raise ValueError(f"crossing weight must be +1 or -1, got {eta}")


@dataclass(frozen=True)
class RegionAction:
    """A symmetry of the diagram, given as a permutation of region indices."""

    permutation: tuple[int, ...]
    period: int

    def __post_init__(self):
        object.__setattr__(self, "permutation", tuple(self.permutation))
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("region action is not a permutation")
        if self.period < 2:
            raise ValueError("period must be at least 2")

    def fixes_deleted_region(self) -> bool:
        return self.permutation[0] == 0

    def order(self) -> int:
        return la.permutation_order(self.permutation)


def pre_goeritz(d: CheckerboardDiagram) -> la.IntMatrix:
    """The (n+1) x (n+1) pre-Goeritz matrix of the diagram.

    Off-diagonal entry (i, j) is minus the sum of crossing weights between
    regions i and j; each diagonal entry makes its row sum to zero.
    """
    n1 = d.region_count
    g = [[0] * n1 for _ in range(n1)]
    for i, j, eta in d.crossings:
        g[i][j] -= eta
        g[j][i] -= eta
    for i, row in enumerate(g):
        row[i] = -sum(row)  # row[i] is still 0: no crossing joins a region to itself
    return la.freeze(g)


def goeritz(d: CheckerboardDiagram) -> GramLattice:
    """Goeritz form: the pre-Goeritz matrix with row and column 0 deleted."""
    pg = pre_goeritz(d)
    mat = tuple(row[1:] for row in pg[1:])
    return GramLattice(mat)


def induced_action_matrix(d: CheckerboardDiagram, a: RegionAction) -> la.IntMatrix:
    """Permutation matrix of the action on the basis X_1..X_n.

    The symmetry must fix region 0 (the deleted region); re-index the regions
    otherwise.
    """
    if len(a.permutation) != d.region_count:
        raise ValueError("action and diagram have different region counts")
    if not a.fixes_deleted_region():
        raise ValueError(
            "the region action must fix region 0; re-label the regions so the "
            "deleted region is fixed by the symmetry"
        )
    return la.permutation_matrix([p - 1 for p in a.permutation[1:]])


@dataclass(frozen=True)
class ActionValidation:
    """Outcome of validate_action; failures lists every failed check."""

    failures: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_action(d: CheckerboardDiagram, a: RegionAction) -> ActionValidation:
    """Check that the declared action is a symmetry of the Goeritz form.

    Verifies that region 0 is fixed, that the permutation's order equals the
    declared period, and that the induced matrix is an isometry of the
    Goeritz form.  With region 0 fixed, that is the same as preserving the
    pre-Goeritz form, whose rows sum to zero.
    """
    failures = []
    if len(a.permutation) != d.region_count:
        return ActionValidation(("action and diagram have different region counts",))
    if not a.fixes_deleted_region():
        failures.append("region 0 is not fixed by the action")
    order = a.order()
    if order != a.period:
        failures.append(f"permutation has order {order}, declared period {a.period}")
    if a.fixes_deleted_region() and not la.preserves_form(a.permutation, pre_goeritz(d)):
        failures.append("induced matrix is not an isometry of the Goeritz form")
    return ActionValidation(tuple(failures))


def diagram_from_json(obj: dict) -> CheckerboardDiagram:
    """Parse {"regions": n+1, "crossings": [[i,j,eta],...], "label": ...}.

    The region count and every crossing entry must be exactly an int: a
    float, string or bool is rejected, never truncated or coerced.  A
    region count above twice the number of crossings is rejected: some
    white region would touch no crossing.
    """
    try:
        regions = obj["regions"]
        crossings = tuple((i, j, e) for i, j, e in obj["crossings"])
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: not a triple
        raise ValueError(f"malformed diagram JSON: {exc}") from exc
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("malformed diagram JSON: label must be a string")
    la.require_ints([regions] + [x for c in crossings for x in c], "diagram entries")
    # checked before any matrix is sized: each crossing touches two regions
    if regions > 2 * len(crossings):
        raise ValueError(
            f"{regions} regions but {len(crossings)} crossing(s): "
            "some white region touches no crossing"
        )
    return CheckerboardDiagram(regions, crossings, label)
