"""The obstruction pipeline: congruence residue, equivariant Mobius and
punctured-Klein-bottle obstructions, and certified lower bounds for the
equivariant non-orientable 4-genus.

The signature and Arf invariant are inputs, not computed: the pipeline is a
pure consumer of the Goeritz data and the classical invariants.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

from . import _intlinalg as la
from .equivariance import exists_equivariant_embedding
from .lattice import (
    GramLattice,
    LatticeEmbedding,
    SearchIncomplete,
    SignedPermutation,
    StandardTarget,
    is_definite,
)


def congruence_residue(sigma: int, arf: int) -> int:
    """(sigma + 4*Arf) mod 8; knot signatures are even, so this lands in
    {0, 2, 4, 6}."""
    if arf not in (0, 1):
        raise ValueError("Arf invariant must be 0 or 1")
    if sigma % 2 != 0:
        raise ValueError("knot signatures are even")
    return (sigma + 4 * arf) % 8


class CoverSign(enum.Enum):
    """Definiteness of the double branched cover along a Mobius band."""

    POSITIVE_DEFINITE = "positive_definite"
    NEGATIVE_DEFINITE = "negative_definite"
    INDETERMINATE = "indeterminate"
    MOBIUS_IMPOSSIBLE = "mobius_impossible"


def mobius_cover_sign(residue: int) -> CoverSign:
    """Decode the mod-8 residue: 2 -> positive definite cover, 6 -> negative,
    0 -> indeterminate, 4 -> the knot bounds no Mobius band at all."""
    table = {
        2: CoverSign.POSITIVE_DEFINITE,
        6: CoverSign.NEGATIVE_DEFINITE,
        0: CoverSign.INDETERMINATE,
        4: CoverSign.MOBIUS_IMPOSSIBLE,
    }
    if residue not in table:
        raise ValueError("residue must be one of 0, 2, 4, 6")
    return table[residue]


def _opposite(plus: GramLattice, minus: GramLattice) -> bool:
    """True iff G_+ = -G_-.  Both forms are square, so that holds iff their
    ranks agree and G_+ + G_- is zero, read entry by entry without building
    -G_-."""
    return plus.rank == minus.rank and not any(
        any(map(operator.add, p, m)) for p, m in zip(plus.matrix, minus.matrix)
    )


@dataclass(frozen=True)
class KnotCertificate:
    """Input bundle for the obstruction pipeline.

    goeritz_minus/goeritz_plus are the negative/positive definite Goeritz
    forms of an equivariant alternating diagram; the action matrices are the
    induced permutation matrices on each basis.  When only one action was
    supplied and G_+ = -G_-, the other defaults to it and action_defaulted
    records which side was filled in.
    """

    name: str
    goeritz_minus: GramLattice
    goeritz_plus: GramLattice
    action_minus: la.IntMatrix
    action_plus: la.IntMatrix
    period: int
    signature: int
    arf: int
    known_gamma4: int | None = None
    action_defaulted: str | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError("name must be a string")
        try:
            self.name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("name is not valid UTF-8") from None
        object.__setattr__(self, "action_minus", la.freeze(self.action_minus))
        object.__setattr__(self, "action_plus", la.freeze(self.action_plus))
        for attr in ("period", "signature", "arf"):
            la.require_ints((getattr(self, attr),), attr)
        if self.known_gamma4 is not None:
            la.require_ints((self.known_gamma4,), "known_gamma4")
            if self.known_gamma4 < 0:
                raise ValueError("known_gamma4 must be non-negative")
        if self.period < 2:
            raise ValueError("period must be at least 2")
        congruence_residue(self.signature, self.arf)  # validates both
        if not is_definite(self.goeritz_minus, -1):
            raise ValueError("goeritz_minus must be negative definite")
        # G_+ = -G_- is positive definite iff G_- is negative definite
        if not _opposite(self.goeritz_plus, self.goeritz_minus):
            if not is_definite(self.goeritz_plus, 1):
                raise ValueError("goeritz_plus must be positive definite")
        for act, lat, side in (
            (self.action_minus, self.goeritz_minus, "minus"),
            (self.action_plus, self.goeritz_plus, "plus"),
        ):
            try:
                images = la.permutation_images(act)
            except ValueError:
                raise ValueError(f"action_{side} is not a permutation matrix") from None
            if not la.preserves_form(images, lat.matrix):
                raise ValueError(f"action_{side} is not an isometry of its form")
            if la.permutation_order(images) != self.period:
                raise ValueError(f"action_{side} does not have order {self.period}")

    @property
    def residue(self) -> int:
        return congruence_residue(self.signature, self.arf)


@dataclass(frozen=True)
class SurfaceVerdict:
    """Outcome of one equivariant-surface obstruction.

    obstructed=True means no equivariant surface of this type exists (the
    bound fires); obstructed=False means a witness was found; obstructed=None
    means the budget ran out, so nothing is claimed.  vacuous marks the
    residue-4 Mobius case where no Mobius band exists at all.
    """

    kind: str
    obstructed: bool | None
    reason: str
    vacuous: bool = False
    witnesses: tuple[tuple[int, LatticeEmbedding, SignedPermutation], ...] = ()

    @property
    def certifying(self) -> bool:
        return self.obstructed is not None


@dataclass(frozen=True)
class ObstructionReport:
    """A certificate and its two verdicts; the bound, the gap and
    conclusiveness are derived from them, so they cannot disagree.

    The lower bound is 3 if the Klein obstruction fired, else 2 if the
    Mobius obstruction fired, else 1.  obstructed is True only on a
    certifying verdict, so bounds are only claimed from complete
    enumerations.
    """

    cert: KnotCertificate
    mobius: SurfaceVerdict
    klein: SurfaceVerdict | None

    @property
    def gamma4p_lower_bound(self) -> int:
        if not self.mobius.obstructed:
            return 1
        return 3 if self.klein and self.klein.obstructed else 2

    @property
    def gap_detected(self) -> bool:
        known = self.cert.known_gamma4
        return known is not None and known < self.gamma4p_lower_bound

    @property
    def conclusive(self) -> bool:
        """Every verdict is certifying (the CLI exits 0, else 2)."""
        return self.mobius.certifying and (self.klein is None or self.klein.certifying)


def _run_problems(
    kind: str,
    problems: list[tuple[int, GramLattice, la.IntMatrix, int]],
    max_nodes: int | None,
) -> SurfaceVerdict:
    """Run a batch of (sign, form, action, corank) equivariant-embedding
    problems; the obstruction holds only if every problem comes back empty.

    Problems are keyed by (sign * G, action, corank): the search reads only
    the positive definite form sign * G, so two problems with one key have
    the same embedding matrices and the same intertwiners.  Each key is
    searched once, under its own max_nodes budget; a repeated key's witness
    matrix is re-wrapped with that problem's own source and target.
    """
    solved: dict[tuple, tuple[LatticeEmbedding, SignedPermutation] | None] = {}
    witnesses = []
    try:
        for sign, lat, action, corank in problems:
            key = (la.scale(sign, lat.matrix), action, corank)
            if key not in solved:
                solved[key] = exists_equivariant_embedding(
                    lat, action, corank, sign, max_nodes=max_nodes
                )
            hit = solved[key]
            if hit is not None:
                emb, t = hit
                emb = LatticeEmbedding(
                    emb.matrix, lat, StandardTarget(emb.target.rank, sign)
                )
                witnesses.append((sign, emb, t))
    except SearchIncomplete as exc:
        return SurfaceVerdict(kind, None, f"enumeration incomplete: {exc}")
    if witnesses:
        reason = "equivariant embedding witness found"
        return SurfaceVerdict(kind, False, reason, witnesses=tuple(witnesses))
    return SurfaceVerdict(kind, True, "no equivariant embedding exists")


def obstruct_equivariant_mobius(
    cert: KnotCertificate, max_nodes: int | None = None
) -> SurfaceVerdict:
    """Corank-1 obstruction: can the knot bound an equivariant Mobius band?

    The cover's definiteness (from the residue) selects which sign of
    embedding problem is relevant; an indeterminate residue requires both
    sign tests to be empty.  Residue 4 obstructs vacuously: no Mobius band
    exists, equivariant or not.
    """
    cover = mobius_cover_sign(cert.residue)
    if cover is CoverSign.MOBIUS_IMPOSSIBLE:
        reason = "residue 4: the knot bounds no Mobius band in the 4-ball"
        return SurfaceVerdict("mobius", True, reason, vacuous=True)
    minus = (-1, cert.goeritz_minus, cert.action_minus, 1)
    plus = (1, cert.goeritz_plus, cert.action_plus, 1)
    problems = {
        CoverSign.POSITIVE_DEFINITE: [minus],
        CoverSign.NEGATIVE_DEFINITE: [plus],
        CoverSign.INDETERMINATE: [minus, plus],
    }[cover]
    return _run_problems("mobius", problems, max_nodes)


def obstruct_equivariant_klein(
    cert: KnotCertificate, max_nodes: int | None = None
) -> SurfaceVerdict | None:
    """Corank-2 obstruction: can the knot bound an equivariant punctured
    Klein bottle?  Only applicable when the residue is 4; None otherwise."""
    if cert.residue != 4:
        return None
    problems = [
        (1, cert.goeritz_plus, cert.action_plus, 2),
        (-1, cert.goeritz_minus, cert.action_minus, 2),
    ]
    return _run_problems("klein", problems, max_nodes)


def gamma4p_lower_bound(
    cert: KnotCertificate, max_nodes: int | None = None
) -> ObstructionReport:
    """Full pipeline: residue, Mobius test, Klein test where applicable.

    An exhausted budget leaves the affected verdict non-certifying, which
    lowers the report's bound (see ObstructionReport).
    """
    return ObstructionReport(
        cert,
        obstruct_equivariant_mobius(cert, max_nodes=max_nodes),
        obstruct_equivariant_klein(cert, max_nodes=max_nodes),
    )


def parse_action(value, n: int) -> la.IntMatrix:
    """An action from JSON: an n x n integer matrix or the 0-indexed images."""
    if not isinstance(value, list):
        raise ValueError("action must be a list")
    if all(isinstance(row, list) for row in value):
        la.require_ints([x for row in value for x in row], "action entries")
        return la.freeze(value)
    la.require_ints(value, "action entries")
    if sorted(value) != list(range(n)):
        raise ValueError("action permutation list is not a permutation")
    return la.permutation_matrix(value)


def certificate_from_json(obj: dict) -> KnotCertificate:
    """Parse the documented KnotCertificate JSON schema.

    Actions may be given as n x n 0/1 matrices or as length-n lists of
    0-indexed images on the basis positions.  If exactly one action is given
    and G_+ = -G_-, the other defaults to it.
    """
    try:
        g_minus = GramLattice(la.freeze(obj["goeritz_minus"]))
        g_plus = GramLattice(la.freeze(obj["goeritz_plus"]))
        n = g_minus.rank
        a_minus = obj.get("action_minus")
        a_plus = obj.get("action_plus")
        defaulted = None
        if a_minus is None and a_plus is None:
            raise ValueError("at least one action must be supplied")
        if a_plus is None or a_minus is None:
            if not _opposite(g_plus, g_minus):
                raise ValueError(
                    "one action missing and G_+ != -G_-: both actions required"
                )
            if a_plus is None:
                a_plus, defaulted = a_minus, "plus"
            else:
                a_minus, defaulted = a_plus, "minus"
        return KnotCertificate(
            name=obj.get("name", ""),
            goeritz_minus=g_minus,
            goeritz_plus=g_plus,
            action_minus=parse_action(a_minus, n),
            action_plus=parse_action(a_plus, g_plus.rank),
            period=obj["period"],
            signature=obj["signature"],
            arf=obj["arf"],
            known_gamma4=obj.get("known_gamma4"),
            action_defaulted=defaulted,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc


def _verdict_json(v: SurfaceVerdict | None):
    if v is None:
        return None
    return {
        "kind": v.kind,
        # a verdict exists only where its test applies (the Klein test off
        # residue 4 is null); the key is kept so the payload does not change
        "applicable": True,
        "obstructed": v.obstructed,
        "certifying": v.certifying,
        "vacuous": v.vacuous,
        "reason": v.reason,
        "witnesses": [
            {
                "sign": sign,
                "embedding": emb.matrix,
                "intertwiner": t.matrix(),
            }
            for sign, emb, t in v.witnesses
        ],
    }


def report_to_json(report: ObstructionReport) -> dict:
    cert = report.cert
    return {
        "name": cert.name,
        "residue": cert.residue,
        "cover_sign": mobius_cover_sign(cert.residue).value,
        "mobius": _verdict_json(report.mobius),
        "klein": _verdict_json(report.klein),
        "gamma4p_lower_bound": report.gamma4p_lower_bound,
        "known_gamma4": cert.known_gamma4,
        "gap_detected": report.gap_detected,
        "action_defaulted": cert.action_defaulted,
    }


def report_to_text(report: ObstructionReport) -> str:
    cert = report.cert
    rows = [
        ("knot", cert.name or "(unnamed)"),
        ("residue (sigma + 4 Arf mod 8)", str(cert.residue)),
        ("cover sign", mobius_cover_sign(cert.residue).value),
        ("mobius obstructed", _cell(report.mobius)),
        ("klein obstructed", _cell(report.klein) if report.klein else "inapplicable"),
        ("gamma_{4,p} lower bound", str(report.gamma4p_lower_bound)),
        ("known gamma_4", str(cert.known_gamma4)),
        ("gap detected", "yes" if report.gap_detected else "no"),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def _cell(v: SurfaceVerdict) -> str:
    if not v.certifying:
        return "inconclusive (budget)"
    if v.obstructed:
        return "yes (vacuous)" if v.vacuous else "yes"
    return "no (witness found)"
