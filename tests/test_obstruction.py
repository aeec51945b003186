import dataclasses
import json

import pytest

import goeritz._intlinalg as la
from goeritz import equivariance, family
from goeritz.diagram import RegionAction, goeritz, induced_action_matrix, validate_action
from goeritz.lattice import GramLattice, enumerate_embeddings, iter_embeddings
from goeritz.obstruction import (
    CoverSign,
    KnotCertificate,
    ObstructionReport,
    SurfaceVerdict,
    certificate_from_json,
    congruence_residue,
    gamma4p_lower_bound,
    mobius_cover_sign,
    obstruct_equivariant_klein,
    obstruct_equivariant_mobius,
    report_to_json,
    report_to_text,
)

# ground-truth residue table: (sigma mod 8, arf) -> residue
RESIDUE_TABLE = {
    (0, 0): 0,
    (0, 1): 4,
    (2, 0): 2,
    (2, 1): 6,
    (4, 0): 4,
    (4, 1): 0,
    (6, 0): 6,
    (6, 1): 2,
}


class TestCongruenceResidue:
    def test_all_eight_combinations(self):
        for (s, a), want in RESIDUE_TABLE.items():
            assert congruence_residue(s, a) == want
            assert congruence_residue(s - 8, a) == want
            assert congruence_residue(s + 16, a) == want

    def test_kn_values(self):
        assert congruence_residue(0, 1) == 4  # n odd
        assert congruence_residue(0, 0) == 0  # n even
        assert congruence_residue(-2, 1) == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            congruence_residue(1, 0)
        with pytest.raises(ValueError):
            congruence_residue(0, 2)


class TestMobiusCoverSign:
    def test_table(self):
        assert mobius_cover_sign(2) is CoverSign.POSITIVE_DEFINITE
        assert mobius_cover_sign(6) is CoverSign.NEGATIVE_DEFINITE
        assert mobius_cover_sign(0) is CoverSign.INDETERMINATE
        assert mobius_cover_sign(4) is CoverSign.MOBIUS_IMPOSSIBLE

    def test_rejects_odd_residue(self):
        with pytest.raises(ValueError):
            mobius_cover_sign(3)

    def test_composed_with_residue_covers_all_inputs(self):
        for s, a in RESIDUE_TABLE:
            mobius_cover_sign(congruence_residue(s, a))


class TestKnotCertificate:
    def test_fixtures_validate(self):
        family.fixture_12a1019()
        for n in (2, 3, 4):
            cert = family.make_certificate_Kn(n)
            assert cert.period == n
            assert cert.arf == n % 2

    def test_rejects_wrong_definiteness(self):
        g = GramLattice(family.G_MINUS_12A1019)
        with pytest.raises(ValueError, match="definite"):
            KnotCertificate(
                "bad", g.negated(), g.negated(), la.identity(6), la.identity(6),
                period=2, signature=0, arf=0,
            )

    def test_rejects_wrong_order(self):
        g = GramLattice(family.G_MINUS_12A1019)
        with pytest.raises(ValueError, match="order"):
            KnotCertificate(
                "bad", g, g.negated(), la.identity(6), la.identity(6),
                period=3, signature=0, arf=0,
            )

    def test_rejects_non_isometry(self):
        g2 = family.goeritz_Gn(2)
        swap = [[0] * 4 for _ in range(4)]
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
            swap[i][j] = 1
        with pytest.raises(ValueError, match="isometry"):
            KnotCertificate(
                "bad", g2, g2.negated(), la.freeze(swap), la.freeze(swap),
                period=2, signature=0, arf=0,
            )

    def test_plus_side_tested_when_not_negated_minus(self):
        g = GramLattice(family.G_MINUS_12A1019)
        plus = [list(r) for r in g.negated().matrix]
        plus[0][0] = -1  # G_+ != -G_-, and G_+ is not positive definite
        with pytest.raises(ValueError, match="goeritz_plus must be positive definite"):
            KnotCertificate(
                "bad", g, GramLattice(la.freeze(plus)), la.identity(6),
                la.identity(6), period=2, signature=0, arf=0,
            )

    def test_plus_side_tested_when_ranks_differ(self):
        g = GramLattice(family.G_MINUS_12A1019)
        # -G_- bordered by -1: it agrees with -G_- wherever both have entries
        plus = [list(r) + [0] for r in g.negated().matrix] + [[0] * 6 + [-1]]
        with pytest.raises(ValueError, match="goeritz_plus must be positive definite"):
            KnotCertificate(
                "bad", g, GramLattice(la.freeze(plus)), la.identity(6),
                la.identity(7), period=2, signature=0, arf=0,
            )

    @pytest.mark.parametrize("value", ["one", -1, True, 1.0])
    def test_rejects_bad_known_gamma4(self, value):
        cert = family.make_certificate_Kn(2)
        with pytest.raises(ValueError, match="known_gamma4"):
            dataclasses.replace(cert, known_gamma4=value)


class TestMobiusObstruction:
    def test_k2_obstructed(self):
        v = obstruct_equivariant_mobius(family.make_certificate_Kn(2))
        assert v.obstructed and v.certifying and not v.vacuous

    def test_k3_vacuous(self):
        # residue 4: no Mobius band at all
        v = obstruct_equivariant_mobius(family.make_certificate_Kn(3))
        assert v.obstructed and v.vacuous

    def test_12a1019_witness(self):
        v = obstruct_equivariant_mobius(family.fixture_12a1019())
        assert v.obstructed is False
        assert v.witnesses
        for sign, emb, t in v.witnesses:
            assert la.matmul(t.matrix(), emb.matrix) == la.matmul(
                emb.matrix, family.ACTION_12A1019
            )

    def test_budget_downgrades(self):
        v = obstruct_equivariant_mobius(family.make_certificate_Kn(2), max_nodes=5)
        assert v.obstructed is None
        assert not v.certifying
        assert "incomplete" in v.reason


class TestKleinObstruction:
    def test_inapplicable_for_even_n(self):
        assert obstruct_equivariant_klein(family.make_certificate_Kn(2)) is None

    def test_k3_obstructed(self):
        v = obstruct_equivariant_klein(family.make_certificate_Kn(3))
        assert v.obstructed and v.certifying


class TestGamma4pLowerBound:
    def test_k2_bound_2_gap(self):
        rep = gamma4p_lower_bound(family.make_certificate_Kn(2))
        assert rep.gamma4p_lower_bound == 2
        assert rep.cert.known_gamma4 == 1
        assert rep.gap_detected
        assert rep.klein is None

    def test_k3_bound_3_gap(self):
        rep = gamma4p_lower_bound(family.make_certificate_Kn(3))
        assert rep.gamma4p_lower_bound == 3
        assert rep.cert.known_gamma4 == 2
        assert rep.gap_detected
        assert rep.mobius.vacuous

    def test_kn_bound_table(self):
        bounds = [
            gamma4p_lower_bound(family.make_certificate_Kn(n)).gamma4p_lower_bound
            for n in range(2, 13)
        ]
        assert bounds == [2, 3] * 5 + [2]

    def test_12a1019_bound_1_no_gap(self):
        rep = gamma4p_lower_bound(family.fixture_12a1019())
        assert rep.gamma4p_lower_bound == 1
        assert not rep.gap_detected

    def test_budget_never_yields_bound(self):
        rep = gamma4p_lower_bound(family.make_certificate_Kn(2), max_nodes=5)
        assert rep.gamma4p_lower_bound == 1
        assert not rep.mobius.certifying
        assert not rep.gap_detected

    @pytest.mark.parametrize(
        "cert", [family.make_certificate_Kn(4), family.fixture_12a1019()],
        ids=["K_4", "12a1019"],
    )
    def test_one_search_per_distinct_problem(self, cert, monkeypatch):
        # G_+ = -G_- with equal actions: the minus and plus problems share
        # (sign * G, action, corank), so one search serves both
        calls = []

        def counting(lat, corank, sign, max_nodes=None, action=None):
            calls.append((la.scale(sign, lat.matrix), corank))
            return iter_embeddings(lat, corank, sign, max_nodes=max_nodes, action=action)

        monkeypatch.setattr(equivariance, "iter_embeddings", counting)
        rep = gamma4p_lower_bound(cert)
        assert len(calls) == len(set(calls)) == 1
        for sign, emb, t in rep.mobius.witnesses:
            lat = cert.goeritz_minus if sign == -1 else cert.goeritz_plus
            assert emb.source == lat
            assert emb.target.sign == sign
        if cert.name == "12a1019":
            assert [w[0] for w in rep.mobius.witnesses] == [-1, 1]

    # (mobius, klein) -> (bound, gap, conclusive); K_2 (known 1) where
    # there is no Klein verdict, K_3 (known 2) elsewhere
    VERDICT_STATES = {
        ("obstructed", None): (2, True, True),
        ("vacuous", None): (2, True, True),
        ("witness", None): (1, False, True),
        ("budget", None): (1, False, False),
        ("obstructed", "obstructed"): (3, True, True),
        ("vacuous", "obstructed"): (3, True, True),
        ("witness", "obstructed"): (1, False, True),
        ("budget", "obstructed"): (1, False, False),
        ("obstructed", "witness"): (2, False, True),
        ("vacuous", "witness"): (2, False, True),
        ("witness", "witness"): (1, False, True),
        ("budget", "witness"): (1, False, False),
        ("obstructed", "budget"): (2, False, False),
        ("vacuous", "budget"): (2, False, False),
        ("witness", "budget"): (1, False, False),
        ("budget", "budget"): (1, False, False),
    }

    @staticmethod
    def verdict(kind, state):
        obstructed = {"obstructed": True, "vacuous": True, "witness": False}
        return SurfaceVerdict(
            kind, obstructed.get(state), state, vacuous=state == "vacuous"
        )

    @pytest.mark.parametrize(
        "states, derived",
        VERDICT_STATES.items(),
        ids=[f"{m}-{k}" for m, k in VERDICT_STATES],
    )
    def test_derived_fields_on_every_verdict_state(self, states, derived):
        mobius, klein = states
        cert = family.make_certificate_Kn(2 if klein is None else 3)
        rep = ObstructionReport(
            cert,
            self.verdict("mobius", mobius),
            None if klein is None else self.verdict("klein", klein),
        )
        assert (rep.gamma4p_lower_bound, rep.gap_detected, rep.conclusive) == derived

    def test_negation_symmetry_of_sign_tests(self):
        # G_+ = -G_- with equal actions: both sign problems see the same classes
        cert = family.make_certificate_Kn(2)
        neg = enumerate_embeddings(cert.goeritz_minus, 1, -1)
        pos = enumerate_embeddings(cert.goeritz_plus, 1, 1)
        assert [e.matrix for e in neg] == [e.matrix for e in pos]


def conjugated_k3_rotation():
    """The K_3 rotation conjugated by the transposition of regions 1 and 2.

    It fixes region 0 and has order 3, but it sends region 1 (two crossings
    with region 0) to region 4 (one crossing with region 0), so it is not an
    automorphism of the diagram."""
    rot = family.rotation_region_action(3).permutation
    swap = (0, 2, 1, 3, 4, 5, 6)
    return RegionAction(tuple(swap[rot[swap[i]]] for i in range(7)), period=3)


class TestValidationFailures:
    """validate_action and certificate_from_json name the same failed check."""

    def certificate_json(self, d, a):
        g = goeritz(d).matrix
        f = induced_action_matrix(d, a)
        return {
            "goeritz_minus": [list(r) for r in g],
            "goeritz_plus": [[-x for x in r] for r in g],
            "action_minus": [list(r) for r in f],
            "period": a.period,
            "signature": 0,
            "arf": 1,
        }

    @pytest.mark.parametrize(
        "action, word",
        [
            (conjugated_k3_rotation(), "isometry"),
            (RegionAction(family.rotation_region_action(3).permutation, 2), "order"),
        ],
    )
    def test_both_reject(self, action, word):
        d = family.diagram_Kn(3)
        failures = validate_action(d, action).failures
        assert len(failures) == 1 and word in failures[0]
        with pytest.raises(ValueError, match=word):
            certificate_from_json(self.certificate_json(d, action))

    def test_true_rotation_accepted(self):
        d = family.diagram_Kn(3)
        a = family.rotation_region_action(3)
        assert validate_action(d, a).passed
        certificate_from_json(self.certificate_json(d, a))


class TestCertificateJson:
    def payload(self):
        cert = family.make_certificate_Kn(2)
        return {
            "name": "K_2",
            "goeritz_minus": [list(r) for r in cert.goeritz_minus.matrix],
            "goeritz_plus": [list(r) for r in cert.goeritz_plus.matrix],
            "action_minus": [list(r) for r in cert.action_minus],
            "action_plus": [list(r) for r in cert.action_plus],
            "period": 2,
            "signature": 0,
            "arf": 0,
            "known_gamma4": 1,
        }

    def test_round_trip(self):
        cert = certificate_from_json(self.payload())
        assert cert == family.make_certificate_Kn(2)

    def test_action_defaulting(self):
        obj = self.payload()
        del obj["action_plus"]
        cert = certificate_from_json(obj)
        assert cert.action_plus == cert.action_minus
        assert cert.action_defaulted == "plus"

    def test_plus_only_action_defaults_minus(self):
        obj = self.payload()
        del obj["action_minus"]
        cert = certificate_from_json(obj)
        assert cert.action_minus == cert.action_plus
        assert cert.action_defaulted == "minus"
        report = gamma4p_lower_bound(cert)
        assert report_to_json(report)["action_defaulted"] == "minus"

    def test_image_list_action(self):
        obj = self.payload()
        obj["action_minus"] = [2, 3, 0, 1]  # X1<->X3, X2<->X4, 0-indexed images
        obj["action_plus"] = [2, 3, 0, 1]
        assert certificate_from_json(obj) == family.make_certificate_Kn(2)

    @pytest.mark.parametrize("name", ["\ud800x", 5, [1]])
    def test_name_must_be_utf8_text(self, name):
        obj = self.payload()
        obj["name"] = name
        with pytest.raises(ValueError, match="name"):
            certificate_from_json(obj)

    def test_missing_both_actions_rejected(self):
        obj = self.payload()
        del obj["action_minus"]
        del obj["action_plus"]
        with pytest.raises(ValueError, match="action"):
            certificate_from_json(obj)

    def test_missing_action_without_negation_rejected(self):
        obj = self.payload()
        obj["goeritz_plus"][0][0] += 1
        obj["goeritz_plus"][1][1] += 1
        del obj["action_plus"]
        with pytest.raises(ValueError):
            certificate_from_json(obj)


class TestReportSerialization:
    def test_json_serializable(self):
        rep = gamma4p_lower_bound(family.make_certificate_Kn(3))
        blob = json.dumps(report_to_json(rep), sort_keys=True)
        back = json.loads(blob)
        assert back["gamma4p_lower_bound"] == 3
        assert back["cover_sign"] == "mobius_impossible"
        assert back["klein"]["obstructed"] is True

    def test_text_contains_key_lines(self):
        text = report_to_text(gamma4p_lower_bound(family.make_certificate_Kn(2)))
        assert "gamma_{4,p} lower bound  2" in text.replace("   ", "  ") or "2" in text
        assert "gap detected" in text
        assert "yes" in text
