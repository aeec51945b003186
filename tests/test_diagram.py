import pytest
from hypothesis import given, strategies as st

import goeritz._intlinalg as la
from goeritz import family
from goeritz.diagram import (
    ActionValidation,
    CheckerboardDiagram,
    RegionAction,
    diagram_from_json,
    goeritz,
    induced_action_matrix,
    pre_goeritz,
    validate_action,
)
from goeritz.lattice import is_definite

SINGLE = CheckerboardDiagram(2, ((0, 1, -1),))
FIG8 = CheckerboardDiagram(3, ((0, 1, -1), (0, 1, -1), (1, 2, -1), (2, 0, -1)))


def diagrams():
    region_count = st.integers(2, 6)
    return region_count.flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([1, -1])
            ).filter(lambda c: c[0] != c[1]),
            min_size=1,
            max_size=12,
        ).map(lambda cs: CheckerboardDiagram(n, tuple(cs)))
    )


class TestPreGoeritz:
    def test_single_crossing(self):
        assert pre_goeritz(SINGLE) == ((-1, 1), (1, -1))

    def test_figure_eight(self):
        assert pre_goeritz(FIG8) == ((-3, 2, 1), (2, -3, 1), (1, 1, -2))

    def test_12a1019_encoding_matches_fixture(self):
        g = goeritz(family.diagram_12a1019())
        assert g.matrix == family.G_MINUS_12A1019

    @given(diagrams())
    def test_symmetric_zero_row_sums(self, d):
        pg = pre_goeritz(d)
        assert la.is_symmetric(pg)
        assert all(sum(row) == 0 for row in pg)

    @given(diagrams(), st.randoms())
    def test_crossing_order_irrelevant(self, d, rng):
        shuffled = list(d.crossings)
        rng.shuffle(shuffled)
        d2 = CheckerboardDiagram(d.region_count, tuple(shuffled))
        assert goeritz(d).matrix == goeritz(d2).matrix

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            CheckerboardDiagram(2, ((0, 2, -1),))
        with pytest.raises(ValueError):
            CheckerboardDiagram(2, ((0, 0, -1),))
        with pytest.raises(ValueError):
            CheckerboardDiagram(1, ((0, 1, -1),))
        with pytest.raises(ValueError):
            CheckerboardDiagram(3, ())


class TestGoeritz:
    def test_single_crossing(self):
        assert goeritz(SINGLE).matrix == ((-1,),)

    def test_figure_eight_matches_block(self):
        assert goeritz(FIG8).matrix == ((-3, 1), (1, -2))

    def test_all_negative_weights_definite(self):
        for d in (SINGLE, FIG8, family.diagram_12a1019(), family.diagram_Kn(3)):
            assert is_definite(goeritz(d), -1)


class TestInducedAction:
    def test_12a1019_cycles(self):
        d = family.diagram_12a1019()
        a = RegionAction((0, 2, 3, 1, 5, 6, 4), period=3)
        mat = induced_action_matrix(d, a)
        assert mat == family.ACTION_12A1019

    def test_identity(self):
        a = RegionAction((0, 1, 2), period=2)
        assert induced_action_matrix(FIG8, a) == la.identity(2)

    def test_kn_action(self):
        for n in (2, 3, 4):
            d = family.diagram_Kn(n)
            a = family.rotation_region_action(n)
            assert induced_action_matrix(d, a) == family.action_fn(n)

    def test_must_fix_region_zero(self):
        a = RegionAction((1, 0, 2), period=2)
        with pytest.raises(ValueError, match="fix region 0"):
            induced_action_matrix(FIG8, a)


class TestValidateAction:
    def test_12a1019_rotation_passes(self):
        d = family.diagram_12a1019()
        a = RegionAction((0, 2, 3, 1, 5, 6, 4), period=3)
        assert validate_action(d, a).passed

    def test_kn_rotation_passes(self):
        for n in (2, 3):
            rep = validate_action(family.diagram_Kn(n), family.rotation_region_action(n))
            assert rep.passed, rep.failures

    def test_identity_declared_period_2_fails_order(self):
        a = RegionAction((0, 1, 2), period=2)
        rep = validate_action(FIG8, a)
        assert not rep.passed
        assert any("order" in f for f in rep.failures)

    def test_non_isometry_reported(self):
        # swapping X_1, X_2 is not an isometry of [[-3,1],[1,-2]]
        a = RegionAction((0, 2, 1), period=2)
        rep = validate_action(FIG8, a)
        assert any("isometry" in f for f in rep.failures)


def test_json_round_trip():
    obj = {"regions": 3, "crossings": [[0, 1, -1], [0, 1, -1], [1, 2, -1], [2, 0, -1]],
           "label": "fig8"}
    d = diagram_from_json(obj)
    assert d == CheckerboardDiagram(3, FIG8.crossings, label="fig8")
    with pytest.raises(ValueError):
        diagram_from_json({"regions": 3})
