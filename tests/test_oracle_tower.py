import pytest

from q2quartic import counts as C
from q2quartic.oracle.tower import tower_counts, tower_pair_totals
from q2quartic.padic.field import field_from_spec
from q2quartic.params import GroupTag

TOWER_GROUPS = (GroupTag.V4, GroupTag.C4, GroupTag.D4)


def test_q2_tower_counts(Q2):
    got = {(m, g.value): n for (m, g), n in tower_counts(Q2).items()}
    assert got == {
        (6, "D4"): 2,
        (8, "V4"): 4,
        (8, "D4"): 2,
        (9, "D4"): 8,
        (10, "D4"): 8,
        (11, "C4"): 8,
        (11, "D4"): 12,
    }


def test_q2_pair_totals_match_tow_formula(Q2):
    totals = tower_pair_totals(Q2)
    p = Q2.derive_params()
    for m in range(0, 12):
        assert totals.get(m, 0) == C.count_tow(p, m)
    assert totals[11] == 32


@pytest.mark.parametrize(
    "spec",
    [
        {"f": 1, "eisenstein": [-2, 0, 1]},
        {"f": 1, "eisenstein": [2, 0, 1]},
        {"f": 1, "eisenstein": [-6, 0, 1]},
        {"f": 2},
    ],
)
def test_tower_counts_match_formulas(spec):
    K = field_from_spec(spec)
    p = K.derive_params()
    tc = tower_counts(K)
    for m in range(0, 8 * p.e + 4):
        for g in TOWER_GROUPS:
            assert tc.get((m, g), 0) == C.count(p, m, g), (spec, m, g)


def test_tower_criterion_matches_quartic_classifier(Q2):
    # the two classification routes agree on the worked tower witnesses
    from q2quartic.padic.quartic import (
        EisensteinQuartic,
        classify_quartic,
        classify_tower_from_norm,
    )
    from q2quartic.params import GroupTag

    def tower(d, x, y):
        # closure group of Q2(sqrt(d), sqrt(x + y sqrt(d))) from N(alpha) = x^2 - d y^2
        return classify_tower_from_norm(Q2, Q2.from_int(d), Q2.from_int(x * x - d * y * y))

    assert tower(2, 2, 1) is GroupTag.C4
    assert classify_quartic(EisensteinQuartic.from_ints(Q2, 2, 0, -4, 0))[1] is GroupTag.C4
    assert tower(2, 0, 1) is GroupTag.D4
    assert classify_quartic(EisensteinQuartic.from_ints(Q2, -2, 0, 0, 0))[1] is GroupTag.D4
    assert tower(-1, 0, 1) is GroupTag.V4
    assert classify_quartic(EisensteinQuartic.from_ints(Q2, 2, 4, 6, 4))[1] is GroupTag.V4
