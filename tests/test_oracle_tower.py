import pytest
from helpers import quartic_from_ints

from q2quartic import counts as C
from q2quartic.oracle.tower import tower_counts, tower_pair_totals
from q2quartic.padic.field import field_from_spec
from q2quartic.params import GroupTag

TOWER_GROUPS = (GroupTag.V4, GroupTag.C4, GroupTag.D4)


def test_q2_tower_counts(Q2):
    got = {(m, g.value): n for (m, g), n in tower_counts(Q2)[0].items()}
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
    tc, _ = tower_counts(K)
    for m in range(0, 8 * p.e + 4):
        for g in TOWER_GROUPS:
            assert tc.get((m, g), 0) == C.count(p, m, g), (spec, m, g)


def test_tower_criterion_matches_quartic_classifier(Q2):
    # the two classification routes agree on the worked tower witnesses
    from q2quartic.padic.quartic import (
        classify_quartic,
        classify_tower_from_norm,
    )
    from q2quartic.params import GroupTag

    def tower(d, x, y):
        # closure group of Q2(sqrt(d), sqrt(x + y sqrt(d))) from N(alpha) = x^2 - d y^2
        return classify_tower_from_norm(Q2, Q2.from_int(d), Q2.from_int(x * x - d * y * y))

    assert tower(2, 2, 1) is GroupTag.C4
    assert classify_quartic(quartic_from_ints(Q2, 2, 0, -4, 0))[1] is GroupTag.C4
    assert tower(2, 0, 1) is GroupTag.D4
    assert classify_quartic(quartic_from_ints(Q2, -2, 0, 0, 0))[1] is GroupTag.D4
    assert tower(-1, 0, 1) is GroupTag.V4
    assert classify_quartic(quartic_from_ints(Q2, 2, 4, 6, 4))[1] is GroupTag.V4


SQRT2 = {"f": 1, "eisenstein": [-2, 0, 1]}


@pytest.mark.parametrize("spec", [{"f": 1}, SQRT2])
def test_every_pair_cross_checked(spec, check_every):
    K = field_from_spec(spec)
    counts, meta = tower_counts(K)
    check_every(1)
    checked, full = tower_counts(K)
    assert checked == counts
    assert full == {"pairs": meta["pairs"], "cross_checks": meta["pairs"]}
    assert 0 < meta["cross_checks"] < meta["pairs"]
    check_every(0)
    assert tower_counts(K)[1]["cross_checks"] == 0


def _skew_one_norm_image(monkeypatch):
    # the norm of E's first odd-level basis unit is read as one pi-class off
    import q2quartic.oracle.tower as T

    real = T._norm_images

    def skewed(K, E):
        images = real(K, E)
        images[1] ^= 1
        return images

    monkeypatch.setattr(T, "_norm_images", skewed)


def test_wrong_norm_image_raises(monkeypatch, check_every, Q2):
    from q2quartic.errors import FormulationMismatch

    _skew_one_norm_image(monkeypatch)
    check_every(1)
    with pytest.raises(FormulationMismatch):
        tower_counts(Q2)


def test_wrong_norm_image_exits_4_from_verify(monkeypatch, tmp_path, capsys):
    import json

    from q2quartic.cli import run

    _skew_one_norm_image(monkeypatch)
    spec = tmp_path / "sqrt2.json"
    spec.write_text(json.dumps(SQRT2))
    assert run(["verify", "--field", str(spec), "--m-max", "19", "--oracle", "tower"]) == 4
    assert "internal inconsistency" in capsys.readouterr().err
