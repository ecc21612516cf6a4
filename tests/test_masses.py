from fractions import Fraction

from helpers import C4_MASS_QUANTITIES

from q2quartic import counts as C
from q2quartic import masses as M
from q2quartic.params import (
    GROUP_ORDER,
    GroupTag,
    MinusOneClass,
    aut_order,
    make_params,
    valid_param_sweep,
)

Q2P = make_params(1, 1, 2, MinusOneClass.RAMIFIED)


def test_q2_masses():
    assert M.mass_closed_form(Q2P, GroupTag.S4) == Fraction(9, 128)
    assert M.mass_closed_form(Q2P, GroupTag.A4) == Fraction(1, 64)
    assert M.mass_closed_form(Q2P, GroupTag.V4) == Fraction(1, 256)
    assert M.mass_closed_form(Q2P, GroupTag.C4) == Fraction(1, 1024)
    assert M.mass_closed_form(Q2P, GroupTag.D4) == Fraction(35, 1024)


def test_q2_masses_from_counts():
    assert M.mass_from_counts(Q2P, GroupTag.V4) == Fraction(1, 256)
    assert M.mass_from_counts(Q2P, GroupTag.D4) == Fraction(35, 1024)
    assert M.mass_from_counts(Q2P, GroupTag.A4) == Fraction(1, 64)


def test_f_even_S4_mass_zero():
    p = make_params(3, 2, 2, MinusOneClass.RAMIFIED)
    assert M.mass_closed_form(p, GroupTag.S4) == 0
    assert M.mass_from_counts(p, GroupTag.S4) == 0


def test_c4_mass_quantities_q2():
    # for Q2 only the ninth quantity is nonzero
    vals = [fn(Q2P) for fn in C4_MASS_QUANTITIES]
    assert vals[8] == Fraction(1, 1024)
    assert all(v == 0 for v in vals[:8])
    assert sum(vals) == Fraction(1, 1024)


def test_tower_mass_examples():
    assert M.tower_mass_sum(Q2P) == Fraction(3, 64)
    p2 = make_params(2, 1, 2, MinusOneClass.RAMIFIED)
    q = Fraction(2)
    assert M.tower_mass_sum(p2) == Fraction(1, 7) * (q**-9 + q**-7 + q**-2)
    pf2 = make_params(1, 2, 2, MinusOneClass.RAMIFIED)
    q = Fraction(4)
    assert M.tower_mass_sum(pf2) == Fraction(1, 21) * (q**-6 + q**-4 + q**-2)


def test_serre_examples():
    assert M.serre_total(Q2P) == Fraction(1, 8)
    assert M.serre_total(make_params(1, 2, 2, MinusOneClass.RAMIFIED)) == Fraction(1, 64)
    assert M.serre_total(make_params(2, 1, 2, MinusOneClass.RAMIFIED)) == Fraction(1, 8)


def test_masses_positive_except_known_zeros():
    for p in valid_param_sweep(6, 4):
        for g in GROUP_ORDER:
            v = M.mass_closed_form(p, g)
            if g is GroupTag.S4 and p.f % 2 == 0:
                assert v == 0
            elif g in (GroupTag.S4, GroupTag.A4, GroupTag.V4):
                assert v > 0


def test_closed_equals_summed_mini_sweep():
    for p in valid_param_sweep(6, 3):
        for g in GROUP_ORDER:
            assert M.mass_closed_form(p, g) == M.mass_from_counts(p, g), (p, g)


def _per_term_sum(p, row, denom):
    return sum((Fraction(c, denom * p.q**m) for m, c in enumerate(row)), Fraction(0))


def test_support_sum_equals_per_term_sum():
    # Horner's one numerator against a Fraction per term, on every row of
    # small tuples and on rows with negative and trailing entries
    for p in valid_param_sweep(6, 3):
        rows = C.count_rows(p)
        for row, denom in [(rows.tow, 4), *((rows.groups[g], aut_order(g)) for g in GROUP_ORDER)]:
            assert M._support_sum(p, row, denom) == _per_term_sum(p, row, denom), p
    p = make_params(1, 2, 2, MinusOneClass.RAMIFIED)
    for row in [(0,) * 12, (5,) + (0,) * 11, (0,) * 11 + (7,), tuple(range(-5, 7))]:
        assert M._support_sum(p, row, 3) == _per_term_sum(p, row, 3), row
