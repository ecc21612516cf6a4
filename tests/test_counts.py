import re
from fractions import Fraction

import pytest
from helpers import (
    COUNT_CELLS,
    Q2_TABLE,
    count_one_aut_cell,
    count_tow_cell,
    published_masses,
    valid_params,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from q2quartic import counts as C
from q2quartic import masses as M
from q2quartic.errors import NonIntegralCount
from q2quartic.params import GROUP_ORDER, GroupTag, MinusOneClass, make_params, valid_param_sweep

Q2P = make_params(1, 1, 2, MinusOneClass.RAMIFIED)
F2P = make_params(1, 2, 2, MinusOneClass.RAMIFIED)


def test_exact_division_rejects_remainder_and_negative_quotient():
    assert C._exact(12, 3, "x") == 4
    assert C._exact(0, 8, "x") == 0
    with pytest.raises(NonIntegralCount, match="non-integer"):
        C._exact(13, 3, "x")
    with pytest.raises(NonIntegralCount, match="non-integer"):
        C._exact(-13, 3, "x")
    with pytest.raises(NonIntegralCount, match="negative"):
        C._exact(-12, 3, "x")


def test_q2_closed_form_table():
    for m in range(0, 20):
        for g in GROUP_ORDER:
            assert C.count(Q2P, m, g) == Q2_TABLE.get((m, g), 0), (m, g)


def test_one_aut_examples():
    assert C.count_one_aut(Q2P, 4) == 1
    assert C.count_one_aut(Q2P, 6) == 1
    assert C.count_one_aut(Q2P, 5) == 0


def test_S4_A4_examples():
    assert C.count_S4(F2P, 4) == 0 and C.count_S4(F2P, 6) == 0  # f even: no S4
    assert C.count_S4(Q2P, 4) == 1
    assert C.count_S4(Q2P, 8) == 2
    assert C.count_A4(Q2P, 6) == 1
    assert C.count_A4(F2P, 6) == 5
    assert C.count_A4(Q2P, 12) == 0  # above 6e


def test_V4_examples_and_boundary():
    assert C.count_V4(Q2P, 8) == 4
    assert C.count_V4(Q2P, 6) == 0
    assert C.count_V4(Q2P, 4) == 0
    # the raw expression vanishes at m=4 even on the wider range
    q, e = Q2P.q, Q2P.e
    m = 4
    raw_val = (
        2
        * (q - 1)
        * Fraction(q) ** ((m - 4) // 2)
        * (Fraction(q) ** (-(m // 6)) - Fraction(q) ** (-((m - 2) // 4)))
    )
    assert raw_val == 0


def test_n_ext_examples():
    assert C.n_ext(Q2P, 2) == 0
    assert C.n_ext(Q2P, 3) == 2
    assert C.n_ext(Q2P, 4) == 0


def test_n_c4_examples():
    p4 = make_params(4, 1, 2, MinusOneClass.RAMIFIED)
    assert C.n_c4(p4, 2, 4) == 2  # q^{m1-1} branch at m2 = 3 m1 - 2
    assert C.n_c4(Q2P, 3, 5) == 4
    assert C.n_c4(Q2P, 3, 4) == 0


def test_n_c4_row_holds_only_nonzero_entries():
    p4 = make_params(4, 1, 2, MinusOneClass.RAMIFIED)
    # 3 m1 - 2, then every fourth m2 from 3 m1 to 4e - m1, then 4e - m1 + 2
    assert C.n_c4_row(p4, 2) == {4: 2, 6: 2, 10: 4, 14: 8, 16: 16}
    assert C.n_c4_row(p4, 6) == {14: 32}  # e < m1 <= 2e: only m2 = m1 + 2e
    assert C.n_c4_row(Q2P, 3) == {5: 4}  # m1 = 2e + 1
    assert C.n_c4_row(p4, 3) == {}


def test_C4_examples():
    assert C.count_C4(Q2P, 11) == 8
    assert C.count_C4(Q2P, 8) == 0
    pu = make_params(2, 1, 0, MinusOneClass.UNRAMIFIED)
    assert C.count_C4(pu, 19) == 0  # 8e+3 with unramified K(sqrt(-1))/K


def test_tow_examples():
    assert C.count_tow(Q2P, 11) == 32
    assert C.count_tow(Q2P, 9) == 16
    assert C.count_tow(Q2P, 6) == 4


def test_D4_examples():
    assert C.count_D4(Q2P, 9) == 8
    assert C.count_D4(Q2P, 11) == 12
    assert C.count_D4(Q2P, 7) == 0


def test_quad_ext_examples():
    assert C.count_quad_ext(Q2P, 2) == 2
    assert C.count_quad_ext(Q2P, 3) == 4
    assert C.count_quad_ext(Q2P, 1) == 0


def _support_ok(p, m, g):
    e = p.e
    if g is GroupTag.S4:
        return p.f % 2 == 1 and m % 2 == 0 and m % 6 != 0 and 4 <= m <= 6 * e + 2
    if g is GroupTag.A4:
        if p.f % 2 == 0:
            return m % 2 == 0 and 4 <= m <= 6 * e + 2
        return m % 6 == 0 and 6 <= m <= 6 * e
    if g is GroupTag.V4:
        return m % 2 == 0 and 6 <= m <= 6 * e + 2
    if g is GroupTag.C4:
        return m == 8 * e + 3 or (m % 2 == 0 and 8 <= m <= 8 * e)
    return (
        (m % 2 == 0 and 6 <= m <= 8 * e + 2)
        or (m % 4 == 1 and 4 * e + 5 <= m <= 8 * e + 1)
        or m == 8 * e + 3
    )


@pytest.mark.parametrize("e_max,f_max", [(10, 6)])
def test_range_vanishing_and_identities_sweep(e_max, f_max):
    for p in valid_param_sweep(e_max, f_max):
        for m in range(0, 8 * p.e + 9):
            per = {g: C.count(p, m, g) for g in GROUP_ORDER}
            for g, n in per.items():
                if not _support_ok(p, m, g):
                    assert n == 0, (p, m, g)
                if g is not GroupTag.D4:
                    assert n >= 0
            assert C.count_one_aut(p, m) == per[GroupTag.S4] + per[GroupTag.A4]
            assert (
                per[GroupTag.C4] + 2 * per[GroupTag.D4] + 3 * per[GroupTag.V4]
                == C.count_tow(p, m)
            )


def test_A4_totals_sweep():
    for p in valid_param_sweep(8, 4):
        total = sum(C.count_A4(p, m) for m in range(0, 8 * p.e + 4))
        if p.f % 2 == 1:
            assert total == (p.q ** (2 * p.e) - 1) // 3


def _assert_rows_equal_cells(p):
    # every row of count_rows equals the published per-cell form, cell by
    # cell, and the readers give 0 outside m = 0 .. 8e+3
    rows = C.count_rows(p)
    top = C.max_support(p)
    ms = range(top + 1)
    for g in GROUP_ORDER:
        assert list(rows.groups[g]) == [COUNT_CELLS[g](p, m) for m in ms], (p, g)
    assert list(rows.tow) == [count_tow_cell(p, m) for m in ms], p
    assert list(rows.one_aut) == [count_one_aut_cell(p, m) for m in ms], p
    for m in (-2, -1, top + 1, top + 6):
        assert [C.count(p, m, g) for g in GROUP_ORDER] == [0] * len(GROUP_ORDER)
        assert C.count_tow(p, m) == C.count_one_aut(p, m) == 0


def test_rows_equal_per_cell_forms_sweep():
    for p in valid_param_sweep(12, 8):
        _assert_rows_equal_cells(p)


@settings(max_examples=40, deadline=None)
@given(valid_params(64, 12))
def test_rows_equal_per_cell_forms_drawn(p):
    _assert_rows_equal_cells(p)


def _tuples_of(e, f):
    return [p for p in valid_param_sweep(e, f) if (p.e, p.f) == (e, f)]


@st.composite
def interleaved_tuples(draw):
    """Every tuple of one (e, f) and some of another (e', f'), in a random order."""
    e, f = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    other = draw(st.tuples(st.integers(1, 8), st.integers(1, 4)).filter(lambda ef: ef != (e, f)))
    some = draw(st.lists(st.sampled_from(_tuples_of(*other)), min_size=1, max_size=4))
    return draw(st.permutations(_tuples_of(e, f) + some))


@settings(max_examples=40, deadline=None)
@given(interleaved_tuples())
def test_tuples_sharing_e_f_read_their_own_rows_and_masses(tuples):
    # what is kept per (e, f) must not leak one tuple's C4 row or mass into
    # another's, nor one (e, f)'s N_C4 rows or tower row into another's,
    # whichever tuple of which (e, f) came before
    for p in tuples:
        _assert_rows_equal_cells(p)
        assert C.count_C4_towers(p) == list(C.count_rows(p).groups[GroupTag.C4]), p
        published = published_masses(p)
        assert dict(M.closed_masses(p)) == published, p
        for g in GROUP_ORDER:
            assert M.mass_from_counts(p, g) == published[g], (p, g)
        # a C4 quartic holds one tower, a D4 two and a V4 three; with #Aut
        # 4, 2 and 4 the tower mass is C4 + D4 + 3 V4
        tower = published[GroupTag.C4] + published[GroupTag.D4] + 3 * published[GroupTag.V4]
        assert M.tower_mass_sum(p) == tower, p


def test_rows_route_each_division_through_exact(monkeypatch, fresh_count_rows):
    p = make_params(3, 2, 2, MinusOneClass.RAMIFIED)
    e, real, seen = p.e, C._exact, []

    def spy(num, den, what, *args):
        seen.append(what % args)
        return real(num, den, what, *args)

    monkeypatch.setattr(C, "_exact", spy)
    C.count_rows(p)
    evens = range(0, 8 * e + 4, 2)
    assert sorted(seen) == sorted(
        [f"count_one_aut(m={m})" for m in evens if 4 <= m <= 6 * e + 2]
        + [f"count_A4(m={m})" for m in evens if 4 <= m <= 6 * e + 2 and m % 3 == 0]
        + [f"count_V4(m={m})" for m in evens if 6 <= m <= 6 * e + 2]
        + [f"count_C4(m={m})" for m in evens if 8 <= m <= 8 * e]
        + [f"count_tow(m={m})" for m in evens if 6 <= m <= 8 * e + 2]
    )


@pytest.mark.parametrize(
    "cell", ["count_one_aut(m=6)", "count_A4(m=6)", "count_V4(m=8)", "count_C4(m=16)", "count_tow(m=18)"]
)
def test_a_rejected_division_fails_the_rows(monkeypatch, fresh_count_rows, cell):
    real = C._exact

    def reject_one(num, den, what, *args):
        if what % args == cell:
            raise NonIntegralCount(f"{cell} rejected")
        return real(num, den, what, *args)

    monkeypatch.setattr(C, "_exact", reject_one)
    with pytest.raises(NonIntegralCount, match=re.escape(cell)):
        C.count_rows(make_params(2, 1, 2, MinusOneClass.RAMIFIED))


def test_odd_twice_D4_is_rejected():
    with pytest.raises(NonIntegralCount, match=re.escape("odd 2*D4 = 1 at m=1")):
        C._d4_row([0, 4, 0], [0, 0, 0], [0, 1, 0])
