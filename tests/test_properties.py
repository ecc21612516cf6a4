"""Property tests of the closed-form layer over random parameter tuples.

The acceptance sweeps stop at e <= 20, f <= 8; these draw tuples well past
that range.
"""

from fractions import Fraction

from helpers import n_c4, published_masses, valid_params
from hypothesis import given, settings
from hypothesis import strategies as st

from q2quartic import counts as C
from q2quartic import masses as M
from q2quartic.errors import InvalidParams
from q2quartic.params import GROUP_ORDER, FieldParams, MinusOneClass


@st.composite
def raw_tuples(draw):
    """Five integers and a class, near enough to the valid region to land in it often."""
    e = draw(st.integers(-2, 40))
    f = draw(st.integers(-2, 12))
    q = (2**f if f >= 0 else 0) + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -2]))
    k = max(e, 0) + 2
    d = draw(st.one_of(st.just(0), st.integers(-1, k).map(lambda i: 2 * i), st.integers(-2, 2 * k)))
    return e, f, q, d, draw(st.sampled_from(list(MinusOneClass)))


@settings(max_examples=150, deadline=None)
@given(raw_tuples())
def test_random_tuple_rejected_or_counts_integral(t):
    try:
        p = FieldParams(*t)
    except InvalidParams:
        return
    for m in range(0, C.max_support(p) + 2):
        for g in GROUP_ORDER:
            assert type(C.count(p, m, g)) is int
        assert type(C.count_tow(p, m)) is int
        assert type(C.count_one_aut(p, m)) is int
    for m1 in range(0, 2 * p.e + 3):
        assert type(C.count_quad_ext(p, m1)) is int
        assert type(C.n_ext(p, m1)) is int


@settings(max_examples=25, deadline=None)
@given(valid_params(64, 12))
def test_c4_explicit_equals_tower_form(p):
    row = C.count_C4_towers(p)
    assert len(row) == C.max_support(p) + 1
    for m in range(0, C.max_support(p) + 1):
        assert C.count_C4(p, m) == row[m], m
    assert C.count_C4(p, C.max_support(p) + 1) == 0


@settings(max_examples=25, deadline=None)
@given(valid_params(40, 12))
def test_summed_masses_match_closed_forms_and_serre(p):
    summed = {g: M.mass_from_counts(p, g) for g in GROUP_ORDER}
    for g in GROUP_ORDER:
        assert summed[g] == M.mass_closed_form(p, g), g
    assert sum(summed.values()) == Fraction(1, p.q**3)


@settings(max_examples=50, deadline=None)
@given(valid_params(64, 12))
def test_closed_masses_equal_published_forms(p):
    assert dict(M.closed_masses(p)) == published_masses(p)


@settings(max_examples=25, deadline=None)
@given(valid_params(64, 12))
def test_n_c4_row_equals_per_cell_form(p):
    e = p.e
    for m1 in range(-1, 2 * e + 3):
        row = C.n_c4_row(p, m1)
        assert 0 not in row.values(), m1
        for m2 in range(-2, 8 * e + 6):
            assert row.get(m2, 0) == n_c4(p, m1, m2), (m1, m2)
