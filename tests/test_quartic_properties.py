"""Property tests of the quartic layer over random Eisenstein quartics.

The witnesses in test_padic_quartic.py are hand-picked quartics over Q2;
these draw quartics over ramified and unramified base fields, with each
middle coefficient's valuation drawn before its digits so that every
closure group is reached.
"""

from functools import lru_cache

import pytest
from helpers import resolvent_bounds, root_distances
from hypothesis import given, settings
from hypothesis import strategies as st

from q2quartic.oracle.dedup import _DedupWalk, _has_root_in
from q2quartic.oracle.density import _INF, _Enumerator, _root_nodes
from q2quartic.padic.field import field_from_spec
from q2quartic.padic.quartic import (
    EisensteinQuartic,
    classify_by_invariants,
    classify_quartic,
    disc_valuation,
    in_Tm,
    in_Tm_domain,
    stem_ring,
)
from q2quartic.params import GroupTag

_SPECS = {
    "Q2": {"f": 1},
    "U2": {"f": 2},
    "sqrt2": {"f": 1, "eisenstein": [-2, 0, 1]},
    "x^3-2": {"f": 1, "eisenstein": [-2, 0, 0, 1]},
}


@lru_cache(maxsize=None)
def _field(name):
    return field_from_spec(_SPECS[name])


@lru_cache(maxsize=None)
def _enumerator(name):
    K = _field(name)
    return _Enumerator(K, 8 * K.e_abs + 3)


@st.composite
def _coefficient(draw, K, v, n):
    """Digits of an element of valuation exactly v (None: zero), n digits long."""
    if v is None:
        return None
    lead = draw(st.integers(1, K.q - 1))
    rest = draw(st.lists(st.integers(0, K.q - 1), min_size=n - v - 1, max_size=n - v - 1))
    return (0,) * v + (lead,) + tuple(rest)


@st.composite
def eisenstein_quartics(draw, names, allow_zero):
    """(field name, quartic, coefficient valuations with None for zero)."""
    name = draw(st.sampled_from(names))
    K = _field(name)
    e = K.e_abs
    n = 8 * e + 4
    vals = [1]
    for _ in range(3):
        v = st.integers(1, 2 * e + 2)
        vals.append(draw(st.one_of(st.none(), v) if allow_zero else v))
    digits = [draw(_coefficient(K, v, n)) for v in vals]
    coeffs = [K.ring.zero if d is None else K.from_digits(d) for d in digits]
    return name, EisensteinQuartic(K, *coeffs), vals


@settings(max_examples=200, deadline=None)
@given(eisenstein_quartics(("Q2", "U2", "sqrt2"), allow_zero=False))
def test_classifiers_agree(case):
    _, fq, _ = case
    assert classify_quartic(fq) == classify_by_invariants(fq)


def _vrep(vals):
    """Coefficient valuations with _INF for zero, as the enumerator keeps them."""
    return tuple(_INF if v is None else v for v in vals)


@settings(max_examples=80, deadline=None)
@given(eisenstein_quartics(tuple(_SPECS), allow_zero=True))
def test_distance_polygon_is_largest_root_distance(case):
    # the Krasner certificate of the density oracle relies on this equality;
    # the enumerator returns 12 D so that the certificate stays in integers
    name, fq, vals = case
    assert _enumerator(name)._distance_polygon_max(_vrep(vals)) == 12 * max(root_distances(fq))


@settings(max_examples=200, deadline=None)
@given(eisenstein_quartics(tuple(_SPECS), allow_zero=True))
def test_ore_formula_is_disc_valuation(case):
    # the density oracle reads v(disc) of every node's representative from
    # Ore's formula on the coefficient valuations instead of computing disc
    name, fq, vals = case
    assert _enumerator(name)._ore_disc_val(_vrep(vals)) == disc_valuation(fq)


@settings(max_examples=200, deadline=None)
@given(eisenstein_quartics(tuple(_SPECS), allow_zero=True))
def test_t_m_reduces_to_the_a2_bound(case):
    # with m = v(disc), Ore's formula already puts v(a1) and v(a3) on the
    # T_m pattern, so membership is v(a2) >= ceil(m/6); the tower
    # certificate's 1-Aut screen tests only that
    name, fq, vals = case
    m = disc_valuation(fq)
    vrep = _vrep(vals)
    in_domain = in_Tm_domain(m, fq.field.e_abs)
    if in_domain:
        assert in_Tm(fq, m) == (vrep[2] >= -(m // -6))
    assert _enumerator(name)._visibly_non_one_aut(vrep, m) == (not in_domain or not in_Tm(fq, m))


@settings(max_examples=150, deadline=None)
@given(eisenstein_quartics(("Q2", "sqrt2"), allow_zero=True), st.data())
def test_class_stable_below_certified_depth(case, data):
    # one_aut_measure classifies one representative per coefficient class
    # mod pi^c, c = m//3 + 2: any digit at or below that depth must leave
    # (m, g) unchanged
    _, fq, _ = case
    K = fq.field
    m, g = classify_quartic(fq)
    c = m // 3 + 2 + data.draw(st.integers(0, 2), label="extra depth")
    i = data.draw(st.integers(0, 3), label="coefficient")
    t = data.draw(st.integers(1, K.q - 1), label="digit")
    coeffs = list(fq.coeffs())
    coeffs[i] = K.ring.add(coeffs[i], K.digit_elt(t, c))
    assert classify_quartic(EisensteinQuartic(K, *coeffs)) == (m, g)


@lru_cache(maxsize=None)
def _krasner_leaves(name):
    """Digits of every Krasner leaf of the dedup walk over m <= 8."""
    leaves = []

    class Recorder(_DedupWalk):
        def _krasner_leaf(self, digits):
            leaves.append(digits)

    K = _field(name)
    Recorder(K, 8).run(_root_nodes(K.q)[:1])
    return leaves


@lru_cache(maxsize=None)
def _leaf_stem(name, index):
    K = _field(name)
    digits = _krasner_leaves(name)[index]
    return stem_ring(EisensteinQuartic(K, *(K.from_digits(d) for d in digits)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("Q2", "sqrt2")), st.data())
def test_krasner_leaf_members_share_the_stem_field(name, data):
    # dedup_counts keeps one field per Krasner leaf: every member of the
    # leaf must have a root in the stem field of its representative
    K = _field(name)
    leaves = _krasner_leaves(name)
    index = data.draw(st.integers(0, len(leaves) - 1), label="leaf")
    digit = st.integers(0, K.q - 1)
    member = EisensteinQuartic(K, *(
        K.from_digits(d + tuple(data.draw(st.lists(digit, min_size=1, max_size=6))))
        for d in leaves[index]
    ))
    assert _has_root_in(_leaf_stem(name, index), member)


@lru_cache(maxsize=None)
def _coset_leaves(name):
    """Digits and m of every coset-certified leaf of the density walk over the full range."""
    leaves = []

    class Recorder(_Enumerator):
        def _certify(self, mg, fq, digits, certificate):
            if certificate == "coset":
                leaves.append((digits, mg[0]))
            super()._certify(mg, fq, digits, certificate)

    K = _field(name)
    Recorder(K, 8 * K.e_abs + 3, cross_check_every=0).run(_root_nodes(K.q)[:1])
    return leaves


@pytest.mark.parametrize("name", ["Q2", "sqrt2"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coset_leaf_members_are_d4(name, data):
    # a coset leaf is certified D4 for every member: each member's disc class
    # lies off H = {d : (d, -1) = 1}, so it is neither a square (V4) nor the
    # quadratic subfield of a C4 extension
    K = _field(name)
    leaves = _coset_leaves(name)
    index = data.draw(st.integers(0, len(leaves) - 1), label="leaf")
    digits, m = leaves[index]
    digit = st.integers(0, K.q - 1)
    member = EisensteinQuartic(K, *(
        K.from_digits(d + tuple(data.draw(st.lists(digit, min_size=1, max_size=6))))
        for d in digits
    ))
    assert classify_quartic(member) == (m, GroupTag.D4)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_SPECS)),
    st.tuples(*[st.integers(1, 60)] * 4),
    st.tuples(*[st.integers(0, 60)] * 3),
)
def test_resolvent_bound_tables_match_hand_derived_bounds(name, cs, vs):
    """The bounds density reads from the resolvent tables equal the
    hand-derived ones at every node shape with v(a0) = 1 and vh <= cs."""
    enum = _enumerator(name)
    vh = (1, *(min(v, c) for v, c in zip(vs, cs[1:])))
    got = tuple(enum._bound(t, cs, vh) for t in enum._resolvent_tables)
    assert got == resolvent_bounds(enum.e, cs, vh)
