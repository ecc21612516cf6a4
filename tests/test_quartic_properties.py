"""Property tests of the quartic layer over random Eisenstein quartics.

The witnesses in test_padic_quartic.py are hand-picked quartics over Q2;
these draw quartics over ramified and unramified base fields, with each
middle coefficient's valuation drawn before its digits so that every
closure group is reached.
"""

from functools import lru_cache
from unittest.mock import patch

import pytest
from helpers import (
    BOUND_TABLES,
    COMPILED_PATH,
    REGENERATE,
    compiled_source,
    cubic_disc,
    cubic_leading_digits_in_ring,
    eval_tables,
    resolvent_bounds,
    resolvent_split_at_target,
    root_distances,
    simple_residue_roots_two_shift,
    table_bound,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from q2quartic.errors import PrecisionExhausted
from q2quartic.oracle import tower
from q2quartic.oracle.dedup import _DedupWalk, _has_root_in
from q2quartic.oracle.density import _INF, _ROOT, _Enumerator, _resolvent_window
from q2quartic.padic import _compiled, quartic
from q2quartic.padic.field import field_from_spec
from q2quartic.padic.quartic import (
    _DISC_MONOMIALS,
    _RESOLVENT_MONOMIALS,
    EisensteinQuartic,
    _count_roots_in_ring,
    _poly_deriv,
    _poly_eval,
    _resolvent_split,
    _ring_roots,
    _root_from_hint,
    classify_by_invariants,
    classify_quartic,
    count_roots_in_stem,
    cubic_k_roots,
    cubic_leading_digits,
    deformation_cubic,
    disc_raw,
    disc_valuation,
    in_Tm,
    in_Tm_domain,
    is_one_aut,
    resolvent_cubic,
    stem_ring,
    t_m_pattern,
)
from q2quartic.padic.rings import UnramifiedRing
from q2quartic.params import GroupTag

_SPECS = {
    "Q2": {"f": 1},
    "U2": {"f": 2},
    "sqrt2": {"f": 1, "eisenstein": [-2, 0, 1]},
    "x^3-2": {"f": 1, "eisenstein": [-2, 0, 0, 1]},
}
# Q2(i), where -1 is a square, joins them for the parity lemma only
_Q2I = {"Q2(i)": {"f": 1, "eisenstein": [2, 2, 1]}}
# U(f=3) joins them for the cubic congruence's digit sets only
_U3 = {"U3": {"f": 3}}


@lru_cache(maxsize=None)
def _field(name):
    return field_from_spec({**_SPECS, **_Q2I, **_U3}[name])


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
    assert classify_quartic(fq) == classify_by_invariants(fq)[0]


@settings(max_examples=200, deadline=None)
@given(eisenstein_quartics(("Q2", "sqrt2", "U2"), allow_zero=True))
def test_resolvent_cubic_has_the_quartics_disc(case):
    # a resolvent root found from a hint is the only one in K because
    # disc(R) = disc(f), which its callers have found not to be a square
    _, fq, _ = case
    K = fq.field
    assert disc_raw(K, *fq.coeffs()) == cubic_disc(K.ring, resolvent_cubic(fq))


@settings(max_examples=200, deadline=None)
@given(eisenstein_quartics(("Q2", "sqrt2", "U2"), allow_zero=True))
def test_disc_by_a3_read_at_a3_is_the_disc(case):
    # disc_raw is the Horner value at a3 of its prefix's disc_by_a3; read
    # here without disc_raw's cache, it must match the monomial table
    _, fq, _ = case
    R = fq.field.ring
    coeffs = fq.coeffs()
    a0, a1, a2, a3 = coeffs
    d = R.zero
    for coeff in reversed(_compiled.disc_by_a3(R, a0, a1, a2)):
        d = R.add(R.mul(d, a3), coeff)
    assert d == eval_tables(R, coeffs, (_DISC_MONOMIALS,))[0]
    assert d == disc_raw(fq.field, a0, a1, a2, a3)


@settings(max_examples=200, deadline=None)
@given(eisenstein_quartics(("Q2", "sqrt2", "U2"), allow_zero=True), st.data())
def test_root_from_hint_agrees_with_the_search(case, data):
    # from any start the hint helper gives up or finds the one root the
    # search finds, to the accuracy Hensel allows; a start closer to that
    # root than v(R'(w)) always finds it
    _, fq, _ = case
    K = fq.field
    R = K.ring
    assume(not K.is_square(fq.disc))
    rescubic = resolvent_cubic(fq)
    deriv = _poly_deriv(R, rescubic)
    target = 24 * K.e_abs + 32
    roots = cubic_k_roots(K, rescubic, target)
    near = bool(roots) and data.draw(st.booleans(), label="start near the root")
    if near:
        k = data.draw(st.integers(1, target), label="level")
        t = data.draw(st.integers(1, K.q - 1), label="digit")
        start = R.add(roots[0], K.digit_elt(t, k))
    else:
        digits = st.lists(st.integers(0, K.q - 1), max_size=4 * K.e_abs + 4)
        start = K.from_digits(data.draw(digits, label="start"))
    steps = _root_from_hint(K, rescubic, deriv, start)
    if near and k > R.val(_poly_eval(R, deriv, roots[0])):
        assert steps is not None
    if steps is None:
        return
    assert len(roots) == 1
    w, _, vd = next(item for item in steps if item[1] is None or item[1] >= target)
    gap = R.val(R.sub(w, roots[0]))
    assert gap is None or gap >= target - vd
    # the root taken early is within eps = v(R(x)) - v(R'(x)) of the refined one
    x = _resolvent_split(fq, None, start, check=True)[1]
    vp = R.val(_poly_eval(R, rescubic, x))
    gap = R.val(R.sub(x, w))
    assert vp is None or gap is None or gap >= vp - vd


def _vrep(vals):
    """Coefficient valuations with _INF for zero, as the enumerator keeps them."""
    return tuple(_INF if v is None else v for v in vals)


@settings(max_examples=200, deadline=None)
@given(eisenstein_quartics(tuple(_SPECS), allow_zero=True), st.data())
def test_adaptive_resolvent_precision_matches_the_fixed_target(case, data):
    # _resolvent_split reads w at the first Newton step with v(w) < eps =
    # v(w - w*) and refines it only until the window holds at min(dw, eps);
    # group and window verdict must be those of w refined to 24e+32, from a
    # hint near the root, from anywhere, or from none
    _, fq, vals = case
    K = fq.field
    R, e = K.ring, K.e_abs
    assume(not is_one_aut(fq, disc_valuation(fq)) and not K.is_square(fq.disc))
    cs = data.draw(st.tuples(*[st.integers(2, 6 * e + 6)] * 4), label="node digit counts")
    vh = tuple(min(v, c) for v, c in zip(_vrep(vals), cs))
    window = _resolvent_window(e, cs, vh)
    rescubic = resolvent_cubic(fq)
    (root,) = cubic_k_roots(K, rescubic, 4 * e + 2)
    hint = data.draw(st.one_of(
        st.none(),
        st.integers(1, 4 * e + 4).map(lambda k: R.add(root, K.digit_elt(1, k))),
        st.lists(st.integers(0, K.q - 1), max_size=4 * e + 4).map(K.from_digits),
    ), label="hint")
    got = _resolvent_split(fq, window, hint, check=True)[0]
    assert got == resolvent_split_at_target(fq, window)
    assert _resolvent_split(fq, None, hint)[0] == resolvent_split_at_target(fq)


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
    # the tower certificate's 1-Aut screen reads the T_m pattern off the
    # enumerator's valuations (_INF for zero); in_Tm reads it off K.val
    # (None for zero).  With m = v(disc), Ore's formula already puts v(a1)
    # and v(a3) on the pattern, so membership is v(a2) >= ceil(m/6)
    _, fq, vals = case
    m = disc_valuation(fq)
    vrep = _vrep(vals)
    e = fq.field.e_abs
    in_domain = in_Tm_domain(m, e)
    assert t_m_pattern(m, e, *vrep[1:]) == (in_domain and in_Tm(fq, m))
    if in_domain:
        assert in_Tm(fq, m) == (vrep[2] >= -(m // -6))


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted({**_SPECS, **_U3})), st.data())
def test_cubic_leading_digits_in_the_residue_field(name, data):
    # the digit sets built in F_q from the leading digits of x x0^a and of
    # x0^level are the sets of leading digits of every x [u] x0^a + [u]^3 x0^level
    K = _field(name)
    a = data.draw(st.integers(0, 3), label="a")
    level = data.draw(st.integers(max(a, 1), 2 * K.e_abs + 4), label="level")
    n = level + 6
    x0 = K.from_digits(data.draw(_coefficient(K, 1, n), label="x0"))
    vx = st.one_of(st.none(), st.integers(level - a, level - a + 2))
    xs = [
        K.ring.zero if d is None else K.from_digits(d)
        for d in data.draw(
            st.lists(vx.flatmap(lambda v: _coefficient(K, v, n)), min_size=1, max_size=8),
            label="xs",
        )
    ]
    got = cubic_leading_digits(K, a, level)(x0, xs)
    assert all(isinstance(d, frozenset) for d in got)
    assert [set(d) for d in got] == cubic_leading_digits_in_ring(K, a, level)(x0, xs)


@settings(max_examples=200, deadline=None)
@given(eisenstein_quartics(tuple(_SPECS), allow_zero=True), st.data())
def test_one_shift_root_search_matches_the_two_shift_reference(case, data):
    # the root search pays each child's pi^i in its next normalising shift;
    # the reference scales each child first and normalises it after.  In the
    # stem (over sqrt2 a step over a step) they find the same residue paths
    # in the same order and the same root count, and over K the same
    # resolvent roots up to the valuation asked for
    _, fq, _ = case
    K = fq.field
    R, L = K.ring, stem_ring(fq)
    stem_polys = ([*deformation_cubic(fq, L), L.one], [*map(L.lift, fq.coeffs()), L.one])
    rescubic = resolvent_cubic(fq)
    want = data.draw(st.integers(1, 8 * K.e_abs + 4), label="valuation asked for")

    def search():
        paths = [[path for _, path in _ring_roots(L, p)] for p in stem_polys]
        return paths, count_roots_in_stem(fq), cubic_k_roots(K, rescubic, want)

    paths, count, roots = search()
    with patch.object(quartic, "_simple_residue_roots", simple_residue_roots_two_shift):
        ref_paths, ref_count, ref_roots = search()
    assert paths == ref_paths
    assert count == ref_count and count in (1, 2, 4)
    assert len(roots) == len(ref_roots)
    deriv = _poly_deriv(R, rescubic)
    for root, ref in zip(roots, ref_roots):
        gap = R.val(R.sub(root, ref))
        assert gap is None or gap >= want - R.val(_poly_eval(R, deriv, root))


def test_root_search_stops_where_the_polynomial_vanishes():
    # X^2 mod 2: the double residue root 0 gives the child pi^2 X^2, which
    # has vanished at the cap 1, as in the two-shift reference; a search
    # that missed it would run on to its depth budget
    R = UnramifiedRing(1, 1)
    with pytest.raises(PrecisionExhausted, match="vanished"):
        list(quartic._simple_residue_roots(R, [0, 0, 1], 8))


@lru_cache(maxsize=None)
def _krasner_leaves(name):
    """Digits of every Krasner leaf of the dedup walk over m <= 8."""
    leaves = []

    class Recorder(_DedupWalk):
        def _krasner_leaf(self, digits):
            leaves.append(digits)

    K = _field(name)
    Recorder(K, 8).run([_ROOT])
    return leaves


@lru_cache(maxsize=None)
def _leaf_quartic(name, index):
    K = _field(name)
    return EisensteinQuartic(K, *(K.from_digits(d) for d in _krasner_leaves(name)[index]))


@lru_cache(maxsize=None)
def _leaf_stem(name, index):
    return stem_ring(_leaf_quartic(name, index))


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("Q2", "sqrt2")), st.data())
def test_first_root_test_agrees_with_the_root_count(name, data):
    # _has_root_in stops at the first root it finds; it must still say what
    # the full count says.  Neighbouring leaves often share a field, so the
    # stem is drawn near the leaf as often as anywhere.
    n = len(_krasner_leaves(name))
    i = data.draw(st.integers(0, n - 1), label="leaf")
    near = st.integers(max(0, i - 2), min(n - 1, i + 2))
    j = data.draw(st.one_of(near, st.integers(0, n - 1)), label="stem")
    fq, stem = _leaf_quartic(name, i), _leaf_stem(name, j)
    coeffs = [*(stem.lift(c) for c in fq.coeffs()), stem.one]
    assert _has_root_in(stem, fq) == (_count_roots_in_ring(stem, coeffs) > 0)


@lru_cache(maxsize=None)
def _coset_leaves(name):
    """Digits and m of every coset-certified leaf of the density walk over the full range."""
    leaves = []

    class Recorder(_Enumerator):
        def _add_leaf(self, mg, fq, digits, certificate):
            if certificate == "coset":
                leaves.append((digits, mg[0]))
            return super()._add_leaf(mg, fq, digits, certificate)

    K = _field(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tower, "_CROSS_CHECK_EVERY", 0)
        Recorder(K, 8 * K.e_abs + 3).run([_ROOT])
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
    bounds = (_compiled.r0_bound, _compiled.r1_bound, _compiled.r2_bound)
    got = tuple(b(cs, vh, enum.e) for b in bounds)
    assert got == resolvent_bounds(enum.e, cs, vh)


@st.composite
def odd_disc_quartics(draw, names):
    """A quartic whose coefficient valuations put Ore's minimum on 4(v2+e)+1:
    v(a2) <= e, v(a1) > v(a2)+e and v(a3) >= v(a2)+e (None: zero)."""
    K = _field(draw(st.sampled_from(names)))
    e = K.e_abs
    v2 = draw(st.integers(1, e))
    v1 = draw(st.one_of(st.none(), st.integers(v2 + e + 1, 2 * e + 3)))
    v3 = draw(st.one_of(st.none(), st.integers(v2 + e, 2 * e + 3)))
    digits = [draw(_coefficient(K, v, 8 * e + 4)) for v in (1, v1, v2, v3)]
    return EisensteinQuartic(K, *(K.ring.zero if d is None else K.from_digits(d) for d in digits))


@settings(max_examples=200, deadline=None)
@given(odd_disc_quartics((*_SPECS, *_Q2I)))
def test_odd_disc_below_8e_plus_3_is_d4(fq):
    # parity lemma: odd m < 8e+3 rules out S4/A4 (T_m needs m even), V4 (an
    # odd valuation is not a square) and C4 (its odd m is 8e+3 only)
    m = disc_valuation(fq)
    assert m % 2 == 1 and m < 8 * fq.field.e_abs + 3
    assert classify_quartic(fq) == (m, GroupTag.D4)


def test_compiled_module_is_generated_from_the_tables():
    with open(COMPILED_PATH, "rb") as fh:
        checked_in = fh.read()
    assert checked_in == compiled_source().encode(), (
        f"{COMPILED_PATH} differs from the monomial tables; regenerate it with {REGENERATE}"
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12),
    st.tuples(*[st.integers(0, 60)] * 4),
    st.tuples(*[st.integers(0, 60)] * 4),
)
def test_compiled_bounds_match_table_scan(e, cs, vs):
    vh = tuple(min(v, c) for v, c in zip(vs, cs))
    for name, table in BOUND_TABLES:
        assert getattr(_compiled, name)(cs, vh, e) == table_bound(table, cs, vh, e), name


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SPECS)), st.data())
def test_compiled_disc_and_resolvent_match_table_evaluation(name, data):
    K = _field(name)
    digits = st.lists(st.integers(0, K.q - 1), max_size=8 * K.e_abs + 4)
    coeffs = [K.from_digits(data.draw(digits)) for _ in range(4)]
    R = K.ring
    assert disc_raw(K, *coeffs) == eval_tables(R, coeffs, (_DISC_MONOMIALS,))[0]
    assert list(_compiled.resolvent(R, *coeffs)) == eval_tables(R, coeffs, _RESOLVENT_MONOMIALS)


# raw ints below 2^56 are elements of Z_2 in both rings, and the rings give
# different discriminants for them: sqrt2's base works mod 2^56, Q2 mod 2^88
_SHARED = st.integers(0, 2**56 - 1)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(_SHARED, _SHARED, _SHARED),
    st.integers(0, 2),
    _SHARED,
    st.lists(st.tuples(_SHARED, _SHARED), min_size=8, max_size=8),
)
def test_disc_raw_cache_keeps_fields_and_prefixes_apart(prefix, i, other, a3_pairs):
    # disc_raw keeps the last prefixes' polynomials in a3: read one at two a3,
    # then alternate the ring with the prefix fixed and the prefix, which
    # differs in one coefficient, with the ring fixed
    assume(other != prefix[i])
    prefixes = (prefix, (*prefix[:i], other, *prefix[i + 1:]))
    names = ("Q2", "sqrt2")
    calls = [(n, p) for n in names for p in prefixes] + [(n, p) for p in prefixes for n in names]
    for (name, p), a3s in zip(calls, a3_pairs):
        K = _field(name)
        for a3 in a3s:
            coeffs = (*p, a3)
            assert disc_raw(K, *coeffs) == eval_tables(K.ring, coeffs, (_DISC_MONOMIALS,))[0]
