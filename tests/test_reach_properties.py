"""Property tests of square_reach, the square-class coordinates, and the
Newton refinement of cubic roots.

square_reach reads the leading digit of u - y, y a square, and never
inverts, so these check what the predicates built on it rely on: the reach
is a square-class invariant, the witness y is a square that attains it, and
it does not depend on the working precision.  square_class_coords runs the
same walk past the first obstruction; its coordinates must be those of the
basis products, additive under multiplication, blind to squares,
consistent with is_square and hecke_disc, compatible with the norm of a
quadratic step, and independent of the working precision.
square_class_prefix stops the walk past a given level; its bits must be
those of the full coordinates up to that level.
cubic_k_roots carries the inverse of p'(x) along by Newton steps; its
roots must still reach the target valuation, and their number must not
depend on the working precision either.
"""

from functools import lru_cache

import pytest
from helpers import cubic_disc
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from q2quartic.oracle.tower import _norm_images
from q2quartic.padic.field import field_from_spec, ramified_quadratic, with_doubled_precision
from q2quartic.padic.quartic import _poly_deriv, _poly_eval, cubic_k_roots

_SPECS = {
    "Q2": {"f": 1},
    "U2": {"f": 2},
    "sqrt2": {"f": 1, "eisenstein": [-2, 0, 1]},
    "x^3-2": {"f": 1, "eisenstein": [-2, 0, 0, 1]},
}
# ramified quadratic steps built in code: (base field, d)
_STEPS = {
    "Q2(sqrt(-1))": ("Q2", lambda K: K.from_int(-1)),
    "sqrt2(sqrt(pi))": ("sqrt2", lambda K: K.from_digits([0, 1])),
    # res(2 / pi^v(2)) is not 1 here, so the unramified class is not 1 + [c] pi^4
    # for a trace-one c
    "U2(sqrt(1+2w))": ("U2", lambda K: K.from_digits([1, 2])),
}
_STEP = "Q2(sqrt(-1))"


@lru_cache(maxsize=None)
def _field(name, doubled=False):
    if name in _STEPS:
        base, d = _STEPS[name]
        K = _field(base)
        return ramified_quadratic(K, d(K))
    K = field_from_spec(_SPECS[name])
    return with_doubled_precision(K) if doubled else K


def _digits(K, n, unit=False):
    lead = st.integers(1 if unit else 0, K.q - 1)
    rest = st.lists(st.integers(0, K.q - 1), min_size=n - 1, max_size=n - 1)
    return st.tuples(lead, rest).map(lambda t: (t[0], *t[1]))


@st.composite
def unit_recipes(draw, names):
    """(field name, recipe): u = y^2 * (1 + [t] pi^k) when y is given, else u from digits.

    A recipe is digit lists and small integers only, so the same recipe
    builds the same unit in a field at any precision.
    """
    name = draw(st.sampled_from(names))
    K = _field(name)
    n = 2 * K.e_abs + 4
    if draw(st.booleans()):
        return name, ("digits", draw(_digits(K, n, unit=True)))
    y = draw(_digits(K, n, unit=True))
    t = draw(st.integers(0, K.q - 1))
    k = draw(st.integers(1, 2 * K.e_abs + 2))
    return name, ("near-square", y, t, k)


def _build(K, recipe):
    if recipe[0] == "digits":
        return K.from_digits(recipe[1])
    _, y, t, k = recipe
    R = K.ring
    y = K.from_digits(y)
    return R.mul(R.mul(y, y), R.add(R.one, K.digit_elt(t, k)))


@settings(max_examples=150, deadline=None)
@given(unit_recipes((*_SPECS, _STEP)), st.data())
def test_reach_is_a_square_class_invariant(case, data):
    name, recipe = case
    K = _field(name)
    R = K.ring
    u = _build(K, recipe)
    y = K.from_digits(data.draw(_digits(K, 2 * K.e_abs + 4, unit=True)))
    assert K.square_reach(R.mul(u, R.mul(y, y)))[0] == K.square_reach(u)[0]


@settings(max_examples=150, deadline=None)
@given(unit_recipes((*_SPECS, _STEP)))
def test_reach_witness_attains_the_reach(case):
    name, recipe = case
    K = _field(name)
    R = K.ring
    u = _build(K, recipe)
    reach, y = K.square_reach(u)
    top = 2 * K.e_abs + 1
    v = R.val(R.sub(u, y))
    if reach < top:
        assert v == reach
    else:
        assert v is None or v >= top
    assert K.square_class_coords(y) == 0


@settings(max_examples=100, deadline=None)
@given(unit_recipes(tuple(_SPECS)))
def test_reach_is_invariant_under_precision_doubling(case):
    name, recipe = case
    K, K2 = _field(name), _field(name, doubled=True)
    assert K2.ring.cap > K.ring.cap
    assert K2.square_reach(_build(K2, recipe))[0] == K.square_reach(_build(K, recipe))[0]


_COORD_FIELDS = (*_SPECS, *_STEPS)


@pytest.mark.parametrize("name", _COORD_FIELDS)
def test_coords_of_every_basis_product(name):
    K = _field(name)
    reps = K.square_class_reps()
    assert len(reps) == 1 << (K.e_abs * K.f + 2)
    assert [K.square_class_coords(r) for r in reps] == list(range(len(reps)))


@st.composite
def element_recipes(draw, names):
    """(field name, valuation, unit recipe): the element pi^v * u."""
    name, recipe = draw(unit_recipes(names))
    return name, draw(st.integers(0, 3)), recipe


def _element(K, v, recipe):
    return K.ring.shift(_build(K, recipe), v)


@settings(max_examples=150, deadline=None)
@given(element_recipes(_COORD_FIELDS), st.data())
def test_coords_are_additive_and_blind_to_squares(case, data):
    name, v, recipe = case
    K = _field(name)
    R = K.ring
    a = _element(K, v, recipe)
    _, w, other = data.draw(element_recipes((name,)))
    b = _element(K, w, other)
    y = _element(K, data.draw(st.integers(0, 2)), data.draw(unit_recipes((name,)))[1])
    ca = K.square_class_coords(a)
    assert K.square_class_coords(R.mul(a, b)) == ca ^ K.square_class_coords(b)
    assert K.square_class_coords(R.mul(a, R.mul(y, y))) == ca


@settings(max_examples=150, deadline=None)
@given(element_recipes(_COORD_FIELDS))
def test_coords_agree_with_is_square_and_hecke_disc(case):
    name, v, recipe = case
    K = _field(name)
    a = _element(K, v, recipe)
    c = K.square_class_coords(a)
    assert (c == 0) == K.is_square(a)
    assert K.coords_hecke_disc(c) == K.hecke_disc(a)


@settings(max_examples=150, deadline=None)
@given(unit_recipes(_COORD_FIELDS), st.data())
def test_coords_prefix_is_the_walk_stopped_past_a_level(case, data):
    # the density oracle reads h(cd) from the bits of cd up to one level only
    name, recipe = case
    K = _field(name)
    e, f = K.e_abs, K.f
    u = _build(K, recipe)
    level = data.draw(st.integers(0, 2 * e + 1), label="level")
    levels = [2 * (j // f) + 1 for j in range(e * f)] + [2 * e]
    low = sum(1 << (i + 1) for i, l in enumerate(levels) if l <= level)
    reach, coords = K.square_class_prefix(u, level)
    assert reach == K.square_reach(u)[0]
    assert coords == K.square_class_coords(u) & low


@settings(max_examples=100, deadline=None)
@given(element_recipes(tuple(_STEPS)))
def test_norm_coords_are_xor_of_basis_norm_images(case):
    name, v, recipe = case
    E = _field(name)
    K = E.base_field
    images = _norm_images(K, E)
    c = E.square_class_coords(_element(E, v, recipe))
    want = 0
    for i, image in enumerate(images):
        if c >> i & 1:
            want ^= image
    assert K.square_class_coords(E.norm(_element(E, v, recipe))) == want


@settings(max_examples=100, deadline=None)
@given(element_recipes(tuple(_SPECS)))
def test_coords_are_invariant_under_precision_doubling(case):
    name, v, recipe = case
    K, K2 = _field(name), _field(name, doubled=True)
    assert K2.square_class_coords(_element(K2, v, recipe)) == K.square_class_coords(
        _element(K, v, recipe)
    )


@st.composite
def cubic_recipes(draw):
    """(field name, digits of a, b, c) for the cubic (X - a)(X^2 + b X + c)."""
    name = draw(st.sampled_from(tuple(_SPECS)))
    K = _field(name)
    n = 2 * K.e_abs + 4
    return name, tuple(draw(_digits(K, n)) for _ in range(3))


def _cubic(K, recipe):
    R = K.ring
    a, b, c = (K.from_digits(d) for d in recipe)
    # (X - a)(X^2 + b X + c), ascending
    return [
        R.neg(R.mul(a, c)),
        R.sub(c, R.mul(a, b)),
        R.sub(b, a),
        R.one,
    ], a


@settings(max_examples=80, deadline=None)
@given(cubic_recipes(), st.integers(1, 40))
def test_cubic_roots_reach_target_and_survive_precision_doubling(case, want):
    name, recipe = case
    K = _field(name)
    R = K.ring
    p, a = _cubic(K, recipe)
    vdisc = R.val(cubic_disc(R, p))
    # a separable cubic whose roots part within the search depth
    assume(vdisc is not None and vdisc <= 6 * K.e_abs + 6)
    want = want * K.e_abs
    roots = cubic_k_roots(K, p, want)
    for x in roots:
        v = R.val(_poly_eval(R, p, x))
        assert v is None or v >= want
    # the known root a is one of them, to the accuracy Hensel allows
    vd = R.val(_poly_eval(R, _poly_deriv(R, p), a))
    assert any(
        (v is None or v >= want - vd) for v in (R.val(R.sub(x, a)) for x in roots)
    )
    K2 = _field(name, doubled=True)
    p2, _ = _cubic(K2, recipe)
    assert len(cubic_k_roots(K2, p2, want)) == len(roots)
