"""Property tests of the packed rings against the schoolbook reference.

Every operation of ``UnramifiedRing`` and ``EisensteinStep`` is compared,
after unpacking, with the same operation of the tuple reference in
``helpers``, on the shapes the tracer names and more: Q2 (u1), U(f=2) and
U(f=3) (uf), sqrt(2) and a quartic step over Q2 (eis), a quartic step over
sqrt(2) (eis2), and a quartic, a linear and a quadratic step over U(f=2),
the last with a non-integer unit -g_0/2.  Coefficients are drawn at random
and from adversarial values: all-ones slots 2^N - 1, which overflow a slot
first, 0 and single bits.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TupleUnramifiedRing, pack, reference_ring, unpack

from q2quartic.errors import DivisionByNonUnit
from q2quartic.padic.field import field_from_spec
from q2quartic.padic.rings import EisensteinStep, UnramifiedRing


def _quartic_step(spec):
    """O_K[t]/(g) for a quartic g whose coefficients have many all-ones digits."""
    R = field_from_spec(spec).ring
    pi = R.shift(R.one, 1)
    g = [R.neg(pi), R.from_int(-2), R.mul(pi, R.from_int(-3)), R.neg(R.mul(pi, pi))]
    return EisensteinStep(R, g)


def _linear_step(spec):
    """O_K[t]/(t + 2): a step of degree one, where t^n is t itself."""
    R = field_from_spec(spec).ring
    return EisensteinStep(R, [R.from_int(2)])


def _twisted_step(spec):
    """O_K[t]/(t^2 + 2[x]), [x] the lift of the residue generator: -g_0/2 is
    a unit outside Z_2, so a division by t reduces its product in the base."""
    R = field_from_spec(spec).ring
    return EisensteinStep(R, [R.shift(R.teich(2), 1), R.zero])


_SHAPES = {
    "u1": lambda: field_from_spec({"f": 1}).ring,
    "uf2": lambda: field_from_spec({"f": 2}).ring,
    "uf3": lambda: field_from_spec({"f": 3}).ring,
    "eis-sqrt2": lambda: field_from_spec({"f": 1, "eisenstein": [-2, 0, 1]}).ring,
    "eis-quartic-q2": lambda: _quartic_step({"f": 1}),
    "eis2-quartic-sqrt2": lambda: _quartic_step({"f": 1, "eisenstein": [-2, 0, 1]}),
    "eis-quartic-u2": lambda: _quartic_step({"f": 2}),
    "eis-linear-u2": lambda: _linear_step({"f": 2}),
    "eis-twisted-u2": lambda: _twisted_step({"f": 2}),
}


@lru_cache(maxsize=None)
def _rings(name):
    ring = _SHAPES[name]()
    return ring, reference_ring(ring)


def _coefficient(n2):
    top = (1 << n2) - 1
    return st.one_of(
        st.integers(0, top),
        st.just(top),
        st.just(0),
        st.integers(0, n2 - 1).map(lambda i: 1 << i),
    )


def _nested(ring):
    """A strategy for elements of ``ring`` in the reference's nested-tuple layout."""
    if isinstance(ring, EisensteinStep):
        return st.tuples(*[_nested(ring.base)] * ring.n)
    if ring.f == 1:
        return _coefficient(ring.n2)
    return st.tuples(*[_coefficient(ring.n2)] * ring.f)


@st.composite
def _case(draw):
    name = draw(st.sampled_from(sorted(_SHAPES)))
    ring, ref = _rings(name)
    elt = _nested(ring)
    return ring, ref, draw(elt), draw(elt)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DivisionByNonUnit:
        return DivisionByNonUnit


@settings(max_examples=300, deadline=None)
@given(_case())
def test_packed_ring_matches_schoolbook(case):
    ring, ref, ta, tb = case
    a, b = pack(ring, ta), pack(ring, tb)
    assert isinstance(a, int) and unpack(ring, a) == ta
    for op in ("add", "sub", "mul"):
        got = getattr(ring, op)(a, b)
        assert isinstance(got, int)
        assert unpack(ring, got) == getattr(ref, op)(ta, tb), op
    assert unpack(ring, ring.neg(a)) == ref.neg(ta)
    assert ring.val(a) == ref.val(ta)
    assert ring.residue(a) == ref.residue(ta)
    inv = _outcome(ring.inv_unit, a)
    assert (inv is DivisionByNonUnit) == (ring.residue(a) == 0)
    if inv is not DivisionByNonUnit:
        assert isinstance(inv, int) and unpack(ring, inv) == ref.inv_unit(ta)
    n = getattr(ring, "n", 2)
    for k in [*range(-2 * n, 0), *range(1, 2 * n + 1)]:
        got = _outcome(ring.shift, a, k)
        want = _outcome(ref.shift, ta, k)
        if want is DivisionByNonUnit:
            assert got is DivisionByNonUnit, k
        else:
            assert isinstance(got, int) and unpack(ring, got) == want, k


@pytest.mark.parametrize("name", sorted(_SHAPES))
def test_teichmueller_lifts_and_constants(name):
    ring, ref = _rings(name)
    for t in range(1 << ring.f):
        x = ring.teich(t)
        assert isinstance(x, int) and unpack(ring, x) == ref.teich(t)
    for c in (ring.zero, ring.one, ring.from_int(-1), ring.from_int(6)):
        assert isinstance(c, int)
    assert unpack(ring, ring.from_int(-1)) == ref.from_int(-1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_SHAPES)), st.data())
def test_downward_shift_is_repeated_division_by_pi(name, data):
    # shift(a, -k) runs k single divisions in one loop: the same element,
    # and DivisionByNonUnit exactly where one of k shift(., -1) steps raises
    ring, _ = _rings(name)
    n = getattr(ring, "n", 2)
    b = pack(ring, data.draw(_nested(ring), label="b"))
    a = ring.shift(b, data.draw(st.integers(0, 3 * n), label="up"))
    for k in range(1, 3 * n + 1):
        want = a
        try:
            for _ in range(k):
                want = ring.shift(want, -1)
        except DivisionByNonUnit:
            want = DivisionByNonUnit
        assert _outcome(ring.shift, a, -k) == want, k


@pytest.mark.parametrize("n2", [1, 2, 3, 17, 64, 75])
def test_q2_inverse_is_the_schoolbook_inverse(n2):
    # U(f=1) inverts a unit by pow(a, -1, 2^N): the unique inverse that
    # the Newton loop of the reference reaches
    ring, ref = UnramifiedRing(1, n2), TupleUnramifiedRing(1, n2)
    top = (1 << n2) - 1
    for a in {1, top, *(random.Random(n2 * 1009 + i).randrange(1, top + 1, 2) for i in range(50))}:
        assert ring.inv_unit(a) == ref.inv_unit(a), a
    for a in {0, top - 1, *(1 << i for i in range(1, n2))}:
        with pytest.raises(DivisionByNonUnit):
            ring.inv_unit(a)
