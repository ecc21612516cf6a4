import random

import pytest

from q2quartic.errors import DivisionByNonUnit, InvalidParams
from q2quartic.padic.field import field_from_spec
from q2quartic.padic.rings import _HEADROOM, EisensteinStep


def test_basic_arith_q2(Q2):
    R = Q2.ring
    two = R.add(R.from_int(1), R.from_int(1))
    assert two == R.from_int(2)
    assert R.val(two) == 1
    assert R.val(R.add(two, two)) == 2  # v(2+2) = 2
    inv3 = R.inv_unit(R.from_int(3))
    assert R.mul(inv3, R.from_int(3)) == R.one  # unit inverse to full precision
    with pytest.raises(DivisionByNonUnit):
        R.inv_unit(two)


def test_shift_and_teich(Q2):
    R = Q2.ring
    x = R.from_int(12)
    assert R.val(x) == 2
    assert R.shift(x, -2) == R.from_int(3)
    with pytest.raises(DivisionByNonUnit):
        R.shift(R.from_int(3), -1)
    assert R.teich(1) == R.one
    assert R.teich(0) == R.zero


def test_unramified_f2_teichmueller(U2):
    R = U2.ring
    for t in range(1, 4):
        x = R.teich(t)
        # Teichmueller lifts satisfy x^q = x
        xq = x
        for _ in range(R.f):
            xq = R.mul(xq, xq)
        assert xq == x
        assert R.residue(x) == t


def test_eisenstein_step_valuations(K_sqrt2):
    R = K_sqrt2.ring
    pi = R.shift(R.one, 1)
    assert R.val(pi) == 1
    assert R.val(R.mul(pi, pi)) == 2
    assert R.val(R.from_int(2)) == 2  # v_K(2) = e = 2
    assert R.mul(pi, pi) == R.from_int(2)  # pi = sqrt(2)
    assert R.val(R.from_int(6)) == 2


def test_eisenstein_division_by_uniformiser(K_sqrt2):
    R = K_sqrt2.ring
    pi = R.shift(R.one, 1)
    x = R.mul(R.from_int(3), R.mul(pi, R.mul(pi, pi)))
    assert R.val(x) == 3
    assert R.shift(x, -3) == R.from_int(3)


def test_random_ring_algebra(K_sqrt2):
    R = K_sqrt2.ring
    rng = random.Random(7)
    elts = [R.from_int(rng.randrange(-500, 500)) for _ in range(8)]
    for a in elts:
        for b in elts:
            assert R.add(a, b) == R.add(b, a)
            assert R.mul(a, b) == R.mul(b, a)
            assert R.sub(R.add(a, b), b) == a
    a, b, c = elts[:3]
    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))


def test_precision_guard_on_spec():
    small = field_from_spec({"f": 1, "e": 1, "precision": 4})
    assert small.ring.cap >= 4


def test_degree_beyond_slot_headroom_is_refused(Q2):
    # a slot holds 2D products of two coefficients only while 2D <= 2^H
    R = Q2.ring
    n = (1 << (_HEADROOM - 1)) + 1
    with pytest.raises(InvalidParams):
        EisensteinStep(R, [R.from_int(2)] + [R.zero] * (n - 1))


def test_empty_defining_polynomial_is_refused(Q2):
    with pytest.raises(InvalidParams, match="positive degree"):
        EisensteinStep(Q2.ring, [])
