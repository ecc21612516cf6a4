import random
from fractions import Fraction

import pytest
import sympy
from helpers import newton_slopes, quartic_from_ints, root_distances

from q2quartic.errors import InvalidParams
from q2quartic.padic.field import q2
from q2quartic.padic.quartic import (
    _RESOLVENT_MONOMIALS,
    classify_by_invariants,
    classify_quartic,
    count_roots_in_stem,
    cubic_k_roots,
    deformation_cubic,
    disc_raw,
    disc_valuation,
    in_Tm,
    is_one_aut,
    resolvent_cubic,
    stem_ring,
)
from q2quartic.params import GroupTag

WITNESSES = [
    # (a0, a1, a2, a3), m, group  -- x^4 + a3 x^3 + a2 x^2 + a1 x + a0
    ((2, 2, 0, 0), 4, GroupTag.S4),
    ((2, 0, 2, 2), 6, GroupTag.A4),
    ((2, 4, 6, 4), 8, GroupTag.V4),
    ((2, 0, -4, 0), 11, GroupTag.C4),
    ((2, 0, 0, 0), 11, GroupTag.D4),
    ((2, 0, 2, 0), 9, GroupTag.D4),
]


def _v2(n):
    return (n & -n).bit_length() - 1 if n else None


def test_disc_matches_sympy_on_random_integer_quartics(Q2):
    x = sympy.symbols("x")
    rng = random.Random(20240809)
    for _ in range(30):
        a0 = 2 * rng.randrange(1, 50, 2)  # valuation exactly 1
        a1, a2, a3 = (2 * rng.randrange(0, 50) for _ in range(3))
        fq = quartic_from_ints(Q2, a0, a1, a2, a3)
        d = int(sympy.discriminant(x**4 + a3 * x**3 + a2 * x**2 + a1 * x + a0, x))
        got = Q2.val(disc_raw(Q2, *fq.coeffs()))
        assert d != 0
        assert got == _v2(d)


def _table_value(table, a):
    """sum k * prod a_i^n_i over the monomials (k, n) of a quartic-layer table."""
    return sum(k * sympy.Mul(*(ai**n for ai, n in zip(a, exps))) for k, exps in table)


def test_resolvent_table_matches_sympy_on_symbolic_roots(Q2):
    # X^4 + a3 X^3 + a2 X^2 + a1 X + a0 = (X - t1)(X - t2)(X - t3)(X - t4)
    x, y = sympy.symbols("x y")
    t1, t2, t3, t4 = t = sympy.symbols("t1:5")
    a = sympy.Poly(sympy.prod(x - ti for ti in t), x).all_coeffs()[:0:-1]
    r0, r1, r2 = (_table_value(table, a) for table in _RESOLVENT_MONOMIALS)
    roots = (t1 * t2 + t3 * t4, t1 * t3 + t2 * t4, t1 * t4 + t2 * t3)
    want = sympy.prod(y - w for w in roots)
    assert sympy.expand(y**3 + r2 * y**2 + r1 * y + r0 - want) == 0
    # resolvent_cubic evaluates the same tables in the ring
    rng = random.Random(20261019)
    for _ in range(20):
        ints = (2 * rng.randrange(1, 50, 2), *(2 * rng.randrange(-50, 50) for _ in range(3)))
        want = [int(_table_value(table, ints)) for table in _RESOLVENT_MONOMIALS]
        got = resolvent_cubic(quartic_from_ints(Q2, *ints))
        assert got == [*map(Q2.from_int, want), Q2.ring.one]


def test_disc_valuation_examples(Q2):
    assert disc_valuation(quartic_from_ints(Q2, 2, 2, 0, 0)) == 4  # disc 1616
    assert disc_valuation(quartic_from_ints(Q2, 2, 0, 0, 0)) == 11  # disc 2^11
    assert disc_valuation(quartic_from_ints(Q2, 2, 0, -4, 0)) == 11


def test_non_eisenstein_coefficients_rejected(Q2):
    with pytest.raises(InvalidParams):
        quartic_from_ints(Q2, 4, 0, 0, 0)  # v(a0) = 2
    with pytest.raises(InvalidParams):
        quartic_from_ints(Q2, 2, 1, 0, 0)  # a1 a unit


@pytest.mark.parametrize("coeffs,m,group", WITNESSES)
def test_witness_classification(Q2, coeffs, m, group):
    fq = quartic_from_ints(Q2, *coeffs)
    assert classify_quartic(fq) == (m, group)
    assert classify_by_invariants(fq) == (m, group)


def test_count_roots_examples(Q2):
    assert count_roots_in_stem(quartic_from_ints(Q2, 2, 2, 0, 0)) == 1
    assert count_roots_in_stem(quartic_from_ints(Q2, 2, 0, 2, 0)) == 2
    assert count_roots_in_stem(quartic_from_ints(Q2, 2, 0, -4, 0)) == 4


def test_in_Tm_examples(Q2):
    f1 = quartic_from_ints(Q2, 2, 2, 0, 0)
    assert in_Tm(f1, 4)
    assert not in_Tm(f1, 6)
    f2 = quartic_from_ints(Q2, 2, 0, 0, 2)
    assert in_Tm(f2, 6)


def test_is_one_aut_examples(Q2):
    assert is_one_aut(quartic_from_ints(Q2, 2, 2, 0, 0))
    assert not is_one_aut(quartic_from_ints(Q2, 2, 0, 0, 2))
    assert is_one_aut(quartic_from_ints(Q2, 2, 0, 2, 2))


def test_one_aut_congruence_agrees_with_b0_valuation(Q2):
    # debug view: for m = 0 mod 6 and f in T_m, f fails to be 1-Aut exactly
    # when some u pushes v(f(pi + u pi^{m/3})) past the generic value 4m/3
    # (stem units); the exceptional case starts one digit higher
    checked = 0
    for coeffs in [(2, 0, 0, 2), (2, 0, 2, 2), (6, 0, 2, 2), (2, 0, 4, 2), (2, 0, 6, 6)]:
        fq = quartic_from_ints(Q2, *coeffs)
        m = disc_valuation(fq)
        if m % 6 != 0 or not in_Tm(fq, m):
            continue
        checked += 1
        L = stem_ring(fq)
        lift = L.lift
        pi = L.shift(L.one, 1)
        found = False
        for t in range(1, Q2.q):
            shift_elt = L.add(pi, L.shift(L.teich(t), m // 3))
            val = L.zero
            for c in [lift(fq.a0), lift(fq.a1), lift(fq.a2), lift(fq.a3), L.one][::-1]:
                val = L.add(L.mul(val, shift_elt), c)
            v = L.val(val)
            if v is None or v >= 4 * (m // 3) + 1:
                found = True
        assert found == (not is_one_aut(fq, m)), coeffs
    assert checked >= 2


def test_newton_polygon_single_segment(Q2):
    rng = random.Random(11)
    for _ in range(40):
        a0 = 2 * rng.randrange(1, 64, 2)
        a1, a2, a3 = (2 * rng.randrange(0, 64) for _ in range(3))
        fq = quartic_from_ints(Q2, a0, a1, a2, a3)
        pts = [(i, Q2.val(a)) for i, a in enumerate(fq.coeffs())] + [(4, 0)]
        assert newton_slopes(pts) == [(Fraction(1, 4), 4)]


def test_root_distances_sum_to_disc_valuation(Q2):
    # sum of the three distances = v_L(f'(pi)) = the different exponent = m
    for coeffs, m, _ in WITNESSES:
        fq = quartic_from_ints(Q2, *coeffs)
        dist = root_distances(fq)
        assert sum(dist) == m


def test_resolvent_root_and_subfield_witnesses(Q2):
    R = Q2.ring
    # x^4 - 4x^2 + 2 is cyclic: disc * (w^2 - 4 a0) is a square
    fq = quartic_from_ints(Q2, 2, 0, -4, 0)
    roots = cubic_k_roots(Q2, resolvent_cubic(fq), 48)
    assert len(roots) == 1
    w = roots[0]
    W = R.sub(R.mul(w, w), R.mul(R.from_int(4), fq.a0))
    assert Q2.is_square(R.mul(disc_raw(Q2, *fq.coeffs()), W))
    # x^4 + 2 is dihedral: the two quadratic resolvents differ
    fq = quartic_from_ints(Q2, 2, 0, 0, 0)
    roots = cubic_k_roots(Q2, resolvent_cubic(fq), 48)
    assert len(roots) == 1
    w = roots[0]
    W = R.sub(R.mul(w, w), R.mul(R.from_int(4), fq.a0))
    assert not Q2.is_square(R.mul(disc_raw(Q2, *fq.coeffs()), W))
    # its quadratic subfield is Q2(sqrt(-2))
    assert Q2.is_square(R.mul(W, Q2.from_int(-2)))


def test_deformation_cubic_closed_coefficients(Q2):
    fq = quartic_from_ints(Q2, 2, 2, 0, 0)
    L = stem_ring(fq)
    b0, b1, b2 = deformation_cubic(fq, L)
    lift = L.lift
    pi = L.shift(L.one, 1)
    pi2 = L.mul(pi, pi)
    assert b2 == L.add(lift(fq.a3), L.mul(L.from_int(4), pi))
    assert b1 == L.add(L.add(lift(fq.a2), L.mul(L.from_int(3), L.mul(pi, lift(fq.a3)))),
                       L.mul(L.from_int(6), pi2))
    assert b0 == L.add(
        L.add(lift(fq.a1), L.mul(L.from_int(2), L.mul(pi, lift(fq.a2)))),
        L.add(L.mul(L.from_int(3), L.mul(pi2, lift(fq.a3))), L.mul(L.from_int(4), L.mul(pi2, pi))),
    )


def test_precision_stability_witnesses():
    # doubling the working precision changes nothing (criterion 12 core)
    lo = q2()
    hi = q2(precision=64)
    for coeffs, m, g in WITNESSES:
        assert classify_quartic(quartic_from_ints(lo, *coeffs)) == (m, g)
        assert classify_quartic(quartic_from_ints(hi, *coeffs)) == (m, g)
