"""Refined mass formulas, evaluated as exact rationals.

The mass of a set S of extensions is sum over L in S of
1 / (#Aut(L/K) * q^{v_K(d_{L/K})}).  Each closed form is evaluated as one
integer numerator over one integer denominator and returned as one
Fraction; the nine published C4 quantities become nine terms of one
numerator.  The published forms, as sums and products of Fractions, are
kept in ``tests/helpers.py`` as the reference the tests hold these to.
There is no floating point in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import counts
from .errors import FormulationMismatch, SerreIdentityViolation
from .params import FieldParams, GroupTag, MinusOneClass, aut_order


def _mass_S4(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if p.f % 2 == 0:
        return Fraction(0)
    # (q^3+1)(q^4e-1) / ((q^3+q^2+q+1) q^(4e+3))
    return Fraction((q**3 + 1) * (q ** (4 * e) - 1), (q**3 + q**2 + q + 1) * q ** (4 * e + 3))


def _mass_A4(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if p.f % 2 == 0:
        # (q-1)(q^4e-1)(3q^3+q^2+q+3) / (3 (q^4-1) q^(4e+3))
        return Fraction(
            (q - 1) * (q ** (4 * e) - 1) * (3 * q**3 + q**2 + q + 3),
            3 * (q**4 - 1) * q ** (4 * e + 3),
        )
    # (q^4e-1) / (3 (q^2+1) q^(4e+2))
    return Fraction(q ** (4 * e) - 1, 3 * (q**2 + 1) * q ** (4 * e + 2))


def _mass_V4(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    # (q-1)/6 (q^-(4e+3) (q^4e-1)/(q^4-1) (3q^3+q^2+q+3) - 3 q^-(3e+3) (q^3e-1)/(q^3-1) (q^2+1))
    p4, p3 = q**4 - 1, q**3 - 1
    first = (q ** (4 * e) - 1) * (3 * q**3 + q**2 + q + 3) * p3
    second = 3 * q**e * (q ** (3 * e) - 1) * (q**2 + 1) * p4
    return Fraction((q - 1) * (first - second), 6 * q ** (4 * e + 3) * p4 * p3)


def _mass_C4(p: FieldParams) -> Fraction:
    """The sum of the nine published C4 quantities, over 2 (q^7-1)(q^5-1)(q^3-1) q^(6e+6).

    Each term below is one quantity times that denominator; h = floor(e/2)
    and every exponent of q is non-negative on the term's range.
    """
    q, e, d = p.q, p.e, p.d_minus_one
    h, d5 = e // 2, (5 * d) // 2
    p7, p5, p3 = q**7 - 1, q**5 - 1, q**3 - 1
    # q1 = (q-1)/(2 (q^7-1)) (1 - q^-7h)
    num = (q - 1) * (q ** (7 * h) - 1) * p5 * p3 * q ** (6 * e + 6 - 7 * h)
    # q2 = q^-(3e+3) (1 - q^-h) / 2
    num += (q**h - 1) * p7 * p5 * p3 * q ** (3 * e + 3 - h)
    # q3 = (q-1)/(q^5-1) (q^-(5h+e+1) - q^(5d/2-6e-1)), for d < e
    if d < e:
        num += 2 * (q - 1) * p7 * p3 * (q ** (5 * e + 5 - 5 * h) - q ** (d5 + 5))
    # q4 = q^(5d/2-6e-6) (q-2) / 2, for d >= 2
    if d >= 2:
        num += (q - 2) * p7 * p5 * p3 * q**d5
    # q5 = (q-1)/(2 (q^5-1)) (q^(5d/2-6e-6) - q^-(6e+1)), for d >= 4
    if d >= 4:
        num += (q - 1) * p7 * p3 * (q**d5 - q**5)
    # q6 = (q-1)/2 q^-(7h+1) (q (q^(7h-7)-1)(q^6+q^4+q^3+q+1)/(q^7-1) + 1 + [e odd](q^-2 + q^-3)),
    # for e >= 2
    if e >= 2:
        inner = q**4 * (q ** (7 * h - 7) - 1) * (q**6 + q**4 + q**3 + q + 1) + p7 * q**3
        if e % 2 == 1:
            inner += p7 * (q + 1)
        num += (q - 1) * inner * p5 * p3 * q ** (6 * e + 2 - 7 * h)
        # q7 = -(q^2-1)/(2 (q^3-1)) (q^-7 - q^-(3e+1)), for e >= 2
        num -= (q**2 - 1) * p7 * p5 * (q ** (6 * e - 1) - q ** (3 * e + 5))
    # q8 = -q^-(3e+2) (1 - q^-h) / 2
    num -= p7 * p5 * p3 * (q ** (3 * e + 4) - q ** (3 * e + 4 - h))
    # q9 = q^-(6e+3) if -1 is a square, half that if K(sqrt(-1))/K is ramified
    if p.minus_one_class is MinusOneClass.SQUARE:
        num += 2 * p7 * p5 * p3 * q**3
    elif p.minus_one_class is MinusOneClass.RAMIFIED:
        num += p7 * p5 * p3 * q**3
    return Fraction(num, 2 * p7 * p5 * p3 * q ** (6 * e + 6))


def _tower_mass(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    # (1 + q^2 + q^(3e+1)) / ((q^2+q+1) q^(3e+3))
    return Fraction(1 + q**2 + q ** (3 * e + 1), (q**2 + q + 1) * q ** (3 * e + 3))


@lru_cache(maxsize=1)
def closed_masses(params: FieldParams):
    """The five closed-form masses of one tuple, by group, each formula evaluated once.

    D4 is the tower mass less the C4 mass and three times the V4 mass.  The
    last tuple's masses are kept, so asking for its groups one at a time
    evaluates the formulas once.
    """
    v4, c4 = _mass_V4(params), _mass_C4(params)
    return MappingProxyType({
        GroupTag.S4: _mass_S4(params),
        GroupTag.A4: _mass_A4(params),
        GroupTag.V4: v4,
        GroupTag.C4: c4,
        GroupTag.D4: _tower_mass(params) - c4 - 3 * v4,
    })


def mass_closed_form(params: FieldParams, g: GroupTag) -> Fraction:
    """The published closed form for the mass of the closure-group-g stratum."""
    return closed_masses(params)[g]


def _support_sum(params: FieldParams, fn, denom: int) -> Fraction:
    """sum_m fn(params, m) / (denom * q^m) over m <= 8e+3, with one integer numerator."""
    q = params.q
    top = counts.max_support(params)
    num = 0
    for m in range(1, top + 1):
        c = fn(params, m)
        if c:
            num += c * q ** (top - m)
    return Fraction(num, denom * q**top)


def mass_from_counts(params: FieldParams, g: GroupTag) -> Fraction:
    """Sum count(m, g) / (#Aut * q^m) over the group's full support."""
    return _support_sum(params, counts._DISPATCH[g], aut_order(g))


def tower_mass_sum(params: FieldParams) -> Fraction:
    """(1/4) * sum_m q^-m * #Tow_m, asserted equal to its closed form."""
    total = _support_sum(params, counts.count_tow, 4)
    closed = _tower_mass(params)
    if total != closed:
        raise FormulationMismatch(
            f"tower mass sum {total} differs from closed form {closed} at {params}"
        )
    return total


def serre_total(params: FieldParams) -> Fraction:
    """Sum of the five closed-form masses; must equal q^-3 exactly."""
    total = sum(closed_masses(params).values(), Fraction(0))
    expected = Fraction(1, params.q**3)
    if total != expected:
        raise SerreIdentityViolation(total - expected)
    return total
