"""Refined mass formulas, evaluated as exact rationals.

The mass of a set S of extensions is sum over L in S of
1 / (#Aut(L/K) * q^{v_K(d_{L/K})}).  Everything here is a Fraction; there
is no floating point in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import counts
from .counts import ind
from .errors import FormulationMismatch, SerreIdentityViolation
from .params import FieldParams, GroupTag, MinusOneClass, aut_order


def _qp(q: int, n: int) -> Fraction:
    """q**n for an integer n of either sign, as an exact Fraction."""
    return Fraction(q) ** n


def _mass_S4(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if p.f % 2 == 0:
        return Fraction(0)
    return Fraction(q**3 + 1, q**3 + q**2 + q + 1) * (_qp(q, -3) - _qp(q, -4 * e - 3))


def _mass_A4(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if p.f % 2 == 0:
        return (
            Fraction(1, 3)
            * (q - 1)
            * Fraction(q ** (4 * e) - 1, q**4 - 1)
            * _qp(q, -4 * e - 3)
            * (3 * q**3 + q**2 + q + 3)
        )
    return Fraction(1, 3) * Fraction(1, q**2 + 1) * (_qp(q, -2) - _qp(q, -4 * e - 2))


def _mass_V4(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return Fraction(q - 1, 6) * (
        _qp(q, -4 * e - 3) * Fraction(q ** (4 * e) - 1, q**4 - 1) * (3 * q**3 + q**2 + q + 3)
        - 3 * _qp(q, -3 * e - 3) * Fraction(q ** (3 * e) - 1, q**3 - 1) * (q**2 + 1)
    )


# The nine quantities whose sum is the C4 mass.  They are kept as separate
# functions so each can be unit-tested against hand evaluations; for Q_2
# only the ninth is nonzero.

def c4_mass_q1(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return Fraction(1, 2) * Fraction(q - 1, q**7 - 1) * (1 - _qp(q, -7 * (e // 2)))


def c4_mass_q2(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return Fraction(1, 2) * _qp(q, -3 * e - 3) * (1 - _qp(q, -(e // 2)))


def c4_mass_q3(p: FieldParams) -> Fraction:
    q, e, d = p.q, p.e, p.d_minus_one
    if not d < e:
        return Fraction(0)
    return Fraction(q - 1, q**5 - 1) * (
        _qp(q, -5 * (e // 2) - e - 1) - _qp(q, (5 * d) // 2 - 6 * e - 1)
    )


def c4_mass_q4(p: FieldParams) -> Fraction:
    q, e, d = p.q, p.e, p.d_minus_one
    if d < 2:
        return Fraction(0)
    return Fraction(1, 2) * _qp(q, -6 * e + (5 * d) // 2 - 6) * (q - 2)


def c4_mass_q5(p: FieldParams) -> Fraction:
    q, e, d = p.q, p.e, p.d_minus_one
    if d < 4:
        return Fraction(0)
    return (
        Fraction(1, 2)
        * Fraction(q - 1, q**5 - 1)
        * (_qp(q, (5 * d) // 2 - 6 * e - 6) - _qp(q, -6 * e - 1))
    )


def c4_mass_q6(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if e < 2:
        return Fraction(0)
    h = e // 2
    inner = (
        Fraction(q, q**7 - 1) * (_qp(q, 7 * h - 7) - 1) * (q**6 + q**4 + q**3 + q + 1)
        + 1
        + ind(e % 2 == 1) * (_qp(q, -2) + _qp(q, -3))
    )
    return Fraction(1, 2) * (q - 1) * _qp(q, -7 * h - 1) * inner


def c4_mass_q7(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if e < 2:
        return Fraction(0)
    return (
        -Fraction(1, 2)
        * Fraction((q - 1) * (q + 1), q**3 - 1)
        * (_qp(q, -7) - _qp(q, -3 * e - 1))
    )


def c4_mass_q8(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return -Fraction(1, 2) * _qp(q, -3 * e - 2) * (1 - _qp(q, -(e // 2)))


def c4_mass_q9(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if p.minus_one_class is MinusOneClass.SQUARE:
        return _qp(q, -6 * e - 3)
    if p.minus_one_class is MinusOneClass.RAMIFIED:
        return Fraction(1, 2) * _qp(q, -6 * e - 3)
    return Fraction(0)


C4_MASS_QUANTITIES = (
    c4_mass_q1,
    c4_mass_q2,
    c4_mass_q3,
    c4_mass_q4,
    c4_mass_q5,
    c4_mass_q6,
    c4_mass_q7,
    c4_mass_q8,
    c4_mass_q9,
)


def _mass_C4(p: FieldParams) -> Fraction:
    return sum((fn(p) for fn in C4_MASS_QUANTITIES), Fraction(0))


def _tower_mass_closed(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return Fraction(1, q**2 + q + 1) * (_qp(q, -3 * e - 3) + _qp(q, -3 * e - 1) + _qp(q, -2))


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
        GroupTag.D4: _tower_mass_closed(params) - c4 - 3 * v4,
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
    closed = _tower_mass_closed(params)
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
