"""Closed-form counts of totally ramified quartic extensions per (m, group).

All arithmetic is exact: intermediate values are ``fractions.Fraction`` and
every count is asserted integral and non-negative before being returned.
Out-of-range m yields 0 rather than an error, so tables and sums can be
taken over arbitrary ranges.

Conventions used throughout:

* ``m``  -- discriminant valuation v_K(d_{L/K}) of the quartic L/K,
* ``m1`` -- discriminant valuation of a quadratic step E/K,
* ``m2`` -- discriminant valuation v_E(d_{L/E}) of a quadratic step L/E.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NonIntegralCount
from .params import FieldParams, GroupTag, MinusOneClass

# counts are pure in (params, m); sweeps revisit the same cells constantly
_memo = lru_cache(maxsize=1 << 17)


def ind(cond: bool) -> int:
    """Indicator combinator: condition -> 0/1."""
    return 1 if cond else 0


def _as_count(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise NonIntegralCount(f"{what} evaluated to non-integer {x}")
    n = int(x)
    if n < 0:
        raise NonIntegralCount(f"{what} evaluated to negative {n}")
    return n


def _qp(q: int, n) -> Fraction:
    """q**n for an integer (or integral Fraction) n of either sign, as an exact Fraction."""
    if type(n) is not int:
        if n.denominator != 1:
            raise NonIntegralCount(f"non-integral exponent {n} for q-power")
        n = n.numerator
    return Fraction(q) ** n


@_memo
def count_one_aut(params: FieldParams, m: int) -> int:
    """Number of quartics with trivial automorphism group (S4 plus A4 closures)."""
    q, e = params.q, params.e
    if m % 2 != 0 or not (4 <= m <= 6 * e + 2):
        return 0
    val = _qp(q, m // 3 - 1) * (q - 1) * (1 + ind(m % 6 == 0) * Fraction(1 - 2 * q, 3 * q))
    return _as_count(val, f"count_one_aut(m={m})")


@_memo
def count_S4(params: FieldParams, m: int) -> int:
    q, e = params.q, params.e
    if params.f % 2 == 0:
        return 0
    if m % 2 != 0 or m % 6 == 0 or not (4 <= m <= 6 * e + 2):
        return 0
    return _as_count(_qp(q, m // 3 - 1) * (q - 1), f"count_S4(m={m})")


@_memo
def count_A4(params: FieldParams, m: int) -> int:
    q, e = params.q, params.e
    if params.f % 2 == 0:
        if m % 2 != 0 or not (4 <= m <= 6 * e + 2):
            return 0
        if m % 3 == 0:
            val = Fraction(1, 3) * _qp(q, m // 3 - 2) * (q * q - 1)
        else:
            val = _qp(q, m // 3 - 1) * (q - 1)
        return _as_count(val, f"count_A4(m={m})")
    if m % 6 != 0 or not (6 <= m <= 6 * e):
        return 0
    val = Fraction(1, 3) * _qp(q, m // 3 - 2) * (q * q - 1)
    return _as_count(val, f"count_A4(m={m})")


@_memo
def count_V4(params: FieldParams, m: int) -> int:
    q, e = params.q, params.e
    if m % 2 != 0 or not (6 <= m <= 6 * e + 2):
        return 0
    inner = _qp(q, -(m // 6)) * (1 + ind(m % 3 == 0) * Fraction(q - 2, 3))
    inner -= ind(m <= 4 * e + 2) * _qp(q, -((m - 2) // 4))
    val = 2 * (q - 1) * _qp(q, (m - 4) // 2) * inner
    return _as_count(val, f"count_V4(m={m})")


@_memo
def n_ext(params: FieldParams, m1: int) -> int:
    """Number of totally ramified quadratic E/K with v(d) = m1 that extend to a C4 quartic."""
    q, e, d = params.q, params.e, params.d_minus_one
    if m1 == 2 * e + 1:
        if params.minus_one_class is MinusOneClass.SQUARE:
            return _as_count(2 * _qp(q, e), "n_ext")
        if params.minus_one_class is MinusOneClass.RAMIFIED:
            return _as_count(_qp(q, e), "n_ext")
        return 0
    if m1 % 2 != 0 or not (2 <= m1 <= 2 * e):
        return 0
    val = (
        (1 + ind(m1 <= 2 * e - d))
        * _qp(q, m1 // 2 - 1)
        * (q - 1 - ind(m1 == 2 * e - d + 2))
    )
    return _as_count(val, f"n_ext(m1={m1})")


@_memo
def n_c4(params: FieldParams, m1: int, m2: int) -> int:
    """Number of quadratic L/E with v_E(d) = m2 making L/K cyclic quartic.

    E is any totally ramified C4-extendable quadratic with v_K(d_{E/K}) = m1;
    the answer depends on E only through m1.
    """
    q, e = params.q, params.e
    if m1 == 2 * e + 1 or (m1 % 2 == 0 and e < m1 <= 2 * e):
        if m2 == m1 + 2 * e:
            return _as_count(2 * _qp(q, e), "n_c4")
        return 0
    if m1 % 2 != 0 or not (2 <= m1 <= e):
        return 0
    if m2 == 3 * m1 - 2:
        return _as_count(_qp(q, m1 - 1), "n_c4")
    if m2 % 2 == 0 and 3 * m1 <= m2 <= 4 * e - m1:
        return _as_count(_qp(q, (m1 + m2) // 4) - _qp(q, (m1 + m2 - 2) // 4), "n_c4")
    if m2 == 4 * e - m1 + 2:
        return _as_count(_qp(q, e), "n_c4")
    return 0


@_memo
def count_C4(params: FieldParams, m: int) -> int:
    """Cyclic quartic count, explicit form.

    :func:`count_C4_towers` is the independent N_ext/N_C4 formulation; the
    acceptance suite and ``sweep --check c4-dual`` compare the two.
    """
    q, e, d = params.q, params.e, params.d_minus_one
    if m == 8 * e + 3:
        if params.minus_one_class is MinusOneClass.SQUARE:
            return _as_count(4 * _qp(q, 2 * e), "C4 at 8e+3")
        if params.minus_one_class is MinusOneClass.RAMIFIED:
            return _as_count(2 * _qp(q, 2 * e), "C4 at 8e+3")
        return 0
    if m % 2 != 0 or not (8 <= m <= 8 * e):
        return 0
    total = Fraction(0)
    if 8 <= m <= 5 * e - 2 and m % 5 == 3:
        total += 2 * _qp(q, Fraction(3 * m - 14, 10)) * (q - 1)
    if 4 * e + 4 <= m <= 5 * e + 2:
        total += 2 * _qp(q, m // 2 - e - 2) * (q - 1)
    if 5 * e + 3 <= m <= 8 * e and m % 3 == (2 * e) % 3:
        total += (
            2
            * _qp(q, Fraction(m + 4 * e, 6) - 1)
            * (1 + ind(m <= 8 * e - 3 * d))
            * (q - 1 - ind(m == 8 * e - 3 * d + 6))
        )
    if 10 <= m <= 5 * e:
        total += (
            2
            * (q - 1)
            * (_qp(q, (3 * m) // 10 - 1) - _qp(q, max(-((m + 2) // -4), m // 2 - e) - 2))
        )
    return _as_count(total, f"count_C4(m={m})")


def count_C4_towers(params: FieldParams, m: int) -> int:
    """Cyclic quartic count as the sum over m1 of N_ext(m1) * N_C4(m1, m - 2 m1)."""
    e = params.e
    total = 0
    for m1 in list(range(2, 2 * e + 1, 2)) + [2 * e + 1]:
        total += n_ext(params, m1) * n_c4(params, m1, m - 2 * m1)
    return total


@_memo
def count_tow(params: FieldParams, m: int) -> int:
    """Number of m-towers: pairs (E, L) of totally ramified quadratic steps with total exponent m."""
    q, e = params.q, params.e
    if m % 2 == 0 and 6 <= m <= 8 * e + 2:
        inner = ind(m >= 4 * e + 4) * _qp(q, -e)
        inner += ind(m <= 8 * e) * (
            _qp(q, min(0, e + 1 - (-(m // -4)))) - _qp(q, -min((m - 2) // 4, e))
        )
        return _as_count(4 * (q - 1) * _qp(q, m // 2 - 2) * inner, f"count_tow(m={m})")
    if m % 4 == 1 and 4 * e + 5 <= m <= 8 * e + 1:
        return _as_count(4 * (q - 1) * _qp(q, e + (m - 1) // 4 - 1), f"count_tow(m={m})")
    if m == 8 * e + 3:
        return _as_count(4 * _qp(q, 3 * e), "count_tow(8e+3)")
    return 0


@_memo
def count_D4(params: FieldParams, m: int) -> int:
    """Dihedral quartic count from the tower identity #C4 + 2 #D4 + 3 #V4 = #Tow.

    On parameter tuples realised by an actual field the result is a
    non-negative integer.  The validator cannot exclude every unrealisable
    tuple (e.g. e = 1 with -1 declared square), and on those the exact
    identity value may be negative; it is returned as-is so identity
    sweeps over the whole formal parameter space remain exact.
    """
    diff = count_tow(params, m) - count_C4(params, m) - 3 * count_V4(params, m)
    if diff % 2 != 0:
        raise NonIntegralCount(f"tower identity gives odd 2*D4 = {diff} at m={m}")
    return diff // 2


@_memo
def count_quad_ext(params: FieldParams, m1: int) -> int:
    """Number of totally ramified quadratic extensions of K with v(d) = m1."""
    q, e = params.q, params.e
    if m1 % 2 == 0 and 2 <= m1 <= 2 * e:
        return _as_count(2 * (q - 1) * _qp(q, m1 // 2 - 1), f"count_quad_ext(m1={m1})")
    if m1 == 2 * e + 1:
        return _as_count(2 * _qp(q, e), "count_quad_ext(2e+1)")
    return 0


_DISPATCH = {
    GroupTag.S4: count_S4,
    GroupTag.A4: count_A4,
    GroupTag.V4: count_V4,
    GroupTag.C4: count_C4,
    GroupTag.D4: count_D4,
}


def count(params: FieldParams, m: int, g: GroupTag) -> int:
    """Dispatch to the per-group counting formula."""
    return _DISPATCH[g](params, m)


def max_support(params: FieldParams) -> int:
    """Largest m with a possibly nonzero count for any group: 8e+3."""
    return 8 * params.e + 3
