"""Closed-form counts of totally ramified quartic extensions per (m, group).

All arithmetic is in Python integers.  A formula that divides or subtracts
is evaluated as one integer numerator over one integer denominator, a
power of q (times 3 where the formula divides by 3), and :func:`_exact`
checks that the quotient is a non-negative integer before it is returned.
Out-of-range m yields 0 rather than an error, so tables and sums can be
taken over arbitrary ranges.

Conventions used throughout:

* ``m``  -- discriminant valuation v_K(d_{L/K}) of the quartic L/K,
* ``m1`` -- discriminant valuation of a quadratic step E/K,
* ``m2`` -- discriminant valuation v_E(d_{L/E}) of a quadratic step L/E.
"""

from __future__ import annotations

from .errors import NonIntegralCount
from .params import FieldParams, GroupTag, MinusOneClass


def ind(cond: bool) -> int:
    """Indicator combinator: condition -> 0/1."""
    return 1 if cond else 0


def _exact(num: int, den: int, what: str) -> int:
    """num / den for den > 0, raising NonIntegralCount unless it is a non-negative integer."""
    n, rem = divmod(num, den)
    if rem:
        raise NonIntegralCount(f"{what} evaluated to non-integer {num}/{den}")
    if n < 0:
        raise NonIntegralCount(f"{what} evaluated to negative {n}")
    return n


def count_one_aut(params: FieldParams, m: int) -> int:
    """Number of quartics with trivial automorphism group (S4 plus A4 closures)."""
    q, e = params.q, params.e
    if m % 2 != 0 or not (4 <= m <= 6 * e + 2):
        return 0
    # q^(m//3-1) (q-1) (1 + [6 | m] (1-2q)/(3q)), over 3q
    num = q ** (m // 3 - 1) * (q - 1) * (3 * q + ind(m % 6 == 0) * (1 - 2 * q))
    return _exact(num, 3 * q, f"count_one_aut(m={m})")


def count_S4(params: FieldParams, m: int) -> int:
    q, e = params.q, params.e
    if params.f % 2 == 0:
        return 0
    if m % 2 != 0 or m % 6 == 0 or not (4 <= m <= 6 * e + 2):
        return 0
    return q ** (m // 3 - 1) * (q - 1)


def count_A4(params: FieldParams, m: int) -> int:
    q, e = params.q, params.e
    if params.f % 2 == 0:
        if m % 2 != 0 or not (4 <= m <= 6 * e + 2):
            return 0
        if m % 3 != 0:
            return q ** (m // 3 - 1) * (q - 1)
    elif m % 6 != 0 or not (6 <= m <= 6 * e):
        return 0
    return _exact(q ** (m // 3 - 2) * (q * q - 1), 3, f"count_A4(m={m})")


def count_V4(params: FieldParams, m: int) -> int:
    q, e = params.q, params.e
    if m % 2 != 0 or not (6 <= m <= 6 * e + 2):
        return 0
    # 2 (q-1) q^((m-4)/2) (q^-a (1 + [3 | m] (q-2)/3) - [m <= 4e+2] q^-b), over 3 q^s
    a, b = m // 6, (m - 2) // 4
    s = max(a, b)
    inner = q ** (s - a) * (3 + ind(m % 3 == 0) * (q - 2)) - ind(m <= 4 * e + 2) * 3 * q ** (s - b)
    num = 2 * (q - 1) * q ** ((m - 4) // 2) * inner
    return _exact(num, 3 * q**s, f"count_V4(m={m})")


def n_ext(params: FieldParams, m1: int) -> int:
    """Number of totally ramified quadratic E/K with v(d) = m1 that extend to a C4 quartic."""
    q, e, d = params.q, params.e, params.d_minus_one
    if m1 == 2 * e + 1:
        if params.minus_one_class is MinusOneClass.SQUARE:
            return 2 * q**e
        if params.minus_one_class is MinusOneClass.RAMIFIED:
            return q**e
        return 0
    if m1 % 2 != 0 or not (2 <= m1 <= 2 * e):
        return 0
    num = (1 + ind(m1 <= 2 * e - d)) * q ** (m1 // 2 - 1) * (q - 1 - ind(m1 == 2 * e - d + 2))
    return _exact(num, 1, f"n_ext(m1={m1})")


def n_c4(params: FieldParams, m1: int, m2: int) -> int:
    """Number of quadratic L/E with v_E(d) = m2 making L/K cyclic quartic.

    E is any totally ramified C4-extendable quadratic with v_K(d_{E/K}) = m1;
    the answer depends on E only through m1.
    """
    q, e = params.q, params.e
    if m1 == 2 * e + 1 or (m1 % 2 == 0 and e < m1 <= 2 * e):
        return 2 * q**e if m2 == m1 + 2 * e else 0
    if m1 % 2 != 0 or not (2 <= m1 <= e):
        return 0
    if m2 == 3 * m1 - 2:
        return q ** (m1 - 1)
    if m2 % 2 == 0 and 3 * m1 <= m2 <= 4 * e - m1:
        return _exact(q ** ((m1 + m2) // 4) - q ** ((m1 + m2 - 2) // 4), 1, "n_c4")
    if m2 == 4 * e - m1 + 2:
        return q**e
    return 0


def count_C4(params: FieldParams, m: int) -> int:
    """Cyclic quartic count, explicit form.

    :func:`count_C4_towers` is the independent N_ext/N_C4 formulation; the
    acceptance suite and ``sweep --check c4-dual`` compare the two.
    """
    q, e, d = params.q, params.e, params.d_minus_one
    if m == 8 * e + 3:
        if params.minus_one_class is MinusOneClass.SQUARE:
            return 4 * q ** (2 * e)
        if params.minus_one_class is MinusOneClass.RAMIFIED:
            return 2 * q ** (2 * e)
        return 0
    if m % 2 != 0 or not (8 <= m <= 8 * e):
        return 0
    # every exponent below is non-negative on its range of m
    total = 0
    if 8 <= m <= 5 * e - 2 and m % 5 == 3:
        total += 2 * q ** ((3 * m - 14) // 10) * (q - 1)
    if 4 * e + 4 <= m <= 5 * e + 2:
        total += 2 * q ** (m // 2 - e - 2) * (q - 1)
    if 5 * e + 3 <= m <= 8 * e and m % 3 == (2 * e) % 3:
        total += (
            2
            * q ** ((m + 4 * e) // 6 - 1)
            * (1 + ind(m <= 8 * e - 3 * d))
            * (q - 1 - ind(m == 8 * e - 3 * d + 6))
        )
    if 10 <= m <= 5 * e:
        total += (
            2
            * (q - 1)
            * (q ** ((3 * m) // 10 - 1) - q ** (max(-((m + 2) // -4), m // 2 - e) - 2))
        )
    return _exact(total, 1, f"count_C4(m={m})")


def count_C4_towers(params: FieldParams) -> list[int]:
    """Cyclic quartic counts for m = 0 .. 8e+3, as sum over m1 of N_ext(m1) * N_C4(m1, m - 2 m1)."""
    e = params.e
    row = [0] * (max_support(params) + 1)
    for m1 in list(range(2, 2 * e + 1, 2)) + [2 * e + 1]:
        n = n_ext(params, m1)
        if n:
            for m in range(2 * m1, len(row)):
                row[m] += n * n_c4(params, m1, m - 2 * m1)
    return row


def count_tow(params: FieldParams, m: int) -> int:
    """Number of m-towers: pairs (E, L) of totally ramified quadratic steps with total exponent m."""
    q, e = params.q, params.e
    if m % 2 == 0 and 6 <= m <= 8 * e + 2:
        # 4 (q-1) q^(m/2-2) ([m >= 4e+4] q^-e + [m <= 8e] (q^u - q^-v)), over q^e;
        # -e <= u <= 0 and 1 <= v <= e
        u = min(0, e + 1 - (-(m // -4)))
        v = min((m - 2) // 4, e)
        inner = ind(m >= 4 * e + 4) + ind(m <= 8 * e) * (q ** (e + u) - q ** (e - v))
        return _exact(4 * (q - 1) * q ** (m // 2 - 2) * inner, q**e, f"count_tow(m={m})")
    if m % 4 == 1 and 4 * e + 5 <= m <= 8 * e + 1:
        return 4 * (q - 1) * q ** (e + (m - 1) // 4 - 1)
    if m == 8 * e + 3:
        return 4 * q ** (3 * e)
    return 0


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


def count_quad_ext(params: FieldParams, m1: int) -> int:
    """Number of totally ramified quadratic extensions of K with v(d) = m1."""
    q, e = params.q, params.e
    if m1 % 2 == 0 and 2 <= m1 <= 2 * e:
        return 2 * (q - 1) * q ** (m1 // 2 - 1)
    if m1 == 2 * e + 1:
        return 2 * q**e
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
