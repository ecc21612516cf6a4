"""Closed-form counts of totally ramified quartic extensions per (m, group).

Each parameter tuple's counts are built once, as rows over m = 0 .. 8e+3:
:func:`count_rows` holds a row for each group, the tower row and the 1-Aut
row, and walks each formula only over the m where its indicators can be
non-zero.  The last tuple's rows are kept.  ``count(params, m, g)`` and the
per-group names (``count_S4`` .. ``count_D4``, ``count_tow``,
``count_one_aut``) read them, so asking for that tuple's cells one at a
time builds the rows once, and count tables read them through
:func:`q2quartic.tables.count_table`; out-of-range m yields 0 rather than
an error, so tables and sums can be taken over arbitrary ranges.  The
published per-cell forms are kept in ``tests/helpers.py`` as the reference
the tests hold the rows to.

All arithmetic is in Python integers.  A formula that divides or subtracts
is evaluated as one integer numerator over one integer denominator, a
power of q (times 3 where the formula divides by 3), and :func:`_exact`
checks that the quotient is a non-negative integer before it is stored.

:func:`count_C4_towers` is the independent N_ext/N_C4 formulation of the
C4 row; the acceptance suite and ``sweep --check c4-dual`` compare the two.

Conventions used throughout:

* ``m``  -- discriminant valuation v_K(d_{L/K}) of the quartic L/K,
* ``m1`` -- discriminant valuation of a quadratic step E/K,
* ``m2`` -- discriminant valuation v_E(d_{L/E}) of a quadratic step L/E.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .errors import NonIntegralCount
from .params import FieldParams, GroupTag, MinusOneClass, check_degree


def ind(cond: bool) -> int:
    """Indicator combinator: condition -> 0/1."""
    return 1 if cond else 0


def _exact(num: int, den: int, what: str, *args) -> int:
    """num / den for den > 0, raising NonIntegralCount unless it is a non-negative integer.

    ``what % args`` names the quantity in the error; it is formatted only on failure.
    """
    n, rem = divmod(num, den)
    if rem:
        raise NonIntegralCount(f"{what % args} evaluated to non-integer {num}/{den}")
    if n < 0:
        raise NonIntegralCount(f"{what % args} evaluated to negative {n}")
    return n


def max_support(params: FieldParams) -> int:
    """Largest m with a possibly nonzero count for any group: 8e+3."""
    return 8 * params.e + 3


# -- the rows ----------------------------------------------------------------


# Each row builder takes qp, the powers q^0 .. q^(4e): every exponent it
# reads lies in that range on the m it walks.


def _one_aut_row(params: FieldParams, qp, size: int) -> list[int]:
    """Quartics with trivial automorphism group (S4 plus A4 closures): even m in 4 .. 6e+2."""
    q, e = params.q, params.e
    row = [0] * size
    for m in range(4, 6 * e + 3, 2):
        # q^(m//3-1) (q-1) (1 + [6 | m] (1-2q)/(3q)), over 3q
        num = qp[m // 3 - 1] * (q - 1) * (q + 1 if m % 6 == 0 else 3 * q)
        row[m] = _exact(num, 3 * q, "count_one_aut(m=%d)", m)
    return row


def _s4_row(params: FieldParams, qp, size: int) -> list[int]:
    """S4: f odd, even m in 4 .. 6e+2 with 6 not dividing m."""
    q, e = params.q, params.e
    row = [0] * size
    if params.f % 2 == 1:
        for m in range(4, 6 * e + 3, 2):
            if m % 6:
                row[m] = qp[m // 3 - 1] * (q - 1)
    return row


def _a4_row(params: FieldParams, qp, size: int) -> list[int]:
    """A4: even m in 4 .. 6e+2 for f even, m divisible by 6 in 6 .. 6e for f odd."""
    q, e = params.q, params.e
    row = [0] * size
    if params.f % 2 == 0:
        for m in range(4, 6 * e + 3, 2):
            if m % 3:
                row[m] = qp[m // 3 - 1] * (q - 1)
            else:
                row[m] = _exact(qp[m // 3 - 2] * (q * q - 1), 3, "count_A4(m=%d)", m)
    else:
        for m in range(6, 6 * e + 1, 6):
            row[m] = _exact(qp[m // 3 - 2] * (q * q - 1), 3, "count_A4(m=%d)", m)
    return row


def _v4_row(params: FieldParams, qp, size: int) -> list[int]:
    """V4: even m in 6 .. 6e+2."""
    q, e = params.q, params.e
    row = [0] * size
    for m in range(6, 6 * e + 3, 2):
        # 2 (q-1) q^((m-4)/2) (q^-a (1 + [3 | m] (q-2)/3) - [m <= 4e+2] q^-b), over 3 q^s
        a, b = m // 6, (m - 2) // 4
        s = max(a, b)
        inner = qp[s - a] * (q + 1 if m % 3 == 0 else 3) - (3 * qp[s - b] if m <= 4 * e + 2 else 0)
        row[m] = _exact(2 * (q - 1) * qp[(m - 4) // 2] * inner, 3 * qp[s], "count_V4(m=%d)", m)
    return row


def _c4_row(params: FieldParams, qp, size: int) -> list[int]:
    """C4, explicit form: four terms over even m in 8 .. 8e, each over its own range, and 8e+3."""
    q, e, d = params.q, params.e, params.d_minus_one
    row = [0] * size
    # m = 3 (mod 5) and even, in 8 .. 5e-2
    for m in range(8, 5 * e - 1, 10):
        row[m] += 2 * qp[(3 * m - 14) // 10] * (q - 1)
    for m in range(4 * e + 4, 5 * e + 3, 2):
        row[m] += 2 * qp[m // 2 - e - 2] * (q - 1)
    # m = 2e (mod 3) and even, in 5e+3 .. 8e:
    # 2 q^((m+4e)/6-1) (1 + [m <= 8e-3d]) (q - 1 - [m = 8e-3d+6])
    start = 5 * e + 3
    for m in range(start + (2 * e - start) % 6, 8 * e + 1, 6):
        row[m] += (
            2
            * qp[(m + 4 * e) // 6 - 1]
            * (2 if m <= 8 * e - 3 * d else 1)
            * (q - 2 if m == 8 * e - 3 * d + 6 else q - 1)
        )
    for m in range(10, 5 * e + 1, 2):
        row[m] += 2 * (q - 1) * (qp[(3 * m) // 10 - 1] - qp[max(-((m + 2) // -4), m // 2 - e) - 2])
    for m in range(8, 8 * e + 1, 2):
        row[m] = _exact(row[m], 1, "count_C4(m=%d)", m)
    if params.minus_one_class is MinusOneClass.SQUARE:
        row[8 * e + 3] = 4 * qp[2 * e]
    elif params.minus_one_class is MinusOneClass.RAMIFIED:
        row[8 * e + 3] = 2 * qp[2 * e]
    return row


def _tow_row(params: FieldParams, qp, size: int) -> list[int]:
    """m-towers, pairs (E, L) of totally ramified quadratic steps with total exponent m:
    even m in 6 .. 8e+2, m = 1 (mod 4) in 4e+5 .. 8e+1, and 8e+3."""
    q, e = params.q, params.e
    row = [0] * size
    for m in range(6, 8 * e + 3, 2):
        # 4 (q-1) q^(m/2-2) ([m >= 4e+4] q^-e + [m <= 8e] (q^u - q^-v)), over q^e;
        # -e <= u <= 0 and 1 <= v <= e
        u = min(0, e + 1 - (-(m // -4)))
        v = min((m - 2) // 4, e)
        inner = (m >= 4 * e + 4) + (qp[e + u] - qp[e - v] if m <= 8 * e else 0)
        row[m] = _exact(4 * (q - 1) * qp[m // 2 - 2] * inner, qp[e], "count_tow(m=%d)", m)
    for m in range(4 * e + 5, 8 * e + 2, 4):
        row[m] = 4 * (q - 1) * qp[e + (m - 1) // 4 - 1]
    row[8 * e + 3] = 4 * qp[3 * e]
    return row


def _d4_row(tow: list[int], c4: list[int], v4: list[int]) -> list[int]:
    """Dihedral counts from the tower identity #C4 + 2 #D4 + 3 #V4 = #Tow.

    On parameter tuples realised by an actual field each entry is a
    non-negative integer.  The validator cannot exclude every unrealisable
    tuple (e.g. e = 1 with -1 declared square), and on those the exact
    identity value may be negative; it is kept as-is so identity sweeps
    over the whole formal parameter space remain exact.
    """
    diffs = [t - c - 3 * v for t, c, v in zip(tow, c4, v4)]
    for m, diff in enumerate(diffs):
        if diff % 2 != 0:
            raise NonIntegralCount(f"tower identity gives odd 2*D4 = {diff} at m={m}")
    return [diff // 2 for diff in diffs]


class CountRows(NamedTuple):
    """One tuple's counts for m = 0 .. 8e+3, each row a tuple indexed by m."""

    groups: Mapping[GroupTag, tuple[int, ...]]  # read-only, by group
    tow: tuple[int, ...]
    one_aut: tuple[int, ...]


@lru_cache(maxsize=1)
def count_rows(params: FieldParams) -> CountRows:
    """The rows of one tuple, each cell evaluated once; the last tuple's rows are kept.

    Raises InvalidParams for e*f above ``MAX_DEGREE`` before anything is built,
    and NonIntegralCount if any cell is not an integer, or not non-negative
    where the formula divides.
    """
    check_degree(params.e, params.f)
    q, size = params.q, max_support(params) + 1
    qp = [1]
    for _ in range(4 * params.e):
        qp.append(qp[-1] * q)
    v4, c4, tow = _v4_row(params, qp, size), _c4_row(params, qp, size), _tow_row(params, qp, size)
    groups = {
        GroupTag.S4: _s4_row(params, qp, size),
        GroupTag.A4: _a4_row(params, qp, size),
        GroupTag.V4: v4,
        GroupTag.C4: c4,
        GroupTag.D4: _d4_row(tow, c4, v4),
    }
    return CountRows(
        MappingProxyType({g: tuple(row) for g, row in groups.items()}),
        tuple(tow),
        tuple(_one_aut_row(params, qp, size)),
    )


def _cell(row: tuple[int, ...], m: int) -> int:
    return row[m] if 0 <= m < len(row) else 0


def count(params: FieldParams, m: int, g: GroupTag) -> int:
    """The count of group g at m, read from the tuple's rows; 0 outside 0 .. 8e+3."""
    return _cell(count_rows(params).groups[g], m)


def count_S4(params: FieldParams, m: int) -> int:
    return count(params, m, GroupTag.S4)


def count_A4(params: FieldParams, m: int) -> int:
    return count(params, m, GroupTag.A4)


def count_V4(params: FieldParams, m: int) -> int:
    return count(params, m, GroupTag.V4)


def count_C4(params: FieldParams, m: int) -> int:
    """Cyclic quartic count, explicit form; :func:`count_C4_towers` is the independent one."""
    return count(params, m, GroupTag.C4)


def count_D4(params: FieldParams, m: int) -> int:
    """Dihedral quartic count, (#Tow - #C4 - 3 #V4) / 2; see :func:`_d4_row`."""
    return count(params, m, GroupTag.D4)


def count_tow(params: FieldParams, m: int) -> int:
    """Number of m-towers: pairs (E, L) of totally ramified quadratic steps with total exponent m."""
    return _cell(count_rows(params).tow, m)


def count_one_aut(params: FieldParams, m: int) -> int:
    """Number of quartics with trivial automorphism group (S4 plus A4 closures)."""
    return _cell(count_rows(params).one_aut, m)


# -- the N_ext / N_C4 formulation and quadratic steps ------------------------


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
    return _exact(num, 1, "n_ext(m1=%d)", m1)


def n_c4_row(params: FieldParams, m1: int) -> dict[int, int]:
    """The non-zero N_C4(m1, m2) by m2: the number of quadratic L/E with v_E(d) = m2
    making L/K cyclic quartic.

    E is any totally ramified C4-extendable quadratic with v_K(d_{E/K}) = m1;
    the answer depends on E only through m1.
    """
    q, e = params.q, params.e
    if m1 == 2 * e + 1 or (m1 % 2 == 0 and e < m1 <= 2 * e):
        return {m1 + 2 * e: 2 * q**e}
    if m1 % 2 != 0 or not (2 <= m1 <= e):
        return {}
    row = {3 * m1 - 2: q ** (m1 - 1)}
    # q^((m1+m2)/4) - q^((m1+m2-2)/4) for even m2 in [3 m1, 4e - m1]: zero unless 4 | m1 + m2
    for m2 in range(3 * m1, 4 * e - m1 + 1, 4):
        row[m2] = q ** ((m1 + m2) // 4 - 1) * (q - 1)
    row[4 * e - m1 + 2] = q**e
    return row


def n_c4(params: FieldParams, m1: int, m2: int) -> int:
    """N_C4(m1, m2), the entry of :func:`n_c4_row` at m2."""
    return n_c4_row(params, m1).get(m2, 0)


def count_C4_towers(params: FieldParams) -> list[int]:
    """Cyclic quartic counts for m = 0 .. 8e+3, as sum over m1 of N_ext(m1) * N_C4(m1, m - 2 m1)."""
    e = params.e
    row = [0] * (max_support(params) + 1)
    for m1 in list(range(2, 2 * e + 1, 2)) + [2 * e + 1]:
        n = n_ext(params, m1)
        if n:
            for m2, c in n_c4_row(params, m1).items():
                row[2 * m1 + m2] += n * c
    return row


def count_quad_ext(params: FieldParams, m1: int) -> int:
    """Number of totally ramified quadratic extensions of K with v(d) = m1."""
    q, e = params.q, params.e
    if m1 % 2 == 0 and 2 <= m1 <= 2 * e:
        return 2 * (q - 1) * q ** (m1 // 2 - 1)
    if m1 == 2 * e + 1:
        return 2 * q**e
    return 0
