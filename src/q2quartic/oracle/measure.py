"""Haar-measure computations for coefficient sets of Eisenstein quartics.

measure_set enumerates every Eisenstein coefficient class modulo pi^c and
sums q^{-4c} over classes whose representative satisfies the predicate.
The caller asserts the predicate is constant on classes at this depth;
a deterministic sample of classes is re-tested one digit deeper and any
flip raises ClassInstability.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ..errors import BudgetExceeded, ClassInstability, PrecisionExhausted
from ..padic.field import LocalField
from ..padic.quartic import (
    EisensteinQuartic,
    _cubic_congruence,
    _power,
    count_roots_in_stem,
    disc_valuation,
    in_Tm,
)
from ..padic.rings import leading_residue


# measure_set refuses to enumerate more coefficient classes than this
_CLASS_BUDGET = 4_000_000

# measure_set re-tests every this-many-th class one digit deeper
_SAMPLE_STRIDE = 97


def _digit_tuples(q: int, span: int):
    return product(range(q), repeat=span)


def _eisenstein_classes(field: LocalField, c: int):
    """Yield one EisensteinQuartic per Eisenstein coefficient class modulo pi^c.

    There are (q-1) q^(4c-5) classes; BudgetExceeded is raised before the
    first one if that exceeds ``_CLASS_BUDGET``.  a0, a1 and a2 are built
    once per digit tuple, outside the loops below them.
    """
    q = field.q
    n_classes = (q - 1) * q ** (4 * c - 5)
    if n_classes > _CLASS_BUDGET:
        raise BudgetExceeded(f"{n_classes} classes at depth {c} exceed budget {_CLASS_BUDGET}")
    for lead in range(1, q):
        for rest0 in _digit_tuples(q, c - 2):
            a0 = field.from_digits((0, lead) + rest0)
            for d1 in _digit_tuples(q, c - 1):
                a1 = field.from_digits((0,) + d1)
                for d2 in _digit_tuples(q, c - 1):
                    a2 = field.from_digits((0,) + d2)
                    for d3 in _digit_tuples(q, c - 1):
                        yield EisensteinQuartic(field, a0, a1, a2, field.from_digits((0,) + d3))


def measure_set(field: LocalField, predicate, c: int) -> Fraction:
    """Measure (relative to mu(O_K^4) = 1) of the Eisenstein set cut out by predicate."""
    hits = 0
    for idx, fq in enumerate(_eisenstein_classes(field, c), start=1):
        verdict = predicate(fq)
        if verdict:
            hits += 1
        if idx % _SAMPLE_STRIDE == 0:
            _check_stability(field, predicate, fq, verdict, c)
    return Fraction(hits, field.q ** (4 * c))


def _check_stability(field, predicate, fq, verdict, c):
    # re-test with one extra digit on each coefficient in turn
    pi_c = field.digit_elt(1, c)
    ring = field.ring
    coeffs = list(fq.coeffs())
    for i in range(4):
        bumped = list(coeffs)
        bumped[i] = ring.add(bumped[i], pi_c)
        refined = EisensteinQuartic(field, *bumped)
        if predicate(refined) != verdict:
            raise ClassInstability(
                f"predicate flipped under refinement at depth {c} (coefficient {i})"
            )


def t_m_measure(field: LocalField, m: int) -> Fraction:
    """mu(T_m) by enumeration at the depth where the valuation pattern is decided."""
    c = m // 4 + 2
    return measure_set(field, lambda fq: in_Tm(fq, m), c)


def one_aut_measure(field: LocalField, m: int) -> Fraction:
    """mu(P_m^{1-Aut}) by enumeration, with the independent stem-root predicate.

    Membership of the (m, trivial-automorphisms) stratum is decided by
    v(disc) and the stem root count; both are constant on classes at depth
    m//3 + 2 by the Krasner radius of those strata.
    """
    c = m // 3 + 2

    def pred(fq):
        return disc_valuation(fq) == m and count_roots_in_stem(fq) == 1

    return measure_set(field, pred, c)


def cubic_congruence_measure(field: LocalField, a: int, b: int) -> Fraction:
    """Measure of the cubic-congruence triple set, by stratified enumeration.

    The set consists of (x0, x1, x2) with v(x0) = 1, v(x1) = a + b,
    v(x2) >= b such that x1 + u x2 x0^a + u^3 x0^{a+b} = 0 mod p^{a+b+1}
    for some unit residue representative u.  x1 only matters modulo
    p^{a+b+1}, where it is [t1] pi^(a+b) for a unit residue t1, and a
    target -(u x2 x0^a + u^3 x0^(a+b)) matches that class exactly when its
    valuation is a + b and its leading digit is t1: each (x0, x2) counts the
    distinct leading digits of its targets of valuation a + b.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    q = field.q
    ring = field.ring
    depth = a + b + 1
    if depth > ring.cap:
        raise PrecisionExhausted(f"congruence mod pi^{depth} beyond cap {ring.cap}")
    targets_of = _cubic_congruence(field)
    count = 0
    for lead in range(1, q):
        for rest in _digit_tuples(q, depth - 2):
            x0 = field.from_digits((0, lead) + rest)
            x0_a = _power(ring, x0, a)
            x0_ab = _power(ring, x0, a + b)
            for d2 in _digit_tuples(q, a + 1):
                x2 = field.from_digits((0,) * b + d2)
                targets = targets_of(ring.mul(x2, x0_a), x0_ab)
                count += len({
                    leading_residue(ring, t, a + b) for t in targets if ring.val(t) == a + b
                })
    return Fraction(count, q ** (3 * depth))
