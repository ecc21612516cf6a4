"""Haar-measure computations for coefficient sets of Eisenstein quartics.

measure_set enumerates every Eisenstein coefficient class modulo pi^c and
sums q^{-4c} over classes whose representative satisfies the predicate.
A representative's discriminant is computed only when the predicate reads
it, by ``disc_raw``: the classes run a3 innermost, so consecutive reads
share their prefix (a0, a1, a2) and its polynomial in a3.  The caller
asserts the predicate is constant on classes at this depth; on the classes
the oracles' one sampling rule picks (``_sampled`` of the class digits)
the predicate is re-tested one digit deeper, where any flip raises
ClassInstability.

Every public function checks its arguments first and raises InvalidParams
for values outside its domain; an enumeration of more than
``_CLASS_BUDGET`` classes (or cubic-congruence pairs) raises
BudgetExceeded before the first one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ..errors import BudgetExceeded, ClassInstability, InvalidParams
from ..padic.field import LocalField
from ..padic.quartic import (
    EisensteinQuartic,
    check_Tm_domain,
    count_roots_in_stem,
    cubic_leading_digits,
    disc_valuation,
    in_Tm,
)
from .tower import _sampled

# measure_set and cubic_congruence_measure refuse to enumerate more
# coefficient classes, or (x0, x2) pairs, than this
_CLASS_BUDGET = 4_000_000


def _digit_tuples(q: int, span: int):
    return product(range(q), repeat=span)


def _check_budget(n: int, what: str):
    if n > _CLASS_BUDGET:
        raise BudgetExceeded(f"{n} {what} exceed budget {_CLASS_BUDGET}")


def _eisenstein_classes(field: LocalField, c: int):
    """Yield (digits, quartic) once per Eisenstein coefficient class modulo pi^c.

    ``digits`` are the class's free digits: the leading digit of a0 / pi,
    then a0's digits below pi^c and a1's, a2's and a3's at pi^1 .. pi^(c-1).
    There are (q-1) q^(4c-5) classes; BudgetExceeded is raised before the
    first one if that exceeds ``_CLASS_BUDGET``.  The coefficient tails are
    built once per call, and a3 runs innermost, so the classes whose disc is
    read share their prefix's polynomial in a3 (see ``disc_raw``).
    """
    q = field.q
    _check_budget((q - 1) * q ** (4 * c - 5), f"classes at depth {c}")
    tails = [(d, field.from_digits((0,) + d)) for d in _digit_tuples(q, c - 1)]
    for lead in range(1, q):
        for rest0 in _digit_tuples(q, c - 2):
            a0 = field.from_digits((0, lead) + rest0)
            for t1, a1 in tails:
                for t2, a2 in tails:
                    prefix = (lead, *rest0, *t1, *t2)
                    for t3, a3 in tails:
                        yield prefix + t3, EisensteinQuartic(field, a0, a1, a2, a3)


def measure_set(field: LocalField, predicate, c: int) -> Fraction:
    """Measure (relative to mu(O_K^4) = 1) of the Eisenstein set cut out by predicate."""
    if c < 2:
        raise InvalidParams(f"class depth c must be at least 2, got {c}")
    hits = 0
    for digits, fq in _eisenstein_classes(field, c):
        verdict = predicate(fq)
        if verdict:
            hits += 1
        if _sampled(digits):
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
    check_Tm_domain(m, field.e_abs)
    c = m // 4 + 2
    return measure_set(field, lambda fq: in_Tm(fq, m), c)


def one_aut_measure(field: LocalField, m: int) -> Fraction:
    """mu(P_m^{1-Aut}) by enumeration, with the independent stem-root predicate.

    Membership of the (m, trivial-automorphisms) stratum is decided by
    v(disc) and the stem root count; both are constant on classes at depth
    m//3 + 2 by the Krasner radius of those strata.  m ranges over the
    discriminant valuations of Eisenstein quartics, 4 <= m <= 8e+3.
    """
    if not 4 <= m <= 8 * field.e_abs + 3:
        raise InvalidParams(f"v(disc) of an Eisenstein quartic lies in 4..8e+3, got m={m}")
    c = m // 3 + 2

    def pred(fq):
        return disc_valuation(fq) == m and count_roots_in_stem(fq) == 1

    return measure_set(field, pred, c)


def cubic_congruence_measure(field: LocalField, a: int, b: int) -> Fraction:
    """Measure of the cubic-congruence triple set, by stratified enumeration.

    The set consists of (x0, x1, x2) with v(x0) = 1, v(x1) = a + b,
    v(x2) >= b such that x1 + u x2 x0^a + u^3 x0^{a+b} = 0 mod p^{a+b+1}
    for some unit residue representative u.  x1 only matters modulo
    p^{a+b+1}, where it is [t1] pi^(a+b) for a unit residue t1, and it
    solves the congruence for some u exactly when t1 is among the nonzero
    leading digits that ``cubic_leading_digits``, the test ``is_one_aut``
    reads, finds for x2 at level a + b (its precondition holds, as
    v(x2 x0^a) >= a + b): each (x0, x2) counts those digits.  The helper
    runs once per x0, on the list of every x2.  PrecisionExhausted when
    pi^(a+b+1) is beyond the ring's cap; the (q-1) q^(2a+b) pairs (x0, x2)
    are refused with BudgetExceeded beyond ``_CLASS_BUDGET``.
    """
    if a <= 0 or b <= 0:
        raise InvalidParams(f"a and b must be positive, got a={a}, b={b}")
    q = field.q
    depth = a + b + 1
    digit_sets = cubic_leading_digits(field, a, a + b)
    _check_budget((q - 1) * q ** (2 * a + b), f"(x0, x2) pairs at (a, b) = ({a}, {b})")
    x2s = [field.from_digits((0,) * b + d2) for d2 in _digit_tuples(q, a + 1)]
    count = 0
    for lead in range(1, q):
        for rest in _digit_tuples(q, depth - 2):
            x0 = field.from_digits((0, lead) + rest)
            for digits in digit_sets(x0, x2s):
                count += len(digits) - (0 in digits)
    return Fraction(count, q ** (3 * depth))
