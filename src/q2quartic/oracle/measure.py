"""Haar-measure computations for coefficient sets of Eisenstein quartics.

measure_set enumerates every Eisenstein coefficient class modulo pi^c and
sums q^{-4c} over classes whose representative satisfies the predicate.
A representative's discriminant is computed only when read (the predicate
or the cross-check asks for it), from its a3-free prefix (a0, a1, a2):
``disc_by_a3`` gives disc as a polynomial in a3, at most once per prefix,
read at each a3 by Horner.  The caller asserts the predicate is constant on
classes at this depth; the classes the oracles' one sampling rule picks
(``_sampled`` of the class digits) are checked twice: the prefix
discriminant must equal ``disc_raw``, else FormulationMismatch, and the
predicate is re-tested one digit deeper, where any flip raises
ClassInstability.

Every public function checks its arguments first and raises InvalidParams
for values outside its domain; an enumeration of more than
``_CLASS_BUDGET`` classes (or cubic-congruence pairs) raises
BudgetExceeded before the first one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product

from ..errors import (
    BudgetExceeded,
    ClassInstability,
    FormulationMismatch,
    InvalidParams,
)
from ..padic import _compiled
from ..padic.field import LocalField
from ..padic.quartic import (
    EisensteinQuartic,
    count_roots_in_stem,
    cubic_leading_digits,
    disc_raw,
    disc_valuation,
    in_Tm,
    in_Tm_domain,
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


class _PrefixDisc:
    """The discriminant as a polynomial in a3 for one prefix (a0, a1, a2).

    ``disc_by_a3`` runs at the first read, so a prefix none of whose
    classes has its disc read costs nothing; each read is one Horner pass.
    """

    __slots__ = ("ring", "prefix", "by_a3")

    def __init__(self, ring, a0, a1, a2):
        self.ring, self.prefix, self.by_a3 = ring, (a0, a1, a2), None

    def at(self, a3):
        if self.by_a3 is None:
            self.by_a3 = _compiled.disc_by_a3(self.ring, *self.prefix)
        mul, add = self.ring.mul, self.ring.add
        d0, d1, d2, d3, d4 = self.by_a3
        return add(mul(add(mul(add(mul(add(mul(d4, a3), d3), a3), d2), a3), d1), a3), d0)


class _ClassQuartic(EisensteinQuartic):
    """A class representative whose ``disc``, on first read, is its prefix's polynomial at a3.

    Its ``prefix_disc``, the shared :class:`_PrefixDisc`, is set in the
    instance dict after construction: the dataclass is frozen, and an
    ``__init__`` of its own would cost every class a second call.
    """

    @cached_property
    def disc(self):
        return self.prefix_disc.at(self.a3)


def _eisenstein_classes(field: LocalField, c: int):
    """Yield (digits, quartic) once per Eisenstein coefficient class modulo pi^c.

    ``digits`` are the class's free digits: the leading digit of a0 / pi,
    then a0's digits below pi^c and a1's, a2's and a3's at pi^1 .. pi^(c-1).
    There are (q-1) q^(4c-5) classes; BudgetExceeded is raised before the
    first one if that exceeds ``_CLASS_BUDGET``.  The coefficient tails are
    built once per call; a quartic's ``disc`` is computed only when read,
    from its prefix's ``disc_by_a3``, which runs at most once per
    (a0, a1, a2).
    """
    q, ring = field.q, field.ring
    _check_budget((q - 1) * q ** (4 * c - 5), f"classes at depth {c}")
    tails = [(d, field.from_digits((0,) + d)) for d in _digit_tuples(q, c - 1)]
    for lead in range(1, q):
        for rest0 in _digit_tuples(q, c - 2):
            a0 = field.from_digits((0, lead) + rest0)
            for t1, a1 in tails:
                for t2, a2 in tails:
                    prefix = (lead, *rest0, *t1, *t2)
                    prefix_disc = _PrefixDisc(ring, a0, a1, a2)
                    for t3, a3 in tails:
                        fq = _ClassQuartic(field, a0, a1, a2, a3)
                        vars(fq)["prefix_disc"] = prefix_disc
                        yield prefix + t3, fq


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
            if fq.disc != disc_raw(field, *fq.coeffs()):
                raise FormulationMismatch(f"prefix discriminant differs from disc_raw at depth {c}")
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
    if not in_Tm_domain(m, field.e_abs):
        raise InvalidParams(f"T_m is defined for even 4 <= m <= 6e+2, got m={m}")
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
