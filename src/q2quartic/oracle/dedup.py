"""Dedup oracle: count isomorphism classes directly.

Walks the refinement tree of the density oracle from its root t = 1
(``_ROOT``) with only the disc-prune and Krasner certificates (see
:mod:`.density`): every member of a Krasner leaf generates the field of the
leaf's representative, and the root orbit keeps the stem field, so the
representatives of the leaves with m <= m_max meet every field with
m <= m_max.  f and g define isomorphic quartic extensions iff g has a root
in the stem K[X]/(f).

Fields.  The walk keeps the fields it has found, each with its (m, G),
its stem ring, the measure of its leaves so far and its share (below).
A leaf goes into the bucket (m, square class of disc) of its
representative.  Both are field invariants: O_L = O_K[pi] for an
Eisenstein polynomial, so disc f is the discriminant of L/K up to a unit
square.  The leaf is tested against the live fields of its bucket, the
most recently matched first, and the first stem that holds a root of the
leaf's representative gives the leaf that field and its (m, G);
``_has_root_in`` stops at the first root.  Only a leaf that no live field
matches is classified (``classify_quartic``: stem root counting,
cross-checked against the 1-Aut congruence test), and it starts a new
field.  The fields of a bucket are pairwise non-isomorphic, so at most one
of their stems holds a root: the order of the tests changes the work,
never the result.

Ledger.  The density relation (Serre, *Une « formule de masse »...*,
1978), applied to one field, says that the Eisenstein quartics of the
root t = 1 generating a field with (m, G) have measure exactly
1/(#Aut(G) q^(m+2)), the field's share.  Each leaf adds its measure
q^-depth to its field in exact arithmetic.  A field past its share raises
NonIntegralCount; a field exactly at its share has met all its leaves and
leaves its bucket.  After the leaves and pruned classes are checked to
fill the root's measure, as density's are, every field must be exactly at
its share, or NonIntegralCount is raised.  A wrong match in either
direction (a leaf given to a field not its own, or a field found twice)
overfills one field or leaves one short, so the ledger catches it.

Cross-check.  Every leaf is recorded through density's ``_add_leaf``, so
one leaf in ``_CROSS_CHECK_EVERY`` (64, the tower oracle's one sampling
rule ``_sampled``) is classified afresh by root counting and must agree
with the (m, G) of the field it was matched to.
The walk's counts (``dropped``, ``stem_tests``, ``classified``,
``root_count_cross_checks``) share density's ``stats`` counter and go into
the metadata, with ``leaves``, the ``leaves_krasner`` density counts plus
``dropped``.

Dropped leaves.  A leaf with m > m_max is dropped, not classified.  That
branch is a guard: ``_expand`` prunes a node once its m is certified above
m_max, so only a Krasner leaf whose m is not yet certified at its depth
can reach it, and no input of the test suite does (``dropped`` is 0).  The
test that patches ``disc_bound`` to 0 reaches it.

This is the slowest oracle and the arbiter when the density and formula
counts disagree.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ..errors import NonIntegralCount
from ..padic.field import LocalField
from ..padic.quartic import (
    EisensteinQuartic,
    _ring_roots,
    classify_quartic,
    disc_valuation,
    stem_ring,
)
from ..params import GroupTag, aut_order, cell_key
from .density import _ROOT, _Enumerator


def _has_root_in(stem, fq: EisensteinQuartic) -> bool:
    """Whether f has a root in ``stem``; the search stops at the first one."""
    coeffs = [stem.lift(c) for c in fq.coeffs()] + [stem.one]
    return next(_ring_roots(stem, coeffs), None) is not None


class _Field:
    """A field the walk has found: (m, G), stem ring, measure filled, share."""

    __slots__ = ("mg", "stem", "filled", "share")

    def __init__(self, mg: tuple[int, GroupTag], stem, q: int):
        self.mg = mg
        self.stem = stem
        self.filled = Fraction(0)
        self.share = Fraction(1, aut_order(mg[1]) * q ** (mg[0] + 2))

    def ledger_error(self, what: str) -> NonIntegralCount:
        m, g = self.mg
        return NonIntegralCount(
            f"dedup ledger: a field at (m={m}, {g.value}) {what}: {self.filled} of {self.share}"
        )


class _DedupWalk(_Enumerator):
    """The density tree with the tower certificate off: every leaf is a Krasner leaf."""

    def __init__(self, field: LocalField, m_max: int):
        super().__init__(field, m_max)
        self.fields: list[_Field] = []  # every field found, in the order found
        # (m, disc class) -> the fields not yet full, the most recently matched last
        self.live: dict[tuple[int, int], list[_Field]] = {}

    def _tower_leaf(self, *node) -> bool:
        return False

    def _krasner_leaf(self, digits):
        fq = self._build(digits)
        m = disc_valuation(fq)
        # a guard: ``_expand`` has pruned every node whose m is certified
        # above m_max, so only a leaf not yet certified at its depth gets here
        if m > self.m_max:
            self.stats["dropped"] += 1
            self._add_leaf((m, None), fq, digits, "krasner")  # its group is never read
            return
        bucket = self.live.setdefault((m, self.K.square_class_coords(fq.disc)), [])
        for i in range(len(bucket) - 1, -1, -1):
            self.stats["stem_tests"] += 1
            if _has_root_in(bucket[i].stem, fq):
                bucket.append(bucket.pop(i))
                break
        else:
            self.stats["classified"] += 1
            bucket.append(_Field(classify_quartic(fq), stem_ring(fq), self.q))
            self.fields.append(bucket[-1])
        field = bucket[-1]
        if self._add_leaf(field.mg, fq, digits, "krasner"):
            field.filled += Fraction(1, self.q ** sum(map(len, digits)))
            if field.filled >= field.share:
                if field.filled > field.share:
                    raise field.ledger_error("overfilled")
                bucket.pop()  # full: no leaf is left to match it

    def check_ledger(self):
        """Raise unless every field found is filled exactly to its share."""
        for field in self.fields:
            if field.filled != field.share:
                raise field.ledger_error("left short")


def dedup_counts(field: LocalField, m_max: int):
    """Isomorphism-class counts per (m, g) for m <= m_max, and the walk's metadata."""
    walk = _DedupWalk(field, m_max)
    walk.run([_ROOT])
    walk.check_conservation()
    walk.check_ledger()
    found = Counter(f.mg for f in walk.fields)
    counts = {cell: found[cell] for cell in sorted(found, key=cell_key)}
    stats = walk.stats
    meta = {
        "leaves": stats["leaves_krasner"] + stats["dropped"],
        "dropped": stats["dropped"],
        "fields": len(walk.fields),
        "stem_tests": stats["stem_tests"],
        "classified": stats["classified"],
        "root_count_cross_checks": stats["root_count_cross_checks"],
    }
    return counts, meta
