"""Dedup oracle: count isomorphism classes directly.

Walks the refinement tree of the density oracle from its root t = 1 with
only the disc-prune and Krasner certificates (see :mod:`.density`): every
member of a Krasner leaf generates the field of the leaf's representative,
and the root orbit keeps the stem field, so the representatives of the
leaves with m <= m_max meet every field with m <= m_max.  Each
representative is classified by stem root counting and grouped with the
others of its (m, g) cell by stem-field isomorphism: f and g define
isomorphic quartic extensions iff g has a root in K[X]/(f).  The walk's
leaves and pruned classes must fill the Eisenstein measure, as density's
do.  This is the slowest oracle and the arbiter when the density and
formula counts disagree.
"""

from __future__ import annotations

from ..padic.field import LocalField
from ..padic.quartic import EisensteinQuartic, _count_roots_in_ring, classify_quartic, stem_ring
from ..params import GroupTag
from .density import _Enumerator, _root_nodes


def _has_root_in(stem, fq: EisensteinQuartic) -> bool:
    coeffs = [stem.lift(c) for c in fq.coeffs()] + [stem.one]
    return _count_roots_in_ring(stem, coeffs) > 0


class _DedupWalk(_Enumerator):
    """The density tree with the tower certificate off: every leaf is a Krasner leaf."""

    def __init__(self, field: LocalField, m_max: int):
        # leaves are classified by root counting already: a cross-check would repeat it
        super().__init__(field, m_max, cross_check_every=0)
        self.stems: dict[tuple[int, GroupTag], list] = {}  # one stem ring per field found

    def _tower_leaf(self, *node) -> bool:
        return False

    def _krasner_leaf(self, digits):
        fq = self._build(digits)
        mg = classify_quartic(fq)
        if self._add_leaf(mg, fq, digits):
            stems = self.stems.setdefault(mg, [])
            if not any(_has_root_in(stem, fq) for stem in stems):
                stems.append(stem_ring(fq))


def dedup_counts(field: LocalField, m_max: int) -> dict[tuple[int, GroupTag], int]:
    """Isomorphism-class counts per (m, g) for m <= m_max."""
    walk = _DedupWalk(field, m_max)
    walk.run(_root_nodes(field.q)[:1])
    walk.check_conservation()
    return {key: len(stems) for key, stems in sorted(
        walk.stems.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    )}
