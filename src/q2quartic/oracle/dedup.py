"""Dedup oracle: count isomorphism classes directly.

Enumerates Eisenstein coefficient classes at a flat depth past the Krasner
radius of every field with m <= m_max, classifies each representative, and
groups representatives of the same (m, g) cell by stem-field isomorphism:
f and g define isomorphic quartic extensions iff g has a root in
K[X]/(f).  This is the slowest oracle and the arbiter when the density
and formula counts disagree.
"""

from __future__ import annotations

from ..padic.field import LocalField
from ..padic.quartic import (
    EisensteinQuartic,
    _count_roots_in_ring,
    classify_quartic,
    disc_valuation,
    stem_ring,
)
from ..params import GroupTag
from .measure import eisenstein_classes


def _has_root_in(stem, fq: EisensteinQuartic) -> bool:
    coeffs = [stem.lift(c) for c in fq.coeffs()] + [stem.one]
    return _count_roots_in_ring(stem, coeffs) > 0


def dedup_counts(
    field: LocalField,
    m_max: int,
    c: int | None = None,
    budget: int = 300_000,
) -> dict[tuple[int, GroupTag], int]:
    """Isomorphism-class counts per (m, g) for m <= m_max."""
    if c is None:
        c = m_max // 3 + 2
    groups: dict[tuple[int, GroupTag], list] = {}
    for fq in eisenstein_classes(field, c, budget):
        if disc_valuation(fq) > m_max:
            continue
        m, g = classify_quartic(fq)
        stems = groups.setdefault((m, g), [])  # one stem ring per class found
        if not any(_has_root_in(stem, fq) for stem in stems):
            stems.append(stem_ring(fq))
    return {key: len(stems) for key, stems in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    )}
