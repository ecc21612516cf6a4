"""Tower oracle: count quartics with V4/C4/D4 closure by enumerating towers.

Every such quartic sits in a tower L/E/K of two totally ramified quadratic
steps.  Quadratic extensions of a field are in bijection with its
nontrivial square classes, so the enumeration is: ramified square classes
d of K (giving E = K(sqrt(d))), then ramified square classes alpha of E
(giving L = E(sqrt(alpha))).  The total discriminant exponent is
m = 2 m1 + m2 by the discriminant tower law, the closure group comes from
the norm criterion on N_{E/K}(alpha), and pair counts divide by the fibre
sizes 1/2/3 (C4/D4/V4) of the tower-to-field forgetful map.

The enumeration is linear algebra over F_2.  A square class is its
coordinate vector in the basis of :mod:`q2quartic.padic.field`, and the
norm E^x/E^x2 -> K^x/K^x2 is linear, so per E only the norms of E's
basis units are computed; the norm class of every alpha is the XOR of
their coordinates, and m1, m2 read off the coordinate bits.  No ring
arithmetic is done per pair.

Cross-checks.  A pair (d, alpha) with coordinates (cd, c) is checked by
the direct route when ``_sampled((cd, c))``, the sampling rule density and
dedup use too (1 key in ``_CROSS_CHECK_EVERY``, 64): alpha is built from
E's basis, and ``K.hecke_disc(d)``, ``E.hecke_disc(alpha)`` and
``classify_tower_from_norm`` on ``E.norm(alpha)`` must agree with what the
coordinates gave; a disagreement raises ``FormulationMismatch``.  Hashes
of int tuples do not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

from ..errors import FormulationMismatch, NonIntegralCount
from ..padic.field import TRIVIAL, UNRAMIFIED, LocalField, ramified_quadratic
from ..padic.quartic import classify_tower_from_norm
from ..params import GroupTag, cell_key

_FIBRE = {GroupTag.C4: 1, GroupTag.D4: 2, GroupTag.V4: 3}
_SKIP = (TRIVIAL, UNRAMIFIED)
# Pair counts are keyed by (m, code) with code an index into this tuple:
# an int hashes in C, a GroupTag through Enum.__hash__.
_TAGS = (GroupTag.V4, GroupTag.C4, GroupTag.D4)

_CROSS_CHECK_EVERY = 64  # every oracle cross-checks 1 key in this many (0: none)


def _sampled(key: tuple) -> bool:
    """Whether the item keyed by the int tuple ``key`` is cross-checked; the
    rate is read at each call, so one patch of it governs every oracle."""
    return bool(_CROSS_CHECK_EVERY) and hash(key) % _CROSS_CHECK_EVERY == 0


def _norm_images(K: LocalField, E: LocalField) -> list[int]:
    """K-coordinates of the norms of E's square-class basis units."""
    return [K.square_class_coords(E.norm(b)) for b in E.square_class_basis()]


def _cross_check(K, d, E, c, m1, m2, g):
    """Re-derive (m1, m2, g) of one pair from d and alpha themselves."""
    alpha = E.square_class_rep(c)
    coords = (m1, m2, g)
    direct = (K.hecke_disc(d), E.hecke_disc(alpha), classify_tower_from_norm(K, d, E.norm(alpha)))
    if direct != coords:
        raise FormulationMismatch(
            f"tower pair {c:#b} over {E.label}: coordinates give (m1, m2, group) = "
            f"{coords}, the direct route {direct}"
        )


def _hecke_table(F: LocalField) -> list:
    """``hecke_disc`` of each square class of F, indexed by coordinate vector."""
    return [F.coords_hecke_disc(c) for c in range(1 << F.square_class_dim)]


def _tower_pairs(K: LocalField):
    """Tower counts keyed by (m, index into ``_TAGS``), and the enumeration meta."""
    pairs: dict[tuple[int, int], int] = {}
    n_pairs = n_checks = 0
    reps = K.square_class_reps()
    m2_table = None  # every E = K(sqrt(d)) has v(2) = 2 v_K(2) and K's residue field
    for cd, m1 in enumerate(_hecke_table(K)):
        if m1 in _SKIP:
            continue
        d = reps[cd]
        E = ramified_quadratic(K, d)
        if m2_table is None:
            m2_table = _hecke_table(E)
        nb = _norm_images(K, E)
        ncls = [0] * len(m2_table)
        for c in range(1, len(ncls)):
            low = c & -c
            n = ncls[c] = ncls[c ^ low] ^ nb[low.bit_length() - 1]
            m2 = m2_table[c]
            if m2 in _SKIP:
                continue
            g = 0 if n == 0 else 1 if n == cd else 2
            key = (2 * m1 + m2, g)
            pairs[key] = pairs.get(key, 0) + 1
            n_pairs += 1
            if _sampled((cd, c)):
                _cross_check(K, d, E, c, m1, m2, _TAGS[g])
                n_checks += 1
    return pairs, {"pairs": n_pairs, "cross_checks": n_checks}


def tower_pair_totals(K: LocalField) -> dict[int, int]:
    """Number of m-towers per m (before fibre division); equals #Tow_m."""
    totals: dict[int, int] = {}
    for (m, _), n in _tower_pairs(K)[0].items():
        totals[m] = totals.get(m, 0) + n
    return totals


def tower_counts(K: LocalField):
    """Field counts per (m, g) for g in {V4, C4, D4} from tower enumeration.

    Returns (counts, meta); meta counts the ramified pairs enumerated and
    the pairs cross-checked by the direct route.
    """
    pairs, meta = _tower_pairs(K)
    tagged = {(m, _TAGS[g]): n for (m, g), n in pairs.items()}
    counts: dict[tuple[int, GroupTag], int] = {}
    for m, g in sorted(tagged, key=cell_key):
        n, fibre = tagged[(m, g)], _FIBRE[g]
        if n % fibre:
            raise NonIntegralCount(
                f"{n} towers at (m={m}, {g.value}) not divisible by fibre size {fibre}"
            )
        counts[(m, g)] = n // fibre
    return counts, meta
