"""Abstract base-field parameters and the Galois closure group tags.

Every closed-form count and mass depends on the base field K only through
the tuple (e, f, q, d_minus_one, minus_one_class):

* ``e``  -- absolute ramification index e(K/Q_2),
* ``f``  -- inertia degree,
* ``q``  -- residue cardinality 2^f (stored redundantly and checked),
* ``d_minus_one`` -- the discriminant valuation v_K(d_{K(sqrt(-1))/K}),
* ``minus_one_class`` -- whether -1 is a square in K, or K(sqrt(-1))/K is a
  ramified or unramified quadratic extension.

Construction runs the validator, so every FieldParams in existence
satisfies its invariants, e*f <= MAX_DEGREE among them.  The validator
enforces only the necessary invariants; it does not attempt to decide which
tuples are realised by an actual 2-adic field.  The padic module derives
the tuple from a concrete field.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParams


class MinusOneClass(Enum):
    SQUARE = "square"
    RAMIFIED = "ramified"
    UNRAMIFIED = "unramified"


class GroupTag(Enum):
    """Galois closure groups of totally ramified quartics, in fixed table order."""

    S4 = "S4"
    A4 = "A4"
    V4 = "V4"
    C4 = "C4"
    D4 = "D4"


GROUP_ORDER = tuple(GroupTag)

# The largest absolute degree e*f = [K:Q_2] built: the ring layer's slot
# headroom holds it, and a tuple's count rows, Theta(e^2 f) bits, stay small.
MAX_DEGREE = 2048


def cell_key(cell: tuple[int, GroupTag]) -> tuple[int, str]:
    """The one order of (m, group) cells: m first, then the group's name."""
    return cell[0], cell[1].value


def check_degree(e: int, f: int) -> None:
    """Raise InvalidParams unless e and f are positive integers with e*f at
    most :data:`MAX_DEGREE`."""
    if not (isinstance(e, int) and e >= 1):
        raise InvalidParams(f"e must be a positive integer, got {e!r}")
    if not (isinstance(f, int) and f >= 1):
        raise InvalidParams(f"f must be a positive integer, got {f!r}")
    if e * f > MAX_DEGREE:
        raise InvalidParams(f"e*f = {e * f} exceeds {MAX_DEGREE}, the largest degree over Q_2")


_AUT_ORDER = {
    GroupTag.S4: 1,
    GroupTag.A4: 1,
    GroupTag.D4: 2,
    GroupTag.C4: 4,
    GroupTag.V4: 4,
}


def aut_order(g: GroupTag) -> int:
    """Number of K-automorphisms of a quartic stem field with closure group g."""
    return _AUT_ORDER[g]


@dataclass(frozen=True)
class FieldParams:
    e: int
    f: int
    q: int
    d_minus_one: int
    minus_one_class: MinusOneClass

    def __post_init__(self):
        validate(self)

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "f": self.f,
            "q": self.q,
            "d_minus_one": self.d_minus_one,
            "minus_one_class": self.minus_one_class.value,
        }


def make_params(e: int, f: int, d_minus_one: int, minus_one_class: MinusOneClass) -> FieldParams:
    """Build a FieldParams with q computed from f, once e and f are checked."""
    check_degree(e, f)
    return FieldParams(e, f, 2**f, d_minus_one, minus_one_class)


def validate(params: FieldParams) -> None:
    """Raise InvalidParams naming the violated invariant, or return None."""
    e, f, q, d = params.e, params.f, params.q, params.d_minus_one
    cls = params.minus_one_class
    check_degree(e, f)
    if q != 2**f:
        raise InvalidParams(f"q must equal 2^f = {2 ** f}, got {q}")
    if not isinstance(d, int) or d < 0:
        raise InvalidParams(f"d_minus_one must be a non-negative integer, got {d!r}")
    if d % 2 != 0:
        raise InvalidParams(f"d_minus_one must be even, got {d}")
    if d > 2 * ((e + 1) // 2):
        raise InvalidParams(
            f"d_minus_one = {d} exceeds the bound 2*ceil(e/2) = {2 * ((e + 1) // 2)}"
        )
    if cls in (MinusOneClass.SQUARE, MinusOneClass.UNRAMIFIED) and d != 0:
        raise InvalidParams(f"minus_one_class {cls.value} forces d_minus_one = 0, got {d}")
    if cls is MinusOneClass.RAMIFIED and not (2 <= d <= 2 * e):
        raise InvalidParams(f"ramified minus_one_class needs 2 <= d_minus_one <= 2e, got {d}")


def valid_param_sweep(e_max: int, f_max: int):
    """Yield every valid FieldParams with e <= e_max, f <= f_max.

    Covers both d_minus_one = 0 trichotomy branches and every even
    2 <= d <= 2*ceil(e/2) for the ramified branch.
    """
    for e in range(1, e_max + 1):
        for f in range(1, f_max + 1):
            yield make_params(e, f, 0, MinusOneClass.SQUARE)
            yield make_params(e, f, 0, MinusOneClass.UNRAMIFIED)
            for d in range(2, 2 * ((e + 1) // 2) + 1, 2):
                yield make_params(e, f, d, MinusOneClass.RAMIFIED)
