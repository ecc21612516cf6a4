"""Shared test helpers."""

from q2quartic.padic.quartic import EisensteinQuartic


def quartic_from_ints(field, a0: int, a1: int, a2: int, a3: int) -> EisensteinQuartic:
    """X^4 + a3 X^3 + a2 X^2 + a1 X + a0 over ``field`` from integer coefficients."""
    fi = field.from_int
    return EisensteinQuartic(field, fi(a0), fi(a1), fi(a2), fi(a3))
