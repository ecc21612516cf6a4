from .field import LocalField, ramified_quadratic
from .quartic import EisensteinQuartic

__all__ = ["LocalField", "EisensteinQuartic", "ramified_quadratic"]
