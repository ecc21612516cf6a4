"""Shared test helpers.

``TupleUnramifiedRing`` and ``TupleEisensteinStep`` are a schoolbook
reference for :mod:`q2quartic.padic.rings`: the same rings with elements
stored as nested tuples (an int for f = 1, a tuple of f ints for f >= 2, a
tuple of n base elements for an Eisenstein step) and the arithmetic done
coefficient by coefficient.  They are the oracle of the ring property
test, not a second code path of the package.

``root_distances`` reads the root distances of a quartic off the Newton
polygon of its deformation cubic; it is the reference the tests hold the
density oracle's integer-only ``_distance_polygon_max`` to.
``resolvent_bounds`` is the hand-derived reference for the resolvent
coefficients' perturbation bounds that density reads from
:mod:`q2quartic.padic._compiled`.

The published closed forms of the masses (``mass_S4`` .. ``tower_mass``
and the nine ``c4_mass_q*`` quantities) and the per-cell ``n_c4`` are the
references of :mod:`q2quartic.masses` and :func:`q2quartic.counts.n_c4_row`,
which evaluate the same formulas as one integer numerator over one integer
denominator, and as the non-zero entries of one row.

``eval_tables`` and ``bound_table`` read the quartic layer's monomial
tables (``_DISC_MONOMIALS``, ``_RESOLVENT_MONOMIALS``) directly: the first
evaluates them in a ring, the second lists their perturbation terms.  They
are the references of :mod:`q2quartic.padic._compiled`, which
``compiled_source`` writes from the same tables as straight-line code.
Run this file to regenerate that module after a table changes:

    PYTHONPATH=src python tests/helpers.py
"""

import os
import sys
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

from q2quartic.counts import ind
from q2quartic.errors import DivisionByNonUnit, PrecisionExhausted
from q2quartic.padic import quartic
from q2quartic.padic.quartic import EisensteinQuartic, deformation_cubic, stem_ring
from q2quartic.padic.rings import EisensteinStep
from q2quartic.params import FieldParams, GroupTag, MinusOneClass
from q2quartic.residue import ResidueField


def quartic_from_ints(field, a0: int, a1: int, a2: int, a3: int) -> EisensteinQuartic:
    """X^4 + a3 X^3 + a2 X^2 + a1 X + a0 over ``field`` from integer coefficients."""
    fi = field.from_int
    return EisensteinQuartic(field, fi(a0), fi(a1), fi(a2), fi(a3))


def quad_elt(E, x, y):
    """x + y*theta in a quadratic step E = K[theta]/(theta^2 + B theta + C), x, y in K."""
    R = E.ring
    theta = R.shift(R.one, 1)
    return R.add(R.lift(x), R.mul(R.lift(y), theta))


def newton_slopes(points):
    """Root valuations (slope, multiplicity) from the lower Newton polygon.

    ``points`` is a list of (i, v_i) with v_i an int or None (= +infinity);
    the first and last v must be finite.
    """
    finite = [(i, v) for i, v in points if v is not None]
    if not finite or finite[0][0] != points[0][0] or finite[-1][0] != points[-1][0]:
        raise PrecisionExhausted("Newton polygon endpoints not certified")
    hull = []
    for pt in finite:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above the segment hull[-2] -> pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y1 - y2, x2 - x1), x2 - x1))
    return out


def root_distances(fq: EisensteinQuartic):
    """Valuations (in stem units) of the three differences root - pi, via Newton polygon."""
    L = stem_ring(fq)
    b0, b1, b2 = deformation_cubic(fq, L)
    pts = [(0, L.val(b0)), (1, L.val(b1)), (2, L.val(b2)), (3, 0)]
    slopes = newton_slopes(pts)
    out = []
    for s, mult in slopes:
        out.extend([s] * mult)
    return out


def resolvent_bounds(e, cs, vh):
    """(b_r0, b_r1, b_r2): lower bounds on v(r_i(member) - r_i(rep)) for the
    resolvent coefficients r0 = -a3^2 a0 - a1^2 + 4 a2 a0, r1 = a1 a3 - 4 a0
    and r2 = -a2, at a node fixing c_i digits of a_i with v(a_i) >= vh_i.

    Term by term from the binomial expansion of each monomial; it keeps two
    terms the tables drop as dominated (2e+c2+c0 and c1+c3).
    """
    c0, c1, c2, c3 = cs
    v0, v1, v2, v3 = vh
    b_r2 = c2
    b_r1 = min(c1 + v3, c3 + v1, c1 + c3, 2 * e + c0)
    b_r0 = min(
        e + v3 + v0 + c3,
        v0 + 2 * c3,
        c0 + 2 * v3,
        e + v3 + c3 + c0,
        e + v1 + c1,
        2 * c1,
        2 * e + v0 + c2,
        2 * e + v2 + c0,
        2 * e + c2 + c0,
    )
    return b_r0, b_r1, b_r2


def unpack(ring, a):
    """The packed element a of ``ring`` in the nested-tuple layout of the reference."""
    if isinstance(ring, EisensteinStep):
        return tuple(unpack(ring.base, c) for c in ring.coeffs(a))
    return a if ring.f == 1 else ring.coeffs(a)


def pack(ring, t):
    """The inverse of ``unpack``."""
    if isinstance(ring, EisensteinStep):
        return ring.from_coeffs([pack(ring.base, c) for c in t])
    return ring.from_coeffs([t] if ring.f == 1 else t)


def reference_ring(ring):
    """The schoolbook twin of a packed ring: same f, precision and defining polynomials."""
    if isinstance(ring, EisensteinStep):
        base = reference_ring(ring.base)
        return TupleEisensteinStep(base, [unpack(ring.base, c) for c in ring.g])
    return TupleUnramifiedRing(ring.f, ring.n2)


class TupleUnramifiedRing:
    """Schoolbook O_U(f): an int for f = 1, else a tuple of f ints mod 2^n2."""

    def __init__(self, f: int, n2: int):
        self.f = f
        self.n2 = n2  # coefficients live mod 2^n2
        self.cap = n2  # pi-adic precision equals coefficient precision
        self.e_abs = 1  # v_U(2)
        self.res = ResidueField(f)
        self._mask = (1 << n2) - 1
        self._teich_cache: dict[int, object] = {}
        if f == 1:
            self.zero, self.one = 0, 1
        else:
            self.zero = (0,) * f
            self.one = (1,) + (0,) * (f - 1)
            # reduction row for x^f = -(h - x^f), h the 0/1 lift of the modulus
            self._red = tuple(
                (-((self.res.modulus >> i) & 1)) & self._mask for i in range(f)
            )

    def from_int(self, n: int):
        n &= self._mask
        if self.f == 1:
            return n
        return (n,) + (0,) * (self.f - 1)

    def add(self, a, b):
        if self.f == 1:
            return (a + b) & self._mask
        m = self._mask
        return tuple((x + y) & m for x, y in zip(a, b))

    def sub(self, a, b):
        if self.f == 1:
            return (a - b) & self._mask
        m = self._mask
        return tuple((x - y) & m for x, y in zip(a, b))

    def neg(self, a):
        if self.f == 1:
            return (-a) & self._mask
        m = self._mask
        return tuple((-x) & m for x in a)

    def mul(self, a, b):
        if self.f == 1:
            return (a * b) & self._mask
        f, m = self.f, self._mask
        prod = [0] * (2 * f - 1)
        for i in range(f):
            ai = a[i]
            if ai:
                for j in range(f):
                    prod[i + j] += ai * b[j]
        red = self._red
        for k in range(2 * f - 2, f - 1, -1):
            c = prod[k]
            if c:
                base = k - f
                for i in range(f):
                    prod[base + i] += c * red[i]
                prod[k] = 0
        return tuple(prod[i] & m for i in range(f))

    def val(self, a):
        """2-adic valuation, or None if a vanishes mod 2^n2."""
        if self.f == 1:
            if a == 0:
                return None
            return (a & -a).bit_length() - 1
        v = None
        for x in a:
            if x:
                w = (x & -x).bit_length() - 1
                if v is None or w < v:
                    v = w
        return v

    def residue(self, a) -> int:
        if self.f == 1:
            return a & 1
        r = 0
        for i, x in enumerate(a):
            r |= (x & 1) << i
        return r

    def teich(self, t: int):
        """Teichmueller lift of the residue t: the unique lift with x^q = x."""
        cached = self._teich_cache.get(t)
        if cached is not None:
            return cached
        if self.f == 1:
            x = t & 1  # 0 and 1 are their own lifts
        else:
            x = tuple((t >> i) & 1 for i in range(self.f))
            for _ in range(self.n2):
                y = x
                for _ in range(self.f):
                    y = self.mul(y, y)
                if y == x:
                    break
                x = y
        self._teich_cache[t] = x
        return x

    def shift(self, a, k: int):
        """a * 2^k; for k < 0 requires v(a) >= -k (exact division)."""
        if k == 0:
            return a
        m = self._mask
        if self.f == 1:
            if k > 0:
                return (a << k) & m
            if a & ((1 << -k) - 1):
                raise DivisionByNonUnit(f"2^{-k} does not divide element")
            return a >> -k
        if k > 0:
            return tuple((x << k) & m for x in a)
        low = (1 << -k) - 1
        if any(x & low for x in a):
            raise DivisionByNonUnit(f"2^{-k} does not divide element")
        return tuple(x >> -k for x in a)

    def inv_unit(self, a):
        r = self.residue(a)
        if r == 0:
            raise DivisionByNonUnit("inverse of a non-unit")
        b = self.teich(self.res.inv(r))
        two = self.from_int(2)
        # Newton: correct digits double each round
        rounds = max(1, (self.n2 - 1).bit_length() + 1)
        for _ in range(rounds):
            b = self.mul(b, self.sub(two, self.mul(a, b)))
        return b

    def __repr__(self):
        return f"TupleUnramifiedRing(f={self.f}, n2={self.n2})"


class TupleEisensteinStep:
    """Schoolbook O_B[t]/(g): a tuple of deg(g) base elements."""

    def __init__(self, base, lower_coeffs):
        self.base = base
        self.g = tuple(lower_coeffs)  # g_0 .. g_{n-1}
        self.n = len(self.g)
        if self.n < 1:
            raise ValueError("defining polynomial must have positive degree")
        self.f = base.f
        self.res = base.res
        self.e_abs = self.n * base.e_abs
        self.cap = self.n * base.cap
        self.zero = (base.zero,) * self.n
        self.one = (base.one,) + (base.zero,) * (self.n - 1)
        self._neg_g = tuple(base.neg(c) for c in self.g)
        # 1 / (g_0 / 2-part): used when dividing by the uniformiser
        self._inv_unit_of_neg_g0_shifted = base.inv_unit(base.shift(base.neg(self.g[0]), -1))

    def from_int(self, n: int):
        return (self.base.from_int(n),) + (self.base.zero,) * (self.n - 1)

    def add(self, a, b):
        ba = self.base.add
        return tuple(ba(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        bs = self.base.sub
        return tuple(bs(x, y) for x, y in zip(a, b))

    def neg(self, a):
        bn = self.base.neg
        return tuple(bn(x) for x in a)

    def mul(self, a, b):
        base, n = self.base, self.n
        zero = base.zero
        prod = [zero] * (2 * n - 1)
        for i in range(n):
            ai = a[i]
            if ai != zero:
                for j in range(n):
                    bj = b[j]
                    if bj != zero:
                        prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
        ng = self._neg_g
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if c != zero:
                off = k - n
                for i in range(n):
                    prod[off + i] = base.add(prod[off + i], base.mul(c, ng[i]))
                prod[k] = zero
        return tuple(prod[:n])

    def val(self, a):
        n, bval = self.n, self.base.val
        v = None
        for i in range(n):
            w = bval(a[i])
            if w is not None:
                cand = n * w + i
                if v is None or cand < v:
                    v = cand
        return v

    def residue(self, a) -> int:
        return self.base.residue(a[0])

    def teich(self, t: int):
        return (self.base.teich(t),) + (self.base.zero,) * (self.n - 1)

    def _mul_by_t(self, a):
        base, n = self.base, self.n
        top = a[n - 1]
        out = [base.zero] * n
        if top != base.zero:
            ng = self._neg_g
            out[0] = base.mul(top, ng[0])
            for i in range(1, n):
                out[i] = base.add(a[i - 1], base.mul(top, ng[i]))
        else:
            for i in range(1, n):
                out[i] = a[i - 1]
        return tuple(out)

    def _div_by_t(self, a):
        # solve x * t = a coefficientwise; needs v(a) >= 1, i.e. v_B(a_0) >= 1
        base, n = self.base, self.n
        a0 = a[0]
        v0 = base.val(a0)
        if v0 is not None and v0 < 1:
            raise DivisionByNonUnit("element not divisible by the uniformiser")
        x_top = base.mul(base.shift(a0, -1), self._inv_unit_of_neg_g0_shifted)
        out = [base.zero] * n
        out[n - 1] = x_top
        g = self.g
        for j in range(1, n):
            out[j - 1] = base.add(a[j], base.mul(x_top, g[j]))
        return tuple(out)

    def shift(self, a, k: int):
        if k > 0:
            for _ in range(k):
                a = self._mul_by_t(a)
            return a
        for _ in range(-k):
            a = self._div_by_t(a)
        return a

    def inv_unit(self, a):
        r = self.residue(a)
        if r == 0:
            raise DivisionByNonUnit("inverse of a non-unit")
        b = self.teich(self.res.inv(r))
        two = self.from_int(2)
        rounds = max(1, (self.cap - 1).bit_length() + 1)
        for _ in range(rounds):
            b = self.mul(b, self.sub(two, self.mul(a, b)))
        return b

    def __repr__(self):
        return f"TupleEisensteinStep(n={self.n}, base={self.base!r})"


# -- the published closed forms ------------------------------------------------


def _qp(q: int, n: int) -> Fraction:
    """q**n for an integer n of either sign, as an exact Fraction."""
    return Fraction(q) ** n


def mass_S4(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if p.f % 2 == 0:
        return Fraction(0)
    return Fraction(q**3 + 1, q**3 + q**2 + q + 1) * (_qp(q, -3) - _qp(q, -4 * e - 3))


def mass_A4(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if p.f % 2 == 0:
        return (
            Fraction(1, 3)
            * (q - 1)
            * Fraction(q ** (4 * e) - 1, q**4 - 1)
            * _qp(q, -4 * e - 3)
            * (3 * q**3 + q**2 + q + 3)
        )
    return Fraction(1, 3) * Fraction(1, q**2 + 1) * (_qp(q, -2) - _qp(q, -4 * e - 2))


def mass_V4(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return Fraction(q - 1, 6) * (
        _qp(q, -4 * e - 3) * Fraction(q ** (4 * e) - 1, q**4 - 1) * (3 * q**3 + q**2 + q + 3)
        - 3 * _qp(q, -3 * e - 3) * Fraction(q ** (3 * e) - 1, q**3 - 1) * (q**2 + 1)
    )


# The nine quantities whose sum is the C4 mass; for Q_2 only the ninth is nonzero.

def c4_mass_q1(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return Fraction(1, 2) * Fraction(q - 1, q**7 - 1) * (1 - _qp(q, -7 * (e // 2)))


def c4_mass_q2(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return Fraction(1, 2) * _qp(q, -3 * e - 3) * (1 - _qp(q, -(e // 2)))


def c4_mass_q3(p: FieldParams) -> Fraction:
    q, e, d = p.q, p.e, p.d_minus_one
    if not d < e:
        return Fraction(0)
    return Fraction(q - 1, q**5 - 1) * (
        _qp(q, -5 * (e // 2) - e - 1) - _qp(q, (5 * d) // 2 - 6 * e - 1)
    )


def c4_mass_q4(p: FieldParams) -> Fraction:
    q, e, d = p.q, p.e, p.d_minus_one
    if d < 2:
        return Fraction(0)
    return Fraction(1, 2) * _qp(q, -6 * e + (5 * d) // 2 - 6) * (q - 2)


def c4_mass_q5(p: FieldParams) -> Fraction:
    q, e, d = p.q, p.e, p.d_minus_one
    if d < 4:
        return Fraction(0)
    return (
        Fraction(1, 2)
        * Fraction(q - 1, q**5 - 1)
        * (_qp(q, (5 * d) // 2 - 6 * e - 6) - _qp(q, -6 * e - 1))
    )


def c4_mass_q6(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if e < 2:
        return Fraction(0)
    h = e // 2
    inner = (
        Fraction(q, q**7 - 1) * (_qp(q, 7 * h - 7) - 1) * (q**6 + q**4 + q**3 + q + 1)
        + 1
        + ind(e % 2 == 1) * (_qp(q, -2) + _qp(q, -3))
    )
    return Fraction(1, 2) * (q - 1) * _qp(q, -7 * h - 1) * inner


def c4_mass_q7(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if e < 2:
        return Fraction(0)
    return (
        -Fraction(1, 2)
        * Fraction((q - 1) * (q + 1), q**3 - 1)
        * (_qp(q, -7) - _qp(q, -3 * e - 1))
    )


def c4_mass_q8(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return -Fraction(1, 2) * _qp(q, -3 * e - 2) * (1 - _qp(q, -(e // 2)))


def c4_mass_q9(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    if p.minus_one_class is MinusOneClass.SQUARE:
        return _qp(q, -6 * e - 3)
    if p.minus_one_class is MinusOneClass.RAMIFIED:
        return Fraction(1, 2) * _qp(q, -6 * e - 3)
    return Fraction(0)


C4_MASS_QUANTITIES = (
    c4_mass_q1,
    c4_mass_q2,
    c4_mass_q3,
    c4_mass_q4,
    c4_mass_q5,
    c4_mass_q6,
    c4_mass_q7,
    c4_mass_q8,
    c4_mass_q9,
)


def tower_mass(p: FieldParams) -> Fraction:
    q, e = p.q, p.e
    return Fraction(1, q**2 + q + 1) * (_qp(q, -3 * e - 3) + _qp(q, -3 * e - 1) + _qp(q, -2))


def published_masses(p: FieldParams) -> dict:
    """The five masses by group from the published forms; D4 is tower - C4 - 3 V4."""
    v4 = mass_V4(p)
    c4 = sum((fn(p) for fn in C4_MASS_QUANTITIES), Fraction(0))
    return {
        GroupTag.S4: mass_S4(p),
        GroupTag.A4: mass_A4(p),
        GroupTag.V4: v4,
        GroupTag.C4: c4,
        GroupTag.D4: tower_mass(p) - c4 - 3 * v4,
    }


def n_c4(p: FieldParams, m1: int, m2: int) -> int:
    """N_C4(m1, m2), one cell at a time."""
    q, e = p.q, p.e
    if m1 == 2 * e + 1 or (m1 % 2 == 0 and e < m1 <= 2 * e):
        return 2 * q**e if m2 == m1 + 2 * e else 0
    if m1 % 2 != 0 or not (2 <= m1 <= e):
        return 0
    if m2 == 3 * m1 - 2:
        return q ** (m1 - 1)
    if m2 % 2 == 0 and 3 * m1 <= m2 <= 4 * e - m1:
        return q ** ((m1 + m2) // 4) - q ** ((m1 + m2 - 2) // 4)
    if m2 == 4 * e - m1 + 2:
        return q**e
    return 0


# -- the quartic layer's monomial tables and their compiled form -------------

COMPILED_PATH = os.path.join(os.path.dirname(quartic.__file__), "_compiled.py")
REGENERATE = "PYTHONPATH=src python tests/helpers.py"

# (function name, table) of each bound function of the compiled module
BOUND_TABLES = (
    ("disc_bound", quartic._DISC_MONOMIALS),
    *zip(("r0_bound", "r1_bound", "r2_bound"), quartic._RESOLVENT_MONOMIALS),
)


def eval_tables(R, coeffs, tables):
    """The value at coeffs = (a0, a1, a2, a3) of each polynomial in ``tables``.

    A table is a tuple of monomials (k, exps), k * prod a_i^exps_i.  The
    powers a_i^n are grown on demand and shared by every table of the call.
    """
    mul = R.mul
    powers = [[R.one, a] for a in coeffs]  # powers[i][n] = a_i^n
    out = []
    for table in tables:
        total = R.zero
        for k, exps in table:
            t = None if abs(k) == 1 else R.from_int(abs(k))
            for row, n in zip(powers, exps):
                if n:
                    while len(row) <= n:
                        row.append(mul(row[-1], row[1]))
                    t = row[n] if t is None else mul(t, row[n])
            total = R.sub(total, t) if k < 0 else R.add(total, t)
        out.append(total)
    return out


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


@cache
def bound_table(monomials):
    """Perturbation terms of a monomial table of the quartic layer under coefficient changes.

    For each monomial k * prod a_j^alpha_j and each nonzero beta <= alpha the
    binomial term k * prod C(alpha_j, beta_j) * a^(alpha-beta) * delta^beta
    has valuation >= e*v2(k*prod C) + sum_j ((alpha_j-beta_j) vhat_j + beta_j c_j).
    Entries dominated for every admissible (vhat, c) are discarded.  The
    table holds v2(k*prod C) without the factor e, which scales every
    constant alike and so keeps the same entries for every e >= 1.
    """
    raw = []
    for k, exps in monomials:
        for beta in product(*(range(a + 1) for a in exps)):
            if not any(beta):
                continue
            c = abs(k)
            for a, b in zip(exps, beta):
                c *= comb(a, b)
            amb = tuple(a - b for a, b in zip(exps, beta))
            raw.append((_v2(c), amb, beta))

    def dominates(other, cand):
        """Whether other's term is at most cand's for every vhat <= c."""
        return other != cand and other[0] <= cand[0] and all(
            oa + ob <= ca + cb and ob <= cb
            for oa, ob, ca, cb in zip(other[1], other[2], cand[1], cand[2])
        )

    return tuple(cand for cand in raw if not any(dominates(o, cand) for o in raw))


def table_bound(monomials, cs, vh, e):
    """Least valuation of a perturbation term of ``monomials`` at a node fixing
    c_i digits of a_i with v(a_i) >= vh_i, by a scan of ``bound_table``."""
    return min(
        const * e + sum(a * v for a, v in zip(amb, vh)) + sum(b * c for b, c in zip(beta, cs))
        for const, amb, beta in bound_table(monomials)
    )


_COMPILED_DOC = f'''"""Straight-line code for the quartic layer's monomial tables.

Generated by ``tests/helpers.py`` from ``_DISC_MONOMIALS`` and
``_RESOLVENT_MONOMIALS`` in :mod:`q2quartic.padic.quartic`; do not edit.
After a table changes, regenerate it from the root of a checkout with

    {REGENERATE}

``disc`` and ``resolvent`` evaluate the tables in a ring R, each power
a_i^n computed once and the monomials sharing a coefficient k summed
before they are multiplied by it.  The bound functions take a density
node fixing c_i digits of a_i with v(a_i) >= vh_i, and e = v_K(2); each is
the least valuation of a perturbation term of its table: for a monomial
k * prod a_j^alpha_j and 0 < beta <= alpha, the binomial term
k * prod C(alpha_j, beta_j) a^(alpha-beta) delta^beta has valuation at
least e v2(k prod C) + sum_j ((alpha_j - beta_j) vh_j + beta_j c_j).  Terms
that another term bounds for every vh <= c are left out.
"""'''


def _power(i, n):
    return f"a{i}" if n == 1 else f"a{i}_{n}"


def _monomial(exps):
    factors = [_power(i, n) for i, n in enumerate(exps) if n]
    expr = factors[0]
    for f in factors[1:]:
        expr = f"mul({expr}, {f})"
    return expr


def _ring_function(name, tables, outs, doc):
    """Source of ``name(R, a0, a1, a2, a3)``, returning the tables' values as ``outs``."""
    body = []
    for i in range(4):
        for n in range(2, max(exps[i] for t in tables for _, exps in t) + 1):
            body.append(f"{_power(i, n)} = mul({_power(i, n - 1)}, a{i})")
    for out, table in zip(outs, tables):
        groups: dict = {}  # k -> monomials with that coefficient, positive k first
        for k, exps in sorted(table, key=lambda m: m[0] < 0):
            groups.setdefault(k, []).append(_monomial(exps))
        first = True
        for k, monomials in groups.items():
            term = monomials[0]
            if len(monomials) > 1:
                body.append(f"t = add({term}, {monomials[1]})")
                body.extend(f"t = add(t, {m})" for m in monomials[2:])
                term = "t"
            if abs(k) != 1:
                term = f"mul(c({abs(k)}), {term})"
            if first:
                body.append(f"{out} = {term}" if k > 0 else f"{out} = neg({term})")
            else:
                body.append(f"{out} = {'add' if k > 0 else 'sub'}({out}, {term})")
            first = False
    code = "\n".join(body)
    ops = [op for op in ("mul", "add", "sub", "neg") if f"{op}(" in code]
    head = [f"{', '.join(ops)} = {', '.join(f'R.{op}' for op in ops)}"]
    if "c(" in code:
        head.append("c = R.from_int")
    return [
        f"def {name}(R, a0, a1, a2, a3):",
        f'    """{doc}"""',
        *(f"    {line}" for line in head + body),
        f"    return {', '.join(outs)}",
    ]


def _bound_term(const, amb, beta):
    parts = [] if not const else ["e" if const == 1 else f"{const} * e"]
    for letter, exps in (("v", amb), ("c", beta)):
        parts += [f"{letter}{j}" if n == 1 else f"{n} * {letter}{j}" for j, n in enumerate(exps) if n]
    return " + ".join(parts)


def _bound_function(name, monomials):
    terms = [_bound_term(*entry) for entry in bound_table(monomials)]
    what = "the discriminant" if name == "disc_bound" else f"the resolvent's {name[:2]}"
    lines = [
        f"def {name}(cs, vh, e):",
        f'    """Least valuation of a perturbation term of {what} at the node."""',
        "    c0, c1, c2, c3 = cs",
        "    v0, v1, v2, v3 = vh",
    ]
    if len(terms) == 1:
        return [*lines, f"    return {terms[0]}"]
    return [*lines, "    return min(", *(f"        {t}," for t in terms), "    )"]


def compiled_source() -> str:
    """The source of :mod:`q2quartic.padic._compiled`, written from the monomial tables."""
    functions = [
        _ring_function(
            "disc", (quartic._DISC_MONOMIALS,), ("d",),
            "Discriminant of X^4 + a3 X^3 + a2 X^2 + a1 X + a0.",
        ),
        _ring_function(
            "resolvent", quartic._RESOLVENT_MONOMIALS, ("r0", "r1", "r2"),
            "(r0, r1, r2) of the resolvent cubic y^3 + r2 y^2 + r1 y + r0.",
        ),
        *(_bound_function(name, table) for name, table in BOUND_TABLES),
    ]
    return "\n\n\n".join([_COMPILED_DOC, *("\n".join(f) for f in functions)]) + "\n"


if __name__ == "__main__":
    with open(COMPILED_PATH, "wb") as fh:
        fh.write(compiled_source().encode())
    print(f"wrote {COMPILED_PATH}", file=sys.stderr)
