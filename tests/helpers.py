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
"""

from fractions import Fraction

from q2quartic.errors import DivisionByNonUnit, PrecisionExhausted
from q2quartic.padic.quartic import EisensteinQuartic, deformation_cubic, stem_ring
from q2quartic.padic.rings import EisensteinStep
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


