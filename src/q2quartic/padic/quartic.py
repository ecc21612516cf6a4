"""Eisenstein quartics over a concrete base field: discriminants, congruence
sets, root counting in the stem field, and Galois-closure classification.

The classifier needs only two invariants of f:

* m = v_K(disc f), computed from the 16-term quartic discriminant, and
* r = #roots of f in its own stem field L_f = K[X]/(f), in {1, 2, 4},

plus whether disc f is a square in K.  r = 1 splits into S4/A4 by the
square test, r = 2 is D4, and r = 4 splits into C4/V4.  Root counting uses
residue refinement: candidate roots are tracked modulo growing powers of
the stem uniformiser, branches close via the simple-root (Hensel)
certificate, and f is separable so every branch terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import FormulationMismatch, PrecisionExhausted
from ..params import GroupTag
from .field import LocalField
from .rings import EisensteinStep, eq_mod

_PANAYI_DEPTH_SLACK = 64


@dataclass(frozen=True)
class EisensteinQuartic:
    """Monic quartic X^4 + a3 X^3 + a2 X^2 + a1 X + a0 with raw O_K coefficients."""

    field: LocalField
    a0: object
    a1: object
    a2: object
    a3: object

    def __post_init__(self):
        K = self.field
        if K.val(self.a0) != 1:
            raise ValueError("constant term must have valuation exactly 1")
        for c in (self.a1, self.a2, self.a3):
            v = K.val(c)
            if v is not None and v < 1:
                raise ValueError("middle coefficients need positive valuation")

    @classmethod
    def from_ints(cls, field: LocalField, a0: int, a1: int, a2: int, a3: int):
        fi = field.from_int
        return cls(field, fi(a0), fi(a1), fi(a2), fi(a3))

    def coeffs(self):
        return (self.a0, self.a1, self.a2, self.a3)


def disc_raw(field: LocalField, a0, a1, a2, a3):
    """Discriminant of X^4 + a3 X^3 + a2 X^2 + a1 X + a0 as a raw element."""
    R = field.ring
    mul, add = R.mul, R.add

    def term(k: int, *factors):
        t = R.from_int(k)
        for x in factors:
            t = mul(t, x)
        return t

    s, r, q, p = a0, a1, a2, a3
    total = R.zero
    for t in (
        term(256, s, s, s),
        term(-192, p, r, s, s),
        term(-128, q, q, s, s),
        term(144, q, r, r, s),
        term(-27, r, r, r, r),
        term(144, p, p, q, s, s),
        term(-6, p, p, r, r, s),
        term(-80, p, q, q, r, s),
        term(18, p, q, r, r, r),
        term(16, q, q, q, q, s),
        term(-4, q, q, q, r, r),
        term(-27, p, p, p, p, s, s),
        term(18, p, p, p, q, r, s),
        term(-4, p, p, p, r, r, r),
        term(-4, p, p, q, q, q, s),
        term(1, p, p, q, q, r, r),
    ):
        total = add(total, t)
    return total


def disc_valuation(fq: EisensteinQuartic) -> int:
    K = fq.field
    v = K.val(disc_raw(K, *fq.coeffs()))
    if v is None:
        raise PrecisionExhausted("discriminant vanishes to working precision")
    if v > 8 * K.e_abs + 3:
        raise AssertionError(f"Eisenstein quartic with disc valuation {v} > 8e+3")
    return v


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


def quartic_newton_slopes(fq: EisensteinQuartic):
    K = fq.field
    a0, a1, a2, a3 = fq.coeffs()
    pts = [(0, K.val(a0)), (1, K.val(a1)), (2, K.val(a2)), (3, K.val(a3)), (4, 0)]
    return newton_slopes(pts)


def in_Tm(fq: EisensteinQuartic, m: int) -> bool:
    """The coefficient-valuation congruence set containing all 1-Aut quartics."""
    K = fq.field
    if m % 2 != 0 or not (4 <= m <= 6 * K.e_abs + 2):
        raise ValueError(f"T_m is defined for even 4 <= m <= 6e+2, got m={m}")
    v1, v2, v3 = K.val(fq.a1), K.val(fq.a2), K.val(fq.a3)
    lo2 = -(m // -6)  # ceil(m/6)
    if v2 is not None and v2 < lo2:
        return False
    if m % 4 == 0:
        if v1 != m // 4:
            return False
        return v3 is None or v3 >= m // 4
    if v3 != (m - 2) // 4:
        return False
    return v1 is None or v1 >= (m + 2) // 4


def is_one_aut(fq: EisensteinQuartic, m: int | None = None) -> bool:
    """Whether the stem field has trivial automorphism group (S4 or A4 closure)."""
    K = fq.field
    if m is None:
        m = disc_valuation(fq)
    if m % 2 != 0 or not (4 <= m <= 6 * K.e_abs + 2):
        return False
    if not in_Tm(fq, m):
        return False
    if m % 3 != 0:
        return True
    # m divisible by 6: trivial automorphisms iff no residue representative u
    # satisfies the coefficient congruence below.
    R = K.ring
    k = m // 4
    a_exp = m // 12
    a0, a1, a2, a3 = fq.coeffs()
    a0_a = _power(R, a0, a_exp)
    a0_k = _power(R, a0, k)
    base = a1 if m % 4 == 0 else a3
    mid = R.mul(a2, a0_a)
    for t in range(1, K.q):
        u = R.teich(t)
        u3 = R.teich(K.res.pow(t, 3))
        lhs = R.add(base, R.add(R.mul(u, mid), R.mul(u3, a0_k)))
        if eq_mod(R, lhs, R.zero, k + 1):
            return False
    return True


def _power(R, a, n: int):
    out = R.one
    for _ in range(n):
        out = R.mul(out, a)
    return out


def stem_ring(fq: EisensteinQuartic) -> EisensteinStep:
    return EisensteinStep(fq.field.ring, list(fq.coeffs()))


def deformation_cubic(fq: EisensteinQuartic, stem=None):
    """Coefficients (b0, b1, b2) of f(Z + pi)/Z = Z^3 + b2 Z^2 + b1 Z + b0 in the stem."""
    L = stem if stem is not None else stem_ring(fq)
    K = fq.field

    def lift(c):
        return (c,) + (K.ring.zero,) * 3

    pi = L.shift(L.one, 1)
    pi2 = L.mul(pi, pi)
    pi3 = L.mul(pi2, pi)
    a1, a2, a3 = lift(fq.a1), lift(fq.a2), lift(fq.a3)
    b2 = L.add(a3, L.shift(L.from_int(4), 1))
    b1 = L.add(L.add(a2, L.mul(L.from_int(3), L.mul(pi, a3))), L.mul(L.from_int(6), pi2))
    b0 = L.add(
        L.add(a1, L.mul(L.from_int(2), L.mul(pi, a2))),
        L.add(L.mul(L.from_int(3), L.mul(pi2, a3)), L.mul(L.from_int(4), pi3)),
    )
    return b0, b1, b2


def root_distances(fq: EisensteinQuartic, stem=None):
    """Valuations (in stem units) of the three differences root - pi, via Newton polygon."""
    L = stem if stem is not None else stem_ring(fq)
    b0, b1, b2 = deformation_cubic(fq, L)
    pts = [(0, L.val(b0)), (1, L.val(b1)), (2, L.val(b2)), (3, 0)]
    slopes = newton_slopes(pts)
    out = []
    for s, mult in slopes:
        out.extend([s] * mult)
    return out


def _count_roots_in_ring(L, coeffs, depth_cap):
    """Number of roots in O_L of the polynomial with the given coefficients.

    Residue refinement: normalise by the minimal coefficient valuation, read
    the residue polynomial, certify simple residue roots by Hensel, recurse
    on repeated ones with X -> [t] + pi*X.
    """
    res = L.res
    count = 0
    stack = [(list(coeffs), 0)]
    while stack:
        poly, depth = stack.pop()
        if depth > depth_cap:
            raise PrecisionExhausted("root refinement exceeded its depth budget")
        vals = [L.val(c) for c in poly]
        finite = [v for v in vals if v is not None]
        if not finite:
            raise PrecisionExhausted("polynomial vanished to working precision")
        s = min(finite)
        poly = [L.shift(c, -s) for c in poly]
        rbar = [L.residue(c) if v is not None and v == s else 0 for c, v in zip(poly, vals)]
        for t in res.elements():
            if _poly_eval_res(res, rbar, t) != 0:
                continue
            if _poly_eval_res_deriv(res, rbar, t) != 0:
                count += 1  # simple residue root lifts uniquely (Hensel)
                continue
            stack.append((_poly_shift_scale(L, poly, t), depth + 1))
    return count


def _poly_eval_res(res, coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = res.add(res.mul(acc, t), c)
    return acc


def _poly_eval_res_deriv(res, coeffs, t):
    # derivative in characteristic 2: only odd-degree terms survive
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = res.mul(acc, t)
        if i % 2 == 1:
            acc = res.add(acc, coeffs[i])
    return acc


def _poly_shift_scale(L, poly, t):
    """Coefficients of p([t] + pi*X) from those of p(X)."""
    tt = L.teich(t)
    work = list(poly)
    n = len(work)
    out = []
    # Taylor shift by [t]: repeated synthetic division by (X - [t])
    for k in range(n):
        for i in range(n - k - 2, -1, -1):
            work[i] = L.add(work[i], L.mul(tt, work[i + 1]))
        out.append(work[0])
        work = work[1:]
    return [L.shift(c, i) for i, c in enumerate(out)]


def count_roots_in_stem(fq: EisensteinQuartic, stem=None) -> int:
    """#roots of f in its stem field K[X]/(f); equals #Aut(L_f/K), one of 1, 2, 4."""
    L = stem if stem is not None else stem_ring(fq)
    b0, b1, b2 = deformation_cubic(fq, L)
    cubic = [b0, b1, b2, L.one]
    cap = 4 * (8 * fq.field.e_abs + 3) + _PANAYI_DEPTH_SLACK
    r = 1 + _count_roots_in_ring(L, cubic, cap)
    if r not in (1, 2, 4):
        raise FormulationMismatch(f"stem root count {r} outside {{1, 2, 4}}")
    return r


def classify_quartic(fq: EisensteinQuartic, cross_check: bool = True):
    """Return (m, GroupTag) for the stem field of f."""
    K = fq.field
    m = disc_valuation(fq)
    r = count_roots_in_stem(fq)
    square_disc = K.is_square(disc_raw(K, *fq.coeffs()))
    if cross_check and (r == 1) != is_one_aut(fq, m):
        raise FormulationMismatch(
            f"root count {r} disagrees with the 1-Aut congruence test at m={m}"
        )
    if r == 1:
        g = GroupTag.A4 if square_disc else GroupTag.S4
    elif r == 2:
        g = GroupTag.D4
    else:
        g = GroupTag.V4 if square_disc else GroupTag.C4
    return m, g


def resolvent_cubic(fq: EisensteinQuartic):
    """Cubic with roots t1 t2 + t3 t4 (etc.) for the roots t_i of f.

    For X^4 + p X^3 + q X^2 + r X + s this is
    y^3 - q y^2 + (p r - 4 s) y - (p^2 s + r^2 - 4 q s).
    """
    R = fq.field.ring
    a0, a1, a2, a3 = fq.coeffs()
    four_a0 = R.mul(R.from_int(4), a0)
    r2 = R.neg(a2)
    r1 = R.sub(R.mul(a1, a3), four_a0)
    r0 = R.neg(
        R.sub(R.add(R.mul(R.mul(a3, a3), a0), R.mul(a1, a1)), R.mul(R.from_int(4), R.mul(a2, a0)))
    )
    return [r0, r1, r2, R.one]


def _poly_eval(R, coeffs, x):
    acc = R.zero
    for c in reversed(coeffs):
        acc = R.add(R.mul(acc, x), c)
    return acc


def _poly_deriv(R, coeffs):
    out = []
    for i in range(1, len(coeffs)):
        out.append(_int_scale(R, coeffs[i], i))
    return out


def _int_scale(R, c, k):
    return R.mul(R.from_int(k), c)


def _newton_refine(K, poly, x, want_val, max_iter=64):
    """Newton-refine a root approximation of a monic poly over O_K.

    Requires v(p(x)) > 2 v(p'(x)) on entry; refines until v(p(x)) >= want_val.
    """
    R = K.ring
    deriv = _poly_deriv(R, poly)
    for _ in range(max_iter):
        px = _poly_eval(R, poly, x)
        vp = R.val(px)
        if vp is None or vp >= want_val:
            return x
        dpx = _poly_eval(R, deriv, x)
        vd = R.val(dpx)
        if vd is None or vp <= 2 * vd:
            raise PrecisionExhausted("approximation left the Newton basin")
        corr = R.mul(R.shift(px, -vd), R.inv_unit(R.shift(dpx, -vd)))
        x = R.sub(x, corr)
    raise PrecisionExhausted("Newton refinement did not reach the target valuation")


def cubic_k_roots(K: LocalField, poly, want_val: int):
    """All roots in O_K of a monic cubic over O_K, refined to v(p(root)) >= want_val.

    Residue refinement locates the root discs; each simple residue root is
    Hensel-refined (in normalised coordinates, then by Newton on the
    original polynomial).
    """
    R = K.ring
    res = K.res
    out = []
    cap = 8 * (8 * K.e_abs + 3) + 64
    stack = [(list(poly), R.zero, 0)]
    while stack:
        p, base, level = stack.pop()
        if level > cap:
            raise PrecisionExhausted("cubic root search exceeded its depth budget")
        vals = [R.val(c) for c in p]
        finite = [v for v in vals if v is not None]
        if not finite:
            raise PrecisionExhausted("cubic vanished to working precision")
        s = min(finite)
        p = [R.shift(c, -s) for c in p]
        rbar = [R.residue(c) if v is not None and v == s else 0 for c, v in zip(p, vals)]
        for t in res.elements():
            if _poly_eval_res(res, rbar, t) != 0:
                continue
            x0 = R.add(base, K.digit_elt(t, level)) if t else base
            if _poly_eval_res_deriv(res, rbar, t) != 0:
                # unique lift in this disc: polish in normalised coordinates,
                # where the Hensel condition holds from the simple residue root
                y = _newton_refine(K, p, R.teich(t), max(1, want_val))
                x = R.add(base, R.shift(y, level)) if level else y
                out.append(_newton_refine(K, poly, x, want_val))
            else:
                stack.append((_poly_shift_scale(R, p, t), x0, level + 1))
    return out


def classify_by_invariants(fq: EisensteinQuartic, m: int | None = None):
    """(m, GroupTag) via coefficient congruences and square classes only.

    Route: the trivial-automorphism congruence test separates S4/A4 (split
    by the discriminant square class); a square discriminant otherwise
    forces V4; for the remaining {C4, D4} the resolvent cubic has a unique
    root w in K, the stem's quadratic subfield is K(sqrt(w^2 - 4 a0)), and
    the closure is cyclic exactly when that field coincides with
    K(sqrt(disc)), i.e. when disc * (w^2 - 4 a0) is a square.
    """
    K = fq.field
    R = K.ring
    if m is None:
        m = disc_valuation(fq)
    disc = disc_raw(K, *fq.coeffs())
    square_disc = K.is_square(disc)
    if is_one_aut(fq, m):
        return m, (GroupTag.A4 if square_disc else GroupTag.S4)
    if square_disc:
        return m, GroupTag.V4
    roots = cubic_k_roots(K, resolvent_cubic(fq), 24 * K.e_abs + 32)
    if len(roots) != 1:
        raise FormulationMismatch(
            f"resolvent of a {{C4,D4}} quartic has {len(roots)} roots in K, expected 1"
        )
    w = roots[0]
    W = R.sub(R.mul(w, w), R.mul(R.from_int(4), fq.a0))
    g = GroupTag.C4 if K.is_square(R.mul(disc, W)) else GroupTag.D4
    return m, g


def classify_tower_from_norm(K: LocalField, d, alpha_norm) -> GroupTag:
    """Closure group of the tower K(sqrt(d), sqrt(alpha)) from N_{E/K}(alpha).

    V4 when the norm is a square, C4 when it is d times a square, D4 otherwise.
    """
    if K.is_square(alpha_norm):
        return GroupTag.V4
    if K.is_square(K.ring.mul(alpha_norm, d)):
        return GroupTag.C4
    return GroupTag.D4
