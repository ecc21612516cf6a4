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

The monomial tables ``_DISC_MONOMIALS`` and ``_RESOLVENT_MONOMIALS`` are
evaluated by ``_eval_tables`` and turned into perturbation bounds by the
density oracle; ``_taylor_shift`` serves root refinement and f(Z + pi)/Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import FormulationMismatch, PrecisionExhausted
from ..params import GroupTag
from .field import LocalField
from .rings import EisensteinStep, _check_eisenstein, eq_mod

_PANAYI_DEPTH_SLACK = 64

# discriminant monomials of X^4 + p X^3 + q X^2 + r X + s as
# (integer coefficient, (exp_s, exp_r, exp_q, exp_p)) in the a0,a1,a2,a3 order
_DISC_MONOMIALS = (
    (256, (3, 0, 0, 0)),
    (-192, (2, 1, 0, 1)),
    (-128, (2, 0, 2, 0)),
    (144, (1, 2, 1, 0)),
    (-27, (0, 4, 0, 0)),
    (144, (2, 0, 1, 2)),
    (-6, (1, 2, 0, 2)),
    (-80, (1, 1, 2, 1)),
    (18, (0, 3, 1, 1)),
    (16, (1, 0, 4, 0)),
    (-4, (0, 2, 3, 0)),
    (-27, (2, 0, 0, 4)),
    (18, (1, 1, 1, 3)),
    (-4, (0, 3, 0, 3)),
    (-4, (1, 0, 3, 2)),
    (1, (0, 2, 2, 2)),
)

# resolvent cubic y^3 + r2 y^2 + r1 y + r0 (roots t1 t2 + t3 t4, ...) as tables
# r0 = -a3^2 a0 - a1^2 + 4 a2 a0, r1 = a1 a3 - 4 a0, r2 = -a2 of the same form
_RESOLVENT_MONOMIALS = (
    ((-1, (1, 0, 0, 2)), (-1, (0, 2, 0, 0)), (4, (1, 0, 1, 0))),
    ((1, (0, 1, 0, 1)), (-4, (1, 0, 0, 0))),
    ((-1, (0, 0, 1, 0)),),
)


@dataclass(frozen=True)
class EisensteinQuartic:
    """Monic quartic X^4 + a3 X^3 + a2 X^2 + a1 X + a0 with raw O_K coefficients."""

    field: LocalField
    a0: object
    a1: object
    a2: object
    a3: object

    def __post_init__(self):
        _check_eisenstein(self.field.ring, self.coeffs())

    def coeffs(self):
        return (self.a0, self.a1, self.a2, self.a3)

    @cached_property
    def disc(self):
        """The discriminant as a raw element, computed once per quartic."""
        return disc_raw(self.field, *self.coeffs())


def disc_raw(field: LocalField, a0, a1, a2, a3):
    """Discriminant of X^4 + a3 X^3 + a2 X^2 + a1 X + a0 as a raw element."""
    return _eval_tables(field.ring, (a0, a1, a2, a3), (_DISC_MONOMIALS,))[0]


def _eval_tables(R, coeffs, tables):
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


def _disc_val(K: LocalField, disc) -> int:
    """v_K(disc) of an Eisenstein quartic, checked to be certified and at most 8e+3."""
    v = K.val(disc)
    if v is None:
        raise PrecisionExhausted("discriminant vanishes to working precision")
    if v > 8 * K.e_abs + 3:
        raise AssertionError(f"Eisenstein quartic with disc valuation {v} > 8e+3")
    return v


def disc_valuation(fq: EisensteinQuartic) -> int:
    return _disc_val(fq.field, fq.disc)


def in_Tm_domain(m: int, e: int) -> bool:
    """Whether T_m is defined: m even and 4 <= m <= 6e+2 (e = v_K(2))."""
    return m % 2 == 0 and 4 <= m <= 6 * e + 2


def in_Tm(fq: EisensteinQuartic, m: int) -> bool:
    """The coefficient-valuation congruence set containing all 1-Aut quartics."""
    K = fq.field
    if not in_Tm_domain(m, K.e_abs):
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
    if not in_Tm_domain(m, K.e_abs):
        return False
    if not in_Tm(fq, m):
        return False
    if m % 3 != 0:
        return True
    # m divisible by 6: trivial automorphisms iff no unit residue u solves
    # base + [u] a2 a0^(m/12) + [u]^3 a0^k = 0 mod pi^(k+1), k = m//4.
    R = K.ring
    k = m // 4
    a0, a1, a2, a3 = fq.coeffs()
    base = a1 if m % 4 == 0 else a3
    mid = R.mul(a2, _power(R, a0, m // 12))
    return not _cubic_congruence(K)(base, mid, _power(R, a0, k), k + 1)


def _cubic_congruence(K: LocalField):
    """The test (base, mid, top, depth) -> whether base + [u] mid + [u]^3 top
    = 0 mod pi^depth for some unit residue u, [u] its Teichmueller lift."""
    R = K.ring
    units = [(R.teich(t), R.neg(R.teich(K.res.pow(t, 3)))) for t in range(1, K.q)]

    def solvable(base, mid, top, depth: int) -> bool:
        for u, neg_u3 in units:
            if eq_mod(R, R.add(base, R.mul(u, mid)), R.mul(neg_u3, top), depth):
                return True
        return False

    return solvable


def _power(R, a, n: int):
    out = R.one
    for _ in range(n):
        out = R.mul(out, a)
    return out


def stem_ring(fq: EisensteinQuartic) -> EisensteinStep:
    return EisensteinStep(fq.field.ring, list(fq.coeffs()))


def deformation_cubic(fq: EisensteinQuartic, L):
    """Coefficients (b0, b1, b2) of f(Z + pi)/Z = Z^3 + b2 Z^2 + b1 Z + b0 in the stem L:
    the Taylor shift of f by pi, whose constant term f(pi) is 0 in L."""
    f = [*(L.lift(c) for c in fq.coeffs()), L.one]
    return tuple(_taylor_shift(L, f, L.shift(L.one, 1))[1:4])


def _simple_residue_roots(R, coeffs, depth_cap, search="root refinement"):
    """Yield (p, path) once for each root in O_R of the polynomial ``coeffs``.

    Residue refinement: normalise by the minimal coefficient valuation, read
    the residue polynomial, and recurse on repeated residue roots t with
    X -> [t] + pi*X.  A simple residue root path[-1] of the normalised ``p``
    lifts uniquely (Hensel); the root is sum_i [path_i] pi^i + O(pi^len(path)).
    """
    res = R.res
    stack = [(list(coeffs), ())]
    while stack:
        poly, path = stack.pop()
        if len(path) > depth_cap:
            raise PrecisionExhausted(f"{search} exceeded its depth budget")
        vals = [R.val(c) for c in poly]
        finite = [v for v in vals if v is not None]
        if not finite:
            raise PrecisionExhausted("polynomial vanished to working precision")
        s = min(finite)
        poly = [R.shift(c, -s) for c in poly]
        rbar = [R.residue(c) if v is not None and v == s else 0 for c, v in zip(poly, vals)]
        for t in res.elements():
            if _poly_eval(res, rbar, t) != 0:
                continue
            if _poly_eval_res_deriv(res, rbar, t) != 0:
                yield poly, path + (t,)
            else:
                stack.append((_poly_shift_scale(R, poly, t), path + (t,)))


def _count_roots_in_ring(L, coeffs):
    """Number of roots in O_L of a polynomial over the stem ring L of a quartic."""
    cap = 4 * (8 * L.base.e_abs + 3) + _PANAYI_DEPTH_SLACK
    return sum(1 for _ in _simple_residue_roots(L, coeffs, cap))


def _poly_eval_res_deriv(res, coeffs, t):
    # derivative in characteristic 2: only odd-degree terms survive
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = res.mul(acc, t)
        if i % 2 == 1:
            acc = res.add(acc, coeffs[i])
    return acc


def _taylor_shift(R, poly, x):
    """Coefficients of p(x + X) from those of p(X), by synthetic division by X - x."""
    add, mul = R.add, R.mul
    c = list(poly)
    n = len(c)
    for k in range(n - 1):
        for i in range(n - 2, k - 1, -1):
            c[i] = add(c[i], mul(x, c[i + 1]))
    return c


def _poly_shift_scale(L, poly, t):
    """Coefficients of p([t] + pi*X) from those of p(X)."""
    return [L.shift(c, i) for i, c in enumerate(_taylor_shift(L, poly, L.teich(t)))]


def count_roots_in_stem(fq: EisensteinQuartic) -> int:
    """#roots of f in its stem field K[X]/(f); equals #Aut(L_f/K), one of 1, 2, 4."""
    L = stem_ring(fq)
    r = 1 + _count_roots_in_ring(L, [*deformation_cubic(fq, L), L.one])
    if r not in (1, 2, 4):
        raise FormulationMismatch(f"stem root count {r} outside {{1, 2, 4}}")
    return r


def classify_quartic(fq: EisensteinQuartic):
    """Return (m, GroupTag) for the stem field of f, cross-checked against is_one_aut."""
    K = fq.field
    m = _disc_val(K, fq.disc)
    r = count_roots_in_stem(fq)
    square_disc = K.is_square(fq.disc)
    if (r == 1) != is_one_aut(fq, m):
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
    """[r0, r1, r2, 1]: the cubic with roots t1 t2 + t3 t4 (etc.) for the roots t_i of f."""
    R = fq.field.ring
    return [*_eval_tables(R, fq.coeffs(), _RESOLVENT_MONOMIALS), R.one]


def _poly_eval(R, coeffs, x):
    """Horner evaluation over a ring or a residue field R."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = R.add(R.mul(acc, x), c)
    return acc


def _poly_deriv(R, coeffs):
    out = []
    for i in range(1, len(coeffs)):
        out.append(R.mul(R.from_int(i), coeffs[i]))
    return out


def _newton_refine(K, poly, x, want_val, max_iter=64):
    """Newton-refine a root approximation of a monic poly over O_K.

    Requires v(p(x)) > 2 v(p'(x)) on entry; refines until v(p(x)) >= want_val.
    The inverse z of the unit part of p'(x) is computed once and then carried
    along by one Newton step z <- z(2 - d z) per round; it is recomputed
    only if v(p'(x)) changes.
    """
    R = K.ring
    deriv = _poly_deriv(R, poly)
    two = R.from_int(2)
    z = z_val = None
    for _ in range(max_iter):
        px = _poly_eval(R, poly, x)
        vp = R.val(px)
        if vp is None or vp >= want_val:
            return x
        dpx = _poly_eval(R, deriv, x)
        vd = R.val(dpx)
        if vd is None or vp <= 2 * vd:
            raise PrecisionExhausted("approximation left the Newton basin")
        d = R.shift(dpx, -vd)
        if vd != z_val:
            z, z_val = R.inv_unit(d), vd
        else:
            z = R.mul(z, R.sub(two, R.mul(d, z)))
        x = R.sub(x, R.mul(R.shift(px, -vd), z))
    raise PrecisionExhausted("Newton refinement did not reach the target valuation")


def cubic_k_roots(K: LocalField, poly, want_val: int):
    """All roots in O_K of a monic cubic over O_K, refined to v(p(root)) >= want_val.

    Residue refinement locates the root discs; each simple residue root is
    Hensel-refined (in normalised coordinates, then by Newton on the
    original polynomial).
    """
    R = K.ring
    out = []
    cap = 8 * (8 * K.e_abs + 3) + _PANAYI_DEPTH_SLACK
    for p, path in _simple_residue_roots(R, poly, cap, "cubic root search"):
        # unique lift in this disc: polish in normalised coordinates, where
        # the Hensel condition holds from the simple residue root
        *digits, t = path
        x = _newton_refine(K, p, R.teich(t), max(1, want_val))
        x = R.add(K.from_digits(digits), R.shift(x, len(digits)))
        out.append(_newton_refine(K, poly, x, want_val))
    return out


def _resolvent_root_target(e: int) -> int:
    """Valuation to which ``_resolvent_split`` refines the resolvent root."""
    return 24 * e + 32


def _resolvent_split(fq: EisensteinQuartic, rescubic, window=None):
    """C4 or D4 for a quartic whose closure group is one of them.

    The resolvent cubic has a unique root w in K, the stem's quadratic
    subfield is K(sqrt(W)) with W = w^2 - 4 a0, and the closure is cyclic
    exactly when disc * W is a square.  None when ``window(w, W)`` is false.
    """
    K = fq.field
    R = K.ring
    roots = cubic_k_roots(K, rescubic, _resolvent_root_target(K.e_abs))
    if len(roots) != 1:
        raise FormulationMismatch(
            f"resolvent of a {{C4,D4}} quartic has {len(roots)} roots in K, expected 1"
        )
    w = roots[0]
    W = R.sub(R.mul(w, w), R.mul(R.from_int(4), fq.a0))
    if window is not None and not window(w, W):
        return None
    return GroupTag.C4 if K.is_square(R.mul(fq.disc, W)) else GroupTag.D4


def classify_by_invariants(fq: EisensteinQuartic):
    """(m, GroupTag) via coefficient congruences and square classes only.

    Route: the trivial-automorphism congruence test separates S4/A4 (split
    by the discriminant square class); a square discriminant otherwise
    forces V4; the remaining {C4, D4} are split by the resolvent cubic
    (see ``_resolvent_split``).
    """
    K = fq.field
    m = _disc_val(K, fq.disc)
    square_disc = K.is_square(fq.disc)
    if is_one_aut(fq, m):
        return m, (GroupTag.A4 if square_disc else GroupTag.S4)
    if square_disc:
        return m, GroupTag.V4
    return m, _resolvent_split(fq, resolvent_cubic(fq))


def classify_tower_from_norm(K: LocalField, d, alpha_norm) -> GroupTag:
    """Closure group of the tower K(sqrt(d), sqrt(alpha)) from N_{E/K}(alpha).

    V4 when the norm is a square, C4 when it is d times a square, D4 otherwise.
    """
    if K.is_square(alpha_norm):
        return GroupTag.V4
    if K.is_square(K.ring.mul(alpha_norm, d)):
        return GroupTag.C4
    return GroupTag.D4
