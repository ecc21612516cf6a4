"""Eisenstein quartics over a concrete base field: discriminants, congruence
sets, root counting in the stem field, and Galois-closure classification.

The classifier needs only two invariants of f:

* m = v_K(disc f), computed from the 16-term quartic discriminant, and
* r = #roots of f in its own stem field L_f = K[X]/(f), in {1, 2, 4},

plus whether disc f is a square in K.  r = 1 splits into S4/A4 by the
square test, r = 2 is D4, and r = 4 splits into C4/V4.  Root counting uses
residue refinement: candidate roots are tracked modulo growing powers of
the stem uniformiser, branches close via the simple-root (Hensel)
certificate, and f is separable so every branch terminates.  A branch's
polynomial p([t] + pi X) is kept as the Taylor shift p([t] + X), and the
factor pi^i of its X^i is paid in the same ``shift`` that normalises the
branch: one shift per coefficient and node.

The monomial tables ``_DISC_MONOMIALS`` and ``_RESOLVENT_MONOMIALS`` are
the single source of the discriminant and the resolvent cubic: the
generated module :mod:`._compiled` holds them as straight-line code, both
their values in a ring and the perturbation bounds the density oracle
reads at each node.  ``resolvent_cubic`` reads the resolvent's values;
``disc_raw``, the one discriminant evaluation, reads disc as a polynomial
in a3 (``disc_by_a3``), keeps the polynomials of the last four prefixes
(a0, a1, a2) and evaluates one at a3 by Horner.  After a table changes,
regenerate that module with ``tests/helpers.py``.
``_taylor_shift`` serves root refinement and f(Z + pi)/Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import inf

from ..errors import FormulationMismatch, InvalidParams, PrecisionExhausted
from ..params import GroupTag
from . import _compiled
from .field import LocalField, _certified_val
from .rings import EisensteinStep, _check_eisenstein, leading_residue

_PANAYI_DEPTH_SLACK = 64

_NEWTON_STEPS = 64  # ``_newton`` gives up with PrecisionExhausted after this many

_INF = 10**9  # an infinite valuation where valuations are compared as ints

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

    @cached_property
    def disc_unit(self):
        """disc / pi^v(disc), the unit part of the discriminant, computed once."""
        return self.field.ring.shift(self.disc, -_disc_val(self.field, self.disc))


# disc as a polynomial in a3 for the last four prefixes (ring, a0, a1, a2):
# measure_set runs a3 innermost, and a class's own prefix outlives the
# three that its stability check bumps
_disc_by_a3 = lru_cache(maxsize=4)(_compiled.disc_by_a3)


def disc_raw(field: LocalField, a0, a1, a2, a3):
    """Discriminant of X^4 + a3 X^3 + a2 X^2 + a1 X + a0 as a raw element:
    the polynomial in a3 of the prefix (a0, a1, a2), read at a3 by Horner."""
    R = field.ring
    mul, add = R.mul, R.add
    d0, d1, d2, d3, d4 = _disc_by_a3(R, a0, a1, a2)
    return add(mul(add(mul(add(mul(add(mul(d4, a3), d3), a3), d2), a3), d1), a3), d0)


def _disc_val(K: LocalField, disc) -> int:
    """v_K(disc) of an Eisenstein quartic, checked to be certified and at most 8e+3."""
    v = _certified_val(K, disc, "discriminant")
    if v > 8 * K.e_abs + 3:
        raise AssertionError(f"Eisenstein quartic with disc valuation {v} > 8e+3")
    return v


def disc_valuation(fq: EisensteinQuartic) -> int:
    return _disc_val(fq.field, fq.disc)


def in_Tm_domain(m: int, e: int) -> bool:
    """Whether T_m is defined: m even and 4 <= m <= 6e+2 (e = v_K(2))."""
    return m % 2 == 0 and 4 <= m <= 6 * e + 2


def t_m_pattern(m: int, e: int, v1, v2, v3) -> bool:
    """Whether v(a1), v(a2), v(a3), ``_INF`` when infinite, fit the T_m
    pattern: v(a2) >= ceil(m/6), and v(a1) = m/4 <= v(a3) when 4 | m,
    v(a3) = (m-2)/4 < v(a1) otherwise.  False outside ``in_Tm_domain``."""
    if not in_Tm_domain(m, e) or v2 < -(m // -6):
        return False
    if m % 4 == 0:
        return v1 == m // 4 and v3 >= m // 4
    return v3 == (m - 2) // 4 and v1 >= (m + 2) // 4


def check_Tm_domain(m: int, e: int):
    """InvalidParams unless ``in_Tm_domain(m, e)``."""
    if not in_Tm_domain(m, e):
        raise InvalidParams(f"T_m is defined for even 4 <= m <= 6e+2, got m={m}")


def in_Tm(fq: EisensteinQuartic, m: int) -> bool:
    """The coefficient-valuation congruence set containing all 1-Aut quartics."""
    K = fq.field
    check_Tm_domain(m, K.e_abs)
    v1, v2, v3 = K.val(fq.a1), K.val(fq.a2), K.val(fq.a3)
    return t_m_pattern(
        m,
        K.e_abs,
        _INF if v1 is None else v1,
        _INF if v2 is None else v2,
        _INF if v3 is None else v3,
    )


def is_one_aut(fq: EisensteinQuartic, m: int) -> bool:
    """Whether the stem field, with v(disc) = m, has trivial automorphism
    group (S4 or A4 closure): f lies in T_m and, when 6 | m, no unit
    residue u solves base + [u] a2 a0^(m/12) + [u]^3 a0^k = 0 mod pi^(k+1),
    k = m//4, base = a1 (4 | m) or a3.  That is, base's leading digit at
    pi^k is not among the ``cubic_leading_digits`` of x = a2 for x0 = a0,
    a = m//12 and level k: exact as T_m gives v(base) = k and
    v(a2) + m//12 >= ceil(m/6) + floor(m/12) = k."""
    K = fq.field
    if not in_Tm_domain(m, K.e_abs) or not in_Tm(fq, m):
        return False
    if m % 3 != 0:
        return True
    k = m // 4
    base = fq.a1 if m % 4 == 0 else fq.a3
    (digits,) = cubic_leading_digits(K, m // 12, k)(fq.a0, [fq.a2])
    return leading_residue(K.ring, base, k) not in digits


def cubic_leading_digits(K: LocalField, a: int, level: int):
    """The map (x0, xs) -> [D(x) for x in xs], D(x) the leading digits at
    pi^level of x [u] x0^a + [u]^3 x0^level over the unit residues u, [u]
    the Teichmueller lift, each a frozenset.

    D(x) is computed in the residue field F_q.  With alpha the leading digit
    of x x0^a and beta that of x0^level, both at pi^level, D(x) is
    {u alpha + u^3 beta : u in F_q^x}: the residue map is additive and
    multiplicative on the elements of valuation level or more.  Each x costs
    one ring ``mul`` and one ``leading_residue``; the powers of x0 and beta
    are computed once per call, and the set for each alpha once.

    Every x x0^a must have valuation level or more.  An x1 of valuation level
    solves x1 + [u] x x0^a + [u]^3 x0^level = 0 mod pi^(level+1) for some u
    exactly when its leading digit lies in D(x): in characteristic 2 minus
    a sum has the sum's leading digit.  0 in D(x) stands for the sums of
    larger valuation.  PrecisionExhausted when pi^(level+1) is beyond the
    ring's cap.
    """
    R, res = K.ring, K.res
    if level >= R.cap:
        raise PrecisionExhausted(f"congruence mod pi^{level + 1} beyond cap {R.cap}")
    cubes = [(u, res.pow(u, 3)) for u in range(1, K.q)]
    mul, fmul = R.mul, res.mul

    def digit_sets(x0, xs):
        x0_a = _power(R, x0, a)
        beta = leading_residue(R, _power(R, x0, level), level)
        units = [(u, fmul(u3, beta)) for u, u3 in cubes]
        by_alpha = {}
        out = []
        for x in xs:
            alpha = leading_residue(R, mul(x, x0_a), level)
            digits = by_alpha.get(alpha)
            if digits is None:  # F_q adds by XOR
                digits = by_alpha[alpha] = frozenset(fmul(u, alpha) ^ ub for u, ub in units)
            out.append(digits)
        return out

    return digit_sets


def _power(R, a, n: int):
    if n == 0:
        return R.one
    out = a
    for _ in range(n - 1):
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

    A child is pushed as the unscaled Taylor shift p([t] + X) with the scale
    d = 1: its coefficient c_i stands for c_i pi^i, of valuation v(c_i) + i,
    and the polynomial has vanished when every such valuation reaches the
    ring's cap.  The normalisation then pays pi^(d*i - s) in one ``shift``
    per coefficient (the root has d = 0).
    """
    res, cap = R.res, R.cap
    stack = [(list(coeffs), (), 0)]
    while stack:
        poly, path, d = stack.pop()
        if len(path) > depth_cap:
            raise PrecisionExhausted(f"{search} exceeded its depth budget")
        vals = [None if v is None else v + d * i for i, v in enumerate(map(R.val, poly))]
        s = min((v for v in vals if v is not None), default=cap)
        if s >= cap:
            raise PrecisionExhausted("polynomial vanished to working precision")
        poly = [R.shift(c, d * i - s) for i, c in enumerate(poly)]
        rbar = [R.residue(c) if v == s else 0 for c, v in zip(poly, vals)]
        for t in res.elements():
            if _poly_eval(res, rbar, t) != 0:
                continue
            if _poly_eval_res_deriv(res, rbar, t) != 0:
                yield poly, path + (t,)
            else:
                stack.append((_taylor_shift(R, poly, R.teich(t)), path + (t,), 1))


def _ring_roots(L, coeffs):
    """``_simple_residue_roots`` of a polynomial over the stem ring L of a quartic."""
    return _simple_residue_roots(L, coeffs, 4 * (8 * L.base.e_abs + 3) + _PANAYI_DEPTH_SLACK)


def _count_roots_in_ring(L, coeffs):
    """Number of roots in O_L of a polynomial over the stem ring L of a quartic."""
    return sum(1 for _ in _ring_roots(L, coeffs))


def _poly_eval_res_deriv(res, coeffs, t):
    # derivative in characteristic 2: only odd-degree terms survive
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = res.mul(acc, t)
        if i % 2 == 1:
            acc = res.add(acc, coeffs[i])
    return acc


def _taylor_shift(R, poly, x):
    """Coefficients of p(x + X) from those of p(X), by synthetic division by X - x.

    0 and 1 are the ints 0 and 1 in every ring: x = 0 leaves p as it is and
    x = 1 needs additions only.
    """
    c = list(poly)
    if x == 0:
        return c
    add, mul, one = R.add, R.mul, x == 1
    n = len(c)
    for k in range(n - 1):
        for i in range(n - 2, k - 1, -1):
            c[i] = add(c[i], c[i + 1] if one else mul(x, c[i + 1]))
    return c


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
    return [*_compiled.resolvent(R, *fq.coeffs()), R.one]


def _poly_eval(R, coeffs, x):
    """Horner evaluation over a ring or a residue field R, where 1 is the int 1:
    a running value 1 (the lead of a monic polynomial) is not multiplied by x."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = R.add(x if acc == 1 else R.mul(acc, x), c)
    return acc


def _poly_deriv(R, coeffs):
    """Coefficients of p', with no multiplication by a factor 1: the linear
    coefficient is copied and a coefficient 1 gives the int i itself."""
    out = [coeffs[1]]
    for i in range(2, len(coeffs)):
        c = coeffs[i]
        out.append(R.from_int(i) if c == 1 else R.mul(R.from_int(i), c))
    return out


def _newton(K, poly, deriv, x):
    """Yield (x, v(p(x)), v(p'(x))) for x and for each Newton step from it, for
    a monic poly over O_K with derivative ``deriv``; v(p(x)) is None once
    p(x) vanishes to working precision, and the walk ends there.

    A step needs v(p(x)) > 2 v(p'(x)) (x in the Newton basin), and stays in
    the basin.  The inverse z of the unit part of p'(x) is computed once and
    then carried along by one Newton step z <- z(2 - d z) per round; it is
    recomputed only if v(p'(x)) changes.
    """
    R = K.ring
    two = R.from_int(2)
    z = z_val = None
    for _ in range(_NEWTON_STEPS):
        px = _poly_eval(R, poly, x)
        dpx = _poly_eval(R, deriv, x)
        vp, vd = R.val(px), R.val(dpx)
        yield x, vp, vd
        if vp is None:
            return
        if vd is None or vp <= 2 * vd:
            raise PrecisionExhausted("approximation left the Newton basin")
        d = R.shift(dpx, -vd)
        if vd != z_val:
            z, z_val = R.inv_unit(d), vd
        else:
            z = R.mul(z, R.sub(two, R.mul(d, z)))
        x = R.sub(x, R.mul(R.shift(px, -vd), z))
    raise PrecisionExhausted("Newton refinement did not reach the target valuation")


def _newton_refine(K, poly, deriv, x, want_val):
    """The first item (x, v(p(x)), v(p'(x))) of ``_newton`` with v(p(x)) >= want_val."""
    for x, vp, vd in _newton(K, poly, deriv, x):
        if vp is None or vp >= want_val:
            return x, vp, vd


def cubic_k_roots(K: LocalField, poly, want_val: int):
    """All roots in O_K of a monic cubic over O_K, refined to v(p(root)) >= want_val.

    Residue refinement locates the root discs; each simple residue root is
    Hensel-refined (in normalised coordinates, then by Newton on the
    original polynomial).
    """
    R = K.ring
    out = []
    cap = 8 * (8 * K.e_abs + 3) + _PANAYI_DEPTH_SLACK
    deriv = _poly_deriv(R, poly)
    for p, path in _simple_residue_roots(R, poly, cap, "cubic root search"):
        # unique lift in this disc: polish in normalised coordinates, where
        # the Hensel condition holds from the simple residue root
        *digits, t = path
        x, _, _ = _newton_refine(K, p, _poly_deriv(R, p), R.teich(t), max(1, want_val))
        x = R.add(K.from_digits(digits), R.shift(x, len(digits)))
        out.append(_newton_refine(K, poly, deriv, x, want_val)[0])
    return out


def _root_from_hint(K: LocalField, poly, deriv, hint):
    """The Newton walk (``_newton``) of the monic ``poly`` from a start near
    ``hint`` in a Newton basin, or None when there is no such start.

    The start is h = ``hint`` when v(p(h)) > 2 v(p'(h)).  Otherwise one
    residue step tries h + [t] pi^j, j = v(p(h)) - v(p'(h)) >= 1, for
    t = 1 .. q-1, and starts from the first candidate that meets the same
    condition.  The walk's first item is the start, evaluated once.
    """
    R = K.ring

    def walk(x):
        steps = _newton(K, poly, deriv, x)
        first = next(steps)
        _, vp, vd = first
        return chain((first,), steps), vp, vd

    def in_basin(vp, vd):
        return vd is not None and (vp is None or vp > 2 * vd)

    steps, vp, vd = walk(hint)
    if in_basin(vp, vd):
        return steps
    if vd is None or vp - vd < 1:
        return None
    j = vp - vd
    for t in range(1, K.q):
        steps, vp, vd = walk(R.add(hint, K.digit_elt(t, j)))
        if in_basin(vp, vd):
            return steps
    return None


def _only_root(K: LocalField, poly, want_val: int):
    """The one root of ``cubic_k_roots``; FormulationMismatch when it finds another count."""
    roots = cubic_k_roots(K, poly, want_val)
    if len(roots) != 1:
        raise FormulationMismatch(
            f"resolvent of a {{C4,D4}} quartic has {len(roots)} roots in K, expected 1"
        )
    return roots[0]


def _pins_class(e: int, vw, vW, d) -> bool:
    """Whether every w' with v(w' - w) >= d gives W' = w'^2 - 4 a0 the square
    class of W = w^2 - 4 a0, for v(w) = vw and v(W) = vW over a base with
    v(2) = e: the one inequality

        d + min(e + v(w), d) >= v(W) + 2e + 1.

    W' - W = (w' - w)(w' + w) and w' + w = 2w + (w' - w), so v(W' - W) is
    at least the left side; W'/W = 1 + x with v(x) >= 2e + 1 is a square.
    """
    return d + min(e + vw, d) >= vW + 2 * e + 1


def _resolvent_split(fq: EisensteinQuartic, window=None, hint=None, check=False):
    """(C4 or D4, w) for a quartic whose closure group is one of them, w the
    unique root of its resolvent cubic R in K, as far as it was refined; the
    group is None when ``window`` does not pin the square class of
    W = w^2 - 4 a0.

    The root.  disc(R) = disc(f) is not a square, and a separable cubic has
    0, 1 or 3 roots in K, 3 only when its disc is a square: a root found from
    ``hint`` (``_root_from_hint``) is therefore the only one.  Without a
    hint, or when the hint finds no start, ``cubic_k_roots`` searches from
    scratch, to v(R(w)) >= 4e+2 > v(disc)/2 >= v(R'(w*)), which puts its
    root in the Newton basin.

    Readings.  Newton walks on from that start.  In the basin v(R'(w)) is
    already the true root w*'s, and eps = v(R(w)) - v(R'(w)) is v(w - w*),
    infinite once R(w) vanishes (the walk's last item).  Readings with
    v(w) >= eps are skipped; past them v(w) = v(w*), infinite when w
    vanishes, and v(W) = v(W*), since v(W) = min(2 v(w), 2e+1) for every w
    (v(4 a0) = 2e+1 is odd, so W never vanishes).  ``window(v(w), v(R'(w)),
    v(W), dist)`` tests the node's Hensel conditions and ``_pins_class`` at
    min(dw, dist), dw the distance within which every member's root lies.
    At each reading past the skip the group is None when the window fails
    at dist = infinity, and is read when it holds at dist = eps, which puts
    W in W*'s class; otherwise Newton takes another step.  With no window
    the test is ``_pins_class`` at eps alone.  The closure is cyclic exactly
    when disc * W is a square (``c4_or_d4``).

    With ``check``, a hinted root w is searched for again at P = v(R(w)),
    or at the ring's cap when R(w) vanishes, and the search must find
    exactly one root w' with v(w - w') >= P - v(R'(w)).  FormulationMismatch
    when a search finds a root count other than one, or a checked w' too far
    from w.
    """
    K = fq.field
    R, e = K.ring, K.e_abs
    rescubic = resolvent_cubic(fq)
    deriv = _poly_deriv(R, rescubic)
    steps = None if hint is None else _root_from_hint(K, rescubic, deriv, hint)
    hinted = steps is not None
    if not hinted:
        steps = _newton(K, rescubic, deriv, _only_root(K, rescubic, 4 * e + 2))
    if window is None:
        def window(vw, v_rp, vW, dist):
            return _pins_class(e, vw, vW, dist)
    for w, vp, vd in steps:
        vw = R.val(w)
        vw = inf if vw is None else vw
        eps = inf if vp is None else vp - vd
        if vw >= eps and vp is not None:
            continue
        vW = min(2 * vw, 2 * e + 1)
        pinned = window(vw, vd, vW, inf)
        if not pinned or window(vw, vd, vW, eps):
            break
    if hinted and check:
        want = R.cap if vp is None else vp
        v_gap = R.val(R.sub(w, _only_root(K, rescubic, want)))
        if v_gap is not None and v_gap < want - vd:
            raise FormulationMismatch(
                f"resolvent root from the hint differs from the searched root at valuation {v_gap}"
            )
    if not pinned:
        return None, w
    return c4_or_d4(K, K.val(fq.disc), fq.disc_unit, resolvent_W(R, w, fq.a0), vW), w


def resolvent_W(R, w, a0):
    """W = w^2 - 4 a0 for a root w of the resolvent cubic."""
    return R.sub(R.mul(w, w), R.mul(R.from_int(4), a0))


def c4_or_d4(K: LocalField, m: int, disc_unit, W, vW: int) -> GroupTag:
    """C4 when disc * W is a square, D4 otherwise: the closure group of a
    {C4, D4} quartic with v(disc) = m, disc / pi^m = ``disc_unit``, and W,
    of valuation ``vW``, in the square class of w^2 - 4 a0 for the root w
    of its resolvent cubic in K.  disc * W is a square when m + v(W) is
    even and the product of the two unit parts is a square."""
    if (m + vW) & 1:
        return GroupTag.D4
    R = K.ring
    reach, _ = K.square_reach(R.mul(disc_unit, R.shift(W, -vW)))
    return GroupTag.C4 if reach == 2 * K.e_abs + 1 else GroupTag.D4


def classify_by_invariants(fq: EisensteinQuartic, hint=None):
    """((m, GroupTag), hint') via coefficient congruences and square classes only.

    Route: the trivial-automorphism congruence test separates S4/A4 (split
    by the discriminant square class); a square discriminant otherwise
    forces V4; the remaining {C4, D4} are split by the resolvent cubic
    (``_resolvent_split``, whose search starts from ``hint``).  hint' is the
    resolvent root found, or ``hint`` itself when none was needed.
    """
    K = fq.field
    m = _disc_val(K, fq.disc)
    square_disc = m % 2 == 0 and K.square_reach(fq.disc_unit)[0] == 2 * K.e_abs + 1
    if is_one_aut(fq, m):
        return (m, (GroupTag.A4 if square_disc else GroupTag.S4)), hint
    if square_disc:
        return (m, GroupTag.V4), hint
    g, w = _resolvent_split(fq, hint=hint)
    return (m, g), w


def classify_tower_from_norm(K: LocalField, d, alpha_norm) -> GroupTag:
    """Closure group of the tower K(sqrt(d), sqrt(alpha)) from N_{E/K}(alpha).

    V4 when the norm is a square, C4 when it is d times a square, D4 otherwise.
    """
    if K.is_square(alpha_norm):
        return GroupTag.V4
    if K.is_square(K.ring.mul(alpha_norm, d)):
        return GroupTag.C4
    return GroupTag.D4
