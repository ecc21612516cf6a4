"""Truncated arithmetic in towers  O_U -> O_U[y]/(eis) -> ...

Two ring shapes cover everything the package needs:

* ``UnramifiedRing`` -- the ring of integers of the unramified extension of
  Q_2 with residue field F_{2^f}: polynomials of degree < f in the residue
  generator with integer coefficients mod 2^N, N = n2.
* ``EisensteinStep`` -- O_B[t]/(g) for a monic Eisenstein polynomial g of
  degree n over a base ring B: polynomials of degree < n in t with
  coefficients in B.

Layout.  Every element of every ring is one non-negative Python int, by
Kronecker substitution.  The integers mod 2^N at the bottom of a tower sit
in slots, each N bits wide and W = 2N + H bits apart (H = ``_HEADROOM``):

* U(f = 1): the element is its coefficient, a plain int below 2^N;
* U(f >= 2): coefficient i sits at bit i*W;
* O_B[t]/(g): base element i sits in block i, at bit i*S, where S is the
  width of a raw base product, the base's own layout of a product of two
  base elements before reduction (W for U(1), (2f-1)*W for U(f),
  (2n_B-1)*S_B for a step).

Block 0 sits at bit 0, so a base element is its own constant in the ring
above (``lift`` is the identity), and 0 and 1 are 0 and 1 in every ring.

Arithmetic.  ``add``, ``sub`` and ``neg`` are one int operation and one AND
with the element mask; ``sub`` and ``neg`` first add 2^N to every slot, so
no slot borrows from its neighbour.  ``mul`` is one int multiplication,
which leaves the raw product: block k holds sum_{i+j=k} a_i b_j as a raw
base value.  A top-down reduction then takes each block k = 2n-2 .. n,
reduces it in the base, masks it to a base element and adds it times the
packed -g into block k-n (t^n = -g_0 - ... - g_{n-1} t^{n-1}); finally it
reduces the n low blocks in the base, all at once, and ANDs with the
element mask.  Each ring compiles this into a flat list of stages
``(src, select, multiplier, dst)`` from its base's list, and ``_fold`` runs
it.  The f >= 2 reduction row of U(f) is x^f = -(h - x^f), h the 0/1 lift
of the residue modulus.

Bound on W.  Let D = [K:Q_2] = f * n_1 * ... * n_k be the absolute degree
of the ring.  Each slot of a raw product is a sum of at most D products of
two coefficients below 2^N, and the reductions at all levels together add
fewer than D more, so no slot reaches 2D(2^N - 1)^2 < 2^{2N+H} while
2D <= 2^H.  Both classes refuse a ring above that degree, so no slot ever
carries into its neighbour; a block is masked to a reduced base element
before it enters a reduction multiplication.

Valuations are exact: for a = sum a_i t^i the candidate valuations
n*v_B(a_i) + i are pairwise distinct mod n, so the minimum is attained by a
single term and min() computes v(a) with no cancellation analysis.  Each
ring lists its slots with the weight v(slot) of their position and reads
the valuation as the least e*v_2(coefficient) + weight.

Precision.  Raw data here carries no per-element precision; every element
is exact modulo pi^cap provided it was produced from exact inputs by ring
operations, minus one unit of cap per downward shift.  ``shift`` is the one
routine that divides by pi: a step's ``shift(a, -k)`` solves x t = a k times
in one loop, each from a's constant block divided by pi_B (by the base's
own ``shift`` over a step), and so loses k units.  The public wrapper in
:mod:`q2quartic.padic.field` tracks precision explicitly; internal
consumers budget their downward shifts against the guard digits instead.
"""

from __future__ import annotations

from ..errors import DivisionByNonUnit, InvalidParams
from ..params import MAX_DEGREE
from ..residue import ResidueField

# Bits above 2N in every bottom slot; towers of absolute degree up to
# 2^(H-1) = MAX_DEGREE fit (see the module docstring).
_HEADROOM = MAX_DEGREE.bit_length()


def _replicate(word: int, count: int, stride: int) -> int:
    """``word`` copied into ``count`` blocks ``stride`` bits apart."""
    return sum(word << (stride * i) for i in range(count))


def _fold(x: int, stages, mask: int) -> int:
    """Reduce a raw value: run the reduction stages top-down, then AND with the mask."""
    for src, sel, mult, dst in stages:
        c = (x >> src) & sel
        if c:
            x += (c * mult) << dst
    return x & mask


class _PackedRing:
    """What both ring shapes share: their elements are ints in one slot layout.

    A subclass sets ``_coef`` (2^N - 1) and ``_degree`` ([K:Q_2], through
    ``_set_degree``) and calls ``_layout`` with its slots ((bit offset,
    weight) per bottom coefficient), the offsets of its residue digits and
    the mask, stride and number of the entries ``coeffs`` returns;
    ``_layout`` derives the element mask ``_mask`` and ``_two_n``, 2^N in
    every slot.
    """

    def from_int(self, n: int):
        return n & self._coef

    def from_coeffs(self, cs):
        """The element whose ``coeffs`` are cs."""
        pm, stride, _ = self._part
        return sum((c & pm) << (stride * i) for i, c in enumerate(cs))

    def coeffs(self, a) -> tuple:
        """The entries of a: f ints mod 2^N for U(f), the base elements a_i of
        a = sum a_i t^i for a step."""
        pm, stride, count = self._part
        return tuple((a >> (stride * i)) & pm for i in range(count))

    def add(self, a, b):
        return (a + b) & self._mask

    def sub(self, a, b):
        return (a + self._two_n - b) & self._mask

    def neg(self, a):
        return (self._two_n - a) & self._mask

    def val(self, a):
        """pi-adic valuation, or None if a vanishes to working precision."""
        if not a:
            return None
        e, coef = self.e_abs, self._coef
        v = None
        for off, wt in self._slots:
            if v is not None and v <= wt:
                break
            x = (a >> off) & coef
            if x:
                cand = e * ((x & -x).bit_length() - 1) + wt
                if v is None or cand < v:
                    v = cand
        return v

    def residue(self, a) -> int:
        if self.f == 1:
            return a & 1
        r = 0
        for i, off in enumerate(self._res_offsets):
            r |= ((a >> off) & 1) << i
        return r

    def inv_unit(self, a):
        """The inverse of the unit a; each subclass binds it in its own body,
        where ``perfbench/tracing.py`` wraps it per class."""
        r = self.residue(a)
        if r == 0:
            raise DivisionByNonUnit("inverse of a non-unit")
        b = self.teich(self.res.inv(r))
        two = self.from_int(2)
        # Newton: correct digits double each round
        rounds = max(1, (self.cap - 1).bit_length() + 1)
        for _ in range(rounds):
            b = self.mul(b, self.sub(two, self.mul(a, b)))
        return b

    def _set_degree(self, degree: int):
        """Set ``_degree``, refusing a degree above the slot headroom; a
        subclass calls it before it builds anything of that degree."""
        if 2 * degree > 1 << _HEADROOM:
            raise InvalidParams(f"degree {degree} over Q_2 exceeds the slot headroom")
        self._degree = degree

    def _layout(self, slots, res_offsets, part):
        self._slots = tuple(sorted(slots, key=lambda s: s[1]))
        self._res_offsets = res_offsets
        self._part = part
        self._mask = sum(self._coef << off for off, _ in slots)
        self._two_n = sum((self._coef + 1) << off for off, _ in slots)


class UnramifiedRing(_PackedRing):
    """O_U for the unramified U/Q_2 with residue field F_{2^f}; uniformiser 2."""

    def __init__(self, f: int, n2: int):
        self.f = f
        self.n2 = n2  # coefficients live mod 2^n2
        self.cap = n2  # pi-adic precision equals coefficient precision
        self.e_abs = 1  # v_U(2)
        self._set_degree(f)  # [U:Q_2]
        self.res = ResidueField(f)
        self._coef = (1 << n2) - 1
        self._teich_cache: dict[int, int] = {}
        self.zero, self.one = 0, 1
        w = 2 * n2 + _HEADROOM
        self._width = (2 * f - 1) * w  # bits of a raw product
        offsets = tuple(w * i for i in range(f))
        self._layout([(off, 0) for off in offsets], offsets, (self._coef, w, f))
        # reduction row for x^f = -(h - x^f), h the 0/1 lift of the modulus
        red = self.from_coeffs([-((self.res.modulus >> i) & 1) for i in range(f)])
        self._stages = tuple(
            (w * k, self._coef, red, w * (k - f)) for k in range(2 * f - 2, f - 1, -1)
        )
        self._low_bits = _replicate(1, f, w)  # bit 0 of every slot

    def mul(self, a, b):
        if self.f == 1:
            return (a * b) & self._mask
        return _fold(a * b, self._stages, self._mask)

    def val(self, a):
        """2-adic valuation, or None if a vanishes mod 2^n2."""
        if self.f == 1:
            if a == 0:
                return None
            return (a & -a).bit_length() - 1
        return _PackedRing.val(self, a)

    def teich(self, t: int):
        """Teichmueller lift of the residue t: the unique lift with x^q = x."""
        cached = self._teich_cache.get(t)
        if cached is not None:
            return cached
        if self.f == 1:
            x = t & 1  # 0 and 1 are their own lifts
        else:
            x = self.from_coeffs([(t >> i) & 1 for i in range(self.f)])
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
        if k > 0:
            return (a << k) & self._mask if k < self.n2 else 0
        k = -k
        if k >= self.n2:
            if a:
                raise DivisionByNonUnit(f"2^{k} does not divide element")
            return 0
        if a & (self._low_bits * ((1 << k) - 1)):
            raise DivisionByNonUnit(f"2^{k} does not divide element")
        return (a >> k) & self._mask

    def inv_unit(self, a):
        """The inverse of the unit a; for f = 1 the unique inverse mod 2^N
        that ``_PackedRing.inv_unit``'s Newton loop reaches."""
        if self.f == 1:
            if not a & 1:
                raise DivisionByNonUnit("inverse of a non-unit")
            return pow(a, -1, self._coef + 1)
        return _PackedRing.inv_unit(self, a)

    def __repr__(self):
        return f"UnramifiedRing(f={self.f}, n2={self.n2})"


class EisensteinStep(_PackedRing):
    """O_B[t]/(g) for monic Eisenstein g = t^n + g_{n-1} t^{n-1} + ... + g_0."""

    def __init__(self, base, lower_coeffs):
        self.base = base
        self.g = tuple(lower_coeffs)  # g_0 .. g_{n-1}
        self.n = n = len(self.g)
        if n < 1:
            raise InvalidParams("defining polynomial must have positive degree")
        _check_eisenstein(base, self.g)
        self.f = base.f
        self.res = base.res
        self.e_abs = n * base.e_abs
        self.cap = n * base.cap
        self._set_degree(n * base._degree)
        self.zero, self.one = 0, 1
        self._coef = base._coef
        s = self._s = base._width  # a block has room for a raw base product
        self._width = (2 * n - 1) * s
        self._layout(
            [(s * i + off, n * wt + i) for i in range(n) for off, wt in base._slots],
            base._res_offsets,
            (base._mask, s, n),
        )
        # t^n = -g_0 - g_1 t - ... - g_{n-1} t^{n-1}, the reduction multiplier
        self._t_n = self.from_coeffs([base.neg(c) for c in self.g])
        sub = base._stages
        top = []
        for k in range(2 * n - 2, n - 1, -1):
            top.extend((src + s * k, sel, mult, dst + s * k) for src, sel, mult, dst in sub)
            top.append((s * k, base._mask, self._t_n, s * (k - n)))
        self._final = tuple((src, _replicate(sel, n, s), mult, dst) for src, sel, mult, dst in sub)
        self._stages = tuple(top) + self._final
        # a / t: top coefficient (a_0 / pi_B) / (-g_0 / pi_B), then a_j + that * g_j
        self._inv_unit_of_neg_g0_shifted = base.inv_unit(base.shift(base.neg(self.g[0]), -1))
        self._g_over_t = self.from_coeffs(list(self.g[1:]) + [base.one])

    def lift(self, c):
        """The base element c as a constant of this ring (block 0 sits at bit 0)."""
        return c

    def mul(self, a, b):
        return _fold(a * b, self._stages, self._mask)

    def teich(self, t: int):
        return self.base.teich(t)

    def shift(self, a, k: int):
        """a * t^k; for k < 0 requires v(a) >= -k (exact division).

        A downward shift solves x t = a -k times in one loop, with the
        ring's constants bound once; a base step divides a_0 by its own
        ``shift(a_0, -1)``, and an empty stage list (a base U(1)) is a mask.
        """
        if k < 0:
            base = self.base
            bmask, s, mask = base._mask, self._s, self._mask
            inv, g_over_t = self._inv_unit_of_neg_g0_shifted, self._g_over_t
            bstages, final = base._stages, self._final
            nested = isinstance(base, EisensteinStep)
            low = 0 if nested else base._low_bits
            for _ in range(-k):
                a0 = a & bmask
                if nested:
                    a0 = base.shift(a0, -1)
                elif a0 & low:
                    raise DivisionByNonUnit("2 does not divide element")
                else:
                    a0 >>= 1
                x_top = a0 * inv
                x_top = _fold(x_top, bstages, bmask) if bstages else x_top & bmask
                a = (a >> s) + x_top * g_over_t
                a = _fold(a, final, mask) if final else a & mask
            return a
        n = self.n
        while k >= n:
            a = _fold(a * self._t_n, self._stages, self._mask)
            k -= n
        if k:
            a = _fold(a << (self._s * k), self._stages, self._mask)
        return a

    inv_unit = _PackedRing.inv_unit

    def __repr__(self):
        return f"EisensteinStep(n={self.n}, base={self.base!r})"


def _check_eisenstein(ring, lower_coeffs):
    """Raise InvalidParams unless v(c_0) = 1 and v(c_i) >= 1 (an Eisenstein polynomial)."""
    v0 = ring.val(lower_coeffs[0])
    if v0 != 1:
        raise InvalidParams(f"constant term must have valuation exactly 1, got {v0}")
    for c in lower_coeffs[1:]:
        v = ring.val(c)
        if v is not None and v < 1:
            raise InvalidParams("non-constant lower coefficients need positive valuation")


def unpack(ring, a):
    """a as nested tuples: an int for U(1), f ints for U(f), n unpacked entries for a step."""
    if isinstance(ring, EisensteinStep):
        return tuple(unpack(ring.base, c) for c in ring.coeffs(a))
    return a if ring.f == 1 else ring.coeffs(a)


def leading_residue(ring, a, l: int) -> int:
    """Residue of a / pi^l, for v(a) >= l."""
    return ring.residue(ring.shift(a, -l))
