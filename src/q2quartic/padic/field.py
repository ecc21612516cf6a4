"""Concrete 2-adic fields and their valuation-theoretic predicates.

A ``LocalField`` wraps a ring tower from :mod:`q2quartic.padic.rings`:
the unramified subfield U of residue degree f, optionally extended by one
Eisenstein step.  Quadratic extensions built by :func:`ramified_quadratic`
are again ``LocalField`` instances (with a ``base_field`` back-pointer and
a norm map), so all predicates below work uniformly at both levels of a
tower.

The central primitive is :meth:`LocalField.square_reach`: for a unit u it
finds how closely u can be approximated by squares, by repairing the
leading digit of u - x^2 one level at a time.  Even levels below 2*v(2)
are always repairable (residue fields of characteristic two are perfect),
an odd level is a permanent obstruction, and level 2*v(2) is an
Artin-Schreier condition.  Squares, the unramified quadratic class, and
Hecke's discriminant-exponent formula all read off from the stopping level.
The walk never divides: x^2 keeps the residue of u, so u - x^2 and
u/x^2 - 1 share their valuation, and their leading digits differ by the
fixed factor res(u)^-1.

F^x / F^x2 is an F_2-vector space of dimension [F:Q_2] + 2, and
:meth:`LocalField.square_class_coords` gives every element its coordinate
vector, an int, in one fixed basis:

* bit 0 is the uniformiser pi;
* bit 1 + j*f + k is 1 + [2^k] pi^(2j+1), one residue-basis digit at each
  odd level 2j+1 < 2*v(2);
* the last bit is 1 + [c*] pi^(2*v(2)), the unramified class, where c* is
  a residue outside the image of s -> s^2 + gamma*s.

The coordinate walk is ``square_reach`` continued past the odd levels: it
records an odd level's digit and multiplies the basis units in, instead of
stopping there.  Products and norms of elements then become XORs of
coordinate vectors, which is how the tower oracle classifies its pairs.
``is_square``, ``hecke_disc`` and ``square_reach`` keep the shorter walk
that stops at the first obstruction.
"""

from __future__ import annotations

import hashlib
import json

from ..errors import DivisionByNonUnit, InvalidParams, PrecisionExhausted
from ..params import FieldParams, MinusOneClass
from .rings import EisensteinStep, UnramifiedRing, leading_residue

TRIVIAL = "trivial"
UNRAMIFIED = "unramified"

_PREC_GUARD = 48


class LocalField:
    def __init__(self, ring, spec=None, base_field=None, norm_coeffs=None, label=None):
        self.ring = ring
        self.f = ring.f
        self.q = 1 << ring.f
        self.res = ring.res
        self.e_abs = ring.e_abs  # v_K(2)
        self.spec = spec
        self.base_field = base_field  # set for quadratic steps E/K
        self._norm_coeffs = norm_coeffs  # (B, C) with theta^2 + B theta + C = 0
        self.label = label or "K"
        self._sqreps = None
        self._sqbasis = None
        self._digit_table = {}
        self._odd_units = {}  # (level, residue) -> product of the basis units it selects
        self._digit_squares = {}  # (residue, level) -> (1 + [s] pi^level)^2
        # res(2 / pi^v(2)), the linear coefficient of the Artin-Schreier step
        self._gamma = ring.residue(ring.shift(ring.from_int(2), -self.e_abs))
        self.square_class_dim = self.e_abs * self.f + 2

    # -- basic raw-element helpers -------------------------------------

    def from_int(self, n: int):
        return self.ring.from_int(n)

    def val(self, a):
        return self.ring.val(a)

    def digit_elt(self, t: int, i: int):
        """The raw element [t] * pi^i (Teichmueller digit at level i), cached."""
        key = (t, i)
        e = self._digit_table.get(key)
        if e is None:
            e = self.ring.shift(self.ring.teich(t), i)
            self._digit_table[key] = e
        return e

    def from_digits(self, digits):
        a = self.ring.zero
        for i, t in enumerate(digits):
            if t:
                a = self.ring.add(a, self.digit_elt(t, i))
        return a

    # -- squares, Hecke, square classes --------------------------------

    def square_reach(self, u):
        """For a unit u, return (reach, x).

        reach = 2*v(2)+1 means u = x^2 * (1 + O(pi^{2v(2)+1})), hence a
        square; reach = 2*v(2) marks the unramified quadratic class; an odd
        reach < 2*v(2) is the Hecke invariant kappa, with witness x.

        Each step reads l = v(u - x^2).  x starts as the Teichmueller lift
        of sqrt(res u) and every correction multiplies it by a 1-unit, so
        res(x^2) = res(u) throughout: l = v(u/x^2 - 1), and the leading
        digit of u/x^2 - 1 is that of u - x^2 times res(u)^-1.
        """
        ring, res = self.ring, self.res
        w = self.e_abs
        r0 = ring.residue(u)
        if r0 == 0:
            raise DivisionByNonUnit("square_reach needs a unit")
        r0_inv = res.inv(r0)
        x = ring.teich(res.sqrt(r0))
        top = 2 * w + 1
        if top + 2 > ring.cap:
            raise PrecisionExhausted("field precision below 2*v(2)+3")
        for _ in range(top + 2):
            d = ring.sub(u, ring.mul(x, x))
            l = ring.val(d)
            if l is None or l >= top:
                return top, x
            if l % 2 == 1:
                return l, x
            rbar = res.mul(leading_residue(ring, d, l), r0_inv)
            if l == 2 * w:
                s = self._artin_schreier_fix(rbar)
                if s is None:
                    return 2 * w, x
                x = ring.mul(x, ring.add(ring.one, self.digit_elt(s, w)))
                continue
            s = res.sqrt(rbar)
            x = ring.mul(x, ring.add(ring.one, self.digit_elt(s, l // 2)))
        raise PrecisionExhausted("square_reach failed to terminate within budget")

    def _artin_schreier_fix(self, rbar):
        """A residue s with s^2 + gamma*s = rbar, or None."""
        res, gamma = self.res, self._gamma
        for s in res.elements():
            if res.add(res.mul(s, s), res.mul(gamma, s)) == rbar:
                return s
        return None

    def is_square(self, a) -> bool:
        v = self.val(a)
        if v is None:
            raise PrecisionExhausted("cannot certify element nonzero")
        if v % 2 != 0:
            return False
        u = self.ring.shift(a, -v)
        return self.square_reach(u)[0] == 2 * self.e_abs + 1

    def hecke_disc(self, alpha):
        """Discriminant exponent of F(sqrt(alpha))/F: int, UNRAMIFIED, or TRIVIAL."""
        v = self.val(alpha)
        if v is None:
            raise PrecisionExhausted("cannot certify element nonzero")
        w = self.e_abs
        if v % 2 != 0:
            return 2 * w + 1
        reach, _ = self.square_reach(self.ring.shift(alpha, -v))
        if reach == 2 * w + 1:
            return TRIVIAL
        if reach == 2 * w:
            return UNRAMIFIED
        return 2 * w + 1 - reach

    def square_class_coords(self, a) -> int:
        """The coordinate vector of a in F^x / F^x2, in the basis of the module docstring.

        The walk keeps y = x^2 * (product of the basis units recorded so far)
        with res(y) = res(u) and reads l = v(u - y) and the leading digit of
        u/y - 1, as ``square_reach`` does.  An odd level records its digit's
        bits and multiplies their basis units into y; an even level below
        2*v(2) multiplies in the square of a digit; level 2*v(2) multiplies in
        an Artin-Schreier square or, failing one, records the unramified bit.
        The walk ends when u/y = 1 + O(pi^{2v(2)+1}), a square.
        """
        ring, res = self.ring, self.res
        v = ring.val(a)
        if v is None:
            raise PrecisionExhausted("cannot certify element nonzero")
        u = ring.shift(a, -v)
        w, f = self.e_abs, self.f
        top = 2 * w + 1
        if top + 2 > ring.cap:
            raise PrecisionExhausted("field precision below 2*v(2)+3")
        r0 = ring.residue(u)
        r0_inv = res.inv(r0)
        y = ring.teich(r0)
        coords = v & 1
        for _ in range(top + 2):
            d = ring.sub(u, y)
            l = ring.val(d)
            if l is None or l >= top:
                return coords
            rbar = res.mul(leading_residue(ring, d, l), r0_inv)
            if l % 2 == 1:
                coords |= rbar << (1 + (l // 2) * f)
                y = ring.mul(y, self._odd_unit(l, rbar))
            elif l < 2 * w:
                y = ring.mul(y, self._digit_square(res.sqrt(rbar), l // 2))
            else:
                s = self._artin_schreier_fix(rbar)
                if s is None:
                    coords |= 1 << (1 + w * f)
                    y = ring.mul(y, self.square_class_basis()[-1])
                else:
                    y = ring.mul(y, self._digit_square(s, w))
        raise PrecisionExhausted("square_class_coords failed to terminate within budget")

    def _odd_unit(self, l, rbar):
        """The product of the basis units 1 + [2^k] pi^l over the bits k of rbar, cached."""
        key = (l, rbar)
        p = self._odd_units.get(key)
        if p is None:
            ring, basis = self.ring, self.square_class_basis()
            first = 1 + (l // 2) * self.f
            p = ring.one
            for k in range(self.f):
                if rbar >> k & 1:
                    p = ring.mul(p, basis[first + k])
            self._odd_units[key] = p
        return p

    def _digit_square(self, s, i):
        """(1 + [s] pi^i)^2, cached."""
        key = (s, i)
        sq = self._digit_squares.get(key)
        if sq is None:
            ring = self.ring
            x = ring.add(ring.one, self.digit_elt(s, i))
            sq = self._digit_squares[key] = ring.mul(x, x)
        return sq

    def coords_hecke_disc(self, c: int):
        """``hecke_disc`` of any element whose square-class coordinates are c.

        Odd valuation gives 2*v(2)+1; otherwise the lowest odd level l with a
        nonzero digit is the reach, giving 2*v(2)+1-l; the unramified bit
        alone gives UNRAMIFIED, and c = 0 gives TRIVIAL.
        """
        w, f = self.e_abs, self.f
        if c & 1:
            return 2 * w + 1
        odd = c & ((1 << (1 + w * f)) - 2)
        if odd:
            return 2 * w - 2 * (((odd & -odd).bit_length() - 2) // f)
        return UNRAMIFIED if c else TRIVIAL

    def square_class_basis(self):
        """The basis of F^x / F^x2 that ``square_class_coords`` reads; entry i is bit i."""
        if self._sqbasis is None:
            ring, res, w = self.ring, self.res, self.e_abs
            basis = [ring.shift(ring.one, 1)]
            for j in range(w):
                basis.extend(
                    ring.add(ring.one, self.digit_elt(1 << k, 2 * j + 1)) for k in range(self.f)
                )
            # s^2 + gamma*s = gamma^2 ((s/gamma)^2 + s/gamma) covers gamma^2 * ker(trace),
            # so c* = gamma^2 times a trace-one residue lies outside it
            cstar = res.mul(res.mul(self._gamma, self._gamma), res.artin_schreier_nonzero())
            basis.append(ring.add(ring.one, self.digit_elt(cstar, 2 * w)))
            self._sqbasis = basis
        return self._sqbasis

    def square_class_reps(self):
        """A complete duplicate-free system of representatives of F^x / F^x2.

        reps[c] is the product of the basis units selected by the bits of c
        (``square_class_coords(reps[c]) == c``), built from reps[c] without
        its lowest bit by one multiplication or, for bit 0, one shift.
        Size 2^{[F:Q_2] + 2}.
        """
        if self._sqreps is not None:
            return self._sqreps
        ring, basis = self.ring, self.square_class_basis()
        reps = [ring.one]
        for c in range(1, 1 << self.square_class_dim):
            low = c & -c
            prev = reps[c ^ low]
            if low == 1:
                reps.append(ring.shift(prev, 1))
            else:
                reps.append(ring.mul(prev, basis[low.bit_length() - 1]))
        self._sqreps = reps
        return reps

    # -- quadratic-step extras ------------------------------------------

    def norm(self, z):
        """Norm to the base field of z = (x, y) in the theta-basis."""
        if self._norm_coeffs is None:
            raise InvalidParams("norm only defined on a quadratic step")
        B, C = self._norm_coeffs
        K = self.base_field.ring
        x, y = self.ring.coeffs(z)
        n = K.sub(K.mul(x, x), K.mul(B, K.mul(x, y)))
        return K.add(n, K.mul(C, K.mul(y, y)))

    # -- parameter derivation -------------------------------------------

    def derive_params(self) -> FieldParams:
        minus_one = self.ring.from_int(-1)
        if self.is_square(minus_one):
            cls, d = MinusOneClass.SQUARE, 0
        else:
            h = self.hecke_disc(minus_one)
            if h == UNRAMIFIED:
                cls, d = MinusOneClass.UNRAMIFIED, 0
            else:
                cls, d = MinusOneClass.RAMIFIED, h
        return FieldParams(self.e_abs, self.f, self.q, d, cls)

    def spec_hash(self) -> str:
        """Hash of the data that defines the field, for cache keys.

        A spec-backed field hashes its spec; a quadratic step built in code
        hashes its base field's hash and its defining coefficients (B, C);
        a field built straight from a ring hashes the ring's defining data.
        """
        if self.spec:
            blob = json.dumps(self.spec, sort_keys=True)
        elif self.base_field is not None:
            K = self.base_field
            blob = json.dumps([K.spec_hash(), _coeffs_repr(K.ring, self._norm_coeffs)])
        else:
            blob = json.dumps(_ring_data(self.ring))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def __repr__(self):
        return f"LocalField({self.label}, e={self.e_abs}, f={self.f})"


def _ring_data(ring):
    """f, the residue modulus and, step by step, the Eisenstein lower coefficients."""
    if isinstance(ring, EisensteinStep):
        return [_ring_data(ring.base), _coeffs_repr(ring.base, ring.g)]
    return [ring.f, ring.res.modulus]


def _coeffs_repr(ring, elements) -> str:
    """repr of the elements as nested coefficient tuples, the form cache keys hash."""

    def unpacked(ring, a):
        if isinstance(ring, EisensteinStep):
            return tuple(unpacked(ring.base, c) for c in ring.coeffs(a))
        return a if ring.f == 1 else ring.coeffs(a)

    return repr(tuple(unpacked(ring, a) for a in elements))


def ramified_quadratic(K: LocalField, d) -> LocalField:
    """The quadratic extension E = K(sqrt(d)) for d in a ramified square class.

    E is presented as K[theta]/(theta^2 + B theta + C) for a uniformiser
    theta, so valuations in E stay exact.  The returned field knows its
    norm map.
    """
    ring = K.ring
    v = K.val(d)
    if v is None:
        raise PrecisionExhausted("cannot certify d nonzero")
    if v % 2:
        u = ring.shift(d, -(v - 1))  # pi * unit
        B, C = ring.zero, ring.neg(u)
    else:
        u = ring.shift(d, -v)
        reach, x = K.square_reach(u)
        if reach == 2 * K.e_abs + 1:
            raise InvalidParams("d is a square; no quadratic extension")
        if reach == 2 * K.e_abs:
            raise InvalidParams("d generates the unramified quadratic extension")
        j = (reach - 1) // 2  # reach is the Hecke invariant kappa
        r = ring.sub(ring.mul(u, ring.inv_unit(ring.mul(x, x))), ring.one)
        B = ring.shift(ring.from_int(2), -j)
        C = ring.neg(ring.shift(r, -2 * j))
    ext = EisensteinStep(ring, [C, B])
    return LocalField(
        ext,
        spec=None,
        base_field=K,
        norm_coeffs=(B, C),
        label=f"{K.label}(sqrt)",
    )


# -- field specification files ------------------------------------------


def _coeff_from_entry(ring: UnramifiedRing, entry):
    if isinstance(entry, int):
        return ring.from_int(entry)
    if isinstance(entry, list):
        a = ring.zero
        for i, t in enumerate(entry):
            if not isinstance(t, int) or not (0 <= t < (1 << ring.f)):
                raise InvalidParams(f"digit {t!r} out of range for f={ring.f}")
            if t:
                a = ring.add(a, ring.shift(ring.teich(t), i))
        return a
    raise InvalidParams(f"coefficient entry {entry!r} must be an int or a digit list")


def field_from_spec(spec: dict) -> LocalField:
    """Build a LocalField from a FieldSpec dict.

    Schema::

        {"f": int,                  # residue degree of the unramified part
         "e": int,                  # optional; only e = 1 without "eisenstein"
         "eisenstein": [c0, ..., ce],  # optional; degree-ascending, monic
         "precision": int}          # optional pi-adic digits, default 16e+16

    Each coefficient is an integer, or a little-endian list of 2-adic
    digits whose entries encode residue-field elements (0 <= digit < 2^f).
    The unramified field itself is ``{"f": f}`` or ``{"f": f, "e": 1}``.
    """
    if "f" not in spec:
        raise InvalidParams("field spec needs 'f'")
    f = spec["f"]
    if not isinstance(f, int) or f < 1:
        raise InvalidParams(f"bad f: {f!r}")
    eis = spec.get("eisenstein")
    if eis is None:
        if spec.get("e", 1) != 1:
            raise InvalidParams("e > 1 requires an 'eisenstein' entry")
        e = 1
    else:
        e = len(eis) - 1
        if e < 1:
            raise InvalidParams("eisenstein entry must list at least two coefficients")
        if "e" in spec and spec["e"] != e:
            raise InvalidParams(f"e={spec['e']} conflicts with eisenstein degree {e}")
    prec = spec.get("precision", 16 * e + 16)
    n2 = -((prec + 8 * e + _PREC_GUARD) // -e)
    ring = UnramifiedRing(f, n2)
    if eis is None:
        field = LocalField(ring, spec=spec, label=f"U(f={f})" if f > 1 else "Q2")
        field.precision = prec
        return field
    coeffs = [_coeff_from_entry(ring, c) for c in eis]
    if coeffs[-1] != ring.one:
        raise InvalidParams("eisenstein polynomial must be monic (last entry 1)")
    step = EisensteinStep(ring, coeffs[:-1])
    field = LocalField(step, spec=spec, label=f"K(e={e},f={f})")
    field.precision = prec
    return field


def with_doubled_precision(field: LocalField) -> LocalField:
    """Rebuild a spec-backed field carrying twice the pi-adic precision."""
    if field.spec is None:
        raise PrecisionExhausted("cannot rebuild a derived field at higher precision")
    spec = dict(field.spec)
    spec["precision"] = 2 * getattr(field, "precision", 16 * field.e_abs + 16)
    return field_from_spec(spec)


def field_from_file(path) -> LocalField:
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise InvalidParams("field spec file must contain a JSON object")
    return field_from_spec(spec)


def q2(precision: int | None = None) -> LocalField:
    spec = {"f": 1, "e": 1}
    if precision is not None:
        spec["precision"] = precision
    return field_from_spec(spec)
