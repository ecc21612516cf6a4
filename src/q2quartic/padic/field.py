"""Concrete 2-adic fields and their valuation-theoretic predicates.

A ``LocalField`` wraps a ring tower from :mod:`q2quartic.padic.rings`:
the unramified subfield U of residue degree f, optionally extended by one
Eisenstein step.  Quadratic extensions built by :func:`ramified_quadratic`
are again ``LocalField`` instances (with a ``base_field`` back-pointer and
a norm map), so all predicates below work uniformly at both levels of a
tower.

The central primitive is one walk over the square classes: for a unit u
it finds how closely u can be approximated by squares, by repairing the
leading digit of u - y one level at a time, y a square times the basis
units recorded so far.  Even levels below 2*v(2) are always repairable
(residue fields of characteristic two are perfect), an odd level is an
obstruction, and level 2*v(2) is an Artin-Schreier condition.  The walk
never divides: y keeps the residue of u, so u - y and u/y - 1 share their
valuation, and their leading digits differ by the fixed factor res(u)^-1.

F^x / F^x2 is an F_2-vector space of dimension [F:Q_2] + 2, and
:meth:`LocalField.square_class_coords` gives every element its coordinate
vector, an int, in one fixed basis:

* bit 0 is the uniformiser pi;
* bit 1 + j*f + k is 1 + [2^k] pi^(2j+1), one residue-basis digit at each
  odd level 2j+1 < 2*v(2);
* the last bit is 1 + [c*] pi^(2*v(2)), the unramified class, where c* is
  a residue outside the image of s -> s^2 + gamma*s.

``square_class_coords`` runs the walk to its end: at each obstruction it
records the digit's bits and multiplies their basis units into y.
Products and norms of elements then become XORs of coordinate vectors,
which is how the tower oracle classifies its pairs.
:meth:`LocalField.square_reach` stops the walk at its first obstruction;
squares, the unramified quadratic class and Hecke's discriminant-exponent
formula (``is_square``, ``hecke_disc``) read off from that level.
:meth:`LocalField.square_class_prefix` stops it once past a given level
as well, for the coordinate bits up to that level.
"""

from __future__ import annotations

import hashlib
import json

from ..errors import DivisionByNonUnit, InvalidParams, PrecisionExhausted
from ..params import FieldParams, MinusOneClass
from .rings import EisensteinStep, UnramifiedRing, leading_residue, unpack

TRIVIAL = "trivial"
UNRAMIFIED = "unramified"

_PREC_GUARD = 48
_PRECISION_LIMIT = 8  # a spec's precision is at most 8x the default 16e+16: three doublings


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
        self._sqbasis = None
        self._reps = {0: ring.one}  # square-class coordinates -> square_class_rep
        self._digit_table = {}
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

    def _square_walk(self, u):
        """Walk a unit u towards the squares; yield (l, coords, y) at each obstruction.

        y = x^2 * (the basis units recorded so far) keeps res(y) = res(u), and
        each step reads l = v(u - y).  An even level is cleared by the square
        of a digit below 2*v(2), and at 2*v(2) by an Artin-Schreier square if
        one exists; the digit is the leading digit of u - y times res(u)^-1.
        Any other level is an obstruction: the walk yields l, the coordinates
        recorded so far and y, and only when resumed reads the level's bits
        (an odd level's digit, or the unramified bit) and multiplies their
        basis units into y.  Once u/y = 1 + O(pi^{2v(2)+1}) it yields
        (2*v(2)+1, the coordinates of u, y) and ends.
        """
        ring, res = self.ring, self.res
        w, f = self.e_abs, self.f
        r0 = ring.residue(u)
        if r0 == 0:
            raise DivisionByNonUnit("square_reach needs a unit")
        top = 2 * w + 1
        if top + 2 > ring.cap:
            raise PrecisionExhausted("field precision below 2*v(2)+3")
        r0_inv = res.inv(r0)
        y = ring.teich(r0)
        coords = 0
        for _ in range(top + 2):
            d = ring.sub(u, y)
            l = ring.val(d)
            if l is None or l >= top:
                yield top, coords, y
                return
            if l % 2 == 0:
                rbar = res.mul(leading_residue(ring, d, l), r0_inv)
                s = res.sqrt(rbar) if l < 2 * w else self._artin_schreier_fix(rbar)
                if s is not None:
                    y = ring.mul(y, self._digit_square(s, l // 2))
                    continue
            yield l, coords, y
            if l % 2 == 1:
                c = res.mul(leading_residue(ring, d, l), r0_inv) << (1 + (l // 2) * f)
            else:
                c = 1 << (1 + w * f)
            coords |= c
            y = ring.mul(y, self.square_class_rep(c))
        raise PrecisionExhausted("the square-class walk failed to terminate within budget")

    def square_reach(self, u):
        """For a unit u, return (reach, y): the square-class walk stopped at its first obstruction.

        reach = 2*v(2)+1 means u = y * (1 + O(pi^{2v(2)+1})), hence a square;
        reach = 2*v(2) marks the unramified quadratic class; an odd
        reach < 2*v(2) is the Hecke invariant kappa.  y is a square, and
        v(u - y) = reach when reach < 2*v(2)+1.
        """
        reach, _, y = next(self._square_walk(u))
        return reach, y

    def square_class_prefix(self, u, level: int):
        """For a unit u, return (reach, coords): reach as in ``square_reach``, and
        coords the bits of u's coordinate vector at every level <= ``level``.

        The square-class walk stops at its first obstruction above both
        ``level`` and reach, so ``level`` = 0 costs what ``square_reach`` does.
        """
        walk = self._square_walk(u)
        reach, coords, _ = next(walk)
        if reach <= level:
            for l, coords, _ in walk:
                if l > level:
                    break
        return reach, coords

    def _artin_schreier_fix(self, rbar):
        """A residue s with s^2 + gamma*s = rbar, or None."""
        res, gamma = self.res, self._gamma
        for s in res.elements():
            if res.add(res.mul(s, s), res.mul(gamma, s)) == rbar:
                return s
        return None

    def is_square(self, a) -> bool:
        v = _certified_val(self, a)
        if v % 2 != 0:
            return False
        u = self.ring.shift(a, -v)
        return self.square_reach(u)[0] == 2 * self.e_abs + 1

    def hecke_disc(self, alpha):
        """Discriminant exponent of F(sqrt(alpha))/F: int, UNRAMIFIED, or TRIVIAL."""
        v = _certified_val(self, alpha)
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

        The square-class walk of the unit part of a, run to its end: the
        coordinates are the valuation's parity and the bits every
        obstruction records.
        """
        v = _certified_val(self, a)
        # the walk's last item carries the coordinates of the whole unit part
        *_, (_, coords, _) = self._square_walk(self.ring.shift(a, -v))
        return coords | (v & 1)

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

    def square_class_rep(self, c: int):
        """The product of the basis units selected by the bits of c, cached.

        Built from the product without c's lowest bit by one multiplication
        or, for bit 0, one shift; ``square_class_coords`` of it is c.
        """
        rep = self._reps.get(c)
        if rep is None:
            ring = self.ring
            low = c & -c
            prev = self.square_class_rep(c ^ low)
            if low == 1:
                rep = ring.shift(prev, 1)
            else:
                rep = ring.mul(prev, self.square_class_basis()[low.bit_length() - 1])
            self._reps[c] = rep
        return rep

    def square_class_reps(self):
        """A complete duplicate-free system of representatives of F^x / F^x2.

        reps[c] = ``square_class_rep(c)``; size 2^{[F:Q_2] + 2}.
        """
        return [self.square_class_rep(c) for c in range(1 << self.square_class_dim)]

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
        h = self.hecke_disc(self.ring.from_int(-1))
        if h == TRIVIAL:
            cls, d = MinusOneClass.SQUARE, 0
        elif h == UNRAMIFIED:
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


def _certified_val(K: LocalField, a, what: str = "element") -> int:
    """v(a); PrecisionExhausted if a vanishes to working precision."""
    v = K.val(a)
    if v is None:
        raise PrecisionExhausted(f"cannot certify {what} nonzero")
    return v


def _ring_data(ring):
    """f, the residue modulus and, step by step, the Eisenstein lower coefficients."""
    if isinstance(ring, EisensteinStep):
        return [_ring_data(ring.base), _coeffs_repr(ring.base, ring.g)]
    return [ring.f, ring.res.modulus]


def _coeffs_repr(ring, elements) -> str:
    """repr of the elements as nested coefficient tuples, the form cache keys hash."""
    return repr(tuple(unpack(ring, a) for a in elements))


def ramified_quadratic(K: LocalField, d) -> LocalField:
    """The quadratic extension E = K(sqrt(d)) for d in a ramified square class.

    E is presented as K[theta]/(theta^2 + B theta + C) for a uniformiser
    theta, so valuations in E stay exact.  The returned field knows its
    norm map.
    """
    ring = K.ring
    v = _certified_val(K, d, "d")
    if v % 2:
        u = ring.shift(d, -(v - 1))  # pi * unit
        B, C = ring.zero, ring.neg(u)
    else:
        u = ring.shift(d, -v)
        reach, y = K.square_reach(u)
        if reach == 2 * K.e_abs + 1:
            raise InvalidParams("d is a square; no quadratic extension")
        if reach == 2 * K.e_abs:
            raise InvalidParams("d generates the unramified quadratic extension")
        j = (reach - 1) // 2  # reach is the Hecke invariant kappa
        r = ring.sub(ring.mul(u, ring.inv_unit(y)), ring.one)
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
         "precision": int}          # optional pi-adic digits, default 16e+16, at most 8x that

    Each coefficient is an integer, or a little-endian list of 2-adic
    digits whose entries encode residue-field elements (0 <= digit < 2^f).
    The unramified field itself is ``{"f": f}`` or ``{"f": f, "e": 1}``.
    """
    if "f" not in spec:
        raise InvalidParams("field spec needs 'f'")
    f = spec["f"]
    if type(f) is not int or f < 1:
        raise InvalidParams(f"f must be a positive int, got {f!r}")
    eis = spec.get("eisenstein")
    if eis is None:
        if spec.get("e", 1) != 1:
            raise InvalidParams("e > 1 requires an 'eisenstein' entry")
        e = 1
    else:
        if type(eis) is not list:
            raise InvalidParams(f"eisenstein entry must be a list of coefficients, got {eis!r}")
        e = len(eis) - 1
        if e < 1:
            raise InvalidParams("eisenstein entry must list at least two coefficients")
        if "e" in spec and spec["e"] != e:
            raise InvalidParams(f"e={spec['e']} conflicts with eisenstein degree {e}")
    prec = spec.get("precision", 16 * e + 16)
    top = _PRECISION_LIMIT * (16 * e + 16)
    if type(prec) is not int or not 1 <= prec <= top:
        raise InvalidParams(f"precision must be a positive int of at most {top}, got {prec!r}")
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
    if 2 * field.precision > _PRECISION_LIMIT * (16 * field.e_abs + 16):
        raise PrecisionExhausted(f"doubling precision {field.precision} passes the spec bound")
    spec = dict(field.spec)
    spec["precision"] = 2 * field.precision
    return field_from_spec(spec)


def field_from_file(path) -> LocalField:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidParams(f"cannot read field spec {path!r}: {exc}") from None
    if not isinstance(spec, dict):
        raise InvalidParams("field spec file must contain a JSON object")
    return field_from_spec(spec)
