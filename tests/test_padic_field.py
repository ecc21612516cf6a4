import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import q2, quad_elt

from q2quartic.errors import InvalidParams, PrecisionExhausted
from q2quartic.oracle.cache import _cache_path
from q2quartic.padic.field import (
    TRIVIAL,
    UNRAMIFIED,
    LocalField,
    field_from_spec,
    ramified_quadratic,
    with_doubled_precision,
)
from q2quartic.padic.quartic import _disc_val
from q2quartic.padic.rings import EisensteinStep, UnramifiedRing
from q2quartic.params import MinusOneClass


def exhaustive_square_classes_mod32():
    # odd squares mod 32 determine unit square classes of Q2
    squares = {(x * x) % 32 for x in range(1, 32, 2)}
    return squares


def test_is_square_q2_vs_exhaustive(Q2):
    squares_mod32 = exhaustive_square_classes_mod32()
    for n in range(1, 64, 2):
        assert Q2.is_square(Q2.from_int(n)) == (n % 32 in squares_mod32), n
    assert not Q2.is_square(Q2.from_int(2))
    assert Q2.is_square(Q2.from_int(4))
    assert not Q2.is_square(Q2.from_int(-4))


def test_hecke_disc_q2(Q2):
    cases = {3: 2, 5: UNRAMIFIED, 2: 3, 9: TRIVIAL, -1: 2, -2: 3, 7: 2, 10: 3, 17: TRIVIAL}
    for n, want in cases.items():
        assert Q2.hecke_disc(Q2.from_int(n)) == want, n


def test_square_class_reps_q2(Q2):
    reps = Q2.square_class_reps()
    assert len(reps) == 8
    R = Q2.ring
    # pairwise inequivalent: the product of two distinct classes is not a square
    for i in range(8):
        assert Q2.is_square(R.mul(reps[i], reps[i]))
        for j in range(i + 1, 8):
            assert not Q2.is_square(R.mul(reps[i], reps[j]))
    # exactly one class generates the unramified quadratic extension
    unram = [r for r in reps if Q2.hecke_disc(r) == UNRAMIFIED]
    assert len(unram) == 1
    # the classical representatives {1,5,3,7,2,10,6,14} land in distinct classes
    classic = [1, 5, 3, 7, 2, 10, 6, 14]
    matched = set()
    for n in classic:
        x = Q2.from_int(n)
        hits = [i for i, r in enumerate(reps) if Q2.is_square(R.mul(x, r))]
        assert len(hits) == 1
        matched.add(hits[0])
    assert len(matched) == 8


@pytest.mark.parametrize(
    "spec,size",
    [({"f": 2}, 16), ({"f": 1, "eisenstein": [-2, 0, 1]}, 16)],
)
def test_square_class_reps_sizes(spec, size):
    K = field_from_spec(spec)
    reps = K.square_class_reps()
    assert len(reps) == size
    R = K.ring
    for i in range(size):
        for j in range(i + 1, size):
            assert not K.is_square(R.mul(reps[i], reps[j]))
    assert sum(1 for r in reps if K.hecke_disc(r) == UNRAMIFIED) == 1


def brute_hilbert(a, b, modulus=32):
    # z^2 = a x^2 + b y^2 with a primitive solution mod 2^5; primitive
    # solutions of these small-valuation forms lift by Hensel's lemma
    for x in range(modulus):
        for y in range(modulus):
            for z in range(modulus):
                if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                    continue
                if (z * z - a * x * x - b * y * y) % modulus == 0:
                    return 1
    return -1


def norm_group_hilbert(K, a, b):
    """+1 if b is a norm from K(sqrt(a)), read off the norm map of ramified_quadratic.

    K^x2 lies in the norm group, so b is a norm iff b * N(z) is a square
    for some square-class representative z of E = K(sqrt(a)).
    """
    da = K.hecke_disc(a)
    if da == TRIVIAL:
        return 1
    if da == UNRAMIFIED:
        return 1 if K.val(b) % 2 == 0 else -1
    E = ramified_quadratic(K, a)
    norms = (E.norm(z) for z in E.square_class_reps())
    return 1 if any(K.is_square(K.ring.mul(n, b)) for n in norms) else -1


@pytest.mark.parametrize("a", [-1, 2, 3, 5, -2, 1])
@pytest.mark.parametrize("b", [-1, 2, 3, 5, -10, 1])
def test_hilbert_symbol_vs_brute(Q2, a, b):
    assert norm_group_hilbert(Q2, Q2.from_int(a), Q2.from_int(b)) == brute_hilbert(a, b)


def test_hilbert_symbol_symmetry_bimultiplicative(Q2):
    R = Q2.ring
    reps = Q2.square_class_reps()
    h = lambda a, b: norm_group_hilbert(Q2, a, b)
    for a in reps:
        for b in reps:
            assert h(a, b) == h(b, a)
    a = reps[5]
    for b in reps:
        for c in reps:
            assert h(a, R.mul(b, c)) == h(a, b) * h(a, c)


def test_derive_params_examples(Q2):
    assert Q2.derive_params().to_json() == {
        "e": 1, "f": 1, "q": 2, "d_minus_one": 2, "minus_one_class": "ramified",
    }
    # Q2(sqrt(3)) via the Eisenstein polynomial of 1+sqrt(3)
    k3 = field_from_spec({"f": 1, "eisenstein": [-2, -2, 1]})
    p3 = k3.derive_params()
    assert (p3.e, p3.f, p3.d_minus_one, p3.minus_one_class) == (2, 1, 0, MinusOneClass.UNRAMIFIED)
    # Q2(i) via the Eisenstein polynomial of 1+i
    ki = field_from_spec({"f": 1, "eisenstein": [2, -2, 1]})
    pi = ki.derive_params()
    assert (pi.e, pi.f, pi.d_minus_one, pi.minus_one_class) == (2, 1, 0, MinusOneClass.SQUARE)


def test_ramified_quadratic_structure(Q2):
    R = Q2.ring
    E = ramified_quadratic(Q2, Q2.from_int(2))
    # in the theta-basis theta = sqrt(2), so N(theta) = -2
    assert E.norm(quad_elt(E, R.zero, R.one)) == Q2.from_int(-2)
    # d becomes a square in E = K(sqrt(d)); -1 does not
    assert E.is_square(E.from_int(2))
    assert not E.is_square(E.from_int(-1))
    # unit-class extension: d = -1
    Em = ramified_quadratic(Q2, Q2.from_int(-1))
    assert Em.is_square(Em.from_int(-1))
    assert not Em.is_square(Em.from_int(2))
    with pytest.raises(InvalidParams):
        ramified_quadratic(Q2, Q2.from_int(9))
    with pytest.raises(InvalidParams):
        ramified_quadratic(Q2, Q2.from_int(5))


def test_spec_hash_of_derived_fields(Q2):
    E2 = ramified_quadratic(Q2, Q2.from_int(2))
    E6 = ramified_quadratic(Q2, Q2.from_int(6))
    assert E2.label == E6.label
    assert E2.spec_hash() != E6.spec_hash()
    assert E2.spec_hash() == ramified_quadratic(Q2, Q2.from_int(2)).spec_hash()
    assert E2.spec_hash() != Q2.spec_hash()


def test_spec_hash_of_bare_ring_fields():
    # fields built straight from a ring hash its defining data, not their label
    def eis(c1):
        base = UnramifiedRing(1, 40)
        return LocalField(EisensteinStep(base, [base.from_int(-2), base.from_int(c1)]), label="K")

    assert eis(0).spec_hash() != eis(2).spec_hash()  # x^2 - 2 and x^2 + 2x - 2
    assert eis(0).spec_hash() == eis(0).spec_hash()
    U2, U3 = (LocalField(UnramifiedRing(f, 40), label="U") for f in (2, 3))
    assert U2.spec_hash() != U3.spec_hash()
    over_u2 = LocalField(EisensteinStep(U2.ring, [U2.from_int(2)]), label="K")
    over_u3 = LocalField(EisensteinStep(U3.ring, [U3.from_int(2)]), label="K")
    assert over_u2.spec_hash() != over_u3.spec_hash()
    E = eis(0).ring
    assert LocalField(EisensteinStep(E, [E.shift(E.one, 1)])).spec_hash() != eis(0).spec_hash()


def test_spec_hash_pinned():
    # cache keys of code-built fields: existing oracle cache files stay valid
    # only while these values do not change
    Q2 = q2()
    U2 = field_from_spec({"f": 2})
    K = field_from_spec({"f": 1, "eisenstein": [-2, 0, 1]})
    R = UnramifiedRing(2, 40)
    hashes = [
        ramified_quadratic(Q2, Q2.from_int(2)).spec_hash(),
        ramified_quadratic(U2, U2.from_int(2)).spec_hash(),
        ramified_quadratic(K, K.ring.shift(K.ring.one, 1)).spec_hash(),
        LocalField(EisensteinStep(R, [R.from_int(2)])).spec_hash(),
    ]
    assert hashes == [
        "ef9752da9de6ea18",
        "4f5bae7811902fa4",
        "965e83d706e05871",
        "88375870dfd02fe0",
    ]


@pytest.mark.parametrize("spec, d, reach, want", [
    ({"f": 1, "e": 1}, -1, 1, "85ef66d9cd432ce1"),
    ({"f": 1, "eisenstein": [-2, 0, 1]}, (1, 0, 1, 0, 0, 1), 3, "7d2e04e2181441db"),
    ({"f": 1, "eisenstein": [-2, 0, 0, 1]}, (1, 0, 1, 1), 3, "a9a1bf54c9c30975"),
    ({"f": 2, "eisenstein": [-2, 0, 1]}, (1, 0, 2, 1), 3, "6f37432d5fd5d6ff"),
])
def test_ramified_quadratic_pinned_for_even_valuation_d(spec, d, reach, want):
    # for a unit d, E is presented through r = d * y^-1 - 1 with y the square
    # square_reach stops at, so these hashes pin that square
    K = field_from_spec(spec)
    R = K.ring
    d = K.from_int(d) if isinstance(d, int) else K.from_digits(d)
    assert K.square_reach(d)[0] == reach
    if reach == 3:
        # the walk repairs level 2 before it stops
        assert K.val(R.sub(d, R.teich(R.residue(d)))) == 2
    assert ramified_quadratic(K, d).spec_hash() == want


@st.composite
def sibling_specs(draw):
    """2 to 4 distinct Eisenstein specs of one (e, f), over Q2 or U(f), in integers or digit lists.

    Every field built from them gets the same label, so only the spec tells them apart.
    """
    f = draw(st.integers(1, 3))
    e = draw(st.integers(1, 4))
    tail = st.lists(st.integers(0, 2**f - 1), max_size=3)
    digit_lists = st.builds(
        lambda c0, middle: [c0, *middle, 1],
        st.builds(lambda t, rest: [0, t, *rest], st.integers(1, 2**f - 1), tail),
        st.lists(tail.map(lambda rest: [0, *rest]), min_size=e - 1, max_size=e - 1),
    )
    coeffs = digit_lists
    if f == 1:
        integers = st.builds(
            lambda c0, middle: [c0, *middle, 1],
            st.integers(-20, 20).map(lambda k: 4 * k + 2),
            st.lists(st.integers(-20, 20).map(lambda k: 2 * k), min_size=e - 1, max_size=e - 1),
        )
        coeffs = st.one_of(digit_lists, integers)
    lists = draw(st.lists(coeffs, min_size=2, max_size=4, unique_by=json.dumps))
    return [{"f": f, "eisenstein": c} for c in lists]


@settings(max_examples=40, deadline=None)
@given(sibling_specs())
def test_distinct_specs_give_distinct_hashes_and_cache_paths(siblings):
    specs = [*siblings, *({"f": f} for f in (1, 2, 3))]
    fields = [field_from_spec(spec) for spec in specs]
    assert len({K.spec_hash() for K in fields}) == len(specs)
    assert len({_cache_path("cache", K, "density", 11) for K in fields}) == len(specs)
    for spec, K in zip(specs, fields):
        reordered = dict(reversed(list(spec.items())))
        assert field_from_spec(reordered).spec_hash() == K.spec_hash()


@pytest.mark.parametrize("spec", [
    {"f": 1, "eisenstein": [-2, 0, 1]},
    {"f": 1, "eisenstein": [-2, 0, 0, 1]},
])
def test_square_class_predicates_never_invert(spec, monkeypatch):
    # square_reach reads u - x^2; hecke_disc, is_square and the coordinate
    # walk must not divide
    K = field_from_spec(spec)
    reps = K.square_class_reps()

    def no_inverse(self, a):
        raise AssertionError("inv_unit called")

    monkeypatch.setattr(UnramifiedRing, "inv_unit", no_inverse)
    monkeypatch.setattr(EisensteinStep, "inv_unit", no_inverse)
    hecke = [K.hecke_disc(d) for d in reps]
    squares = [K.is_square(d) for d in reps]
    assert squares.count(True) == 1 and hecke.count(TRIVIAL) == 1
    assert hecke.count(UNRAMIFIED) == 1
    assert [K.square_class_coords(d) for d in reps] == list(range(len(reps)))


def test_field_spec_validation():
    with pytest.raises(InvalidParams):
        field_from_spec({"f": 1, "eisenstein": [3, 0, 1]})  # constant not valuation 1
    with pytest.raises(InvalidParams):
        field_from_spec({"f": 1, "eisenstein": [2, 1, 1]})  # middle coefficient a unit
    with pytest.raises(InvalidParams):
        field_from_spec({"f": 1, "eisenstein": [2, 0, 3]})  # not monic
    with pytest.raises(InvalidParams):
        field_from_spec({"e": 2})
    with pytest.raises(InvalidParams):
        field_from_spec({"f": 1, "e": 2})
    with pytest.raises(InvalidParams, match="list of coefficients"):
        field_from_spec({"f": 1, "eisenstein": 5})
    with pytest.raises(InvalidParams, match="headroom"):
        field_from_spec({"f": 3000})  # refused before any residue field of degree 3000
    with pytest.raises(InvalidParams, match="residue degree"):
        field_from_spec({"f": 2048})  # within the headroom, refused before any modulus search
    with pytest.raises(InvalidParams, match="positive int"):
        field_from_spec({"f": True})
    # digit-list coefficients: [[0,1],[1]] encodes y + 2, i.e. Q2 itself
    K = field_from_spec({"f": 1, "eisenstein": [[0, 1], [1]]})
    assert K.e_abs == 1 and K.f == 1
    assert K.derive_params().d_minus_one == 2


def test_norm_quad_examples(Q2):
    R = Q2.ring
    # odd-valuation d: theta = sqrt(d), and N(x + y theta) = x^2 - d y^2
    E2 = ramified_quadratic(Q2, Q2.from_int(2))
    assert E2.norm(quad_elt(E2, Q2.from_int(2), R.one)) == Q2.from_int(2)  # N(2 + sqrt 2)
    Em = ramified_quadratic(Q2, Q2.from_int(-10))
    assert Em.norm(quad_elt(Em, R.zero, R.one)) == Q2.from_int(10)  # N(sqrt(d)) = -d
    # d = -1: theta^2 + 2 theta + 2 = 0, so theta = -1 + i up to conjugation
    Ei = ramified_quadratic(Q2, Q2.from_int(-1))
    assert Ei.norm(quad_elt(Ei, R.zero, R.one)) == Q2.from_int(2)  # N(-1 + i)
    assert Ei.norm(quad_elt(Ei, R.one, R.one)) == R.one  # N(i)


def test_classify_tower_examples(Q2):
    from q2quartic.padic.quartic import classify_tower_from_norm
    from q2quartic.params import GroupTag

    def tower(d, x, y):
        # closure group of Q2(sqrt(d), sqrt(x + y sqrt(d))) from N(alpha) = x^2 - d y^2
        return classify_tower_from_norm(Q2, Q2.from_int(d), Q2.from_int(x * x - d * y * y))

    # alpha = 2 + sqrt(2): norm 2 lies in 2 * squares
    assert tower(2, 2, 1) is GroupTag.C4
    # alpha = sqrt(2): norm -2
    assert tower(2, 0, 1) is GroupTag.D4
    # alpha = i over E = Q2(i): norm 1 is a square
    assert tower(-1, 0, 1) is GroupTag.V4


@pytest.mark.parametrize(
    "call",
    [
        lambda K: K.is_square(0),
        lambda K: K.hecke_disc(0),
        lambda K: K.square_class_coords(0),
        lambda K: ramified_quadratic(K, 0),
        lambda K: _disc_val(K, 0),
    ],
    ids=["is_square", "hecke_disc", "square_class_coords", "ramified_quadratic", "disc_val"],
)
def test_zero_has_no_certified_valuation(Q2, call):
    with pytest.raises(PrecisionExhausted, match="cannot certify"):
        call(Q2)


def test_precision_bound_is_three_doublings_of_the_default():
    K = field_from_spec({"f": 1, "eisenstein": [-2, 0, 1]})
    for _ in range(3):
        K = with_doubled_precision(K)
    assert K.precision == 8 * (16 * 2 + 16)
    with pytest.raises(PrecisionExhausted, match="bound"):
        with_doubled_precision(K)
    with pytest.raises(InvalidParams, match="at most"):
        field_from_spec({**K.spec, "precision": K.precision + 1})
