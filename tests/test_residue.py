import random

import pytest

from q2quartic.errors import DegenerateLeadingCoefficient
from q2quartic.residue import ResidueField, _clmul, _pmod, cubic_image_size, quad_root_count


def brute_quad_roots(F, a, b, c):
    return sum(
        1 for x in F.elements() if F.add(F.add(F.mul(a, F.mul(x, x)), F.mul(b, x)), c) == 0
    )


def brute_cubic_image(F, lam, mu):
    # image size of c -> lam*c + mu*c^3 on the full residue field
    return len({F.add(F.mul(lam, c), F.mul(mu, F.pow(c, 3))) for c in F.elements()})


@pytest.mark.parametrize("f", [1, 2, 3, 4, 8, 13, 32, 64])
def test_mul_is_the_reduced_carry_less_product(f):
    # mul returns a factor 0 or 1 at once; every other product is reduced
    F = ResidueField(f)
    if f <= 4:
        pairs = [(a, b) for a in F.elements() for b in F.elements()]
    else:
        rng = random.Random(f)
        xs = [0, 1, 2, F.q - 1, *(rng.randrange(F.q) for _ in range(60))]
        pairs = [(a, b) for a in xs for b in xs]
    for a, b in pairs:
        assert F.mul(a, b) == _pmod(_clmul(a, b), F.modulus), (a, b)


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_trace_linear_frobenius_invariant_surjective(f):
    F = ResidueField(f)
    values = set()
    for x in F.elements():
        tx = F.trace(x)
        assert tx in (0, 1)
        values.add(tx)
        assert F.trace(F.mul(x, x)) == tx
        for y in F.elements():
            assert F.trace(F.add(x, y)) == tx ^ F.trace(y)
    assert values == {0, 1}


def test_trace_examples():
    F1 = ResidueField(1)
    assert F1.trace(1) == 1
    F2 = ResidueField(2)
    gen = 2  # the residue generator of F_4
    assert F2.trace(gen) == 1  # w + w^2 = 1
    assert F2.trace(1) == 0


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_quad_root_count_exhaustive(f):
    F = ResidueField(f)
    for a in F.elements():
        if a == 0:
            continue
        for b in F.elements():
            for c in F.elements():
                assert quad_root_count(F, a, b, c) == brute_quad_roots(F, a, b, c)


def test_quad_root_count_examples():
    F = ResidueField(1)
    assert quad_root_count(F, 1, 0, 1) == 1
    assert quad_root_count(F, 1, 1, 1) == 0
    assert quad_root_count(F, 1, 1, 0) == 2
    with pytest.raises(DegenerateLeadingCoefficient):
        quad_root_count(F, 0, 1, 1)


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_cubic_image_size_exhaustive(f):
    F = ResidueField(f)
    # lambda a unit at level n versus strictly deeper; mu always a unit at level n
    for mu in F.elements():
        if mu == 0:
            continue
        for lam in F.elements():
            expected = brute_cubic_image(F, lam, mu)
            assert cubic_image_size(lam != 0, f) == expected


def test_cubic_image_size_examples():
    assert cubic_image_size(True, 1) == 1
    # image of c -> mu*c^3 on F_2 is {0, mu}: size 2, matching the closed form
    assert cubic_image_size(False, 1) == 2
    assert cubic_image_size(True, 2) == 3
