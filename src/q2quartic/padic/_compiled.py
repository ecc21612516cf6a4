"""Straight-line code for the quartic layer's monomial tables.

Generated by ``tests/helpers.py`` from ``_DISC_MONOMIALS`` and
``_RESOLVENT_MONOMIALS`` in :mod:`q2quartic.padic.quartic`; do not edit.
After a table changes, regenerate it from the root of a checkout with

    PYTHONPATH=src python tests/helpers.py

``disc_by_a3`` and ``resolvent`` evaluate the tables in a ring R, each
power a_i^n computed once and the monomials sharing a coefficient k summed
before they are multiplied by it.  ``disc_by_a3`` groups the
discriminant's monomials by their power of a3: it returns the coefficients
of disc as a polynomial in a3, which ``disc_raw``, the one discriminant
evaluation, reads at a3 by Horner.  The bound functions take a density
node fixing c_i digits of a_i with v(a_i) >= vh_i, and e = v_K(2); each is
the least valuation of a perturbation term of its table: for a monomial
k * prod a_j^alpha_j and 0 < beta <= alpha, the binomial term
k * prod C(alpha_j, beta_j) a^(alpha-beta) delta^beta has valuation at
least e v2(k prod C) + sum_j ((alpha_j - beta_j) vh_j + beta_j c_j).  Terms
that another term bounds for every vh <= c are left out.
"""


def disc_by_a3(R, a0, a1, a2):
    """The discriminant as d0 + d1 a3 + .. + d4 a3^4: (d0, .., d4)."""
    mul, add, sub, neg = R.mul, R.add, R.sub, R.neg
    c = R.from_int
    a0_2 = mul(a0, a0)
    a0_3 = mul(a0_2, a0)
    a1_2 = mul(a1, a1)
    a1_3 = mul(a1_2, a1)
    a1_4 = mul(a1_3, a1)
    a2_2 = mul(a2, a2)
    a2_3 = mul(a2_2, a2)
    a2_4 = mul(a2_3, a2)
    d0 = mul(c(256), a0_3)
    d0 = add(d0, mul(c(144), mul(mul(a0, a1_2), a2)))
    d0 = add(d0, mul(c(16), mul(a0, a2_4)))
    d0 = sub(d0, mul(c(128), mul(a0_2, a2_2)))
    d0 = sub(d0, mul(c(27), a1_4))
    d0 = sub(d0, mul(c(4), mul(a1_2, a2_3)))
    d1 = mul(c(18), mul(a1_3, a2))
    d1 = sub(d1, mul(c(192), mul(a0_2, a1)))
    d1 = sub(d1, mul(c(80), mul(mul(a0, a1), a2_2)))
    d2 = mul(c(144), mul(a0_2, a2))
    d2 = add(d2, mul(a1_2, a2_2))
    d2 = sub(d2, mul(c(6), mul(a0, a1_2)))
    d2 = sub(d2, mul(c(4), mul(a0, a2_3)))
    d3 = mul(c(18), mul(mul(a0, a1), a2))
    d3 = sub(d3, mul(c(4), a1_3))
    d4 = neg(mul(c(27), a0_2))
    return d0, d1, d2, d3, d4


def resolvent(R, a0, a1, a2, a3):
    """(r0, r1, r2) of the resolvent cubic y^3 + r2 y^2 + r1 y + r0."""
    mul, add, sub, neg = R.mul, R.add, R.sub, R.neg
    c = R.from_int
    a1_2 = mul(a1, a1)
    a3_2 = mul(a3, a3)
    r0 = mul(c(4), mul(a0, a2))
    t = add(mul(a0, a3_2), a1_2)
    r0 = sub(r0, t)
    r1 = mul(a1, a3)
    r1 = sub(r1, mul(c(4), a0))
    r2 = neg(a2)
    return r0, r1, r2


def disc_bound(cs, vh, e):
    """Least valuation of a perturbation term of the discriminant at the node."""
    c0, c1, c2, c3 = cs
    v0, v1, v2, v3 = vh
    return min(
        8 * e + 2 * v0 + c0,
        6 * e + 2 * v0 + v1 + c3,
        6 * e + 2 * v0 + v3 + c1,
        7 * e + v0 + v1 + v3 + c0,
        6 * e + v1 + v3 + 2 * c0,
        8 * e + 2 * v0 + v2 + c2,
        7 * e + 2 * v0 + 2 * c2,
        8 * e + v0 + 2 * v2 + c0,
        7 * e + 2 * v2 + 2 * c0,
        4 * e + v0 + 2 * v1 + c2,
        5 * e + v0 + v1 + v2 + c1,
        4 * e + v0 + v2 + 2 * c1,
        4 * e + 2 * v1 + v2 + c0,
        2 * e + 3 * v1 + c1,
        e + 2 * v1 + 2 * c1,
        4 * c1,
        5 * e + 2 * v0 + v2 + v3 + c3,
        4 * e + 2 * v0 + v2 + 2 * c3,
        4 * e + 2 * v0 + 2 * v3 + c2,
        5 * e + v0 + v2 + 2 * v3 + c0,
        4 * e + v2 + 2 * v3 + 2 * c0,
        2 * e + v0 + 2 * v1 + v3 + c3,
        e + v0 + 2 * v1 + 2 * c3,
        2 * e + v0 + v1 + 2 * v3 + c1,
        e + v0 + 2 * v3 + 2 * c1,
        e + 2 * v1 + 2 * v3 + c0,
        4 * e + v0 + v1 + 2 * v2 + c3,
        5 * e + v0 + v1 + v2 + v3 + c2,
        4 * e + v0 + v1 + v3 + 2 * c2,
        4 * e + v0 + 2 * v2 + v3 + c1,
        4 * e + v1 + 2 * v2 + v3 + c0,
        e + 3 * v1 + v2 + c3,
        e + 3 * v1 + v3 + c2,
        e + 2 * v1 + v2 + v3 + c1,
        6 * e + v0 + 3 * v2 + c2,
        5 * e + v0 + 2 * v2 + 2 * c2,
        4 * e + v0 + 4 * c2,
        4 * e + 4 * v2 + c0,
        2 * e + 2 * v1 + 2 * v2 + c2,
        3 * e + v1 + 3 * v2 + c1,
        2 * e + 3 * v2 + 2 * c1,
        2 * e + 2 * v0 + 3 * v3 + c3,
        e + 2 * v0 + 2 * v3 + 2 * c3,
        2 * v0 + 4 * c3,
        e + v0 + 4 * v3 + c0,
        4 * v3 + 2 * c0,
        e + v0 + v1 + v2 + 2 * v3 + c3,
        e + v0 + v1 + 3 * v3 + c2,
        e + v0 + v2 + 3 * v3 + c1,
        e + v1 + v2 + 3 * v3 + c0,
        2 * e + 3 * v1 + 2 * v3 + c3,
        2 * e + 2 * v1 + 3 * v3 + c1,
        3 * e + v0 + 3 * v2 + v3 + c3,
        2 * e + v0 + 3 * v2 + 2 * c3,
        2 * e + v0 + 2 * v2 + 2 * v3 + c2,
        2 * e + 3 * v2 + 2 * v3 + c0,
        e + 2 * v1 + 2 * v2 + v3 + c3,
        2 * v1 + 2 * v2 + 2 * c3,
        e + 2 * v1 + v2 + 2 * v3 + c2,
        2 * v1 + 2 * v3 + 2 * c2,
        e + v1 + 2 * v2 + 2 * v3 + c1,
        2 * v2 + 2 * v3 + 2 * c1,
    )


def r0_bound(cs, vh, e):
    """Least valuation of a perturbation term of the resolvent's r0 at the node."""
    c0, c1, c2, c3 = cs
    v0, v1, v2, v3 = vh
    return min(
        e + v0 + v3 + c3,
        v0 + 2 * c3,
        2 * v3 + c0,
        e + v1 + c1,
        2 * c1,
        2 * e + v0 + c2,
        2 * e + v2 + c0,
    )


def r1_bound(cs, vh, e):
    """Least valuation of a perturbation term of the resolvent's r1 at the node."""
    c0, c1, c2, c3 = cs
    v0, v1, v2, v3 = vh
    return min(
        v1 + c3,
        v3 + c1,
        2 * e + c0,
    )


def r2_bound(cs, vh, e):
    """Least valuation of a perturbation term of the resolvent's r2 at the node."""
    c0, c1, c2, c3 = cs
    v0, v1, v2, v3 = vh
    return c2
