import logging
from collections import Counter
from fractions import Fraction

import pytest

from q2quartic import counts as C
from q2quartic.errors import ClassInstability, InvalidParams, NonIntegralCount
from q2quartic.oracle import density as D
from q2quartic.oracle.dedup import dedup_counts
from q2quartic.oracle.density import density_counts, density_measures
from q2quartic.oracle.measure import (
    cubic_congruence_measure,
    measure_set,
    one_aut_measure,
    t_m_measure,
)
from q2quartic.padic.field import field_from_spec, ramified_quadratic
from q2quartic.params import GROUP_ORDER, aut_order

_CERTIFICATES = ("leaves_krasner", "leaves_tower", "leaves_coset")
_RUN_KEYS = ("leaves", "pruned", "max_depth", "root_count_cross_checks", *_CERTIFICATES)

# Q2 and the bases of the tower criteria 10 and 13: every class of -1
_TOWER_BASES = [
    {"f": 1},
    {"f": 1, "eisenstein": [-2, 0, 1]},
    {"f": 1, "eisenstein": [2, 0, 1]},
    {"f": 1, "eisenstein": [-6, 0, 1]},
    {"f": 1, "eisenstein": [-2, 0, 0, 1]},
    {"f": 2},
    {"f": 3},
    {"f": 1, "eisenstein": [2, 2, 1]},
    {"f": 1, "eisenstein": [-2, -2, 1]},
    {"f": 1, "eisenstein": [-2, 0, 0, 0, 1]},
    {"f": 4},
    {"f": 2, "eisenstein": [-2, 0, 1]},
]


def test_density_counts_q2_m8_full_cross_check(Q2):
    p = Q2.derive_params()
    dc, meta = density_counts(Q2, 8, cross_check_every=1)
    for m in range(0, 9):
        for g in GROUP_ORDER:
            assert dc.get((m, g), 0) == C.count(p, m, g)
    assert meta["root_count_cross_checks"] == meta["leaves"]
    assert meta["pruned"] > 0


def test_density_counts_q2_full_support(Q2):
    p = Q2.derive_params()
    dc, meta = density_counts(Q2, cross_check_every=1)
    expected = {
        (m, g): C.count(p, m, g)
        for m in range(0, 12)
        for g in GROUP_ORDER
        if C.count(p, m, g)
    }
    assert dc == expected
    # every leaf is certified once, and every certificate closes some leaf
    assert sum(meta[c] for c in _CERTIFICATES) == meta["leaves"] == meta["root_count_cross_checks"]
    assert all(meta[c] > 0 for c in _CERTIFICATES)


def test_density_measures_against_one_aut_density(Q2):
    measures, _ = density_measures(Q2, cross_check_every=0)
    q = 2
    for m in (4, 6, 8):
        got = sum(v for (mm, g), v in measures.items() if mm == m and g.value in ("S4", "A4"))
        expect = (
            Fraction(q - 1, 1) ** 2
            * Fraction(1, q ** (-(-2 * m // 3) + 3))
            * (1 + (Fraction(1 - 2 * q, 3 * q) if m % 6 == 0 else 0))
        )
        assert got == expect


def test_density_jobs_parallel_matches_serial(Q2):
    serial, _ = density_counts(Q2, 8, jobs=1)
    parallel, _ = density_counts(Q2, 8, jobs=2)
    assert serial == parallel


def test_root_orbit_symmetry_u2(U2):
    # the guard for enumerating one root: all q-1 roots end in the same
    # number of leaves and dropped classes per cell and depth
    tallies = []
    for root in D._root_nodes(U2.q):
        enum = D._Enumerator(U2, 6, cross_check_every=0)
        enum.run([root])
        tallies.append(enum.tally)
    assert len(tallies) == 3
    for tally in tallies[1:]:
        assert tally == tallies[0]
    summed = {}
    for tally in tallies:
        for (cell, depth), n in tally.items():
            if cell is not None:
                summed[cell] = summed.get(cell, Fraction(0)) + Fraction(n, U2.q**depth)
    measures, meta = density_measures(U2, 6, cross_check_every=0)
    assert measures == summed
    assert meta["root_orbit"] == 3
    dropped = sum(n for (cell, _), n in tallies[0].items() if cell is None)
    assert (meta["leaves"], meta["pruned"]) == (sum(tallies[0].values()) - dropped, dropped)


@pytest.mark.parametrize(
    "walk",
    [
        lambda K: density_measures(K, 8, cross_check_every=0),
        lambda K: dedup_counts(K, 6),
    ],
    ids=["density", "dedup"],
)
def test_conservation_catches_a_lost_leaf(monkeypatch, Q2, walk):
    # a leaf the walk forgets to record leaves its measure unaccounted for
    add_leaf = D._Enumerator._add_leaf
    lost = []

    def lossy(self, mg, fq, digits):
        if not lost:
            lost.append(digits)
            return False
        return add_leaf(self, mg, fq, digits)

    monkeypatch.setattr(D._Enumerator, "_add_leaf", lossy)
    with pytest.raises(NonIntegralCount, match="enumeration lost measure"):
        walk(Q2)
    assert len(lost) == 1


@pytest.mark.parametrize("field, m_max", [("Q2", 11), ("U2", 6), ("K_sqrt2", 8)])
def test_density_jobs2_matches_serial(request, field, m_max):
    K = request.getfixturevalue(field)
    serial, smeta = density_counts(K, m_max, jobs=1)
    parallel, pmeta = density_counts(K, m_max, jobs=2)
    assert serial == parallel
    assert [smeta[k] for k in _RUN_KEYS] == [pmeta[k] for k in _RUN_KEYS]
    assert smeta["jobs"] == 1
    assert pmeta["jobs"] == min(2, D._available_cores())


def test_density_jobs2_cross_checks_every_leaf(U2):
    _, meta = density_counts(U2, 6, jobs=2, cross_check_every=1)
    assert meta["root_count_cross_checks"] == meta["leaves"] > 0


def test_density_jobs2_field_without_spec(Q2):
    E = ramified_quadratic(Q2, Q2.from_int(2))
    assert E.spec is None
    serial, _ = density_counts(E, 6, jobs=1)
    parallel, meta = density_counts(E, 6, jobs=2)
    assert serial == parallel
    assert meta["jobs"] == min(2, D._available_cores())


def test_effective_jobs_clamped_to_cores(monkeypatch, caplog):
    # only the helper runs: no process is started
    monkeypatch.setattr(D, "_available_cores", lambda: 4)
    with caplog.at_level(logging.WARNING, logger=D.__name__):
        assert D._effective_jobs(10000) == 4
    assert "jobs=10000 reduced to 4" in caplog.text
    caplog.clear()
    assert D._effective_jobs(3) == 3
    assert D._effective_jobs(1) == 1
    assert caplog.text == ""
    for bad in (0, -1):
        with pytest.raises(InvalidParams):
            D._effective_jobs(bad)



@pytest.mark.parametrize("spec", _TOWER_BASES, ids=str)
def test_minus_one_functional_counts_c4_extendable_quadratics(spec):
    # ker h = {d : (d, -1) = 1}; its ramified classes with hecke_disc m1 are
    # the quadratic extensions that embed in a C4, which n_ext counts
    K = field_from_spec(spec)
    p = K.derive_params()
    h, h_top = D._minus_one_functional(K)
    in_h = Counter(
        K.coords_hecke_disc(c)
        for c in range(1 << K.square_class_dim)
        if not (h & c).bit_count() & 1
    )
    for m1 in range(0, 2 * p.e + 2):
        assert in_h[m1] == C.n_ext(p, m1), (m1, bin(h))
    # W_k, the classes of 1 + pi^k O, is spanned by the odd-level bits at
    # levels >= k and, for k <= 2e, the unramified bit; W_k lies in ker h
    # exactly when k > h_top
    e, f = p.e, p.f
    levels = [2 * (j // f) + 1 for j in range(e * f)] + [2 * e]
    for k in range(1, 2 * e + 2):
        w_k = [1 << (i + 1) for i, level in enumerate(levels) if level >= k]
        assert all(not h & w for w in w_k) == (k > h_top), k


def test_measure_set_basics(Q2):
    q = Q2.q
    # all monic Eisenstein quartics: (q-1) q^-5
    assert measure_set(Q2, lambda fq: True, 3) == Fraction(q - 1, q**5)
    assert measure_set(Q2, lambda fq: False, 3) == 0


def test_measure_set_instability_detected(Q2):
    # a predicate reading digits beyond the class depth must be rejected
    def unstable(fq):
        v = Q2.val(fq.a2)
        return v is None or v > 3

    with pytest.raises(ClassInstability):
        measure_set(Q2, unstable, 3, sample_stride=1)


def test_t_m_measures_q2(Q2):
    q = 2
    for m in (4, 6, 8):
        assert t_m_measure(Q2, m) == Fraction((q - 1) ** 2, q ** (-(-2 * m // 3) + 3))


def test_one_aut_measures_q2(Q2):
    q = 2
    for m in (4, 6, 8):
        expect = Fraction((q - 1) ** 2, q ** (-(-2 * m // 3) + 3)) * (
            1 + (Fraction(1 - 2 * q, 3 * q) if m % 6 == 0 else 0)
        )
        assert one_aut_measure(Q2, m) == expect


def test_cubic_congruence_q2(Q2):
    q = 2
    for a, b in [(1, 1), (1, 2), (2, 2)]:
        expect = Fraction((q - 1) ** 2 * (2 * q - 1), 3 * q ** (a + 2 * b + 4))
        assert cubic_congruence_measure(Q2, a, b) == expect


def test_density_equals_tower_on_common_scope(Q2):
    from q2quartic.oracle.tower import tower_counts

    dc, _ = density_counts(Q2)
    tc, _ = tower_counts(Q2)
    for key, n in tc.items():
        assert dc.get(key, 0) == n
    for (m, g), n in dc.items():
        if g.value in ("V4", "C4", "D4"):
            assert tc.get((m, g), 0) == n


@pytest.mark.slow
@pytest.mark.parametrize(
    "spec", [{"f": 3}, {"f": 1, "eisenstein": [-2, 0, 0, 1]}], ids=["U3", "x^3-2"]
)
def test_density_full_range_two_workers(spec):
    """Density with two workers to m <= 8e+3: every cell equals the closed
    form, and the mass total sum count / (#Aut q^m) is q^-3 (Serre)."""
    K = field_from_spec(spec)
    p = K.derive_params()
    top = 8 * p.e + 3
    dc, meta = density_counts(K, top, jobs=2)
    for m in range(0, top + 1):
        for g in GROUP_ORDER:
            assert dc.get((m, g), 0) == C.count(p, m, g), (m, g)
    total = sum(Fraction(n, aut_order(g) * p.q**m) for (m, g), n in dc.items())
    assert total == Fraction(1, p.q**3)
    assert meta["pruned"] == 0
