"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run as  pytest -v -s tests/test_acceptance.py  to see the per-criterion
lines; every tolerance is exact (integer or rational equality).
"""

import time
from fractions import Fraction

from helpers import FULL_RANGE_DENSITY_SPECS, Q2_TABLE, q2, quartic_from_ints

from q2quartic import counts as C
from q2quartic import masses as M
from q2quartic.oracle.density import density_counts
from q2quartic.oracle.measure import cubic_congruence_measure, one_aut_measure, t_m_measure
from q2quartic.oracle.tower import tower_counts
from q2quartic.padic.field import field_from_spec, with_doubled_precision
from q2quartic.padic.quartic import classify_quartic
from q2quartic.params import GROUP_ORDER, GroupTag, MinusOneClass, valid_param_sweep
from q2quartic.residue import ResidueField, cubic_image_size, quad_root_count

TOWER_GROUPS = (GroupTag.V4, GroupTag.C4, GroupTag.D4)

WITNESSES = [
    ((2, 2, 0, 0), 4, GroupTag.S4),
    ((2, 0, 2, 2), 6, GroupTag.A4),
    ((2, 4, 6, 4), 8, GroupTag.V4),
    ((2, 0, -4, 0), 11, GroupTag.C4),
    ((2, 0, 0, 0), 11, GroupTag.D4),
    ((2, 0, 2, 0), 9, GroupTag.D4),
]


def _report(n, text):
    print(f"criterion {n:>2}: PASS - {text}")


def test_criterion_01_q2_table_three_ways(Q2, check_every):
    t0 = time.time()
    p = Q2.derive_params()
    for m in range(0, 16):
        for g in GROUP_ORDER:
            assert C.count(p, m, g) == Q2_TABLE.get((m, g), 0)
    check_every(1)
    dc, _ = density_counts(Q2, 11)
    assert dc == Q2_TABLE
    tc, _ = tower_counts(Q2)
    assert tc == {k: v for k, v in Q2_TABLE.items() if k[1] in TOWER_GROUPS}
    _report(1, f"Q2 table by closed form, density oracle, tower oracle [{time.time()-t0:.1f}s]")


def test_criterion_02_q2_masses(Q2):
    p = Q2.derive_params()
    expected = {
        GroupTag.S4: Fraction(9, 128),
        GroupTag.A4: Fraction(1, 64),
        GroupTag.V4: Fraction(1, 256),
        GroupTag.C4: Fraction(1, 1024),
        GroupTag.D4: Fraction(35, 1024),
    }
    for g, v in expected.items():
        assert M.mass_closed_form(p, g) == v
    assert sum(expected.values()) == Fraction(1, 8) == M.serre_total(p)
    _report(2, "Q2 masses 9/128, 1/64, 1/256, 1/1024, 35/1024; total 1/8 = q^-3")


def test_criterion_03_serre_sweep():
    t0 = time.time()
    n = 0
    for p in valid_param_sweep(20, 8):
        assert M.serre_total(p) == Fraction(1, p.q**3)
        n += 1
    dt = time.time() - t0
    assert dt < 10
    _report(3, f"Serre identity on {n} parameter tuples (e<=20, f<=8) in {dt:.1f}s")


def test_criterion_04_closed_vs_summed_masses():
    t0 = time.time()
    n = 0
    for p in valid_param_sweep(20, 8):
        for g in GROUP_ORDER:
            assert M.mass_closed_form(p, g) == M.mass_from_counts(p, g), (p, g)
        n += 1
    _report(4, f"closed-form mass equals summed mass, all groups, {n} tuples [{time.time()-t0:.0f}s]")


def test_criterion_05_tower_identity_sweep():
    t0 = time.time()
    n = 0
    for p in valid_param_sweep(20, 8):
        M.tower_mass_sum(p)  # internal closed-form equality asserted inside
        for m in range(0, 8 * p.e + 4):
            assert (
                C.count_C4(p, m) + 2 * C.count_D4(p, m) + 3 * C.count_V4(p, m)
                == C.count_tow(p, m)
            )
        n += 1
    _report(5, f"tower identity and tower-mass closed form, {n} tuples [{time.time()-t0:.0f}s]")


def test_criterion_06_c4_dual_formulation_sweep():
    t0 = time.time()
    for p in valid_param_sweep(20, 8):
        row = C.count_C4_towers(p)
        for m in range(0, 8 * p.e + 4):
            explicit = C.count_C4(p, m)
            tow = row[m]
            assert explicit == tow, (p, m)
    _report(6, f"C4 explicit form equals N_ext/N_C4 form over the sweep [{time.time()-t0:.0f}s]")


def test_criterion_07_a4_totals_sweep():
    for p in valid_param_sweep(20, 8):
        top = 8 * p.e + 4
        if p.f % 2 == 1:
            assert sum(C.count_A4(p, m) for m in range(top)) == (p.q ** (2 * p.e) - 1) // 3
        else:
            for m in range(top):
                assert C.count_S4(p, m) == 0
                assert C.count_one_aut(p, m) == C.count_A4(p, m)
    _report(7, "A4 totals (f odd) and S4 vanishing / 1-Aut = A4 (f even) over the sweep")


def test_criterion_08_measure_identities(Q2, U2):
    t0 = time.time()
    q = 2
    for m in (4, 6, 8):
        assert t_m_measure(Q2, m) == Fraction((q - 1) ** 2, q ** (-(-2 * m // 3) + 3))
        assert one_aut_measure(Q2, m) == Fraction((q - 1) ** 2, q ** (-(-2 * m // 3) + 3)) * (
            1 + (Fraction(1 - 2 * q, 3 * q) if m % 6 == 0 else 0)
        )
    for field, qf in ((Q2, 2), (U2, 4)):
        for a, b in ((1, 1), (1, 2), (2, 2)):
            assert cubic_congruence_measure(field, a, b) == Fraction(
                (qf - 1) ** 2 * (2 * qf - 1), 3 * qf ** (a + 2 * b + 4)
            )
    dt = time.time() - t0
    assert dt < 300
    _report(8, f"mu(T_m), mu(P_m^1-Aut), cubic congruence density reproduced [{dt:.1f}s]")


def test_criterion_09_residue_counts():
    t0 = time.time()
    for f in (1, 2, 3, 4):
        F = ResidueField(f)
        for a in range(1, F.q):
            for b in F.elements():
                for c in F.elements():
                    brute = sum(
                        1
                        for x in F.elements()
                        if F.add(F.add(F.mul(a, F.mul(x, x)), F.mul(b, x)), c) == 0
                    )
                    assert quad_root_count(F, a, b, c) == brute
        for mu in range(1, F.q):
            for lam in F.elements():
                brute = len(
                    {F.add(F.mul(lam, x), F.mul(mu, F.pow(x, 3))) for x in F.elements()}
                )
                assert cubic_image_size(lam != 0, f) == brute
    dt = time.time() - t0
    assert dt < 10
    _report(9, f"residue-level counts match exhaustive enumeration, f in 1..4 [{dt:.1f}s]")


DEGREE3_SPECS = [
    ({"f": 1, "eisenstein": [-2, 0, 1]}, "x^2-2"),
    ({"f": 1, "eisenstein": [2, 0, 1]}, "x^2+2"),
    ({"f": 1, "eisenstein": [-6, 0, 1]}, "x^2-6"),
    ({"f": 1, "eisenstein": [-2, 0, 0, 1]}, "x^3-2"),
    ({"f": 2}, "unramified f=2"),
    ({"f": 3}, "unramified f=3"),
]


def test_criterion_10_degree_le3_bases():
    t0 = time.time()
    for spec, label in DEGREE3_SPECS:
        K = field_from_spec(spec)
        p = K.derive_params()
        tc, _ = tower_counts(K)
        for m in range(0, 8 * p.e + 4):
            for g in TOWER_GROUPS:
                assert tc.get((m, g), 0) == C.count(p, m, g), (label, m, g)
    tower_dt = time.time() - t0
    # density: m <= 8 on the e = 1 bases, m <= 10 on one e = 2 base
    runs = [
        ({"f": 1, "e": 1}, 8, 1),
        ({"f": 2}, 8, 1),
        ({"f": 3}, 8, 2),
        ({"f": 1, "eisenstein": [-2, 0, 1]}, 10, 1),
    ]
    for spec, m_max, jobs in runs:
        K = field_from_spec(spec)
        p = K.derive_params()
        dc, _ = density_counts(K, m_max, jobs=jobs)
        for m in range(0, m_max + 1):
            for g in GROUP_ORDER:
                assert dc.get((m, g), 0) == C.count(p, m, g), (spec, m, g)
    dt = time.time() - t0
    assert dt < 3600
    _report(10, f"degree<=3 bases: tower rows all m ({tower_dt:.0f}s), density runs [{dt:.0f}s]")


def test_criterion_11_worked_witnesses(Q2):
    for coeffs, m, g in WITNESSES:
        assert classify_quartic(quartic_from_ints(Q2, *coeffs)) == (m, g)
    _report(11, "six worked witnesses classify to the stated (m, group)")


def test_criterion_12_precision_stability():
    base = q2()
    doubled = q2(precision=2 * (16 * 1 + 16))
    for K in (base, doubled):
        for coeffs, m, g in WITNESSES:
            assert classify_quartic(quartic_from_ints(K, *coeffs)) == (m, g)
        p = K.derive_params()
        dc, _ = density_counts(K, 11)
        assert dc == Q2_TABLE
        tc, _ = tower_counts(K)
        assert tc == {k: v for k, v in Q2_TABLE.items() if k[1] in TOWER_GROUPS}
        assert all(C.count(p, m, g) == n for (m, g), n in Q2_TABLE.items())
    # the C4/D4 split refines each resolvent root only as far as its tests
    # read it; on sqrt2 that split decides hundreds of leaves, on Q2 a few
    sqrt2 = field_from_spec({"f": 1, "eisenstein": [-2, 0, 1]})
    runs = [density_counts(K, 12) for K in (sqrt2, with_doubled_precision(sqrt2))]
    assert runs[0] == runs[1]
    _report(12, "criterion-1 table, witnesses and sqrt2 density unchanged at doubled precision")


MINUS_ONE_AND_DEGREE4_SPECS = [
    ({"f": 1, "eisenstein": [2, 2, 1]}, "Q2(i)"),
    ({"f": 1, "eisenstein": [-2, -2, 1]}, "Q2(sqrt3)"),
    ({"f": 1, "eisenstein": [-2, 0, 0, 0, 1]}, "x^4-2"),
    ({"f": 4}, "unramified f=4"),
    ({"f": 2, "eisenstein": [-2, 0, 1]}, "x^2-2 over f=2"),
]


def test_criterion_13_minus_one_classes_and_degree4_bases():
    t0 = time.time()
    classes = set()
    for spec, label in MINUS_ONE_AND_DEGREE4_SPECS:
        K = field_from_spec(spec)
        p = K.derive_params()
        classes.add(p.minus_one_class)
        tc, _ = tower_counts(K)
        for m in range(0, 8 * p.e + 4):
            for g in TOWER_GROUPS:
                assert tc.get((m, g), 0) == C.count(p, m, g), (label, m, g)
    # the SQUARE and UNRAMIFIED branches of n_ext and count_C4 are reached
    assert classes == set(MinusOneClass)
    dt = time.time() - t0
    assert dt < 60
    _report(13, f"-1 square/unramified and degree-4 bases: tower rows all m [{dt:.1f}s]")


def test_criterion_14_density_full_range():
    # the six ramified quadratic extensions of Q2 cover every class of -1
    # and every d-parity; density runs to m <= 8e+3 on each and on U(f=2)
    t0 = time.time()
    classes = set()
    for spec, label in FULL_RANGE_DENSITY_SPECS:
        K = field_from_spec(spec)
        p = K.derive_params()
        classes.add(p.minus_one_class)
        dc, _ = density_counts(K)
        for m in range(0, 8 * p.e + 4):
            for g in GROUP_ORDER:
                assert dc.get((m, g), 0) == C.count(p, m, g), (label, m, g)
    assert classes == set(MinusOneClass)
    dt = time.time() - t0
    assert dt < 30
    n = len(FULL_RANGE_DENSITY_SPECS)
    _report(14, f"density to m <= 8e+3 on {n} bases, every cell [{dt:.1f}s]")
