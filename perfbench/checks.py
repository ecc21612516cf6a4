"""Independent references for the benchmark's outputs.

None of these compares against a saved copy of the program's output.  Each
reference is either a number printed in the paper (the Q2 table, the
measure formulas) or an identity that follows from counting something a
second way (Serre's mass formula, the number of quadratic towers, the
number of parameter tuples).  Every check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction

# The paper's table of totally ramified quartics over Q2, by (m, group).
Q2_TABLE = {
    (4, "S4"): 1,
    (6, "A4"): 1,
    (6, "D4"): 2,
    (8, "S4"): 2,
    (8, "V4"): 4,
    (8, "D4"): 2,
    (9, "D4"): 8,
    (10, "D4"): 8,
    (11, "C4"): 8,
    (11, "D4"): 12,
}

AUT_ORDER = {"S4": 1, "A4": 1, "D4": 2, "C4": 4, "V4": 4}
# towers L/E/K over one quartic field: C4 has one quadratic subfield, a D4
# stem field and its conjugate share one, V4 has three
TOWER_FIBRE = {"C4": 1, "D4": 2, "V4": 3}
TOWER_GROUPS = frozenset(TOWER_FIBRE)


def oracle_counts(rows, method: str) -> dict:
    """{(m, group): oracle count} of one method's verification rows, zeros dropped."""
    return {(r.m, r.group): r.oracle for r in rows if r.method == method and r.oracle}


def rows_pass(rows) -> list:
    """Every oracle count equals its closed form (two separate derivations)."""
    return [
        f"{r.method} m={r.m} {r.group}: oracle {r.oracle} != closed form {r.formula}"
        for r in rows
        if r.oracle != r.formula
    ]


def q2_table(rows, method: str, m_max: int, groups=frozenset(AUT_ORDER)) -> list:
    """The oracle's Q2 counts equal the paper's table, cut to m <= m_max and the groups."""
    want = {k: n for k, n in Q2_TABLE.items() if k[0] <= m_max and k[1] in groups}
    got = oracle_counts(rows, method)
    if got == want:
        return []
    return [f"{method} Q2 counts {sorted(got.items())} != paper table {sorted(want.items())}"]


def serre_mass(rows, method: str, q: int) -> list:
    """Serre's mass formula: the sum of count / (#Aut q^m) over all m and groups is q^-3."""
    total = sum(
        (Fraction(n, AUT_ORDER[g] * q**m) for (m, g), n in oracle_counts(rows, method).items()),
        Fraction(0),
    )
    if total == Fraction(1, q**3):
        return []
    return [f"{method} mass {total} != q^-3 = {Fraction(1, q**3)}"]


def tower_total(rows, degree: int) -> list:
    """Sum of fibre(g) * count over the tower rows equals the number of towers.

    A field of degree n over Q2 has 2^(n+2) - 2 ramified quadratic
    extensions E (nontrivial square classes minus the unramified one), and
    each E, of degree 2n, has 2^(2n+2) - 2 of its own.
    """
    got = sum(TOWER_FIBRE[g] * n for (m, g), n in oracle_counts(rows, "tower").items())
    want = (2 ** (degree + 2) - 2) * (2 ** (2 * degree + 2) - 2)
    if got == want:
        return []
    return [f"tower pairs {got} != (2^(n+2)-2)(2^(2n+2)-2) = {want} for n={degree}"]


def t_m_formula(q: int, m: int) -> Fraction:
    """mu(T_m) = (q-1)^2 / q^(ceil(2m/3)+3)."""
    return Fraction((q - 1) ** 2, q ** (-(-2 * m // 3) + 3))


def one_aut_formula(q: int, m: int) -> Fraction:
    """mu(P_m^{1-Aut}) = mu(T_m) * (1 + [6 | m] (1-2q)/(3q))."""
    return t_m_formula(q, m) * (1 + (Fraction(1 - 2 * q, 3 * q) if m % 6 == 0 else 0))


def cubic_formula(q: int, a: int, b: int) -> Fraction:
    """Measure of the cubic-congruence triples: (q-1)^2 (2q-1) / (3 q^(a+2b+4))."""
    return Fraction((q - 1) ** 2 * (2 * q - 1), 3 * q ** (a + 2 * b + 4))


def equals(label: str, got, want) -> list:
    return [] if got == want else [f"{label}: {got} != {want}"]


def sweep_tuple_count(e_max: int, f_max: int) -> int:
    """Valid parameter tuples: per (e, f) the square and unramified classes of -1,
    plus one ramified tuple for each even d in 2..2*ceil(e/2)."""
    return f_max * sum(2 + (e + 1) // 2 for e in range(1, e_max + 1))


def sweep_summary(rc: int, text: str, e_max: int, f_max: int) -> list:
    """The sweep exited 0 and its summary reports every tuple and no failure."""
    problems = [] if rc == 0 else [f"sweep exit code {rc}"]
    lines = [ln for ln in text.splitlines() if ln.startswith("sweep: ")]
    if len(lines) != 1:
        return problems + ["sweep printed no summary line"]
    fields = lines[0].split()
    try:
        tuples = int(fields[1])
        failures = int(next(f for f in fields if f.startswith("failures=")).split("=")[1].rstrip(","))
    except (IndexError, StopIteration, ValueError):
        return problems + [f"unreadable sweep summary {lines[0]!r}"]
    want = sweep_tuple_count(e_max, f_max)
    if tuples != want:
        problems.append(f"sweep covered {tuples} tuples, expected {want}")
    if failures:
        problems.append(f"sweep reported {failures} failures")
    return problems


def tuple_masses(label: str, q: int, closed: dict, summed: dict) -> list:
    """Per group the closed-form mass equals the mass summed from counts,
    and the summed masses of all groups total q^-3 (Serre)."""
    problems = [
        f"{label} {g}: closed mass {closed[g]} != summed {summed[g]}"
        for g in closed
        if closed[g] != summed[g]
    ]
    total = sum(summed.values(), Fraction(0))
    if total != Fraction(1, q**3):
        problems.append(f"{label}: summed mass {total} != q^-3")
    return problems
