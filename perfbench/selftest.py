"""Self-test of the benchmark: its checks reject altered results, and every
workload runs end to end on tiny inputs, untraced and traced.

    python3 perfbench/selftest.py

Run from the root of a checkout; it finishes in seconds and exits 0 when
every case holds.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

Row = namedtuple("Row", "m group method formula oracle")
FAILURES = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def _rows(method, table, bump=None):
    """Rows as verify reports them, with the count at `bump` one too high."""
    return [Row(m, g, method, n, n + (1 if (m, g) == bump else 0)) for (m, g), n in table.items()]


def test_checks():
    table = checks.Q2_TABLE
    tower = {k: n for k, n in table.items() if k[1] in checks.TOWER_GROUPS}
    rows = _rows("density", table)
    expect(not checks.rows_pass(rows), "rows_pass accepts matching rows")
    expect(checks.rows_pass(_rows("density", table, (9, "D4"))), "rows_pass rejects a count off by one")
    expect(not checks.q2_table(rows, "density", 11), "q2_table accepts the paper's table")
    off = [Row(m, g, "density", n, n + (m == 11 and g == "C4")) for (m, g), n in table.items()]
    expect(checks.q2_table(off, "density", 11), "q2_table rejects a count off by one")
    expect(checks.q2_table(rows[1:], "density", 11), "q2_table rejects a missing row")
    expect(not checks.q2_table([r for r in rows if r.m <= 8], "density", 8), "q2_table cuts the table at m_max")
    expect(not checks.serre_mass(rows, "density", 2), "Serre: the paper's Q2 table has mass 1/8")
    expect(checks.serre_mass(off, "density", 2), "Serre rejects a count off by one")
    expect(not checks.tower_total(_rows("tower", tower), 1), "tower total: Q2 has 6 * 14 towers")
    expect(checks.tower_total(_rows("tower", tower, (8, "V4")), 1), "tower total rejects a count off by one")

    # the measure formulas at the paper's Q2 values, and a mass off by one part
    expect(checks.t_m_formula(2, 4) == Fraction(1, 2**6), "mu(T_4) over Q2 is 1/64")
    expect(checks.one_aut_formula(2, 6) == Fraction(1, 2**7) * Fraction(1, 2), "mu(P_6^1-Aut) over Q2 is 1/256")
    expect(checks.cubic_formula(2, 1, 1) == Fraction(1, 2**7), "cubic measure (1,1) over Q2 is 1/128")
    part = Fraction(1, 10**30)
    expect(checks.equals("t_m", checks.t_m_formula(2, 8) + part, checks.t_m_formula(2, 8)), "a measure off by one part is rejected")
    masses = {"S4": Fraction(9, 128), "A4": Fraction(1, 64), "V4": Fraction(1, 256), "C4": Fraction(1, 1024), "D4": Fraction(35, 1024)}
    expect(not checks.tuple_masses("Q2", 2, masses, masses), "tuple_masses accepts the paper's Q2 masses")
    bent = dict(masses, D4=masses["D4"] * (1 + part))
    expect(checks.tuple_masses("Q2", 2, masses, bent), "tuple_masses rejects a mass off by one part")
    expect(checks.tuple_masses("Q2", 2, bent, bent), "tuple_masses rejects a Serre total off by one part")

    expect(checks.sweep_tuple_count(20, 8) == 1200, "e<=20, f<=8 has 1200 tuples")
    good = "sweep: 1200 tuples, checks=serre,tower-identity, failures=0 [formal]\n"
    expect(not checks.sweep_summary(0, good, 20, 8), "sweep summary accepted")
    expect(checks.sweep_summary(0, good.replace("1200", "1199"), 20, 8), "sweep summary rejects one tuple missing")
    expect(checks.sweep_summary(1, good, 20, 8), "sweep summary rejects a non-zero exit")
    expect(checks.sweep_summary(0, good.replace("failures=0", "failures=1"), 20, 8), "sweep summary rejects a failure")
    expect(checks.sweep_summary(0, "", 20, 8), "sweep summary rejects missing output")


def test_altered_program():
    """An oracle that returns one count off by one fails the pass's operation."""
    import child

    verify_mod = importlib.import_module("q2quartic.oracle.verify")

    orig = verify_mod.density_counts

    def bumped(field, m_max, **kw):
        counts, meta = orig(field, m_max, **kw)
        key = next(iter(counts))
        return {**counts, key: counts[key] + 1}, meta

    verify_mod.density_counts = bumped
    try:
        sample = child.run_pass(workloads.QUICK["density"], 0)
    finally:
        verify_mod.density_counts = orig
    expect(not sample["correct"] and sample["failed"] == sample["attempted"],
           "a density count off by one fails every density operation")
    ctx = workloads.setup(workloads.QUICK["sweep"])
    ctx.tuples.pop()
    label, op = workloads.ops(ctx, random.Random(0))[0]
    expect(label.startswith("sweep") and op(), "the sweep operation rejects a missing tuple")


def _kernels(n):
    import reference

    for _ in range(n):
        reference.kernel()
    return n


def test_speed_probe():
    """The probe samples while work runs, in the process and in its forked
    pool workers, and the reference kernel itself, timed under the probe
    and scaled, reads about its nominal time."""
    import multiprocessing

    import reference

    n = 80
    with reference.SpeedProbe(str(ROOT / ".perfbench-out" / "probe-selftest")) as probe:
        t0 = perf_counter()
        _kernels(n)
        probe.stop()
        wall = perf_counter() - t0
    expect(len(probe.speeds) >= 2, f"the speed probe sampled {len(probe.speeds)} times in {wall:.2f} s")
    expect(0 < probe.wall < wall / 4, "the probe's own time is measured, so that it can be left out")
    scaled = (wall - probe.wall) * probe.scale()
    expect(abs(scaled / (n * reference.NOMINAL_S) - 1) < 0.35,
           f"{n} kernels scale to {scaled:.3f} s, nominal {n * reference.NOMINAL_S:.3f} s")

    with reference.SpeedProbe(str(ROOT / ".perfbench-out" / "probe-selftest")) as probe:
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pool.map(_kernels, [n])
        probe.stop()
        own = len(probe.speeds)
    expect(len(probe.speeds) - own >= 2 and probe.worker_cpu > 0,
           f"a pool worker left {len(probe.speeds) - own} speed samples")


def test_quick_runs():
    names = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in names["per_layer"]}
    for workload in workloads.QUICK:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--workload", workload, "--mode", "pass",
                 "--trace", str(trace), "--quick", "--out", str(ROOT / ".perfbench-out")],
                cwd=ROOT, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
            )
            sample = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else {}
            ok = sample.get("correct") is True and sample.get("failed") == 0
            if trace and ok:
                got = set(sample["layers"]) | {"trace.wall_s", "trace.overhead_s"}
                ok = got == per_layer
            expect(ok, f"quick {workload} trace={trace} runs clean and reports every metric")


if __name__ == "__main__":
    test_checks()
    test_altered_program()
    test_speed_probe()
    test_quick_runs()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
