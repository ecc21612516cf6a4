import csv
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import q2quartic
from q2quartic import counts as C
from q2quartic import masses
from q2quartic.cli import _LMFDB_GROUPS, run
from q2quartic.errors import ClassInstability, FormulationMismatch, NonIntegralCount
from q2quartic.params import (
    GROUP_ORDER,
    GroupTag,
    MinusOneClass,
    aut_order,
    make_params,
    valid_param_sweep,
)

Q2_FLAGS = ["--e", "1", "--f", "1", "--d-minus-one", "2", "--minus-one-class", "ramified"]


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_count_csv_q2(capsys):
    code, out = _run(capsys, ["count", *Q2_FLAGS, "--m-min", "4", "--m-max", "11", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert rows[-1]["m"] == "11" and rows[-1]["group"] == "D4" and rows[-1]["count"] == "12"


def test_count_csv_json_same_data(capsys):
    code, out_csv = _run(capsys, ["count", *Q2_FLAGS, "--format", "csv"])
    assert code == 0
    code, out_json = _run(capsys, ["count", *Q2_FLAGS, "--format", "json"])
    assert code == 0
    from_csv = {
        (int(r["m"]), r["group"]): int(r["count"]) for r in csv.DictReader(io.StringIO(out_csv))
    }
    blob = json.loads(out_json)
    from_json = {
        (int(m), g): n for m, per in blob["counts"].items() for g, n in per.items()
    }
    assert from_csv == from_json


def test_count_deterministic(capsys):
    _, first = _run(capsys, ["count", *Q2_FLAGS, "--format", "json"])
    _, second = _run(capsys, ["count", *Q2_FLAGS, "--format", "json"])
    assert first == second


def test_mass_check_serre(capsys):
    code, out = _run(capsys, ["mass", *Q2_FLAGS, "--check-serre"])
    assert code == 0
    assert "total" in out and "1/8" in out
    assert "serre: ok" in out


def _q2_masses_from_lmfdb_table():
    """Q2's masses sum_m count / (#Aut q^m) per group, from the LMFDB field list."""
    out = dict.fromkeys(GroupTag, Fraction(0))
    for c, glabel, count in Q2_LMFDB_TABLE:
        g = _LMFDB_GROUPS[glabel]
        out[g] += Fraction(count, aut_order(g) * 2**c)
    return out


def test_mass_csv_and_json_q2(capsys):
    code, out_csv = _run(capsys, ["mass", *Q2_FLAGS, "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert all(
        (r["e"], r["f"], r["q"], r["d_minus_one"], r["minus_one_class"])
        == ("1", "1", "2", "2", "ramified")
        for r in rows
    )
    from_csv = {r["group"]: Fraction(r["mass"]) for r in rows}
    expected = {g.value: v for g, v in _q2_masses_from_lmfdb_table().items()}
    assert from_csv == {**expected, "total": Fraction(1, 8)}
    code, out_json = _run(capsys, ["mass", *Q2_FLAGS, "--format", "json"])
    assert code == 0
    blob = json.loads(out_json)
    assert blob["params"] == {
        "e": 1, "f": 1, "q": 2, "d_minus_one": 2, "minus_one_class": "ramified",
    }
    assert {g: Fraction(v) for g, v in blob["masses"].items()} == expected
    assert blob["total"] == "1/8"


def test_mass_check_serre_failure_exit_1(monkeypatch, capsys):
    # masses that do not sum to q^-3: the table prints them, the check fails
    skewed = {g: Fraction(1, 64) for g in GroupTag}
    monkeypatch.setattr(masses, "closed_masses", lambda params: skewed)
    code, out = _run(capsys, ["mass", *Q2_FLAGS, "--check-serre"])
    assert code == 1
    assert "total" in out and "5/64" in out
    assert "serre: FAIL (mass total differs from q^-3 by -3/64)" in out
    assert "serre: ok" not in out


def test_usage_errors_exit_2(capsys):
    assert run(["count", "--e", "1"]) == 2  # missing required flags
    assert run(["count", "--e", "0", "--f", "1", "--minus-one-class", "ramified",
                "--d-minus-one", "2"]) == 2  # invalid params
    assert run(["nonsense"]) == 2


def test_count_m_max_far_above_support_prints_default_table(monkeypatch, capsys):
    real = C.count_rows

    def within_support(params):
        top = C.max_support(params)

        class Row(tuple):  # a tuple would read a negative index from its end
            def __getitem__(self, m):
                assert 0 <= m <= top, m
                return super().__getitem__(m)

        rows = real(params)
        return rows._replace(groups={g: Row(row) for g, row in rows.groups.items()})

    _, default = _run(capsys, ["count", *Q2_FLAGS])
    monkeypatch.setattr(C, "count_rows", within_support)
    t0 = time.perf_counter()
    code, out = _run(capsys, ["count", *Q2_FLAGS, "--m-min", "-5", "--m-max", "100000000"])
    assert time.perf_counter() - t0 < 5
    assert code == 0
    assert out == default


@pytest.mark.parametrize("bounds", [("0", "3"), ("2", "-1")])
def test_sweep_bounds_below_one_exit_2(capsys, bounds):
    e_max, f_max = bounds
    assert run(["sweep", "--e-max", e_max, "--f-max", f_max]) == 2
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err
    assert "tuples" not in captured.out


def test_count_beyond_max_degree_exits_2_before_building_rows(capsys):
    # the rows of e = 100000 would hold Theta(e^2) bits
    argv = ["count", "--e", "100000", "--f", "1", "--minus-one-class", "square",
            "--m-min", "800000"]
    t0 = time.perf_counter()
    code = run(argv)
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: e*f = 100000 exceeds 2048")


@pytest.mark.parametrize("command", ["count", "mass"])
def test_huge_f_exits_2_before_forming_q(capsys, command):
    # q = 2^f at f = 10^9 would take seconds and hundreds of MB to form
    argv = [command, "--e", "1", "--f", "1000000000", "--minus-one-class", "square"]
    t0 = time.perf_counter()
    code = run(argv)
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: e*f = 1000000000 exceeds 2048, the largest degree over Q_2\n"


@pytest.mark.parametrize("e, f", [(2048, 1), (1024, 2)])
def test_count_at_max_degree_still_works(capsys, e, f):
    argv = ["count", "--e", str(e), "--f", str(f), "--minus-one-class", "square",
            "--m-min", str(8 * e + 3), "--group", "C4", "--format", "csv"]
    code, out = _run(capsys, argv)
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert int(row["count"]) == 4 * 2 ** (2 * e * f)  # 4 q^(2e) at m = 8e+3


@pytest.mark.parametrize("e, f, cls", [(4000, 1, "square"), (1, 2049, "unramified")])
def test_mass_beyond_max_degree_exits_2(capsys, e, f, cls):
    code = run(["mass", "--e", str(e), "--f", str(f), "--minus-one-class", cls])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: e*f = {e * f} exceeds 2048, the largest degree over Q_2\n"


@pytest.mark.parametrize("e, f, cls", [(2048, 1, "square"), (1, 2048, "unramified")])
def test_mass_at_max_degree_prints_in_full(capsys, e, f, cls):
    # the denominators pass the 4,300 digits at which str(int) stops
    p = make_params(e, f, 0, MinusOneClass(cls))
    argv = ["mass", "--e", str(e), "--f", str(f), "--minus-one-class", cls, "--check-serre"]
    code, out = _run(capsys, [*argv, "--format", "csv"])
    assert code == 0 and out.endswith("serre: ok\n")
    rows = list(csv.DictReader(io.StringIO(out.removesuffix("serre: ok\n"))))
    longest = max(len(part) for r in rows for part in r["mass"].split("/"))
    assert longest > 3600
    read = {r["group"]: Fraction(*(int(Decimal(x)) for x in r["mass"].split("/"))) for r in rows}
    assert read == {
        **{g.value: masses.mass_closed_form(p, g) for g in GROUP_ORDER},
        "total": Fraction(1, p.q**3),
    }
    for fmt in ("json", "table"):
        assert _run(capsys, [*argv, "--format", fmt])[0] == 0


def test_sweep_beyond_max_degree_exits_2_before_any_tuple(monkeypatch, capsys):
    import q2quartic.cli as cli

    def no_tuple(*args):
        raise AssertionError("a tuple was swept")

    monkeypatch.setattr(cli, "valid_param_sweep", no_tuple)
    code = run(["sweep", "--e-max", "1025", "--f-max", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: e*f = 2050 exceeds 2048")


def test_verify_cli(tmp_path, capsys):
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    code, out = _run(capsys, ["verify", "--field", str(spec), "--m-max", "11",
                              "--oracle", "tower", "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True


def test_verify_jobs_below_one_exit_2(tmp_path, capsys):
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    for bad in ("0", "-3", "two"):
        code = run(["verify", "--field", str(spec), "--m-max", "11", "--jobs", bad])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err


def test_verify_negative_m_max_exits_2(tmp_path, capsys):
    # a negative m_max has no rows to compare: it must not report a pass
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    code = run(["verify", "--field", str(spec), "--m-max", "-1", "--oracle", "density"])
    captured = capsys.readouterr()
    assert code == 2
    assert "m_max must be at least 0" in captured.err
    assert "overall" not in captured.out


def test_verify_help_documents_jobs_clamp(capsys):
    assert run(["verify", "--help"]) == 0
    assert "cores" in capsys.readouterr().out


def test_non_eisenstein_field_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "k.json"
    for eis in ([4, 0, 1], [2, 1, 1]):  # v(c0) = 2; a unit middle coefficient
        spec.write_text(json.dumps({"f": 1, "eisenstein": eis}))
        assert run(["derive-params", "--field", str(spec)]) == 2
        assert "valuation" in capsys.readouterr().err
    for prec in (-100, 0, "x", 2.5, True, None):
        spec.write_text(json.dumps({"f": 1, "precision": prec}))
        assert run(["derive-params", "--field", str(spec)]) == 2
        assert "precision must be a positive int" in capsys.readouterr().err
    for bad in ({"f": 1, "eisenstein": 5}, {"f": 3000}, {"f": 2048}, {"f": True}):
        spec.write_text(json.dumps(bad))
        assert run(["derive-params", "--field", str(spec)]) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_precision_far_above_the_bound_exits_2_before_any_ring(tmp_path, capsys, monkeypatch):
    from q2quartic.padic import field

    def no_ring(*args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(field, "UnramifiedRing", no_ring)
    spec = tmp_path / "k.json"
    spec.write_text(json.dumps({"f": 1, "precision": 10**12}))
    assert run(["derive-params", "--field", str(spec)]) == 2
    assert "at most 256" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read field spec"),
        ("[1, 2]", "must contain a JSON object"),
        ('{"f": 1, "eisenstein": [[0, 2], 0, 1]}', "digit 2 out of range"),
        ('{"f": 1, "eisenstein": ["-2", 0, 1]}', "must be an int or a digit list"),
        ('{"f": 1, "eisenstein": [1]}', "at least two coefficients"),
        ('{"f": 1, "e": 3, "eisenstein": [-2, 0, 1]}', "conflicts with eisenstein degree 2"),
    ],
    ids=["missing", "not-an-object", "digit-too-large", "entry-type", "one-entry", "e-conflict"],
)
def test_bad_field_spec_exits_2_in_process(tmp_path, capsys, text, message):
    spec = tmp_path / "k.json"
    if text is not None:
        spec.write_text(text)
    assert run(["derive-params", "--field", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_count_group_is_the_full_tables_rows_of_that_group(capsys):
    _, full = _run(capsys, ["count", *Q2_FLAGS, "--format", "csv"])
    code, d4 = _run(capsys, ["count", *Q2_FLAGS, "--group", "D4", "--format", "csv"])
    assert code == 0
    want = [row for row in csv.DictReader(io.StringIO(full)) if row["group"] == "D4"]
    assert list(csv.DictReader(io.StringIO(d4))) == want and len(want) == 5


def test_closed_stdout_exits_141_without_traceback():
    # about 120 kB of output, more than a pipe holds: the child blocks on a
    # write until the read end is closed, and then that write fails
    src = os.path.dirname(os.path.dirname(q2quartic.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "q2quartic.cli", "count", "--e", "80", "--f", "3",
         "--minus-one-class", "unramified"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_derive_params_cli(tmp_path, capsys):
    spec = tmp_path / "k.json"
    spec.write_text(json.dumps({"f": 1, "eisenstein": [-2, 0, 1]}))
    code, out = _run(capsys, ["derive-params", "--field", str(spec)])
    assert code == 0
    blob = json.loads(out)
    assert blob == {"e": 2, "f": 1, "q": 2, "d_minus_one": 2, "minus_one_class": "ramified"}


def _cli_process(*argv):
    """(exit code, stderr) of the CLI run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(q2quartic.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "q2quartic.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["derive-params", "--field", "{missing}"],
        ["derive-params", "--field", "{not_json}"],
        ["verify", "--field", "{missing}", "--m-max", "4"],
        ["verify", "--field", "{not_json}", "--m-max", "4"],
        ["lmfdb-check", "--csv", "{missing}", "--field", "{spec}"],
        ["lmfdb-check", "--csv", "{not_utf8}", "--field", "{spec}"],
        ["lmfdb-check", "--csv", "{directory}", "--field", "{spec}"],
        ["verify", "--field", "{spec}", "--m-max", "4", "--cache", "{spec}"],
        ["verify", "--field", "{spec}", "--m-max", "4", "--cache", "{spec}/sub"],
    ],
    ids=["derive-missing", "derive-not-json", "verify-missing", "verify-not-json",
         "lmfdb-missing-csv", "lmfdb-not-utf8", "lmfdb-directory", "cache-is-file",
         "cache-under-file"],
)
def test_file_errors_exit_2_without_traceback(tmp_path, argv):
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    not_json = tmp_path / "bad.json"
    not_json.write_text('{"f": 1,')
    not_utf8 = tmp_path / "utf16.csv"
    not_utf8.write_bytes(b"\xff\xfe" + "label,e,c,galois_label\n".encode("utf-16-le"))
    paths = {
        "spec": spec, "not_json": not_json, "not_utf8": not_utf8,
        "missing": tmp_path / "missing.json", "directory": tmp_path,
    }
    code, err = _cli_process(*(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


Q2_LMFDB_TABLE = [
    (4, "4T5", 1), (6, "4T4", 1), (6, "4T3", 2), (8, "4T5", 2), (8, "4T2", 4),
    (8, "4T3", 2), (9, "4T3", 8), (10, "4T3", 8), (11, "4T1", 8), (11, "4T3", 12),
]


def _write_lmfdb_csv(path, table, mangle=False):
    lines = ["label,n,e,c,galois_label,extra"]
    idx = 0
    for c, glabel, count in table:
        for _ in range(count):
            idx += 1
            lines.append(f"2.4.{c}.{idx},4,4,{c},{glabel},ignored")
    # a non-quartic row and a non-totally-ramified row: both must be ignored
    lines.append("2.2.2.1,2,2,2,2T1,x")
    lines.append("2.4.6.99,4,2,6,4T3,x")
    if mangle:
        lines.append("2.4.8.x,4,4,notanint,4T5,x")
    path.write_text("\n".join(lines) + "\n")


def test_lmfdb_check_pass(tmp_path, capsys):
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    csvfile = tmp_path / "lf.csv"
    _write_lmfdb_csv(csvfile, Q2_LMFDB_TABLE)
    code, out = _run(capsys, ["lmfdb-check", "--csv", str(csvfile), "--field", str(spec)])
    assert code == 0
    assert "overall: pass" in out


def test_lmfdb_check_detects_mismatch_and_reports_bad_rows(tmp_path, capsys):
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    bad_table = list(Q2_LMFDB_TABLE)
    bad_table[0] = (4, "4T5", 2)  # one extra S4 field at c=4
    csvfile = tmp_path / "lf.csv"
    _write_lmfdb_csv(csvfile, bad_table, mangle=True)
    code = run(["lmfdb-check", "--csv", str(csvfile), "--field", str(spec)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert "malformed row" in captured.err


@pytest.mark.parametrize("header", ["label,n,e,c,extra", ""])
def test_lmfdb_check_missing_columns_exits_2(tmp_path, capsys, header):
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    csvfile = tmp_path / "lf.csv"
    csvfile.write_text(header + "\n" if header else "")
    code = run(["lmfdb-check", "--csv", str(csvfile), "--field", str(spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "lmfdb-check: csv must have columns e, c, galois_label\n"
    assert captured.out == ""


def test_lmfdb_check_skips_quartic_row_with_unknown_galois_label(tmp_path, capsys):
    # a degree-4 row whose label is no quartic Galois label is malformed and
    # skipped; the other rows still match the formulas
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    csvfile = tmp_path / "lf.csv"
    _write_lmfdb_csv(csvfile, Q2_LMFDB_TABLE)
    lines = csvfile.read_text().splitlines()
    lines.append("2.4.8.77,4,4,8,4T9,x")
    csvfile.write_text("\n".join(lines) + "\n")
    code = run(["lmfdb-check", "--csv", str(csvfile), "--field", str(spec)])
    captured = capsys.readouterr()
    assert code == 0
    assert "overall: pass" in captured.out
    assert captured.err == f"lmfdb-check: skipping malformed row at line {len(lines)}\n"


def test_sweep_cli(capsys):
    code, out = _run(capsys, ["sweep", "--e-max", "3", "--f-max", "2"])
    assert code == 0
    assert "failures=0" in out
    assert "formal" in out


def test_sweep_repeated_check_runs_and_names_it_once(capsys):
    argv = ["sweep", "--e-max", "1", "--f-max", "1"]
    code, out = _run(capsys, [*argv, "--check", "serre", "--check", "c4-dual", "--check", "serre"])
    assert code == 0
    assert "checks=serre,c4-dual, failures=0" in out


def test_budget_and_precision_exit_code_3(monkeypatch, tmp_path):
    import q2quartic.cli as cli
    from q2quartic.errors import BudgetExceeded

    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')

    def boom(*a, **k):
        raise BudgetExceeded("too big")

    monkeypatch.setattr(cli, "verify", boom)
    assert cli.run(["verify", "--field", str(spec), "--m-max", "11"]) == 3


def test_verify_dedup_unramified_f2_passes(tmp_path, capsys):
    spec = tmp_path / "u2.json"
    spec.write_text('{"f": 2}')
    argv = ["verify", "--field", str(spec), "--m-max", "6", "--oracle", "dedup", "--format", "json"]
    code, out = _run(capsys, argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(r["method"] == "dedup" and r["status"] == "pass" for r in rows)


def test_verify_exit_1_on_mismatch(monkeypatch, tmp_path, capsys):
    # force a formula/oracle disagreement: exit code must be 1
    real = C.count_rows

    def skewed(params):
        rows = real(params)
        v4 = list(rows.groups[GroupTag.V4])
        v4[8] += 1
        return rows._replace(groups={**rows.groups, GroupTag.V4: tuple(v4)})

    monkeypatch.setattr(C, "count_rows", skewed)
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    code = run(["verify", "--field", str(spec), "--m-max", "11", "--oracle", "tower"])
    out = capsys.readouterr().out
    assert code == 1
    fails = [line.split() for line in out.splitlines() if line.endswith(" FAIL")]
    assert fails == [["8", "V4", "tower", "5", "4", "FAIL"], ["overall:", "FAIL"]]


@pytest.mark.parametrize("error", [FormulationMismatch, NonIntegralCount, ClassInstability])
def test_internal_inconsistency_exit_4(monkeypatch, tmp_path, capsys, error):
    import q2quartic.cli as cli

    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')

    def boom(*a, **k):
        raise error("two derivations disagree")

    monkeypatch.setattr(cli, "verify", boom)
    assert cli.run(["verify", "--field", str(spec), "--m-max", "11"]) == 4
    err = capsys.readouterr().err
    assert "internal inconsistency" in err
    assert "Traceback" not in err


def _ring_division():
    from helpers import q2

    R = q2().ring
    return R.inv_unit(R.from_int(2))


def _degenerate_quadratic():
    from q2quartic.residue import ResidueField, quad_root_count

    return quad_root_count(ResidueField(1), 0, 1, 1)


def _serre_violation():
    from q2quartic.errors import SerreIdentityViolation

    raise SerreIdentityViolation(1)


@pytest.mark.parametrize(
    "raiser, name",
    [
        (_ring_division, "DivisionByNonUnit"),
        (_degenerate_quadratic, "DegenerateLeadingCoefficient"),
        (_serre_violation, "SerreIdentityViolation"),
    ],
)
def test_other_package_errors_exit_4(monkeypatch, tmp_path, capsys, raiser, name):
    # DivisionByNonUnit, DegenerateLeadingCoefficient and a Serre violation
    # outside sweep/check reach the user as exit 4, not as a traceback
    import q2quartic.cli as cli

    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    monkeypatch.setattr(cli, "verify", lambda *a, **k: raiser())
    assert cli.run(["verify", "--field", str(spec), "--m-max", "11"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: internal error ({name}): ")
    assert "Traceback" not in err


def _raise_for_one_tuple(monkeypatch, error):
    # the counts of the tuple e = 1, -1 ramified fail to build
    real = C.count_rows

    def patched(params):
        if (params.e, params.minus_one_class) == (1, MinusOneClass.RAMIFIED):
            raise error("count rows failed")
        return real(params)

    monkeypatch.setattr(C, "count_rows", patched)


@pytest.mark.parametrize("error", [FormulationMismatch, NonIntegralCount])
def test_sweep_counts_failing_tuple(monkeypatch, capsys, error):
    _raise_for_one_tuple(monkeypatch, error)
    code, out = _run(capsys, ["sweep", "--e-max", "2", "--f-max", "1", "--check", "c4-dual"])
    assert code == 1
    assert out.count("FAIL ") == 1
    assert "failures=1" in out


def test_sweep_internal_error_exit_4(monkeypatch, capsys):
    _raise_for_one_tuple(monkeypatch, ClassInstability)
    code = run(["sweep", "--e-max", "2", "--f-max", "1", "--check", "c4-dual"])
    captured = capsys.readouterr()
    assert code == 4
    assert "internal inconsistency" in captured.err
    assert "Traceback" not in captured.err


def test_sweep_fails_a_tuple_whose_division_is_rejected(monkeypatch, capsys, fresh_count_rows):
    # a cell whose division _exact rejects fails its tuple's rows, and the
    # sweep reports that tuple; count_tow(m=18) exists only for e = 2
    real = C._exact

    def reject_one(num, den, what, *args):
        if what % args == "count_tow(m=18)":
            raise NonIntegralCount("count_tow(m=18) rejected")
        return real(num, den, what, *args)

    monkeypatch.setattr(C, "_exact", reject_one)
    code = run(["sweep", "--e-max", "2", "--f-max", "1"])
    captured = capsys.readouterr()
    fails = [line for line in captured.out.splitlines() if line.startswith("FAIL ")]
    assert code == 1
    assert len(fails) == 3  # the e = 2, f = 1 tuples: -1 square, unramified, ramified
    assert all("{'e': 2, " in line and "count_tow(m=18) rejected" in line for line in fails)
    assert "failures=3" in captured.out
    assert "Traceback" not in captured.err


def test_sweep_fails_every_tuple_of_an_e_f_whose_shared_row_fails(
    monkeypatch, capsys, fresh_count_rows
):
    # a row kept per (e, f) that fails to build is not kept, so each tuple
    # of that (e, f) builds it again and is reported; e = 3 has four tuples
    real = C._v4_row

    def failing(q, e, f, qp, size):
        if (e, f) == (3, 1):
            raise NonIntegralCount("V4 row rejected")
        return real(q, e, f, qp, size)

    monkeypatch.setattr(C, "_v4_row", failing)
    code, out = _run(capsys, ["sweep", "--e-max", "4", "--f-max", "2"])
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert code == 1
    assert fails == [
        f"FAIL {p.to_json()}: V4 row rejected" for p in valid_param_sweep(3, 1) if p.e == 3
    ]
    assert len(fails) == 4 and "failures=4" in out


@pytest.mark.parametrize(
    "delta, message",
    [
        (1, "tower identity gives odd 2*D4 = 95 at m=16"),
        (2, "C4 at m=16: explicit form 34 != tower form 32"),
    ],
)
def test_sweep_fails_only_the_tuple_whose_c4_row_is_wrong(
    monkeypatch, capsys, fresh_count_rows, delta, message
):
    # the (e, f) checks read no C4 row, so a fault in the C4 row of the
    # first tuple of (2, 1), where they run, is reported against that tuple
    # alone, by c4-dual
    bad = make_params(2, 1, 0, MinusOneClass.SQUARE)
    real = C._c4_row

    def skewed(params, qp, size):
        row = real(params, qp, size)
        if params == bad:
            row[16] += delta
        return row

    monkeypatch.setattr(C, "_c4_row", skewed)
    code, out = _run(capsys, ["sweep", "--e-max", "2", "--f-max", "1"])
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert code == 1
    assert fails == [f"FAIL {bad.to_json()}: {message}"]
    assert "failures=1" in out


@pytest.mark.parametrize(
    "builder, residual", [("_mass_S4", "1/1024"), ("_mass_A4", "1/1024"), ("_mass_V4", "-1/512")]
)
def test_sweep_fails_every_tuple_of_an_e_f_whose_shared_mass_is_wrong(
    monkeypatch, capsys, fresh_count_rows, builder, residual
):
    # the S4, A4 and V4 masses are kept per (e, f); one wrong for (2, 1)
    # fails its three tuples with one Serre line (V4 enters the total as
    # -2 V4) and no other tuple
    real = getattr(masses, builder)

    def wrong(q, e, *f):
        return real(q, e, *f) + (Fraction(1, 1024) if (q, e) == (2, 2) else 0)

    monkeypatch.setattr(masses, builder, wrong)
    code, out = _run(capsys, ["sweep", "--e-max", "3", "--f-max", "2"])
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert code == 1
    assert fails == [
        f"FAIL {p.to_json()}: mass total differs from q^-3 by {residual}"
        for p in valid_param_sweep(2, 1)
        if p.e == 2
    ]
    assert "sweep: 20 tuples" in out and "failures=3" in out


def test_sweep_e_f_checks_run_once_per_e_f_and_build_no_tuple_rows(monkeypatch, capsys):
    calls = {"count_rows": 0, "serre_total": 0, "tower_mass_sum": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(params):
            calls[name] += 1
            return real(params)

        monkeypatch.setattr(owner, name, wrapper)

    counted(C, "count_rows")
    counted(masses, "serre_total")
    counted(masses, "tower_mass_sum")
    argv = ["sweep", "--e-max", "3", "--f-max", "2", "--check", "serre", "--check", "tower-identity"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert "sweep: 20 tuples, checks=serre,tower-identity, failures=0" in out
    assert calls == {"count_rows": 0, "serre_total": 6, "tower_mass_sum": 6}  # 3 e by 2 f


@pytest.mark.parametrize(
    "f, message",
    [
        (1, "A4 total 2 != (q^(2e)-1)/3 = 1"),
        (2, "A4 at m=6: 1-Aut count 5 != A4 count 6 for even f"),
    ],
)
def test_sweep_a4_total_names_the_values(monkeypatch, capsys, f, message):
    # the A4 row of one tuple is off by one at m = 6
    real = C.count_rows

    def skewed(params):
        rows = real(params)
        if (params.e, params.f, params.minus_one_class) == (1, f, MinusOneClass.RAMIFIED):
            a4 = list(rows.groups[GroupTag.A4])
            a4[6] += 1
            return rows._replace(groups={**rows.groups, GroupTag.A4: tuple(a4)})
        return rows

    monkeypatch.setattr(C, "count_rows", skewed)
    code, out = _run(capsys, ["sweep", "--e-max", "1", "--f-max", "2", "--check", "a4-total"])
    assert code == 1
    assert out.count("FAIL ") == 1
    assert f"FAIL {{'e': 1, 'f': {f}, 'q': {2**f}, " in out
    assert message in out


def test_sweep_c4_dual_compares_both_forms(monkeypatch, capsys):
    # the explicit form is left alone; the tower row is off by one at one cell
    real = C.count_C4_towers

    def skewed(params):
        row = real(params)
        if (params.e, params.minus_one_class) == (1, MinusOneClass.RAMIFIED):
            row[11] += 1
        return row

    monkeypatch.setattr(C, "count_C4_towers", skewed)
    code, out = _run(capsys, ["sweep", "--e-max", "2", "--f-max", "1", "--check", "c4-dual"])
    assert code == 1
    assert "failures=1" in out
    assert "explicit form 8 != tower form 9" in out
