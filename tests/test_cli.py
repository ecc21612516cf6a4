import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

import q2quartic
from q2quartic import counts as C
from q2quartic.cli import run
from q2quartic.errors import ClassInstability, FormulationMismatch, NonIntegralCount
from q2quartic.params import MinusOneClass

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


def test_usage_errors_exit_2(capsys):
    assert run(["count", "--e", "1"]) == 2  # missing required flags
    assert run(["count", "--e", "0", "--f", "1", "--minus-one-class", "ramified",
                "--d-minus-one", "2"]) == 2  # invalid params
    assert run(["nonsense"]) == 2


def test_count_m_max_far_above_support_prints_default_table(monkeypatch, capsys):
    real = C.count

    def within_support(params, m, g):
        assert 0 <= m <= C.max_support(params), m
        return real(params, m, g)

    _, default = _run(capsys, ["count", *Q2_FLAGS])
    monkeypatch.setattr(C, "count", within_support)
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
        ["verify", "--field", "{spec}", "--m-max", "4", "--cache", "{spec}"],
        ["verify", "--field", "{spec}", "--m-max", "4", "--cache", "{spec}/sub"],
    ],
    ids=["derive-missing", "derive-not-json", "verify-missing", "verify-not-json",
         "lmfdb-missing-csv", "lmfdb-not-utf8", "cache-is-file", "cache-under-file"],
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
        "missing": tmp_path / "missing.json",
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
    import importlib

    V = importlib.import_module("q2quartic.oracle.verify")
    real = V.formulas.count

    def skewed(params, m, g):
        n = real(params, m, g)
        return n + 1 if (m, g.value) == (8, "V4") else n

    monkeypatch.setattr(V.formulas, "count", skewed)
    spec = tmp_path / "q2.json"
    spec.write_text('{"f": 1, "e": 1}')
    code = run(["verify", "--field", str(spec), "--m-max", "11", "--oracle", "tower"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


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
    from q2quartic.padic.field import q2

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


def _raise_at_one_cell(monkeypatch, name, error):
    real = getattr(C, name)

    def patched(params, m):
        if (params.e, params.minus_one_class, m) == (1, MinusOneClass.RAMIFIED, 11):
            raise error(f"{name} failed at m={m}")
        return real(params, m)

    monkeypatch.setattr(C, name, patched)


@pytest.mark.parametrize("error", [FormulationMismatch, NonIntegralCount])
def test_sweep_counts_failing_tuple(monkeypatch, capsys, error):
    _raise_at_one_cell(monkeypatch, "count_C4", error)
    code, out = _run(capsys, ["sweep", "--e-max", "2", "--f-max", "1", "--check", "c4-dual"])
    assert code == 1
    assert out.count("FAIL ") == 1
    assert "failures=1" in out


def test_sweep_internal_error_exit_4(monkeypatch, capsys):
    _raise_at_one_cell(monkeypatch, "count_C4", ClassInstability)
    code = run(["sweep", "--e-max", "2", "--f-max", "1", "--check", "c4-dual"])
    captured = capsys.readouterr()
    assert code == 4
    assert "internal inconsistency" in captured.err
    assert "Traceback" not in captured.err


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
