import json
import sys

import pytest
from helpers import quartic_from_ints

from q2quartic import counts as C
from q2quartic.errors import BudgetExceeded, InvalidParams
from q2quartic.oracle.dedup import _has_root_in, dedup_counts
from q2quartic.oracle.measure import measure_set
from q2quartic.oracle.verify import verify
from q2quartic.padic.quartic import stem_ring
from q2quartic.params import GROUP_ORDER


@pytest.mark.parametrize("field, m_max", [("Q2", 6), ("K_sqrt2", 8), ("U2", 7)])
def test_dedup_counts_match_closed_forms(request, field, m_max):
    K = request.getfixturevalue(field)
    p = K.derive_params()
    got = dedup_counts(K, m_max)
    assert got and all(m <= m_max for m, _ in got)
    for m in range(m_max + 1):
        for g in GROUP_ORDER:
            assert got.get((m, g), 0) == C.count(p, m, g), (m, g)


def test_measure_set_budget_guard(Q2):
    seen = []
    with pytest.raises(BudgetExceeded):
        measure_set(Q2, seen.append, c=12)
    assert seen == []  # raised before the first class


def test_verify_rejects_unknown_oracle(Q2):
    # a misspelt oracle must not run nothing and pass
    for methods in (("densty",), ("tower", "dedupe")):
        with pytest.raises(InvalidParams, match="unknown oracle"):
            verify(Q2, 11, methods=methods)


def test_verify_rejects_empty_methods(Q2):
    # no oracle leaves no rows to compare, which would read as a pass
    for methods in ((), []):
        with pytest.raises(InvalidParams, match="unknown oracle or none"):
            verify(Q2, 11, methods=methods)


def test_verify_cache_dir_fails_before_any_oracle(Q2, tmp_path, monkeypatch):
    V = sys.modules["q2quartic.oracle.verify"]  # the package re-exports the function

    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle ran before the cache directory was checked")

    monkeypatch.setattr(V, "tower_counts", no_oracle)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for cache_dir in (blocker, blocker / "sub"):
        with pytest.raises(InvalidParams, match="cannot create cache directory"):
            verify(Q2, 11, methods=("tower",), cache_dir=str(cache_dir))
    monkeypatch.undo()
    fresh = tmp_path / "new" / "cache"  # missing parents are created
    assert verify(Q2, 4, methods=("tower",), cache_dir=str(fresh)).passed
    assert len(list(fresh.iterdir())) == 1


def test_verify_rejects_negative_m_max(Q2):
    # a negative bound leaves no rows to compare, which would read as a pass
    with pytest.raises(InvalidParams, match="dedup_m_max must be at least 0"):
        verify(Q2, 11, methods=("dedup",), dedup_m_max=-1)


def test_isomorphism_root_test(Q2):
    f = quartic_from_ints(Q2, 2, 2, 0, 0)
    stem = stem_ring(f)
    # a different representative of the same coefficient class: same stem field
    g = quartic_from_ints(Q2, 2 + 32, 2, 32, 0)
    assert _has_root_in(stem, g)
    # D4 vs C4 at m = 11: not isomorphic
    d4 = quartic_from_ints(Q2, 2, 0, 0, 0)
    c4 = quartic_from_ints(Q2, 2, 0, -4, 0)
    assert not _has_root_in(stem_ring(d4), c4)
    assert not _has_root_in(stem_ring(c4), d4)
    assert _has_root_in(stem_ring(d4), d4)


def test_verify_q2_all_oracles(Q2, tmp_path):
    report = verify(Q2, 11, methods=("density", "tower", "dedup"), cache_dir=str(tmp_path))
    assert report.passed
    density_rows = [r for r in report.rows if r.method == "density"]
    assert len(density_rows) == 10  # ten nonzero rows for Q2
    tower_rows = [r for r in report.rows if r.method == "tower"]
    assert {r.group for r in tower_rows} <= {"V4", "C4", "D4"}
    # report serialises deterministically and the cache round-trips
    blob = json.loads(report.to_json())
    assert blob["passed"] is True
    report2 = verify(Q2, 11, methods=("density", "tower", "dedup"), cache_dir=str(tmp_path))
    assert report2.rows == report.rows
    meta, meta2 = dict(report.meta), dict(report2.meta)
    assert meta.pop("cache") == dict.fromkeys(("density", "tower", "dedup"), "miss")
    assert meta2.pop("cache") == dict.fromkeys(("density", "tower", "dedup"), "hit")
    assert meta2 == meta
    assert any(p.name.startswith("q2quartic-density") for p in tmp_path.iterdir())


def test_truncated_cache_file_is_recomputed(Q2, tmp_path, caplog):
    report = verify(Q2, 11, methods=("density",), cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with caplog.at_level("WARNING", logger="q2quartic.oracle.cache"):
        again = verify(Q2, 11, methods=("density",), cache_dir=str(tmp_path))
    assert "unreadable" in caplog.text
    assert again.meta["cache"] == {"density": "miss"}
    assert again.to_json() == report.to_json()
    assert json.loads(path.read_text())["counts"]  # rewritten whole


def test_cache_key_separates_derived_fields(Q2, tmp_path):
    from q2quartic.oracle import cache
    from q2quartic.padic.field import ramified_quadratic
    from q2quartic.params import GroupTag

    E2 = ramified_quadratic(Q2, Q2.from_int(2))
    E6 = ramified_quadratic(Q2, Q2.from_int(6))
    counts = {(4, GroupTag.S4): 1}
    cache.store(str(tmp_path), E2, "density", 4, counts)
    assert cache.load(str(tmp_path), E2, "density", 4)[0] == counts
    assert cache.load(str(tmp_path), E6, "density", 4) is None
    (path,) = tmp_path.iterdir()
    assert f"-s{cache.ORACLE_SCHEMA}.json" in path.name


def test_verify_tower_only_scope(Q2):
    report = verify(Q2, 11, methods=("tower",))
    assert report.passed
    assert {r.group for r in report.rows} == {"V4", "C4", "D4"}
    assert all(r.method == "tower" for r in report.rows)


def test_precision_retry_rebuilds_field(Q2, monkeypatch):
    import importlib

    from q2quartic.errors import PrecisionExhausted
    from q2quartic.padic.field import with_doubled_precision

    V = importlib.import_module("q2quartic.oracle.verify")
    doubled = with_doubled_precision(Q2)
    assert doubled.precision == 2 * Q2.precision
    calls = []

    def flaky(field):
        calls.append(field.precision)
        if len(calls) == 1:
            raise PrecisionExhausted("simulated")
        return {"ok": field.precision}

    out = V._with_retry(Q2, flaky)
    assert out == {"ok": 2 * Q2.precision}
    assert calls == [Q2.precision, 2 * Q2.precision]


def test_tower_meta_in_report_and_cache(Q2, tmp_path):
    report = verify(Q2, 11, methods=("tower",), cache_dir=str(tmp_path))
    # Q2 has 6 ramified classes d, each with 14 ramified classes alpha
    assert report.meta["tower"]["pairs"] == 84
    assert report.meta["tower"]["cross_checks"] >= 0
    again = verify(Q2, 11, methods=("tower",), cache_dir=str(tmp_path))
    assert again.meta["cache"] == {"tower": "hit"}
    assert again.meta["tower"] == report.meta["tower"]
    assert verify(Q2, 11, methods=("tower",)).meta["tower"] == report.meta["tower"]
