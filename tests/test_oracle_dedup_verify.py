import json
import sys

import pytest
from helpers import Q2_TABLE, quartic_from_ints

from q2quartic import counts as C
from q2quartic.errors import BudgetExceeded, FormulationMismatch, InvalidParams, NonIntegralCount
from q2quartic.oracle import dedup as X
from q2quartic.oracle import density as D
from q2quartic.oracle.dedup import _has_root_in, dedup_counts
from q2quartic.oracle.measure import measure_set
from q2quartic.oracle.tower import tower_counts
from q2quartic.oracle.verify import verify
from q2quartic.padic.quartic import stem_ring
from q2quartic.params import GROUP_ORDER, GroupTag, cell_key


@pytest.mark.parametrize(
    "field, m_max",
    [("Q2", 6), ("K_sqrt2", 8), ("U2", 7), pytest.param("K_sqrt2", 10, marks=pytest.mark.slow)],
)
def test_dedup_counts_match_closed_forms(request, field, m_max):
    K = request.getfixturevalue(field)
    p = K.derive_params()
    got, meta = dedup_counts(K, m_max)
    assert got and all(m <= m_max for m, _ in got)
    for m in range(m_max + 1):
        for g in GROUP_ORDER:
            assert got.get((m, g), 0) == C.count(p, m, g), (m, g)
    # one classification per field, and none for a leaf a live field matches
    assert meta["fields"] == meta["classified"] == sum(got.values())
    assert meta["leaves"] >= meta["fields"] + meta["dropped"]


def test_dedup_counts_the_leaves_it_drops(monkeypatch, Q2):
    # with no disc bound nothing is pruned, so the leaves above m_max reach
    # the Krasner hook and are dropped there; meta["leaves"] counts them all
    monkeypatch.setattr(D, "disc_bound", lambda cs, vh, e: 0)
    calls = []
    krasner_leaf = X._DedupWalk._krasner_leaf
    monkeypatch.setattr(
        X._DedupWalk, "_krasner_leaf", lambda walk, d: calls.append(d) or krasner_leaf(walk, d)
    )
    got, meta = dedup_counts(Q2, 6)
    p = Q2.derive_params()
    assert got == {(m, g): C.count(p, m, g) for m in range(7) for g in GROUP_ORDER
                   if C.count(p, m, g)}
    assert meta["dropped"] > 0
    assert meta["leaves"] == len(calls)


def test_dedup_full_range_q2_is_the_paper_table(Q2):
    counts, meta = dedup_counts(Q2, 11)
    assert counts == Q2_TABLE
    assert meta["fields"] == sum(Q2_TABLE.values())


def test_ledger_catches_a_field_found_twice(monkeypatch, Q2):
    # when no stem matches, each leaf starts a field of its own: every copy
    # of a field with more than one leaf holds only part of its share
    monkeypatch.setattr(X, "_has_root_in", lambda stem, fq: False)
    with pytest.raises(NonIntegralCount, match="dedup ledger: .* left short"):
        dedup_counts(Q2, 8)


def test_ledger_catches_a_field_past_its_share(monkeypatch, Q2):
    # a field labelled D4 has half the share of an S4 field: the S4 field's
    # leaves overfill it
    classify = X.classify_quartic
    monkeypatch.setattr(X, "classify_quartic", lambda fq: (classify(fq)[0], GroupTag.D4))
    with pytest.raises(NonIntegralCount, match="dedup ledger: .* overfilled"):
        dedup_counts(Q2, 8)


def test_every_stem_matching_gives_no_wrong_table(monkeypatch, Q2):
    # when every stem matches, each bucket has one live field at a time and
    # the leaves fill it in walk order until it is exactly full.  A bucket's
    # fields share m and the square class of disc, so equal shares mean equal
    # groups, and on Q2 the runs fill whole shares: the ledger holds and the
    # table is still right.  It must never be wrong without the ledger raising.
    monkeypatch.setattr(X, "_has_root_in", lambda stem, fq: True)
    try:
        counts, _ = dedup_counts(Q2, 11)
    except NonIntegralCount:
        return
    assert counts == Q2_TABLE


def test_dedup_re_classifies_sampled_leaves(Q2):
    # density's sampled root-count cross-check runs on dedup's leaves too
    report = verify(Q2, 11, methods=("dedup",), dedup_m_max=11)
    assert report.passed
    assert report.meta["dedup"]["root_count_cross_checks"] > 0


def test_dedup_cross_check_catches_a_disagreeing_classification(monkeypatch, Q2):
    # a sampled leaf whose root count disagrees with the (m, G) of the field
    # it was matched to raises, whatever the ledger says
    classify = D.classify_quartic

    def wrong(fq):
        m, g = classify(fq)
        return m, GroupTag.S4 if g is GroupTag.D4 else GroupTag.D4

    monkeypatch.setattr(D, "classify_quartic", wrong)
    with pytest.raises(FormulationMismatch, match="disagrees with root counting"):
        dedup_counts(Q2, 11)


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


def test_verify_rejects_jobs_below_one_before_any_oracle(Q2, monkeypatch):
    # only density reads jobs, but a bad value must not pass with the others
    V = sys.modules["q2quartic.oracle.verify"]

    def no_oracle(*args, **kwargs):
        raise AssertionError("an oracle ran before jobs was checked")

    monkeypatch.setattr(V, "tower_counts", no_oracle)
    monkeypatch.setattr(V, "dedup_counts", no_oracle)
    for methods, jobs in ((("tower",), 0), (("dedup",), -3)):
        with pytest.raises(InvalidParams, match="jobs must be at least 1, got"):
            verify(Q2, 6, methods=methods, jobs=jobs)


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
    # dedup to m <= 6 finds the four fields S4 at 4, A4 and two D4 at 6
    assert report.meta["dedup_m_max"] == 6
    assert report.meta["dedup"]["fields"] == report.meta["dedup"]["classified"] == 4
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


def test_cache_file_copied_under_another_fields_name_is_recomputed(Q2, K_sqrt2, tmp_path, caplog):
    from q2quartic.oracle import cache

    verify(Q2, 11, methods=("density",), cache_dir=str(tmp_path))
    (q2_file,) = tmp_path.iterdir()
    sqrt2_path = cache._cache_path(str(tmp_path), K_sqrt2, "density", 11)
    q2_file.rename(sqrt2_path)
    with caplog.at_level("WARNING", logger="q2quartic.oracle.cache"):
        report = verify(K_sqrt2, 11, methods=("density",), cache_dir=str(tmp_path))
    assert "written for another field_hash" in caplog.text
    assert report.meta["cache"] == {"density": "miss"}
    assert report.passed
    assert json.loads(open(sqrt2_path).read())["field_hash"] == K_sqrt2.spec_hash()


@pytest.mark.parametrize("key", ["oracle", "m_max", "field_hash", "version", "schema"])
def test_cache_ignores_a_file_written_for_another_key(Q2, tmp_path, caplog, key):
    from q2quartic.oracle import cache
    from q2quartic.params import GroupTag

    cache.store(str(tmp_path), Q2, "density", 4, {(4, GroupTag.S4): 1})
    (path,) = tmp_path.iterdir()
    blob = json.loads(path.read_text())
    blob[key] = blob[key] + 1 if isinstance(blob[key], int) else blob[key] + "x"
    path.write_text(json.dumps(blob))
    with caplog.at_level("WARNING", logger="q2quartic.oracle.cache"):
        assert cache.load(str(tmp_path), Q2, "density", 4) is None
    assert f"written for another {key}" in caplog.text


def test_cache_write_failure_is_a_warning(Q2, tmp_path, caplog, monkeypatch):
    import errno
    import os

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", disk_full)
    with caplog.at_level("WARNING", logger="q2quartic.oracle.cache"):
        report = verify(Q2, 11, methods=("density",), cache_dir=str(tmp_path))
    assert "cannot write" in caplog.text
    assert report.passed and report.meta["cache"] == {"density": "miss"}
    assert list(tmp_path.iterdir()) == []  # the partial .tmp file is removed


def test_verify_tower_only_scope(Q2):
    report = verify(Q2, 11, methods=("tower",))
    assert report.passed
    assert {r.group for r in report.rows} == {"V4", "C4", "D4"}
    assert all(r.method == "tower" for r in report.rows)
    # m_max beyond 8e+3 = 11 adds no row and is read as 11 before any walk over m
    assert verify(Q2, 10**8, methods=("tower",)).rows == report.rows


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
    assert out == ({"ok": 2 * Q2.precision}, 2 * Q2.precision)
    assert calls == [Q2.precision, 2 * Q2.precision]


@pytest.mark.parametrize("oracle", ["tower", "density", "dedup"])
def test_report_meta_records_the_precision_after_retries(Q2, monkeypatch, tmp_path, oracle):
    # an oracle that runs out of digits once is run again at twice the
    # precision; its meta says so, and so does the meta a cache hit reads back
    import importlib

    from q2quartic.errors import PrecisionExhausted

    V = importlib.import_module("q2quartic.oracle.verify")
    name = f"{oracle}_counts"
    real, calls = getattr(V, name), []

    def exhausted_once(field, *args, **kwargs):
        calls.append(field.precision)
        if len(calls) == 1:
            raise PrecisionExhausted("simulated")
        return real(field, *args, **kwargs)

    monkeypatch.setattr(V, name, exhausted_once)
    report = V.verify(Q2, 8, methods=(oracle,), cache_dir=str(tmp_path))
    assert report.passed
    assert calls == [Q2.precision, 2 * Q2.precision]
    assert report.meta[oracle]["precision"] == 2 * Q2.precision
    again = V.verify(Q2, 8, methods=(oracle,), cache_dir=str(tmp_path))
    assert again.meta["cache"] == {oracle: "hit"}
    assert again.meta[oracle] == report.meta[oracle]
    monkeypatch.setattr(V, name, real)
    assert V.verify(Q2, 8, methods=(oracle,)).meta[oracle]["precision"] == Q2.precision


def test_tower_meta_in_report_and_cache(Q2, tmp_path):
    report = verify(Q2, 11, methods=("tower",), cache_dir=str(tmp_path))
    # Q2 has 6 ramified classes d, each with 14 ramified classes alpha
    assert report.meta["tower"]["pairs"] == 84
    assert report.meta["tower"]["cross_checks"] >= 0
    again = verify(Q2, 11, methods=("tower",), cache_dir=str(tmp_path))
    assert again.meta["cache"] == {"tower": "hit"}
    assert again.meta["tower"] == report.meta["tower"]
    assert verify(Q2, 11, methods=("tower",)).meta["tower"] == report.meta["tower"]


@pytest.mark.parametrize(
    "field, spec, m_max", [("Q2", '{"f": 1, "e": 1}', 11), ("U2", '{"f": 2}', 7)]
)
def test_count_maps_and_reports_list_cells_in_cell_key_order(
    request, tmp_path, capsys, field, spec, m_max
):
    from q2quartic.cli import run

    K = request.getfixturevalue(field)

    def assert_ordered(cells):
        cells = list(cells)
        assert len({m for m, _ in cells}) < len(cells)  # some m holds two groups
        assert cells == sorted(cells, key=cell_key)

    assert_ordered(D.density_counts(K, m_max)[0])
    assert_ordered(dedup_counts(K, min(m_max, 8))[0])
    assert_ordered(tower_counts(K)[0])
    report = verify(K, m_max, methods=("density",), cache_dir=str(tmp_path))
    assert_ordered((r.m, GroupTag(r.group)) for r in report.rows)
    (path,) = tmp_path.iterdir()
    assert_ordered((m, GroupTag(g)) for m, g, _ in json.loads(path.read_text())["counts"])
    # lmfdb-check merges the CSV's cells, one at c = 50 outside the support, into the formula's
    (tmp_path / "field.json").write_text(spec)
    (tmp_path / "lf.csv").write_text("label,e,c,galois_label\n2.4.50.1,4,50,4T3\n2.4.6.1,4,6,4T4\n")
    run(["lmfdb-check", "--csv", str(tmp_path / "lf.csv"), "--field", str(tmp_path / "field.json")])
    lines = capsys.readouterr().out.splitlines()[1:-1]
    assert_ordered((int(c), GroupTag(g)) for c, g, *_ in map(str.split, lines))
    assert lines[-1].split()[:2] == ["50", "D4"]


@pytest.mark.parametrize(
    "where, value",
    [
        (0, 6.0),  # m not an int
        (0, True),
        (0, "6"),
        (0, -6),
        (1, "Q8"),  # not a group
        (2, 2.9),  # count not an int
        (2, True),
        (2, "2"),
        (2, -2),
        ("repeat", None),  # one cell twice
        ("meta", []),  # meta not an object
    ],
)
def test_cache_entry_that_is_not_a_count_is_recomputed(Q2, tmp_path, caplog, where, value):
    report = verify(Q2, 11, methods=("tower",), cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    blob = json.loads(path.read_text())
    if where == "meta":
        blob["meta"] = value
    elif where == "repeat":
        m, g, n = blob["counts"][0]
        blob["counts"].append([m, g, n + 1])
    else:
        blob["counts"][0][where] = value
    path.write_text(json.dumps(blob))
    with caplog.at_level("WARNING", logger="q2quartic.oracle.cache"):
        again = verify(Q2, 11, methods=("tower",), cache_dir=str(tmp_path))
    assert "unreadable" in caplog.text
    assert again.meta["cache"] == {"tower": "miss"}
    assert again.passed and again.rows == report.rows
