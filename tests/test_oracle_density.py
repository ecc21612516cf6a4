import contextlib
import logging
import os
import select
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from helpers import FULL_RANGE_DENSITY_SPECS, cubic_congruence_count_pairwise

from q2quartic import counts as C
from q2quartic.cli import run
from q2quartic.errors import (
    BudgetExceeded,
    ClassInstability,
    InvalidParams,
    NonIntegralCount,
    PrecisionExhausted,
    Q2QuarticError,
)
from q2quartic.oracle import density as D
from q2quartic.oracle import measure
from q2quartic.oracle.dedup import dedup_counts
from q2quartic.oracle.density import density_counts, density_measures
from q2quartic.oracle.measure import (
    cubic_congruence_measure,
    measure_set,
    one_aut_measure,
    t_m_measure,
)
from q2quartic.oracle.verify import verify
from q2quartic.padic import quartic
from q2quartic.padic.field import field_from_spec, ramified_quadratic
from q2quartic.params import GROUP_ORDER, aut_order

_CERTIFICATES = ("leaves_krasner", "leaves_parity", "leaves_tower", "leaves_coset")
_SPLITS = ("splits_unpinned", "splits_one_aut", "splits_headroom", "splits_window")
_RUN_KEYS = ("leaves", "pruned", "max_depth", "root_count_cross_checks", *_CERTIFICATES, *_SPLITS)

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


def test_density_counts_q2_m8_full_cross_check(Q2, check_every):
    p = Q2.derive_params()
    check_every(1)
    dc, meta = density_counts(Q2, 8)
    for m in range(0, 9):
        for g in GROUP_ORDER:
            assert dc.get((m, g), 0) == C.count(p, m, g)
    assert meta["root_count_cross_checks"] == meta["leaves"]
    assert meta["pruned"] > 0


def test_density_counts_q2_full_support(Q2, check_every):
    p = Q2.derive_params()
    check_every(1)
    dc, meta = density_counts(Q2)
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


def test_density_measures_against_one_aut_density(Q2, check_every):
    check_every(0)
    measures, _ = density_measures(Q2)
    q = 2
    for m in (4, 6, 8):
        got = sum(v for (mm, g), v in measures.items() if mm == m and g.value in ("S4", "A4"))
        expect = (
            Fraction(q - 1, 1) ** 2
            * Fraction(1, q ** (-(-2 * m // 3) + 3))
            * (1 + (Fraction(1 - 2 * q, 3 * q) if m % 6 == 0 else 0))
        )
        assert got == expect


@pytest.fixture(scope="module")
def U3():
    return field_from_spec({"f": 3})


@pytest.mark.parametrize("spec", [s for s, _ in FULL_RANGE_DENSITY_SPECS],
                         ids=[label for _, label in FULL_RANGE_DENSITY_SPECS])
def test_density_without_resolvent_hints_is_unchanged(spec, monkeypatch):
    # each resolvent root search starts from the last root found; searching
    # every one from scratch must give the same rows and metadata
    K = field_from_spec(spec)
    hint, hits = quartic._root_from_hint, []

    def counted(*args):
        w = hint(*args)
        hits.append(w is not None)
        return w

    monkeypatch.setattr(quartic, "_root_from_hint", counted)
    hinted = density_counts(K)
    assert any(hits)
    monkeypatch.setattr(quartic, "_root_from_hint", lambda *args: None)
    assert density_counts(K) == hinted


@pytest.mark.parametrize(
    "spec, m_max",
    [*((s, None) for s, _ in FULL_RANGE_DENSITY_SPECS), ({"f": 3}, 6)],
    ids=[*(label for _, label in FULL_RANGE_DENSITY_SPECS), "U3-6"],
)
def test_density_with_krasner_order_unpinned_splits_is_unchanged(spec, m_max, monkeypatch):
    # an unpinned node splits on the coefficient that raises its children's
    # disc bound most; any split partitions the node, so splitting on the
    # weakest Krasner coordinate instead must give the same cells, and
    # density_counts checks conservation on both trees
    K = field_from_spec(spec)
    counts, meta = density_counts(K, m_max)

    def weakest(self, cs, vh):
        return min(range(4), key=lambda i: 4 * cs[i] + i)

    monkeypatch.setattr(D._Enumerator, "_unpinned_split", weakest)
    krasner, kmeta = density_counts(K, m_max)
    assert krasner == counts
    assert kmeta["splits_unpinned"] > meta["splits_unpinned"]


def test_unpinned_split_raises_the_bound_or_refines_the_weakest_coordinate(Q2):
    # at cs = (2, 1, 1, 1) the weakest Krasner coordinate is a1; one more
    # digit of a3 raises the least disc bound from 2 to 3 when v(a3) >= 1,
    # and with every vh[i] at 0 but vh[0] no coefficient raises it, so the
    # split refines a1 and delta grows
    enum = D._Enumerator(Q2, 11)
    assert enum._unpinned_split((2, 1, 1, 1), (1, 0, 0, 1)) == 3
    assert enum._unpinned_split((2, 1, 1, 1), (1, 0, 0, 0)) == 1


def test_unpinned_splits_pin_the_disc_in_few_steps(U3):
    # U(f=3) to m <= 5: 154 unpinned splits and 1,072 pruned classes when an
    # unpinned node splits on the weakest Krasner coordinate
    _, meta = density_measures(U3, 5)
    assert meta["splits_unpinned"] <= 10 and meta["pruned"] <= 40


def test_density_jobs_parallel_matches_serial(U2):
    serial, _ = density_counts(U2, 8, jobs=1)
    parallel, meta = density_counts(U2, 8, jobs=2)
    assert serial == parallel
    assert meta["jobs"] == min(2, D._available_cores())


def test_density_jobs2_closed_tree_does_not_fork(Q2, monkeypatch):
    # the parity certificate closes Q2's tree before 32 nodes are open, so
    # the parent finishes it alone and meta reports one process
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    serial, smeta = density_counts(Q2, 11, jobs=1)
    parallel, pmeta = density_counts(Q2, 11, jobs=2)
    assert serial == parallel
    assert smeta == pmeta and pmeta["jobs"] == 1


def test_root_orbit_symmetry_u2(U2, check_every):
    # the guard for enumerating one root: all q-1 roots end in the same
    # number of leaves and dropped classes per cell and depth
    check_every(0)
    tallies = []
    for t in range(1, U2.q):
        enum = D._Enumerator(U2, 6)
        root = ((0, t), (0,), (0,), (0,))
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
    measures, meta = density_measures(U2, 6)
    assert measures == summed
    assert meta["root_orbit"] == 3
    dropped = sum(n for (cell, _), n in tallies[0].items() if cell is None)
    assert (meta["leaves"], meta["pruned"]) == (sum(tallies[0].values()) - dropped, dropped)


@pytest.mark.parametrize(
    "walk",
    [
        lambda K: density_measures(K, 8),
        lambda K: dedup_counts(K, 6),
    ],
    ids=["density", "dedup"],
)
def test_conservation_catches_a_lost_leaf(monkeypatch, check_every, Q2, walk):
    # a leaf the walk forgets to record leaves its measure unaccounted for
    check_every(0)
    add_leaf = D._Enumerator._add_leaf
    lost = []

    def lossy(self, mg, fq, digits, certificate):
        if not lost:
            lost.append(digits)
            return False
        return add_leaf(self, mg, fq, digits, certificate)

    monkeypatch.setattr(D._Enumerator, "_add_leaf", lossy)
    with pytest.raises(NonIntegralCount, match="enumeration lost measure"):
        walk(Q2)
    assert len(lost) == 1


@pytest.mark.parametrize("fixture", ["K_sqrt2", "U2"])
def test_every_stat_counted_is_reported(request, fixture):
    # density_measures reports the keys of _STATS only: a key counted under
    # any other name would never reach the meta.  Over the full range these
    # trees count every key of _STATS, so a misspelt one would show too.
    K = request.getfixturevalue(fixture)
    enum = D._Enumerator(K, 8 * K.e_abs + 3)
    enum.run([D._ROOT])
    assert set(enum.stats) == set(D._STATS)


@pytest.mark.parametrize(
    "spec, m_max",
    [
        ({"f": 1}, 11),
        ({"f": 1, "eisenstein": [-2, 0, 1]}, 12),
        ({"f": 2}, 8),
        ({"f": 3}, 5),
    ],
    ids=["Q2", "sqrt2", "U2", "U3"],
)
def test_splits_by_reason_count_the_inner_nodes(spec, m_max, check_every):
    # every split node has q children, so the enumerated root's terminal
    # nodes number (q - 1) * (split nodes) + 1
    K = field_from_spec(spec)
    check_every(0)
    _, meta = density_measures(K, m_max)
    splits = sum(meta[k] for k in _SPLITS)
    assert splits * (K.q - 1) + 1 == meta["leaves"] + meta["pruned"]


@pytest.mark.parametrize("field, m_max", [("U3", 6), ("U2", 6), ("K_sqrt2", 8)])
def test_density_jobs2_matches_serial(request, field, m_max):
    K = request.getfixturevalue(field)
    serial, smeta = density_counts(K, m_max, jobs=1)
    parallel, pmeta = density_counts(K, m_max, jobs=2)
    assert serial == parallel
    assert [smeta[k] for k in _RUN_KEYS] == [pmeta[k] for k in _RUN_KEYS]
    assert smeta["jobs"] == 1
    assert pmeta["jobs"] == min(2, D._available_cores())


@pytest.mark.parametrize(
    "walk",
    [
        lambda K: density_counts(K, 10)[1],
        lambda K: density_counts(K, 10, jobs=2)[1],
        lambda K: dedup_counts(K, 8)[1],
    ],
    ids=["density", "density-jobs2", "dedup"],
)
def test_every_leaf_cross_checked(K_sqrt2, check_every, walk):
    # at rate 1 every recorded leaf is classified afresh by root counting, in
    # the parent and in forked workers alike; a dedup leaf dropped at
    # m > m_max is recorded without one.  At rate 0 none is.
    check_every(1)
    meta = walk(K_sqrt2)
    assert meta["root_count_cross_checks"] == meta["leaves"] - meta.get("dropped", 0) > 0
    check_every(0)
    assert walk(K_sqrt2)["root_count_cross_checks"] == 0


def test_density_jobs2_field_without_spec(Q2):
    E = ramified_quadratic(Q2, Q2.from_int(2))
    assert E.spec is None
    serial, _ = density_counts(E, 8, jobs=1)
    parallel, meta = density_counts(E, 8, jobs=2)
    assert serial == parallel
    assert meta["jobs"] == min(2, D._available_cores())


_TWO_CORES = pytest.mark.skipif(D._available_cores() < 2, reason="the split needs 2 cores")
_WORKER_RUN = D._worker_run


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def worker_first(monkeypatch):
    """Install ``task(node)`` as the split's worker task.  The parent's own
    subtrees wait until the worker has taken a node, so the worker always
    runs ``task`` at least once."""
    r, w = os.pipe()
    os.set_blocking(r, False)
    run = D._Enumerator.run

    def worker_run(node):
        os.write(w, b"!")
        return worker_run.task(node)

    def parent_run(self, roots):
        select.select([r], [], [], 60)
        run(self, roots)

    def install(task):
        # a byte left by an earlier split would let the parent start at once
        with contextlib.suppress(BlockingIOError):
            os.read(r, 64)
        worker_run.task = task
        monkeypatch.setattr(D, "_worker_run", worker_run)
        monkeypatch.setattr(D._Enumerator, "run", parent_run)

    yield install
    os.close(r)
    os.close(w)


@_TWO_CORES
def test_split_reraises_a_worker_exception_with_its_class(worker_first, monkeypatch, U2):
    # the failing worker empties the task pipe, so the parent, which takes
    # 0.1 s a subtree here, stops after a subtree or two instead of running
    # the rest of U(f=2)'s 34 open nodes
    def exhausted(node):
        raise PrecisionExhausted("the worker ran out of digits")

    worker_first(exhausted)
    waiting_run = D._Enumerator.run
    ran = []

    def slow_run(self, roots):
        waiting_run(self, roots)
        ran.append(roots)
        time.sleep(0.1)

    monkeypatch.setattr(D._Enumerator, "run", slow_run)
    start = time.monotonic()
    with pytest.raises(PrecisionExhausted, match="the worker ran out of digits"):
        density_counts(U2, 6, jobs=2)
    assert len(ran) <= 3
    assert time.monotonic() - start < 1.5
    _assert_no_child_left()


@_TWO_CORES
def test_verify_doubles_precision_on_a_worker_exception(worker_first, U2):
    # verify retries a PrecisionExhausted from a worker at twice the precision
    def exhausted_at_first(node):
        if D._WORKER_STATE["enum"].K.precision == U2.precision:
            raise PrecisionExhausted("the worker ran out of digits")
        return _WORKER_RUN(node)

    worker_first(exhausted_at_first)
    report = verify(U2, 6, methods=("density",), jobs=2)
    assert report.passed
    assert report.meta["density"]["jobs"] == 2
    _assert_no_child_left()


@_TWO_CORES
def test_split_raises_when_a_worker_dies(worker_first, U2, tmp_path, capsys):
    worker_first(lambda node: os._exit(3))
    with pytest.raises(Q2QuarticError, match=r"ended without sending its result \(exit code 3\)"):
        density_counts(U2, 6, jobs=2)
    _assert_no_child_left()
    worker_first(lambda node: os._exit(3))
    spec = tmp_path / "u2.json"
    spec.write_text('{"f": 2}')
    argv = ["verify", "--field", str(spec), "--m-max", "6", "--oracle", "density", "--jobs", "2"]
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert "ended without sending its result" in err and "Traceback" not in err
    _assert_no_child_left()


@_TWO_CORES
def test_split_kills_its_workers_when_the_parent_fails(worker_first, monkeypatch, U2):
    # the worker's first subtree would take 20 s; the parent's own one fails
    slept = []

    def slow_first(node):
        if not slept:
            slept.append(node)
            time.sleep(20)
        return _WORKER_RUN(node)

    worker_first(slow_first)
    waiting_run = D._Enumerator.run

    def failing_run(self, roots):
        waiting_run(self, roots)
        raise PrecisionExhausted("the parent ran out of digits")

    monkeypatch.setattr(D._Enumerator, "run", failing_run)
    start = time.monotonic()
    with pytest.raises(PrecisionExhausted, match="the parent ran out of digits"):
        density_counts(U2, 6, jobs=2)
    assert time.monotonic() - start < 10
    _assert_no_child_left()


@_TWO_CORES
def test_split_frontier_fits_one_pipe_write(monkeypatch):
    # asked for a million open nodes per process, the parent opens no more
    # than one write into an empty pipe holds (PIPE_BUF bytes, 4 per node),
    # and the split still completes; U(f=2) to m <= 10 is wide enough to
    # reach that cap
    K = field_from_spec({"f": 2})
    serial = density_counts(K, 10, jobs=1)
    opened = []
    open_frontier = D._Enumerator.open_frontier

    def recording(self, roots, width):
        opened.append(open_frontier(self, roots, width))
        return opened[-1]

    monkeypatch.setattr(D, "_NODES_PER_JOB", 10**6)
    monkeypatch.setattr(D._Enumerator, "open_frontier", recording)
    counts, meta = density_counts(K, 10, jobs=2)
    assert (counts, meta["leaves"]) == (serial[0], serial[1]["leaves"])
    assert select.PIPE_BUF // 4 - K.q < len(opened[0]) <= select.PIPE_BUF // 4
    _assert_no_child_left()


@_TWO_CORES
def test_split_does_not_import_multiprocessing():
    # U(f=2) to m <= 6 is large enough to fork; the hook counts the forks
    src = os.path.dirname(os.path.dirname(os.path.dirname(D.__file__)))
    code = (
        "import os, sys\n"
        "from q2quartic.oracle.density import density_counts\n"
        "from q2quartic.padic.field import field_from_spec\n"
        "forks = []\n"
        "os.register_at_fork(after_in_parent=lambda: forks.append(1))\n"
        "counts, meta = density_counts(field_from_spec({'f': 2}), 6, jobs=2)\n"
        "assert counts and forks == [1], forks\n"
        "assert 'multiprocessing' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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


def test_measure_set_instability_detected(Q2, check_every):
    # a predicate reading digits beyond the class depth must be rejected
    def unstable(fq):
        v = Q2.val(fq.a2)
        return v is None or v > 3

    check_every(1)  # re-test every class
    with pytest.raises(ClassInstability):
        measure_set(Q2, unstable, 3)


@pytest.mark.parametrize("label, c", [("Q2", 3), ("U2", 2)])
def test_eisenstein_classes_yield_each_class_once(label, c, Q2, U2):
    K = {"Q2": Q2, "U2": U2}[label]
    q = K.q
    classes = list(measure._eisenstein_classes(K, c))
    heads = [K.from_digits((0, t) + rest) for t in range(1, q) for rest in product(range(q), repeat=c - 2)]
    tails = [K.from_digits((0,) + d) for d in product(range(q), repeat=c - 1)]
    expected = set(product(heads, tails, tails, tails))
    assert len(classes) == len(expected) == (q - 1) * q ** (4 * c - 5)
    assert {fq.coeffs() for _, fq in classes} == expected
    assert len({digits for digits, _ in classes}) == len(classes)


@pytest.mark.parametrize(
    "call",
    [
        lambda K: measure_set(K, bool, 1),
        lambda K: one_aut_measure(K, -6),
        lambda K: one_aut_measure(K, 12),
        lambda K: t_m_measure(K, 5),
        lambda K: t_m_measure(K, 10),
        lambda K: cubic_congruence_measure(K, 0, 1),
        lambda K: cubic_congruence_measure(K, 1, -1),
    ],
    ids=["c=1", "m=-6", "m=12", "T_5", "T_10", "a=0", "b=-1"],
)
def test_measure_arguments_are_checked_first(Q2, call, monkeypatch):
    def enumeration(*args):
        raise AssertionError("enumeration started before the arguments were checked")

    monkeypatch.setattr(measure, "_eisenstein_classes", enumeration)
    monkeypatch.setattr(measure, "_digit_tuples", enumeration)
    with pytest.raises(InvalidParams):
        call(Q2)


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


@pytest.mark.parametrize("spec", [[-2, 0, 1], [2, 0, 1]], ids=["x^2-2", "x^2+2"])
def test_one_aut_measures_ramified(spec):
    # the density relation on a ramified base, where the stem root count
    # runs in nested stems
    K = field_from_spec({"f": 1, "eisenstein": spec})
    q, p = K.q, K.derive_params()
    for m in (4, 6, 8):
        assert one_aut_measure(K, m) * Fraction(q) ** (m + 2) / (q - 1) == C.count_one_aut(p, m)


def test_disc_cache_computes_no_prefix_twice(Q2, monkeypatch):
    # _check_stability reads three bumped prefixes and then the class's own:
    # the cache holds all four, so every miss is a prefix not read before
    cached = quartic._disc_by_a3
    keys = []

    def recording(*key):
        keys.append(key)
        return cached(*key)

    monkeypatch.setattr(quartic, "_disc_by_a3", recording)
    cached.cache_clear()
    one_aut_measure(Q2, 6)
    assert cached.cache_info().misses == len(set(keys)) < len(keys)


def test_cubic_congruence_q2(Q2):
    q = 2
    for a, b in [(1, 1), (1, 2), (2, 2)]:
        expect = Fraction((q - 1) ** 2 * (2 * q - 1), 3 * q ** (a + 2 * b + 4))
        assert cubic_congruence_measure(Q2, a, b) == expect


@pytest.mark.parametrize("label", ["Q2", "U2", "U3", "sqrt2", "x^3-2"])
def test_cubic_congruence_matches_the_pairwise_count(label, Q2, U2, K_sqrt2):
    # each (x0, x2) counts the distinct leading digits of its targets of
    # valuation a + b instead of testing every x1 against every target.
    # U(f=3) pins f = 3 at (1, 1) alone, where the pairwise count takes
    # 0.4 s (13 s at (2, 1)); x^3-2 pins a ramified base with e = 3
    more = {"U3": {"f": 3}, "x^3-2": {"f": 1, "eisenstein": [-2, 0, 0, 1]}}
    K = {"Q2": Q2, "U2": U2, "sqrt2": K_sqrt2}.get(label) or field_from_spec(more[label])
    for a, b in [(1, 1)] if label == "U3" else [(1, 1), (1, 2), (2, 1), (2, 2)]:
        n = cubic_congruence_count_pairwise(K, a, b)
        assert cubic_congruence_measure(K, a, b) == Fraction(n, K.q ** (3 * (a + b + 1)))


def test_cubic_congruence_budget_guard(monkeypatch):
    # U(f=8) at a = b = 2 has (q-1) q^(2a+b) = 255 * 256^6 pairs (x0, x2)
    K = field_from_spec({"f": 8})
    built = []
    monkeypatch.setattr(K, "from_digits", built.append)
    with pytest.raises(BudgetExceeded, match="pairs"):
        cubic_congruence_measure(K, 2, 2)
    assert built == []  # raised before the first pair


def test_cubic_congruence_refuses_depth_beyond_the_cap(Q2):
    # the congruence is read mod pi^(a+b+1), which must lie within the cap
    with pytest.raises(PrecisionExhausted, match="beyond cap"):
        cubic_congruence_measure(Q2, Q2.ring.cap, 1)
    # the helper it shares with is_one_aut reads digits up to pi^level < pi^cap
    cap = Q2.ring.cap
    quartic.cubic_leading_digits(Q2, 1, cap - 1)
    with pytest.raises(PrecisionExhausted, match=f"mod pi\\^{cap + 1} beyond cap"):
        quartic.cubic_leading_digits(Q2, 1, cap)


# leaves per certificate and splits per reason over the full range, as the
# ROADMAP table records them; a change of either is a change of the tree
_PINNED_TREES = {
    "x^2-2": ((153, 2, 1792, 67), (10, 152, 1595, 256)),
    "unramified f=2": ((99, 3, 1856, 134), (5, 33, 275, 384)),
}


@pytest.mark.parametrize("label", sorted(_PINNED_TREES))
def test_density_tree_is_pinned(label):
    spec = dict((lab, s) for s, lab in FULL_RANGE_DENSITY_SPECS)[label]
    _, meta = density_counts(field_from_spec(spec))
    leaves, splits = _PINNED_TREES[label]
    assert tuple(meta[k] for k in _CERTIFICATES) == leaves
    assert tuple(meta[k] for k in _SPLITS) == splits


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
