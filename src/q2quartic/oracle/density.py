"""Density oracle: classify the whole space of Eisenstein quartics by
adaptive refinement of coefficient residue classes, and convert class
measures to field counts through the density relation

    #Sigma_m^G = #Aut(G) * q^(m+2) * mu(P_m^G) / (q - 1).

A node of the refinement tree fixes the first c_i Teichmueller digits of
each coefficient a_i (with the Eisenstein constraints built into the roots
of the tree).  Five sound certificates drive the recursion, computed from
integer valuation data of the node's zero-extended representative and,
for the last two, from the square class of its discriminant:

* disc certificate: v(disc) of the representative is Ore's formula for the
  different, m = v_L(f'(pi)) = min(4 v1, 4(v2+e)+1, 4 v3+2, 8e+3), whose
  terms differ mod 4 so the minimum is attained once; ``bound``, the least
  perturbation of the discriminant monomials under the node's undecided
  digits (``disc_bound``), certifies it for every member once m < bound,
  and with 2e+1 digits of headroom the square class of disc is constant as
  well.
* Krasner certificate: with delta = min_i(4 c_i + i), the valuation any
  member's value perturbation can have at a root, and D the largest root
  distance of the representative (read off the Newton polygon of
  f(Z + pi)/Z, whose vertex valuations are exact because competing terms
  differ mod 4), the condition delta > 4D forces a perfect matching of
  roots between any two members, each within Krasner distance, so the node
  is constant on the full field-isomorphism class.
* parity certificate: a node with v(disc) = m pinned, m odd and m < 8e+3,
  is D4 for every member.  No member is S4 or A4: a quartic with one
  automorphism lies in T_m, which needs m even.  None is V4: a disc of odd
  valuation is not a square.  None is C4: by the conductor-discriminant
  formula (Serre, Local Fields, ch. VI) a C4 extension with upper breaks
  u1 <= u2 has m = 2(u2+1) + (u1+1), odd only when u1 = 2e, the break of
  K(sqrt(pi u)); Hasse-Arf and the break relation of cyclic 2-power
  extensions (ch. IV-V) then force u2 = 3e, so m = 8e+3.  The test needs
  no square class and no resolvent root.
* tower certificate: when every member visibly fails the one-automorphism
  valuation pattern, the classification only needs the square class of
  disc (V4 when square) and, for the C4/D4 split, the square class of
  disc * (w^2 - 4 a0) for the unique root w of the resolvent cubic; w is
  pinned by a Hensel window, so stability follows from coefficient-level
  perturbation bounds far shallower than the Krasner depth.  The window's
  resolvent-coefficient bounds (``r0_bound``, ``r1_bound``, ``r2_bound``)
  are built like the disc bound, from the resolvent's monomials.  All four
  bound functions live in :mod:`q2quartic.padic._compiled`, straight-line
  code generated from ``_DISC_MONOMIALS`` and ``_RESOLVENT_MONOMIALS``.
* coset certificate: a quadratic K(sqrt(d)) lies in a C4 extension iff the
  Hilbert symbol (d, -1) is 1 (Serre, Local Fields, ch. XIV).  Square
  classes are F_2-coordinate vectors (:mod:`q2quartic.padic.field`), so
  these d form the hyperplane H = ker h of one functional h.  When -1 is a
  square, h = 0 and there is no certificate; when -1 is in the unramified
  class, K(sqrt(-1)) is unramified, H is the even valuations and h is bit
  0; when -1 is ramified, H is the norm group of K(sqrt(-1)).  With
  k = bound - m every member's disc lies in disc(rep) (1 + pi^k O), so its
  class lies in the coset cd + W_k: cd is the class of disc(rep), and W_k,
  the classes of 1 + pi^k O, is spanned by the basis bits at odd levels
  >= k and, for k <= 2e, the unramified bit.  h never has the unramified
  bit, as (u, -1) = 1 for the unramified class u (v(-1) is even), so W_k
  lies in H exactly when k > h_top, the highest odd level carrying a bit
  of h.  A visibly non-1-Aut node with k > h_top and h(cd) = 1 therefore
  has no member whose disc lies in H: none is V4, as 0 lies in H, and none
  is C4, whose disc generates its quadratic subfield; all are D4.  The
  bits of cd up to level h_top come from one square-class walk, stopped
  there, which also answers the square test of the tower certificate.
  When h(cd) = 0 instead, the whole coset lies in H, and so does the coset
  of every descendant, whose members are members of the node: the children
  are marked (``_InH``) and no descendant walks for the test again.  The
  mark only skips a test that cannot succeed; it certifies nothing.

delta grows whenever the weakest coordinate is refined and all thresholds
are bounded in terms of 8e+3, so the recursion terminates.

The dedup oracle (:mod:`.dedup`) walks the same tree with the tower and
coset certificates off: ``_expand`` reaches the leaf certificates through
the hooks ``_krasner_leaf`` and ``_tower_leaf``, which dedup overrides.

Root orbit.  The q-1 roots of the tree differ only in the leading digit t
of a0/pi.  For a Teichmueller unit u the map f(X) -> u^4 f(X/u) scales a_i
by u^(4-i); Teichmueller digits are multiplicative, so the map sends a
cylinder of coefficient digits to a cylinder of the same depth (same
measure) and keeps the stem field (roots scale by u), hence (m, G).  Since
q-1 is odd, u -> u^4 permutes F_q^*, so the map carries the root t = 1 to
every other root.  Only that root is enumerated.  The walk keeps one
integer tally: the number of terminal nodes per (cell, depth), where cell
is (m, G) for a leaf and None for a class dropped because m > m_max.  A
node of depth d has measure q^-d, so with top the greatest depth the root
is filled exactly when sum n q^(top-d) = q^(top-5); the cell measures
(numerators over q^top) are multiplied by q-1 only when they are
returned.  ``leaves``, ``pruned`` and the root-count cross-checks in the
metadata count the enumerated root only; ``leaves_krasner``,
``leaves_parity``, ``leaves_tower`` and ``leaves_coset`` split ``leaves``
by certificate.  The ``splits_*`` counts split the enumerated root's inner
nodes by the reason each was refined: ``unpinned`` (v(disc) not certified yet),
``one_aut`` (a member may still fit the 1-Aut pattern), ``headroom``
(k = bound - m below 2e+1 and no coset certificate) and ``window`` (the
resolvent root is not pinned).  Each split node has q children, so
(q - 1) * sum(splits) + 1 = leaves + pruned.

Parallel split.  With jobs > 1 the parent expands the tree breadth-first
until at least 16 nodes per process are open, writes their indices into
one pipe as 4-byte records and forks jobs - 1 workers.  The parent and
every worker take indices from that pipe until it is empty; a 4-byte read
from a pipe is atomic, so each node goes to exactly one process, and a
process that finishes a small subtree takes the next open node.  All the
indices are written in one write before the fork, so the frontier is
capped at PIPE_BUF / 4 records (1,024 on Linux), which an empty pipe
always holds.  Workers inherit the enumerator, so fields without a spec
file run in parallel too.  Each worker sends the tally, cross-check count,
leaves per certificate and splits per reason of each of its subtrees back
through a pipe of its own and exits; the parent runs its own subtrees on
its own enumerator and adds the workers' results to it.  An exception
raised in a worker is re-raised in the parent with its own class, a worker
that ends without sending its result raises ``Q2QuarticError``, and every
worker is reaped, and killed first if the split failed, before the call
returns or raises.  A tree that closes before that many nodes are open is
finished by the parent alone.  ``jobs`` counts the parent and is clamped to
the cores this process may use; ``meta["jobs"]`` is the number of processes
that ran, 1 when the tree closed before any fork.

Cross-checks.  A leaf is re-classified by stem root counting when the hash
of its digits is divisible by ``cross_check_every`` (1: every leaf, 0: none).
Hashes of int tuples do not depend on PYTHONHASHSEED or on ``jobs``.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property

from ..errors import FormulationMismatch, InvalidParams, NonIntegralCount, Q2QuarticError
from ..padic._compiled import disc_bound, r0_bound, r1_bound, r2_bound
from ..padic.field import LocalField, ramified_quadratic
from ..padic.quartic import (
    EisensteinQuartic,
    _poly_deriv,
    _poly_eval,
    _resolvent_root_target,
    _resolvent_split,
    classify_by_invariants,
    classify_quartic,
    in_Tm_domain,
    resolvent_cubic,
)
from ..params import GroupTag, MinusOneClass, aut_order
from .tower import _norm_images


_INF = 10**9

# The parent of a parallel split opens this many nodes per process before it
# hands them out.
_NODES_PER_JOB = 16


class _InH(tuple):
    """Node digits below a node whose members' disc classes all lie in H.

    A mark only: equal to, and hashing like, the plain tuple of the same
    digits, so the tree, its sampling and its split frontier are unchanged.
    """

    __slots__ = ()


def _reduce(v: int, echelon: list[int]) -> int:
    """v reduced by an F2 echelon basis (distinct leading bits, in decreasing order)."""
    for b in echelon:
        v = min(v, v ^ b)
    return v


def _minus_one_functional(K: LocalField) -> tuple[int, int]:
    """(h, h_top): h the F2-functional on K's square-class coordinates, as a
    bit mask, with ker h = H = {d : (d, -1) = 1}; h_top the highest odd level
    carrying a bit of h, 0 when none does.  h = 0 when -1 is a square.

    When -1 is in the unramified class, K(sqrt(-1)) is unramified and H is
    the even valuations.  When -1 is ramified, H is the norm group of
    K(sqrt(-1)), spanned by the norms of its square-class basis.
    """
    cls = K.derive_params().minus_one_class
    if cls is MinusOneClass.SQUARE:
        return 0, 0
    if cls is MinusOneClass.UNRAMIFIED:
        return 1, 0
    echelon: list[int] = []
    for n in _norm_images(K, ramified_quadratic(K, K.from_int(-1))):
        n = _reduce(n, echelon)
        if n:
            echelon = sorted([*echelon, n], reverse=True)
    dim = K.square_class_dim
    assert len(echelon) == dim - 1, "the norm group of a quadratic extension has index 2"
    h = sum(1 << i for i in range(dim) if _reduce(1 << i, echelon))
    # (u*, -1) = 1 for the unramified class u*, since v(-1) is even
    assert not h >> (dim - 1), "the unramified bit lies in H"
    odd = h >> 1
    h_top = 2 * ((odd.bit_length() - 1) // K.f) + 1 if odd else 0
    return h, h_top


class _Enumerator:
    def __init__(self, field: LocalField, m_max: int, cross_check_every: int = 64):
        self.K = field
        self.q = field.q
        self.e = field.e_abs
        self.m_max = m_max
        self.cross_check_every = cross_check_every
        # terminal nodes per (cell, depth); cell is (m, g), or None when dropped
        self.tally: Counter[tuple[tuple[int, GroupTag] | None, int]] = Counter()
        self.cross_checked = 0
        self.certified: Counter[str] = Counter()  # recorded leaves per certificate
        self.splits: Counter[str] = Counter()  # split nodes per reason

    # -- integer-only node analysis --------------------------------------

    @staticmethod
    def _rep_val(d):
        for i, t in enumerate(d):
            if t:
                return i
        return _INF

    def _ore_disc_val(self, vrep):
        """v(disc) of the representative: v_L(f'(pi)) by Ore's formula, exact
        because the four terms differ mod 4."""
        e = self.e
        return min(4 * vrep[1], 4 * (vrep[2] + e) + 1, 4 * vrep[3] + 2, 8 * e + 3)

    def _distance_polygon_max(self, vrep):
        """12 D, D the largest root distance of the representative in stem
        units (exact); each vertex valuation is capped by one of a power of 2."""
        e = self.e
        v2, v3 = vrep[2], vrep[3]
        y0 = self._ore_disc_val(vrep)
        y1 = min(4 * v2, 4 * v3 + 1, 4 * e + 2)
        y2 = min(4 * v3, 8 * e + 1)
        return max(12 * (y0 - y1), 6 * (y0 - y2), 4 * y0)

    def _visibly_non_one_aut(self, vrep, m) -> bool:
        """True when every member of a node with v(disc) = m pinned fails the
        1-Aut valuation pattern.  With m read from Ore's formula, v(a1) and
        v(a3) already follow the T_m pattern, so only v(a2) >= ceil(m/6) is left."""
        return not in_Tm_domain(m, self.e) or vrep[2] < -(m // -6)

    @cached_property
    def _minus_one(self):
        """(h, h_top) of ``_minus_one_functional``, computed when a node
        first needs it (or before the split forks), so dedup never pays for it."""
        return _minus_one_functional(self.K)

    # -- main loop ---------------------------------------------------------

    def run(self, roots):
        stack = list(roots)
        while stack:
            children = self._expand(stack.pop())
            if children:
                stack.extend(children)

    def open_frontier(self, roots, width: int):
        """Expand breadth-first until at least ``width`` nodes are open; return them.

        Leaves and pruned nodes met on the way are recorded as in ``run``, so
        running the returned nodes completes exactly the tree ``run`` walks.
        """
        queue = deque(roots)
        while queue and len(queue) < width:
            children = self._expand(queue.popleft())
            if children:
                queue.extend(children)
        return list(queue)

    def _expand(self, digits):
        """Certify the node (as a leaf or a pruned class) and return None, or
        return the q children it splits into."""
        q, m_max = self.q, self.m_max
        cs = (len(digits[0]), len(digits[1]), len(digits[2]), len(digits[3]))
        vrep = (
            1,
            self._rep_val(digits[1]),
            self._rep_val(digits[2]),
            self._rep_val(digits[3]),
        )
        vh = tuple(min(v, c) for v, c in zip(vrep, cs))
        bound = disc_bound(cs, vh, self.e)
        m_rep = self._ore_disc_val(vrep)
        if m_rep >= bound:
            m_rep = None  # not certified for every member yet
        elif m_rep > m_max:
            self.tally[None, sum(cs)] += 1
            return None
        delta = min(4 * cs[0], 4 * cs[1] + 1, 4 * cs[2] + 2, 4 * cs[3] + 3)
        if 3 * delta > self._distance_polygon_max(vrep):
            self._krasner_leaf(digits)
            return None
        if m_rep is None:
            in_h = isinstance(digits, _InH)
            self.splits["unpinned"] += 1
        else:
            in_h = self._tower_leaf(digits, cs, vrep, vh, m_rep, bound)
            if in_h is None:
                return None
        node = _InH if in_h else tuple
        split = min(range(4), key=lambda i: 4 * cs[i] + i)
        return [
            node(d + (t,) if i == split else d for i, d in enumerate(digits)) for t in range(q)
        ]

    def numerators(self):
        """(cell -> measure numerator over q^top, top) with top the greatest depth."""
        top = max(depth for _, depth in self.tally)
        nums: dict = {}
        for (cell, depth), n in self.tally.items():
            nums[cell] = nums.get(cell, 0) + n * self.q ** (top - depth)
        return nums, top

    def check_conservation(self):
        """Raise unless the root's leaves and pruned classes fill its measure
        q^-5, i.e. sum n q^(top-d) = q^(top-5) over the tally."""
        nums, top = self.numerators()
        total, expected = sum(nums.values()), self.q ** (top - 5)
        if total != expected:
            raise NonIntegralCount(
                f"enumeration lost measure: {total} != q^(top-5) = {expected} (top = {top})"
            )

    def _krasner_leaf(self, digits):
        """Record a node on which every member generates the field of its representative."""
        fq = self._build(digits)
        self._certify(classify_by_invariants(fq), fq, digits, "krasner")

    def _tower_leaf(self, digits, cs, vrep, vh, m, bound) -> bool | None:
        """Parity, coset and tower certificates of a node with v(disc) = m
        pinned below ``bound``: record it as a leaf and return None, or count
        the reason it splits and return whether every member's disc class lies
        in H, which the children inherit."""
        e = self.e
        if m & 1 and m < 8 * e + 3:
            self._certify((m, GroupTag.D4), self._build(digits), digits, "parity")
            return None
        in_h = isinstance(digits, _InH)
        if not self._visibly_non_one_aut(vrep, m):
            self.splits["one_aut"] += 1
            return in_h
        K, R = self.K, self.K.ring
        h, h_top = self._minus_one
        k = bound - m  # every member's disc lies in disc(rep) (1 + pi^k O)
        coset = h != 0 and not in_h and k > h_top
        if not coset and k < 2 * e + 1:
            self.splits["headroom"] += 1
            return in_h
        fq = self._build(digits)
        reach = None  # first obstruction of the unit part of disc, once walked
        if coset:
            cd = m & 1
            if h_top:
                reach, coords = K.square_class_prefix(R.shift(fq.disc, -m), h_top)
                cd |= coords
            if (h & cd).bit_count() & 1:
                self._certify((m, GroupTag.D4), fq, digits, "coset")
                return None
            in_h = True
            if k < 2 * e + 1:
                self.splits["headroom"] += 1
                return in_h
        square = K.is_square(fq.disc) if reach is None else m % 2 == 0 and reach == 2 * e + 1
        if square:
            self._certify((m, GroupTag.V4), fq, digits, "tower")
            return None
        # resolvent-root windows for the C4/D4 split
        b_r0, b_r1, b_r2 = r0_bound(cs, vh, e), r1_bound(cs, vh, e), r2_bound(cs, vh, e)
        rescubic = resolvent_cubic(fq)

        def window(w, W):
            vw = R.val(w)
            if vw is None:
                vw = _resolvent_root_target(e)
            v_rp = R.val(_poly_eval(R, _poly_deriv(R, rescubic), w))
            if v_rp is None:
                return False
            eta_w = min(b_r2 + 2 * vw, b_r1 + vw, b_r0)
            eta_wp = min(b_r2 + vw, b_r1)
            if not (eta_w > 2 * v_rp and eta_wp > v_rp):
                return False
            dw = eta_w - v_rp
            vW = R.val(W)
            if vW is None:
                return False
            eta_W = min(dw + min(e + vw, dw), 2 * e + cs[0])
            return eta_W >= vW + 2 * e + 1

        g = _resolvent_split(fq, rescubic, window)
        if g is None:
            self.splits["window"] += 1
            return in_h
        self._certify((m, g), fq, digits, "tower")
        return None

    def _build(self, digits):
        K = self.K
        return EisensteinQuartic(K, *(K.from_digits(d) for d in digits))

    def _certify(self, mg, fq, digits, certificate):
        """``_add_leaf``, counting a recorded leaf under its certificate."""
        if self._add_leaf(mg, fq, digits):
            self.certified[certificate] += 1

    def _add_leaf(self, mg, fq, digits) -> bool:
        """Add the node's measure to cell mg; False when m > m_max drops it."""
        m, g = mg
        depth = sum(map(len, digits))
        if m > self.m_max:
            self.tally[None, depth] += 1
            return False
        if self.cross_check_every and hash(digits) % self.cross_check_every == 0:
            full = classify_quartic(fq)
            self.cross_checked += 1
            if full != (m, g):
                raise FormulationMismatch(
                    f"fast classification {(m, g.value)} disagrees with root counting {full}"
                )
        self.tally[mg, depth] += 1
        return True


def _root_nodes(q: int):
    return [((0, t), (0,), (0,), (0,)) for t in range(1, q)]


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _effective_jobs(jobs: int) -> int:
    """``jobs`` clamped to the cores this process may run on (1 without fork)."""
    if jobs < 1:
        raise InvalidParams(f"jobs must be at least 1, got {jobs}")
    cores = _available_cores() if hasattr(os, "fork") else 1
    if jobs > cores:
        import logging  # deferred: its import costs a fifth of the package's

        logging.getLogger(__name__).warning(
            "density: jobs=%d reduced to %d (available cores)", jobs, cores
        )
        return cores
    return jobs


# The enumerator of a forked worker, set in the worker only: ``_worker_run``
# keeps its one-argument form, which per-task tracing wraps by name.
_WORKER_STATE = {}


def _worker_run(node):
    """Worker task: enumerate the subtree under one open node; return its tally."""
    enum = _WORKER_STATE["enum"]
    enum.tally, enum.cross_checked = Counter(), 0
    enum.certified, enum.splits = Counter(), Counter()
    enum.run([node])
    return enum.tally, enum.cross_checked, enum.certified, enum.splits


def _take(tasks: int):
    """Yield the node indices read from the ``tasks`` pipe until it is empty.

    The indices were written at once before any reader started, and each
    read takes one 4-byte record, so every index goes to exactly one process.
    """
    while record := os.read(tasks, 4):
        yield int.from_bytes(record, "little")


def _work(enum: _Enumerator, frontier, tasks: int, out: int):
    """Body of a forked worker: run the tasks it takes, send their results,
    or the exception that stopped them, through ``out``, and exit."""
    try:
        import pickle

        _WORKER_STATE["enum"] = enum
        try:
            sent = [_worker_run(frontier[i]) for i in _take(tasks)], None
        except BaseException as exc:  # the parent re-raises it
            for _ in _take(tasks):  # the other processes run out of work at once
                pass
            sent = None, exc
        blob = pickle.dumps(sent)
        with open(out, "wb") as fh:
            fh.write(blob)
    finally:
        os._exit(0)


def _run_split(enum: _Enumerator, root, jobs: int) -> int:
    """Enumerate below ``root`` in this process and ``jobs - 1`` forked
    workers; return the number of processes that ran (1 if none forked)."""
    import pickle
    import select

    # every index is written before the fork in one write of at most PIPE_BUF
    # bytes, which an empty pipe always holds; the last expansion of
    # ``open_frontier`` may open q - 2 nodes beyond the width
    width = min(_NODES_PER_JOB * jobs, select.PIPE_BUF // 4 - enum.q + 2)
    frontier = enum.open_frontier([root], width)
    if not frontier:  # the tree is finished
        return 1
    enum._minus_one  # computed before the fork, so the workers inherit it
    tasks, w = os.pipe()
    try:
        os.set_blocking(w, False)  # a write that did not fit would raise, not hang
        os.write(w, b"".join(i.to_bytes(4, "little") for i in range(len(frontier))))
    finally:
        os.close(w)
    fds, workers, status, done = [tasks], [], {}, False
    try:
        for _ in range(jobs - 1):
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(enum, frontier, tasks, w)
            finally:
                os.close(w)  # the worker's copy is now the only write end
            workers.append((pid, r))
        for i in _take(tasks):
            enum.run([frontier[i]])
        blobs = []
        for _, r in workers:
            with open(r, "rb", closefd=False) as fh:
                blobs.append(fh.read())  # until the worker exits
        done = True
    finally:
        if not done:
            import signal

            for pid, _ in workers:
                os.kill(pid, signal.SIGKILL)
        for pid, _ in workers:
            status[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        for fd in fds:
            os.close(fd)
    for (pid, _), blob in zip(workers, blobs):
        if status[pid] or not blob:
            raise Q2QuarticError(
                f"density worker {pid} ended without sending its result (exit code {status[pid]})"
            )
        results, exc = pickle.loads(blob)
        if exc is not None:
            raise exc
        for tally, checked, certified, splits in results:
            enum.tally.update(tally)
            enum.cross_checked += checked
            enum.certified.update(certified)
            enum.splits.update(splits)
    return jobs


def density_measures(
    field: LocalField, m_max: int | None = None, jobs: int = 1, cross_check_every: int = 64
):
    """Exact measures mu(P_m^G) per (m, group) plus enumeration metadata.

    Only the first root node is enumerated; its measures are scaled by the
    size q-1 of the root orbit (see the module docstring).
    """
    e = field.e_abs
    if m_max is None:
        m_max = 8 * e + 3
    q = field.q
    jobs = _effective_jobs(jobs)
    root = _root_nodes(q)[0]
    enum = _Enumerator(field, m_max, cross_check_every)
    if jobs > 1:
        jobs = _run_split(enum, root, jobs)
    else:
        enum.run([root])
    enum.check_conservation()
    orbit = q - 1
    nums, top = enum.numerators()
    nums.pop(None, None)
    measures = {key: Fraction(orbit * n, q**top) for key, n in nums.items()}
    pruned = sum(n for (cell, _), n in enum.tally.items() if cell is None)
    meta = {
        "leaves": sum(enum.tally.values()) - pruned,
        "pruned": pruned,
        "max_depth": top,
        "m_max": m_max,
        **{f"leaves_{c}": enum.certified[c] for c in ("krasner", "parity", "tower", "coset")},
        **{f"splits_{r}": enum.splits[r] for r in ("unpinned", "one_aut", "headroom", "window")},
        "root_count_cross_checks": enum.cross_checked,
        "root_orbit": orbit,
        "jobs": jobs,
        "certification": (
            "monomial disc bound + krasner delta>4D + resolvent windows"
            " + D4 at odd m < 8e+3 + D4 on disc cosets outside ker (., -1)"
        ),
    }
    return measures, meta


def density_counts(
    field: LocalField, m_max: int | None = None, jobs: int = 1, cross_check_every: int = 64
):
    """Field counts per (m, group) from Eisenstein-polynomial densities."""
    measures, meta = density_measures(field, m_max, jobs, cross_check_every)
    q = field.q
    counts: dict[tuple[int, GroupTag], int] = {}
    for (m, g), mu in sorted(measures.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        val = aut_order(g) * Fraction(q) ** (m + 2) * mu / (q - 1)
        if val.denominator != 1:
            raise NonIntegralCount(f"density count at (m={m}, {g.value}) is {val}")
        counts[(m, g)] = int(val)
    return counts, meta
