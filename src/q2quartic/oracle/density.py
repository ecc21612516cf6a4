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
* tower certificate: when the representative's valuations fail the T_m
  pattern (``t_m_pattern``, the one ``in_Tm`` reads), so does every
  member, and no member has one automorphism.  Members share the pinned m,
  and for even m Ore's formula puts every member's v(a1) and v(a3) on the
  pattern, so the representative fails by an m outside the domain or by
  v(a2) < ceil(m/6) at a nonzero digit the node fixes, both shared by
  every member.  The classification then only needs the square class of
  disc (V4 when square) and, for the C4/D4 split, the square class of
  disc * W, W = w^2 - 4 a0 for the unique root w of the resolvent cubic R;
  the class of W is pinned by a Hensel window, so stability follows from
  coefficient-level perturbation bounds far shallower than the Krasner
  depth.  The window's resolvent-coefficient bounds (``r0_bound``,
  ``r1_bound``, ``r2_bound``) are built like the disc bound, from the
  resolvent's monomials (``_resolvent_window``).  All four bound functions
  live in :mod:`q2quartic.padic._compiled`, straight-line code generated
  from ``_DISC_MONOMIALS`` and ``_RESOLVENT_MONOMIALS``.  One inequality
  pins the class: every w' with v(w' - w) >= d has w'^2 - 4 a0 in the class
  of W when d + min(e + v(w), d) >= v(W) + 2e + 1 (``_pins_class``).  The
  window tests it at the distance dw within which Hensel puts every
  member's root, and the root's own refinement tests it at the distance
  eps = v(R(w)) - v(R'(w)) to the true root w*.  Newton's readings are
  taken from the first step with v(w) < eps: from there v(w), v(R'(w)) and
  v(W) = min(2 v(w), 2e+1) are w*'s (v(4 a0) = 2e+1 is odd, so W never
  vanishes), the window's verdict at dw is final, and w is refined only
  until the inequality holds at min(dw, eps) (``_resolvent_split``).  The
  search for w starts from the last root found, at a tower node or a C4/D4
  Krasner leaf (``hint``): neighbouring nodes' roots agree to about one
  digit, so Newton from it, or from one residue step beyond it, nearly
  always reaches the new root, and residue refinement from scratch runs
  only when it does not.  A root so found is the only one in K: disc of the
  resolvent cubic is disc f, not a square here, and a cubic with three
  roots in K has a square disc.  The square test of disc * W multiplies the
  unit parts of disc and W.  Which root was found last, and how far it was
  refined, depend on the order of the walk, but what the tests read does
  not, so neither do the results.
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
  of h.  A node failing the T_m pattern with k > h_top and h(cd) = 1
  therefore has no member whose disc lies in H: none is V4, as 0 lies in
  H, and none is C4, whose disc generates its quadratic subfield; all are
  D4.  A tower node walks the square class of the unit part of its disc
  at most once: stopped above level h_top when the coset test runs, which
  reads the bits of cd up to there, and at its first obstruction
  otherwise; the walk's reach also answers the square test of the tower
  certificate.  At odd m
  without the coset test nothing reads the walk, and it does not run.
  When h(cd) = 0 instead, the whole coset lies in H, and so does the coset
  of every descendant, whose members are members of the node: the children
  are marked (``_InH``) and no descendant walks for the test again.  The
  mark only skips a test that cannot succeed; it certifies nothing.

Split rule.  A node whose v(disc) is not pinned yet splits on the
coefficient whose children have the largest least disc bound
(``_unpinned_split``), ties to the weakest Krasner coordinate, the i of
least 4 c_i + i; every other node splits on the weakest Krasner
coordinate.  A digit that leaves the bound where it was only splits the
node again for the same reason.  Any choice partitions the node, so the
rule shapes the tree but not the cell measures, and every certificate and
check holds on any tree.  Along a path c and vh only grow, so the
bound never falls; an unpinned split either raises every child's bound or
refines the weakest coordinate, and a bound above 8e+3 pins v(disc).
delta grows whenever the weakest coordinate is refined and all thresholds
are bounded in terms of 8e+3, so the recursion terminates.

The dedup oracle (:mod:`.dedup`) walks the same tree with the tower and
coset certificates off: ``_expand`` reaches the leaf certificates through
the hooks ``_krasner_leaf`` and ``_tower_leaf``, which dedup overrides.
Both walks record every leaf through ``_add_leaf(mg, fq, digits,
certificate)`` and count what they do in one ``Counter``, ``stats``.

Root orbit.  The q-1 roots of the tree differ only in the leading digit t
of a0/pi.  For a Teichmueller unit u the map f(X) -> u^4 f(X/u) scales a_i
by u^(4-i); Teichmueller digits are multiplicative, so the map sends a
cylinder of coefficient digits to a cylinder of the same depth (same
measure) and keeps the stem field (roots scale by u), hence (m, G).  Since
q-1 is odd, u -> u^4 permutes F_q^*, so the map carries the root t = 1 to
every other root.  Only that root, ``_ROOT``, is enumerated.  The walk
keeps one integer tally: the number of terminal nodes per (cell, depth),
where cell is (m, G) for a leaf and None for a class dropped because
m > m_max.  A node of depth d has measure q^-d, so with top the greatest
depth the root is filled exactly when sum n q^(top-d) = q^(top-5); the
cell measures (numerators over q^top) are multiplied by q-1 only when they
are returned.  ``leaves``, ``pruned`` and the root-count cross-checks in
the metadata count the enumerated root only.  The metadata reports the
keys of ``_STATS`` from ``stats``: ``leaves_krasner``, ``leaves_parity``,
``leaves_tower`` and ``leaves_coset`` split ``leaves`` by certificate,
``root_count_cross_checks`` counts the sampled leaves (see Cross-checks),
and the ``splits_*`` counts split the enumerated root's inner nodes by the
reason each was refined: ``unpinned`` (v(disc) not certified yet),
``one_aut`` (the representative fits the T_m pattern), ``headroom``
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
file run in parallel too; a process computes ``_minus_one`` only when one
of its nodes needs it.  Each worker sends ``(tally, stats)`` of each of its
subtrees back through a pipe of its own and exits; the parent runs its own
subtrees on its own enumerator and adds the workers' tallies and stats to
its own.  An exception raised in a worker is re-raised in the parent with
its own class, a worker that ends without sending its result raises
``Q2QuarticError``, and every worker is reaped, and killed first if the
split failed, before the call returns or raises.  A tree that closes before
that many nodes are open is finished by the parent alone.  ``jobs`` counts
the parent and is clamped to the cores this process may use;
``meta["jobs"]`` is the number of processes that ran, 1 when the tree
closed before any fork.

Cross-checks.  ``_add_leaf`` re-classifies a leaf by stem root counting
(``classify_quartic``) when ``_sampled(digits)``, the tower oracle's one
sampling rule (1 key in ``_CROSS_CHECK_EVERY``, 64), and raises
``FormulationMismatch`` on disagreement.  Dedup's leaves go through the same
check, so a sample of the leaves it matches to a field by a stem test is
classified afresh.  On such a tower node a resolvent root found from the
hint is also searched for from scratch, which must find that root and no
other.  Forked workers read the same constant, and hashes of int tuples
do not depend on PYTHONHASHSEED or on ``jobs``.
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
    _INF,
    EisensteinQuartic,
    _pins_class,
    _resolvent_split,
    classify_by_invariants,
    classify_quartic,
    t_m_pattern,
)
from ..params import GroupTag, MinusOneClass, aut_order, cell_key
from .tower import _norm_images, _sampled


# The parent of a parallel split opens this many nodes per process before it
# hands them out.
_NODES_PER_JOB = 16

# The root t = 1 of the tree, the one node of the root orbit that is enumerated.
_ROOT = ((0, 1), (0,), (0,), (0,))

# The keys of ``_Enumerator.stats`` that ``density_measures`` reports.
_STATS = (
    *(f"leaves_{c}" for c in ("krasner", "parity", "tower", "coset")),
    *(f"splits_{r}" for r in ("unpinned", "one_aut", "headroom", "window")),
    "root_count_cross_checks",
)


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


def _resolvent_window(e: int, cs, vh):
    """The Hensel window of a tower node with digit counts ``cs`` and
    coefficient valuations ``vh`` (each capped at its count): a predicate
    ``window(v(w), v(R'(w)), v(W), dist)`` on the readings of a root w of
    the representative's resolvent cubic R, W = w^2 - 4 a0, true when every
    member's root w', and every w' within ``dist`` of w, has w'^2 - 4 a0' in
    the square class of W.

    The members' resolvent coefficients differ from the representative's at
    valuations at least ``r0_bound``, ``r1_bound`` and ``r2_bound``, so
    their R(w) and R'(w) differ by eta_w and eta_wp at least.  When
    eta_w > 2 v(R'(w)) and eta_wp > v(R'(w)), Hensel gives the member one
    root w' with v(w' - w) >= dw = eta_w - v(R'(w)).  W then changes by
    (w' - w)(w' + w), which keeps its class when ``_pins_class`` holds at
    min(dw, dist), and by 4 (a0 - a0'), of valuation >= 2e + cs[0], which
    keeps it when cs[0] > v(W).
    """
    b_r0, b_r1, b_r2 = r0_bound(cs, vh, e), r1_bound(cs, vh, e), r2_bound(cs, vh, e)

    def window(vw, v_rp, vW, dist):
        eta_w = min(b_r2 + 2 * vw, b_r1 + vw, b_r0)
        return (
            eta_w > 2 * v_rp
            and min(b_r2 + vw, b_r1) > v_rp
            and cs[0] > vW
            and _pins_class(e, vw, vW, min(eta_w - v_rp, dist))
        )

    return window


class _Enumerator:
    def __init__(self, field: LocalField, m_max: int):
        self.K = field
        self.q = field.q
        self.e = field.e_abs
        self.m_max = m_max
        # terminal nodes per (cell, depth); cell is (m, g), or None when dropped
        self.tally: Counter[tuple[tuple[int, GroupTag] | None, int]] = Counter()
        # leaves_<certificate>, splits_<reason>, root_count_cross_checks, and
        # whatever a subclass counts
        self.stats: Counter[str] = Counter()
        self.hint = None  # the last resolvent root found, where the next search starts

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

    @cached_property
    def _minus_one(self):
        """(h, h_top) of ``_minus_one_functional``, computed in each process
        when a node there first needs it, so dedup never pays for it."""
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
            self.stats["splits_unpinned"] += 1
            split = self._unpinned_split(cs, vh)
        else:
            in_h = self._tower_leaf(digits, cs, vrep, vh, m_rep, bound)
            if in_h is None:
                return None
            split = min(range(4), key=lambda i: 4 * cs[i] + i)
        node = _InH if in_h else tuple
        return [
            node(d + (t,) if i == split else d for i, d in enumerate(digits)) for t in range(q)
        ]

    def _unpinned_split(self, cs, vh):
        """The coefficient to split a node with v(disc) not yet pinned on: the
        one whose children have the largest least disc bound, ties to the
        weakest Krasner coordinate.  Refining coefficient i leaves every
        child's vh at or above the node's, and one child keeps the node's vh:
        any child when a_i has a non-zero digit, the one with a first non-zero
        digit otherwise (vh[i] = cs[i]).  The bound grows with vh, so the
        least bound of the children is read at the node's vh."""
        e = self.e
        return max(
            range(4),
            key=lambda i: (disc_bound(cs[:i] + (cs[i] + 1,) + cs[i + 1 :], vh, e), -4 * cs[i] - i),
        )

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
        mg, self.hint = classify_by_invariants(fq, self.hint)
        self._add_leaf(mg, fq, digits, "krasner")

    def _tower_leaf(self, digits, cs, vrep, vh, m, bound) -> bool | None:
        """Parity, coset and tower certificates of a node with v(disc) = m
        pinned below ``bound``: record it as a leaf and return None, or count
        the reason it splits and return whether every member's disc class lies
        in H, which the children inherit."""
        e = self.e
        if m & 1 and m < 8 * e + 3:
            self._add_leaf((m, GroupTag.D4), self._build(digits), digits, "parity")
            return None
        in_h = isinstance(digits, _InH)
        if t_m_pattern(m, e, *vrep[1:]):
            self.stats["splits_one_aut"] += 1
            return in_h
        K = self.K
        h, h_top = self._minus_one
        k = bound - m  # every member's disc lies in disc(rep) (1 + pi^k O)
        coset = h != 0 and not in_h and k > h_top
        if not coset and k < 2 * e + 1:
            self.stats["splits_headroom"] += 1
            return in_h
        fq = self._build(digits)
        # one walk of the unit part of disc where a test reads it: its bits up
        # to h_top for the coset test, its first obstruction for the square
        # test, which odd m fails without it
        if coset or m % 2 == 0:
            reach, coords = K.square_class_prefix(fq.disc_unit, h_top if coset else 0)
        if coset:
            if (h & (coords | m & 1)).bit_count() & 1:
                self._add_leaf((m, GroupTag.D4), fq, digits, "coset")
                return None
            in_h = True
            if k < 2 * e + 1:
                self.stats["splits_headroom"] += 1
                return in_h
        if m % 2 == 0 and reach == 2 * e + 1:  # disc is a square
            self._add_leaf((m, GroupTag.V4), fq, digits, "tower")
            return None
        window = _resolvent_window(e, cs, vh)
        g, self.hint = _resolvent_split(fq, window, self.hint, _sampled(digits))
        if g is None:
            self.stats["splits_window"] += 1
            return in_h
        self._add_leaf((m, g), fq, digits, "tower")
        return None

    def _build(self, digits):
        K = self.K
        return EisensteinQuartic(K, *(K.from_digits(d) for d in digits))

    def _add_leaf(self, mg, fq, digits, certificate) -> bool:
        """Add the node's measure to cell mg and count it as a leaf of
        ``certificate``; False when m > m_max drops it."""
        m, g = mg
        depth = sum(map(len, digits))
        if m > self.m_max:
            self.tally[None, depth] += 1
            return False
        if _sampled(digits):
            full = classify_quartic(fq)
            self.stats["root_count_cross_checks"] += 1
            if full != (m, g):
                raise FormulationMismatch(
                    f"fast classification {(m, g.value)} disagrees with root counting {full}"
                )
        self.tally[mg, depth] += 1
        self.stats[f"leaves_{certificate}"] += 1
        return True


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def check_jobs(jobs: int):
    """InvalidParams unless ``jobs`` is at least 1."""
    if jobs < 1:
        raise InvalidParams(f"jobs must be at least 1, got {jobs}")


def _effective_jobs(jobs: int) -> int:
    """``jobs`` clamped to the cores this process may run on (1 without fork)."""
    check_jobs(jobs)
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
    """Worker task: enumerate the subtree under one open node; return its
    tally and stats."""
    enum = _WORKER_STATE["enum"]
    enum.tally, enum.stats = Counter(), Counter()
    enum.run([node])
    return enum.tally, enum.stats


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


def _run_split(enum: _Enumerator, jobs: int) -> int:
    """Enumerate the tree in this process and ``jobs - 1`` forked workers;
    return the number of processes that ran (1 if none forked)."""
    import pickle
    import select

    # every index is written before the fork in one write of at most PIPE_BUF
    # bytes, which an empty pipe always holds; the last expansion of
    # ``open_frontier`` may open q - 2 nodes beyond the width
    width = min(_NODES_PER_JOB * jobs, select.PIPE_BUF // 4 - enum.q + 2)
    frontier = enum.open_frontier([_ROOT], width)
    if not frontier:  # the tree is finished
        return 1
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
        for tally, stats in results:
            enum.tally.update(tally)
            enum.stats.update(stats)
    return jobs


def density_measures(field: LocalField, m_max: int | None = None, jobs: int = 1):
    """Exact measures mu(P_m^G) per (m, group) plus enumeration metadata.

    Only the first root node is enumerated; its measures are scaled by the
    size q-1 of the root orbit (see the module docstring).
    """
    e = field.e_abs
    if m_max is None:
        m_max = 8 * e + 3
    q = field.q
    jobs = _effective_jobs(jobs)
    enum = _Enumerator(field, m_max)
    if jobs > 1:
        jobs = _run_split(enum, jobs)
    else:
        enum.run([_ROOT])
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
        **{key: enum.stats[key] for key in _STATS},
        "root_orbit": orbit,
        "jobs": jobs,
        "certification": (
            "monomial disc bound + krasner delta>4D + resolvent windows"
            " + D4 at odd m < 8e+3 + D4 on disc cosets outside ker (., -1)"
        ),
    }
    return measures, meta


def density_counts(field: LocalField, m_max: int | None = None, jobs: int = 1):
    """Field counts per (m, group) from Eisenstein-polynomial densities."""
    measures, meta = density_measures(field, m_max, jobs)
    q = field.q
    counts: dict[tuple[int, GroupTag], int] = {}
    for m, g in sorted(measures, key=cell_key):
        val = aut_order(g) * Fraction(q) ** (m + 2) * measures[(m, g)] / (q - 1)
        if val.denominator != 1:
            raise NonIntegralCount(f"density count at (m={m}, {g.value}) is {val}")
        counts[(m, g)] = int(val)
    return counts, meta
