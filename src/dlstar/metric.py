"""Exact word metric on DL_d(q) and the comparison lemma checkers.

For vertices x, y write (m_i, l_i) for the per-tree meet statistics of
their coordinates.  For a permutation s of the trees and 2 <= i <= d
set

    f(s, i) = m_{s(1)} + ... + m_{s(i)} + l_{s(i)} + ... + l_{s(d)}
    f(s, d) = 2 m_{s(1)} + m_{s(2)} + ... + m_{s(d)} + l_{s(d)}

(the first line for i < d, the second replacing the i = d case).  The
graph distance is min over s of max over i of f(s, i).  f_rows is the
kernel that the bounds, the lemma table and the growth tables read rows
from.  profile_distance does not read rows: the two end trees of an
ordering factor out.  With a = s(1), c = s(d), the middle b = (s(2),
..., s(d - 1)) and M = m_1 + ... + m_d, every row i < d holds m_a (as
i >= 2) and l_c (as i <= d - 1), and row d is M + m_a + l_c.  So

    max over i of f(s, i) = m_a + l_c + max(M, C(b)),
    C(b) = max over 1 <= j <= d - 2 of
           m_{b(1)} + ... + m_{b(j)} + l_{b(j)} + ... + l_{b(d - 2)},

C(b) being the makespan of the middle trees run as jobs with times
(m, l) on two machines in the order b, a two-machine flow shop (Johnson
1954).  C(b) does not depend on which end tree comes first, so

    distance = min over end pairs {a, c} of
               min(m_a + l_c, m_c + l_a) + max(M, min over b of C(b)).

At d = 2 the middle is empty and the bracket is M.  At d = 3 the middle
is one tree b with C = m_b + l_b, so with a, c the other two trees

    distance = min over b of max(M, m_b + l_b) + min(m_a + l_c, m_c + l_a),

the closed form profile_distance computes there.  f_value and f_row_max
write the formula out literally as the reference for f_rows and both
distance forms.  bfs_distance is the independent
oracle for the same quantity.  It checks its inputs, picks the default
search cap, the only use of the formula, and runs the
meet-in-the-middle breadth-first search of dlgraph, which imports
nothing from this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from . import dlgraph
from .dlgraph import DLVertex
from .errors import DimensionMismatch, NotBalanced
from .treecoord import ORIGIN, _require_int, pair_stats

# configurations whose formula distances have been bulk-checked against
# the breadth-first oracle; others get a verified=false advisory in the CLI.
# test_every_verified_config_has_a_bfs_run (tests/test_metric.py) ties
# this set to the tests that check each entry's seeded pairs against BFS.
VERIFIED_CONFIGS = frozenset(
    {(3, 2), (2, 2), (4, 2), (3, 3), (2, 3), (5, 2), (6, 2), (7, 2)}
)


class PairProfile(NamedTuple):
    """Per-tree meet statistics of an ordered vertex pair."""

    m: tuple[int, ...]
    l: tuple[int, ...]


def _check_same_graph(x: DLVertex, y: DLVertex) -> None:
    if len(x.coords) != len(y.coords) or x.q != y.q:
        raise DimensionMismatch(
            f"vertices from different graphs: d={len(x.coords)},q={x.q} "
            f"vs d={len(y.coords)},q={y.q}"
        )


def pair_profile(x: DLVertex, y: DLVertex) -> PairProfile:
    _check_same_graph(x, y)
    ms = []
    ls = []
    for a, b in zip(x.coords, y.coords):
        mm, ll = pair_stats(a, b)
        ms.append(mm)
        ls.append(ll)
    return PairProfile(tuple(ms), tuple(ls))


@lru_cache(maxsize=8)
def _perms0(d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(d)))


def all_permutations(d: int) -> list[tuple[int, ...]]:
    """All tree orderings as 1-based image tuples, lexicographic, for d in
    [2, dlgraph.MAX_DIMENSION]."""
    _require_int(d, "d", 2, dlgraph.MAX_DIMENSION)
    return [tuple(t + 1 for t in s) for s in _perms0(d)]


def f_rows(m, l, s: Sequence[int]) -> list:
    """Rows [f(s, 2), ..., f(s, d)] for one 0-based ordering s.

    O(d): a running prefix sum of m and a running suffix sum of l.  Only
    + and - touch the entries of m and l, so they may be ints, numpy
    arrays of one shape (the rows come out elementwise) or
    horofn.AffineInN values (the rows come out affine in n).
    """
    up = m[s[0]]                 # m_{s(1)} + ... + m_{s(i)}
    down = sum(l)                # l_{s(i)} + ... + l_{s(d)}
    rows = []
    for i in range(1, len(s) - 1):
        up = up + m[s[i]]
        down = down - l[s[i - 1]]
        rows.append(up + down)
    rows.append(up + m[s[-1]] + m[s[0]] + l[s[-1]])
    return rows


def f_value(profile: PairProfile, sigma: Sequence[int], i: int) -> int:
    """One row value f(sigma, i), 1-based sigma; the reference for f_rows."""
    m, l = profile.m, profile.l
    d = len(m)
    if len(l) != d:
        raise ValueError(f"malformed profile: {d} spine depths, {len(l)} climbs")
    _require_int(i, "row index", 2, d)
    for v in sigma:
        _require_int(v, "ordering entry")
    if sorted(sigma) != list(range(1, d + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{d}")
    s = [t - 1 for t in sigma]
    if i == d:
        return 2 * m[s[0]] + sum(m[s[t]] for t in range(1, d)) + l[s[d - 1]]
    return sum(m[s[t]] for t in range(i)) + sum(l[s[t]] for t in range(i - 1, d))


def f_row_max(profile: PairProfile, sigma: Sequence[int]) -> int:
    """max over i of f(sigma, i) for one ordering."""
    return max(f_value(profile, sigma, i) for i in range(2, len(profile.m) + 1))


@lru_cache(maxsize=8)
def _end_pairs(d: int) -> tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]:
    """(a, c, every ordering of the other trees) per end pair a < c, 0-based."""
    return tuple(
        (a, c, tuple(itertools.permutations(t for t in range(d) if t not in (a, c))))
        for a, c in itertools.combinations(range(d), 2)
    )


def _end_pair_distance(m, l):
    """min over end pairs {a, c} of min(m_a + l_c, m_c + l_a) +
    max(M, least middle makespan); the module docstring derives it.

    Each middle ordering b is one pass with a running prefix sum of m
    and a suffix sum of l, as in f_rows, and its running maximum starts
    at M, so the pass gives max(M, C(b)).  The least of these over b is
    the end pair's whole bracket: max(M, .) is non-decreasing, so
    min over b of max(M, C(b)) = max(M, min over b of C(b)) in any total
    order, as ints and AffineInN's tuple order are.  At d = 2 the one
    middle is empty and gives M.  Only +, -, comparisons and sum() touch
    the entries, so they may be ints or horofn.AffineInN values.
    """
    big = sum(m)
    climb = sum(l)
    best = None
    for a, c, middles in _end_pairs(len(m)):
        ends = m[a] + l[c]
        other = m[c] + l[a]
        if other < ends:
            ends = other
        rest = climb - l[a] - l[c]
        least = None
        for b in middles:
            up = 0                      # m_{b(1)} + ... + m_{b(j)}
            down = rest                 # l_{b(j)} + ... + l_{b(d - 2)}
            worst = big
            for t in b:
                up = up + m[t]
                row = up + down
                if row > worst:
                    worst = row
                down = down - l[t]
            if least is None or worst < least:
                least = worst
        total = ends + least
        if best is None or total < best:
            best = total
    return best


def profile_distance(profile: PairProfile) -> int:
    """min over orderings s of max over i of f(s, i), by its end pairs.

    The entries may be ints or horofn.AffineInN values; the result has
    their type.  The d = 3 branch is _end_pair_distance unrolled over
    its three one-tree middles; every other d runs that loop.  Raises
    ValueError for fewer than two trees or m and l of unequal length.
    """
    m, l = profile.m, profile.l
    d = len(m)
    if d == 3:
        m1, m2, m3 = m
        l1, l2, l3 = l
        big = m1 + m2 + m3
        mid, a, c = m1 + l1, m2 + l3, m3 + l2
        best = (big if big > mid else mid) + (a if a < c else c)
        mid, a, c = m2 + l2, m1 + l3, m3 + l1
        dist = (big if big > mid else mid) + (a if a < c else c)
        if dist < best:
            best = dist
        mid, a, c = m3 + l3, m1 + l2, m2 + l1
        dist = (big if big > mid else mid) + (a if a < c else c)
        return dist if dist < best else best
    # d = 3 is checked by the unpacking above
    if len(l) != d or d < 2:
        raise ValueError(f"malformed profile: {d} spine depths, {len(l)} climbs")
    return _end_pair_distance(m, l)


def distance(x: DLVertex, y: DLVertex) -> int:
    """Exact graph distance via the permutation formula."""
    return profile_distance(pair_profile(x, y))


def bfs_distance(x: DLVertex, y: DLVertex, cap: int | None = None) -> int | None:
    """Breadth-first graph distance, independent of the formula.

    Runs dlgraph._bfs_search, a meet-in-the-middle search whose docstring
    and dlgraph._VertexCoder's prove it exact.  Returns None when the
    distance exceeds cap.  cap defaults to twice the formula distance
    plus two, so a discrepancy in either direction is caught; it is the
    only use of the formula here.  Raises MemoryCapExceeded once the two
    balls together hold more than dlgraph.DEFAULT_MEMORY_CAP vertices,
    or before the first step when one vertex's neighbors alone would,
    and ValueError for a cap that is not an int or is negative.
    """
    _check_same_graph(x, y)
    x.params  # DLParams refuses a hand-built vertex's q < 2
    if cap is None:
        cap = 2 * distance(x, y) + 2
    _require_int(cap, "cap", 0)
    return dlgraph._bfs_search(x, y, cap)[0]


# ── comparison reports ──────────────────────────────────────────────────────

@dataclass(frozen=True)
class BoundReport:
    """Outcome of one distance comparison claim.

    verified is True only when the hypothesis held and the asserted
    conclusion was confirmed, so verified implies hypothesis_holds.
    A report is falsified when its hypothesis held but the conclusion
    failed; hypothesis-free claims always hold vacuously.
    """

    claim: str
    hypothesis_holds: bool
    bound: int
    verified: bool

    @property
    def falsified(self) -> bool:
        return self.hypothesis_holds and not self.verified


def lower_bounds(x: DLVertex, y: DLVertex) -> tuple[BoundReport, BoundReport]:
    """Two certified lower bounds on distance(x, y).

    TreeBound: the largest single-tree distance m_i + l_i.  BigIndex:
    max over i of min over orderings of f(sigma, i); the maximizing
    index serves every ordering at once, so the distance dominates it.
    """
    profile = pair_profile(x, y)
    m, l = profile
    dist = profile_distance(profile)
    r_tree = max(a + b for a, b in zip(m, l))
    table = [f_rows(m, l, s) for s in _perms0(len(m))]
    r_index = max(min(column) for column in zip(*table))
    return (
        BoundReport("TreeBound", True, r_tree, dist >= r_tree),
        BoundReport("BigIndex", True, r_index, dist >= r_index),
    )


def check_f_dominance(x: DLVertex, y: DLVertex, z: DLVertex, k: int) -> BoundReport:
    """Row-wise domination check: if every f row of (x, z) exceeds the
    matching row of (x, y) by at least k, then
    distance(x, z) >= distance(x, y) + k."""
    _require_int(k, "offset")
    pxy = pair_profile(x, y)
    pxz = pair_profile(x, z)
    hyp = all(
        b - a >= k
        for s in _perms0(len(pxy.m))
        for a, b in zip(f_rows(pxy.m, pxy.l, s), f_rows(pxz.m, pxz.l, s))
    )
    bound = profile_distance(pxy) + k
    verified = hyp and profile_distance(pxz) >= bound
    return BoundReport("FDominance", hyp, bound, verified)


def check_coord_dominance(
    x: DLVertex, y: DLVertex, z: DLVertex, c: Sequence[int]
) -> BoundReport:
    """Coordinatewise domination: m_j(x,z) >= m_j(x,y) + c_j and likewise
    for l_j, for all j, implies distance(x,z) >= distance(x,y) + sum(c)."""
    pxy = pair_profile(x, y)
    pxz = pair_profile(x, z)
    offs = tuple(c)
    for v in offs:
        _require_int(v, "offset", 0)
    if len(offs) != len(pxy.m):
        raise ValueError(f"need {len(pxy.m)} offsets, got {len(offs)}")
    hyp = all(
        pxz.m[j] >= pxy.m[j] + offs[j] and pxz.l[j] >= pxy.l[j] + offs[j]
        for j in range(len(offs))
    )
    bound = profile_distance(pxy) + sum(offs)
    verified = hyp and profile_distance(pxz) >= bound
    return BoundReport("CoordDominance", hyp, bound, verified)


def balanced_compare(
    x: DLVertex, z: DLVertex
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """Compare distance(x, z) with distance(x, id) for height-0 probes z.

    z must have every coordinate height zero, so its spine depths equal
    its climb lengths.  Three claims, each against x's own spine depths:

    BalancedEq:  z strictly below x wherever x is nontrivial and trivial
                 elsewhere  =>  distance(x, z) == distance(x, id).
    BalancedLeq: z nowhere deeper than x  =>  distance <= distance(x, id).
    BalancedGeq: z's depth differs from x's wherever x is nontrivial  =>
                 distance >= distance(x, id) + sum of depth excesses.
    """
    _check_same_graph(x, z)
    hyp_eq = hyp_leq = hyp_geq = True
    gain = 0
    for cx, cz in zip(x.coords, z.coords):
        if cz.h != 0:
            raise NotBalanced(f"heights {z.heights} are not all zero")
        xi, zi = cx.m, cz.m
        if xi:
            hyp_eq = hyp_eq and zi < xi
            hyp_geq = hyp_geq and zi != xi
        else:
            hyp_eq = hyp_eq and zi == 0
        if zi > xi:
            hyp_leq = False
            gain += zi - xi
    base = distance(x, DLVertex((ORIGIN,) * len(x.coords), x.q))
    dxz = distance(x, z)
    return (
        BoundReport("BalancedEq", hyp_eq, base, hyp_eq and dxz == base),
        BoundReport("BalancedLeq", hyp_leq, base, hyp_leq and dxz <= base),
        BoundReport("BalancedGeq", hyp_geq, base + gain, hyp_geq and dxz >= base + gain),
    )
