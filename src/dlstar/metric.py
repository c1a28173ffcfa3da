"""Exact word metric on DL_d(q) and the comparison lemma checkers.

For vertices x, y write (m_i, l_i) for the per-tree meet statistics of
their coordinates.  For a permutation s of the trees and 2 <= i <= d
set

    f(s, i) = m_{s(1)} + ... + m_{s(i)} + l_{s(i)} + ... + l_{s(d)}
    f(s, d) = 2 m_{s(1)} + m_{s(2)} + ... + m_{s(d)} + l_{s(d)}

(the first line for i < d, the second replacing the i = d case).  The
graph distance is min over s of max over i of f(s, i).  f_rows is the
kernel every caller reads rows from (profile_distance keeps a faster
hand-unrolled d = 3 branch); f_value and f_row_max write the formula out
literally as its reference.  bfs_distance is the independent oracle for
the same quantity: a meet-in-the-middle breadth-first search whose
max_vertices cap counts both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, NotBalanced
from .dlgraph import DLVertex, identity, neighbors, DEFAULT_MEMORY_CAP
from .errors import MemoryCapExceeded
from .treecoord import _require_int, pair_stats

# configurations whose formula distances have been bulk-checked against
# the breadth-first oracle; others get a verified=false advisory in the CLI.
# (3, 2): test_word_metric_matches_bfs_oracle in tests/test_acceptance.py;
# (2, 2): test_formula_matches_bfs_other_configs, and (4, 2), (3, 3),
# (2, 3): test_formula_matches_bfs_distance_config, in tests/test_metric.py
VERIFIED_CONFIGS = frozenset({(3, 2), (2, 2), (4, 2), (3, 3), (2, 3)})


class PairProfile(NamedTuple):
    """Per-tree meet statistics of an ordered vertex pair."""

    m: tuple[int, ...]
    l: tuple[int, ...]

    @property
    def h(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.m, self.l))


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
    """All tree orderings as 1-based image tuples, lexicographic."""
    return [tuple(t + 1 for t in s) for s in _perms0(d)]


def f_rows(m, l, s: Sequence[int]) -> list:
    """Rows [f(s, 2), ..., f(s, d)] for one 0-based ordering s.

    O(d): a running prefix sum of m and a running suffix sum of l.  Only
    + and - touch the entries of m and l, so they may be ints or numpy
    arrays of one shape, and the rows come out elementwise.
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
    for v in (*sigma, i):
        _require_int(v, "ordering entry and row index")
    if sorted(sigma) != list(range(1, d + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{d}")
    if not 2 <= i <= d:
        raise ValueError(f"index {i} out of range 2..{d}")
    s = [t - 1 for t in sigma]
    if i == d:
        return 2 * m[s[0]] + sum(m[s[t]] for t in range(1, d)) + l[s[d - 1]]
    return sum(m[s[t]] for t in range(i)) + sum(l[s[t]] for t in range(i - 1, d))


def f_row_max(profile: PairProfile, sigma: Sequence[int]) -> int:
    """max over i of f(sigma, i) for one ordering."""
    return max(f_value(profile, sigma, i) for i in range(2, len(profile.m) + 1))


def profile_distance(profile: PairProfile) -> int:
    """min over orderings of max over i of f, hand-unrolled for d = 3."""
    m, l = profile.m, profile.l
    d = len(m)
    if d == 3:
        m1, m2, m3 = m
        l1, l2, l3 = l
        best = None
        for a, b, c, la, lb, lc in (
            (m1, m2, m3, l1, l2, l3),
            (m1, m3, m2, l1, l3, l2),
            (m2, m1, m3, l2, l1, l3),
            (m2, m3, m1, l2, l3, l1),
            (m3, m1, m2, l3, l1, l2),
            (m3, m2, m1, l3, l2, l1),
        ):
            f2 = a + b + lb + lc
            f3 = 2 * a + b + c + lc
            fs = f2 if f2 > f3 else f3
            if best is None or fs < best:
                best = fs
        return best
    return min(max(f_rows(m, l, s)) for s in _perms0(d))


def distance(x: DLVertex, y: DLVertex) -> int:
    """Exact graph distance via the permutation formula."""
    return profile_distance(pair_profile(x, y))


def bfs_distance(
    x: DLVertex,
    y: DLVertex,
    cap: int | None = None,
    max_vertices: int = DEFAULT_MEMORY_CAP,
) -> int | None:
    """Breadth-first graph distance, independent of the formula.

    Meet-in-the-middle search (Pohl 1971): one ball grows around x and
    one around y, each kept as a vertex -> depth map.  Every step
    expands one whole layer of whichever frontier is smaller, so both
    balls stay near radius distance / 2.  Before a step the balls hold
    every vertex within depth_a of x and within depth_b of y and share
    no vertex, so the distance exceeds depth_a + depth_b.  A new vertex
    at depth_a + 1 that the other ball already holds closes a path of
    length at most depth_a + 1 + depth_b, hence exactly that: the
    first hit is the distance.

    Returns None when the distance exceeds cap, i.e. once depth_a +
    depth_b reaches cap without a meeting.  cap defaults to twice the
    formula distance plus two, so a discrepancy in either direction is
    caught; it is the only use of the formula here.  Raises
    MemoryCapExceeded once the two balls together hold more than
    max_vertices vertices, and ValueError for a negative cap or a
    max_vertices below 1.
    """
    _check_same_graph(x, y)
    if cap is None:
        cap = 2 * distance(x, y) + 2
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    if max_vertices < 1:
        raise ValueError(f"max_vertices must be at least 1, got {max_vertices}")
    if x == y:
        return 0
    near, far = {x: 0}, {y: 0}
    near_front, far_front = [x], [y]
    near_depth = far_depth = 0
    while near_depth + far_depth < cap:
        if len(far_front) < len(near_front):
            near, far = far, near
            near_front, far_front = far_front, near_front
            near_depth, far_depth = far_depth, near_depth
        layer = near_depth + 1
        nxt = []
        for v in near_front:
            for w in neighbors(v):
                if w in near:
                    continue
                met = far.get(w)
                if met is not None:
                    return layer + met
                near[w] = layer
                nxt.append(w)
            if len(near) + len(far) > max_vertices:
                raise MemoryCapExceeded(
                    "breadth-first search too large", len(near) + len(far)
                )
        if not nxt:
            return None
        near_front, near_depth = nxt, layer
    return None


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

    @property
    def status(self) -> str:
        if not self.hypothesis_holds:
            return "not-applicable"
        return "verified" if self.verified else "falsified"


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


def check_f_dominance(
    x: DLVertex, y: DLVertex, z: DLVertex, k: int, strict: bool = False
) -> BoundReport:
    """Row-wise domination check: if every f row of (x, z) exceeds the
    matching row of (x, y) by at least k (strictly, when strict), then
    distance(x, z) >= distance(x, y) + k."""
    _require_int(k, "offset")
    pxy = pair_profile(x, y)
    pxz = pair_profile(x, z)
    least = k + 1 if strict else k
    hyp = all(
        b - a >= least
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
        _require_int(v, "offset")
    if len(offs) != len(pxy.m):
        raise ValueError(f"need {len(pxy.m)} offsets, got {len(offs)}")
    if any(v < 0 for v in offs):
        raise ValueError("offsets must be nonnegative")
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
    if any(c.h != 0 for c in z.coords):
        raise NotBalanced(f"heights {z.heights} are not all zero")
    mx = tuple(c.m for c in x.coords)
    mz = tuple(c.m for c in z.coords)
    base = distance(x, identity(x.params))
    dxz = distance(x, z)

    hyp_eq = all(
        (zi < xi) if xi != 0 else (zi == 0) for xi, zi in zip(mx, mz)
    )
    hyp_leq = all(zi <= xi for xi, zi in zip(mx, mz))
    hyp_geq = all(zi != xi or xi == 0 for xi, zi in zip(mx, mz))
    gain = sum(max(0, zi - xi) for xi, zi in zip(mx, mz))
    return (
        BoundReport("BalancedEq", hyp_eq, base, hyp_eq and dxz == base),
        BoundReport("BalancedLeq", hyp_leq, base, hyp_leq and dxz <= base),
        BoundReport("BalancedGeq", hyp_geq, base + gain, hyp_geq and dxz >= base + gain),
    )
