"""Horofunction values along point families, and the closed form for the
balanced tree-3 ray.

The horofunction of a family (x_n) at a probe z is the limit of
distance(x_n, z) - distance(x_n, id), which shifts computes at one x_n.
From n = weight(z) + 1 on (the weight is the sum of all m_i + l_i of z)
every meet statistic of x_n against z or id is affine in n, so
limit_values runs the distance kernels over Z[n] and reads the limits
off exactly.  A limit depends on its target only through from_n and
the target's pair profile over Z[n], so limit_values, one loop over the
targets, computes per distinct from_n the window (x_{from_n},
x_{from_n + 1}) and the identity side once; per distinct (from_n, tree, coordinate), pair_stats
against the window once; and per distinct (from_n, profile) class, the
two profile_distance calls once.  limit_value is its one-target call,
and shifts shares pair_stats and profile_distance among its targets the
same way.  For the beta
family (balanced down-then-up excursions in tree 3) the limit has the
closed form

    m1 + m2 + min over j in {1, 2} of { m_j + h3, h_j + h3, l_j }

in terms of the probe's own coordinate statistics.  betandist_table
computes, for each tree ordering, the distance rows to beta_n as affine
functions of n; the distance it finds is 2n plus that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .dlgraph import (
    DLParams,
    DLVertex,
    PointFamily,
    beta_family,
    identity,
    nu_point,
    zeta_point,
)
from .errors import TableMismatch, WrongDimension
from .metric import (
    PairProfile,
    _check_same_graph,
    all_permutations,
    f_rows,
    profile_distance,
)
from .treecoord import TreeVertex, pair_stats


class AffineInN(NamedTuple):
    """slope * n + intercept.  f_rows and profile_distance run on these
    values unchanged; the tuple order is their order at every large n."""

    slope: int
    intercept: int

    def at(self, n: int) -> int:
        return self.slope * n + self.intercept

    def __add__(self, other: AffineInN) -> AffineInN:
        return AffineInN(self.slope + other.slope, self.intercept + other.intercept)

    def __radd__(self, other: int) -> AffineInN:  # sum() starts from 0
        return AffineInN(self.slope, other + self.intercept)

    def __sub__(self, other: AffineInN) -> AffineInN:
        return AffineInN(self.slope - other.slope, self.intercept - other.intercept)


class HorofunctionValue(NamedTuple):
    """The limit, and the index from which the pair profiles are affine
    in n; the difference already equals the limit there."""

    value: int
    from_n: int  # total parameter weight of z plus one


def _param_weight(z: DLVertex) -> int:
    return sum(m + len(path) for m, path in z.coords)


def _window_rows(family: PointFamily, from_n: int) -> tuple[tuple, ...]:
    """Per tree, the coordinates of the window (x_{from_n}, x_{from_n + 1}),
    then from_n: the row that _entry reads."""
    window = zip(family.at(from_n).coords, family.at(from_n + 1).coords)
    return tuple((a, b, from_n) for a, b in window)


def _entry(row: tuple[TreeVertex, TreeVertex, int], c: TreeVertex) -> tuple:
    """One tree's pair_stats of (x_n, y) for n >= from_n >= weight(y) + 1,
    y having coordinate c there: (m, l) as AffineInN, then (m, l) at
    n = from_n.  row is the tree's _window_rows entry.

    With (m_y, l_y) the statistics of c: a descending tree (n, ...)
    gives (l_x, n + l_y - m_y) once n > m_y; a tree climbing only,
    (0, 1^n), gives (m_y + n, l_y) when m_y > 0 and otherwise
    (n - s, l_y - s) once n >= l_y, s being the length of c's leading
    run of 1s; a fixed tree gives a constant.  So each entry is affine
    from from_n on, and its values at from_n and from_n + 1 fix it.
    """
    x0, x1, from_n = row
    (m0, l0), (m1, l1) = pair_stats(x0, c), pair_stats(x1, c)
    return (
        AffineInN(m1 - m0, m0 - (m1 - m0) * from_n),
        AffineInN(l1 - l0, l0 - (l1 - l0) * from_n),
        m0,
        l0,
    )


def _profiles(entries: Iterable[tuple]) -> tuple[PairProfile, PairProfile]:
    """The pair profile over Z[n], and at n = from_n, of one _entry per tree."""
    m, l, m0, l0 = zip(*entries)
    return PairProfile(m, l), PairProfile(m0, l0)


def _class_key(z: DLVertex, rows: tuple, memos: list[dict], entry) -> tuple:
    """Per tree, entry(row, c) for z's coordinate c and the tree's row,
    computed once per distinct coordinate and then read from memos."""
    key = []
    for row, seen, c in zip(rows, memos, z.coords):
        got = seen.get(c)
        if got is None:
            got = seen[c] = entry(row, c)
        key.append(got)
    return tuple(key)


def shifts(x: DLVertex, targets: tuple[DLVertex, ...]) -> tuple[int, ...]:
    """distance(x, w) - distance(x, id) for each target w: the finite-n
    term whose limit along a family limit_value takes.

    A distance depends only on the pair profile, so pair_stats runs once
    per distinct (tree, coordinate) and profile_distance once per
    distinct profile among id and the targets.
    """
    stats: list[dict] = [{} for _ in x.coords]
    dists: dict[tuple, int] = {}  # profile as one (m, l) per tree -> distance

    def dist(w: DLVertex) -> int:
        _check_same_graph(x, w)
        key = _class_key(w, x.coords, stats, pair_stats)
        got = dists.get(key)
        if got is None:
            got = dists[key] = profile_distance(PairProfile(*zip(*key)))
        return got

    base = dist(identity(x.params))
    return tuple(dist(w) - base for w in targets)


def _limit_sweep(
    family: PointFamily, targets: Iterable[DLVertex]
) -> tuple[tuple[HorofunctionValue, ...], int]:
    """limit_values' limits, and the number of distinct (from_n, Z[n]
    profile) classes among the targets.

    Per from_n it keeps the window rows, one _entry memo per tree, the
    classes seen and the identity side's two distances.  A class's
    limit and its integer check at from_n depend on its entries alone.
    """
    base = identity(family.params)
    windows: dict[int, tuple] = {}  # from_n -> (rows, memos, classes, id sides)
    values = []
    for z in targets:
        _check_same_graph(base, z)
        from_n = _param_weight(z) + 1
        window = windows.get(from_n)
        if window is None:
            rows = _window_rows(family, from_n)
            memos = [{} for _ in rows]
            exact, at_from = _profiles(_class_key(base, rows, memos, _entry))
            sides = profile_distance(exact), profile_distance(at_from)
            window = windows[from_n] = (rows, memos, {}, sides)
        rows, memos, classes, (exact_id, at_id) = window
        key = _class_key(z, rows, memos, _entry)
        limit = classes.get(key)
        if limit is None:
            exact, at_from = _profiles(key)
            value = (profile_distance(exact) - exact_id).intercept
            measured = profile_distance(at_from) - at_id
            if measured != value:
                raise TableMismatch(
                    f"{family.name} at {z}: limit {value}, "
                    f"difference {measured} at n = {from_n}"
                )
            limit = classes[key] = HorofunctionValue(value, from_n)
        values.append(limit)
    return tuple(values), sum(len(classes) for _, _, classes, _ in windows.values())


def limit_values(
    family: PointFamily, targets: Iterable[DLVertex]
) -> tuple[HorofunctionValue, ...]:
    """limit_value(family, z) for each target z, in order.

    Each from_n's window and identity side, each (from_n, tree,
    coordinate)'s pair_stats and each (from_n, Z[n] profile) class's two
    profile_distance calls are computed once (module docstring); a
    class's limit and its check at from_n depend on nothing else.
    Raises TableMismatch at the first target whose integer difference
    at from_n is not its limit.
    """
    return _limit_sweep(family, targets)[0]


def limit_value(family: PointFamily, z: DLVertex) -> HorofunctionValue:
    """The limit of distance(x_n, z) - distance(x_n, id) as n grows.

    profile_distance runs on the pair profiles against z and against id
    as affine functions of n >= from_n = weight(z) + 1, so each distance
    comes out as its affine form at large n.  The two slopes agree, as
    the difference is at most distance(z, id) in size, and the limit is
    the difference of the intercepts.  Raises TableMismatch unless the
    integer difference at n = from_n already equals it.
    """
    return limit_values(family, (z,))[0]


def beta_value(z: DLVertex) -> int:
    """Closed-form beta horofunction value at z (d = 3 only)."""
    if len(z.coords) != 3:
        raise WrongDimension("beta closed form needs exactly 3 tree coordinates")
    (m1, p1), (m2, p2), (m3, p3) = z.coords
    l1, l2, h3 = len(p1), len(p2), len(p3) - m3
    return m1 + m2 + min(m1 + h3, l1 - m1 + h3, l1, m2 + h3, l2 - m2 + h3, l2)


# ── growth table toward beta ────────────────────────────────────────────────

class BetaDistRow(NamedTuple):
    """One tree ordering's rows f(s, 2), f(s, 3) and their max, in n."""

    sub: dict[int, AffineInN]
    total: AffineInN


@dataclass(frozen=True)
class BetaDistTable:
    """Computed distance rows toward beta_n, affine in n >= from_n."""

    z: DLVertex
    from_n: int  # total parameter weight of z plus one
    rows: dict[tuple[int, ...], BetaDistRow]
    shift: int  # distance(beta_n, z) - 2n for every n >= from_n


def betandist_table(z: DLVertex) -> BetaDistTable:
    """The f rows of (beta_n, z) as affine functions of n >= from_n.

    The pair profile of (beta_n, z) over Z[n] is m = (m1, m2, n),
    l = (l1, l2, n + h3) in z's own statistics, so f_rows and
    profile_distance run on it.  Their comparisons by tuple order are
    exact at every n >= from_n = weight(z) + 1, as no two compared terms
    cross there.  For an ordering s = (a, b, c):

    - f(s, 3) - f(s, 2) = m_a + m_c - l_b, which also decides
      max(M, m_b + l_b), is n (tree 3 at an end) or -n (tree 3 in the
      middle) plus a constant of size at most weight(z).
    - The end-pair terms m_a + l_c and m_c + l_a differ by a constant:
      both have slope 1 when tree 3 is at an end, else slope 0.
    - The three totals, one per middle tree, all have slope 2.

    Raises TableMismatch unless the distance is 2n + beta_value(z) and
    equals distance(beta_n, z) at n = from_n.
    """
    if len(z.coords) != 3:
        raise WrongDimension("growth table needs exactly 3 tree coordinates")
    from_n = _param_weight(z) + 1
    window = _window_rows(beta_family(z.params), from_n)
    profile, at_from = _profiles(_entry(row, c) for row, c in zip(window, z.coords))
    rows: dict[tuple[int, ...], BetaDistRow] = {}
    for sigma in all_permutations(3):
        f2, f3 = f_rows(profile.m, profile.l, [t - 1 for t in sigma])
        rows[sigma] = BetaDistRow({2: f2, 3: f3}, max(f2, f3))
    dist = profile_distance(profile)
    closed = beta_value(z)
    measured = profile_distance(at_from)
    if dist != AffineInN(2, closed) or dist.at(from_n) != measured:
        raise TableMismatch(
            f"distance {dist} in n, closed form {closed}, "
            f"distance(beta_n, z) = {measured} at n = {from_n}"
        )
    return BetaDistTable(z, from_n, rows, closed)


# ── probe sets ──────────────────────────────────────────────────────────────

def printed_probe_set(params: DLParams) -> tuple[DLVertex, ...]:
    """Depth-1 and depth-2 tree-1 excursions plus the four unit slides."""
    return _probe_set(params, ((1, 1), (1, 2)))


def symmetric_probe_set(params: DLParams) -> tuple[DLVertex, ...]:
    """Depth-1 excursions in both horizontal trees plus the unit slides."""
    return _probe_set(params, ((1, 1), (2, 1)))


def _probe_set(params: DLParams, excursions: tuple) -> tuple[DLVertex, ...]:
    """zeta_point(tree, k) for each (tree, k) in excursions, then the four
    unit slides nu_point(tree, eps, 1) for tree in (1, 2), eps in (0, 1)."""
    if params.d != 3:
        raise WrongDimension("probe sets are only defined for d = 3")
    if params.q < 2:
        raise ValueError("probe sets need q >= 2")
    return tuple(zeta_point(params, tree, k) for tree, k in excursions) + tuple(
        nu_point(params, tree, eps, 1) for tree in (1, 2) for eps in (0, 1)
    )


class ProbeReport(NamedTuple):
    """Probe-by-probe comparison of measured shifts with the closed form."""

    witness: DLVertex | None
    rows: tuple[tuple[DLVertex, int, int], ...]

    @property
    def disagrees(self) -> bool:
        return self.witness is not None


def probe_disagreement(z: DLVertex, probes: tuple[DLVertex, ...]) -> ProbeReport:
    """Does the shift of z at some probe f differ from beta_value(f)?
    A witness f means z visibly does not approach beta."""
    rows = tuple((f, got, beta_value(f)) for f, got in zip(probes, shifts(z, probes)))
    witness = next((f for f, got, want in rows if got != want), None)
    return ProbeReport(witness, rows)
