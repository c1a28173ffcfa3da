"""Horofunction values along point families, and the closed form for the
balanced tree-3 ray.

The horofunction of a family (x_n) at a probe z is the limit of
distance(x_n, z) - distance(x_n, id), which shifts computes at one x_n.
From n = weight(z) + 1 on (the weight is the sum of all m_i + l_i of z)
every meet statistic of x_n against z or id is affine in n, so
limit_values runs the distance kernels over Z[n] and reads the limits
off exactly.  The identity side of a limit depends only on the family
and from_n, so limit_values computes it once for all the targets that
share a from_n; limit_value is its one-target call.  For the beta
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
    all_permutations,
    distance,
    f_rows,
    pair_profile,
    profile_distance,
)


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
    return sum(c.m + c.l for c in z.coords)


def _profile_in_n(
    window: tuple[DLVertex, DLVertex], y: DLVertex, from_n: int
) -> tuple[PairProfile, PairProfile]:
    """pair_profile(x_n, y) for n >= from_n >= weight(y) + 1, with
    AffineInN entries, and its integer value at n = from_n; window is
    (x_{from_n}, x_{from_n + 1}).

    Per tree, pair_stats of (x_n, y) is, with (m_y, l_y) y's coordinate:
    a descending tree (n, ...) gives (l_x, n + l_y - m_y) once n > m_y;
    a tree climbing only, (0, 1^n), gives (m_y + n, l_y) when m_y > 0
    and otherwise (n - s, l_y - s) once n >= l_y, s being the length of
    y's leading run of 1s; a fixed tree gives a constant.  So each entry
    is affine from from_n on, and its values at from_n and from_n + 1
    fix it.
    """
    p0, p1 = (pair_profile(x, y) for x in window)
    exact = PairProfile(*(
        tuple(AffineInN(b - a, a - (b - a) * from_n) for a, b in zip(r0, r1))
        for r0, r1 in zip(p0, p1)
    ))
    return exact, p0


def _window(family: PointFamily, from_n: int) -> tuple[DLVertex, DLVertex]:
    return family.at(from_n), family.at(from_n + 1)


def shifts(x: DLVertex, targets: tuple[DLVertex, ...]) -> tuple[int, ...]:
    """distance(x, w) - distance(x, id) for each target w: the finite-n
    term whose limit along a family limit_value takes."""
    base = distance(x, identity(x.params))
    return tuple(distance(x, w) - base for w in targets)


def limit_values(
    family: PointFamily, targets: Iterable[DLVertex]
) -> tuple[HorofunctionValue, ...]:
    """limit_value(family, z) for each target z, in order.

    The identity side of a limit depends only on the family and from_n.
    It is the window (x_{from_n}, x_{from_n + 1}) and the exact and
    from_n distances of x_n to id.  So it is computed once per distinct
    from_n among the targets, and each target adds only its own side.
    Raises TableMismatch at the first target whose integer difference
    at from_n is not its limit.
    """
    base = identity(family.params)
    sides: dict[int, tuple[tuple[DLVertex, DLVertex], AffineInN, int]] = {}
    values = []
    for z in targets:
        from_n = _param_weight(z) + 1
        if from_n not in sides:
            window = _window(family, from_n)
            to_id, at_id = _profile_in_n(window, base, from_n)
            sides[from_n] = window, profile_distance(to_id), profile_distance(at_id)
        window, exact_id, measured_id = sides[from_n]
        to_z, at_z = _profile_in_n(window, z, from_n)
        value = (profile_distance(to_z) - exact_id).intercept
        measured = profile_distance(at_z) - measured_id
        if measured != value:
            raise TableMismatch(
                f"{family.name} at {z}: limit {value}, difference {measured} at n = {from_n}"
            )
        values.append(HorofunctionValue(value, from_n))
    return tuple(values)


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
    (m1, m2, _), (l1, l2, _) = (
        tuple(c.m for c in z.coords),
        tuple(c.l for c in z.coords),
    )
    h1, h2, h3 = (c.h for c in z.coords)
    return m1 + m2 + min(m1 + h3, h1 + h3, l1, m2 + h3, h2 + h3, l2)


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
    profile, at_from = _profile_in_n(_window(beta_family(z.params), from_n), z, from_n)
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
