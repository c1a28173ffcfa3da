"""Horofunction values along point families, and the closed form for the
balanced tree-3 ray.

The horofunction of a family (x_n) at a probe z is the stabilized value
of distance(x_n, z) - distance(x_n, id).  For the beta family (balanced
down-then-up excursions in tree 3) the limit has the exact closed form

    m1 + m2 + min over j in {1, 2} of { m_j + h3, h_j + h3, l_j }

in terms of the probe's own coordinate statistics.  betandist_table
computes, for each tree ordering, the distance rows to beta_n as affine
functions of n by running the distance kernels over Z[n]; the distance
it finds is 2n plus that closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .dlgraph import (
    DLParams,
    DLVertex,
    PointFamily,
    beta_family,
    identity,
    nu_point,
    zeta_point,
)
from .errors import InconclusiveProfile, NotStabilized, TableMismatch, WrongDimension
from .metric import PairProfile, all_permutations, distance, f_rows, profile_distance

INFINITE = math.inf


# Where the routines below sample a family; limit_value starts one past
# the parameter weight of z.
LIMIT_WINDOW = 10  # equal consecutive differences that count as stable
LIMIT_SPAN = 200  # indices past the first before limit_value gives up
PROFILE_TAIL = range(57, 65)  # indices whose spine depths m_profile reads
PROFILE_THRESHOLD = 32  # a growing tail must end above this to be infinite


class HorofunctionValue(NamedTuple):
    """Stabilized limit value and the first index of its window."""

    value: int
    stabilized_at: int


def _param_weight(z: DLVertex) -> int:
    return sum(c.m + c.l for c in z.coords)


def limit_value(family: PointFamily, z: DLVertex) -> HorofunctionValue:
    """First stabilized value of distance(x_n, z) - distance(x_n, id).

    Scans n upward from the total parameter weight of z plus one until
    the difference is constant across LIMIT_WINDOW consecutive indices;
    raises NotStabilized after LIMIT_SPAN further indices.
    """
    n_min = _param_weight(z) + 1
    n_max = n_min + LIMIT_SPAN
    base = identity(z.params)
    run_value = None
    run_start = n_min
    run_len = 0
    for n in range(n_min, n_max + 1):
        xn = family.at(n)
        g = distance(xn, z) - distance(xn, base)
        if g == run_value:
            run_len += 1
        else:
            run_value = g
            run_start = n
            run_len = 1
        if run_len == LIMIT_WINDOW:
            return HorofunctionValue(run_value, run_start)
    raise NotStabilized(
        f"{family.name} at {z}: no constant window of length {LIMIT_WINDOW} "
        f"up to n={n_max}"
    )


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


def m_profile(family: PointFamily) -> tuple[float, ...]:
    """Limiting spine depth per tree: an exact integer or INFINITE.

    Samples the indices in PROFILE_TAIL.  A constant tail is Finite; a
    nondecreasing tail ending above PROFILE_THRESHOLD counts as
    Infinite; anything else is inconclusive.
    """
    tail = [family.at(n) for n in PROFILE_TAIL]
    out: list[float] = []
    for i in range(family.params.d):
        vals = [v.coords[i].m for v in tail]
        if all(v == vals[0] for v in vals):
            out.append(vals[0])
        elif (
            all(a <= b for a, b in zip(vals, vals[1:]))
            and vals[-1] > PROFILE_THRESHOLD
        ):
            out.append(INFINITE)
        else:
            raise InconclusiveProfile(
                f"{family.name} tree {i + 1}: tail {vals} is neither constant "
                f"nor increasing past {PROFILE_THRESHOLD}"
            )
    return tuple(out)


# ── growth table toward beta ────────────────────────────────────────────────

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

    For n past z's tree-3 spine depth, pair_profile(beta_n, z) is
    m = (m1, m2, n), l = (l1, l2, n + h3) in z's own statistics, so
    f_rows and profile_distance run on it over Z[n].  Their comparisons
    by tuple order are exact at every n >= from_n = weight(z) + 1
    (weight: the sum of all m_i + l_i), as no two compared terms cross
    there.  For an ordering s = (a, b, c):

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
    c1, c2, c3 = z.coords
    m = (AffineInN(0, c1.m), AffineInN(0, c2.m), AffineInN(1, 0))
    l = (AffineInN(0, c1.l), AffineInN(0, c2.l), AffineInN(1, c3.h))
    rows: dict[tuple[int, ...], BetaDistRow] = {}
    for sigma in all_permutations(3):
        f2, f3 = f_rows(m, l, [t - 1 for t in sigma])
        rows[sigma] = BetaDistRow({2: f2, 3: f3}, max(f2, f3))
    dist = profile_distance(PairProfile(m, l))
    closed = beta_value(z)
    from_n = _param_weight(z) + 1
    measured = distance(beta_family(z.params).at(from_n), z)
    if dist != AffineInN(2, closed) or dist.at(from_n) != measured:
        raise TableMismatch(
            f"distance {dist} in n, closed form {closed}, "
            f"distance(beta_n, z) = {measured} at n = {from_n}"
        )
    return BetaDistTable(z, from_n, rows, closed)


# ── probe sets ──────────────────────────────────────────────────────────────

def printed_probe_set(params: DLParams) -> tuple[DLVertex, ...]:
    """Depth-1 and depth-2 tree-1 excursions plus the four unit slides."""
    _require_probe_params(params)
    return (
        zeta_point(params, 1, 1),
        zeta_point(params, 1, 2),
        nu_point(params, 1, 0, 1),
        nu_point(params, 1, 1, 1),
        nu_point(params, 2, 0, 1),
        nu_point(params, 2, 1, 1),
    )


def symmetric_probe_set(params: DLParams) -> tuple[DLVertex, ...]:
    """Depth-1 excursions in both horizontal trees plus the unit slides."""
    _require_probe_params(params)
    return (
        zeta_point(params, 1, 1),
        zeta_point(params, 2, 1),
        nu_point(params, 1, 0, 1),
        nu_point(params, 1, 1, 1),
        nu_point(params, 2, 0, 1),
        nu_point(params, 2, 1, 1),
    )


def _require_probe_params(params: DLParams) -> None:
    if params.d != 3:
        raise WrongDimension("probe sets are only defined for d = 3")
    if params.q < 2:
        raise ValueError("probe sets need q >= 2")


class ProbeReport(NamedTuple):
    """Probe-by-probe comparison of measured shifts with the closed form."""

    disagrees: bool
    witness: DLVertex | None
    rows: tuple[tuple[DLVertex, int, int], ...]


@lru_cache(maxsize=8)
def _closed_forms(probes: tuple[DLVertex, ...]) -> tuple[int, ...]:
    # a check sweeps a ball against the same few probe sets, so each
    # probe's closed form is evaluated once per set, not once per vertex
    return tuple(beta_value(f) for f in probes)


def probe_disagreement(z: DLVertex, probes: tuple[DLVertex, ...]) -> ProbeReport:
    """Does distance(z, f) - distance(z, id) differ from beta_value(f)
    for some probe f?  True means z visibly does not approach beta."""
    dzid = distance(z, identity(z.params))
    measured = [distance(z, f) - dzid for f in probes]
    rows = tuple(zip(probes, measured, _closed_forms(tuple(probes))))
    witness = next((f for f, got, want in rows if got != want), None)
    return ProbeReport(witness is not None, witness, rows)
