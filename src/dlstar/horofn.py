"""Horofunction values along point families, and the closed form for the
balanced tree-3 ray.

The horofunction of a family (x_n) at a probe z is the stabilized value
of distance(x_n, z) - distance(x_n, id).  For the beta family (balanced
down-then-up excursions in tree 3) the limit has the exact closed form

    m1 + m2 + min over j in {1, 2} of { m_j + h3, h_j + h3, l_j }

in terms of the probe's own coordinate statistics.  betandist_table
measures, for each tree ordering, how the distance rows to beta_n grow
affinely in n, which is the finite-scale shadow of that closed form.
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
from .errors import (
    InconclusiveProfile,
    NonAffine,
    NotStabilized,
    TableMismatch,
    WrongDimension,
)
from .metric import all_permutations, distance, f_rows, pair_profile

INFINITE = math.inf


# Where the routines below sample a family; limit_value and
# betandist_table start one past the parameter weight of z.
LIMIT_WINDOW = 10  # equal consecutive differences that count as stable
LIMIT_SPAN = 200  # indices past the first before limit_value gives up
PROFILE_TAIL = range(57, 65)  # indices whose spine depths m_profile reads
PROFILE_THRESHOLD = 32  # a growing tail must end above this to be infinite
TABLE_GAP = 7  # betandist_table's third index lies this far past its first


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
    slope: int
    intercept: int

    def at(self, n: int) -> int:
        return self.slope * n + self.intercept


class BetaDistRow(NamedTuple):
    """Affine fits for one tree ordering: per-index rows and their max."""

    sub: dict[int, AffineInN]
    total: AffineInN


@dataclass(frozen=True)
class BetaDistTable:
    """Measured affine growth of every distance row toward beta_n."""

    z: DLVertex
    n1: int  # first and last sampled index, as chosen by betandist_table
    n2: int
    rows: dict[tuple[int, ...], BetaDistRow]
    shift: int  # distance(beta_n, z) - 2n, constant across both probes


def _fit_affine(samples: dict[int, int]) -> AffineInN:
    """Exact two-point affine fit confirmed on a third sample."""
    (na, va), (nb, vb), (nc, vc) = sorted(samples.items())
    step, rem = divmod(vc - va, nc - na)
    fit = AffineInN(step, va - step * na)
    if rem != 0 or fit.at(nb) != vb:
        raise NonAffine(f"samples {samples} do not lie on an integer line")
    return fit


def betandist_table(z: DLVertex) -> BetaDistTable:
    """Fit every f row of (beta_n, z) as an affine function of n.

    Samples n1 = total parameter weight of z plus one, n1 + 1 and
    n2 = n1 + TABLE_GAP, where every row is in its affine regime.  Also
    measures distance(beta_n, z) - 2n at n1 and n2 and checks it against
    the closed form, raising TableMismatch on disagreement.
    """
    if len(z.coords) != 3:
        raise WrongDimension("growth table needs exactly 3 tree coordinates")
    n1 = _param_weight(z) + 1
    n2 = n1 + TABLE_GAP
    fam = beta_family(z.params)
    ns = (n1, n1 + 1, n2)
    profiles = {n: pair_profile(fam.at(n), z) for n in ns}
    rows: dict[tuple[int, ...], BetaDistRow] = {}
    for sigma in all_permutations(3):
        s = [t - 1 for t in sigma]
        f = {n: f_rows(p.m, p.l, s) for n, p in profiles.items()}
        sub = {i: _fit_affine({n: f[n][i - 2] for n in ns}) for i in (2, 3)}
        total = _fit_affine({n: max(f[n]) for n in ns})
        rows[sigma] = BetaDistRow(sub, total)
    shifts = {n: distance(fam.at(n), z) - 2 * n for n in (n1, n2)}
    if shifts[n1] != shifts[n2]:
        raise NonAffine(f"distance shift not constant: {shifts}")
    closed = beta_value(z)
    if shifts[n1] != closed:
        raise TableMismatch(
            f"measured shift {shifts[n1]} differs from closed form {closed}"
        )
    return BetaDistTable(z, n1, n2, rows, shifts[n1])


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
