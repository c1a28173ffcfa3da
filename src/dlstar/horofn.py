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
from .treecoord import _require_int

INFINITE = math.inf


class HorofunctionValue(NamedTuple):
    """Stabilized limit value with the index window certifying it."""

    value: int
    stabilized_at: int
    window: int


def _param_weight(z: DLVertex) -> int:
    return sum(c.m + c.l for c in z.coords)


def limit_value(
    family: PointFamily,
    z: DLVertex,
    n_min: int | None = None,
    window: int = 10,
    n_max: int | None = None,
) -> HorofunctionValue:
    """First stabilized value of distance(x_n, z) - distance(x_n, id).

    Scans n upward from n_min (default: total parameter weight of z
    plus one) until the difference is constant across `window`
    consecutive indices; gives up past n_max (default n_min + 200).
    Bounds that are not ints, or n_max < n_min, raise ValueError.
    """
    _require_int(window, "window")
    if window < 1:
        raise ValueError("window must be positive")
    if n_min is None:
        n_min = _param_weight(z) + 1
    _require_int(n_min, "n_min")
    if n_max is None:
        n_max = n_min + 200
    _require_int(n_max, "n_max")
    if n_max < n_min:
        raise ValueError(f"n_max={n_max} is below n_min={n_min}")
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
        if run_len == window:
            return HorofunctionValue(run_value, run_start, window)
    raise NotStabilized(
        f"{family.name} at {z}: no constant window of length {window} up to n={n_max}"
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


def m_profile(
    family: PointFamily,
    n_max: int = 64,
    window: int = 8,
    threshold: int | None = None,
) -> tuple[float, ...]:
    """Limiting spine depth per tree: an exact integer or INFINITE.

    Samples the last `window` indices up to n_max.  A constant tail is
    Finite; a nondecreasing tail ending above threshold (default
    n_max // 2) counts as Infinite; anything else is inconclusive.
    """
    if window < 2 or n_max < window:
        raise ValueError("need n_max >= window >= 2")
    if threshold is None:
        threshold = n_max // 2
    tail = [family.at(n) for n in range(n_max - window + 1, n_max + 1)]
    out: list[float] = []
    for i in range(family.params.d):
        vals = [v.coords[i].m for v in tail]
        if all(v == vals[0] for v in vals):
            out.append(vals[0])
        elif all(a <= b for a, b in zip(vals, vals[1:])) and vals[-1] > threshold:
            out.append(INFINITE)
        else:
            raise InconclusiveProfile(
                f"{family.name} tree {i + 1}: tail {vals} is neither constant "
                f"nor increasing past {threshold}"
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
    n1: int
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


def betandist_table(z: DLVertex, n1: int, n2: int) -> BetaDistTable:
    """Fit every f row of (beta_n, z) as an affine function of n.

    Requires n2 > n1 > total parameter weight of z, which places all
    rows in their affine regime.  Also measures distance(beta_n, z) - 2n
    at both probes and checks it against the closed form, raising
    TableMismatch on disagreement.
    """
    if len(z.coords) != 3:
        raise WrongDimension("growth table needs exactly 3 tree coordinates")
    weight = _param_weight(z)
    if not (n2 > n1 > weight):
        raise ValueError(
            f"need n2 > n1 > {weight} (total parameter weight of z), "
            f"got n1={n1}, n2={n2}"
        )
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


def probe_disagreement(z: DLVertex, probes: tuple[DLVertex, ...]) -> ProbeReport:
    """Does distance(z, f) - distance(z, id) differ from beta_value(f)
    for some probe f?  True means z visibly does not approach beta."""
    base = identity(z.params)
    dzid = distance(z, base)
    rows = []
    witness = None
    for f in probes:
        measured = distance(z, f) - dzid
        expected = beta_value(f)
        rows.append((f, measured, expected))
        if measured != expected and witness is None:
            witness = f
    return ProbeReport(witness is not None, witness, tuple(rows))
