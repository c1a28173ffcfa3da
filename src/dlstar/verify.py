"""Property suites behind `dlstar verify` and the acceptance tests.

Each suite returns VerificationReports with one report per headline
property.  Exhaustive triple screens run on vectorized copies of the
library's own pair tables; sampled calls bind the screens to the
checker functions they certify.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from .dlgraph import (
    DLParams,
    DLVertex,
    alpha_family,
    ball_distances,
    beta_family,
    identity,
    nu_point,
    vertex_sort_key,
)
from .horofn import (
    beta_value,
    betandist_table,
    limit_value,
    printed_probe_set,
    probe_disagreement,
    symmetric_probe_set,
)
from .metric import (
    all_permutations,
    balanced_compare,
    bfs_distance,
    check_coord_dominance,
    check_f_dominance,
    distance,
    f_rows,
    f_value,
    lower_bounds,
    pair_profile,
    profile_distance,
)
from .stars import VerificationReport, separation_evidence, star_witness
from .treecoord import ORIGIN, TreeVertex, canonical_paths

DEFAULT_SEED = 20260814


def _timed(fn: Callable[[], VerificationReport]) -> VerificationReport:
    t0 = time.perf_counter()
    report = fn()
    elapsed = time.perf_counter() - t0
    return VerificationReport(
        report.name, report.cases, report.failures, report.passed,
        report.first_failure, report.details, elapsed,
    )


def _sorted_ball(params: DLParams, radius: int) -> list[DLVertex]:
    return sorted(ball_distances(params, radius), key=vertex_sort_key)


# ── conformance ─────────────────────────────────────────────────────────────

def _check_word_metric(params: DLParams, seed: int) -> VerificationReport:
    reached = ball_distances(params, 5)
    base = identity(params)
    cases = 0
    failures = 0
    first = None
    for v, want in reached.items():
        cases += 1
        if distance(base, v) != want:
            failures += 1
            first = first or f"{v}: formula {distance(base, v)}, bfs {want}"
    pool = _sorted_ball(params, 4)
    rng = random.Random(seed)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(200)]
    for x, y in pairs:
        cases += 1
        want, got = distance(x, y), bfs_distance(x, y)
        if got != want:
            failures += 1
            first = first or f"{x} vs {y}: formula {want}, bfs {got}"
    return VerificationReport(
        "word-metric-conformance", cases, failures, failures == 0, first,
        {"ball_radius": 5, "ball_size": len(reached), "random_pairs": len(pairs)},
    )


def _check_beta_ray(params: DLParams) -> VerificationReport:
    beta = beta_family(params)
    alpha = alpha_family(params)
    base = identity(params)
    cases = 0
    failures = 0
    first = None
    for n in range(1, 31):
        bn = beta.at(n)
        for label, got in (
            ("distance to id", distance(bn, base)),
            ("distance to alpha_n", distance(bn, alpha.at(n))),
        ):
            cases += 1
            if got != 2 * n:
                failures += 1
                first = first or f"n={n}: {label} is {got}, want {2 * n}"
    return VerificationReport(
        "beta-ray-identities", cases, failures, failures == 0, first, {"n_max": 30}
    )


def _check_metric_axioms(params: DLParams, seed: int) -> VerificationReport:
    pool = _sorted_ball(params, 4)
    rng = random.Random(seed + 1)
    cases = 0
    failures = 0
    first = None

    def flag(msg: str) -> None:
        nonlocal failures, first
        failures += 1
        first = first or msg

    for _ in range(1000):
        x, y, z = (rng.choice(pool) for _ in range(3))
        dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
        cases += 1
        if dxy != distance(y, x) or dyz != distance(z, y) or dxz != distance(z, x):
            flag(f"symmetry broken on {x}, {y}, {z}")
        if dxz > dxy + dyz or dxy > dxz + dyz or dyz > dxy + dxz:
            flag(f"triangle broken on {x}, {y}, {z}")
    small = _sorted_ball(params, 3)
    for i, x in enumerate(small):
        cases += 1
        if distance(x, x) != 0:
            flag(f"nonzero self-distance at {x}")
        for y in small[i + 1 :]:
            cases += 1
            if distance(x, y) == 0:
                flag(f"zero distance between distinct {x}, {y}")
    return VerificationReport(
        "metric-axioms", cases, failures, failures == 0, first,
        {"triples": 1000, "identity_ball_radius": 3},
    )


def conformance_suite(
    params: DLParams | None = None, seed: int = DEFAULT_SEED
) -> list[VerificationReport]:
    params = params or DLParams()
    return [
        _timed(lambda: _check_word_metric(params, seed)),
        _timed(lambda: _check_beta_ray(params)),
        _timed(lambda: _check_metric_axioms(params, seed)),
    ]


# ── comparison lemmas ───────────────────────────────────────────────────────

def _balanced_probes(params: DLParams, caps: Sequence[int]) -> list[DLVertex]:
    """Every height-0 vertex with per-tree spine depth bounded by caps."""
    per_tree: list[list[TreeVertex]] = []
    for cap in caps:
        options = [
            TreeVertex(j, path)
            for j in range(cap + 1)
            for path in canonical_paths(j, params.q)
        ]
        per_tree.append(options)
    out = []
    def build(idx: int, acc: tuple[TreeVertex, ...]) -> None:
        if idx == len(per_tree):
            out.append(DLVertex(acc, params.q))
            return
        for c in per_tree[idx]:
            build(idx + 1, acc + (c,))
    build(0, ())
    return out


def _check_comparison_lemmas(params: DLParams, seed: int) -> VerificationReport:
    verts = _sorted_ball(params, 3)
    n = len(verts)
    d = params.d
    perms = all_permutations(d)
    row_keys = [(s, i) for s in perms for i in range(2, d + 1)]
    width = len(row_keys)

    mtab = np.empty((n, n, d), dtype=np.int64)
    ltab = np.empty((n, n, d), dtype=np.int64)
    dtab = np.empty((n, n), dtype=np.int64)
    for a, x in enumerate(verts):
        for b, y in enumerate(verts):
            prof = pair_profile(x, y)
            mtab[a, b] = prof.m
            ltab[a, b] = prof.l
            dtab[a, b] = profile_distance(prof)

    # columns in row_keys order: f_rows over the per-tree (n, n) slices
    mcols, lcols = np.moveaxis(mtab, 2, 0), np.moveaxis(ltab, 2, 0)
    ftab = np.stack(
        [f for s in perms for f in f_rows(mcols, lcols, [t - 1 for t in s])], axis=2
    )

    cases = 0
    failures = 0
    first = None

    def flag(msg: str) -> None:
        nonlocal failures, first
        failures += 1
        first = first or msg

    # bind the vectorized tables to the library row values on a sample
    rng = random.Random(seed + 2)
    for _ in range(500):
        a, b = rng.randrange(n), rng.randrange(n)
        col = rng.randrange(width)
        s, i = row_keys[col]
        cases += 1
        if ftab[a, b, col] != f_value(pair_profile(verts[a], verts[b]), s, i):
            flag(f"f table disagrees with f_value at {verts[a]}, {verts[b]}, {s}, {i}")
        cases += 1
        if dtab[a, b] != distance(verts[a], verts[b]):
            flag(f"distance table disagrees at {verts[a]}, {verts[b]}")

    # exhaustive screens: for each x, the strongest applicable k (row-wise
    # and coordinatewise) must satisfy its concluded bound
    for a in range(n):
        frows = ftab[a]
        kmax = (frows[None, :, :] - frows[:, None, :]).min(axis=2)
        gap = dtab[a][None, :] - dtab[a][:, None]
        bad = (kmax >= 0) & (gap < kmax)
        cases += bad.size
        if bad.any():
            yb, zb = np.argwhere(bad)[0]
            flag(
                f"row domination fails at x={verts[a]}, y={verts[yb]}, "
                f"z={verts[zb]}, k={kmax[yb, zb]}"
            )
            failures += int(bad.sum()) - 1
        coff = np.minimum(
            mtab[a][None, :, :] - mtab[a][:, None, :],
            ltab[a][None, :, :] - ltab[a][:, None, :],
        )
        applicable = (coff >= 0).all(axis=2)
        bad = applicable & (gap < coff.sum(axis=2))
        cases += bad.size
        if bad.any():
            yb, zb = np.argwhere(bad)[0]
            flag(
                f"coordinate domination fails at x={verts[a]}, y={verts[yb]}, z={verts[zb]}"
            )
            failures += int(bad.sum()) - 1

    # the checker functions themselves, on seeded triples at the strongest
    # applicable k and just past it
    for _ in range(1500):
        a, b, c = (rng.randrange(n) for _ in range(3))
        x, y, z = verts[a], verts[b], verts[c]
        k = int((ftab[a, c] - ftab[a, b]).min())
        if k >= 0:
            report = check_f_dominance(x, y, z, k)
            cases += 1
            if report.falsified or not report.hypothesis_holds:
                flag(f"check_f_dominance falsified at {x}, {y}, {z}, k={k}")
        report = check_f_dominance(x, y, z, abs(k) + 1)
        cases += 1
        if report.hypothesis_holds or report.falsified:
            flag(f"check_f_dominance hypothesis misfired at {x}, {y}, {z}")
        coff = np.minimum(mtab[a, c] - mtab[a, b], ltab[a, c] - ltab[a, b])
        if (coff >= 0).all():
            report = check_coord_dominance(x, y, z, tuple(int(v) for v in coff))
            cases += 1
            if report.falsified or not report.hypothesis_holds:
                flag(f"check_coord_dominance falsified at {x}, {y}, {z}")

    # balanced comparisons, exhaustively against a balanced probe pool
    probes = _balanced_probes(params, [2] * (d - 1) + [4])
    for x in verts:
        for z in probes:
            for report in balanced_compare(x, z):
                cases += 1
                if report.falsified:
                    flag(f"{report.claim} falsified at x={x}, z={z}")

    # certified lower bounds on every pair
    for a, x in enumerate(verts):
        for y in verts:
            for report in lower_bounds(x, y):
                cases += 1
                if not report.verified:
                    flag(f"{report.claim} exceeded distance at {x}, {y}")

    return VerificationReport(
        "comparison-lemmas", cases, failures, failures == 0, first,
        {"ball_radius": 3, "vertices": n, "balanced_probes": len(probes)},
    )


def lemma_suite(
    params: DLParams | None = None, seed: int = DEFAULT_SEED
) -> list[VerificationReport]:
    params = params or DLParams()
    return [_timed(lambda: _check_comparison_lemmas(params, seed))]


# ── horofunctions ───────────────────────────────────────────────────────────

def _check_beta_closed_form(params: DLParams) -> VerificationReport:
    beta = beta_family(params)
    probes = _sorted_ball(params, 5)
    cases = 0
    failures = 0
    first = None
    for z in probes:
        cases += 1
        got = limit_value(beta, z).value
        want = beta_value(z)
        if got != want:
            failures += 1
            first = first or f"{z}: limit {got}, closed form {want}"
    spot = [(identity(params), 0)]
    for tree in (1, 2):
        for eps in range(min(params.q, 2)):
            spot.append((nu_point(params, tree, eps, 1), -1))
    for z, want in spot:
        cases += 1
        if beta_value(z) != want:
            failures += 1
            first = first or f"{z}: closed form {beta_value(z)}, want {want}"
    return VerificationReport(
        "beta-closed-form", cases, failures, failures == 0, first,
        {"ball_radius": 5, "probes": len(probes)},
    )


def _sample_bounded_vertex(
    params: DLParams, rng: random.Random, cap: int
) -> DLVertex:
    """Seeded vertex with every spine depth and climb at most cap."""
    while True:
        coords = []
        for _ in range(params.d):
            m = rng.randint(0, cap)
            l = rng.randint(0, cap)
            if m > 0 and l > 0:
                path = (rng.randrange(1, params.q),) + tuple(
                    rng.randrange(params.q) for _ in range(l - 1)
                )
            else:
                path = tuple(rng.randrange(params.q) for _ in range(l))
            coords.append(TreeVertex(m, path))
        if sum(c.h for c in coords) == 0:
            return DLVertex(tuple(coords), params.q)


def _check_growth_table(params: DLParams, seed: int) -> VerificationReport:
    rng = random.Random(seed + 3)
    cases = 0
    failures = 0
    first = None
    for _ in range(50):
        z = _sample_bounded_vertex(params, rng, 4)
        (m1, m2, _), (l1, l2, _) = (
            tuple(c.m for c in z.coords), tuple(c.l for c in z.coords),
        )
        h3 = z.coords[2].h
        expected = {
            (1, 2, 3): 2 * m1 + m2 + h3,
            (2, 1, 3): m1 + 2 * m2 + h3,
            (3, 2, 1): m1 + l1 + m2,
            (1, 3, 2): m1 + l2 + h3,
            (2, 3, 1): l1 + m2 + h3,
            (3, 1, 2): m1 + m2 + l2,
        }
        weight = sum(c.m + c.l for c in z.coords)
        table = betandist_table(z, weight + 12, weight + 19)
        for sigma, row in table.rows.items():
            for i, fit in row.sub.items():
                cases += 1
                if fit.slope not in (1, 2):
                    failures += 1
                    first = first or f"{z} {sigma} i={i}: slope {fit.slope}"
            cases += 1
            if row.total.slope != 2 or row.total.intercept != expected[sigma]:
                failures += 1
                first = first or (
                    f"{z} {sigma}: total {row.total}, want slope 2 "
                    f"intercept {expected[sigma]}"
                )
        cases += 1
        if table.shift != beta_value(z):
            failures += 1
            first = first or f"{z}: shift {table.shift}"
    return VerificationReport(
        "growth-table", cases, failures, failures == 0, first, {"samples": 50}
    )


def horofn_suite(
    params: DLParams | None = None, seed: int = DEFAULT_SEED
) -> list[VerificationReport]:
    params = params or DLParams()
    return [
        _timed(lambda: _check_beta_closed_form(params)),
        _timed(lambda: _check_growth_table(params, seed)),
    ]


# ── stars ───────────────────────────────────────────────────────────────────

def _check_probe_exclusion(params: DLParams) -> VerificationReport:
    symmetric = symmetric_probe_set(params)
    printed = printed_probe_set(params)
    reached = ball_distances(params, 6)
    cases = 0
    failures = 0
    first = None
    printed_misses = 0
    nontrivial = 0
    for z in reached:
        if all(c == ORIGIN for c in z.coords[:2]):
            continue
        nontrivial += 1
        cases += 1
        if not probe_disagreement(z, symmetric).disagrees:
            failures += 1
            first = first or f"{z} agrees with every symmetric probe"
        if not probe_disagreement(z, printed).disagrees:
            printed_misses += 1
    b5 = beta_family(params).at(5)
    cases += 1
    if probe_disagreement(b5, symmetric).disagrees:
        failures += 1
        first = first or "beta_5 unexpectedly disagrees with a symmetric probe"
    return VerificationReport(
        "probe-exclusion", cases, failures, failures == 0, first,
        {
            "ball_radius": 6,
            "nontrivial_vertices": nontrivial,
            "printed_set_misses": printed_misses,
        },
    )


def _check_asymmetry(params: DLParams) -> VerificationReport:
    cases = 0
    failures = 0
    first = None
    witness = star_witness(beta_family(params), alpha_family(params), 30)
    cases += witness.checked_n
    if not witness.holds_for_all or any(m != 0 for m in witness.margins):
        failures += 1
        first = f"inclusion margins {set(witness.margins)} not all zero"
    min_slacks = []
    alpha = alpha_family(params)
    for k in range(1, 6):
        report = separation_evidence(alpha, k, n_max=10, depth=3)
        cases += report.cases
        min_slacks.append(report.details["min_slack"])
        if not report.passed:
            failures += 1
            first = first or report.first_failure
    if min(min_slacks) != 0:
        failures += 1
        first = first or f"minimum separation slack {min(min_slacks)}, want exactly 0"
    return VerificationReport(
        "asymmetry-certificates", cases, failures, failures == 0, first,
        {"witness_n_max": 30, "separation_k": "1..5", "min_slacks": min_slacks},
    )


def stars_suite(
    params: DLParams | None = None, seed: int = DEFAULT_SEED
) -> list[VerificationReport]:
    params = params or DLParams()
    return [
        _timed(lambda: _check_probe_exclusion(params)),
        _timed(lambda: _check_asymmetry(params)),
    ]


SUITES: dict[str, Callable[..., list[VerificationReport]]] = {
    "conformance": conformance_suite,
    "lemmas": lemma_suite,
    "horofn": horofn_suite,
    "stars": stars_suite,
}


def run_suites(
    names: Iterable[str],
    params: DLParams | None = None,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> list[VerificationReport]:
    # workers stays only because the benchmark harness passes workers=1;
    # a later change to the harness drops the keyword
    if workers != 1:
        raise ValueError(f"suites run in one process; workers must be 1, got {workers!r}")
    chosen = list(names)
    if "all" in chosen:
        chosen = list(SUITES)
    reports = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        reports.extend(SUITES[name](params, seed))
    return reports
