"""Property suites behind `dlstar verify` and the acceptance tests.

Each suite is a tuple of checks, one per headline property; a check
takes (params, seed, tally, ball), counts its cases and failures on the
tally and returns its details.  ball is the run's dlgraph.Ball, the
breadth-first layers around the identity: run_suites opens one for all
its checks, so each layer is grown and decoded once a run, and a check
that reads it reports the layers it grew as ball_layers_grown.
run_check names, times and reports each check; a check stopped by a
memory cap or a table mismatch comes back as a failed report (one more
failure on its tally).  The domination screens run on a table of the
distinct pair profiles, built by
pair_table from the library's own pair_stats, profile_distance and
f_rows.  pair_table is the one constructor of a table, and it refuses
any table whose arrays, or whose U**2 profile pairs, would pass
PROFILE_PAIR_CAP.  Both domination lemmas are profile arithmetic, so
the screens take every ordered pair of distinct profiles once, one
case per pair and screen.  The row screen rejects a pair by one
certified column of f, which rejects every pair of a correct table,
and reads the full width only for the pairs it lets through; the
coordinate screen filters the pairs one tree at a time.  One pair of
each profile binds its row to the library (screen_profiles), and seeded
triples bind the screens to the checker functions they certify.  The
exhaustive pair checks call their checker once per class of pairs with
the same inputs, each call weighted by how many pairs share them, the
classes counted without a sort.  Both probe sweeps, balanced_compare
against the balanced probes and probe_disagreement against the probe
sets, build their own cross table of the vertices against (id,) +
probes and read each vertex's distance to the identity from its first
column.  The probe screen binds each class's measured shifts to its
table row and takes both sets' verdicts from probe_disagreement itself.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .dlgraph import (
    MAX_DIMENSION,
    Ball,
    DLParams,
    DLVertex,
    _bfs_search,
    alpha_family,
    balanced_vertices,
    beta_family,
    identity,
    vertex_sort_key,
)
from .errors import MemoryCapExceeded, TableMismatch
from .horofn import (
    _limit_sweep,
    beta_value,
    betandist_table,
    printed_probe_set,
    probe_disagreement,
    symmetric_probe_set,
)
from .metric import (
    PairProfile,
    _perms0,
    all_permutations,
    balanced_compare,
    check_coord_dominance,
    check_f_dominance,
    distance,
    f_rows,
    f_value,
    lower_bounds,
    pair_profile,
    profile_distance,
)
from .stars import Tally, VerificationReport, separation_evidence, star_witness
from .treecoord import ORIGIN, TreeVertex, _require_int, pair_stats

DEFAULT_SEED = 20260814
# entries of each array that the lemma tables build over all pairs, each
# checked by pair_table before it is allocated: the int32 pair key, which
# becomes the table's inv (rows x cols), and the bool present lookup and
# int32 rank (prod(dims) keys).  An int32 array of 2**26 entries is
# 256 MiB.  The cap is below the int32 maximum, so every key fits in
# int32.  It also bounds the U**2 ordered pairs of distinct profiles
# that screen_dominance visits, checked as soon as the lookup gives U:
# DL_4(2) has 6552**2, and DL_5(2), with 43681**2, is refused before
# profile_distance runs.
PROFILE_PAIR_CAP = 2**26

# a check counts cases and failures on the tally and returns its details;
# the ball is the run's, shared by its checks
Check = Callable[[DLParams, int, Tally, Ball], dict]


def _read_ball(ball: Ball, radius: int) -> tuple[list[tuple[DLVertex, ...]], int]:
    """ball's layers 0..radius, and how many of them this read grew."""
    grown = max(0, radius - ball.radius)
    return ball.layers(radius), grown


def _sorted_ball(ball: Ball, radius: int) -> tuple[list[DLVertex], int]:
    """The vertices of ball's layers 0..radius in vertex_sort_key order,
    and how many layers this read grew."""
    layers, grown = _read_ball(ball, radius)
    return sorted(itertools.chain.from_iterable(layers), key=vertex_sort_key), grown


# ── conformance ─────────────────────────────────────────────────────────────

def _check_word_metric_conformance(
    params: DLParams, seed: int, tally: Tally, ball: Ball
) -> dict:
    layers, grown = _read_ball(ball, 5)
    base = identity(params)
    for want, layer in enumerate(layers):
        for v in layer:
            got = distance(base, v)
            tally.check(got == want, lambda: f"{v}: formula {got}, bfs {want}")
    pool, _ = _sorted_ball(ball, 4)
    rng = random.Random(seed)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(200)]
    expanded = 0
    for x, y in pairs:
        want = distance(x, y)
        got, cost = _bfs_search(x, y, 2 * want + 2)  # bfs_distance's default cap
        expanded += cost
        tally.check(got == want, lambda: f"{x} vs {y}: formula {want}, bfs {got}")
    return {
        "ball_radius": 5,
        "ball_size": sum(map(len, layers)),
        "random_pairs": len(pairs),
        "bfs_expanded": expanded,
        "ball_layers_grown": grown,
    }


def _check_beta_ray_identities(params: DLParams, seed: int, tally: Tally, ball: Ball) -> dict:
    beta = beta_family(params)
    alpha = alpha_family(params)
    base = identity(params)
    for n in range(1, 31):
        bn = beta.at(n)
        for label, got in (
            ("distance to id", distance(bn, base)),
            ("distance to alpha_n", distance(bn, alpha.at(n))),
        ):
            tally.check(got == 2 * n, lambda: f"n={n}: {label} is {got}, want {2 * n}")
    return {"n_max": 30}


def _check_metric_axioms(params: DLParams, seed: int, tally: Tally, ball: Ball) -> dict:
    pool, grown = _sorted_ball(ball, 4)
    rng = random.Random(seed + 1)
    for _ in range(1000):
        x, y, z = (rng.choice(pool) for _ in range(3))
        dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
        tally.check(
            dxy == distance(y, x) and dyz == distance(z, y) and dxz == distance(z, x),
            lambda: f"symmetry broken on {x}, {y}, {z}",
        )
        if dxz > dxy + dyz or dxy > dxz + dyz or dyz > dxy + dxz:
            tally.fail(lambda: f"triangle broken on {x}, {y}, {z}")
    small, _ = _sorted_ball(ball, 3)
    for i, x in enumerate(small):
        tally.check(distance(x, x) == 0, lambda: f"nonzero self-distance at {x}")
        for y in small[i + 1 :]:
            tally.check(
                distance(x, y) != 0, lambda: f"zero distance between distinct {x}, {y}"
            )
    return {"triples": 1000, "identity_ball_radius": 3, "ball_layers_grown": grown}


# ── comparison lemmas ───────────────────────────────────────────────────────

@dataclass(frozen=True)
class PairTable:
    """The distinct pair profiles of rows x cols, one table row each.

    m, l: (U, d) per-tree meet statistics; dist: (U,) the distance;
    f: (U, d!, d - 1) the f rows, f[u, s, i - 2] = f(all_permutations(d)[s],
    i); inv: (len(rows), len(cols)) int32, the table row of every ordered
    pair.
    """

    m: np.ndarray
    l: np.ndarray
    dist: np.ndarray
    f: np.ndarray
    inv: np.ndarray


def _codes(values: Sequence) -> tuple[list, np.ndarray]:
    """The distinct values, sorted, and the int32 index into them of each
    value.  Sorted, because profile ids, and with them first failures,
    follow the values' order."""
    distinct = sorted(set(values))
    index = {v: i for i, v in enumerate(distinct)}
    return distinct, np.array([index[v] for v in values], np.int32)


def _tree_codes(rows: Sequence[DLVertex], cols: Sequence[DLVertex], t: int):
    """Tree t's distinct (m, l) over rows x cols, a code (into them) for
    each distinct row coordinate and column, and the index of each row's
    coordinate: rows[a], cols[b] have code[row_code[a], b]."""
    row_coords, row_code = _codes([v.coords[t] for v in rows])
    col_coords, col_code = _codes([v.coords[t] for v in cols])
    tree_stats, code = _codes([pair_stats(a, b) for a in row_coords for b in col_coords])
    return np.array(tree_stats), code.reshape(len(row_coords), -1)[:, col_code], row_code


# pairs per block of _pair_blocks, of rows in pair_table and _shift_classes
# and of y profiles in screen_dominance: large enough that the screen's
# per-block overhead does not dominate at d = 3, small enough that the
# per-block temporaries stay near 1 MB; only the pairs the certified
# column lets through, none on a correct table, take a full-width block
# of f, up to about 30 MB at d = 4
_BLOCK_PAIRS = 2**14


def pair_table(
    rows: Sequence[DLVertex], cols: Sequence[DLVertex] | None = None
) -> PairTable:
    """PairTable of rows x cols (cols defaults to rows), from pair_stats
    on each tree's distinct coordinates and profile_distance on each
    distinct profile.

    The key of a pair combines its per-tree codes, key = key * dims[t] +
    code_t, built in place in one int32 array, a block of rows at a time
    (_pair_blocks), so no other array of every pair is made.  A dense
    lookup over all prod(dims) keys marks the U distinct ones; their
    rank in key order, again a block at a time, becomes inv.  Raises
    MemoryCapExceeded when the key or the lookup would pass
    PROFILE_PAIR_CAP, each before it is built, or when the U**2 profile
    pairs would; U is checked as soon as the lookup gives it, before the
    rank and profile_distance.
    """
    cols = rows if cols is None else cols
    _require_entries("pair key", len(rows) * len(cols))
    trees = [_tree_codes(rows, cols, t) for t in range(len(rows[0].coords))]
    dims = [len(tree_stats) for tree_stats, *_ in trees]
    span = math.prod(dims)
    _require_entries("pair key range", span)
    key = np.zeros((len(rows), len(cols)), dtype=np.int32)
    blocks = _pair_blocks(len(rows), len(cols))
    present = np.zeros(span, dtype=bool)
    for block in blocks:
        key_block = key[block]
        for dim, (_, code, row_code) in zip(dims, trees):
            key_block *= dim
            key_block += code[row_code[block]]
        present[key_block] = True
    distinct = np.flatnonzero(present)
    _require_entries("profile pairs", len(distinct) ** 2)
    rank = np.cumsum(present, dtype=np.int32)
    rank -= 1
    for block in blocks:
        key[block] = rank[key[block]]
    per_tree = [tree[0][c] for tree, c in zip(trees, np.unravel_index(distinct, dims))]
    m = np.stack([ml[:, 0] for ml in per_tree], axis=1)
    l = np.stack([ml[:, 1] for ml in per_tree], axis=1)
    dist = np.array(
        [
            profile_distance(PairProfile(tuple(a), tuple(b)))
            for a, b in zip(m.tolist(), l.tolist())
        ],
        dtype=np.int64,
    )
    f = np.stack([np.stack(f_rows(m.T, l.T, s), axis=1) for s in _perms0(m.shape[1])], axis=1)
    return PairTable(m, l, dist, f, key)


def _require_entries(what: str, entries: int) -> None:
    """Raise MemoryCapExceeded when that many entries of what would pass
    PROFILE_PAIR_CAP."""
    if entries > PROFILE_PAIR_CAP:
        raise MemoryCapExceeded(f"{what} too large", entries)


def _pair_blocks(rows: int, width: int) -> list[slice]:
    """Slices of consecutive rows of width pairs each, about _BLOCK_PAIRS
    pairs and at least one row a slice."""
    step = max(1, _BLOCK_PAIRS // width)
    return [slice(a, min(a + step, rows)) for a in range(0, rows, step)]


def screen_dominance(tally: Tally, table: PairTable) -> int:
    """Row-wise and coordinatewise domination on every ordered pair (y, z)
    of the table's distinct profiles.

    For each pair, the strongest applicable k (row-wise and
    coordinatewise) must satisfy its concluded bound.  Both lemmas are
    profile arithmetic: a triple (x, y', z') holds them exactly when its
    profile pair (inv[x, y'], inv[x, z']) does, so the U**2 pairs cover
    every triple of the table's vertices, and the pairs that no one
    vertex x sees as well.  The pairs are screened a block of y profiles
    at a time (_pair_blocks), each against every z.

    The row screen fails (y, z) exactly when every column (s, i) has
    f[z, s, i] - f[y, s, i] >= max(gap + 1, 0), gap = dist[z] - dist[y],
    so one column below that rejects the pair.  Each pair tries one
    certified column first: the ordering s = best[z] whose largest row
    of z is least, and in it y's largest row i = top[y, s].  When dist
    is the min-max of the f rows, z's entry there is at most dist[z] and
    y's at least dist[y], so the column rejects every pair.  Only the
    pairs it lets through take the minimum over the full width; there
    are none on a correct table.
    The coordinate screen needs m and l of z at least those of y in
    every tree, so it keeps those pairs, one tree at a time, before the
    exact test of the sum.

    Every pair counts one case per screen, 2 * U**2 in all, and one
    failure per screen it fails; the first failure names its two
    profiles.  Returns the number of pairs that took the full-width row
    check.  pair_table has already checked U**2 against PROFILE_PAIR_CAP.
    """
    dist, f = table.dist, table.f
    profiles = len(dist)
    trees = list(zip(table.m.T.copy(), table.l.T.copy()))
    # top[y, s] and fmax[y, s] are y's largest row in ordering s and its
    # entry, best[z] the ordering whose largest row of z is least, and
    # certified[at[z] + i] = f[z, best[z], i], flat for a fast take
    top = f.argmax(axis=2)
    fmax = f.max(axis=2)
    best = fmax.argmin(axis=1)
    certified = f[np.arange(profiles), best].ravel()
    at = np.arange(0, len(certified), f.shape[2])

    def profile(u):
        return PairProfile(tuple(table.m[u].tolist()), tuple(table.l[u].tolist()))

    def fail(what, y, z, k=""):
        # the failing pairs of one block, in (y, z) order
        a, b = profile(y[0]), profile(z[0])
        tally.fail(lambda: f"{what} domination fails at y={a}, z={b}{k}", len(y))

    full_width = 0
    for block in _pair_blocks(profiles, profiles):
        # (y, z) is at [y - block.start, z] of each block array
        gap = dist - dist[block, None]
        i = np.take(top[block], best, axis=1)
        column = certified[at + i] - np.take(fmax[block], best, axis=1)
        through = column >= np.maximum(gap + 1, 0)
        if through.any():
            y, z = np.nonzero(through)
            y, g = y + block.start, gap[through]
            full_width += len(y)
            kmax = (f[z] - f[y]).min(axis=(1, 2))
            bad = (kmax >= 0) & (g < kmax)
            if bad.any():
                fail("row", y[bad], z[bad], f", k={kmax[bad][0]}")
        keep = np.ones(gap.shape, dtype=bool)
        for mt, lt in trees:
            keep &= mt >= mt[block, None]
            keep &= lt >= lt[block, None]
        y, z = np.nonzero(keep)
        y, g = y + block.start, gap[keep]
        coff = sum(np.minimum(mt[z] - mt[y], lt[z] - lt[y]) for mt, lt in trees)
        bad = g < coff
        if bad.any():
            fail("coordinate", y[bad], z[bad])
    tally.cases += 2 * profiles**2
    return full_width


def _classes(key_rows: Iterable[np.ndarray], span: int) -> tuple[np.ndarray, np.ndarray]:
    """How many pairs each class in range(span) has, and its first pair.

    key_rows gives, row by row, the class of every pair in the row, every
    row of one width.  Returns count (span,) and first (span, 2), the
    (row, column) of each class's first pair in row-major order, or -1
    for a class never seen.
    """
    count = np.zeros(span, dtype=np.int64)
    first = np.full(span, np.iinfo(np.int64).max)
    width = 0
    for a, row in enumerate(key_rows):
        width = len(row)
        # ufunc.at costs the row, where bincount would cost the span
        np.add.at(count, row, 1)
        np.minimum.at(first, row, np.arange(a * width, (a + 1) * width))
    seen = count > 0
    pairs = np.full((span, 2), -1)
    pairs[seen, 0], pairs[seen, 1] = np.divmod(first[seen], width)
    return count, pairs


def screen_profiles(tally: Tally, table: PairTable, verts: Sequence[DLVertex]) -> None:
    """Every row u of the square table bound to the library, and
    lower_bounds on every ordered pair of verts, one call per profile.

    lower_bounds(x, y) reads x and y only through pair_profile(x, y), so
    the first pair (x, y) of row u stands for the row's pairs, two reports
    each.  It binds the row too: pair_profile(x, y) must be (m[u], l[u]),
    with profile_distance dist[u] and f_value f[u, s, r] at the column
    (s, r) = divmod(u % (d! * (d - 1)), d - 1).  A row that disagrees fails.
    """
    count, first = _classes(table.inv, len(table.dist))
    perms = all_permutations(table.m.shape[1])
    profiles = zip(map(tuple, table.m.tolist()), map(tuple, table.l.tolist()))
    pairs = [(verts[a], verts[b]) for a, b in first.tolist()]
    wrong = []  # per row, the first library function it disagrees with
    for u, ((x, y), row) in enumerate(zip(pairs, profiles)):
        s, r = divmod(u % table.f[u].size, table.f.shape[2])
        p = pair_profile(x, y)
        checks = (
            ("pair_profile", p == row),
            ("distance", profile_distance(p) == table.dist[u]),
            ("f_value", f_value(p, perms[s], r + 2) == table.f[u, s, r]),
        )
        wrong.append(next((name for name, ok in checks if not ok), ""))
    reports = [lower_bounds(x, y) for x, y in pairs]
    bad = np.array([[bool(w) or not r.verified for r in rs] for w, rs in zip(wrong, reports)])

    def message(u, j):
        x, y = pairs[u]
        if wrong[u]:
            return f"profile table disagrees with {wrong[u]} at {x}, {y}"
        return f"{reports[u][j].claim} exceeded distance at {x}, {y}"

    tally.screen(bad, message, np.broadcast_to(count[:, None], bad.shape))


def screen_balanced(
    tally: Tally, verts: Sequence[DLVertex], probes: Sequence[DLVertex]
) -> int:
    """balanced_compare on every (x, z) in verts x probes, one call per class.

    balanced_compare(x, z) reads x's spine depths, z's spine depths,
    distance(x, id) and distance(x, z).  Those four are the class: the
    depths coded per vertex and both distances read from pair_table(verts,
    (id,) + probes), distance(x, id) from its first column, one base
    vertex x at a time.  The first pair of each class stands for all,
    three reports each, and checks distance(x, z) and its BalancedEq
    bound, which is distance(x, id), against the table.  Returns the
    number of classes.
    """
    cross = pair_table(verts, (identity(verts[0].params), *probes))
    base = cross.dist[cross.inv[:, 0]]
    xs, xc = _codes([(*(c.m for c in x.coords), b) for x, b in zip(verts, base.tolist())])
    zs, zc = _codes([tuple(c.m for c in z.coords) for z in probes])
    nz, span_d = len(zs), int(cross.dist.max()) + 1
    count, first = _classes(
        ((xc[a] * nz + zc) * span_d + cross.dist[row[1:]] for a, row in enumerate(cross.inv)),
        len(xs) * nz * span_d,
    )
    seen = np.flatnonzero(count)
    pairs = [(verts[a], probes[b]) for a, b in first[seen].tolist()]
    want = zip(seen % span_d, base[first[seen, 0]])
    reports = [balanced_compare(x, z) for x, z in pairs]
    got = [(distance(x, z), eq.bound) for (x, z), (eq, _, _) in zip(pairs, reports)]
    same = [g == w for g, w in zip(got, want)]
    bad = np.array([[r.falsified or not ok for r in rs] for ok, rs in zip(same, reports)])

    def message(i, j):
        x, z = pairs[i]
        if not same[i]:
            return f"distance table disagrees with distance at x={x}, z={z}"
        return f"{reports[i][j].claim} falsified at x={x}, z={z}"

    tally.screen(bad, message, np.broadcast_to(count[seen, None], bad.shape))
    return len(seen)


def _check_comparison_lemmas(params: DLParams, seed: int, tally: Tally, ball: Ball) -> dict:
    verts, grown = _sorted_ball(ball, 3)
    n = len(verts)
    table = pair_table(verts)

    full_width_pairs = screen_dominance(tally, table)

    # the checker functions themselves, on seeded triples at the strongest
    # applicable k and just past it
    rng = random.Random(seed + 2)
    for _ in range(1500):
        a, b, c = (rng.randrange(n) for _ in range(3))
        x, y, z = verts[a], verts[b], verts[c]
        pb, pc = table.inv[a, b], table.inv[a, c]
        k = int((table.f[pc] - table.f[pb]).min())
        if k >= 0:
            report = check_f_dominance(x, y, z, k)
            tally.check(
                report.hypothesis_holds and not report.falsified,
                lambda: f"check_f_dominance falsified at {x}, {y}, {z}, k={k}",
            )
        report = check_f_dominance(x, y, z, abs(k) + 1)
        tally.check(
            not report.hypothesis_holds and not report.falsified,
            lambda: f"check_f_dominance hypothesis misfired at {x}, {y}, {z}",
        )
        coff = np.minimum(table.m[pc] - table.m[pb], table.l[pc] - table.l[pb])
        if (coff >= 0).all():
            report = check_coord_dominance(x, y, z, tuple(int(v) for v in coff))
            tally.check(
                report.hypothesis_holds and not report.falsified,
                lambda: f"check_coord_dominance falsified at {x}, {y}, {z}",
            )

    # balanced comparisons against a balanced probe pool, and certified
    # lower bounds on every pair, one call per class of equal inputs, the
    # second pass also binding the table
    probes = balanced_vertices(params, [range(3)] * (params.d - 1) + [range(5)])
    balanced_classes = screen_balanced(tally, verts, probes)
    screen_profiles(tally, table, verts)

    return {
        "ball_radius": 3,
        "vertices": n,
        "balanced_probes": len(probes),
        "balanced_classes": balanced_classes,
        "distinct_profiles": len(table.dist),
        # pairs the certified column let through to the full-width row
        # check, 0 on a correct table
        "full_width_pairs": full_width_pairs,
        "ball_layers_grown": grown,
    }


# ── horofunctions ───────────────────────────────────────────────────────────

def _check_beta_closed_form(params: DLParams, seed: int, tally: Tally, ball: Ball) -> dict:
    beta = beta_family(params)
    probes, grown = _sorted_ball(ball, 5)
    limits, classes = _limit_sweep(beta, probes)
    for z, (got, _) in zip(probes, limits):
        want = beta_value(z)
        tally.check(got == want, lambda: f"{z}: limit {got}, closed form {want}")
    # the identity, then the four unit slides that end either probe set
    spot = [(identity(params), 0)] + [(f, -1) for f in symmetric_probe_set(params)[2:]]
    for z, want in spot:
        got = beta_value(z)
        tally.check(got == want, lambda: f"{z}: closed form {got}, want {want}")
    return {
        "ball_radius": 5,
        "probes": len(probes),
        "max_from_n": max(from_n for _, from_n in limits),
        # one identity side per distinct from_n, shared by its probes
        "identity_sides": len({from_n for _, from_n in limits}),
        # one pair of profile_distance calls per distinct (from_n, Z[n]
        # profile), shared by its probes
        "limit_classes": classes,
        "ball_layers_grown": grown,
    }


def _check_growth_table(params: DLParams, seed: int, tally: Tally, ball: Ball) -> dict:
    # betandist_table(z) reads z only through its shape, (m_t, l_t) per
    # tree: trees 1 and 2 meet beta_n's trivial coordinates at (m, l) and
    # tree 3 meets (n, 1^n) at (n, n + h3).  So every row is affine in
    # (m1, l1, m2, l2), with h3 = m1 - l1 + m2 - l2, plus a slope in n
    # fixed by the ordering, and each total is its ordering's slope-2 row.
    # The 50 seeded shapes have (m_t, l_t) in [0, 4]**2, heights summing
    # to 0, and tree t realised as (m_t, 1^l_t).  Once their points
    # (m1, l1, m2, l2, 1) have rank 5, they prove the six intercepts at
    # every vertex of every DL_3(q).  The distance is the least total, and
    # beta_value(z) expands term by term into the least intercept, so they
    # prove beta_value the beta horofunction there too; beta-closed-form's
    # radius-5 sweep stays the independent oracle.
    rng = random.Random(seed + 3)
    points = []
    while len(points) < 50:
        shape = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)]
        if sum(l - m for m, l in shape) != 0:
            continue
        (m1, l1), (m2, l2), _ = shape
        points.append((m1, l1, m2, l2, 1))
        h3 = m1 - l1 + m2 - l2
        expected = {
            (1, 2, 3): 2 * m1 + m2 + h3,
            (2, 1, 3): m1 + 2 * m2 + h3,
            (3, 2, 1): m1 + l1 + m2,
            (1, 3, 2): m1 + l2 + h3,
            (2, 3, 1): l1 + m2 + h3,
            (3, 1, 2): m1 + m2 + l2,
        }
        z = DLVertex(tuple(TreeVertex(m, (1,) * l) for m, l in shape), params.q)
        table = betandist_table(z)
        for sigma, row in table.rows.items():
            for i, fit in row.sub.items():
                tally.check(
                    fit.slope in (1, 2), lambda: f"{z} {sigma} i={i}: slope {fit.slope}"
                )
            tally.check(
                row.total.slope == 2 and row.total.intercept == expected[sigma],
                lambda: f"{z} {sigma}: total {row.total}, want slope 2 "
                f"intercept {expected[sigma]}",
            )
    rank = int(np.linalg.matrix_rank(np.array(points)))
    if rank < 5:
        tally.fail(
            lambda: f"shape rank {rank}, want 5: the shapes leave an intercept unproved"
        )
    return {"samples": 50, "shape_rank": rank}


# ── stars ───────────────────────────────────────────────────────────────────

def _shift_classes(cross: PairTable, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The classes of equal shift rows of cross, in the order of their
    first rows: each class's first row and its number of rows.

    Row a's shifts are its distances in columns 1.. less its distance in
    column 0, the identity's.  By the triangle inequality shift f lies
    within bound[f] = distance(id, probe f), so the mixed-radix key, the
    sum of (shift_f + bound[f]) * place_f in radix 2 * bound[f] + 1,
    numbers the rows exactly.  A row with a shift outside its bound gets
    a negative key of its own, so it is a class alone and aliases no
    other.  The keys are built a block of rows at a time (_pair_blocks).
    """
    radix = (2 * bound + 1).tolist()
    if math.prod(radix) > np.iinfo(np.int64).max:
        raise ValueError("probe shift keys would overflow int64")
    place = np.array([math.prod(radix[:f]) for f in range(len(radix))], dtype=np.int64)
    keys = np.empty(len(cross.inv), dtype=np.int64)
    for block in _pair_blocks(*cross.inv.shape):
        dist = cross.dist[cross.inv[block]]
        shift = dist[:, 1:] - dist[:, :1]
        key = (shift + bound) @ place
        outside = np.flatnonzero((np.abs(shift) > bound).any(axis=1))
        key[outside] = -1 - block.start - outside
        keys[block] = key
    _, first, count = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], count[order]


def screen_probes(
    tally: Tally,
    verts: Sequence[DLVertex],
    symmetric: tuple[DLVertex, ...],
    printed: tuple[DLVertex, ...],
) -> tuple[int, int, int]:
    """probe_disagreement of every z in verts with both sets, one call per
    class of vertices with equal shifts.

    The probes are those of either set, each once.  In pair_table(verts,
    (id,) + probes), row z's shifts are its distances to the probes less
    its distance to id, read from the first column.  probe_disagreement(z,
    probes) reads z only through those shifts, so the first z of each
    class of equal shift rows (_shift_classes) stands for the class:
    every shift its two reports measured must match the table row, and
    their verdicts count for every z of the class.  Every z the
    symmetric set does not exclude, and every z with a shift outside its
    triangle bound, is a failure, one case per z.  Returns the number of
    z the printed set does not exclude, the number of distinct profiles
    in the table and the number of classes.
    """
    probes = tuple(dict.fromkeys(symmetric + printed))
    base = identity(verts[0].params)
    bound = np.array([distance(base, f) for f in probes], dtype=np.int64)
    cross = pair_table(verts, (base,) + probes)
    first, count = _shift_classes(cross, bound)
    dist = cross.dist[cross.inv[first]]
    rows = dist[:, 1:] - dist[:, :1]
    outside = (np.abs(rows) > bound).any(axis=1)
    profiles = len(cross.dist)
    del cross, dist  # the representatives' calls below need neither

    reps = [(verts[a], dict(zip(probes, row))) for a, row in zip(first.tolist(), rows.tolist())]
    reports = [[probe_disagreement(z, s) for s in (symmetric, printed)] for z, _ in reps]
    mismatch = [
        any(got != shift[f] for r in rs for f, got, _ in r.rows)
        for (_, shift), rs in zip(reps, reports)
    ]
    missed = np.array([[r.witness is None for r in rs] for rs in reports])

    def message(i):
        if mismatch[i]:
            return f"shift table disagrees with probe_disagreement at {reps[i][0]}"
        if outside[i]:
            return f"{reps[i][0]} has a shift outside its triangle bound"
        return f"{reps[i][0]} agrees with every symmetric probe"

    tally.screen(np.array(mismatch) | outside | missed[:, 0], message, count)
    return int(count[missed[:, 1]].sum()), profiles, len(first)


def _check_probe_exclusion(params: DLParams, seed: int, tally: Tally, ball: Ball) -> dict:
    symmetric = symmetric_probe_set(params)
    printed = printed_probe_set(params)
    layers, grown = _read_ball(ball, 6)
    nontrivial = [z for layer in layers for z in layer if z.coords[:2] != (ORIGIN, ORIGIN)]
    misses, profiles, classes = screen_probes(tally, nontrivial, symmetric, printed)
    tally.check(
        not probe_disagreement(beta_family(params).at(5), symmetric).disagrees,
        lambda: "beta_5 unexpectedly disagrees with a symmetric probe",
    )
    return {
        "ball_radius": 6,
        "nontrivial_vertices": len(nontrivial),
        "printed_set_misses": misses,
        "distinct_profiles": profiles,
        "probe_classes": classes,
        "ball_layers_grown": grown,
    }


def _check_asymmetry_certificates(
    params: DLParams, seed: int, tally: Tally, ball: Ball
) -> dict:
    alpha = alpha_family(params)
    witness = star_witness(beta_family(params), alpha, 30)
    for n, margin in enumerate(witness.margins, 1):
        tally.check(margin == 0, lambda: f"inclusion margin {margin} at n={n}, want 0")
    min_slacks = []
    for k in range(1, 6):
        report = separation_evidence(alpha, k, n_max=10, depth=3)
        min_slacks.append(report.details["min_slack"])
        tally.cases += report.cases
        if report.failures:
            tally.fail(lambda: f"{report.name}: {report.first_failure}", report.failures)
    if min(min_slacks) != 0:
        tally.fail(lambda: f"minimum separation slack {min(min_slacks)}, want exactly 0")
    return {"witness_n_max": 30, "separation_k": "1..5", "min_slacks": min_slacks}


SUITES: dict[str, tuple[Check, ...]] = {
    "conformance": (
        _check_word_metric_conformance, _check_beta_ray_identities, _check_metric_axioms
    ),
    "lemmas": (_check_comparison_lemmas,),
    "horofn": (_check_beta_closed_form, _check_growth_table),
    "stars": (_check_probe_exclusion, _check_asymmetry_certificates),
}


_D3 = range(3, 4)
# the checks of SUITES that run only on some graphs, each with the range
# of d it runs on and what rules out the others; the other checks run on
# every DL_d(q)
DOMAINS: dict[Check, tuple[range, str]] = {
    _check_beta_ray_identities: (range(3, MAX_DIMENSION + 1), "beta moves tree 3"),
    _check_beta_closed_form: (_D3, "beta_value is the closed form of DL_3(q)"),
    _check_growth_table: (_D3, "the table pins the six tree orderings of DL_3(q)"),
    _check_probe_exclusion: (_D3, "the probe sets are defined on DL_3(q)"),
    _check_asymmetry_certificates: (_D3, "the beta neighborhood is defined on DL_3(q)"),
}


def _report_name(check: Check) -> str:
    """The name check reports under: _check_probe_exclusion reports as
    probe-exclusion."""
    return check.__name__.removeprefix("_check_").replace("_", "-")


def run_check(
    check: Check, params: DLParams, seed: int, ball: Ball | None = None
) -> VerificationReport:
    """The report of check(params, seed, tally, ball) on a new Tally,
    named by _report_name and with its wall time, or a skipped report
    when params lie outside the check's DOMAINS entry.  ball is the
    run's Ball of params; without one the check gets a Ball of its own.

    A check that raises MemoryCapExceeded or TableMismatch fails: the
    error is one more failure on its tally, the first failure unless a
    case already failed, and the report keeps the cases counted before
    it.  A cap error puts the size asked for in the details as
    refused_size.
    """
    if check in DOMAINS and params.d not in DOMAINS[check][0]:
        dims, why = DOMAINS[check]
        runs_on = f"d = {dims.start}" if len(dims) == 1 else f"d >= {dims.start}"
        skipped = f"runs on {runs_on} only: {why}"
        return VerificationReport(_report_name(check), 0, 0, skipped=skipped)
    if ball is None:
        with Ball(params) as ball:
            return run_check(check, params, seed, ball)
    t0 = time.perf_counter()
    tally = Tally()
    try:
        details = check(params, seed, tally, ball)
    except (MemoryCapExceeded, TableMismatch) as e:
        tally.fail(lambda: str(e))
        details = {"refused_size": e.size} if isinstance(e, MemoryCapExceeded) else {}
    report = tally.report(_report_name(check), details)
    return replace(report, elapsed=time.perf_counter() - t0)


def run_suites(
    names: Iterable[str],
    params: DLParams | None = None,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> list[VerificationReport]:
    """The reports of every check of the named suites, in SUITES order
    within each suite and in the order the names are given.

    "all" among names runs every suite of SUITES.  params defaults to
    DLParams(), DL_3(2); seed, an int, seeds every sampled check (the
    same seed gives the same samples).  The checks share one Ball, opened
    for this call and closed when it returns, so no ball outlives the
    run.  Checks outside their DOMAINS entry come back as skipped
    reports, and checks stopped by a cap or a table mismatch as failed
    ones (run_check).  Raises ValueError on an unknown suite name, a
    seed that is not an int, or workers other than 1: suites run in one
    process, and workers stays only because the benchmark harness passes
    workers=1, until a change to the harness drops it.
    """
    if workers != 1:
        raise ValueError(f"suites run in one process; workers must be 1, got {workers!r}")
    _require_int(seed, "seed")
    params = params or DLParams()
    chosen = list(names)
    if "all" in chosen:
        chosen = list(SUITES)
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    with Ball(params) as ball:
        return [
            run_check(check, params, seed, ball) for name in chosen for check in SUITES[name]
        ]
