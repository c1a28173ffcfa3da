"""Suite plumbing, and the profile table and screens of the lemma suite."""

import math
import random
import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from dlstar import (
    DLParams,
    MemoryCapExceeded,
    PairProfile,
    ProbeReport,
    TableMismatch,
    all_permutations,
    ball_distances,
    distance,
    f_value,
    identity,
    lower_bounds,
    balanced_compare,
    pair_profile,
    printed_probe_set,
    probe_disagreement,
    run_suites,
    symmetric_probe_set,
    vertex_sort_key,
)
from dlstar.dlgraph import Ball, balanced_vertices
from dlstar.stars import Tally
from dlstar.treecoord import ORIGIN, pair_stats
from dlstar.verify import (
    DEFAULT_SEED,
    PROFILE_PAIR_CAP,
    SUITES,
    _check_asymmetry_certificates,
    _check_beta_ray_identities,
    _check_comparison_lemmas,
    _check_growth_table,
    _check_metric_axioms,
    _check_probe_exclusion,
    _check_word_metric_conformance,
    _shift_classes,
    pair_table,
    run_check,
    screen_balanced,
    screen_dominance,
    screen_profiles,
    screen_probes,
)
import dlstar.verify as verify_mod


def test_suite_names():
    assert sorted(SUITES) == ["conformance", "horofn", "lemmas", "stars"]
    with pytest.raises(ValueError):
        run_suites(["nope"])


def test_all_expands_to_every_suite(params, monkeypatch):
    ran = []

    def stub(name):
        def check(p, seed, tally, ball):
            ran.append((name, seed))
            return {}
        check.__name__ = f"_check_{name}"  # reports as the suite's name
        return (check,)

    monkeypatch.setattr(
        verify_mod, "SUITES", {k: stub(k) for k in SUITES}
    )
    out = run_suites(["all"], params, seed=3)
    assert [r.name for r in out] == list(SUITES)
    assert all(r.elapsed is not None for r in out)
    assert ran == [(k, 3) for k in SUITES]


def test_single_suite_runs(params):
    reports = run_suites(["horofn"], params)
    assert [r.name for r in reports] == ["beta-closed-form", "growth-table"]
    assert all(r.passed for r in reports)
    assert all(r.elapsed is not None for r in reports)


def test_checks_run_only_on_their_domain(monkeypatch):
    # a check outside its domain is skipped without being called; inside
    # it, its exceptions surface and are not turned into skips
    calls = []

    def broken(p, seed, tally, ball):
        calls.append(p)
        raise ValueError("broken check")

    monkeypatch.setattr(verify_mod, "SUITES", {"horofn": (broken,)})
    monkeypatch.setattr(verify_mod, "DOMAINS", {broken: (range(3, 4), "why")})
    for p in (DLParams(4, 2), DLParams(2, 3)):
        (report,) = run_suites(["horofn"], p)
        assert report.name == "broken" and report.passed and report.cases == 0
        assert report.skipped == "runs on d = 3 only: why"
        assert report.line() == "SKIP broken: runs on d = 3 only: why"
    assert calls == []
    with pytest.raises(ValueError, match="broken check"):
        run_suites(["horofn"], DLParams(3, 2))
    assert calls == [DLParams(3, 2)]


def test_run_suites_rejects_workers(params):
    # the benchmark harness still passes workers=1; nothing else is accepted
    assert run_suites([], params, workers=1) == []
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers"):
            run_suites(["horofn"], params, workers=workers)


def test_run_suites_rejects_a_non_int_seed(monkeypatch):
    # checked before any check runs, so no check sees the seed
    def never(p, seed, tally, ball):
        pytest.fail(f"a check ran with seed {seed!r}")

    monkeypatch.setattr(verify_mod, "SUITES", {"conformance": (never,)})
    for seed in (1.5, True):
        with pytest.raises(ValueError, match=f"^seed must be an int, got {seed!r}$"):
            run_suites(["conformance"], DLParams(2, 2), seed=seed)


# the layers each check that reads the ball grows: in run_suites(["all"])
# at DL_3(2), where they share the run's ball, and each on a ball of its own
GROWN_IN_ALL = {
    "word-metric-conformance": 5,
    "metric-axioms": 0,
    "comparison-lemmas": 0,
    "beta-closed-form": 0,
    "probe-exclusion": 1,
}
GROWN_ALONE = {
    "word-metric-conformance": 5,
    "metric-axioms": 4,
    "comparison-lemmas": 3,
    "beta-closed-form": 5,
    "probe-exclusion": 6,
}


def _grown(reports):
    return {
        r.name: r.details["ball_layers_grown"]
        for r in reports
        if "ball_layers_grown" in r.details
    }


def _without_grown(report):
    """What a report says, apart from its elapsed and ball_layers_grown."""
    details = {k: v for k, v in report.details.items() if k != "ball_layers_grown"}
    return (
        report.name, report.cases, report.failures, report.first_failure, details,
        report.skipped,
    )


def test_one_ball_per_run(params, monkeypatch):
    built = []

    class Counted(Ball):
        def __init__(self, params):
            built.append(params)
            super().__init__(params)

    monkeypatch.setattr(verify_mod, "Ball", Counted)
    shared = run_suites(["all"], params)
    assert built == [params]
    assert _grown(shared) == GROWN_IN_ALL
    # the next run builds a ball of its own: no ball outlives its run
    boundary = run_suites(["horofn", "stars"], params)
    assert built == [params] * 2
    assert _grown(boundary) == {"beta-closed-form": 5, "probe-exclusion": 1}
    # each check alone, on a ball of its own, reports what it reports on
    # the shared one
    checks = [check for suite in SUITES.values() for check in suite]
    alone = [run_check(check, params, DEFAULT_SEED) for check in checks]
    assert len(built) == 2 + len(checks)
    assert list(map(_without_grown, shared)) == list(map(_without_grown, alone))
    assert _grown(alone) == GROWN_ALONE


def test_one_ball_per_run_at_d4():
    params = DLParams(4, 2)
    conformance, ray, axioms = run_suites(["conformance"], params)
    for report, check in (
        (conformance, _check_word_metric_conformance),
        (ray, _check_beta_ray_identities),
    ):
        assert _without_grown(report) == _without_grown(run_check(check, params, DEFAULT_SEED))
    # metric-axioms alone, about 9 s here, gives these figures: 1,000
    # triples, and 1,539 self and 1,539 * 1,538 / 2 pair cases on the
    # radius-3 ball
    assert _without_grown(axioms) == (
        "metric-axioms", 1_186_030, 0, None, {"triples": 1000, "identity_ball_radius": 3}, None
    )
    assert _grown([conformance, axioms]) == {"word-metric-conformance": 5, "metric-axioms": 0}


def test_pair_table_matches_pair_profile(ball3):
    verts = sorted(ball3, key=vertex_sort_key)
    table = pair_table(verts)
    m, l, dist = table.m.tolist(), table.l.tolist(), table.dist.tolist()
    assert len(dist) == len(set(zip(map(tuple, m), map(tuple, l)))) == 704
    for a, x in enumerate(verts):
        for b, y in enumerate(verts):
            p = table.inv[a, b]
            assert PairProfile(tuple(m[p]), tuple(l[p])) == pair_profile(x, y)
            assert dist[p] == distance(x, y)
    assert table.f.shape == (704, 6, 2)
    for p, rows in enumerate(table.f.tolist()):
        profile = PairProfile(tuple(m[p]), tuple(l[p]))
        assert rows == [[f_value(profile, s, i) for i in (2, 3)] for s in all_permutations(3)]


def test_pair_table_f_layout_at_d4():
    # f[u, s, i - 2] = f(s, i) for the ordering all_permutations(4)[s],
    # on a seeded sample of the DL_4(2) radius-3 table's profiles
    verts = sorted(ball_distances(DLParams(4, 2), 3), key=vertex_sort_key)
    table = pair_table(verts)
    perms = all_permutations(4)
    assert table.f.shape == (len(table.dist), 24, 3)
    for u in random.Random(4).sample(range(len(table.dist)), 200):
        profile = PairProfile(tuple(table.m[u].tolist()), tuple(table.l[u].tolist()))
        for s, sigma in enumerate(perms):
            for i in (2, 3, 4):
                assert table.f[u, s, i - 2] == f_value(profile, sigma, i)


def test_pair_table_cross_matches_pair_profile(ball3, params):
    verts = sorted(ball3, key=vertex_sort_key)
    probes = balanced_vertices(params, [range(3), range(3), range(5)])
    table = pair_table(verts, probes)
    assert table.inv.shape == (319, 256) and table.inv.dtype == np.int32
    m, l, dist = table.m.tolist(), table.l.tolist(), table.dist.tolist()
    assert len(dist) == len(set(zip(map(tuple, m), map(tuple, l))))
    for x, row in zip(verts, table.inv.tolist()):
        for z, p in zip(probes, row):
            assert PairProfile(tuple(m[p]), tuple(l[p])) == pair_profile(x, z)
            assert dist[p] == distance(x, z)


def test_pair_table_narrow_cross_spans_blocks(ball4, params, monkeypatch):
    # many rows and few columns: the key is built and ranked a block of
    # rows at a time, and with blocks of 2**12 pairs the last is a
    # partial one
    monkeypatch.setattr(verify_mod, "_BLOCK_PAIRS", 2**12)
    verts = sorted(ball4, key=vertex_sort_key)
    sets = symmetric_probe_set(params) + printed_probe_set(params)
    probes = (identity(params),) + tuple(dict.fromkeys(sets))
    blocks = verify_mod._pair_blocks(len(verts), len(probes))
    sizes = [b.stop - b.start for b in blocks]
    assert [b.start for b in blocks] == list(range(0, len(verts), sizes[0]))
    assert sum(sizes) == len(verts) and len(sizes) > 2 and 0 < sizes[-1] < sizes[0]
    # a row wider than a block is a block of its own
    wide = verify_mod._pair_blocks(3, 2**12 + 1)
    assert wide == [slice(0, 1), slice(1, 2), slice(2, 3)]
    table = pair_table(verts, probes)
    assert table.inv.shape == (1129, 8) and table.inv.dtype == np.int32
    m, l, dist = table.m.tolist(), table.l.tolist(), table.dist.tolist()
    assert len(dist) == len(set(zip(map(tuple, m), map(tuple, l))))
    for x, row in zip(verts, table.inv.tolist()):
        for z, p in zip(probes, row):
            assert PairProfile(tuple(m[p]), tuple(l[p])) == pair_profile(x, z)
            assert dist[p] == distance(x, z)


def test_pair_table_rejects_key_overflow():
    # 8 trees of radius-2 coordinates: more (m, l) combinations than the
    # cap admits, refused before the key range is allocated
    verts = sorted(ball_distances(DLParams(8, 2), 2), key=vertex_sort_key)
    assert len(verts) ** 2 <= PROFILE_PAIR_CAP
    dims = [
        len({pair_stats(a, b) for a in coords for b in coords})
        for coords in ({v.coords[t] for v in verts} for t in range(8))
    ]
    with pytest.raises(MemoryCapExceeded, match="pair key range too large") as e:
        pair_table(verts)
    assert e.value.size == math.prod(dims) > PROFILE_PAIR_CAP


def test_pair_table_cap_precedes_pair_stats(ball3, params, monkeypatch):
    # the rows x cols key is checked against the cap before any tree's
    # pair_stats runs
    rows = sorted(ball3, key=vertex_sort_key)[:40]
    cols = symmetric_probe_set(params)
    entries = len(rows) * len(cols)

    def unreachable(a, b):
        raise AssertionError("pair_stats ran")

    monkeypatch.setattr(verify_mod, "pair_stats", unreachable)
    monkeypatch.setattr(verify_mod, "PROFILE_PAIR_CAP", entries)
    with pytest.raises(AssertionError, match="pair_stats ran"):
        pair_table(rows, cols)
    monkeypatch.setattr(verify_mod, "PROFILE_PAIR_CAP", entries - 1)
    with pytest.raises(MemoryCapExceeded, match="pair key too large") as e:
        pair_table(rows, cols)
    assert e.value.size == entries


def _per_pair_screens(table):
    """(cases, failures) of both screens on every ordered pair of the
    table's profiles, one array element per pair (y, z) at [y, z]."""
    kmax = (table.f[None] - table.f[:, None]).min(axis=(2, 3))
    gap = table.dist[None] - table.dist[:, None]
    coff = np.minimum(table.m[None] - table.m[:, None], table.l[None] - table.l[:, None])
    row_bad = (kmax >= 0) & (gap < kmax)
    coord_bad = (coff >= 0).all(axis=2) & (gap < coff.sum(axis=2))
    return row_bad.size + coord_bad.size, int(row_bad.sum()) + int(coord_bad.sum())


def _fails(table, y, z):
    """Whether the profile pair (y, z) fails either screen, by the rule of
    _per_pair_screens."""
    kmax = (table.f[z] - table.f[y]).min()
    gap = table.dist[z] - table.dist[y]
    coff = np.minimum(table.m[z] - table.m[y], table.l[z] - table.l[y])
    return bool((kmax >= 0 and gap < kmax) or ((coff >= 0).all() and gap < coff.sum()))


@pytest.mark.parametrize("d,q,radius", [(3, 2, 2), (2, 2, 3)])
def test_dominance_screen_matches_per_pair_screens(d, q, radius):
    verts = sorted(ball_distances(DLParams(d, q), radius), key=vertex_sort_key)
    table = pair_table(verts)
    lowered = table.dist.copy()
    lowered[::5] -= 1
    mutant = replace(table, dist=lowered)
    # f rows lowered on some profiles: as y, each lets pairs past its
    # certified column to the full-width minimum
    lowered = table.f.copy()
    lowered[::3] -= 1
    low_f = replace(table, f=lowered)
    # m and l lowered in one tree: as y, each passes more tree filters
    m, l = table.m.copy(), table.l.copy()
    m[::4, 0] -= 1
    l[::4, 0] -= 1
    low_ml = replace(table, m=m, l=l)
    # (table, the screen its first failure names, whether pairs take the
    # full-width row check); a correct table needs none
    for tab, failing, widened in (
        (table, None, False),
        (mutant, "", True),
        (low_f, "row", True),
        (low_ml, "coordinate", False),
    ):
        tally = Tally()
        full_width = screen_dominance(tally, tab)
        assert (tally.cases, tally.failures) == _per_pair_screens(tab)
        assert tally.cases == 2 * len(tab.dist) ** 2
        assert (full_width > 0) == widened
        assert (tally.failures > 0) == (failing is not None)
        assert (tally.first_failure is not None) == (failing is not None)
        if failing is not None:
            # the two profiles the first failure names fail by the
            # reference rule; a lowered profile may repeat another's m, l
            assert tally.first_failure.startswith(failing)
            named = re.fullmatch(r".* y=(.*), z=(.*?)(, k=\d+)?", tally.first_failure)
            profiles = [
                repr(PairProfile(tuple(a), tuple(b)))
                for a, b in zip(tab.m.tolist(), tab.l.tolist())
            ]
            ys, zs = ([u for u, p in enumerate(profiles) if p == n] for n in named.groups()[:2])
            assert ys and zs and any(_fails(tab, y, z) for y in ys for z in zs)


def test_classes_match_per_row_unique():
    # np.unique per row is the reference; classes 0 and 9 of range(12)
    # never occur, and class 7 first occurs in the last row
    rng = np.random.default_rng(5)
    rows = rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 11], size=(6, 8))
    rows[-1, 3] = 7
    count, first = verify_mod._classes(iter(rows), 12)
    want_count = np.zeros(12, dtype=np.int64)
    want_first = np.full((12, 2), -1)
    for a, row in enumerate(rows):
        u, j, c = np.unique(row, return_index=True, return_counts=True)
        want_count[u] += c
        new = want_first[u, 0] < 0
        want_first[u[new]] = np.stack([np.full(new.sum(), a), j[new]], axis=1)
    assert np.array_equal(count, want_count)
    assert np.array_equal(first, want_first)
    assert count[[0, 9]].tolist() == [0, 0] and first[[0, 9]].tolist() == [[-1, -1]] * 2
    assert first[7].tolist() == [5, 3]


def test_codes_match_unique_inverse(ball3):
    # np.unique's sorted rows and inverse are the reference, on seeded int
    # tuples with repeats and on the tree coordinates of a ball, each
    # padded with -1 to rows of one width, which keeps tuple order
    rng = random.Random(11)
    keys = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(300)]
    coords = [c for v in ball3 for c in v.coords]
    width = max(c.l for c in coords)
    for values, row in (
        (keys, lambda k: k),
        (coords, lambda c: (c.m, *c.path) + (-1,) * (width - c.l)),
    ):
        distinct, code = verify_mod._codes(values)
        want, inverse = np.unique([row(v) for v in values], axis=0, return_inverse=True)
        assert np.array_equal([row(v) for v in distinct], want)
        assert code.dtype == np.int32 and np.array_equal(code, inverse.reshape(-1))
        assert [distinct[c] for c in code] == values


def test_pair_table_profile_pair_cap(monkeypatch, ball3, params):
    # pair_table checks the U**2 profile pairs against the cap as soon as
    # it knows U, on a square table and on a cross one alike,
    # before profile_distance runs; the cap admits DL_4(2) and refuses
    # DL_5(2)
    assert 6552**2 <= PROFILE_PAIR_CAP < 43681**2
    square = sorted(ball_distances(DLParams(2, 2), 2), key=vertex_sort_key)
    cross = (sorted(ball3, key=vertex_sort_key), symmetric_probe_set(params))

    def unreachable(profile):
        raise AssertionError("profile_distance ran before the cap was checked")

    for args in ((square,), cross):
        table = pair_table(*args)
        profiles = len(table.dist)
        with monkeypatch.context() as patch:
            patch.setattr(verify_mod, "profile_distance", unreachable)
            patch.setattr(verify_mod, "PROFILE_PAIR_CAP", profiles**2 - 1)
            with pytest.raises(MemoryCapExceeded, match="profile pairs too large") as e:
                pair_table(*args)
        assert e.value.size == profiles**2
        with monkeypatch.context() as patch:
            patch.setattr(verify_mod, "PROFILE_PAIR_CAP", profiles**2)
            again = pair_table(*args)
            assert np.array_equal(again.inv, table.inv)
            assert np.array_equal(again.dist, table.dist)

    monkeypatch.setattr(verify_mod, "profile_distance", unreachable)
    monkeypatch.setattr(verify_mod, "PROFILE_PAIR_CAP", 704**2 - 1)
    with pytest.raises(MemoryCapExceeded) as e, Ball(params) as ball:
        _check_comparison_lemmas(params, DEFAULT_SEED, Tally(), ball)
    assert e.value.size == 704**2


def test_a_refused_check_is_a_failed_report(monkeypatch):
    # the lemma table refused by the cap fails its own row, and the
    # suites after it still run
    monkeypatch.setattr(verify_mod, "PROFILE_PAIR_CAP", 704**2 - 1)
    lemmas, *horofn = run_suites(["lemmas", "horofn"], DLParams(3, 2))
    assert (lemmas.name, lemmas.cases, lemmas.failures) == ("comparison-lemmas", 0, 1)
    assert lemmas.first_failure == f"profile pairs too large (at least {704**2})"
    assert lemmas.details == {"refused_size": 704**2}
    assert lemmas.elapsed is not None and lemmas.line().startswith("FAIL comparison-lemmas")
    assert [r.name for r in horofn] == ["beta-closed-form", "growth-table"]
    assert all(r.passed and r.cases > 0 for r in horofn)


def test_a_table_mismatch_is_a_failed_row(wrong_beta_value, monkeypatch):
    # betandist_table refuses the wrong closed form part way through the
    # growth table: the mismatch is that row's first failure, after the
    # cases already counted, and every row of both suites comes back.  The
    # default seed's first shape has m1 = 1, so this seed's draw is used,
    # whose first shapes do not
    params, seed = DLParams(3, 2), DEFAULT_SEED + 2
    real, tables = verify_mod.betandist_table, []

    def counted(z):
        tables.append(z)
        return real(z)

    monkeypatch.setattr(verify_mod, "betandist_table", counted)
    reports = run_suites(["horofn", "stars"], params, seed=seed)
    assert [r.name for r in reports] == [
        "beta-closed-form", "growth-table", "probe-exclusion", "asymmetry-certificates"
    ]
    closed_form, growth = reports[:2]
    assert closed_form.failures > 0
    *passed, refused = tables
    assert refused.coords[0].m == 1 and all(z.coords[0].m != 1 for z in passed)
    with pytest.raises(TableMismatch) as e, Ball(params) as ball:
        _check_growth_table(params, seed, Tally(), ball)
    assert growth.failures == 1 and growth.first_failure == str(e.value)
    # the samples before the first with m1 = 1 (four), 18 cases each
    assert len(passed) > 0 and growth.cases == 18 * len(passed)
    assert growth.details == {}
    assert all(r.elapsed is not None for r in reports)


def test_a_flat_draw_of_shapes_fails(params, monkeypatch):
    # every shape drawn as the identity's: each table is right, but the
    # points (0, 0, 0, 0, 1) have rank 1 and prove no intercept beyond one
    class Zeros:
        def __init__(self, seed):
            pass

        def randint(self, a, b):
            return 0

    monkeypatch.setattr(verify_mod, "random", SimpleNamespace(Random=Zeros))
    report = run_check(_check_growth_table, params, DEFAULT_SEED)
    assert (report.cases, report.failures) == (900, 1)
    assert report.details == {"samples": 50, "shape_rank": 1}
    assert report.first_failure == (
        "shape rank 1, want 5: the shapes leave an intercept unproved"
    )


def _per_pair_sweeps(verts, probes):
    """(cases, failures) of lower_bounds on every pair of verts and of
    balanced_compare on every pair of verts x probes, call by call."""
    lower, balanced = Tally(), Tally()
    for x in verts:
        for y in verts:
            for report in verify_mod.lower_bounds(x, y):
                lower.check(report.verified, lambda: "lower bound")
        for z in probes:
            for report in verify_mod.balanced_compare(x, z):
                balanced.check(not report.falsified, lambda: "balanced")
    return (lower.cases, lower.failures), (balanced.cases, balanced.failures)


def _tree_bound_too_high(x, y):
    # one too high on the profiles whose spine depths sum to a multiple of 3
    tree, index = lower_bounds(x, y)
    if sum(pair_profile(x, y).m) % 3:
        return tree, index
    bound = tree.bound + 1
    return replace(tree, bound=bound, verified=distance(x, y) >= bound), index


def _leq_off_by_one(x, z):
    # BalancedLeq claims distance(x, z) < distance(x, id) when they are equal
    eq, leq, geq = balanced_compare(x, z)
    if distance(x, z) != eq.bound:
        return eq, leq, geq
    return eq, replace(leq, bound=leq.bound - 1, verified=False), geq


FAULTS = {"lower_bounds": _tree_bound_too_high, "balanced_compare": _leq_off_by_one}


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("d,q,radius", [(3, 2, 2), (2, 2, 3)])
def test_class_sweeps_match_per_pair_calls(d, q, radius, fault, monkeypatch):
    params = DLParams(d, q)
    verts = sorted(ball_distances(params, radius), key=vertex_sort_key)
    probes = balanced_vertices(params, [range(3)] * (d - 1) + [range(5)])
    if fault:
        monkeypatch.setattr(verify_mod, fault, FAULTS[fault])
    want_lower, want_balanced = _per_pair_sweeps(verts, probes)
    assert want_lower[0] == 2 * len(verts) ** 2
    assert want_balanced[0] == 3 * len(verts) * len(probes)
    for screen, args, want, broken in (
        (screen_profiles, (pair_table(verts), verts), want_lower, fault == "lower_bounds"),
        (screen_balanced, (verts, probes), want_balanced, fault == "balanced_compare"),
    ):
        tally = Tally()
        screen(tally, *args)
        assert (tally.cases, tally.failures) == want
        assert (tally.failures > 0) == broken
        assert (tally.first_failure is not None) == broken


@pytest.mark.parametrize("d,q,cases", [(3, 2, 57_600), (2, 2, 2_688)])
def test_balanced_screen_needs_no_identity(d, q, cases, monkeypatch):
    # distance to id comes from the screen's own cross table, so a vertex
    # list without the identity is screened like any other
    params = DLParams(d, q)
    verts = sorted(set(ball_distances(params, 2)) - {identity(params)}, key=vertex_sort_key)
    probes = balanced_vertices(params, [range(3)] * (d - 1) + [range(5)])
    want = _per_pair_sweeps(verts, probes)[1]
    calls = []

    def counted(x, z):
        calls.append((x, z))
        return balanced_compare(x, z)

    monkeypatch.setattr(verify_mod, "balanced_compare", counted)
    tally = Tally()
    classes = screen_balanced(tally, verts, probes)
    assert (tally.cases, tally.failures) == want == (cases, 0)
    assert classes == len(calls) < len(verts) * len(probes)


def test_class_sweeps_fail_on_a_wrong_table(monkeypatch):
    # a representative checks its inputs against the table it reads: a
    # wrong row fails its class, and the case count stays that of every pair
    params = DLParams(2, 2)
    verts = sorted(ball_distances(params, 3), key=vertex_sort_key)
    probes = balanced_vertices(params, [range(3), range(5)])
    table = pair_table(verts)
    shifted = table.m.copy()
    shifted[::7, 0] += 1
    real = verify_mod.pair_table

    def raised(rows, cols=None):
        cross = real(rows, cols)
        dist = cross.dist.copy()
        dist[::5] += 1
        return replace(cross, dist=dist)

    def lower_bounds_screen(tally, broken):
        screen_profiles(tally, replace(table, m=shifted) if broken else table, verts)

    def balanced_screen(tally, broken):
        if broken:
            monkeypatch.setattr(verify_mod, "pair_table", raised)
        screen_balanced(tally, verts, probes)

    for screen, claim in (
        (lower_bounds_screen, "profile table"),
        (balanced_screen, "distance table"),
    ):
        clean, broken = Tally(), Tally()
        screen(clean, False)
        screen(broken, True)
        assert clean.failures == 0
        assert broken.cases == clean.cases and broken.failures > 0
        assert broken.first_failure.startswith(claim)


def _square_table_with(monkeypatch, change):
    """Patch pair_table so that every square table passes through change;
    the cross tables of the probe sweeps are left alone."""
    real = verify_mod.pair_table

    def patched(rows, cols=None):
        table = real(rows, cols)
        return table if cols is not None else change(table)

    monkeypatch.setattr(verify_mod, "pair_table", patched)


def test_lemma_check_fails_on_a_short_rare_distance(params, monkeypatch):
    # a sample of pairs rarely meets the rarest profile; one too small a
    # distance there must still fail the check
    def shorter(table):
        dist = table.dist.copy()
        dist[np.bincount(table.inv.ravel()).argmin()] -= 1
        return replace(table, dist=dist)

    clean = run_check(_check_comparison_lemmas, params, DEFAULT_SEED)
    _square_table_with(monkeypatch, shorter)
    broken = run_check(_check_comparison_lemmas, params, DEFAULT_SEED)
    assert clean.failures == 0
    assert broken.cases == clean.cases
    assert broken.failures > 0
    assert broken.first_failure.startswith("profile table disagrees with distance")


@pytest.mark.parametrize("u", [0, 5, 703])
def test_profile_screen_binds_each_row_at_its_column(ball3, u):
    # row u's f_value column is divmod(u % (3! * 2), 2); one wrong entry
    # there fails both reports of every pair of the row
    verts = sorted(ball3, key=vertex_sort_key)
    table = pair_table(verts)
    f = table.f.copy()
    f[(u, *divmod(u % 12, 2))] += 1
    tally = Tally()
    screen_profiles(tally, replace(table, f=f), verts)
    assert tally.cases == 2 * len(verts) ** 2
    assert tally.failures == 2 * int((table.inv == u).sum())
    assert tally.first_failure.startswith("profile table disagrees with f_value")


def test_profile_screen_calls_once_per_profile(ball3, monkeypatch):
    verts = sorted(ball3, key=vertex_sort_key)
    table = pair_table(verts)
    calls = {}

    def counted(name):
        real = getattr(verify_mod, name)

        def call(*args):
            calls.setdefault(name, []).append(args)
            return real(*args)

        monkeypatch.setattr(verify_mod, name, call)

    for name in ("lower_bounds", "pair_profile", "profile_distance", "f_value"):
        counted(name)
    tally = Tally()
    screen_profiles(tally, table, verts)
    assert (tally.cases, tally.failures) == (2 * len(verts) ** 2, 0)
    assert {name: len(args) for name, args in calls.items()} == {
        "lower_bounds": 704, "pair_profile": 704, "profile_distance": 704, "f_value": 704,
    }
    # the bound column cycles: each of the 12 columns on 58 or 59 profiles
    columns = Counter((sigma, i) for _, sigma, i in calls["f_value"])
    assert len(columns) == 12 and min(columns.values()) == 58


@pytest.mark.parametrize("q", [2, 3])
def test_probe_screen_matches_probe_disagreement(q):
    # every vertex of the radius-4 ball, trivial ones included, so that the
    # symmetric set misses some and the screen must count each miss
    params = DLParams(3, q)
    verts = sorted(ball_distances(params, 4), key=vertex_sort_key)
    sets = (symmetric_probe_set(params), printed_probe_set(params))
    want = np.array([[probe_disagreement(z, s).disagrees for s in sets] for z in verts])
    tally = Tally()
    misses, profiles, classes = screen_probes(tally, verts, *sets)
    assert misses == int((~want[:, 1]).sum())
    assert 0 < (~want[:, 0]).sum() < misses
    assert (tally.cases, tally.failures) == (len(verts), int((~want[:, 0]).sum()))
    assert tally.first_failure.endswith("agrees with every symmetric probe")
    probes = (identity(params),) + tuple(dict.fromkeys(sets[0] + sets[1]))
    assert profiles == len(pair_table(verts, probes).dist)
    assert 0 < classes < len(verts)


def test_probe_screen_fails_on_a_wrong_table(params, monkeypatch):
    # a representative checks its shifts and witnesses against
    # probe_disagreement: one profile one too high fails its class, and
    # the case count stays one per vertex
    clean = run_check(_check_probe_exclusion, params, DEFAULT_SEED)
    real = verify_mod.pair_table

    def one_too_high(rows, cols=None):
        table = real(rows, cols)
        raised = table.dist.copy()
        raised[table.inv[0, 0]] += 1  # distance(first row, id)
        return replace(table, dist=raised)

    monkeypatch.setattr(verify_mod, "pair_table", one_too_high)
    broken = run_check(_check_probe_exclusion, params, DEFAULT_SEED)
    assert clean.failures == 0
    assert broken.cases == clean.cases == 10585
    assert broken.failures > 0
    assert broken.first_failure.startswith("shift table disagrees with probe_disagreement")


def test_probe_screen_takes_verdicts_from_probe_disagreement(params, monkeypatch):
    # the screen keeps no copy of the witness rule: it binds the measured
    # shifts, which still match here, and reads the (now wrong) verdicts
    real = verify_mod.probe_disagreement

    def no_witness(z, probes):
        return ProbeReport(None, real(z, probes).rows)

    monkeypatch.setattr(verify_mod, "probe_disagreement", no_witness)
    report = run_check(_check_probe_exclusion, params, DEFAULT_SEED)
    assert (report.cases, report.failures) == (10585, 10584)
    assert report.details["printed_set_misses"] == 10584
    assert report.first_failure.endswith("agrees with every symmetric probe")


def _probe_columns(params):
    """Both probe sets, and the probes of either set, each once, in the
    order screen_probes gives them columns."""
    sets = (symmetric_probe_set(params), printed_probe_set(params))
    return sets, tuple(dict.fromkeys(sets[0] + sets[1]))


def _nontrivial(ball):
    return [z for z in ball if z.coords[:2] != (ORIGIN, ORIGIN)]


def test_shift_classes_match_per_vertex_dict(params, ball4):
    # a dict over each vertex's shift row, in ball order, is the reference
    verts = _nontrivial(ball4)
    sets, probes = _probe_columns(params)
    base = identity(params)
    cross = pair_table(verts, (base,) + probes)
    dist = cross.dist[cross.inv]
    classes = {}
    for a, row in enumerate(map(tuple, (dist[:, 1:] - dist[:, :1]).tolist())):
        classes.setdefault(row, [a, 0])[1] += 1
    bound = np.array([distance(base, f) for f in probes])
    first, count = _shift_classes(cross, bound)
    assert [[a, n] for a, n in zip(first.tolist(), count.tolist())] == list(classes.values())
    assert screen_probes(Tally(), verts, *sets)[2] == len(classes) < len(verts)
    with pytest.raises(ValueError, match="overflow int64"):
        _shift_classes(cross, np.array([2**31] * len(probes)))


def test_probe_screen_fails_a_shift_outside_its_bound(params, ball4, monkeypatch):
    # a late row whose first shift is 2 * bound + 1 too high and whose
    # second is one too low has the mixed-radix key of its true row; it
    # must fail alone, by name, and not pass inside its true class
    verts = _nontrivial(ball4)
    sets, probes = _probe_columns(params)
    bound = [distance(identity(params), f) for f in probes]
    real = verify_mod.pair_table
    clean = Tally()
    clean_classes = screen_probes(clean, verts, *sets)[2]
    cross = real(verts, (identity(params),) + probes)
    shift = (cross.dist[cross.inv[:, 1:]] - cross.dist[cross.inv[:, :1]]).tolist()
    late = next(
        a
        for a in reversed(range(len(shift)))
        if shift[a] in shift[:a] and shift[a][1] > -bound[1]
    )

    def aliased(rows, cols=None):
        table = real(rows, cols)
        u = len(table.dist)
        inv = table.inv.copy()
        first, second = table.dist[inv[late, 1:3]].tolist()
        inv[late, 1:3] = u, u + 1
        dist = np.append(table.dist, [first + 2 * bound[0] + 1, second - 1])
        return replace(table, dist=dist, inv=inv)

    monkeypatch.setattr(verify_mod, "pair_table", aliased)
    broken = Tally()
    classes = screen_probes(broken, verts, *sets)[2]
    assert (clean.cases, clean.failures) == (len(verts), 0)
    assert (broken.cases, broken.failures) == (len(verts), 1)
    assert str(verts[late]) in broken.first_failure
    assert classes == clean_classes + 1


def test_probe_screen_fails_every_row_outside_its_bound(params, ball4, monkeypatch):
    # with the last probe's bound one too small, the rows that reach its
    # true bound fall outside it: each fails alone, though the table and
    # probe_disagreement agree on its shifts
    verts = _nontrivial(ball4)
    sets, probes = _probe_columns(params)
    base = identity(params)
    cross = pair_table(verts, (base,) + probes)
    dist = cross.dist[cross.inv]
    outside = np.abs(dist[:, -1] - dist[:, 0]) > distance(base, probes[-1]) - 1
    real = verify_mod.distance
    monkeypatch.setattr(verify_mod, "distance", lambda x, y: real(x, y) - (y == probes[-1]))
    tally = Tally()
    screen_probes(tally, verts, *sets)
    assert 0 < outside.sum() < len(verts)
    assert (tally.cases, tally.failures) == (len(verts), int(outside.sum()))
    first = verts[int(np.flatnonzero(outside)[0])]
    assert tally.first_failure == f"{first} has a shift outside its triangle bound"


def test_probe_screen_names_the_first_vertex_of_the_first_failing_class(params, ball4):
    # every vertex of the radius-4 ball in ball order, trivial ones
    # included, so that some classes agree with every symmetric probe
    verts = list(ball4)
    sets, _ = _probe_columns(params)
    first_miss = next(z for z in verts if not probe_disagreement(z, sets[0]).disagrees)
    tally = Tally()
    screen_probes(tally, verts, *sets)
    assert tally.failures > 0
    assert tally.first_failure == f"{first_miss} agrees with every symmetric probe"


def test_asymmetry_counts_every_failing_case(params, monkeypatch):
    # each failing case counts once: two nonzero inclusion margins and a
    # separation report with three failures are five failures
    clean = run_check(_check_asymmetry_certificates, params, DEFAULT_SEED)
    star, separation = verify_mod.star_witness, verify_mod.separation_evidence

    def two_margins_off(a, b, n_max):
        report = star(a, b, n_max)
        return replace(report, margins=(1, -1) + report.margins[2:])

    def three_failures(a, k, n_max, depth):
        report = separation(a, k, n_max, depth)
        return replace(report, failures=3, first_failure="n=1") if k == 2 else report

    monkeypatch.setattr(verify_mod, "star_witness", two_margins_off)
    monkeypatch.setattr(verify_mod, "separation_evidence", three_failures)
    broken = run_check(_check_asymmetry_certificates, params, DEFAULT_SEED)
    assert clean.failures == 0
    assert broken.cases == clean.cases == 4680
    assert broken.failures == 5
    assert broken.first_failure == "inclusion margin 1 at n=1, want 0"


def test_metric_axioms_report_a_broken_triangle(params, monkeypatch):
    # the squared distance is symmetric and zero only on the diagonal, but
    # not a metric: the first triple it breaks is the first failure
    real = verify_mod.distance
    monkeypatch.setattr(verify_mod, "distance", lambda x, y: real(x, y) ** 2)
    report = run_check(_check_metric_axioms, params, DEFAULT_SEED)
    pool = sorted(ball_distances(params, 4), key=vertex_sort_key)
    rng = random.Random(DEFAULT_SEED + 1)
    broken = []
    for _ in range(1000):
        x, y, z = (rng.choice(pool) for _ in range(3))
        dxy, dyz, dxz = real(x, y) ** 2, real(y, z) ** 2, real(x, z) ** 2
        if dxz > dxy + dyz or dxy > dxz + dyz or dyz > dxy + dxz:
            broken.append((x, y, z))
    assert 0 < report.failures == len(broken)
    x, y, z = broken[0]
    assert report.first_failure == f"triangle broken on {x}, {y}, {z}"


def test_growth_table_reports_a_wrong_intercept(params, monkeypatch):
    # one ordering's total one too high on every sample: each sample fails
    # once, and the first names the first sample's total and its pin
    real = verify_mod.betandist_table
    samples = []

    def one_too_high(z):
        table = real(z)
        row = table.rows[1, 2, 3]
        samples.append((z, row.total))
        total = row.total._replace(intercept=row.total.intercept + 1)
        return replace(table, rows={**table.rows, (1, 2, 3): row._replace(total=total)})

    clean = run_check(_check_growth_table, params, DEFAULT_SEED)
    samples.clear()
    monkeypatch.setattr(verify_mod, "betandist_table", one_too_high)
    report = run_check(_check_growth_table, params, DEFAULT_SEED)
    assert report.cases == clean.cases and clean.failures == 0
    assert report.failures == len(samples) == 50
    z, total = samples[0]
    assert report.first_failure == (
        f"{z} (1, 2, 3): total {total._replace(intercept=total.intercept + 1)}, "
        f"want slope 2 intercept {total.intercept}"
    )


def test_asymmetry_requires_a_zero_minimum_slack(params, monkeypatch):
    # every separation report passes, but with each minimum slack one
    # higher the slack 0 the certificate needs is never reached
    real = verify_mod.separation_evidence

    def raised(a, k, n_max, depth):
        report = real(a, k, n_max, depth)
        details = {**report.details, "min_slack": report.details["min_slack"] + 1}
        return replace(report, details=details)

    monkeypatch.setattr(verify_mod, "separation_evidence", raised)
    report = run_check(_check_asymmetry_certificates, params, DEFAULT_SEED)
    assert not report.passed and report.failures == 1
    assert report.details["min_slacks"] == [1, 1, 1, 1, 1]
    assert report.first_failure == "minimum separation slack 1, want exactly 0"
