"""Suite plumbing, and the profile table and screens of the lemma suite."""

from dataclasses import replace

import numpy as np
import pytest

from dlstar import (
    DLParams,
    PairProfile,
    VerificationReport,
    all_permutations,
    ball_distances,
    distance,
    f_value,
    pair_profile,
    run_suites,
    vertex_sort_key,
)
from dlstar.stars import Tally
from dlstar.verify import SUITES, pair_table, screen_dominance
import dlstar.verify as verify_mod


def test_suite_names():
    assert sorted(SUITES) == ["conformance", "horofn", "lemmas", "stars"]
    with pytest.raises(ValueError):
        run_suites(["nope"])


def test_all_expands_to_every_suite(params, monkeypatch):
    ran = []

    def stub(name):
        def check(p, seed):
            ran.append((name, seed))
            return VerificationReport(name, 1, 0)
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


def test_run_suites_rejects_workers(params):
    # the benchmark harness still passes workers=1; nothing else is accepted
    assert run_suites([], params, workers=1) == []
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers"):
            run_suites(["horofn"], params, workers=workers)


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
    row_keys = [(s, i) for s in all_permutations(3) for i in (2, 3)]
    for p, row in enumerate(table.f.tolist()):
        profile = PairProfile(tuple(m[p]), tuple(l[p]))
        assert row == [f_value(profile, s, i) for s, i in row_keys]


def _per_triple_screens(table):
    """(cases, failures) of both screens on every triple, one array
    element per triple, from the table expanded to one row per pair."""
    f, dist, m, l = (column[table.inv] for column in (table.f, table.dist, table.m, table.l))
    cases = failures = 0
    for a in range(len(table.inv)):
        kmax = (f[a][None, :, :] - f[a][:, None, :]).min(axis=2)
        gap = dist[a][None, :] - dist[a][:, None]
        coff = np.minimum(
            m[a][None, :, :] - m[a][:, None, :], l[a][None, :, :] - l[a][:, None, :]
        )
        row_bad = (kmax >= 0) & (gap < kmax)
        coord_bad = (coff >= 0).all(axis=2) & (gap < coff.sum(axis=2))
        cases += row_bad.size + coord_bad.size
        failures += int(row_bad.sum()) + int(coord_bad.sum())
    return cases, failures


@pytest.mark.parametrize("d,q,radius", [(3, 2, 2), (2, 2, 3)])
def test_weighted_screens_match_per_triple_screens(d, q, radius):
    verts = sorted(ball_distances(DLParams(d, q), radius), key=vertex_sort_key)
    table = pair_table(verts)
    lowered = table.dist.copy()
    lowered[::5] -= 1
    mutant = replace(table, dist=lowered)
    for tab, broken in ((table, False), (mutant, True)):
        tally = Tally()
        screen_dominance(tally, tab, verts)
        assert (tally.cases, tally.failures) == _per_triple_screens(tab)
        assert tally.cases == 2 * len(verts) ** 3
        assert (tally.failures > 0) == broken
        assert (tally.first_failure is not None) == broken
