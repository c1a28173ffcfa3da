"""Word metric: formula vs breadth-first search, axioms, bounds, lemmas."""

import itertools
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlstar import (
    AffineInN,
    DLParams,
    DimensionMismatch,
    MemoryCapExceeded,
    NotBalanced,
    PairProfile,
    VERIFIED_CONFIGS,
    all_permutations,
    balanced_compare,
    alpha_family,
    ball_distances,
    beta_family,
    bfs_distance,
    check_coord_dominance,
    check_f_dominance,
    distance,
    f_row_max,
    f_rows,
    f_value,
    identity,
    lower_bounds,
    make_vertex,
    neighbors,
    pair_profile,
    profile_distance,
    zeta_point,
)
import dlstar.dlgraph as dlgraph_mod
import dlstar.metric as metric_mod
from dlstar.dlgraph import _bfs_search, balanced_vertices
from dlstar.metric import _end_pair_distance, _perms0


def bfs_oracle(x, y, limit=40):
    """Plain queue-based search, written separately from the library's."""
    if x == y:
        return 0
    seen = {x}
    queue = deque([(x, 0)])
    while queue:
        v, r = queue.popleft()
        if r >= limit:
            break
        for w in neighbors(v):
            if w == y:
                return r + 1
            if w not in seen:
                seen.add(w)
                queue.append((w, r + 1))
    raise AssertionError(f"no path within {limit} steps")


def test_formula_matches_ball_distances(params, ball3):
    o = identity(params)
    for v, r in ball3.items():
        assert distance(o, v) == r


def test_formula_matches_bfs_on_random_pairs(params, ball3):
    rng = random.Random(7)
    verts = sorted(ball3, key=lambda v: v.coords)
    for _ in range(60):
        x, y = rng.choice(verts), rng.choice(verts)
        assert distance(x, y) == bfs_oracle(x, y)


@pytest.mark.parametrize("d,q,radius", [(2, 2, 4), (4, 2, 2)])
def test_formula_matches_bfs_other_configs(d, q, radius):
    params = DLParams(d, q)
    o = identity(params)
    for v, r in ball_distances(params, radius).items():
        assert distance(o, v) == r


def test_frozen_distances(params, origin):
    z11 = zeta_point(params, 1, 1)
    assert distance(origin, z11) == 2
    assert distance(beta_family(params).at(10), z11) == 21
    a3 = alpha_family(params).at(3)
    assert distance(a3, origin) == 3
    assert distance(a3, zeta_point(params, 3, 2)) == 5


def test_metric_axioms(params, ball3):
    rng = random.Random(11)
    verts = sorted(ball3, key=lambda v: v.coords)
    for v in verts:
        assert distance(v, v) == 0
    for _ in range(400):
        x, y, z = (rng.choice(verts) for _ in range(3))
        dxy = distance(x, y)
        assert dxy == distance(y, x)
        assert (dxy == 0) == (x == y)
        assert dxy <= distance(x, z) + distance(z, y)


def _walk(v, steps, rng):
    for _ in range(steps):
        v = rng.choice(neighbors(v))
    return v


# a d = 8 distance takes about 10 ms, and an example makes six
@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_metric_axioms_at_every_dimension(d, q, seed):
    # symmetry and the triangle inequality on three vertices of DL_d(q),
    # each a seeded walk of up to 8 steps from the last
    rng = random.Random(seed)
    x = _walk(identity(DLParams(d, q)), rng.randint(0, 8), rng)
    y = _walk(x, rng.randint(0, 8), rng)
    z = _walk(y, rng.randint(0, 8), rng)
    dxy, dyz, dxz = distance(x, y), distance(y, z), distance(x, z)
    assert (dxy, dyz, dxz) == (distance(y, x), distance(z, y), distance(z, x))
    assert dxz <= dxy + dyz and dxy <= dxz + dyz and dyz <= dxy + dxz


def test_pair_profile_and_f_values(params, origin):
    z11 = zeta_point(params, 1, 1)
    prof = pair_profile(origin, z11)
    assert prof == PairProfile((1, 0, 0), (1, 0, 0))
    assert prof.l == prof.m  # no height change across the pair
    assert f_value(prof, (2, 1, 3), 2) == 2
    assert f_value(prof, (1, 2, 3), 3) == 2
    assert f_row_max(prof, (1, 2, 3)) == 2
    assert profile_distance(prof) == 2
    with pytest.raises(ValueError):
        f_value(prof, (1, 1, 3), 2)
    with pytest.raises(ValueError):
        f_value(prof, (1, 2, 3), 1)
    with pytest.raises(ValueError):
        f_value(prof, (1, 2, 3), 4)
    # non-int ordering entries and row indices are rejected, not coerced
    for sigma, i in (((True, 2, 3), 2), ((1.0, 2, 3), 2), ((1, 2, 3), 3.0), ((1, 2, 3), True)):
        with pytest.raises(ValueError):
            f_value(prof, sigma, i)
    # one tree, mismatched lengths or no trees at all: not a pair profile
    for bad in (PairProfile((3,), (1,)), PairProfile((1, 2), (1, 2, 3)),
                PairProfile((), ()), PairProfile((1, 2, 3), (1, 2))):
        with pytest.raises(ValueError):
            profile_distance(bad)
    # f_value, the reference the lemma table is bound to, refuses m and l
    # of unequal length in profile_distance's words
    for bad in (PairProfile((1, 2), (1, 2, 3)), PairProfile((1, 2, 3), (1, 2))):
        sigma = tuple(range(1, len(bad.m) + 1))
        message = f"^malformed profile: {len(bad.m)} spine depths, {len(bad.l)} climbs$"
        with pytest.raises(ValueError, match=message):
            f_value(bad, sigma, 2)
        with pytest.raises(ValueError, match=message):
            f_row_max(bad, sigma)


def test_distance_minimizes_over_orderings(params, ball3):
    rng = random.Random(13)
    verts = sorted(ball3, key=lambda v: v.coords)
    for _ in range(200):
        x, y = rng.choice(verts), rng.choice(verts)
        prof = pair_profile(x, y)
        assert distance(x, y) == min(f_row_max(prof, s) for s in all_permutations(3))


def test_d3_closed_form_matches_orderings_exhaustively():
    # the closed three-pair form of profile_distance against the minimum
    # of the reference row maxima and against the general end-pair form
    # it unrolls, on all 5**6 = 15,625 d = 3 profiles with entries 0..4
    orderings = all_permutations(3)
    for m in itertools.product(range(5), repeat=3):
        for l in itertools.product(range(5), repeat=3):
            prof = PairProfile(m, l)
            dist = profile_distance(prof)
            assert dist == min(f_row_max(prof, s) for s in orderings)
            assert dist == _end_pair_distance(m, l)


def _orderings_distance(m, l):
    # the reference: min over every ordering of its largest f row
    return min(max(f_rows(m, l, s)) for s in _perms0(len(m)))


def test_d4_end_pair_form_matches_orderings_exhaustively():
    # every d = 4 profile with entries 0..2 (3**8 = 6,561 profiles) and
    # every d = 2 profile, whose one middle is empty, with entries 0..4
    # (5**4 = 625 profiles)
    for d, entries in ((4, range(3)), (2, range(5))):
        for m in itertools.product(entries, repeat=d):
            for l in itertools.product(entries, repeat=d):
                assert profile_distance(PairProfile(m, l)) == _orderings_distance(m, l)


@pytest.mark.parametrize("d", [2, 4, 5, 6])
def test_end_pair_form_runs_on_affine_entries(d):
    # limit_value runs profile_distance on AffineInN entries at d != 3;
    # tuple order is their order at every large n
    rng = random.Random(20261020 + d)

    def entries():
        return tuple(AffineInN(rng.randint(0, 2), rng.randint(-4, 6)) for _ in range(d))

    for _ in range(40 if d < 6 else 10):
        m, l = entries(), entries()
        dist = profile_distance(PairProfile(m, l))
        assert isinstance(dist, AffineInN)
        assert dist == _orderings_distance(m, l)


def _profiles_and_ordering(d):
    entries = st.lists(st.integers(0, 40), min_size=d, max_size=d)
    return st.tuples(
        st.lists(st.tuples(entries, entries), min_size=1, max_size=4),
        st.permutations(range(d)),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8).flatmap(_profiles_and_ordering))
def test_f_rows_matches_reference(case):
    # the kernel against the literal formula, on ints and elementwise on
    # numpy arrays holding several profiles at once
    profiles, s = case
    d = len(s)
    sigma = tuple(t + 1 for t in s)
    want = [
        [f_value(PairProfile(tuple(m), tuple(l)), sigma, i) for i in range(2, d + 1)]
        for m, l in profiles
    ]
    assert [f_rows(m, l, s) for m, l in profiles] == want
    mcols = np.array([m for m, _ in profiles]).T
    lcols = np.array([l for _, l in profiles]).T
    got = f_rows(mcols, lcols, s)
    assert np.array_equal(np.array(got).T, np.array(want))


@pytest.mark.parametrize("d,count", [(2, 6), (4, 6), (5, 6), (6, 4), (7, 2)])
def test_generic_profile_distance_matches_brute_force(d, count):
    # the end-pair branch of profile_distance (d != 3) against the
    # minimum of the reference row maxima over every ordering, on random
    # walks
    params = DLParams(d, 2)
    rng = random.Random(20260814 + d)
    for _ in range(count):
        x = _walk(identity(params), 8, rng)
        prof = pair_profile(x, _walk(x, 8, rng))
        brute = min(f_row_max(prof, s) for s in all_permutations(d))
        assert profile_distance(prof) == brute


def test_cross_graph_pairs_rejected(params):
    other = identity(DLParams(4, 2))
    with pytest.raises(DimensionMismatch):
        distance(identity(params), other)
    with pytest.raises(DimensionMismatch):
        distance(identity(params), identity(DLParams(3, 3)))


def test_bfs_distance(params, origin):
    assert bfs_distance(origin, origin) == 0
    z = zeta_point(params, 3, 2)
    assert bfs_distance(origin, z) == distance(origin, z) == 4
    assert bfs_distance(origin, beta_family(params).at(5), cap=3) is None


def _seeded_pairs(params, radius, count, seed):
    pool = sorted(ball_distances(params, radius), key=lambda v: v.coords)
    rng = random.Random(seed)
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]


@pytest.mark.parametrize(
    "d,q,radius,count",
    [(3, 2, 3, 30), (2, 2, 4, 60), (2, 3, 3, 40), (4, 2, 2, 15), (2, 4, 3, 40), (5, 2, 2, 10)],
)
def test_bfs_distance_matches_one_way_oracle(d, q, radius, count):
    # the meet-in-the-middle search against the plain one-way queue search
    for x, y in _seeded_pairs(DLParams(d, q), radius, count, seed=d * 10 + q):
        assert bfs_distance(x, y) == bfs_oracle(x, y)


def test_bfs_distance_cap_edge(params, ball3):
    rng = random.Random(19)
    verts = sorted(ball3, key=lambda v: v.coords)
    for _ in range(40):
        x, y = rng.choice(verts), rng.choice(verts)
        want = bfs_oracle(x, y)
        assert bfs_distance(x, y, cap=want) == want
        if want > 0:
            assert bfs_distance(x, y, cap=want - 1) is None
    assert bfs_distance(verts[0], verts[0], cap=0) == 0


def test_bfs_distance_memory_cap(params, origin, monkeypatch):
    far = beta_family(params).at(5)
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", 50)
    with pytest.raises(MemoryCapExceeded) as e:
        bfs_distance(origin, far)
    assert e.value.size > 50
    # after the first layer the ball around origin holds 13 vertices and
    # the one around far holds 1: the cap counts both
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", 13)
    with pytest.raises(MemoryCapExceeded) as e:
        bfs_distance(origin, far)
    assert e.value.size == 14
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", 100_000)
    assert bfs_distance(origin, far) == 10


@pytest.mark.parametrize("d,q,radius", [(3, 2, 3), (4, 2, 2), (2, 3, 3)])
def test_bfs_search_on_warm_coder_matches_cold(d, q, radius, monkeypatch):
    # the same distances and expansion counts whether each search starts
    # from a new coder or from the one the previous search left behind
    pairs = _seeded_pairs(DLParams(d, q), radius, 40, seed=d * 10 + q + 1)
    kept = {}
    monkeypatch.setattr(dlgraph_mod, "_kept_coders", kept)
    cold = []
    for x, y in pairs:
        kept.clear()
        cold.append(_bfs_search(x, y, 2 * distance(x, y) + 2))
    warm = [_bfs_search(x, y, 2 * distance(x, y) + 2) for x, y in pairs]
    assert warm == cold
    assert len(kept[d, q, dlgraph_mod.DEFAULT_MEMORY_CAP].coords) > 0


def test_warm_coder_fits_its_field_under_a_small_cap(params, origin, monkeypatch):
    # searches under cap 50 each hold few codes, but the coder they share
    # gathers more than a field sized from the cap alone could hold
    monkeypatch.setattr(dlgraph_mod, "_kept_coders", {})
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", 50)
    rng = random.Random(3)
    for _ in range(100):
        x = _walk(origin, 20, rng)
        y = _walk(x, 2, rng)
        assert bfs_distance(x, y) == distance(x, y)
    coder = dlgraph_mod._kept_coders[3, 2, 50]
    assert len(coder.coords) > 1 << (3 * (50 + 2 + 3)).bit_length()


def test_bfs_exact_after_memory_cap(params, origin, ball3, monkeypatch):
    monkeypatch.setattr(dlgraph_mod, "_kept_coders", {})
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", 2000)
    with pytest.raises(MemoryCapExceeded):
        bfs_distance(origin, beta_family(params).at(5))
    # the stopped search left its coder, and the next searches run on it
    coder = dlgraph_mod._kept_coders[3, 2, 2000]
    rng = random.Random(23)
    verts = sorted(ball3, key=lambda v: v.coords)
    for _ in range(30):
        x, y = rng.choice(verts), rng.choice(verts)
        assert bfs_distance(x, y) == bfs_oracle(x, y)
    assert dlgraph_mod._kept_coders[3, 2, 2000] is coder


def test_bfs_distance_reads_formula_only_for_default_cap(params, origin, monkeypatch):
    def formula(*args):
        raise AssertionError("the oracle read the formula")

    monkeypatch.setattr(metric_mod, "distance", formula)
    monkeypatch.setattr(metric_mod, "profile_distance", formula)
    z = zeta_point(params, 3, 2)
    assert bfs_distance(origin, z, cap=10) == 4
    with pytest.raises(AssertionError, match="read the formula"):
        bfs_distance(origin, z)


def test_bfs_distance_rejects_bad_limits(params, origin):
    z = zeta_point(params, 1, 1)
    with pytest.raises(ValueError):
        bfs_distance(origin, z, cap=-1)
    with pytest.raises(ValueError):
        bfs_distance(origin, origin, cap=-1)
    # a bool or float cap is rejected, not run as cap 1
    for bad in (True, 3.0, 2.5):
        with pytest.raises(ValueError, match="must be an int"):
            bfs_distance(origin, z, cap=bad)


# DL_3(2) is checked against BFS by test_word_metric_matches_bfs_oracle
# (tests/test_acceptance.py) on its radius-5 ball and 200 seeded pairs;
# every other VERIFIED_CONFIGS entry draws seeded pairs from the ball of
# the radius given here
BFS_ACCEPTANCE_CONFIG = (3, 2)
BFS_CONFIG_RADIUS = {
    (2, 2): 4, (4, 2): 3, (3, 3): 3, (2, 3): 4, (5, 2): 3, (6, 2): 3, (7, 2): 2,
}


def test_every_verified_config_has_a_bfs_run():
    assert set(BFS_CONFIG_RADIUS) | {BFS_ACCEPTANCE_CONFIG} == VERIFIED_CONFIGS


@pytest.mark.parametrize(
    "d,q,radius", [(d, q, r) for (d, q), r in sorted(BFS_CONFIG_RADIUS.items())]
)
def test_formula_matches_bfs_distance_config(d, q, radius):
    pairs = _seeded_pairs(DLParams(d, q), radius, 200, seed=20260814 + 100 * d + q)
    mismatches = [(x, y) for x, y in pairs if distance(x, y) != bfs_distance(x, y)]
    assert mismatches == []


def test_lower_bounds_hold_exhaustively(params):
    o = identity(params)
    for v in ball_distances(params, 2):
        tree, index = lower_bounds(o, v)
        assert tree.claim == "TreeBound" and index.claim == "BigIndex"
        for rep in (tree, index):
            assert rep.verified and not rep.falsified
            assert rep.hypothesis_holds
            assert rep.bound <= distance(o, v)


def test_lower_bounds_reach_the_distance_somewhere(params, origin):
    z = zeta_point(params, 1, 1)
    tree, index = lower_bounds(origin, z)
    assert tree.bound == 2 == distance(origin, z)
    assert index.bound == 1


def test_f_dominance(params, origin):
    b10 = beta_family(params).at(10)
    z11 = zeta_point(params, 1, 1)
    rep = check_f_dominance(b10, origin, z11, 1)
    assert rep.hypothesis_holds and rep.verified
    assert rep.bound == distance(b10, origin) + 1 == 21
    # push the offset past the actual gap: hypothesis must fail
    rep2 = check_f_dominance(b10, origin, z11, 2)
    assert not rep2.hypothesis_holds and not rep2.verified
    assert not rep2.falsified
    for k in (1.0, True):
        with pytest.raises(ValueError):
            check_f_dominance(b10, origin, z11, k)


def test_coord_dominance(params, origin):
    a3 = alpha_family(params).at(3)
    z32 = zeta_point(params, 3, 2)
    rep = check_coord_dominance(a3, origin, z32, (0, 0, 2))
    assert rep.verified and rep.bound == 5
    assert distance(a3, z32) == 5
    rep2 = check_coord_dominance(a3, origin, z32, (1, 0, 2))
    assert not rep2.hypothesis_holds
    with pytest.raises(ValueError):
        check_coord_dominance(a3, origin, z32, (0, 0))
    with pytest.raises(ValueError):
        check_coord_dominance(a3, origin, z32, (0, 0, -1))
    # non-int offsets are rejected, not truncated or read as 1
    for offs in ((0.9, 0, 0), (True, 0, 0), (0, 0, 2.0)):
        with pytest.raises(ValueError):
            check_coord_dominance(a3, origin, z32, offs)


def test_balanced_compare(params):
    a5 = alpha_family(params).at(5)
    eq, leq, geq = balanced_compare(a5, zeta_point(params, 2, 3))
    assert (eq.claim, leq.claim, geq.claim) == (
        "BalancedEq", "BalancedLeq", "BalancedGeq"
    )
    assert eq.hypothesis_holds and eq.verified
    assert leq.hypothesis_holds and leq.verified
    assert eq.bound == distance(a5, identity(params)) == 5
    # deeper probe than the family reaches: only the lower bound applies
    eq2, leq2, geq2 = balanced_compare(a5, zeta_point(params, 2, 7))
    assert not eq2.hypothesis_holds and not leq2.hypothesis_holds
    assert geq2.hypothesis_holds and geq2.verified
    assert geq2.bound == 5 + 2
    with pytest.raises(NotBalanced):
        balanced_compare(a5, a5)


def _balanced_compare_reference(x, z, base):
    """balanced_compare as three passes over the spine depths, with base
    = distance(x, id) given; the reference for its one-loop form."""
    if any(c.h != 0 for c in z.coords):
        raise NotBalanced(f"heights {z.heights} are not all zero")
    mx = tuple(c.m for c in x.coords)
    mz = tuple(c.m for c in z.coords)
    dxz = distance(x, z)
    hyp_eq = all((zi < xi) if xi != 0 else (zi == 0) for xi, zi in zip(mx, mz))
    hyp_leq = all(zi <= xi for xi, zi in zip(mx, mz))
    hyp_geq = all(zi != xi or xi == 0 for xi, zi in zip(mx, mz))
    gain = sum(max(0, zi - xi) for xi, zi in zip(mx, mz))
    return [
        ("BalancedEq", hyp_eq, base, hyp_eq and dxz == base),
        ("BalancedLeq", hyp_leq, base, hyp_leq and dxz <= base),
        ("BalancedGeq", hyp_geq, base + gain, hyp_geq and dxz >= base + gain),
    ]


def test_balanced_compare_matches_reference(params, ball3):
    # every pair of the radius-3 ball and the balanced probes of the
    # comparison-lemmas check
    probes = balanced_vertices(params, [range(3), range(3), range(5)])
    for x, base in ball3.items():
        for z in probes:
            got = [(r.claim, r.hypothesis_holds, r.bound, r.verified)
                   for r in balanced_compare(x, z)]
            assert got == _balanced_compare_reference(x, z, base)
    # a nonzero height anywhere is refused, also past a balanced tree
    unbalanced = make_vertex(params, [(0, ()), (1, ()), (0, (1,))])
    for z in (unbalanced, alpha_family(params).at(2)):
        with pytest.raises(NotBalanced):
            balanced_compare(identity(params), z)


def test_balanced_compare_exhaustive_small(params, ball3):
    probes = [
        zeta_point(params, t, k) for t in (1, 2, 3) for k in (0, 1, 2)
    ]
    for x in ball3:
        for z in probes:
            for rep in balanced_compare(x, z):
                assert not rep.falsified
