"""Word metric: formula vs breadth-first search, axioms, bounds, lemmas."""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dlstar import (
    DLParams,
    DimensionMismatch,
    MemoryCapExceeded,
    NotBalanced,
    PairProfile,
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
    neighbors,
    pair_profile,
    profile_distance,
    zeta_point,
)


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


def test_pair_profile_and_f_values(params, origin):
    z11 = zeta_point(params, 1, 1)
    prof = pair_profile(origin, z11)
    assert prof == PairProfile((1, 0, 0), (1, 0, 0))
    assert prof.h == (0, 0, 0)
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


def test_distance_minimizes_over_orderings(params, ball3):
    rng = random.Random(13)
    verts = sorted(ball3, key=lambda v: v.coords)
    for _ in range(200):
        x, y = rng.choice(verts), rng.choice(verts)
        prof = pair_profile(x, y)
        assert distance(x, y) == min(f_row_max(prof, s) for s in all_permutations(3))


def test_generic_path_agrees_with_specialized(params, ball3):
    # d = 3 takes a hand-unrolled branch; feed its profiles through the
    # generic code path by checking against the permutation definition
    rng = random.Random(17)
    verts = sorted(ball3, key=lambda v: v.coords)
    for _ in range(100):
        x, y = rng.choice(verts), rng.choice(verts)
        prof = pair_profile(x, y)
        brute = min(
            max(f_value(prof, s, i) for i in (2, 3)) for s in all_permutations(3)
        )
        assert profile_distance(prof) == brute


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


@pytest.mark.parametrize("d,count", [(5, 6), (6, 4), (7, 2)])
def test_generic_profile_distance_matches_brute_force(d, count):
    # the kernel branch of profile_distance (d != 3) against the minimum
    # of the reference row maxima over every ordering, on random walks
    params = DLParams(d, 2)
    rng = random.Random(20260814 + d)

    def walk(v, steps=8):
        for _ in range(steps):
            v = rng.choice(neighbors(v))
        return v

    for _ in range(count):
        x = walk(identity(params))
        prof = pair_profile(x, walk(x))
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
    "d,q,radius,count", [(3, 2, 3, 30), (2, 2, 4, 60), (2, 3, 3, 40), (4, 2, 2, 15)]
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


def test_bfs_distance_memory_cap(params, origin):
    far = beta_family(params).at(5)
    with pytest.raises(MemoryCapExceeded) as e:
        bfs_distance(origin, far, max_vertices=50)
    assert e.value.size > 50
    # after the first layer the ball around origin holds 13 vertices and
    # the one around far holds 1: the cap counts both
    with pytest.raises(MemoryCapExceeded) as e:
        bfs_distance(origin, far, max_vertices=13)
    assert e.value.size == 14
    assert bfs_distance(origin, far, max_vertices=100_000) == 10


def test_bfs_distance_reads_formula_only_for_default_cap(params, origin, monkeypatch):
    import dlstar.metric as metric_mod

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
    with pytest.raises(ValueError):
        bfs_distance(origin, z, max_vertices=0)


# configurations beyond the acceptance gate's DL_3(2): these runs back the
# (4, 2), (3, 3) and (2, 3) entries of VERIFIED_CONFIGS
@pytest.mark.parametrize("d,q,radius", [(4, 2, 3), (3, 3, 3), (2, 3, 4)])
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
            assert rep.status == "verified"
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
    assert not rep2.hypothesis_holds and rep2.status == "not-applicable"
    assert not rep2.falsified
    strict = check_f_dominance(b10, origin, z11, 1, strict=True)
    assert not strict.hypothesis_holds
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


def test_balanced_compare_exhaustive_small(params, ball3):
    probes = [
        zeta_point(params, t, k) for t in (1, 2, 3) for k in (0, 1, 2)
    ]
    for x in ball3:
        for z in probes:
            for rep in balanced_compare(x, z):
                assert not rep.falsified
