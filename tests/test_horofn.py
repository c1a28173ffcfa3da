"""Boundary values: exact limits, the closed form, growth tables."""

import random
import re
from functools import cache

import pytest

from dlstar import (
    AffineInN,
    DimensionMismatch,
    DLParams,
    TableMismatch,
    WrongDimension,
    alpha_family,
    ball_distances,
    beta_family,
    beta_value,
    betandist_table,
    distance,
    f_rows,
    format_vertex,
    identity,
    limit_value,
    limit_values,
    make_vertex,
    neighbors,
    nu_point,
    pair_profile,
    parse_vertex,
    printed_probe_set,
    probe_disagreement,
    shifts,
    symmetric_probe_set,
    zeta_point,
)
from dlstar import horofn
from dlstar.cli import parse_family
from dlstar.horofn import _param_weight
from dlstar.verify import _sample_bounded_vertex


def test_beta_value_frozen(params, origin):
    assert beta_value(zeta_point(params, 1, 1)) == 1
    assert beta_value(zeta_point(params, 1, 2)) == 2
    assert beta_value(zeta_point(params, 2, 1)) == 1
    for tree in (1, 2):
        for eps in (0, 1):
            assert beta_value(nu_point(params, tree, eps, 1)) == -1
    assert beta_value(origin) == 0
    assert beta_value(parse_vertex("0:0|2:1,0|2:1", params)) == 1
    for d in (2, 4):
        with pytest.raises(WrongDimension):
            beta_value(identity(DLParams(d, 2)))


def test_beta_value_matches_its_statistics_form():
    # the closed form written over the coordinate statistics m, l and h
    def by_statistics(z):
        (m1, m2, _), (l1, l2, _) = (
            tuple(c.m for c in z.coords),
            tuple(c.l for c in z.coords),
        )
        h1, h2, h3 = (c.h for c in z.coords)
        return m1 + m2 + min(m1 + h3, h1 + h3, l1, m2 + h3, h2 + h3, l2)

    params = DLParams(3, 3)
    rng = random.Random(30)
    for _ in range(500):
        z = _sample_bounded_vertex(params, rng, 4)
        assert beta_value(z) == by_statistics(z), format_vertex(z)
        assert _param_weight(z) == sum(c.m + c.l for c in z.coords)


def test_beta_value_equals_limit_on_ball(params, ball3):
    fam = beta_family(params)
    for z in ball3:
        assert limit_value(fam, z).value == beta_value(z), format_vertex(z)


def test_beta_value_is_1_lipschitz(params, ball4):
    rng = random.Random(23)
    verts = sorted(ball4, key=lambda v: v.coords)
    for _ in range(300):
        x, y = rng.choice(verts), rng.choice(verts)
        assert abs(beta_value(x) - beta_value(y)) <= distance(x, y)


@pytest.mark.parametrize("d,q,radius,family,edges", [
    pytest.param(3, 2, 4, None, 13_548, id="2-4-13548"),
    pytest.param(3, 3, 3, None, 19_134, id="3-3-19134"),
    pytest.param(3, 2, 3, "alpha", 3_828, id="alpha-DL_3(2)"),
    pytest.param(3, 2, 3, "gamma:1,3", 3_828, id="gamma:1,3-DL_3(2)"),
    # beta_value raises WrongDimension here; only the limit exists
    pytest.param(4, 2, 2, "beta", 5_880, id="beta-DL_4(2)"),
])
def test_beta_value_moves_at_most_one_per_edge(d, q, radius, family, edges):
    # 1-Lipschitz along every edge out of the ball, hence for the metric;
    # family None is beta_value, a family name its limit_value
    params = DLParams(d, q)
    if family is None:
        value = beta_value
    else:
        fam = parse_family(family, params)
        value = cache(lambda z: limit_value(fam, z).value)
    seen = 0
    for z in ball_distances(params, radius):
        hz = value(z)
        for w in neighbors(z):
            assert abs(hz - value(w)) <= 1, (format_vertex(z), format_vertex(w))
            seen += 1
    assert seen == edges


def test_limits_tell_alpha_from_beta(params):
    z = zeta_point(params, 2, 1)
    la = limit_value(alpha_family(params), z)
    lb = limit_value(beta_family(params), z)
    assert la.value == 0 and lb.value == 1
    # both exact from the parameter weight of z plus one
    assert la.from_n == lb.from_n == 3


@pytest.mark.parametrize("d,q,radius,name", [
    *((3, 2, 3, name) for name in (
        "alpha", "beta", "gamma:1,3", "gamma:1,2,3", "zeta:1,2", "nu:1,1,2"
    )),
    *((4, 2, 2, name) for name in ("alpha", "beta", "gamma:3,4")),
])
def test_limit_holds_from_from_n(d, q, radius, name):
    # the difference already equals the limit at from_n and stays there
    params = DLParams(d, q)
    fam = parse_family(name, params)
    base = identity(params)
    for z in ball_distances(params, radius):
        limit = limit_value(fam, z)
        assert limit.from_n == _param_weight(z) + 1
        for n in range(limit.from_n, limit.from_n + 31):
            x = fam.at(n)
            assert distance(x, z) - distance(x, base) == limit.value, (name, z, n)
            assert shifts(x, (z,)) == (limit.value,), (name, z, n)


def _shuffled_with_repeats(ball, seed):
    # repeats and a shuffle interleave the from_n classes
    verts = sorted(ball, key=lambda v: v.coords)
    rng = random.Random(seed)
    targets = verts + rng.sample(verts, len(verts) // 10)
    rng.shuffle(targets)
    return tuple(targets)


@pytest.mark.parametrize("d,q,radius,name", [
    *((3, 2, 4, name) for name in ("alpha", "beta", "gamma:1,3", "zeta:1,2", "nu:1,1,2")),
    (4, 2, 2, "beta"),
    *((d, 2, radius, name) for d, radius in ((4, 3), (5, 2)) for name in ("beta", "gamma:3,4")),
])
def test_limit_values_match_limit_value(d, q, radius, name):
    params = DLParams(d, q)
    fam = parse_family(name, params)
    targets = _shuffled_with_repeats(ball_distances(params, radius), 7)
    assert len({_param_weight(z) for z in targets[:50]}) > 1
    assert limit_values(fam, targets) == tuple(limit_value(fam, z) for z in targets)


def test_limit_values_edges(params):
    beta = beta_family(params)
    assert limit_values(beta, ()) == ()
    with pytest.raises(DimensionMismatch):
        limit_values(beta, (identity(params), identity(DLParams(3, 3))))
    with pytest.raises(DimensionMismatch):
        limit_values(beta, (identity(DLParams(4, 2)),))


def _count_calls(monkeypatch, name):
    # arguments of every call to horofn's binding of name
    calls = []
    real = getattr(horofn, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(horofn, name, counted)
    return calls


def _exact_profile(family, z, from_n):
    # pair_profile(x_n, z) over Z[n], from its values at from_n and from_n + 1
    p0, p1 = (pair_profile(family.at(n), z) for n in (from_n, from_n + 1))
    return tuple(
        tuple(AffineInN(b - a, a - (b - a) * from_n) for a, b in zip(r0, r1))
        for r0, r1 in zip(p0, p1)
    )


def test_limit_values_share_the_identity_side(params, ball3, monkeypatch):
    # pair_stats runs on the window (x_{from_n}, x_{from_n + 1}) once per
    # distinct (from_n, tree, coordinate), the identity's included, and
    # profile_distance (over Z[n] and at from_n) once per distinct class
    # and once per from_n for the identity side
    stats = _count_calls(monkeypatch, "pair_stats")
    dists = _count_calls(monkeypatch, "profile_distance")
    beta = beta_family(params)
    targets = _shuffled_with_repeats(ball3, 11)
    limits = limit_values(beta, targets)
    from_ns = {v.from_n for v in limits}
    assert from_ns == {1, 3, 5, 7}
    seen = [(v.from_n, z) for z, v in zip(targets, limits)]
    seen += [(n, identity(params)) for n in from_ns]
    keys = {(n, t, c) for n, z in seen for t, c in enumerate(z.coords)}
    classes = {(v.from_n, _exact_profile(beta, z, v.from_n)) for z, v in zip(targets, limits)}
    assert len(stats) == 2 * len(keys)
    assert len(dists) == 2 * (len(classes) + len(from_ns))
    assert len(classes) < len(set(targets))
    assert horofn._limit_sweep(beta, targets) == (limits, len(classes))


def test_limit_values_name_the_first_target_of_a_failing_class(params, ball4, monkeypatch):
    # profile_distance one too high over Z[n] on one class only: the sweep
    # reports that class at its first target in input order
    beta = beta_family(params)
    targets = _shuffled_with_repeats(ball4, 13)
    profiles = [_exact_profile(beta, z, _param_weight(z) + 1) for z in targets]
    sides = {_exact_profile(beta, identity(params), n) for n in range(1, 12)}
    weights = {}
    for p, z in zip(profiles, targets):
        weights.setdefault(p, set()).add(_param_weight(z))
    # a class of several targets whose Z[n] profile no other class or
    # identity side has, and whose first target comes late
    bad = next(
        p for p in profiles[len(profiles) // 2:]
        if len(weights[p]) == 1 and profiles.count(p) > 1 and p not in sides
    )
    first = targets[profiles.index(bad)]
    real = horofn.profile_distance

    def off_on_one_class(profile):
        dist = real(profile)
        return dist + AffineInN(0, 1) if profile == bad else dist

    monkeypatch.setattr(horofn, "profile_distance", off_on_one_class)
    with pytest.raises(TableMismatch, match=re.escape(f"beta at {first}:")):
        limit_values(beta, targets)


@pytest.mark.parametrize("d,radius", [(3, 4), (4, 2)])
@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_shifts_match_distance(d, radius, name, monkeypatch):
    # one pair_stats per distinct (tree, coordinate) and one
    # profile_distance per distinct profile, id's included
    params = DLParams(d, 2)
    fam = parse_family(name, params)
    base = identity(params)
    targets = _shuffled_with_repeats(ball_distances(params, radius), 5)
    keys = {(t, c) for w in targets + (base,) for t, c in enumerate(w.coords)}
    for n in (1, 2, 5, 9):
        x = fam.at(n)
        want = tuple(distance(x, w) - distance(x, base) for w in targets)
        profiles = {pair_profile(x, w) for w in targets + (base,)}
        stats = _count_calls(monkeypatch, "pair_stats")
        dists = _count_calls(monkeypatch, "profile_distance")
        assert shifts(x, targets) == want, (name, n)
        monkeypatch.undo()
        assert len(stats) == len(keys) and len(dists) == len(profiles) < len(targets)


def test_exact_forms_are_checked_at_from_n(params, monkeypatch):
    # an integer distance at from_n that disagrees with the Z[n] form is
    # reported, not passed over: shift the integer distances by the tree-1
    # depth, which z has and id lacks
    real = horofn.profile_distance

    def off_in_tree_1(profile):
        dist = real(profile)
        return dist if isinstance(dist, AffineInN) else dist + profile.m[0]

    monkeypatch.setattr(horofn, "profile_distance", off_in_tree_1)
    z = zeta_point(params, 1, 1)
    with pytest.raises(TableMismatch):
        limit_value(beta_family(params), z)
    with pytest.raises(TableMismatch):
        betandist_table(z)
    # the batch passes the identity, which has no tree-1 depth, and names z
    with pytest.raises(TableMismatch, match=re.escape(f"beta at {z}:")):
        limit_values(beta_family(params), (identity(params), z))


def test_affine_in_n_arithmetic():
    a, b = AffineInN(2, 1), AffineInN(1, -3)
    assert a.at(5) == 11
    assert a + b == AffineInN(3, -2) and a - b == AffineInN(1, 4)
    assert 4 + a == AffineInN(2, 5)
    assert sum([a, b, AffineInN(0, 7)]) == AffineInN(3, 5)
    # slope first: the tuple order is the order of the values at large n
    lo, hi = AffineInN(1, 100), AffineInN(2, -100)
    assert lo < hi and max(lo, hi) is hi and min(b, a) is b
    assert lo.at(200) == hi.at(200)
    assert all(lo.at(n) < hi.at(n) for n in range(201, 300))


def test_growth_table_frozen(params):
    z = zeta_point(params, 1, 1)
    table = betandist_table(z)
    assert table.shift == 1 == beta_value(z)
    # valid from the parameter weight of z (2) plus one
    assert table.from_n == 3
    fits = {
        s: (tuple(r.sub[2]), tuple(r.sub[3]), tuple(r.total))
        for s, r in table.rows.items()
    }
    assert fits == {
        (1, 2, 3): ((1, 1), (2, 2), (2, 2)),
        (1, 3, 2): ((2, 1), (1, 2), (2, 1)),
        (2, 1, 3): ((1, 2), (2, 1), (2, 1)),
        (2, 3, 1): ((2, 1), (1, 2), (2, 1)),
        (3, 1, 2): ((1, 2), (2, 1), (2, 1)),
        (3, 2, 1): ((1, 1), (2, 2), (2, 2)),
    }
    # every ordering grows at the doubled rate, so the shift is the
    # smallest intercept among them
    assert all(r.total.slope == 2 for r in table.rows.values())
    assert min(r.total.intercept for r in table.rows.values()) == table.shift


def test_growth_table_matches_distance(params, ball3):
    fam = beta_family(params)
    for z in ball3:
        table = betandist_table(z)
        for n in range(table.from_n, table.from_n + 21):
            p = pair_profile(fam.at(n), z)
            for sigma, row in table.rows.items():
                want = f_rows(p.m, p.l, [t - 1 for t in sigma])
                assert [row.sub[2].at(n), row.sub[3].at(n)] == want, (z, sigma, n)
                assert row.total.at(n) == max(want)
            best = min(r.total.at(n) for r in table.rows.values())
            assert best == distance(fam.at(n), z) == 2 * n + table.shift, (z, n)
    assert betandist_table(parse_vertex("0:0|2:1,0|2:1", params)).from_n == 9


def test_growth_table_preconditions(params):
    with pytest.raises(WrongDimension):
        betandist_table(identity(DLParams(4, 2)))


def test_probe_sets(params):
    printed = printed_probe_set(params)
    symmetric = symmetric_probe_set(params)
    assert len(printed) == len(symmetric) == 6
    assert printed[0] == symmetric[0] == zeta_point(params, 1, 1)
    assert printed[1] == zeta_point(params, 1, 2)
    assert symmetric[1] == zeta_point(params, 2, 1)
    assert printed[2:] == symmetric[2:]
    with pytest.raises(WrongDimension):
        printed_probe_set(DLParams(4, 2))
    with pytest.raises(ValueError):
        symmetric_probe_set(DLParams(3, 1))


def test_probe_disagreement_frozen(params):
    a3 = alpha_family(params).at(3)
    rep = probe_disagreement(a3, symmetric_probe_set(params))
    assert rep.disagrees
    assert rep.witness == zeta_point(params, 1, 1)
    assert [(m, e) for _, m, e in rep.rows] == [
        (2, 1), (0, 1), (1, -1), (0, -1), (1, -1), (1, -1)
    ]
    calm = probe_disagreement(beta_family(params).at(5), symmetric_probe_set(params))
    assert not calm.disagrees and calm.witness is None


def test_limit_is_label_independent(params, ball3):
    # balanced tree-3 excursions climbing alternating labels, not only 1s,
    # give beta's limit at every n from from_n on
    for z in ball3:
        first = _param_weight(z) + 1
        for n in range(first, first + 20):
            path = tuple(1 if i % 2 == 0 else 0 for i in range(n))
            zig = make_vertex(params, [(0, ()), (0, ()), (n, path)])
            got = distance(zig, z) - distance(zig, identity(params))
            assert got == beta_value(z), (format_vertex(z), n)
