"""Boundary values: stabilized limits, the closed form, growth tables."""

import random

import pytest

from dlstar import (
    AffineInN,
    DLParams,
    InconclusiveProfile,
    NonAffine,
    NotStabilized,
    INFINITE,
    WrongDimension,
    alpha_family,
    beta_family,
    beta_value,
    betandist_table,
    custom_family,
    distance,
    format_vertex,
    gamma_family,
    identity,
    limit_value,
    m_profile,
    nu_point,
    parse_vertex,
    printed_probe_set,
    probe_disagreement,
    symmetric_probe_set,
    zeta_point,
)
from dlstar.horofn import _fit_affine


def test_beta_value_frozen(params, origin):
    assert beta_value(zeta_point(params, 1, 1)) == 1
    assert beta_value(zeta_point(params, 1, 2)) == 2
    assert beta_value(zeta_point(params, 2, 1)) == 1
    for tree in (1, 2):
        for eps in (0, 1):
            assert beta_value(nu_point(params, tree, eps, 1)) == -1
    assert beta_value(origin) == 0
    assert beta_value(parse_vertex("0:0|2:1,0|2:1", params)) == 1
    with pytest.raises(WrongDimension):
        beta_value(identity(DLParams(4, 2)))


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


def test_limits_tell_alpha_from_beta(params):
    z = zeta_point(params, 2, 1)
    la = limit_value(alpha_family(params), z)
    lb = limit_value(beta_family(params), z)
    assert la.value == 0 and lb.value == 1
    assert la.window == lb.window == 10
    assert la.stabilized_at >= 1 and lb.stabilized_at >= 1


def test_limit_value_respects_bounds(params):
    fam = beta_family(params)
    z = zeta_point(params, 1, 2)
    got = limit_value(fam, z, n_min=5, window=4, n_max=40)
    assert got.value == 2 and got.window == 4
    with pytest.raises(ValueError):
        limit_value(fam, z, window=0)
    # bad bounds are rejected, not coerced or reported as a failed scan
    for kwargs in (
        {"window": True},
        {"window": 4.0},
        {"n_min": 10, "n_max": 5},
        {"n_min": 5.0},
        {"n_min": True},
        {"n_max": 40.0},
    ):
        with pytest.raises(ValueError):
            limit_value(fam, z, **kwargs)


def test_limit_value_gives_up_on_oscillation(params):
    a, b = alpha_family(params), beta_family(params)
    flip = custom_family(
        params, lambda n: (b if n % 2 else a).at(n).coords, name="flip"
    )
    with pytest.raises(NotStabilized):
        limit_value(flip, zeta_point(params, 2, 1), n_min=2, window=6, n_max=40)


def test_m_profiles(params):
    assert m_profile(alpha_family(params)) == (0, INFINITE, 0)
    assert m_profile(beta_family(params)) == (0, 0, INFINITE)
    assert m_profile(gamma_family(params, [1, 3])) == (INFINITE, 0, INFINITE)
    assert m_profile(beta_family(params), n_max=16, window=4) == (0, 0, INFINITE)
    with pytest.raises(ValueError):
        m_profile(alpha_family(params), n_max=4, window=8)


def test_m_profile_inconclusive(params):
    wobble = custom_family(
        params, lambda n: zeta_point(params, 3, n % 2).coords, name="wobble"
    )
    with pytest.raises(InconclusiveProfile):
        m_profile(wobble, n_max=16, window=4)


def test_fit_affine():
    assert _fit_affine({2: 5, 3: 7, 10: 21}) == AffineInN(2, 1)
    assert AffineInN(2, 1).at(5) == 11
    with pytest.raises(NonAffine):
        _fit_affine({0: 0, 1: 2, 2: 3})
    with pytest.raises(NonAffine):
        _fit_affine({0: 0, 1: 0, 2: 2})


def test_growth_table_frozen(params):
    z = zeta_point(params, 1, 1)
    table = betandist_table(z, 10, 17)
    assert table.shift == 1 == beta_value(z)
    assert table.n1 == 10 and table.n2 == 17
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


def test_growth_table_matches_distance(params):
    z = parse_vertex("0:0|2:1,0|2:1", params)
    fam = beta_family(params)
    table = betandist_table(z, 12, 20)
    for n in (12, 15, 20):
        xn = fam.at(n)
        want = distance(xn, z)
        assert min(r.total.at(n) for r in table.rows.values()) == want


def test_growth_table_preconditions(params):
    z = zeta_point(params, 1, 1)
    with pytest.raises(ValueError):
        betandist_table(z, 2, 9)  # n1 must exceed the parameter weight
    with pytest.raises(ValueError):
        betandist_table(z, 10, 10)
    with pytest.raises(WrongDimension):
        betandist_table(identity(DLParams(4, 2)), 5, 9)


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
    # a balanced tree-3 family climbing alternating labels has the same
    # stabilized values as the all-ones ray
    def gen(n):
        path = tuple(1 if i % 2 == 0 else 0 for i in range(n))
        return ((0, ()), (0, ()), (n, path))

    fam = custom_family(params, gen, name="zigzag")
    rng = random.Random(29)
    verts = sorted(ball3, key=lambda v: v.coords)
    for z in [rng.choice(verts) for _ in range(40)]:
        assert limit_value(fam, z).value == beta_value(z)
