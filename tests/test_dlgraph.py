"""Graph structure, balls, literals, and point families."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from dlstar import (
    DLParams,
    DLVertex,
    DimensionMismatch,
    HeightImbalance,
    MemoryCapExceeded,
    NonCanonicalWarning,
    PointFamily,
    TreeVertex,
    VertexSyntax,
    WrongDimension,
    alpha_family,
    ball_distances,
    beta_family,
    bfs_distance,
    format_vertex,
    gamma_family,
    identity,
    make_vertex,
    neighbors,
    nu_family,
    nu_point,
    parse_vertex,
    run_suites,
    vertex_sort_key,
    zeta_family,
    zeta_point,
)
from dlstar.dlgraph import DEFAULT_MEMORY_CAP, Ball, _VertexCoder, balanced_vertices
import dlstar.dlgraph as dlgraph_mod


def test_params_validation():
    # q >= 2 at every d, so that label 1 exists
    for d in range(2, 9):
        DLParams(d, 2)
        with pytest.raises(ValueError, match="^q must be at least 2, got 1$"):
            DLParams(d, 1)
    with pytest.raises(ValueError):
        DLParams(1, 2)
    with pytest.raises(ValueError):
        DLParams(9, 2)
    with pytest.raises(ValueError):
        DLParams(3, 0)
    # non-int parameters are rejected, not coerced
    for d, q in ((3, 2.5), (3, True), (3.0, 2), (False, 2)):
        with pytest.raises(ValueError, match="must be an int"):
            DLParams(d, q)
    # a hand-built vertex builds no DLParams; neighbors and bfs_distance read it
    v = DLVertex((TreeVertex(0, ()),) * 3, 1)
    for call in (lambda: neighbors(v), lambda: bfs_distance(v, v)):
        with pytest.raises(ValueError, match="^q must be at least 2, got 1$"):
            call()


@pytest.mark.parametrize("d,q", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_degree_and_involution(d, q):
    params = DLParams(d, q)
    o = identity(params)
    adj = neighbors(o)
    assert len(adj) == len(set(adj)) == d * (d - 1) * q
    for w in adj:
        assert sum(c.h for c in w.coords) == 0
        assert o in neighbors(w)


def test_neighbor_order_is_deterministic(params, origin):
    adj = neighbors(origin)
    assert format_vertex(adj[0]) == "0:0|1:|0:"
    assert format_vertex(adj[1]) == "0:1|1:|0:"
    assert format_vertex(adj[2]) == "0:0|0:|1:"
    assert format_vertex(adj[-1]) == "0:|1:|0:1"


def test_ball_sizes(params):
    sizes = [len(ball_distances(params, r)) for r in range(5)]
    assert sizes == [1, 13, 76, 319, 1129]


def test_ball_distances_are_layered(params, ball3):
    assert ball3[identity(params)] == 0
    for v, r in ball3.items():
        if r == 0:
            continue
        assert min(ball3.get(w, 99) for w in neighbors(v)) == r - 1


def test_ball_shares_equal_coordinates(ball4):
    # one object per distinct tree coordinate, however many vertices hold it
    coords = [c for v in ball4 for c in v.coords]
    assert len({id(c) for c in coords}) == len(set(coords)) < len(coords) // 10


def test_ball_memory_cap(params, monkeypatch):
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", 100)
    with pytest.raises(MemoryCapExceeded) as e:
        ball_distances(params, 3)
    assert e.value.size > 100
    for radius in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match="must be an int"):
            ball_distances(params, radius)


def test_searches_refuse_a_degree_past_the_cap(monkeypatch):
    # one vertex of DL_3(50) has 300 neighbors, past a cap of 100: every
    # search and neighbors refuse before any tree move is taken
    params = DLParams(3, 50)
    origin = identity(params)
    far = parse_vertex("0:0|2:1,0|2:1", params)

    def no_moves(c, q):
        raise AssertionError("a tree move was taken")

    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", 100)
    monkeypatch.setattr(dlgraph_mod, "_tree_moves", no_moves)
    for refused in (
        lambda: ball_distances(params, 1),
        lambda: bfs_distance(origin, far),
        lambda: neighbors(origin),
    ):
        with pytest.raises(MemoryCapExceeded) as e:
            refused()
        assert e.value.size == 300
    # radius 0, cap 0 and x == y take no step and still answer
    assert ball_distances(params, 0) == {origin: 0}
    assert bfs_distance(origin, far, cap=0) is None
    assert bfs_distance(far, far) == 0


@pytest.mark.parametrize("d,q", [(2, 2), (3, 3), (4, 2), (5, 2), (2, 5)])
def test_coded_neighbors_match_neighbors(d, q):
    # along a seeded walk, the packed neighbor keys decode to exactly
    # neighbors(v), in its (i, j, label) order
    params = DLParams(d, q)
    coder = _VertexCoder(d, q, DEFAULT_MEMORY_CAP)
    rng = random.Random(100 * d + q)
    v = identity(params)
    for _ in range(60):
        key = coder.encode(v)
        assert coder.decode(key) == v
        adj = neighbors(v)
        assert [coder.decode(k) for k in coder.neighbor_keys(key)] == adj
        v = rng.choice(adj)


@pytest.mark.parametrize("d,q,radius", [(2, 2, 3), (3, 2, 3), (4, 2, 2)])
def test_ball_holds_real_vertices(d, q, radius):
    # the decoder builds vertices without the namedtuple constructor; each
    # must still be a DLVertex that equals, and hashes as, one built by it
    params = DLParams(d, q)
    coder = _VertexCoder(d, q, DEFAULT_MEMORY_CAP)
    for v in ball_distances(params, radius):
        assert type(v) is DLVertex
        built = DLVertex(v.coords, v.q)
        assert v == built and hash(v) == hash(built)
        assert v.d == d and v.params == params
        decoded = coder.decode(coder.encode(v))
        assert type(decoded) is DLVertex and decoded == v


def _queue_ball(params, radius):
    """One-way queue search over neighbors, written apart from the library's."""
    start = identity(params)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w in neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@pytest.mark.parametrize("d,q,radius", [(4, 2, 3), (2, 3, 4)])
def test_ball_matches_queue_search(d, q, radius):
    params = DLParams(d, q)
    # the same distances in the same discovery order
    assert list(ball_distances(params, radius).items()) == list(
        _queue_ball(params, radius).items()
    )


@pytest.mark.parametrize("d,q,radius", [(3, 2, 6), (4, 2, 3), (2, 3, 4)])
def test_ball_grown_layer_by_layer(d, q, radius):
    # one request a layer gives the layers of one request for them all,
    # and the queue search's distances in its discovery order
    params = DLParams(d, q)
    with Ball(params) as ball:
        stepped = [ball.layers(r) for r in range(radius + 1)]
        assert ball.radius == radius
    with Ball(params) as ball:
        whole = ball.layers(radius)
    assert len(whole) == radius + 1
    assert all(layers == whole[: r + 1] for r, layers in enumerate(stepped))
    assert [(v, r) for r, layer in enumerate(whole) for v in layer] == list(
        _queue_ball(params, radius).items()
    )


# the layer sizes of DL_3(2) out to radius 6
DL32_LAYERS = [1, 12, 63, 243, 810, 2461, 7002]
# (memory cap, last layer complete under it, size the growth past it is
# refused with), the sizes as the one-shot search before Ball gave them
REFUSALS = [(100, 2, 103), (2000, 4, 2001), (5000, 5, 5003)]


def test_ball_layer_sizes(params):
    with Ball(params) as ball:
        sizes = [len(layer) for layer in ball.layers(6)]
    assert sizes == DL32_LAYERS
    # the benchmark's pins: beta-closed-form's 3,590 probes, and
    # probe-exclusion's 10,584 nontrivial vertices and the 8 others
    assert sum(sizes[:6]) == 3590 and sum(sizes) == 10592


@pytest.mark.parametrize("cap,complete,size", REFUSALS)
def test_refused_ball_stays_refused(params, monkeypatch, cap, complete, size):
    # a growth stopped by the cap refuses every later request past the
    # last complete layer, with the same error and size as a search of
    # its own, and still answers every radius up to that layer
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", cap)
    with pytest.raises(MemoryCapExceeded) as alone:
        ball_distances(params, complete + 1)
    assert alone.value.size == size
    with Ball(params) as ball:
        with pytest.raises(MemoryCapExceeded) as first:
            ball.layers(6)
        for radius in (complete + 1, 6, 9, complete + 1):
            with pytest.raises(MemoryCapExceeded) as again:
                ball.layers(radius)
            assert again.value.size == size
            assert str(again.value) == str(first.value) == str(alone.value)
        assert ball.radius == complete
        whole = ball.layers(complete)
        assert [len(layer) for layer in whole] == DL32_LAYERS[: complete + 1]
        for radius in range(complete + 1):
            assert ball.layers(radius) == whole[: radius + 1]


@pytest.mark.parametrize("cap,complete,size", REFUSALS)
def test_refused_suite_rows_keep_their_size(params, monkeypatch, cap, complete, size):
    # every row whose ball read passes the cap fails with the size that
    # the one-shot search gave it; the rows that read less still pass
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", cap)
    radii = {
        "word-metric-conformance": 5,
        "metric-axioms": 4,
        "comparison-lemmas": 3,
        "beta-closed-form": 5,
        "probe-exclusion": 6,
    }
    reports = {r.name: r for r in run_suites(["all"], params)}
    for name, radius in radii.items():
        report = reports[name]
        if radius <= complete:
            assert report.passed and "refused_size" not in report.details
        else:
            assert (report.cases, report.failures) == (0, 1)
            assert report.details == {"refused_size": size}
            assert report.first_failure == f"ball enumeration too large (at least {size})"


@pytest.mark.parametrize("d,q,radius", [(3, 2, 4), (4, 2, 3), (2, 3, 4)])
def test_ball_on_warm_coder_matches_cold(d, q, radius, monkeypatch):
    # a ball grown on a coder that earlier searches left behind has the
    # same distances in the same discovery order as one on a new coder
    params = DLParams(d, q)
    monkeypatch.setattr(dlgraph_mod, "_kept_coders", {})
    cold = list(ball_distances(params, radius).items())
    key = (d, q, DEFAULT_MEMORY_CAP)
    ball_distances(params, radius + 1)
    warm_codes = len(dlgraph_mod._kept_coders[key].coords)
    assert list(ball_distances(params, radius).items()) == cold
    assert len(dlgraph_mod._kept_coders[key].coords) == warm_codes


def test_coder_kept_only_up_to_kept_codes(params, monkeypatch):
    monkeypatch.setattr(dlgraph_mod, "_kept_coders", {})
    key = (3, 2, DEFAULT_MEMORY_CAP)
    ball_distances(params, 2)
    small = dlgraph_mod._kept_coders[key]
    assert 0 < len(small.coords) <= dlgraph_mod._KEPT_CODES
    # the next search of the same graph and cap takes that coder
    ball_distances(params, 3)
    assert dlgraph_mod._kept_coders[key] is small
    # a search that leaves more codes than _KEPT_CODES keeps no coder
    monkeypatch.setattr(dlgraph_mod, "_KEPT_CODES", len(small.coords))
    ball_distances(params, 4)
    assert len(small.coords) > dlgraph_mod._KEPT_CODES
    assert dlgraph_mod._kept_coders == {}
    # nor does a search stopped by the memory cap, once it holds as many
    monkeypatch.setattr(dlgraph_mod, "_KEPT_CODES", 10)
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", 100)
    with pytest.raises(MemoryCapExceeded):
        ball_distances(params, 3)
    assert dlgraph_mod._kept_coders == {}


@pytest.mark.parametrize("q", [2, 3])
def test_balanced_vertices_order_and_size(q):
    # one coordinate at depth 0 and (q-1) q^(j-1) at depth j >= 1 per tree
    params = DLParams(3, q)
    depths = (range(3), range(1, 2), range(4))
    got = balanced_vertices(params, depths)
    per_tree = [sum((q - 1) * q ** (j - 1) if j else 1 for j in r) for r in depths]
    assert len(got) == len(set(got)) == math.prod(per_tree)
    assert list(got) == sorted(got, key=vertex_sort_key)
    for v in got:
        assert make_vertex(params, v.coords) == v  # canonical and balanced
        assert v.heights == (0, 0, 0)
        assert all(c.m in r for c, r in zip(v.coords, depths))


def test_balanced_vertices_memory_cap(params):
    # the size is counted in closed form before any vertex is built, and
    # depths far past the cap take no large power
    for top in (41, 10**12):
        with pytest.raises(MemoryCapExceeded) as e:
            balanced_vertices(params, (range(1), range(1), range(1, top)))
        assert e.value.size > DEFAULT_MEMORY_CAP
    with pytest.raises(MemoryCapExceeded):
        balanced_vertices(params, (range(1), range(1), range(10**12, 10**12 + 1)))
    # an empty range empties the product without building the others
    assert balanced_vertices(params, (range(1), range(0), range(10**12))) == ()
    with pytest.raises(DimensionMismatch):
        balanced_vertices(params, (range(3), range(3)))


@pytest.mark.parametrize("bad", [range(0, 3, 2), range(3, 0, -1), range(-1, 2), [0, 1, 2]])
def test_balanced_vertices_rejects_malformed_depths(params, bad):
    # a step other than 1, a negative start or a list is refused by
    # name, never read as some other set of depths
    with pytest.raises(ValueError, match=r"^tree 2 depths must be a range of step 1"):
        balanced_vertices(params, (range(1), bad, range(1)))


def test_make_vertex_strictness(params):
    v = make_vertex(params, [(0, (1,)), (1, ()), (0, ())])
    assert v.heights == (1, -1, 0)
    with pytest.raises(ValueError):
        make_vertex(params, [(1, (0,)), (0, ()), (0, ())])
    with pytest.raises(DimensionMismatch):
        make_vertex(params, [(0, ()), (0, ())])
    with pytest.raises(HeightImbalance):
        make_vertex(params, [(0, (1,)), (0, ()), (0, ())])
    # depths and labels must be ints: no float truncation, no bool
    for bad in (
        [(1.0, (1,)), (0, ()), (0, ())],
        [(True, (1,)), (0, ()), (0, ())],
        [(0, (True,)), (1, ()), (0, ())],
        [(0, (1.0,)), (1, ()), (0, ())],
        [(0, (1,)), (1, ()), (False, ())],
    ):
        with pytest.raises(ValueError, match="must be an int"):
            make_vertex(params, bad)


def test_parse_format_round_trip(params, ball3):
    for v in ball3:
        assert parse_vertex(format_vertex(v), params) == v


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.lists(st.integers(0, 10**6), max_size=20))
def test_parse_format_round_trip_on_walks(d, q, steps):
    params = DLParams(d, q)
    v = identity(params)
    for i in steps:
        adj = neighbors(v)
        v = adj[i % len(adj)]
    assert parse_vertex(format_vertex(v), params) == v


def test_parse_vertex_warns_then_canonicalizes(params, origin):
    with pytest.warns(NonCanonicalWarning):
        v = parse_vertex("1:0|0:|0:", params)
    assert v == origin


def test_parse_vertex_errors(params):
    with pytest.raises(HeightImbalance):
        parse_vertex("0:1|0:|0:", params)
    with pytest.raises(VertexSyntax) as e:
        parse_vertex("0:|0:", params)
    assert e.value.position == 0
    with pytest.raises(VertexSyntax) as e:
        parse_vertex("0:|x:|0:", params)
    assert e.value.position == 3
    with pytest.raises(ValueError):
        parse_vertex("0:2|1:|0:", params)  # label 2 needs q >= 3


def test_sort_key_orders_identity_first(params, origin):
    vs = sorted(neighbors(origin) + [origin], key=vertex_sort_key)
    assert vs[0] == origin


def test_alpha_beta_shapes(params, origin):
    a, b = alpha_family(params), beta_family(params)
    assert a.at(0) == b.at(0) == origin
    a3 = a.at(3)
    assert a3.coords == (TreeVertex(0, (1, 1, 1)), TreeVertex(3, ()), TreeVertex(0, ()))
    b3 = b.at(3)
    assert b3.coords == (TreeVertex(0, ()), TreeVertex(0, ()), TreeVertex(3, (1, 1, 1)))
    for n in range(7):
        assert sum(a.at(n).heights) == 0
        assert sum(b.at(n).heights) == 0
    with pytest.raises(ValueError):
        a.at(-1)


def test_gamma_family(params, origin):
    g = gamma_family(params, [1, 3])
    assert g.name == "gamma:1,3"
    assert g.at(0) == origin
    g2 = g.at(2)
    assert g2.coords[0] == g2.coords[2] == TreeVertex(2, (1, 1))
    assert g2.coords[1] == TreeVertex(0, ())
    with pytest.raises(ValueError):
        gamma_family(params, [1, 2])  # tree 3 required
    with pytest.raises(ValueError):
        gamma_family(params, [3, 4])  # out of range for d = 3
    with pytest.raises(ValueError, match="more than once"):
        gamma_family(params, [3, 1, 3])  # a repeat is an error, not a set
    # tree indices must be ints: 1.7 is not truncated to 1, True is not 1
    for trees in ([1.7, 3], [True, 3], [3.0]):
        with pytest.raises(ValueError, match="must be an int"):
            gamma_family(params, trees)
    for n in (True, 1.0):
        with pytest.raises(ValueError, match="must be an int"):
            g.at(n)


def test_zeta_nu_points(params):
    z = zeta_point(params, 2, 3)
    assert z.coords[1] == TreeVertex(3, (1, 1, 1)) and z.heights == (0, 0, 0)
    v = nu_point(params, 1, 0, 2)
    assert v.coords == (TreeVertex(0, (0, 0)), TreeVertex(0, ()), TreeVertex(2, ()))
    with pytest.raises(ValueError):
        zeta_point(params, 4, 1)
    with pytest.raises(ValueError):
        nu_point(params, 3, 0, 1)
    with pytest.raises(ValueError):
        nu_point(params, 1, 2, 1)
    with pytest.raises(WrongDimension):
        nu_point(DLParams(4, 2), 1, 0, 1)
    for bad in ((True, 1), (2, 1.0), (2.0, 1), (2, False)):
        with pytest.raises(ValueError, match="must be an int"):
            zeta_point(params, *bad)
    for bad in ((1, True, 1), (True, 0, 1), (1, 0, 1.0), (1, 0.0, 1)):
        with pytest.raises(ValueError, match="must be an int"):
            nu_point(params, *bad)


def test_constant_families(params):
    z = zeta_family(params, 1, 2)
    assert z.at(0) == z.at(5) == zeta_point(params, 1, 2)
    v = nu_family(params, 2, 1, 3)
    assert v.at(1) == v.at(9) == nu_point(params, 2, 1, 3)


def test_beta_needs_three_trees():
    with pytest.raises(WrongDimension):
        beta_family(DLParams(2, 2))


def test_point_family_checks_shape(params, origin):
    ray = PointFamily("ray", origin, frozenset({1}), frozenset({0}))
    assert ray.params == params
    assert all(ray.at(n) == alpha_family(params).at(n) for n in range(5))
    assert ray.at(2).coords == (TreeVertex(0, (1, 1)), TreeVertex(2, ()), TreeVertex(0, ()))
    # a moving tree must sit at o in the base and be one of the d trees
    off = zeta_point(params, 1, 1)
    for down, up in (({0}, {0}), ({1}, {3}), ({-1}, {2})):
        with pytest.raises(ValueError, match="trivial in the base"):
            PointFamily("bad", off, frozenset(down), frozenset(up))
    # as many descending as climbing trees, and a balanced base
    with pytest.raises(HeightImbalance):
        PointFamily("lopsided", origin, frozenset({1, 2}), frozenset({0}))
    tilted = DLVertex((TreeVertex(0, (1,)), TreeVertex(0, ()), TreeVertex(0, ())), 2)
    with pytest.raises(HeightImbalance):
        PointFamily("tilted", tilted)
    # a family with no moving tree is constant
    assert PointFamily("still", origin).at(4) == origin
