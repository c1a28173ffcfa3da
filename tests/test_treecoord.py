"""Tree coordinate tests, cross-checked against an independent string model.

The model: pick an anchor on the spine M levels below o and address
every vertex by its absolute climb string from the anchor (labels as
characters).  Then o is '0'*M, the meet of two vertices is their
longest common prefix, distances are string-length differences, and a
tree move appends or drops one character.  This exercises exactly the
same tree without sharing any code with the (m, path) representation;
the moves are checked where the graph makes them, in neighbors.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dlstar import (
    ORIGIN,
    DLVertex,
    TreeVertex,
    VertexSyntax,
    canonical_paths,
    canonicalize,
    format_tree,
    is_canonical,
    neighbors,
    pair_stats,
    parse_tree,
    tree_distance,
)
from dlstar.dlgraph import _tree_moves


def all_strings(q, max_len):
    for n in range(max_len + 1):
        for t in itertools.product("0123456789"[:q], repeat=n):
            yield "".join(t)


def string_to_vertex(s, anchor_depth):
    leading = len(s) - len(s.lstrip("0"))
    k = min(leading, anchor_depth)
    return TreeVertex(anchor_depth - k, tuple(int(c) for c in s[k:]))


def string_stats(sx, sy):
    lcp = 0
    for a, b in zip(sx, sy):
        if a != b:
            break
        lcp += 1
    return len(sx) - lcp, len(sy) - lcp


@pytest.mark.parametrize("q,anchor,max_len", [(2, 3, 6), (3, 2, 4)])
def test_pair_stats_matches_string_model(q, anchor, max_len):
    strings = list(all_strings(q, max_len))
    verts = [string_to_vertex(s, anchor) for s in strings]
    for v in verts:
        assert is_canonical(v)
    n = 0
    for (sx, x), (sy, y) in itertools.product(zip(strings, verts), repeat=2):
        assert pair_stats(x, y) == string_stats(sx, sy)
        n += 1
    assert n == len(strings) ** 2


@pytest.mark.parametrize(
    "d,q,anchor,max_len", [(3, 2, 3, 4), (2, 3, 2, 3), (4, 2, 2, 3), (3, 3, 2, 3)]
)
def test_neighbors_match_string_model(d, q, anchor, max_len):
    # every vertex of DL_d(q) whose coordinate strings have length
    # 1..max_len: nonempty strings keep each descent inside the model,
    # and heights len(s) - anchor summing to zero keep the vertex in the
    # graph.  Neighbor (i, j, a) appends a to string i and drops the
    # last character of string j, in neighbors' (i, j, a) order.  Each
    # vertex is asked twice, so the second call reads tree moves that
    # the memo already holds.
    strings = [s for s in all_strings(q, max_len) if s]
    spine_climbs = origin_descents = 0
    for tup in itertools.product(strings, repeat=d):
        if sum(map(len, tup)) != d * anchor:
            continue
        v = DLVertex(tuple(string_to_vertex(s, anchor) for s in tup), q)
        want = []
        for i, j in itertools.permutations(range(d), 2):
            for a in range(q):
                moved = list(tup)
                moved[i] += str(a)
                moved[j] = moved[j][:-1]
                want.append(DLVertex(tuple(string_to_vertex(s, anchor) for s in moved), q))
        assert neighbors(v) == want
        assert neighbors(v) == want
        # a label-0 climb from (m, ()) with m > 0 collapses to (m - 1, ())
        spine_climbs += sum(c.m > 0 and not c.path for c in v.coords)
        origin_descents += v.coords.count(ORIGIN)
    assert spine_climbs > 0 and origin_descents > 0


def test_tree_moves_are_immutable():
    # one memoized result is shared by every caller, so it is made of tuples
    for c in (ORIGIN, TreeVertex(2, ()), TreeVertex(1, (1, 0))):
        ups, down = _tree_moves(c, 3)
        assert isinstance(ups, tuple) and len(ups) == 3
        assert isinstance(down, TreeVertex)
        assert _tree_moves(c, 3) is _tree_moves(c, 3)


def test_canonicalize_cases():
    assert canonicalize(TreeVertex(3, (0, 0, 1, 0)), 2) == TreeVertex(1, (1, 0))
    assert canonicalize(TreeVertex(2, (0, 0)), 2) == ORIGIN
    assert canonicalize(TreeVertex(1, (0, 0)), 2) == TreeVertex(0, (0,))
    assert canonicalize(TreeVertex(0, (0, 1)), 2) == TreeVertex(0, (0, 1))
    assert canonicalize(TreeVertex(5, ()), 2) == TreeVertex(5, ())


def test_canonicalize_validation():
    with pytest.raises(ValueError):
        canonicalize(TreeVertex(-1, ()), q=2)
    with pytest.raises(ValueError):
        canonicalize(TreeVertex(0, (2,)), q=2)
    with pytest.raises(ValueError):
        canonicalize(TreeVertex(0, (-1,)), q=2)
    for bad in (TreeVertex(1.0, ()), TreeVertex(True, ()), TreeVertex(0, (True,)),
                TreeVertex(0, (1.0,)), TreeVertex("1", ())):
        with pytest.raises(ValueError, match="must be an int"):
            canonicalize(bad, q=2)


def test_height_and_length():
    v = TreeVertex(2, (1, 0, 1))
    assert v.l == 3 and v.m == 2 and v.h == 1
    assert ORIGIN.h == 0


def test_pair_stats_branch_cases():
    # equal spine depth: shared climb prefix cancels
    assert pair_stats(TreeVertex(0, (1, 0)), TreeVertex(0, (1, 1))) == (1, 1)
    # x branches higher than y
    assert pair_stats(TreeVertex(1, (1,)), TreeVertex(2, ())) == (2, 0)
    # x branches lower than y
    assert pair_stats(TreeVertex(2, ()), TreeVertex(0, (1,))) == (0, 3)
    # argument order matters: stats are measured from x then from y
    v = TreeVertex(2, (1,))
    assert pair_stats(ORIGIN, v) == (2, 1)
    assert pair_stats(v, ORIGIN) == (1, 2)
    assert tree_distance(ORIGIN, v) == tree_distance(v, ORIGIN) == 3


def test_pair_stats_rejects_non_canonical():
    with pytest.raises(ValueError):
        pair_stats(TreeVertex(1, (0,)), ORIGIN)
    with pytest.raises(ValueError):
        pair_stats(ORIGIN, TreeVertex(2, (0, 1)))
    # it raises exactly when is_canonical fails on either side, over every
    # (m, path) with m <= 3 and a path of length <= 3 over labels 0..2:
    # (0, (0, ...)) is canonical, (m > 0, (0, ...)) is not
    verts = [
        TreeVertex(m, path)
        for m in range(4)
        for n in range(4)
        for path in itertools.product(range(3), repeat=n)
    ]
    assert pair_stats(TreeVertex(0, (0, 1)), ORIGIN) == (2, 0)
    for x, y in itertools.product(verts, repeat=2):
        if is_canonical(x) and is_canonical(y):
            pair_stats(x, y)
        else:
            with pytest.raises(ValueError, match="^pair_stats requires canonical vertices$"):
                pair_stats(x, y)


def test_canonical_paths_counts():
    assert list(canonical_paths(0, 2)) == [()]
    threes = list(canonical_paths(3, 2))
    assert len(threes) == 4 and all(p[0] == 1 for p in threes)
    assert len(list(canonical_paths(2, 3))) == 6
    assert len(set(canonical_paths(4, 3))) == 2 * 27


def _raw_vertices(q):
    return st.builds(
        TreeVertex, st.integers(0, 6), st.lists(st.integers(0, q - 1), max_size=8).map(tuple)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(lambda q: st.tuples(st.just(q), _raw_vertices(q))))
def test_canonicalize_is_idempotent(case):
    q, v = case
    c = canonicalize(v, q)
    assert is_canonical(c)
    assert canonicalize(c, q) == c
    assert parse_tree(format_tree(c)) == c


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda q: st.tuples(st.just(q), st.lists(_raw_vertices(q), min_size=2, max_size=2))
))
def test_pair_stats_swaps_with_arguments(case):
    q, pair = case
    x, y = (canonicalize(v, q) for v in pair)
    assert pair_stats(x, y) == pair_stats(y, x)[::-1]


def test_format_parse_round_trip():
    for v in (ORIGIN, TreeVertex(2, ()), TreeVertex(0, (1,)), TreeVertex(3, (1, 0, 2))):
        assert parse_tree(format_tree(v)) == v
    assert format_tree(TreeVertex(2, (1, 0))) == "2:1,0"
    assert parse_tree("0:") == ORIGIN


def test_parse_keeps_raw_form():
    # canonicalization is the caller's job, so rewrites stay observable
    assert parse_tree("2:0,1") == TreeVertex(2, (0, 1))


def test_parse_errors_carry_positions():
    with pytest.raises(VertexSyntax) as e:
        parse_tree("1")
    assert e.value.position == 0
    with pytest.raises(VertexSyntax) as e:
        parse_tree("a:1")
    assert e.value.position == 0
    with pytest.raises(VertexSyntax) as e:
        parse_tree("2:1,x")
    assert e.value.position == 4
    with pytest.raises(VertexSyntax) as e:
        parse_tree("2:1,x", offset=10)
    assert e.value.position == 14
    with pytest.raises(VertexSyntax) as e:
        parse_tree("2:1,,1")
    assert e.value.position == 4
    # a label longer than int()'s 4,300-digit string limit
    with pytest.raises(VertexSyntax) as e:
        parse_tree("2:1," + "7" * 5000, offset=6)
    assert e.value.position == 10
    # unicode digits pass str.isdigit but are not valid labels
    with pytest.raises(VertexSyntax):
        parse_tree("²:1")
