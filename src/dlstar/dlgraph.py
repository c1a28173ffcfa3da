"""Diestel-Leader graphs: vertices, adjacency, searches, point families.

A vertex of DL_d(q) is a d-tuple of tree coordinates whose heights sum
to zero.  An edge moves up by one label in one coordinate and down by
one in another, so the graph is d(d-1)q regular.  Vertex literals join
the per-tree literals with '|', e.g. "0:0|2:1,0|2:1" for d = 3.

Both breadth-first searches live here: ball_distances and _bfs_search,
which metric.bfs_distance runs.  No other module reads the vertex coder.

A point family x_n is given by its shape: a base vertex, the trees that
walk n down the spine and the trees that climb n label-1 edges.
horofn reads the shape to take limits exactly.
"""

from __future__ import annotations

import itertools
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    HeightImbalance,
    MemoryCapExceeded,
    NonCanonicalWarning,
    VertexSyntax,
    WrongDimension,
)
from .treecoord import (
    ORIGIN,
    TreeVertex,
    _require_int,
    canonical_paths,
    canonicalize,
    format_tree,
    parse_tree,
)

MAX_DIMENSION = 8
DEFAULT_MEMORY_CAP = 2_000_000


@dataclass(frozen=True)
class DLParams:
    """Graph parameters: d tree factors, trees of valence q+1, where
    q >= 2 so that the label 1 the point families climb exists."""

    d: int = 3
    q: int = 2

    def __post_init__(self):
        _require_int(self.d, "d", 2, MAX_DIMENSION)
        _require_int(self.q, "q", 2)


class DLVertex(NamedTuple):
    """Vertex of DL_d(q): canonical tree coordinates plus the label base q."""

    coords: tuple[TreeVertex, ...]
    q: int

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def params(self) -> DLParams:
        return DLParams(len(self.coords), self.q)

    @property
    def heights(self) -> tuple[int, ...]:
        return tuple(c.h for c in self.coords)


def make_vertex(params: DLParams, coords: Iterable) -> DLVertex:
    """Validate and assemble a vertex from per-tree coordinates.

    Accepts TreeVertex values or raw (m, path) pairs of ints; coordinates
    must already be canonical so that accidental aliasing is caught
    rather than silently rewritten (parse_vertex is the lenient entry
    point).  Depths and labels that are not ints, bool included, are
    rejected rather than coerced.
    """
    cs = tuple(TreeVertex(c[0], tuple(c[1])) for c in coords)
    if len(cs) != params.d:
        raise DimensionMismatch(f"expected {params.d} coordinates, got {len(cs)}")
    for c in cs:
        canonical = canonicalize(c, params.q)
        if canonical != c:
            raise ValueError(f"coordinate {format_tree(c)} is not canonical")
    if sum(c.h for c in cs) != 0:
        raise HeightImbalance(f"heights {tuple(c.h for c in cs)} do not sum to 0")
    return DLVertex(cs, params.q)


def identity(params: DLParams) -> DLVertex:
    return DLVertex(tuple(ORIGIN for _ in range(params.d)), params.q)


# tree coordinates whose moves _tree_moves keeps, the most recently used
_KEPT_MOVES = 1 << 12


@lru_cache(maxsize=_KEPT_MOVES)
def _tree_moves(c: TreeVertex, q: int) -> tuple[tuple[TreeVertex, ...], TreeVertex]:
    """The q up moves of one tree coordinate, by label, and its down move.

    Up appends a label, except that label 0 from a spine vertex (m, ())
    with m > 0 lands on (m - 1, ()); down drops the last label, or from
    (m, ()) steps to (m + 1, ()).  Both keep the coordinate canonical.
    The result is immutable and memoized for the last _KEPT_MOVES
    distinct (c, q), so every caller shares one copy: neighbors and
    _VertexCoder take all their moves from here.
    """
    m, path = c
    if path:
        return tuple(TreeVertex(m, path + (a,)) for a in range(q)), TreeVertex(m, path[:-1])
    ups = [TreeVertex(m, (a,)) for a in range(q)]
    if m > 0:
        ups[0] = TreeVertex(m - 1, ())
    return tuple(ups), TreeVertex(m + 1, ())


def _require_degree_within_cap(d: int, q: int) -> None:
    """Raise MemoryCapExceeded when the d(d-1)q neighbors of one vertex
    alone pass DEFAULT_MEMORY_CAP; callers check before building any."""
    degree = d * (d - 1) * q
    if degree > DEFAULT_MEMORY_CAP:
        raise MemoryCapExceeded(f"DL_{d}({q}) has too many neighbors per vertex", degree)


def neighbors(v: DLVertex) -> list[DLVertex]:
    """All d(d-1)q adjacent vertices, in deterministic (i, j, label) order.

    Neighbor i,j,a moves coordinate i up along label a and coordinate j
    down, both moves read from the _tree_moves memo.  One working copy
    of the coordinates serves every neighbor: for each pair (i, j) it
    takes tree j's down move and then each of tree i's up moves, and
    tree j is restored before the next pair.  Every move preserves the
    zero height sum and canonical form, so results are assembled without
    re-validation.  Raises MemoryCapExceeded, before building any, when
    there are more than DEFAULT_MEMORY_CAP of them.
    """
    coords = v.coords
    q = v.params.q  # DLParams refuses a hand-built vertex's q < 2
    _require_degree_within_cap(len(coords), q)
    moves = [_tree_moves(c, q) for c in coords]
    new = tuple.__new__  # DLVertex(...) less the namedtuple constructor's frame
    out: list[DLVertex] = []
    base = list(coords)
    for i, (ups, _) in enumerate(moves):
        for j, (_, down) in enumerate(moves):
            if i == j:
                continue
            base[j] = down
            for up in ups:
                base[i] = up
                out.append(new(DLVertex, (tuple(base), q)))
            base[j] = coords[j]
        base[i] = coords[i]
    return out


class _VertexCoder:
    """Packs the vertices of the searches of one graph into ints.

    Each tree coordinate a search meets gets the next int code from an
    intern table, and a vertex becomes the key sum of code_t << (bits * t)
    over its trees.  When tree t first holds a code, the code's q up
    moves and its down move, read from the same _tree_moves memo that
    neighbors reads, are interned and kept for tree t as the change they
    make to a key, so neighbor (i, j, a) of a key is the key plus tree
    j's down change plus tree i's label-a up change.
    Searches (ball_distances, _bfs_search) take their coder from
    _kept_coder, so codes and changes carry over to the next search of
    the same graph and memory cap.

    bits fits every code as long as a search expands a vertex only
    while it holds at most max_vertices vertices, or just its start
    vertices, and starts from a coder of at most _KEPT_CODES codes.  A
    new code appears only among the moves of an expanded vertex, and so
    in a neighbor that no held vertex equals, which the search inserts
    unless it stops within that expansion.  So when an expansion starts
    every code the search added belongs to a held vertex: with the codes
    it started with, at most d * (max_vertices + 2) + _KEPT_CODES codes,
    and the expansion adds at most d * (q + 1).  All fit below
    d * (max_vertices + _KEPT_CODES + q + 3).
    """

    def __init__(self, d: int, q: int, max_vertices: int):
        self.q = q
        bits = (d * (max_vertices + _KEPT_CODES + q + 3)).bit_length()
        self.mask = (1 << bits) - 1
        self.shifts = [bits * t for t in range(d)]
        self.coords: list[TreeVertex] = []
        self._codes: dict[TreeVertex, int] = {}
        self._changes: list[dict[int, tuple[list[int], int]]] = [{} for _ in range(d)]

    def code(self, c: TreeVertex) -> int:
        code = self._codes.get(c)
        if code is None:
            code = len(self.coords)
            if code > self.mask:
                raise RuntimeError("tree coordinate codes overflow their field")
            self._codes[c] = code
            self.coords.append(c)
        return code

    def encode(self, v: DLVertex) -> int:
        return sum(self.code(c) << s for c, s in zip(v.coords, self.shifts))

    def decode(self, key: int) -> DLVertex:
        coords, mask = self.coords, self.mask
        vertex = tuple([coords[key >> s & mask] for s in self.shifts]), self.q
        # DLVertex(...) less the namedtuple constructor's frame, as in neighbors
        return tuple.__new__(DLVertex, vertex)

    def _key_changes(self, t: int, c: int) -> tuple[list[int], int]:
        """Up and down changes to a key whose tree t holds code c."""
        ups, down = _tree_moves(self.coords[c], self.q)
        s = self.shifts[t]
        changes = self._changes[t][c] = (
            [(self.code(u) - c) << s for u in ups],
            (self.code(down) - c) << s,
        )
        return changes

    def neighbor_keys(self, key: int) -> list[int]:
        """Keys of neighbors(decode(key)), in the same (i, j, label) order."""
        mask = self.mask
        moves = [
            self._changes[t].get(key >> s & mask) or self._key_changes(t, key >> s & mask)
            for t, s in enumerate(self.shifts)
        ]
        bases = [key + down for _, down in moves]
        return [
            base + up
            for i, (ups, _) in enumerate(moves)
            for j, base in enumerate(bases)
            if i != j
            for up in ups
        ]


# A search leaves its coder here, keyed by (d, q, max_vertices), for the
# next search of the same graph and memory cap, if the coder holds at
# most _KEPT_CODES codes.
_KEPT_CODES = 1 << 12
_kept_coders: dict[tuple[int, int, int], _VertexCoder] = {}


@contextmanager
def _kept_coder(d: int, q: int, max_vertices: int):
    """The coder the last search of this graph and cap left, or a new one.

    The search owns it until it ends, by a result or an exception; then
    the coder is left for the next search if it holds at most
    _KEPT_CODES codes, and dropped otherwise.
    """
    key = (d, q, max_vertices)
    coder = _kept_coders.pop(key, None) or _VertexCoder(d, q, max_vertices)
    try:
        yield coder
    finally:
        if len(coder.coords) <= _KEPT_CODES:
            _kept_coders[key] = coder


def ball_distances(params: DLParams, radius: int) -> dict[DLVertex, int]:
    """Breadth-first distances from the identity out to the given radius.

    Returns vertices in discovery order mapped to their graph distance.
    The search runs on the packed int keys of the _VertexCoder kept for
    this graph and DEFAULT_MEMORY_CAP (_kept_coder), and decodes them
    once at the end.  The coder's intern table holds one object per
    distinct tree coordinate, shared by every vertex that has it, which
    about halves the ball's memory.  Raises MemoryCapExceeded once more
    than DEFAULT_MEMORY_CAP are visited, or at radius >= 1 before the
    first expansion when one vertex has more neighbors than that.
    """
    _require_int(radius, "radius", 0)
    if radius:
        _require_degree_within_cap(params.d, params.q)
    limit = DEFAULT_MEMORY_CAP
    with _kept_coder(params.d, params.q, limit) as coder:
        dist = {coder.encode(identity(params)): 0}
        frontier = list(dist)
        for layer in range(1, radius + 1):
            nxt: list[int] = []
            for v in frontier:
                for w in coder.neighbor_keys(v):
                    if w not in dist:
                        dist[w] = layer
                        nxt.append(w)
                if len(dist) > limit:
                    raise MemoryCapExceeded("ball enumeration too large", len(dist))
            frontier = nxt
        return {coder.decode(k): r for k, r in dist.items()}


def _bfs_search(x: DLVertex, y: DLVertex, cap: int) -> tuple[int | None, int]:
    """The distance of x and y, or None past cap, and the number of
    vertices expanded; metric.bfs_distance checks the inputs.

    Meet-in-the-middle search (Pohl 1971): one ball grows around x and
    one around y.  Every step expands one whole layer of whichever
    frontier is smaller, so both balls stay near radius distance / 2.
    Before a step the balls hold every vertex within depth_a of x and
    within depth_b of y and share no vertex, so the distance exceeds
    depth_a + depth_b.  A new vertex at depth_a + 1 that the other ball
    already holds closes a path of length at most depth_a + 1 + depth_b,
    hence exactly that: the first hit is the distance.  This module
    imports nothing from metric, so the search cannot read the formula.
    Raises MemoryCapExceeded once the balls hold more than
    DEFAULT_MEMORY_CAP vertices, or at cap >= 1 before the first
    expansion when one vertex has more neighbors than that.
    """
    limit = DEFAULT_MEMORY_CAP
    if x == y:
        return 0, 0
    if cap:
        _require_degree_within_cap(len(x.coords), x.q)
    with _kept_coder(len(x.coords), x.q, limit) as coder:
        near, far = {coder.encode(x): 0}, {coder.encode(y): 0}
        near_front, far_front = list(near), list(far)
        near_depth = far_depth = 0
        expanded = 0
        while near_depth + far_depth < cap:
            if len(far_front) < len(near_front):
                near, far = far, near
                near_front, far_front = far_front, near_front
                near_depth, far_depth = far_depth, near_depth
            layer = near_depth + 1
            nxt = []
            for v in near_front:
                expanded += 1
                for w in coder.neighbor_keys(v):
                    if w in near:
                        continue
                    met = far.get(w)
                    if met is not None:
                        return layer + met, expanded
                    near[w] = layer
                    nxt.append(w)
                if len(near) + len(far) > limit:
                    raise MemoryCapExceeded(
                        "breadth-first search too large", len(near) + len(far)
                    )
            # DL_d(q) is infinite and connected, so no layer is empty
            near_front, near_depth = nxt, layer
        return None, expanded


def balanced_vertices(params: DLParams, depths: Sequence[range]) -> tuple[DLVertex, ...]:
    """Every vertex whose coordinates all have height 0, tree t's spine
    depth in depths[t] (a range of nonnegative depths, step 1), with
    canonical labels, in vertex_sort_key order.

    A tree has one such coordinate at depth 0 and (q-1) q^(j-1) at each
    depth j >= 1.  Raises MemoryCapExceeded, before building any vertex,
    when the product of those counts passes DEFAULT_MEMORY_CAP."""
    if len(depths) != params.d:
        raise DimensionMismatch(f"expected {params.d} depth ranges, got {len(depths)}")
    for t, r in enumerate(depths, 1):
        if not isinstance(r, range) or r.step != 1 or r.start < 0:
            raise ValueError(
                f"tree {t} depths must be a range of step 1 from a nonnegative start, got {r!r}"
            )
    q = params.q
    # shallower[j] coordinates have depth < j.  Depth top alone holds more
    # than the cap, so no depth past top is counted or built.
    top = DEFAULT_MEMORY_CAP.bit_length() + 1
    shallower = [0] + [q ** (j - 1) for j in range(1, top + 2)]
    depths = [range(min(r.start, top), min(r.stop, top + 1)) if r else r for r in depths]
    size = math.prod(shallower[r.stop] - shallower[r.start] if r else 0 for r in depths)
    if size > DEFAULT_MEMORY_CAP:
        raise MemoryCapExceeded("balanced vertex enumeration too large", size)
    if not size:  # no vertex, though another tree's range may reach top
        return ()
    per_tree = [[TreeVertex(j, p) for j in r for p in canonical_paths(j, q)] for r in depths]
    return tuple(DLVertex(coords, q) for coords in itertools.product(*per_tree))


def vertex_sort_key(v: DLVertex):
    """Lexicographic key on (m, path) per coordinate, for stable output:
    the coordinates themselves, as each TreeVertex is an (m, path) tuple."""
    return v.coords


def format_vertex(v: DLVertex) -> str:
    return "|".join(format_tree(c) for c in v.coords)


def parse_vertex(text: str, params: DLParams) -> DLVertex:
    """Parse a '|'-joined vertex literal under the given parameters.

    Syntax errors raise VertexSyntax with a character position; label
    range and height balance are enforced.  Legal but non-canonical
    coordinates are canonicalized with a NonCanonicalWarning.
    """
    pieces = text.split("|")
    if len(pieces) != params.d:
        raise VertexSyntax(
            f"expected {params.d} '|'-separated coordinates, got {len(pieces)}", 0
        )
    coords: list[TreeVertex] = []
    offset = 0
    rewrote = False
    for piece in pieces:
        raw = parse_tree(piece, offset)
        cooked = canonicalize(raw, params.q)
        if cooked != raw:
            rewrote = True
        coords.append(cooked)
        offset += len(piece) + 1
    if rewrote:
        warnings.warn(
            f"non-canonical coordinates in {text!r} were rewritten",
            NonCanonicalWarning,
            stacklevel=2,
        )
    if sum(c.h for c in coords) != 0:
        raise HeightImbalance(
            f"heights {tuple(c.h for c in coords)} of {text!r} do not sum to 0"
        )
    return DLVertex(tuple(coords), params.q)


# ── point families ──────────────────────────────────────────────────────────

@dataclass(frozen=True)
class PointFamily:
    """Named vertex sequence x_n used to approach the boundary, by shape.

    x_n agrees with base except in the moving trees (0-based indices):
    a tree in down walks n down the spine, a tree in up climbs n label-1
    edges, and a tree in both makes the balanced excursion (n, 1^n).
    Moving trees must be trivial in base, and down and up must have the
    same size so that every x_n stays balanced.
    """

    name: str
    base: DLVertex
    down: frozenset[int] = frozenset()
    up: frozenset[int] = frozenset()

    def __post_init__(self):
        moving = self.down | self.up
        if any(not 0 <= t < self.base.d or self.base.coords[t] != ORIGIN for t in moving):
            raise ValueError(
                f"family {self.name}: moving trees must be among 0..{self.base.d - 1} "
                "and trivial in the base"
            )
        if len(self.down) != len(self.up) or sum(self.base.heights) != 0:
            raise HeightImbalance(f"family {self.name} does not keep heights balanced")

    @property
    def params(self) -> DLParams:
        return self.base.params

    def at(self, n: int) -> DLVertex:
        _require_int(n, "family index", 0)
        coords = list(self.base.coords)
        for t in self.down | self.up:
            coords[t] = TreeVertex(
                n if t in self.down else 0, (1,) * n if t in self.up else ()
            )
        return DLVertex(tuple(coords), self.base.q)


def alpha_family(params: DLParams) -> PointFamily:
    """alpha_n: tree 1 climbs label-1 edges to height n, tree 2 descends to -n."""
    return PointFamily("alpha", identity(params), frozenset({1}), frozenset({0}))


def beta_family(params: DLParams) -> PointFamily:
    """beta_n: tree 3 walks n down the spine then n up label-1 edges,
    i.e. gamma_family over tree 3 alone."""
    if params.d < 3:
        raise WrongDimension("beta needs at least 3 tree coordinates")
    return PointFamily("beta", identity(params), frozenset({2}), frozenset({2}))


def gamma_family(params: DLParams, trees: Iterable[int]) -> PointFamily:
    """gamma_n over a tree subset containing 3: each listed tree gets the
    balanced down-then-up excursion of depth n."""
    trees = list(trees)
    for t in trees:
        _require_int(t, "tree index", 1, params.d)
    chosen = sorted(trees)
    if len(set(chosen)) != len(chosen):
        raise ValueError(f"gamma lists a tree more than once: {trees}")
    if 3 not in chosen:
        raise ValueError("gamma requires tree 3 among its indices")
    moving = frozenset(t - 1 for t in chosen)
    name = "gamma:" + ",".join(str(t) for t in chosen)
    return PointFamily(name, identity(params), moving, moving)


def zeta_point(params: DLParams, tree: int, k: int) -> DLVertex:
    """Balanced excursion of depth k in one tree, trivial elsewhere."""
    _require_int(tree, "tree index", 1, params.d)
    _require_int(k, "k", 0)
    coords = [ORIGIN] * params.d
    coords[tree - 1] = TreeVertex(k, (1,) * k)
    return DLVertex(tuple(coords), params.q)


def nu_point(params: DLParams, tree: int, eps: int, k: int) -> DLVertex:
    """Climb k label-eps edges in tree 1 or 2, descend k in tree 3."""
    if params.d != 3:
        raise WrongDimension("nu points are only defined for d = 3")
    _require_int(tree, "tree index", 1, 2)
    _require_int(eps, "label", 0, params.q - 1)
    _require_int(k, "k", 0)
    coords = [ORIGIN, ORIGIN, TreeVertex(k, ())]
    coords[tree - 1] = TreeVertex(0, (eps,) * k)
    return DLVertex(tuple(coords), params.q)


def zeta_family(params: DLParams, tree: int, k: int) -> PointFamily:
    """Constant family sitting at zeta_point(tree, k)."""
    return PointFamily(f"zeta:{tree},{k}", zeta_point(params, tree, k))


def nu_family(params: DLParams, tree: int, eps: int, k: int) -> PointFamily:
    """Constant family sitting at nu_point(tree, eps, k)."""
    return PointFamily(f"nu:{tree},{eps},{k}", nu_point(params, tree, eps, k))
