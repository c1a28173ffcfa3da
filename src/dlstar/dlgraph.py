"""Diestel-Leader graphs: vertices, adjacency, balls, point families.

A vertex of DL_d(q) is a d-tuple of tree coordinates whose heights sum
to zero.  An edge moves up by one label in one coordinate and down by
one in another, so the graph is d(d-1)q regular.  Vertex literals join
the per-tree literals with '|', e.g. "0:0|2:1,0|2:1" for d = 3.

A point family x_n is given by its shape: a base vertex, the trees that
walk n down the spine and the trees that climb n label-1 edges.
horofn reads the shape to take limits exactly.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
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
# entries of one (U, U, width) array that the lemma screens build per base
# vertex: 2**25 int64 entries are 256 MiB.  DL_4(2) needs 589 * 589 * 72.
SCREEN_ENTRY_CAP = 2**25


@dataclass(frozen=True)
class DLParams:
    """Graph parameters: d tree factors, trees of valence q+1."""

    d: int = 3
    q: int = 2

    def __post_init__(self):
        _require_int(self.d, "d", 2, MAX_DIMENSION)
        _require_int(self.q, "q", 1)


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


def neighbors(v: DLVertex) -> list[DLVertex]:
    """All d(d-1)q adjacent vertices, in deterministic (i, j, label) order.

    Neighbor i,j,a moves coordinate i up along label a and coordinate j
    down.  Up appends a, except that label 0 from a spine vertex (m, ())
    with m > 0 lands on (m - 1, ()); down drops the last label, or from
    (m, ()) steps to (m + 1, ()).  Every move preserves the zero height
    sum and canonical form, so results are assembled without
    re-validation.
    """
    coords = v.coords
    q = v.q
    d = len(coords)
    out: list[DLVertex] = []
    downs = []
    for c in coords:
        if c.path:
            downs.append(TreeVertex(c.m, c.path[:-1]))
        else:
            downs.append(TreeVertex(c.m + 1, ()))
    for i in range(d):
        ci = coords[i]
        ups = []
        for a in range(q):
            if ci.m > 0 and not ci.path and a == 0:
                ups.append(TreeVertex(ci.m - 1, ()))
            else:
                ups.append(TreeVertex(ci.m, ci.path + (a,)))
        for j in range(d):
            if i == j:
                continue
            base = list(coords)
            base[j] = downs[j]
            for up in ups:
                base[i] = up
                out.append(DLVertex(tuple(base), q))
    return out


def ball_distances(
    params: DLParams, radius: int, max_vertices: int = DEFAULT_MEMORY_CAP
) -> dict[DLVertex, int]:
    """Breadth-first distances from the identity out to the given radius.

    Returns vertices in discovery order mapped to their graph distance.
    Equal tree coordinates are one shared object across the vertices,
    which about halves the ball's memory.  Raises MemoryCapExceeded once
    more than max_vertices are visited.
    """
    _require_int(radius, "radius", 0)
    start = identity(params)
    dist = {start: 0}
    frontier = [start]
    shared: dict[TreeVertex, TreeVertex] = {}
    for layer in range(radius):
        nxt: list[DLVertex] = []
        for v in frontier:
            for w in neighbors(v):
                if w not in dist:
                    w = DLVertex(tuple([shared.setdefault(c, c) for c in w.coords]), w.q)
                    dist[w] = layer + 1
                    nxt.append(w)
            if len(dist) > max_vertices:
                raise MemoryCapExceeded("ball enumeration too large", len(dist))
        frontier = nxt
    return dist


def balanced_vertices(params: DLParams, depths: Sequence[range]) -> tuple[DLVertex, ...]:
    """Every vertex whose coordinates all have height 0, tree t's spine
    depth in depths[t] (a range of nonnegative depths, step 1), with
    canonical labels, in vertex_sort_key order.

    A tree has one such coordinate at depth 0 and (q-1) q^(j-1) at each
    depth j >= 1.  Raises MemoryCapExceeded, before building any vertex,
    when the product of those counts passes DEFAULT_MEMORY_CAP."""
    if len(depths) != params.d:
        raise DimensionMismatch(f"expected {params.d} depth ranges, got {len(depths)}")
    q = params.q
    # shallower[j] coordinates have depth < j.  For q >= 2 depth top alone
    # holds more than the cap, and at q = 1 no depth past 0 holds any, so
    # no depth past top is counted or built.
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
    """Lexicographic key on (m, path) per coordinate, for stable output."""
    return tuple((c.m, c.path) for c in v.coords)


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
        if self.up:
            _require_label_one(self.params, self.name)

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


def _require_label_one(params: DLParams, who: str) -> None:
    if params.q < 2:
        raise ValueError(f"{who} uses label 1 and needs q >= 2")


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
    if k > 0:
        _require_label_one(params, "zeta")
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
