"""Coordinates on the regular tree underlying each Diestel-Leader factor.

The tree T has valence q+1: every vertex owns one predecessor below it
and q successors above it, the successors being labeled 0..q-1.  A
basepoint o is fixed together with the descending spine below it, and
every spine vertex reaches the next vertex toward o as its successor
labeled 0.

A vertex v is addressed by the pair (m, path): walk m edges down the
spine from o, then climb the successor labels in path.  Writing l(v)
for the climb length and h(v) = l(v) - m(v) for the height, the pair is
canonical when it does not start by climbing back along the spine, i.e.
when m == 0, path is empty, or path[0] != 0.  Canonical pairs are in
bijection with tree vertices, and (m, (0,) + rest) collapses to
(m - 1, rest).

Text literals have the form "m:p0,p1,..." with an empty label list
allowed, e.g. "2:" is the spine vertex two below o and "0:1" is the
successor of o labeled 1.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import VertexSyntax


class TreeVertex(NamedTuple):
    """Canonical spine-relative address of a tree vertex."""

    m: int
    path: tuple[int, ...]

    @property
    def l(self) -> int:
        """Climb length above the meet with the basepoint."""
        return len(self.path)

    @property
    def h(self) -> int:
        """Height relative to o: climb length minus spine depth."""
        return len(self.path) - self.m


ORIGIN = TreeVertex(0, ())


def is_canonical(v: TreeVertex) -> bool:
    return v.m == 0 or not v.path or v.path[0] != 0


def _require_int(value, what: str, lo: int | None = None, hi: int | None = None) -> None:
    """Raise ValueError unless value is an int in [lo, hi], naming it as what.

    A bound left None is open; hi is only given together with lo.
    """
    # int() would truncate 1.5 and accept True, so check the type instead
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        span = (
            f"in [{lo}, {hi}]" if hi is not None
            else "nonnegative" if lo == 0
            else f"at least {lo}"
        )
        raise ValueError(f"{what} must be {span}, got {value}")


def canonicalize(v: TreeVertex, q: int) -> TreeVertex:
    """Rewrite (m, path) to the canonical address of the same vertex.

    Validates that q is a positive int, m a nonnegative int and the
    labels ints in [0, q - 1] (bool and float are rejected, not
    coerced).  Applies (m, (0,)+rest) -> (m-1, rest) until the leading
    label no longer runs along the spine.
    """
    m, path = v[0], tuple(v[1])
    _require_int(q, "q", 1)
    _require_int(m, "spine depth", 0)
    for a in path:
        _require_int(a, "label", 0, q - 1)
    while m > 0 and path and path[0] == 0:
        m -= 1
        path = path[1:]
    return TreeVertex(m, path)


def pair_stats(x: TreeVertex, y: TreeVertex) -> tuple[int, int]:
    """Distances (m, l) from x and from y to their meet x^y.

    Both inputs must be canonical.  The meet is the highest common
    point of the predecessor rays of x and y; m is measured from x,
    l from y, and the tree distance is their sum.  The three cases
    split on the spine depths: when x branches off higher than y the
    meet is y's branch point, and symmetrically; at equal depth the
    shared climb prefix cancels.
    """
    if not is_canonical(x) or not is_canonical(y):
        raise ValueError("pair_stats requires canonical vertices")
    mx, px = x
    my, py = y
    if mx < my:
        return my + len(px) - mx, len(py)
    if mx > my:
        return len(px), mx + len(py) - my
    shared = 0
    for a, b in zip(px, py):
        if a != b:
            break
        shared += 1
    return len(px) - shared, len(py) - shared


def tree_distance(x: TreeVertex, y: TreeVertex) -> int:
    a, b = pair_stats(x, y)
    return a + b


def canonical_paths(length: int, q: int):
    """Every climb of the given length whose address is canonical
    at positive spine depth, i.e. paths not starting with label 0.
    There are (q-1) q**(length-1) of them for length >= 1.  The length
    and q are checked on the call, before the first path."""
    _require_int(length, "length", 0)
    _require_int(q, "q", 1)
    if length == 0:
        return iter([()])
    return (
        (first,) + rest
        for first in range(1, q)
        for rest in itertools.product(range(q), repeat=length - 1)
    )


def format_tree(v: TreeVertex) -> str:
    return f"{v.m}:{','.join(str(a) for a in v.path)}"


def parse_tree(text: str, offset: int = 0) -> TreeVertex:
    """Parse "m:p0,p1,..." to a (possibly non-canonical) TreeVertex.

    offset shifts reported error positions, for use inside composite
    literals.  The result is not canonicalized here so that callers can
    detect and warn about non-canonical input.
    """
    head, sep, tail = text.partition(":")
    if not sep:
        raise VertexSyntax("missing ':' in tree coordinate", offset)
    def nonneg(piece: str, what: str, pos: int) -> int:
        if not (piece.isascii() and piece.isdigit()):
            raise VertexSyntax(f"bad {what} {piece!r}", pos)
        try:
            return int(piece)
        except ValueError:  # past the interpreter's int() digit limit
            raise VertexSyntax(f"{what} too long ({len(piece)} digits)", pos) from None
    labels: list[int] = []
    pos = offset + len(head) + 1
    if tail:
        for piece in tail.split(","):
            labels.append(nonneg(piece, "label", pos))
            pos += len(piece) + 1
    return TreeVertex(nonneg(head, "spine depth", offset), tuple(labels))
