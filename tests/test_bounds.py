"""Every integer argument with a range: the bound is accepted, one step
past it is a ValueError naming the argument, and a bool or float is
rejected as not an int rather than coerced."""

import pytest

from dlstar import (
    DLParams,
    PairProfile,
    TreeVertex,
    alpha_family,
    ball_distances,
    beta_family,
    bfs_distance,
    canonical_paths,
    canonicalize,
    check_coord_dominance,
    f_value,
    gamma_family,
    identity,
    nk_beta_truncation,
    nu_point,
    separation_evidence,
    star_witness,
    zeta_point,
)

P = DLParams(3, 2)
O = identity(P)
ALPHA = alpha_family(P)
PROFILE = PairProfile((1, 0, 0), (0, 1, 0))

# (entry point, name in the message, lowest, highest or None, call on the value)
BOUNDED = [
    ("DLParams.d", "d", 2, 8, lambda v: DLParams(v, 2)),
    ("DLParams.q", "q", 1, None, lambda v: DLParams(3, v)),
    ("ball_distances.radius", "radius", 0, None, lambda v: ball_distances(P, v)),
    ("PointFamily.at", "family index", 0, None, lambda v: ALPHA.at(v)),
    # tree 3 is required and may be listed only once
    ("gamma_family.trees", "tree index", 1, 3,
     lambda v: gamma_family(P, [v] if v == 3 else [v, 3])),
    ("zeta_point.tree", "tree index", 1, 3, lambda v: zeta_point(P, v, 1)),
    ("zeta_point.k", "k", 0, None, lambda v: zeta_point(P, 1, v)),
    ("nu_point.tree", "tree index", 1, 2, lambda v: nu_point(P, v, 0, 1)),
    ("nu_point.eps", "label", 0, 1, lambda v: nu_point(P, 1, v, 1)),
    ("nu_point.k", "k", 0, None, lambda v: nu_point(P, 1, 0, v)),
    ("f_value.i", "row index", 2, 3, lambda v: f_value(PROFILE, (1, 2, 3), v)),
    ("bfs_distance.cap", "cap", 0, None, lambda v: bfs_distance(O, O, cap=v)),
    ("check_coord_dominance.c", "offset", 0, None,
     lambda v: check_coord_dominance(O, O, O, (v, 0, 0))),
    ("star_witness.n_max", "n_max", 1, None,
     lambda v: star_witness(beta_family(P), ALPHA, v)),
    ("nk_beta_truncation.k", "k", 0, None, lambda v: nk_beta_truncation(P, v, 0)),
    ("nk_beta_truncation.depth", "depth", 0, None, lambda v: nk_beta_truncation(P, 0, v)),
    ("separation_evidence.k", "k", 1, None, lambda v: separation_evidence(ALPHA, v, 1, 0)),
    ("separation_evidence.n_max", "n_max", 1, None,
     lambda v: separation_evidence(ALPHA, 1, v, 0)),
    ("separation_evidence.depth", "depth", 0, None,
     lambda v: separation_evidence(ALPHA, 1, 1, v)),
    ("canonicalize.m", "spine depth", 0, None, lambda v: canonicalize(TreeVertex(v, ()), 2)),
    ("canonicalize.path", "label", 0, 1, lambda v: canonicalize(TreeVertex(0, (v,)), 2)),
    ("canonical_paths.length", "length", 0, None, lambda v: canonical_paths(v, 2)),
]


@pytest.mark.parametrize("what,lo,hi,call", [row[1:] for row in BOUNDED],
                         ids=[row[0] for row in BOUNDED])
def test_integer_bounds(what, lo, hi, call):
    inside = (lo,) if hi is None else (lo, hi)
    outside = (lo - 1,) if hi is None else (lo - 1, hi + 1)
    for value in inside:
        call(value)
    for value in outside:
        with pytest.raises(ValueError) as e:
            call(value)
        message = str(e.value)
        assert message.startswith(f"{what} must be ") and message.endswith(f"got {value}")
    for value in (True, 1.0):
        with pytest.raises(ValueError, match=f"^{what} must be an int"):
            call(value)
