"""Star inclusion and exclusion certificates at finite scale."""

import numpy as np
import pytest

from dlstar import (
    DLParams,
    ProfileMismatch,
    WrongDimension,
    alpha_family,
    beta_family,
    gamma_family,
    nk_beta_truncation,
    nu_family,
    separation_evidence,
    star_witness,
    zeta_family,
    zeta_point,
)
from dlstar.stars import Tally


def test_star_witness_beta_into_alpha(params):
    rep = star_witness(beta_family(params), alpha_family(params), 12)
    assert rep.holds_for_all and rep.first_failure is None
    assert rep.margins == (0,) * 12
    assert rep.a == "beta" and rep.b == "alpha" and rep.checked_n == 12


def test_star_witness_alpha_into_beta_fails_immediately(params):
    rep = star_witness(alpha_family(params), beta_family(params), 8)
    assert not rep.holds_for_all
    assert rep.first_failure == 1
    assert rep.margins == tuple(-n for n in range(1, 9))


def test_star_witness_offset_shifts_margins(params):
    rep = star_witness(alpha_family(params), beta_family(params), 4, offset=2)
    assert rep.margins == (1, 0, -1, -2)
    assert rep.first_failure == 3
    with pytest.raises(ValueError):
        star_witness(alpha_family(params), beta_family(params), 0)
    for n_max, offset in ((True, 0), (4.0, 0), (4, 1.5), (4, False)):
        with pytest.raises(ValueError, match="must be an int"):
            star_witness(alpha_family(params), beta_family(params), n_max, offset)


def test_nk_truncation_shape(params):
    got = nk_beta_truncation(params, 1, 3)
    assert len(got) == 1 + 2 + 4 + 8  # (q-1) q**(j-1) per depth j
    for w in got:
        assert w.coords[0].m == 0 and w.coords[1].m == 0
        c = w.coords[2]
        assert c.h == 0 and 1 <= c.m <= 4
        assert not c.path or c.path[0] == 1
    assert len(nk_beta_truncation(params, 2, 0)) == 2
    assert len(nk_beta_truncation(DLParams(3, 3), 1, 1)) == 2 + 6
    with pytest.raises(WrongDimension):
        nk_beta_truncation(DLParams(4, 2), 1, 1)
    with pytest.raises(ValueError):
        nk_beta_truncation(params, -1, 1)
    for k, depth in ((True, 1), (1.0, 1), (1, 1.5)):
        with pytest.raises(ValueError, match="must be an int"):
            nk_beta_truncation(params, k, depth)


def test_nk_truncation_includes_identity_at_zero(params, origin):
    got = nk_beta_truncation(params, 0, 1)
    assert origin in got and len(got) == 2


def test_separation_has_zero_min_slack(params):
    rep = separation_evidence(alpha_family(params), 2, 8, 3)
    assert rep.passed and rep.failures == 0
    assert rep.cases == 8 * len(nk_beta_truncation(params, 2, 3))
    assert rep.details["min_slack"] == 0
    assert rep.line().startswith("PASS separation:alpha,k=2")


def test_separation_scales_with_k(params):
    for k in (1, 3):
        rep = separation_evidence(alpha_family(params), k, 6, 2)
        assert rep.passed, rep.line()
        assert rep.details["min_slack"] == 0


def test_separation_rejects_wrong_profile(params):
    # families that keep diving down tree 3 have infinite limiting depth
    # there, so the precondition must turn them away
    with pytest.raises(ProfileMismatch):
        separation_evidence(beta_family(params), 1, 5, 2)
    with pytest.raises(ProfileMismatch):
        separation_evidence(gamma_family(params, [1, 3]), 1, 5, 2)
    # a constant family's limiting depth is its base's: nu's tree 3 sits
    # at depth 2, zeta's at depth 0
    with pytest.raises(ProfileMismatch, match="spine depth 2,"):
        separation_evidence(nu_family(params, 1, 1, 2), 1, 5, 2)
    assert separation_evidence(zeta_family(params, 1, 2), 1, 5, 2).cases > 0
    # DL_2(2) has no tree 3 to read a limiting depth from
    with pytest.raises(WrongDimension, match="defined for d = 3"):
        separation_evidence(alpha_family(DLParams(2, 2)), 2, 2, 1)
    with pytest.raises(ValueError):
        separation_evidence(alpha_family(params), 0, 5, 2)
    # no index checked is no evidence, not a pass
    with pytest.raises(ValueError, match="n_max"):
        separation_evidence(alpha_family(params), 1, 0, 1)
    for k, n_max, depth in ((True, 3, 1), (1, 3.0, 1), (1, 3, 1.0), (1.5, 3, 1)):
        with pytest.raises(ValueError, match="must be an int"):
            separation_evidence(alpha_family(params), k, n_max, depth)


def test_verification_report_line_shape(params):
    rep = separation_evidence(alpha_family(params), 1, 3, 1)
    line = rep.line()
    assert "PASS" in line and "cases" in line and "min_slack" in line


def test_tally_screen_weights():
    bad = np.array([[False, True], [True, False]])
    weights = np.array([[3, 5], [7, 11]])
    seen = []
    tally = Tally()
    tally.screen(bad, lambda i, j: seen.append((i, j)) or f"fails at {i},{j}", weights)
    assert (tally.cases, tally.failures) == (26, 12)
    assert seen == [(0, 1)] and tally.first_failure == "fails at 0,1"
