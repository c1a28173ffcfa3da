"""Acceptance gate: every headline property, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
are produced.  Each test drives the corresponding check in
dlstar.verify at its full advertised domain and asserts the verdict,
the number of cases checked and, where one applies, the runtime budget.
"""

from dlstar import DLParams
from dlstar.verify import (
    DEFAULT_SEED,
    _check_asymmetry_certificates,
    _check_beta_closed_form,
    _check_beta_ray_identities,
    _check_comparison_lemmas,
    _check_growth_table,
    _check_metric_axioms,
    _check_probe_exclusion,
    _check_word_metric_conformance,
    run_check,
)


def _run(capsys, check, params, budget=None):
    report = run_check(check, params, DEFAULT_SEED)
    with capsys.disabled():
        print(report.line())
    assert report.passed, report.line()
    assert report.failures == 0 and report.skipped is None
    if budget is not None:
        assert report.elapsed < budget, f"{report.name} took {report.elapsed:.1f}s"
    return report


def test_word_metric_matches_bfs_oracle(params, capsys):
    rep = _run(capsys, _check_word_metric_conformance, params, budget=10)
    assert rep.details["ball_radius"] == 5
    assert rep.details["random_pairs"] == 200
    # vertices the 200 meet-in-the-middle searches expanded
    assert rep.details["bfs_expanded"] == 37169
    assert rep.cases == 3790  # 3590 ball vertices + 200 pairs


def test_word_metric_matches_bfs_oracle_at_d4(capsys):
    rep = _run(capsys, _check_word_metric_conformance, DLParams(4, 2), budget=20)
    assert rep.details["ball_radius"] == 5
    assert rep.details["random_pairs"] == 200
    assert rep.details["bfs_expanded"] == 130812
    assert rep.cases == 32151  # 31951 ball vertices + 200 pairs


def test_beta_ray_identities(params, capsys):
    rep = _run(capsys, _check_beta_ray_identities, params, budget=5)
    assert rep.cases == 60  # two identities for each n up to 30


def test_metric_axioms(params, capsys):
    rep = _run(capsys, _check_metric_axioms, params, budget=2)
    assert rep.details["triples"] == 1000
    assert rep.details["identity_ball_radius"] == 3
    assert rep.cases == 52040  # 1000 triples + 319 self + 319 * 318 / 2 pairs


def test_beta_closed_form_matches_limits(params, capsys):
    rep = _run(capsys, _check_beta_closed_form, params, budget=10)
    assert rep.details["ball_radius"] == 5
    assert rep.details["probes"] == 3590
    assert rep.details["max_from_n"] == 11  # weight 10 at radius 5, plus one
    # one identity side per distinct from_n: the odd ones from 1 to 11
    assert rep.details["identity_sides"] == 6
    # one pair of profile_distance calls per distinct (from_n, Z[n] profile)
    assert rep.details["limit_classes"] == 377
    assert rep.cases == 3595  # every probe + 5 spot values


def test_beta_closed_form_at_q3(capsys):
    rep = _run(capsys, _check_beta_closed_form, DLParams(3, 3), budget=10)
    assert rep.details["ball_radius"] == 5
    assert rep.details["probes"] == 26595
    assert rep.details["max_from_n"] == 11
    assert rep.details["identity_sides"] == 6
    assert rep.details["limit_classes"] == 377
    assert rep.cases == 26600  # every probe + 5 spot values


def test_growth_table_reproduction(params, capsys):
    rep = _run(capsys, _check_growth_table, params, budget=0.5)
    assert rep.details["samples"] == 50
    # the shapes' points (m1, l1, m2, l2, 1) span, so they prove the six
    # intercepts at every vertex of every DL_3(q)
    assert rep.details["shape_rank"] == 5
    assert rep.cases == 900  # 50 samples * 6 orderings * 3 fits


def test_comparison_lemma_screens(params, capsys):
    rep = _run(capsys, _check_comparison_lemmas, params, budget=10)
    assert rep.details["ball_radius"] == 3
    assert rep.details["vertices"] == 319
    assert rep.details["balanced_probes"] == 256
    # one balanced_compare call per class of equal inputs
    assert rep.details["balanced_classes"] == 2287
    assert rep.details["distinct_profiles"] == 704
    # the certified column rejects every pair on its own
    assert rep.details["full_width_pairs"] == 0
    assert rep.cases == 1_441_603  # 2 * 704**2 screened profile pairs + 450,371 checked calls


def test_comparison_lemma_screens_at_q3(capsys):
    # the radius-3 ball of DL_3(3) shows the same 704 pair profiles as DL_3(2)
    rep = _run(capsys, _check_comparison_lemmas, DLParams(3, 3), budget=10)
    assert rep.details["ball_radius"] == 3
    assert rep.details["vertices"] == 1063
    assert rep.details["balanced_probes"] == 6561
    assert rep.details["balanced_classes"] == 2448
    assert rep.details["distinct_profiles"] == 704
    assert rep.details["full_width_pairs"] == 0
    assert rep.cases == 24_176_003  # 2 * 704**2 screened profile pairs + 23,184,771 checked calls


def test_comparison_lemma_screens_at_d4(capsys):
    rep = _run(capsys, _check_comparison_lemmas, DLParams(4, 2), budget=15)
    assert rep.details["ball_radius"] == 3
    assert rep.details["vertices"] == 1539
    assert rep.details["balanced_probes"] == 1024
    assert rep.details["balanced_classes"] == 14_803
    assert rep.details["distinct_profiles"] == 6552
    assert rep.details["full_width_pairs"] == 0
    assert rep.cases == 95_323_896  # 2 * 6552**2 screened profile pairs + 9,466,488 checked calls


def test_probe_set_exclusion(params, capsys):
    rep = _run(capsys, _check_probe_exclusion, params, budget=0.4)
    assert rep.details["ball_radius"] == 6
    assert rep.details["nontrivial_vertices"] == 10584
    # the narrower published listing is reported, not asserted, because
    # it demonstrably lets some vertices through
    assert rep.details["printed_set_misses"] == 42
    # one cross table against id and the 7 probes of either set, and one
    # probe_disagreement call per set and class of equal shift rows
    assert rep.details["distinct_profiles"] == 1289
    assert rep.details["probe_classes"] == 194
    assert rep.cases == 10585  # every nontrivial vertex + beta_5


def test_probe_set_exclusion_at_q3(capsys):
    rep = _run(capsys, _check_probe_exclusion, DLParams(3, 3), budget=3)
    assert rep.details["ball_radius"] == 6
    assert rep.details["nontrivial_vertices"] == 116586
    assert rep.details["printed_set_misses"] == 312
    assert rep.details["distinct_profiles"] == 1289
    assert rep.details["probe_classes"] == 266
    assert rep.cases == 116587  # every nontrivial vertex + beta_5


def test_asymmetry_certificates(params, capsys):
    rep = _run(capsys, _check_asymmetry_certificates, params, budget=0.5)
    assert rep.details["witness_n_max"] == 30
    assert rep.details["min_slacks"] == [0, 0, 0, 0, 0]
    assert rep.cases == 4680  # 30 witness indices + 10 * 465 separation pairs
