"""Acceptance gate: every headline property, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
are produced.  Each test drives the corresponding check in
dlstar.verify at its full advertised domain and asserts both the
verdict and, where one applies, the runtime budget.
"""

from dlstar.verify import (
    DEFAULT_SEED,
    _check_asymmetry,
    _check_beta_closed_form,
    _check_beta_ray,
    _check_comparison_lemmas,
    _check_growth_table,
    _check_metric_axioms,
    _check_probe_exclusion,
    _check_word_metric,
    _timed,
)


def _run(capsys, builder, budget=None):
    report = _timed(builder)
    with capsys.disabled():
        print(report.line())
    assert report.passed, report.line()
    assert report.failures == 0
    if budget is not None:
        assert report.elapsed < budget, f"{report.name} took {report.elapsed:.1f}s"
    return report


def test_word_metric_matches_bfs_oracle(params, capsys):
    rep = _run(
        capsys, lambda: _check_word_metric(params, DEFAULT_SEED), budget=60
    )
    assert rep.details["ball_radius"] == 5
    assert rep.details["random_pairs"] == 200


def test_beta_ray_identities(params, capsys):
    rep = _run(capsys, lambda: _check_beta_ray(params), budget=5)
    assert rep.cases == 60  # two identities for each n up to 30


def test_metric_axioms(params, capsys):
    rep = _run(capsys, lambda: _check_metric_axioms(params, DEFAULT_SEED))
    assert rep.details["triples"] == 1000
    assert rep.details["identity_ball_radius"] == 3


def test_beta_closed_form_matches_limits(params, capsys):
    rep = _run(capsys, lambda: _check_beta_closed_form(params), budget=120)
    assert rep.details["ball_radius"] == 5
    assert rep.details["probes"] == 3590


def test_growth_table_reproduction(params, capsys):
    rep = _run(capsys, lambda: _check_growth_table(params, DEFAULT_SEED))
    assert rep.details["samples"] == 50


def test_comparison_lemma_screens(params, capsys):
    rep = _run(capsys, lambda: _check_comparison_lemmas(params, DEFAULT_SEED))
    assert rep.details["ball_radius"] == 3
    assert rep.details["vertices"] == 319


def test_probe_set_exclusion(params, capsys):
    rep = _run(capsys, lambda: _check_probe_exclusion(params), budget=120)
    assert rep.details["ball_radius"] == 6
    assert rep.details["nontrivial_vertices"] == 10584
    # the narrower published listing is reported, not asserted, because
    # it demonstrably lets some vertices through
    assert rep.details["printed_set_misses"] == 42


def test_asymmetry_certificates(params, capsys):
    rep = _run(capsys, lambda: _check_asymmetry(params))
    assert rep.details["witness_n_max"] == 30
    assert rep.details["min_slacks"] == [0, 0, 0, 0, 0]
