"""Suite plumbing: selection, expansion, and the single-process guard."""

import pytest

from dlstar import run_suites
from dlstar.verify import SUITES
import dlstar.verify as verify_mod


def test_suite_names():
    assert sorted(SUITES) == ["conformance", "horofn", "lemmas", "stars"]
    with pytest.raises(ValueError):
        run_suites(["nope"])


def test_all_expands_to_every_suite(params, monkeypatch):
    ran = []

    def stub(name):
        def suite(p, seed):
            ran.append((name, seed))
            return []
        return suite

    monkeypatch.setattr(
        verify_mod, "SUITES", {k: stub(k) for k in SUITES}
    )
    out = run_suites(["all"], params, seed=3)
    assert out == []
    assert ran == [(k, 3) for k in SUITES]


def test_single_suite_runs(params):
    reports = run_suites(["horofn"], params)
    assert [r.name for r in reports] == ["beta-closed-form", "growth-table"]
    assert all(r.passed for r in reports)
    assert all(r.elapsed is not None for r in reports)


def test_run_suites_rejects_workers(params):
    # the benchmark harness still passes workers=1; nothing else is accepted
    assert run_suites([], params, workers=1) == []
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers"):
            run_suites(["horofn"], params, workers=workers)
