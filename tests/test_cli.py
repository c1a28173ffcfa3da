"""End-to-end CLI behavior: formats, exit codes, error mapping."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dlstar
import dlstar.dlgraph as dlgraph_mod
from dlstar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_distance_table(capsys):
    code, out, _ = run(capsys, "distance", "0:|0:|0:", "0:0|2:1,0|2:1")
    assert code == 0
    assert "distance: 5" in out
    assert "formula_verified: True" in out


def test_distance_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "distance", "0:|0:|0:", "1:1|0:|0:")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "distance"
    assert doc["params"] == {"d": 3, "q": 2}
    assert doc["result"]["distance"] == 2
    assert "passed" not in doc


def test_distance_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "distance", "0:|0:|0:", "1:1|0:|0:")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "distance,formula_verified"
    assert lines[1] == "2,True"


@pytest.mark.parametrize("d", [6, 7])
def test_d6_distance_is_verified(capsys, d):
    rest = "|0:" * (d - 1)
    code, out, _ = run(capsys, "--d", str(d), "distance", "0:" + rest, "1:1" + rest)
    assert code == 0
    assert "distance: 2" in out
    assert "formula_verified: True" in out


def test_unverified_config_advisory(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "--d", "4", "--q", "3",
        "distance", "0:|0:|0:|0:", "0:|0:|0:|0:",
    )
    assert code == 0
    assert json.loads(out)["result"]["formula_verified"] is False


def test_bad_literal_exits_2(capsys):
    code, _, err = run(capsys, "distance", "bogus", "0:|0:|0:")
    assert code == 2
    assert "error:" in err


def test_imbalanced_literal_exits_2(capsys):
    code, _, err = run(capsys, "distance", "0:1|0:|0:", "0:|0:|0:")
    assert code == 2
    assert "sum to 0" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["distance", "--nope", "a", "b"])
    assert e.value.code == 2


def test_neighbors_count(capsys):
    code, out, _ = run(capsys, "--format", "json", "neighbors", "0:|0:|0:")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 12
    assert len(doc["result"]["rows"]) == 12


def test_neighbors_past_the_memory_cap_exits_1(capsys, monkeypatch):
    # the 300 neighbors of one DL_3(50) vertex pass a cap of 100
    monkeypatch.setattr(dlgraph_mod, "DEFAULT_MEMORY_CAP", 100)
    code, out, err = run(capsys, "--q", "50", "neighbors", "0:|0:|0:")
    assert code == 1 and out == ""
    assert err.startswith("error: DL_3(50) has too many neighbors per vertex (at least 300)")


def test_ball_rows(capsys):
    code, out, _ = run(capsys, "--format", "csv", "ball", "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vertex,distance"
    assert len(lines) == 14  # header + identity + 12 neighbors
    code, out, _ = run(capsys, "ball", "--radius", "1")
    assert "size: 13" in out


def test_bfs_cap(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "bfs", "0:|0:|0:", "5:1,1,1,1,1|0:|0:",
        "--cap", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["distance"] is None
    assert doc["result"]["within_cap"] is False


def test_bfs_negative_cap_exits_2(capsys):
    code, out, err = run(capsys, "bfs", "0:|0:|0:", "0:1|1:|0:", "--cap", "-1")
    assert code == 2
    assert out == ""
    assert "cap must be nonnegative" in err


def _timed(capsys, *argv):
    t0 = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    return result


def test_huge_spine_depth_exits_2(capsys):
    # 5,000 digits is past int()'s 4,300-digit limit for strings
    deep = "9" * 5000 + ":"
    code, out, err = _timed(capsys, "distance", f"{deep}|0:|0:", "0:|0:|0:")
    assert code == 2 and out == "" and "error:" in err
    assert "position" in err and "set_int_max_str_digits" not in err


def test_huge_dimension_exits_2(capsys):
    code, out, err = _timed(capsys, "--d", "1" * 23, "distance", "0:|0:|0:", "0:|0:|0:")
    assert code == 2 and out == "" and "d must be in" in err


@pytest.mark.parametrize("argv", [
    ("distance", "0:|0:|0:", "0:|0:|0:"),
    ("ball", "--radius", "1"),
    ("verify", "--suite", "all"),
], ids=lambda argv: argv[0])
def test_q_below_2_exits_2(capsys, argv):
    # every graph has label 1, so DL_d(1) is a usage error, whatever the command
    code, out, err = run(capsys, "--q", "1", *argv)
    assert (code, out, err) == (2, "", "error: q must be at least 2, got 1\n")


# int() would read each of these as an integer; the CLI takes ASCII digits
# after an optional '-', as vertex literals do
NOT_INTEGERS = ("+1", " 1", "1_0", "\u0661")
NOT_INTEGER_IDS = ("plus", "space", "underscore", "arabic-indic")
INTEGER_FLAGS = (
    ("--d", "{}", "distance", "0:|0:|0:", "0:|0:|0:"),
    ("--q", "{}", "distance", "0:|0:|0:", "0:|0:|0:"),
    ("--seed", "{}", "verify", "--suite", "stars"),
    ("bfs", "0:|0:|0:", "0:1|1:|0:", "--cap", "{}"),
    ("ball", "--radius", "{}"),
    ("star-witness", "--nmax", "{}"),
    ("star-witness", "--offset", "{}"),
    ("separation", "--k", "{}"),
    ("separation", "--k", "1", "--nmax", "{}"),
    ("separation", "--k", "1", "--depth", "{}"),
)


@pytest.mark.parametrize("text", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_integer_flags_take_ascii_digits(capsys, text):
    for argv in INTEGER_FLAGS:
        with pytest.raises(SystemExit) as e:
            main([arg.format(text) for arg in argv])
        assert e.value.code == 2, argv
        assert "invalid integer value" in capsys.readouterr().err


@pytest.mark.parametrize("text", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_family_arguments_take_ascii_digits(capsys, text):
    for family in (f"zeta:1,{text}", f"nu:1,0,{text}", f"gamma:1,{text}"):
        code, out, err = run(capsys, "horolimit", "0:|0:|0:", "--family", family)
        assert code == 2 and out == "" and "bad family arguments" in err, family


@pytest.mark.parametrize(
    "family,complaint",
    [("beta:", "bad family arguments"), ("gamma:", "bad family arguments"),
     ("gamma:3,3", "more than once"), ("gamma:1,3,1", "more than once")],
)
def test_family_text_is_rejected_not_rewritten(capsys, family, complaint):
    code, out, err = run(capsys, "horolimit", "0:|0:|0:", "--family", family)
    assert code == 2 and out == "" and complaint in err, family


def test_bfs_huge_cap_on_adjacent_pair(capsys):
    code, out, _ = _timed(
        capsys, "--format", "json", "bfs", "0:|0:|0:", "0:1|1:|0:",
        "--cap", "99999999999999999999",
    )
    assert code == 0
    assert json.loads(out)["result"]["distance"] == 1


def test_beta_match(capsys):
    code, out, _ = run(capsys, "--format", "json", "beta", "1:1|0:|0:")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["closed_form"] == 1
    assert doc["result"]["limit"] == 1
    assert doc["result"]["from_n"] == 3
    assert "stabilized_at" not in doc["result"] and "window" not in doc["result"]
    assert doc["passed"] is True


def test_horolimit_families(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "horolimit", "0:|1:1|0:", "--family", "alpha"
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 0
    code, out, _ = run(
        capsys, "--format", "json", "horolimit", "0:|1:1|0:", "--family", "gamma:1,3"
    )
    assert code == 0
    assert json.loads(out)["result"]["family"] == "gamma:1,3"
    assert json.loads(out)["result"]["from_n"] == 3
    code, _, err = run(capsys, "horolimit", "0:|1:1|0:", "--family", "nope")
    assert code == 2 and "family" in err


def test_table_betandist(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "table-betandist", "1:1|0:|0:"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["from_n"] == 3
    assert "n1" not in doc["result"] and "n2" not in doc["result"]
    assert doc["result"]["shift"] == 1
    # shift is the closed form whenever the table is built at all
    assert "closed_form" not in doc["result"]
    assert len(doc["result"]["rows"]) == 6
    assert all(r["max_slope"] == 2 for r in doc["result"]["rows"])
    code, _, err = run(capsys, "--d", "4", "table-betandist", "1:1|0:|0:|0:")
    assert code == 2 and "3 tree coordinates" in err
    with pytest.raises(SystemExit) as e:  # the sample indices are not options
        main(["table-betandist", "1:1|0:|0:", "--n1", "10", "--n2", "17"])
    assert e.value.code == 2


def test_probes_sets(capsys):
    code, out, _ = run(capsys, "--format", "json", "probes", "0:1|1:|0:")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["disagrees"] is True
    assert doc["result"]["witness"] is not None
    code, out, _ = run(
        capsys, "--format", "json", "probes", "0:|0:|3:1,1,1", "--set", "printed"
    )
    assert json.loads(out)["result"]["disagrees"] is False


def test_star_witness_exit_codes(capsys):
    code, out, _ = run(capsys, "star-witness", "--a", "beta", "--b", "alpha", "--nmax", "6")
    assert code == 0
    assert "holds_for_all: True" in out
    code, out, _ = run(capsys, "star-witness", "--a", "alpha", "--b", "beta", "--nmax", "6")
    assert code == 1
    assert "first_failure: 1" in out


def test_separation_exit_codes(capsys):
    code, out, _ = run(
        capsys, "separation", "--family", "alpha", "--k", "1", "--nmax", "4",
        "--depth", "2",
    )
    assert code == 0
    assert "min_slack: 0" in out
    code, _, err = run(
        capsys, "separation", "--family", "beta", "--k", "1", "--nmax", "4",
        "--depth", "2",
    )
    assert code == 2  # wrong limiting profile is a usage error
    code, out, err = run(
        capsys, "--format", "json", "separation", "--family", "alpha", "--k", "1",
        "--nmax", "0", "--depth", "1",
    )
    assert code == 2 and out == "" and "n_max" in err
    # DL_3(1) is refused before any family is read
    code, out, err = run(
        capsys, "--q", "1", "separation", "--family", "nu:1,0,0", "--k", "1",
    )
    assert code == 2 and out == "" and "q must be at least 2" in err
    # 2^41 - 1 witnesses: refused before any is built
    code, out, err = run(
        capsys, "separation", "--family", "alpha", "--k", "1", "--nmax", "1",
        "--depth", "40",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: balanced vertex enumeration too large")


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--suite", "horofn")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_passed"] is True
    names = [r["check"] for r in doc["result"]["rows"]]
    assert names == ["beta-closed-form", "growth-table"]


def test_verify_reports_a_table_mismatch_as_a_row(capsys, wrong_beta_value):
    # a wrong closed form fails both horofn rows and ends nothing: exit 1,
    # every row on stdout, nothing on stderr
    code, out, err = run(capsys, "--format", "json", "verify", "--suite", "horofn")
    assert code == 1 and err == ""
    rows = json.loads(out)["result"]["rows"]
    assert [r["check"] for r in rows] == ["beta-closed-form", "growth-table"]
    assert not any(r["passed"] for r in rows)
    assert rows[1]["failures"] == 1
    assert rows[1]["first_failure"].startswith(
        "distance AffineInN(slope=2, intercept=4) in n, closed form 5"
    )


def test_verify_skips_checks_outside_their_graphs(capsys):
    # every horofn check is defined on DL_3(q) only: each row is skipped
    # with its reason, and the run passes
    code, out, _ = run(capsys, "--d", "4", "--format", "json", "verify", "--suite", "horofn")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [r["check"] for r in rows] == ["beta-closed-form", "growth-table"]
    for r in rows:
        assert r["skipped"].startswith("runs on d = 3 only: ")
        assert r["cases"] == 0 and r["elapsed_s"] is None
    # DL_2(2) keeps the rows that run on every graph and skips the ray
    code, out, _ = run(capsys, "--d", "2", "--format", "json", "verify", "--suite", "conformance")
    assert code == 0
    rows = {r["check"]: r for r in json.loads(out)["result"]["rows"]}
    assert list(rows) == ["word-metric-conformance", "beta-ray-identities", "metric-axioms"]
    for name in ("word-metric-conformance", "metric-axioms"):
        assert rows[name]["skipped"] is None and rows[name]["cases"] > 0
        assert rows[name]["passed"] is True
    assert rows["beta-ray-identities"]["skipped"].startswith("runs on d >= 3 only: ")


def _refused_row(out):
    """The one row of a JSON verify run whose check was refused."""
    (row,) = json.loads(out)["result"]["rows"]
    assert row["check"] == "comparison-lemmas" and row["passed"] is False
    assert row["cases"] == 0 and row["failures"] == 1 and row["elapsed_s"] is not None
    return row


@pytest.mark.parametrize("d", ["6", "7"])
def test_verify_lemmas_refuses_large_pair_key(capsys, d):
    # the radius-3 ball's pair key would pass the cap, so the lemma check
    # is refused before the key is built: a failed row, not a usage error
    code, out, err = run(capsys, "--format", "json", "--d", d, "verify", "--suite", "lemmas")
    assert code == 1 and err == ""
    row = _refused_row(out)
    size = row["notes"].removeprefix("refused_size=")
    assert row["first_failure"] == f"pair key too large (at least {size})"
    assert int(size) > 2**26


def test_verify_lemmas_refuses_large_profile_pair_map(capsys):
    # DL_5(2)'s pair key fits the cap, but its 43,681**2 profile pairs
    # would not: refused once the key gives their number
    code, out, err = run(capsys, "--format", "json", "--d", "5", "verify", "--suite", "lemmas")
    assert code == 1 and err == ""
    row = _refused_row(out)
    assert row["first_failure"] == "profile pairs too large (at least 1908029761)"
    assert row["notes"] == "refused_size=1908029761"


def _child_env():
    # the child imports the same dlstar as this process, installed or not
    src = str(Path(dlstar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dlstar", "--format", "json", "distance",
         "0:|0:|0:", "0:0|2:1,0|2:1"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["distance"] == 5


@pytest.mark.parametrize("argv", [
    ["ball", "--radius", "2"],
    ["--format", "json", "distance", "0:|0:|0:", "1:1|0:|0:"],
    ["--format", "csv", "ball", "--radius", "1"],
])
def test_closed_stdout_ends_quietly(argv):
    # the read end of the child's stdout is closed before the child
    # writes, as when `dlstar ... | head` exits early: exit 0, no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dlstar", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""
