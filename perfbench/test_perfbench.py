"""Self-test of the benchmark itself.

    python3 -m pytest -q perfbench

Tiny-size runs go through run.py exactly as a benchmark run does; the
failure-counting and determinism checks drive workloads.py in-process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import dlstar  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
              script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


_results: dict[tuple[str, int, int], dict] = {}


def tiny_result(workload: str, trace: int, seed: int = 7) -> dict:
    key = (workload, trace, seed)
    if key not in _results:
        proc = run_bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


def test_workload_classes_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_pass_emits_every_named_metric(workload, trace):
    result = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert 0 < result["metrics"]["trace.span_coverage"]["value"] <= 1


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_repeats_counts_exactly(workload):
    first = tiny_result(workload, 1)["metrics"]
    again = run_bench(workload, 7, 1)
    assert again.returncode == 0, again.stderr
    second = json.loads(again.stdout.strip().splitlines()[-1])["metrics"]
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


@pytest.mark.parametrize("workload", NAMES)
def test_seed_fixes_inputs(workload):
    cls = workloads.WORKLOADS[workload]
    assert cls(5, "tiny").inputs == cls(5, "tiny").inputs
    assert cls(5, "tiny").inputs != cls(6, "tiny").inputs


def test_oracle_pairs_come_in_orbits_at_one_distance():
    work = workloads.Oracle(3, "tiny")
    n = work.sizes["pairs_per_base_pair"]
    assert len(work.inputs) % n == 0
    for i in range(0, len(work.inputs), n):
        assert len({dlstar.distance(x, y) for x, y in work.inputs[i:i + n]}) == 1


def test_wrong_value_and_raising_check_count_as_failures():
    checks = workloads.Checks()
    assert checks.expect("right", 3, 3)
    assert not checks.expect("wrong", 3, 4)
    checks.raised("boom", RuntimeError("x"))
    assert (checks.attempted, checks.failed) == (3, 2)
    assert checks.first_failure == "wrong: got 3, want 4"


def test_wrong_oracle_answer_is_counted(monkeypatch):
    work = workloads.Oracle(1, "tiny")
    real = dlstar.bfs_distance
    monkeypatch.setattr(dlstar, "bfs_distance", lambda x, y: real(x, y) + 1)
    checks = workloads.Checks()
    work.run_pass(checks)
    assert checks.attempted == len(work.inputs) == checks.failed


def test_raising_oracle_is_counted(monkeypatch):
    work = workloads.Oracle(1, "tiny")

    def broken(x, y):
        raise RuntimeError("injected")

    monkeypatch.setattr(dlstar, "bfs_distance", broken)
    checks = workloads.Checks()
    work.run_pass(checks)
    assert checks.attempted == len(work.inputs) == checks.failed


def test_wrong_expected_case_count_is_counted():
    work = workloads.Lemmas(1, "tiny")
    work.expected["comparison-lemmas"]["vertices"] += 1
    checks = workloads.Checks()
    work.run_pass(checks)
    assert checks.failed == 1
    assert "vertices" in checks.first_failure


def test_wrong_high_dimension_distance_is_counted(monkeypatch):
    work = workloads.HighD(1, "tiny")
    real = dlstar.distance
    monkeypatch.setattr(dlstar, "distance", lambda x, y: max(real(x, y) - 1, 0))
    checks = workloads.Checks()
    work.run_pass(checks)
    work.final_checks(checks)
    assert checks.failed == len(work.brute)


def test_probe_loops_measure_their_reference_time():
    # work that runs at the probe's own speed reads REF_PROBE_S per loop,
    # whatever the host's speed while it runs
    probe = speed.SpeedProbe()
    probe.install()
    try:
        t0 = perf_counter()
        for _ in range(3000):
            speed.probe_loop()
        t1 = perf_counter()
    finally:
        probe.uninstall()
    assert len(probe.start) >= speed.MIN_PROBES
    assert probe.reference_s(t0, t1) == pytest.approx(3000 * speed.REF_PROBE_S, rel=0.2)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("oracle", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
