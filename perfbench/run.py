"""dlstar benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 15 --trace 0

Run from anywhere; the repository root is the parent of this file's
directory, and the library is imported from its src/ tree.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  A run record (machine, versions,
input sizes, every pass time) goes to .perfbench_out/ under the root.

Each workload runs in a child process of its own, so that its peak
resident memory is its own, with OMP/OpenBLAS/MKL pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "lemmas", "boundary", "highd")
WORKER_TIMEOUT_S = 160  # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args: argparse.Namespace, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--mode", "run"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected_src = (ROOT / "src" / "dlstar").resolve()
    if Path(result["dlstar_file"]).parent != expected_src:
        raise BenchError(f"imported dlstar from {result['dlstar_file']}, not {expected_src}")
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dlstar").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_state() -> dict:
    """Commit and dirty flag, or None for both outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks the inputs for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dlstar" / "__init__.py").is_file():
        print(f"no dlstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = out_dir / f"spans-{stem}.npz" if args.trace else None
    try:
        result = call_worker(args, spans)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    attempted, failed = result["attempted"], result["failed"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        **git_state(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "input_sizes": result["sizes"],
        "fail_ratio": failed / attempted if attempted else 1.0,
        "first_failure": result["first_failure"],
        **{k: result[k] for k in ("pass_s", "pass_ref_s", "setup_samples_s", "query_calls",
                                  "samples_per_call", "probes",
                                  "untraced_run_s", "traced_run_s", "spans") if k in result},
        "metrics": metrics,
    }
    (out_dir / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    unit = {m["name"]: m["unit"] for m in declared}
    for key in ("workload", "seed", "git_sha", "git_dirty", "python", "numpy", "nproc",
                "cpu_model", "input_sizes", "fail_ratio", "query_calls", "samples_per_call"):
        if key in record:
            print(f"# {key}: {record[key]}")
    for m in declared:
        print(f"{m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": unit[m["name"]]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
