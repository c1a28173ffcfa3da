"""One workload process: set up, run timed passes, print one JSON line.

Started by run.py with the thread-count variables pinned to 1.  With
--mode setup it only imports dlstar and builds the inputs, and reports
how long that took.  With --mode run it also runs the passes: untraced
for the end-to-end metrics, or one untraced and one traced pass for the
per-layer metrics.  An untraced process times everything in reference
seconds (see speed.py) and starts --mode setup processes of its own,
so that setup_s is a median over fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# lemmas takes 9-16 s a pass, so two passes already fill --seconds
MIN_PASSES = 2
# set-up samples from fresh processes, taken before the first pass and
# again after the last, so that a slow spell at one end of the run cannot
# hold the median; this process's own set-up is one more
FRESH_SETUPS_EACH_END = 3
# each round of query batches on the suite workloads runs for this long,
# and the batches go on until every call has this many samples
QUERY_ROUND_S = 0.3
MIN_CALL_SAMPLES = 10


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    probe = None
    if not args.trace:
        import speed
        probe = speed.SpeedProbe()
        probe.install()
    t0 = perf_counter()
    import dlstar
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        setup_span = tracer.open("setup")
    work = workloads.WORKLOADS[args.workload](args.seed, args.size)
    t1 = perf_counter()
    if tracer:
        tracer.close(setup_span)
        tracer.uninstall()
    source = Path(dlstar.__file__).resolve()
    out = {"sizes": work.sizes, "dlstar_file": str(source),
           "numpy": sys.modules["numpy"].__version__}
    if probe:
        out["setup_s"] = probe.reference_s(t0, t1)
    if args.mode == "setup":
        probe.uninstall()
        print(json.dumps(out))
        return 0

    checks = workloads.Checks()
    if tracer:
        out.update(traced_run(work, checks, tracer, args.spans))
    else:
        out.update(untraced_run(work, checks, args, probe, out["setup_s"]))
        probe.uninstall()
    work.final_checks(checks)
    out.update({
        "attempted": checks.attempted,
        "failed": checks.failed,
        "first_failure": checks.first_failure,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(out))
    return 0


def setup_sample(args) -> float:
    """Set-up time of a fresh worker process with the same arguments."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--size", args.size,
           "--mode", "setup"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def untraced_run(work, checks, args, probe, own_setup_s: float) -> dict:
    """Repeat rounds while another one fits in --seconds, and at least
    MIN_PASSES rounds.

    A round is one pass, followed on the suite workloads by QUERY_ROUND_S
    of query batches.  More batches fill the time left after the last
    round, and run until each call has MIN_CALL_SAMPLES samples.
    Every time is in reference seconds.  run_s is the median pass and
    setup_s the median of this process's set-up and the fresh ones taken
    at both ends of the run.  Each unit call's latency is its median over
    the rounds, and p50 and p90 are taken over the calls.
    """
    import workloads
    setups = [own_setup_s] + [setup_sample(args) for _ in range(FRESH_SETUPS_EACH_END)]
    pass_s: list[float] = []
    pass_ref_s: list[float] = []
    per_call: list[list[float]] = []

    def add_calls(spans) -> None:
        if not per_call:
            per_call.extend([] for _ in spans)
        for samples, (a, b) in zip(per_call, spans):
            samples.append(probe.reference_s(a, b) * 1e3)

    def query_round() -> None:
        t = perf_counter()
        while perf_counter() - t < QUERY_ROUND_S:
            add_calls(work.query(checks))

    start = perf_counter()
    while True:
        t = perf_counter()
        result = work.run_pass(checks)
        t_end = perf_counter()
        pass_s.append(t_end - t)
        pass_ref_s.append(probe.reference_s(t, t_end))
        if work.query_shaped:
            add_calls(result.calls)
        else:
            query_round()
        elapsed = perf_counter() - start
        if len(pass_s) >= MIN_PASSES and elapsed + elapsed / len(pass_s) > args.seconds:
            break
    if not work.query_shaped:
        while (perf_counter() - start < args.seconds
               or len(per_call[0]) < MIN_CALL_SAMPLES):
            add_calls(work.query(checks))
    setups += [setup_sample(args) for _ in range(FRESH_SETUPS_EACH_END)]
    p50, p90 = workloads.percentiles([statistics.median(s) for s in per_call])
    metrics = {"run_s": statistics.median(pass_ref_s), "setup_s": statistics.median(setups),
               "query_ms.p50": p50, "query_ms.p90": p90}
    return {"metrics": metrics, "pass_s": pass_s, "pass_ref_s": pass_ref_s,
            "setup_samples_s": setups, "query_calls": len(per_call),
            "samples_per_call": len(per_call[0]), "probes": len(probe.start)}


def traced_run(work, checks, tracer, spans_path: str | None) -> dict:
    """One untraced pass, then one traced pass; the difference in pass
    time is the tracing overhead."""
    t = perf_counter()
    work.run_pass(checks)
    untraced_s = perf_counter() - t

    tracer.install()
    root = tracer.open("pass")
    t = perf_counter()
    try:
        result = work.run_pass(checks)
    finally:
        traced_s = perf_counter() - t
        tracer.close(root)
        tracer.uninstall()
    metrics = tracer.layer_metrics(root, result.reports, traced_s)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if spans_path:
        tracer.write(spans_path)
    return {"metrics": metrics, "untraced_run_s": untraced_s, "traced_run_s": traced_s,
            "spans": len(tracer.span_name)}


if __name__ == "__main__":
    sys.exit(main())
