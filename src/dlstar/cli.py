"""Command-line interface for exact Diestel-Leader computations.

Examples:
    dlstar distance "0:|0:|0:" "0:0|2:1,0|2:1"
    dlstar --format json neighbors "0:|0:|0:"
    dlstar ball --radius 2
    dlstar beta "1:1|0:|1:1"
    dlstar horolimit --family gamma:1,3 "0:|1:1|1:1"
    dlstar table-betandist "1:1|0:|1:1"
    dlstar probes "0:1|1:|0:" --set symmetric
    dlstar star-witness --a beta --b alpha --nmax 30
    dlstar separation --family alpha --k 2 --nmax 10 --depth 3
    dlstar verify --suite stars

Exit status: 0 on success, 1 when a verification-style command fails or
a computation gives up, 2 on usage errors (bad flags, bad literals).  A
reader that closes standard output early ends the output quietly, with
the command's own exit status.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .dlgraph import (
    DLParams,
    PointFamily,
    alpha_family,
    ball_distances,
    beta_family,
    format_vertex,
    gamma_family,
    neighbors,
    nu_family,
    parse_vertex,
    vertex_sort_key,
    zeta_family,
)
from .horofn import (
    beta_value,
    betandist_table,
    limit_value,
    printed_probe_set,
    probe_disagreement,
    symmetric_probe_set,
)
from .metric import VERIFIED_CONFIGS, bfs_distance, distance
from .stars import separation_evidence, star_witness
from .verify import DEFAULT_SEED, SUITES, run_suites


def integer(text: str) -> int:
    """ASCII digits after an optional '-', as in vertex literals: int()
    would also take '+1', ' 1', '1_0' and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_family(text: str, params: DLParams) -> PointFamily:
    """Family syntax: alpha, beta, gamma:1,3, zeta:i,k, nu:j,eps,k."""
    head, colon, tail = text.partition(":")
    try:
        # a colon promises arguments: "beta:" fails on its empty one
        ints = [integer(p) for p in tail.split(",")] if colon else []
    except ValueError:
        raise ValueError(f"bad family arguments in {text!r}")
    if head == "alpha" and not ints:
        return alpha_family(params)
    if head == "beta" and not ints:
        return beta_family(params)
    if head == "gamma" and ints:
        return gamma_family(params, ints)
    if head == "zeta" and len(ints) == 2:
        return zeta_family(params, *ints)
    if head == "nu" and len(ints) == 3:
        return nu_family(params, *ints)
    raise ValueError(
        f"unknown family {text!r}; use alpha, beta, gamma:1,3, zeta:i,k or nu:j,eps,k"
    )


# ── command handlers: each returns (result dict, passed or None) ────────────

def cmd_distance(args, params):
    x = parse_vertex(args.x, params)
    y = parse_vertex(args.y, params)
    return {
        "distance": distance(x, y),
        "formula_verified": (params.d, params.q) in VERIFIED_CONFIGS,
    }, None


def cmd_bfs(args, params):
    x = parse_vertex(args.x, params)
    y = parse_vertex(args.y, params)
    got = bfs_distance(x, y, cap=args.cap)
    return {"distance": got, "within_cap": got is not None}, None


def cmd_neighbors(args, params):
    v = parse_vertex(args.vertex, params)
    adj = sorted(neighbors(v), key=vertex_sort_key)
    rows = [{"vertex": format_vertex(w)} for w in adj]
    return {"count": len(adj), "rows": rows}, None


def cmd_ball(args, params):
    reached = ball_distances(params, args.radius)
    items = sorted(reached.items(), key=lambda kv: vertex_sort_key(kv[0]))
    rows = [{"vertex": format_vertex(v), "distance": r} for v, r in items]
    return {"radius": args.radius, "size": len(rows), "rows": rows}, None


def cmd_beta(args, params):
    z = parse_vertex(args.vertex, params)
    closed = beta_value(z)
    limit = limit_value(beta_family(params), z)
    return {
        "closed_form": closed,
        "limit": limit.value,
        "from_n": limit.from_n,
        "match": closed == limit.value,
    }, closed == limit.value


def cmd_horolimit(args, params):
    z = parse_vertex(args.vertex, params)
    fam = parse_family(args.family, params)
    limit = limit_value(fam, z)
    return {
        "family": fam.name,
        "value": limit.value,
        "from_n": limit.from_n,
    }, None


def cmd_table_betandist(args, params):
    z = parse_vertex(args.vertex, params)
    table = betandist_table(z)
    rows = []
    for sigma, row in sorted(table.rows.items()):
        rows.append({
            "ordering": ",".join(str(t) for t in sigma),
            "row2_slope": row.sub[2].slope,
            "row2_intercept": row.sub[2].intercept,
            "row3_slope": row.sub[3].slope,
            "row3_intercept": row.sub[3].intercept,
            "max_slope": row.total.slope,
            "max_intercept": row.total.intercept,
        })
    return {
        "from_n": table.from_n,
        "shift": table.shift,
        "rows": rows,
    }, None


def cmd_probes(args, params):
    z = parse_vertex(args.vertex, params)
    probes = (
        symmetric_probe_set(params) if args.set == "symmetric"
        else printed_probe_set(params)
    )
    report = probe_disagreement(z, probes)
    rows = [
        {
            "probe": format_vertex(f),
            "measured": measured,
            "expected": expected,
            "agree": measured == expected,
        }
        for f, measured, expected in report.rows
    ]
    return {
        "disagrees": report.disagrees,
        "witness": format_vertex(report.witness) if report.witness else None,
        "rows": rows,
    }, None


def cmd_star_witness(args, params):
    a = parse_family(args.a, params)
    b = parse_family(args.b, params)
    report = star_witness(a, b, args.nmax, args.offset)
    rows = [{"n": n + 1, "margin": m} for n, m in enumerate(report.margins)]
    return {
        "a": report.a,
        "b": report.b,
        "checked_n": report.checked_n,
        "holds_for_all": report.holds_for_all,
        "first_failure": report.first_failure,
        "min_margin": min(report.margins),
        "rows": rows,
    }, report.holds_for_all


def cmd_separation(args, params):
    fam = parse_family(args.family, params)
    report = separation_evidence(fam, args.k, args.nmax, args.depth)
    return {
        "name": report.name,
        "cases": report.cases,
        "failures": report.failures,
        "passed": report.passed,
        "first_failure": report.first_failure,
        **report.details,
    }, report.passed


def cmd_verify(args, params):
    reports = run_suites([args.suite], params, seed=args.seed)
    rows = [
        {
            "check": r.name,
            "passed": r.passed,
            "cases": r.cases,
            "failures": r.failures,
            "first_failure": r.first_failure,
            "elapsed_s": round(r.elapsed, 3) if r.elapsed is not None else None,
            "skipped": r.skipped,
            "notes": "; ".join(f"{k}={v}" for k, v in r.details.items()),
        }
        for r in reports
    ]
    ok = all(r.passed for r in reports)
    return {"suite": args.suite, "all_passed": ok, "rows": rows}, ok


# ── output ──────────────────────────────────────────────────────────────────

def emit(fmt: str, command: str, params: DLParams, result: dict, passed) -> None:
    if fmt == "json":
        doc = {"command": command, "params": {"d": params.d, "q": params.q}, "result": result}
        if passed is not None:
            doc["passed"] = passed
        print(json.dumps(doc))
        return
    rows = result.get("rows")
    scalars = {k: v for k, v in result.items() if k != "rows"}
    if passed is not None:
        scalars["passed"] = passed
    if fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        else:
            writer = csv.DictWriter(buf, fieldnames=list(scalars.keys()))
            writer.writeheader()
            writer.writerow(scalars)
        sys.stdout.write(buf.getvalue())
        return
    for k, v in scalars.items():
        print(f"{k}: {v}")
    if rows:
        headers = list(rows[0].keys())
        table = [[str(r[h]) for h in headers] for r in rows]
        widths = [
            max(len(h), *(len(line[i]) for line in table)) for i, h in enumerate(headers)
        ]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for line in table:
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))


# ── parser ──────────────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlstar",
        description="Exact word metric and boundary computations on Diestel-Leader graphs.",
    )
    parser.add_argument("--d", type=integer, default=3, help="number of tree factors")
    parser.add_argument(
        "--q", type=integer, default=2, help="tree branching parameter, at least 2"
    )
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="output format",
    )
    parser.add_argument("--seed", type=integer, default=DEFAULT_SEED, help="sampling seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="formula distance between two vertices")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("bfs", help="breadth-first oracle distance")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--cap", type=integer, default=None, help="give up beyond this radius")
    p.set_defaults(handler=cmd_bfs)

    p = sub.add_parser("neighbors", help="adjacent vertices")
    p.add_argument("vertex")
    p.set_defaults(handler=cmd_neighbors)

    p = sub.add_parser("ball", help="ball around the identity")
    p.add_argument("--radius", type=integer, required=True)
    p.set_defaults(handler=cmd_ball)

    p = sub.add_parser("beta", help="closed-form boundary value vs exact limit")
    p.add_argument("vertex")
    p.set_defaults(handler=cmd_beta)

    p = sub.add_parser("horolimit", help="exact boundary value along a family")
    p.add_argument("vertex")
    p.add_argument("--family", required=True, help="alpha | beta | gamma:1,3 | ...")
    p.set_defaults(handler=cmd_horolimit)

    p = sub.add_parser(
        "table-betandist", help="affine growth of distance rows toward beta"
    )
    p.add_argument("vertex")
    p.set_defaults(handler=cmd_table_betandist)

    p = sub.add_parser("probes", help="compare a vertex against a probe set")
    p.add_argument("vertex")
    p.add_argument("--set", choices=("printed", "symmetric"), default="symmetric")
    p.set_defaults(handler=cmd_probes)

    p = sub.add_parser("star-witness", help="halfspace margins along two families")
    p.add_argument("--a", default="beta", help="family approaching the boundary")
    p.add_argument("--b", default="alpha", help="family whose star is probed")
    p.add_argument("--nmax", type=integer, default=30)
    p.add_argument("--offset", type=integer, default=0)
    p.set_defaults(handler=cmd_star_witness)

    p = sub.add_parser("separation", help="distance excess over the beta neighborhood")
    p.add_argument("--family", default="alpha")
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--nmax", type=integer, default=10)
    p.add_argument("--depth", type=integer, default=3)
    p.set_defaults(handler=cmd_separation)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument(
        "--suite", choices=(*SUITES, "all"), default="all",
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = DLParams(args.d, args.q)
        result, passed = args.handler(args, params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        emit(args.format, args.command, params, result, passed)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: point stdout at devnull so that the
        # interpreter's last flush of what is still buffered succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if passed is None or passed else 1

