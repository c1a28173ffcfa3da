"""Span tracing of the dlstar layers, installed from outside the package.

Python functions bind imported names at import time, so wrapping
`dlstar.metric.distance` alone would miss the calls that `dlstar.horofn`,
`dlstar.stars` and `dlstar.verify` make through their own bindings.  The
tracer therefore replaces every module attribute under `dlstar` that is
the original function object, and puts the originals back on uninstall.

Spans (name, parent, start, end) are kept in flat arrays while the
workload runs and are written out once at the end.  Hot tiny calls
(`pair_stats`, `f_value`, `neighbors`) only bump a counter.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import dlstar

# (module, function): spans at every layer boundary the benchmark reports
SPANNED = (
    ("dlgraph", "ball_distances"),
    ("metric", "bfs_distance"),
    ("metric", "distance"),
    ("metric", "pair_profile"),
    ("metric", "profile_distance"),
    ("metric", "lower_bounds"),
    ("metric", "check_f_dominance"),
    ("metric", "check_coord_dominance"),
    ("metric", "balanced_compare"),
    ("horofn", "limit_value"),
    ("horofn", "probe_disagreement"),
    ("horofn", "betandist_table"),
    ("stars", "star_witness"),
    ("stars", "separation_evidence"),
    ("verify", "run_suites"),
)
COUNTED = (
    ("treecoord", "pair_stats"),
    ("metric", "f_value"),
    ("dlgraph", "neighbors"),
)
PROFILE_DIMS = range(3, 8)

# the checks each verify suite returns, in the order the suites run them
VERIFY_CHECKS = (
    "comparison-lemmas",
    "beta-closed-form",
    "growth-table",
    "probe-exclusion",
    "asymmetry-certificates",
)


def _bindings(original):
    """Every (module, attribute) under dlstar that refers to original."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dlstar" or modname.startswith("dlstar.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, attr))
    return out


class Tracer:
    """Records spans and counts for the wrapped public functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ── spans ───────────────────────────────────────────────────────────────

    def open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1])
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def _span_wrapper(self, fn, name: str, by_dim: bool = False):
        # by_dim: one span name per dimension of the first argument, a
        # PairProfile, so that each d of profile_distance reads separately
        name_id = self._id(name)
        dims = {d: self._id(f"{name}.d{d}") for d in PROFILE_DIMS} if by_dim else None
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(dims.get(len(args[0][0]), name_id) if dims else name_id)
            parents.append(stack[-1])
            stack.append(idx)
            starts.append(perf_counter())
            ends.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _neighbors_wrapper(self, fn):
        # a neighbors call directly inside a BFS span is one expanded vertex
        counts, names, stack = self.counts, self.span_name, self._stack
        bfs = self._id("metric.bfs_distance")

        def wrapper(*args, **kwargs):
            counts["dlgraph.neighbors"] += 1
            top = stack[-1]
            if top >= 0 and names[top] == bfs:
                counts["metric.bfs_distance.expanded"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ── install / uninstall ─────────────────────────────────────────────────

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, fn_name in SPANNED + COUNTED:
            original = getattr(getattr(dlstar, module), fn_name)
            name = f"{module}.{fn_name}"
            if (module, fn_name) in COUNTED:
                if fn_name == "neighbors":
                    wrapper = self._neighbors_wrapper(original)
                else:
                    wrapper = self._count_wrapper(original, name)
            else:
                wrapper = self._span_wrapper(original, name, fn_name == "profile_distance")
            for mod, attr in _bindings(original):
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ── results ─────────────────────────────────────────────────────────────

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Save every span and the name table as a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, pass_span: int, reports, traced_s: float) -> dict[str, float]:
        """Per-layer figures over every recorded span and count.

        Times are inclusive span durations in seconds.  verify.<check>.s
        is the check's own VerificationReport.elapsed; .self_s subtracts
        the wrapped calls the check made.  reports are the reports of the
        single run_suites call inside the traced pass, if there was one.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        seconds = np.bincount(a["name"], weights=dur, minlength=n_names)
        calls = np.bincount(a["name"], minlength=n_names)

        def s(name):
            return float(seconds[self._ids[name]]) if name in self._ids else 0.0

        def n(name):
            return int(calls[self._ids[name]]) if name in self._ids else 0

        out: dict[str, float] = {
            "treecoord.pair_stats.calls": self.counts["treecoord.pair_stats"],
            "dlgraph.neighbors.calls": self.counts["dlgraph.neighbors"],
            "dlgraph.ball_distances.s": s("dlgraph.ball_distances"),
        }
        bfs_calls = n("metric.bfs_distance")
        expanded = self.counts["metric.bfs_distance.expanded"]
        out.update({
            "metric.bfs_distance.s": s("metric.bfs_distance"),
            "metric.bfs_distance.calls": bfs_calls,
            "metric.bfs_distance.expanded": expanded,
            "metric.bfs_distance.expanded_per_call": expanded / bfs_calls if bfs_calls else 0.0,
            "metric.distance.s": s("metric.distance"),
            "metric.distance.calls": n("metric.distance"),
            "metric.pair_profile.s": s("metric.pair_profile"),
        })
        for d in PROFILE_DIMS:
            out[f"metric.profile_distance.d{d}.s"] = s(f"metric.profile_distance.d{d}")
            out[f"metric.profile_distance.d{d}.calls"] = n(f"metric.profile_distance.d{d}")
        for fn_name in ("lower_bounds", "check_f_dominance", "check_coord_dominance",
                        "balanced_compare"):
            out[f"metric.{fn_name}.s"] = s(f"metric.{fn_name}")
        out["metric.f_value.calls"] = self.counts["metric.f_value"]

        limits = n("horofn.limit_value")
        in_limits = 0
        if limits:
            dist_spans = a["name"] == self._ids["metric.distance"]
            parents = a["parent"][dist_spans]
            parents = parents[parents >= 0]
            in_limits = int((a["name"][parents] == self._ids["horofn.limit_value"]).sum())
        out.update({
            "horofn.limit_value.s": s("horofn.limit_value"),
            "horofn.limit_value.calls": limits,
            "horofn.limit_value.distance_calls_per_limit": in_limits / limits if limits else 0.0,
            "horofn.probe_disagreement.s": s("horofn.probe_disagreement"),
            "horofn.betandist_table.s": s("horofn.betandist_table"),
            "stars.star_witness.s": s("stars.star_witness"),
            "stars.separation_evidence.s": s("stars.separation_evidence"),
        })
        out.update(self._verify_metrics(a, dur, reports))

        # run_suites only frames the verify checks, so its children count as
        # the outermost layer calls; the time verify spends between them is
        # left uncovered
        top = a["parent"] == pass_span
        suite = a["name"] == self._ids["verify.run_suites"]
        outermost = (top & ~suite) | np.isin(a["parent"], np.flatnonzero(top & suite))
        out["trace.span_coverage"] = float(dur[outermost].sum()) / traced_s
        return out

    def _verify_metrics(self, a, dur, reports) -> dict[str, float]:
        out = {}
        for check in VERIFY_CHECKS:
            out[f"verify.{check}.s"] = 0.0
            out[f"verify.{check}.self_s"] = 0.0
        if not reports:
            return out
        suite_spans = np.flatnonzero(a["name"] == self._ids["verify.run_suites"])
        if len(suite_spans) != 1:
            raise RuntimeError(f"expected one run_suites span, found {len(suite_spans)}")
        suite = int(suite_spans[0])
        children = np.flatnonzero(a["parent"] == suite)
        # checks run back to back inside run_suites, so each occupies the
        # interval its elapsed time gives, in report order
        t = a["start"][suite]
        for report in reports:
            if report.name not in VERIFY_CHECKS:
                raise RuntimeError(f"unexpected verify check {report.name!r}")
            inside = children[(a["start"][children] >= t)
                              & (a["start"][children] < t + report.elapsed)]
            out[f"verify.{report.name}.s"] = report.elapsed
            out[f"verify.{report.name}.self_s"] = report.elapsed - float(dur[inside].sum())
            t += report.elapsed
        return out
