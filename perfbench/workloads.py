"""The four benchmark workloads: seeded inputs, one timed pass, checks.

Every workload calls dlstar only through the attributes of the `dlstar`
package, looked up at call time, so that the tracer's wrappers and the
self-test's substitutions are seen.  Each check goes through `Checks`,
which counts it as attempted and, when the value is wrong or the call
raises, as failed.
"""

from __future__ import annotations

import itertools
import random
import statistics
from dataclasses import dataclass
from time import perf_counter

import dlstar

FULL, TINY = "full", "tiny"

# oracle: pairs per formula distance, drawn as base pairs.  Each base
# pair (x, y) brings its images under the 6 permutations of the three
# trees, which are graph automorphisms, in both directions: 12 pairs at
# the same distance.  A pair's BFS cost depends on which trees the search
# reaches the target through first (at distance 5 it ranges from 320 to
# 1,100 expanded vertices and clusters by the height change from x to y),
# so a plain sample's cost mix moves with the seed.  The orbit fixes that
# mix, and the medians of the strata then move by a few percent from seed
# to seed.  p50 falls on the median of the distance-4 pairs and p90 on
# the median of the distance-5 pairs.  Longer pairs would make the pass
# too short on samples (one distance-7 pair costs as much as ten
# distance-5 pairs).
ORACLE_BASE_QUOTA = {FULL: {3: 15, 4: 45, 5: 15}, TINY: {2: 1, 3: 1, 4: 1}}
ORACLE_RADIUS = 4
TREE_ORDERS = list(itertools.permutations(range(3)))

# highd: pairs per dimension.  p50 lands among the d = 5 calls and p90
# among the d = 7 calls, each in the middle of its stratum.
HIGHD_COUNT = {FULL: {4: 50, 5: 70, 6: 40, 7: 40}, TINY: {4: 3, 5: 3, 6: 3, 7: 3}}
HIGHD_BRUTE = {FULL: {4: 10, 5: 10, 6: 4, 7: 2}, TINY: {4: 1, 5: 1, 6: 1, 7: 1}}
HIGHD_WALK = 8

# lemmas and boundary: seeded unit calls timed before the first pass and
# after every pass
LEMMA_QUERIES = {FULL: 2000, TINY: 40}
BOUNDARY_QUERIES = {FULL: 600, TINY: 40}

# case counts the verify reports must carry at full size
EXPECTED = {
    "comparison-lemmas": {"vertices": 319, "balanced_probes": 256},
    "beta-closed-form": {"probes": 3590},
    "growth-table": {"samples": 50},
    "probe-exclusion": {"nontrivial_vertices": 10584, "printed_set_misses": 42},
    "asymmetry-certificates": {"min_slacks": [0, 0, 0, 0, 0]},
}


class Checks:
    """Tally of correctness checks; the first failure is kept for the record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def expect(self, what: str, got, want) -> bool:
        self.attempted += 1
        if got == want:
            return True
        self._fail(f"{what}: got {got!r}, want {want!r}")
        return False

    def _fail(self, message: str) -> None:
        if self.first_failure is None:
            self.first_failure = message
        self.failed += 1

    def raised(self, what: str, exc: Exception) -> None:
        self.attempted += 1
        self._fail(f"{what} raised {type(exc).__name__}: {exc}")


Interval = tuple[float, float]


@dataclass
class PassResult:
    """What one pass produced: the (start, end) perf_counter interval of
    each unit call, or verify reports."""

    calls: list[Interval] | None = None
    reports: list | None = None


def timed_call(checks: Checks, what: str, fn, *args):
    """fn(*args) and the interval it ran in.  A call that raises is a
    failed check, returns None, and still reports its interval."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:
        out = None
        checks.raised(what, exc)
    return out, (t0, perf_counter())


def percentiles(latencies_ms: list[float]) -> tuple[float, float]:
    """p50 and p90 with linear interpolation between closest ranks."""
    cuts = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    return cuts[4], cuts[8]


def check_reports(checks: Checks, reports, expected: dict[str, dict]) -> None:
    """Every expected check is present, passes with no failures, and
    carries the expected case counts in its details."""
    by_name = {r.name: r for r in reports}
    checks.expect("verify check names", sorted(by_name), sorted(expected))
    for name, details in expected.items():
        report = by_name.get(name)
        if report is None:
            continue
        checks.expect(f"{name} failures", report.failures, 0)
        checks.expect(f"{name} passed", report.passed, True)
        for key, want in details.items():
            checks.expect(f"{name} {key}", report.details.get(key), want)


def _sorted_ball(params, radius):
    return sorted(dlstar.ball_distances(params, radius), key=dlstar.vertex_sort_key)


class Workload:
    """Seeded inputs, built in __init__, and one timed pass over them.

    A query-shaped workload times its unit calls inside the pass.  The
    others run verify suites in the pass and time their unit calls in
    separate batches with query(), which returns the call intervals.
    """

    name: str
    query_shaped = True
    inputs: list
    sizes: dict

    def run_pass(self, checks: Checks) -> PassResult:
        raise NotImplementedError

    def final_checks(self, checks: Checks) -> None:
        """Checks made once, after the timed rounds."""


class SuiteWorkload(Workload):
    """A workload whose pass is one run_suites call."""

    query_shaped = False
    suites: tuple[str, ...]

    def __init__(self, seed: int, params, expected: dict[str, dict]):
        self.seed = seed
        self.params = params
        self.expected = expected

    def run_pass(self, checks: Checks) -> PassResult:
        try:
            reports = dlstar.run_suites(list(self.suites), self.params,
                                        seed=self.seed, workers=1)
        except Exception as exc:
            checks.raised(f"suites {self.suites}", exc)
            return PassResult(reports=[])
        check_reports(checks, reports, self.expected)
        return PassResult(reports=reports)

    def query(self, checks: Checks) -> list[Interval]:
        raise NotImplementedError


class Oracle(Workload):
    """Formula distance against breadth-first search on DL_3(2)."""

    name = "oracle"

    def __init__(self, seed: int, size: str = FULL):
        params = dlstar.DLParams(3, 2)
        pool = _sorted_ball(params, ORACLE_RADIUS)
        rng = random.Random(seed)
        quota = dict(ORACLE_BASE_QUOTA[size])
        self.inputs = []
        while any(quota.values()):
            x, y = rng.choice(pool), rng.choice(pool)
            k = dlstar.distance(x, y)
            if quota.get(k, 0) > 0:
                quota[k] -= 1
                self.inputs.extend(self._orbit(params, x, y))
        self.sizes = {"ball_radius": ORACLE_RADIUS, "ball_size": len(pool),
                      "pairs": len(self.inputs),
                      "base_pairs_per_distance": ORACLE_BASE_QUOTA[size],
                      "pairs_per_base_pair": 2 * len(TREE_ORDERS)}

    @staticmethod
    def _orbit(params, x, y):
        """(x, y) under every permutation of the trees, both ways round."""
        out = []
        for order in TREE_ORDERS:
            px = dlstar.make_vertex(params, [x.coords[i] for i in order])
            py = dlstar.make_vertex(params, [y.coords[i] for i in order])
            out += [(px, py), (py, px)]
        return out

    def run_pass(self, checks: Checks) -> PassResult:
        distance, bfs_distance = dlstar.distance, dlstar.bfs_distance

        def both(x, y):
            return distance(x, y), bfs_distance(x, y)

        calls = []
        for x, y in self.inputs:
            out, span = timed_call(checks, f"pair {x} {y}", both, x, y)
            calls.append(span)
            if out is not None:
                checks.expect(f"formula vs bfs at {x} {y}", *out)
        return PassResult(calls=calls)


class HighD(Workload):
    """Generic permutation branch of the formula, d = 4..7, q = 2."""

    name = "highd"

    def __init__(self, seed: int, size: str = FULL):
        rng = random.Random(seed)
        self.inputs = []
        for d, count in HIGHD_COUNT[size].items():
            start = dlstar.identity(dlstar.DLParams(d, 2))
            for _ in range(count):
                x = self._walk(start, rng)
                self.inputs.append((x, self._walk(x, rng)))
        # interleave the dimensions, so that the calls of one stratum are
        # timed across the whole pass and not inside one short stretch of it
        rng.shuffle(self.inputs)
        brute = HIGHD_BRUTE[size]
        self.brute = []
        for d, count in brute.items():
            same_d = [i for i, (x, _) in enumerate(self.inputs) if x.d == d]
            self.brute.extend(sorted(rng.sample(same_d, count)))
        self.results: list[int | None] = [None] * len(self.inputs)
        self.sizes = {"walk_length": HIGHD_WALK, "pairs_per_d": HIGHD_COUNT[size],
                      "brute_force_pairs_per_d": brute}

    @staticmethod
    def _walk(v, rng):
        for _ in range(HIGHD_WALK):
            v = rng.choice(dlstar.neighbors(v))
        return v

    def run_pass(self, checks: Checks) -> PassResult:
        distance = dlstar.distance
        calls = []
        for i, (x, y) in enumerate(self.inputs):
            got, span = timed_call(checks, f"distance at {x} {y}", distance, x, y)
            calls.append(span)
            self.results[i] = got
            if got is not None:
                # y is a walk of HIGHD_WALK steps from x
                checks.expect(f"distance within walk length at {x} {y}",
                              0 <= got <= HIGHD_WALK, True)
        return PassResult(calls=calls)

    def final_checks(self, checks: Checks) -> None:
        """Brute force over every ordering on a seeded subset, untimed."""
        for i in self.brute:
            x, y = self.inputs[i]
            try:
                profile = dlstar.pair_profile(x, y)
                want = min(dlstar.f_row_max(profile, s)
                           for s in dlstar.all_permutations(x.d))
            except Exception as exc:
                checks.raised(f"brute force at {x} {y}", exc)
                continue
            checks.expect(f"distance vs brute force at d={x.d}", self.results[i], want)


class Lemmas(SuiteWorkload):
    """The comparison-lemma suite, plus seeded lower_bounds calls."""

    name = "lemmas"
    suites = ("lemmas",)

    def __init__(self, seed: int, size: str = FULL):
        # the tiny size runs the same suite on DL_2(2), whose radius-3
        # ball has 39 vertices instead of 319
        params = dlstar.DLParams(3 if size == FULL else 2, 2)
        pool = _sorted_ball(params, 3)
        expected = dict(EXPECTED["comparison-lemmas"]) if size == FULL else {"vertices": len(pool)}
        super().__init__(seed, params, {"comparison-lemmas": expected})
        rng = random.Random(seed)
        self.inputs = [(rng.choice(pool), rng.choice(pool))
                       for _ in range(LEMMA_QUERIES[size])]
        self.sizes = {"d": params.d, "ball_radius": 3, "ball_size": len(pool),
                      "query_calls": len(self.inputs)}

    def query(self, checks: Checks) -> list[Interval]:
        lower_bounds = dlstar.lower_bounds
        calls = []
        for x, y in self.inputs:
            reports, span = timed_call(checks, f"lower_bounds at {x} {y}", lower_bounds, x, y)
            calls.append(span)
            if reports is not None:
                checks.expect(f"lower bounds verified at {x} {y}",
                              [r.verified for r in reports], [True, True])
        return calls


class Boundary(SuiteWorkload):
    """The horofunction and star suites, plus seeded limit_value calls."""

    name = "boundary"
    suites = ("horofn", "stars")

    def __init__(self, seed: int, size: str = FULL):
        # the suites have one fixed size, so the tiny size only trims the queries
        params = dlstar.DLParams(3, 2)
        super().__init__(seed, params, {k: EXPECTED[k] for k in (
            "beta-closed-form", "growth-table", "probe-exclusion", "asymmetry-certificates")})
        pool = _sorted_ball(params, 5)
        rng = random.Random(seed)
        self.inputs = [rng.choice(pool) for _ in range(BOUNDARY_QUERIES[size])]
        self.sizes = {"probe_ball_radius": 5, "query_calls": len(self.inputs)}

    def query(self, checks: Checks) -> list[Interval]:
        limit_value, beta_value = dlstar.limit_value, dlstar.beta_value
        beta = dlstar.beta_family(self.params)
        calls = []
        for z in self.inputs:
            got, span = timed_call(checks, f"limit_value at {z}", limit_value, beta, z)
            calls.append(span)
            if got is not None:
                checks.expect(f"limit vs closed form at {z}", got.value, beta_value(z))
        return calls


WORKLOADS = {w.name: w for w in (Oracle, Lemmas, Boundary, HighD)}
