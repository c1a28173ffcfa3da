"""Finite-scale evidence for star inclusions and exclusions at infinity.

A boundary point lies in the star of another when its approaching
points eventually enter every halfspace around the other's witness set.
At finite scale this yields two one-sided certificates: star_witness
confirms the halfspace inequality along matched family indices
(inclusion evidence), and separation_evidence confirms a uniform
distance excess against a truncated neighborhood of the balanced tree-3
ray (exclusion evidence).  Both report margins, never membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .dlgraph import DLParams, DLVertex, PointFamily, balanced_vertices
from .errors import ProfileMismatch, WrongDimension
from .horofn import shifts
from .treecoord import _require_int


@dataclass(frozen=True)
class StarWitnessReport:
    """Margins d(a_n, id) + C - d(a_n, b_n) for n = 1..checked_n."""

    a: str
    b: str
    checked_n: int
    offset: int
    margins: tuple[int, ...]
    first_failure: int | None

    @property
    def holds_for_all(self) -> bool:
        return self.first_failure is None


def star_witness(
    a: PointFamily, b: PointFamily, n_max: int, offset: int = 0
) -> StarWitnessReport:
    """Check d(a_n, b_n) <= d(a_n, id) + offset for every 1 <= n <= n_max.

    Success is evidence that the limit of a lies in the star of the
    limit of b; a negative margin pinpoints the first failing index.
    """
    _require_int(n_max, "n_max", 1)
    _require_int(offset, "offset")
    margins = []
    first_failure = None
    for n in range(1, n_max + 1):
        (shift,) = shifts(a.at(n), (b.at(n),))
        margin = offset - shift
        margins.append(margin)
        if margin < 0 and first_failure is None:
            first_failure = n
    return StarWitnessReport(a.name, b.name, n_max, offset, tuple(margins), first_failure)


def nk_beta_truncation(params: DLParams, k: int, depth: int) -> tuple[DLVertex, ...]:
    """Balanced tree-3 excursions with spine depth in [k, k + depth].

    These are the vertices agreeing with the beta ray's tail shape up
    to relabeling: trivial in trees 1 and 2, equal spine depth and
    climb in tree 3, every canonical label choice included.  There are
    (q-1) q^(j-1) of them at each depth j >= 1.  Raises
    MemoryCapExceeded past DEFAULT_MEMORY_CAP of them.
    """
    if params.d != 3:
        raise WrongDimension("the truncated neighborhood is defined for d = 3")
    _require_int(k, "k", 0)
    _require_int(depth, "depth", 0)
    return balanced_vertices(params, (range(1), range(1), range(k, k + depth + 1)))


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail evidence for a property checked over an enumerated domain.

    skipped is None when the check ran, else why it does not run on the
    graph it was asked about; a skipped report has no cases and passes.
    """

    name: str
    cases: int
    failures: int
    first_failure: str | None = None
    details: dict = field(default_factory=dict)
    elapsed: float | None = None
    skipped: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        if self.skipped:
            return f"SKIP {self.name}: {self.skipped}"
        verdict = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        tail = f" [{extras}]" if extras else ""
        timing = f" ({self.elapsed:.2f}s)" if self.elapsed is not None else ""
        fails = f", {self.failures} failures" if self.failures else ""
        first = f", first: {self.first_failure}" if self.first_failure else ""
        return f"{verdict} {self.name}: {self.cases} cases{fails}{first}{tail}{timing}"


class Tally:
    """Cases, failures and the first failure message of one check.

    Messages are zero-argument callables, called only for the first
    failure, so a passing case formats nothing.
    """

    def __init__(self) -> None:
        self.cases = 0
        self.failures = 0
        self.first_failure: str | None = None

    def check(self, ok: bool, message: Callable[[], str | None]) -> None:
        """Count one case, and a failure unless ok."""
        self.cases += 1
        if not ok:
            self.fail(message)

    def fail(self, message: Callable[[], str | None], count: int = 1) -> None:
        """Count failures without counting cases."""
        self.failures += count
        if self.first_failure is None:
            self.first_failure = message()

    def screen(self, bad, message: Callable[..., str], weights) -> None:
        """Weighted numpy screen: element i of the boolean array bad stands
        for weights[i] cases, all failures where bad[i].  message is called
        with the index of the first failure."""
        self.cases += int(weights.sum())
        count = int(weights[bad].sum())
        if count:
            self.fail(lambda: message(*(int(ix[0]) for ix in bad.nonzero())), count)

    def report(self, name: str, details: dict) -> VerificationReport:
        return VerificationReport(
            name, self.cases, self.failures, self.first_failure, details
        )


def separation_evidence(
    a: PointFamily, k: int, n_max: int, depth: int
) -> VerificationReport:
    """Uniform distance excess of a's points over the beta neighborhood.

    Requires a's limiting tree-3 spine depth, read from its shape, to be
    exactly 0: unbounded when tree 3 descends, else the base's depth
    there.  Verifies distance(a_n, w) >= distance(a_n, id) + k for all
    1 <= n <= n_max and every w in the depth-truncated neighborhood at
    scale k; reports the minimum slack observed.
    """
    _require_int(k, "k", 1)
    _require_int(n_max, "n_max", 1)
    witnesses = nk_beta_truncation(a.params, k, depth)  # refuses d != 3 first
    limit = "unbounded" if 2 in a.down else a.base.coords[2].m
    if limit != 0:
        raise ProfileMismatch(f"{a.name} has limiting tree-3 spine depth {limit}, need 0")
    tally = Tally()
    slacks = []
    for n in range(1, n_max + 1):
        for w, shift in zip(witnesses, shifts(a.at(n), witnesses)):
            slacks.append(shift - k)
            tally.check(slacks[-1] >= 0, lambda: f"n={n}, w={w}")
    return tally.report(
        f"separation:{a.name},k={k}",
        {"min_slack": min(slacks, default=None), "k": k, "n_max": n_max, "depth": depth},
    )
