"""Complement search: find B with base_set + B covering [0, 3^k).

Three entry points share one certificate type:

* :func:`verify_complement` checks a proposed code and produces witnesses;
* :func:`greedy_complement` runs max-coverage greedy selection;
* :func:`exact_min_complement` proves minimality by branch and bound.

The search state is a single arbitrary-precision integer used as a bitset over
the target [0, 3^k): the coverage of a translate b is one shift, one AND and
one popcount, which is what makes the exact search at k = 4..5 feasible in
pure Python.  All tie-breaking is fixed, so identical instances always yield
identical certificates.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .ternary import BASE, BlockCode, concat_codes, zero_one_base

log = logging.getLogger(__name__)

# Sizes the exact solver is never allowed to beat silently: a verified cover
# smaller than these would contradict the published optimal listings and is
# almost certainly a bug upstream, so it gets a loud diagnostic.
KNOWN_MIN_SIZES = {1: 2, 2: 3, 3: 5, 4: 9}
KNOWN_BEST_SIZES = {5: 14}


class CoverVerificationError(ValueError):
    """A proposed code fails to cover the target; carries the uncovered values."""

    def __init__(self, uncovered: list[int]):
        self.uncovered = uncovered
        preview = ", ".join(map(str, uncovered[:8]))
        more = "..." if len(uncovered) > 8 else ""
        super().__init__(f"{len(uncovered)} uncovered target values: {preview}{more}")


class InfeasibleCoverError(ValueError):
    """No candidate in range can cover some target value."""


@dataclass(frozen=True)
class CoverInstance:
    """A cover problem: translate ``base_set`` to hit every value in [0, 3^k).

    ``lo``/``hi`` bound the allowed translates.  The default range [0, 3^k)
    matches all the bundled optimal sets; the signed range (-3^k, 3^k) is the
    general setting and can be requested explicitly.
    """

    k: int
    base_set: BlockCode
    lo: int = 0
    hi: int = -1  # sentinel, replaced by 3^k in __post_init__

    def __post_init__(self) -> None:
        if self.base_set.k != self.k:
            raise ValueError(f"base_set has block length {self.base_set.k}, expected {self.k}")
        if not self.base_set.values:
            raise ValueError("base_set must be nonempty")
        if self.hi == -1:
            object.__setattr__(self, "hi", BASE**self.k)
        bound = BASE**self.k
        if not (-bound <= self.lo < self.hi <= bound):
            raise ValueError(f"candidate range [{self.lo}, {self.hi}) out of bounds for k={self.k}")

    @classmethod
    def signed(cls, k: int, base_set: BlockCode) -> "CoverInstance":
        return cls(k, base_set, lo=-(BASE**k) + 1, hi=BASE**k)

    @property
    def target_size(self) -> int:
        return BASE**self.k


@dataclass
class SolverBudget:
    """Limits for the exact search.  Node limits keep results machine-independent;
    the time limit is a wall-clock safety net."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = 600.0


@dataclass
class SolveStats:
    nodes: int = 0
    elapsed: float = 0.0
    budget_exhausted: bool = False


class WitnessTable:
    """Lazy witness map: for each target v, the lexicographically least pair
    (a, b) with a in base_set, b in solution and a + b = v."""

    def __init__(self, instance: CoverInstance, solution: BlockCode):
        self._instance = instance
        self._solution = solution

    def __getitem__(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self._instance.target_size:
            raise KeyError(v)
        for a in self._instance.base_set.values:
            if v - a in self._solution:
                return (a, v - a)
        raise KeyError(f"{v} is not covered")


@dataclass
class CoverCertificate:
    """A verified cover with provenance.

    ``optimal`` is tri-state: "proven-optimal", "unknown", or
    "proven-suboptimal".  ``witness[v]`` gives the canonical pair summing to v
    (computed on demand; the choice is deterministic, smallest a then b).
    """

    instance: CoverInstance
    solution: BlockCode
    method: str  # greedy | exact | external
    optimal: str = "unknown"
    stats: SolveStats = field(default_factory=SolveStats)

    def __post_init__(self) -> None:
        if self.optimal not in ("proven-optimal", "unknown", "proven-suboptimal"):
            raise ValueError(f"bad optimality flag {self.optimal!r}")

    @property
    def witness(self) -> WitnessTable:
        return WitnessTable(self.instance, self.solution)

    @property
    def size(self) -> int:
        return len(self.solution)

    def verify(self) -> bool:
        return not uncovered_values(self.instance, self.solution)


# -- bitset plumbing ----------------------------------------------------------


def base_mask(code: BlockCode) -> int:
    """Bitset of the nonnegative part of a code (bit a set iff a in code, a >= 0)."""
    m = 0
    for v in code.values:
        if v >= 0:
            m |= 1 << v
    return m


def _shifted(mask: int, b: int) -> int:
    return mask << b if b >= 0 else mask >> -b


def coverage_mask(instance: CoverInstance, b: int, neg_values: tuple[int, ...] = ()) -> int:
    """Bitset of targets covered by translate b (i.e. {a + b} inside [0, 3^k))."""
    full = (1 << instance.target_size) - 1
    m = _shifted(base_mask(instance.base_set), b) & full
    for a in neg_values:
        v = a + b
        if 0 <= v < instance.target_size:
            m |= 1 << v
    return m


def uncovered_values(instance: CoverInstance, code: BlockCode) -> list[int]:
    """All target values not expressible as a + b; empty means the cover holds."""
    if code.k != instance.k:
        raise ValueError(f"code has block length {code.k}, expected {instance.k}")
    full = (1 << instance.target_size) - 1
    bmask = base_mask(instance.base_set)
    negs = tuple(a for a in instance.base_set.values if a < 0)
    covered = 0
    for b in code.values:
        covered |= _shifted(bmask, b)
        for a in negs:
            v = a + b
            if v >= 0:
                covered |= 1 << v
    covered &= full
    missing = full & ~covered
    out = []
    while missing:
        v = (missing & -missing).bit_length() - 1
        out.append(v)
        missing &= missing - 1
    return out


def verify_complement(
    instance: CoverInstance,
    code: BlockCode,
    method: str = "external",
    optimal: str = "unknown",
) -> CoverCertificate:
    """Check a proposed complement; return a certificate or raise with the gap.

    Raises CoverVerificationError listing every uncovered value, and
    ValueError on a block-length mismatch or out-of-range candidate.
    """
    for b in code.values:
        if not instance.lo <= b < instance.hi:
            raise ValueError(f"candidate {b} outside allowed range [{instance.lo}, {instance.hi})")
    missing = uncovered_values(instance, code)
    if missing:
        raise CoverVerificationError(missing)
    return CoverCertificate(instance, code, method=method, optimal=optimal)


def counting_lower_bound(instance: CoverInstance) -> int:
    """ceil(3^k / |base_set|): every translate covers at most |base_set| targets."""
    return -(-instance.target_size // len(instance.base_set))


# -- greedy (the classical covering argument, run literally) ------------------


def greedy_complement(instance: CoverInstance) -> CoverCertificate:
    """Max-coverage greedy: repeatedly take the translate covering the most
    still-uncovered targets, ties broken by smallest value.

    Marginal coverage counts are maintained incrementally as exact integers:
    when a target t becomes covered, every translate t - a loses one unit.
    np.argmax returns the first maximum, which is exactly the smallest-value
    tie-break.  Total update work is |base| per (target, cover) incidence,
    which keeps k = 12 (half a million candidates) in seconds.
    """
    import numpy as np

    size = instance.target_size
    n_cand = instance.hi - instance.lo
    base = np.array(instance.base_set.values, dtype=np.int64)
    b_arr = np.arange(instance.lo, instance.hi, dtype=np.int64)

    # marginal against the fully-uncovered target: #{a : 0 <= a + b < 3^k}
    marginals = (
        np.searchsorted(base, size - b_arr, side="left")
        - np.searchsorted(base, -b_arr, side="left")
    ).astype(np.int64)

    uncovered = np.ones(size, dtype=bool)
    remaining = size
    chosen: list[int] = []
    while remaining:
        idx = int(np.argmax(marginals))
        if marginals[idx] <= 0:
            raise InfeasibleCoverError("no translate covers the remaining targets")
        b = idx + instance.lo
        chosen.append(b)
        t = base + b
        t = t[(t >= 0) & (t < size)]
        t = t[uncovered[t]]
        uncovered[t] = False
        remaining -= len(t)
        # each newly covered target t retires one unit from every translate t - a
        for start in range(0, len(t), 512):
            hits = t[start : start + 512, None] - base[None, :] - instance.lo
            hits = hits[(hits >= 0) & (hits < n_cand)]
            marginals -= np.bincount(hits, minlength=n_cand)
    code = BlockCode.from_iterable(instance.k, chosen)
    return verify_complement(instance, code, method="greedy", optimal="unknown")


def greedy_size_bound(k: int) -> float:
    """Testable form of the greedy guarantee for the {0,1}-pattern base set:
    2 * (3/2)^k * k * ln 3 + 1."""
    return 2.0 * (3.0 / 2.0) ** k * k * math.log(3) + 1.0


# -- exact minimal (branch and bound) -----------------------------------------


def exact_min_complement(
    instance: CoverInstance,
    budget: SolverBudget | None = None,
    initial: BlockCode | None = None,
) -> CoverCertificate:
    """Branch and bound for a minimum-size complement.

    Branches on the least uncovered target v: every solution must contain some
    b in {v - a : a in base_set} within range.  Candidates inside a branch are
    ordered by descending marginal coverage, then ascending value.  Pruning
    combines the counting bound ceil(|uncovered| / |base_set|) with an
    independent-values bound (targets no single translate can cover together
    force distinct picks), dominance elimination inside a branch, and sibling
    bans (a candidate whose subtree is exhausted cannot reappear later at the
    same node).  The greedy cover (or ``initial``, if smaller) is the first
    incumbent.  The search order is fixed and budgets count nodes, so results
    are reproducible.

    Budget exhaustion is not an error: the certificate carries the best
    solution found with optimal="unknown" and stats.budget_exhausted set.
    """
    budget = budget or SolverBudget()
    size = instance.target_size
    full = (1 << size) - 1
    negs = tuple(a for a in instance.base_set.values if a < 0)
    base_values = instance.base_set.values
    base_len = len(base_values)

    stats = SolveStats()
    t0 = time.perf_counter()
    node_cap = budget.max_nodes
    time_cap = budget.max_seconds

    # Per-target candidate tables, computed once.  cands_of[v] lists every
    # in-range translate that covers v with its coverage bitset; union_of[v]
    # is the union of those coverages, used by the independent-values bound:
    # if v' is outside union_of[v], no single translate covers both, so v and
    # v' force distinct picks.  The table itself costs 3^k * |base| bit work,
    # so the time budget applies here too (large k falls back to greedy).
    cands_of: list[tuple[tuple[int, int], ...]] = []
    union_of: list[int] = []
    cov_cache: dict[int, int] = {}
    for v in range(size):
        if time_cap is not None and v % 256 == 0 and time.perf_counter() - t0 > time_cap:
            stats.budget_exhausted = True
            break
        row = []
        u = 0
        for a in base_values:
            b = v - a
            if instance.lo <= b < instance.hi:
                c = cov_cache.get(b)
                if c is None:
                    c = coverage_mask(instance, b, negs)
                    cov_cache[b] = c
                row.append((b, c))
                u |= c
        cands_of.append(tuple(row))
        union_of.append(u)

    def lower_bound(uncovered: int) -> int:
        counting = -(-uncovered.bit_count() // base_len)
        indep = 0
        s = uncovered
        while s:
            v = (s & -s).bit_length() - 1
            indep += 1
            s &= ~union_of[v]
        return max(counting, indep)

    start = greedy_complement(instance)
    best_sol = list(start.solution.values)
    if initial is not None and len(initial) < len(best_sol):
        verify_complement(instance, initial)
        best_sol = list(initial.values)
    best_size = len(best_sol)

    offset = -instance.lo  # banned-translate bitset index

    def search(uncovered: int, chosen: list[int], banned: int) -> None:
        nonlocal best_sol, best_size
        if stats.budget_exhausted:
            return
        stats.nodes += 1
        if node_cap is not None and stats.nodes > node_cap:
            stats.budget_exhausted = True
            return
        if time_cap is not None and stats.nodes % 4096 == 0:
            if time.perf_counter() - t0 > time_cap:
                stats.budget_exhausted = True
                return
        if not uncovered:
            best_sol = sorted(chosen)
            best_size = len(chosen)
            return
        if len(chosen) + lower_bound(uncovered) >= best_size:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        cands = []
        for b, c in cands_of[v]:
            if not banned >> (b + offset) & 1:
                cu = c & uncovered
                cands.append((-cu.bit_count(), b, cu))
        cands.sort()
        # Drop dominated candidates: if b1's remaining coverage is contained
        # in b2's, any cover using b1 maps to one using b2 of the same size.
        kept: list[tuple[int, int, int]] = []
        for item in cands:
            cu = item[2]
            if not any(cu & ~k[2] == 0 for k in kept):
                kept.append(item)
        # Inclusion-exclusion: once the subtree containing b is exhausted,
        # every cover using b has been seen, so later siblings may ban it.
        for _, b, c in kept:
            chosen.append(b)
            search(uncovered & ~c, chosen, banned)
            chosen.pop()
            if stats.budget_exhausted:
                return
            banned |= 1 << (b + offset)

    if not stats.budget_exhausted:
        search(full, [], 0)
    stats.elapsed = time.perf_counter() - t0

    optimal = "unknown" if stats.budget_exhausted else "proven-optimal"
    code = BlockCode.from_iterable(instance.k, best_sol)
    cert = verify_complement(instance, code, method="exact", optimal=optimal)
    cert.stats = stats

    known = KNOWN_MIN_SIZES.get(instance.k) or KNOWN_BEST_SIZES.get(instance.k)
    if known is not None and cert.size < known and is_zero_one_base(instance):
        log.error(
            "exact solver found a verified size-%d cover at k=%d, below the published "
            "minimum %d; solution=%s -- this contradicts the reference listings and "
            "needs manual review",
            cert.size,
            instance.k,
            known,
            list(code.values),
        )
    return cert


def is_zero_one_base(instance: CoverInstance) -> bool:
    """Whether the base set is the {0,1} pattern at block length k, the only
    base the published minima and the catalog's complement entries refer to."""
    return instance.base_set == zero_one_base(instance.k)


# -- product probing ----------------------------------------------------------


@dataclass(frozen=True)
class ProductProbeReport:
    k1: int
    k2: int
    product_size: int
    reference_size: int
    reference_optimal: str
    covers: bool

    @property
    def verdict(self) -> str:
        if self.product_size > self.reference_size:
            return "suboptimal"
        if self.reference_optimal == "proven-optimal":
            return "optimal"
        return "matches-best-known"


def product_probe(
    code_a: BlockCode,
    code_b: BlockCode,
    reference: BlockCode,
    reference_optimal: str = "unknown",
) -> ProductProbeReport:
    """Compare the concatenation code_a || code_b against the best known code
    at block length k1 + k2, and verify it actually covers."""
    product = concat_codes(code_a, code_b)
    k = product.k
    if reference.k != k:
        raise ValueError(f"reference code has block length {reference.k}, expected {k}")
    inst = CoverInstance(k, zero_one_base(k))
    covers = not uncovered_values(inst, product)
    return ProductProbeReport(
        k1=code_a.k,
        k2=code_b.k,
        product_size=len(product),
        reference_size=len(reference),
        reference_optimal=reference_optimal,
        covers=covers,
    )
