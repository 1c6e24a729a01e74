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
# smaller than these would contradict the published optimal listings (and, for
# k <= 5, this solver's own completed searches) and is almost certainly a bug
# upstream, so it gets a loud diagnostic.
KNOWN_MIN_SIZES = {1: 2, 2: 3, 3: 5, 4: 9, 5: 14}


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

    ``base_set`` is nonnegative, as every pattern enumeration is.
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
        if self.base_set.values[0] < 0:
            raise ValueError(f"base_set value {self.base_set.values[0]} is negative")
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
    """Bitset of a nonnegative code (bit a set iff a in code)."""
    m = 0
    for v in code.values:
        m |= 1 << v
    return m


def _shifted(mask: int, b: int) -> int:
    return mask << b if b >= 0 else mask >> -b


def coverage_mask(instance: CoverInstance, b: int) -> int:
    """Bitset of targets covered by translate b (i.e. {a + b} inside [0, 3^k))."""
    full = (1 << instance.target_size) - 1
    return _shifted(base_mask(instance.base_set), b) & full


def uncovered_values(instance: CoverInstance, code: BlockCode) -> list[int]:
    """All target values not expressible as a + b; empty means the cover holds."""
    if code.k != instance.k:
        raise ValueError(f"code has block length {code.k}, expected {instance.k}")
    full = (1 << instance.target_size) - 1
    bmask = base_mask(instance.base_set)
    covered = 0
    for b in code.values:
        covered |= _shifted(bmask, b)
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
    Each step costs what it touches, never a pass over all 3^k candidates:

    * Selection keeps the current top marginal L and the ascending array of
      translates that had marginal L when it was built, and takes the first
      entry still at L.  Marginals only fall, so no translate rises back to
      L: that entry is the smallest translate of maximum marginal, the
      smallest-value tie-break.  The array is rebuilt (one O(3^k) pass) only
      once every entry has dropped below L, at most once per distinct level.
    * The marginals live in one array padded to every value t - a can take,
      the candidates [lo, hi) being a view into it, so the decrements of a
      step are one indexed scatter (``np.subtract.at``) of |base| units per
      newly covered target, with no range mask.

    A step thus costs O(|base|^2) plus its share of the rebuilds.  The
    scatter needs numpy >= 1.25, whose indexed ``ufunc.at`` loops run as fast
    as ``bincount``; older numpy gives the same covers, many times slower.

    A one-element base {a} is answered directly: every translate covers at
    most one target, so the greedy takes each b with 0 <= a + b < 3^k in
    ascending order.
    """
    size = instance.target_size
    lo, hi = instance.lo, instance.hi
    if len(instance.base_set) == 1:
        (a,) = instance.base_set.values
        if lo > -a or hi < size - a:
            raise InfeasibleCoverError("no translate covers the remaining targets")
        code = BlockCode(instance.k, tuple(range(-a, size - a)))
        return verify_complement(instance, code, method="greedy", optimal="unknown")

    import numpy as np

    base = np.array(instance.base_set.values, dtype=np.int64)
    a_min, a_max = instance.base_set.values[0], instance.base_set.values[-1]

    # every t - a with 0 <= t < 3^k lies in [ext_lo, ext_hi)
    ext_lo, ext_hi = min(lo, -a_max), max(hi, size - a_min)
    ext = np.zeros(ext_hi - ext_lo, dtype=np.int64)
    marginals = ext[lo - ext_lo : hi - ext_lo]
    # marginal against the fully-uncovered target: #{a : 0 <= a + b < 3^k}
    b_arr = np.arange(lo, hi, dtype=np.int64)
    marginals[:] = np.searchsorted(base, size - b_arr) - np.searchsorted(base, -b_arr)
    del b_arr
    shift = base + ext_lo  # the slot of t - a is t - shift[a]

    # every a + b with b in [lo, hi), and every target, lies in [u_lo, u_hi);
    # the padding outside [0, 3^k) counts as covered
    u_lo, u_hi = min(0, lo + a_min), max(size, hi + a_max)
    uncovered = np.zeros(u_hi - u_lo, dtype=bool)
    uncovered[-u_lo : size - u_lo] = True

    remaining = size
    chosen: list[int] = []
    level, at_level, pos = 0, np.empty(0, dtype=np.intp), 0
    while remaining:
        while pos < len(at_level) and marginals[at_level[pos]] != level:
            pos += 1
        if pos == len(at_level):
            level = int(marginals.max())
            if level <= 0:
                raise InfeasibleCoverError("no translate covers the remaining targets")
            at_level, pos = np.flatnonzero(marginals == level), 0
        b = int(at_level[pos]) + lo
        chosen.append(b)
        t = base + b
        t = t[uncovered[t - u_lo]]
        uncovered[t - u_lo] = False
        remaining -= len(t)
        # each newly covered target t retires one unit from every translate t - a
        for start in range(0, len(t), 512):
            np.subtract.at(ext, (t[start : start + 512, None] - shift).ravel(), 1)
    code = BlockCode.from_iterable(instance.k, chosen)
    return verify_complement(instance, code, method="greedy", optimal="unknown")


def greedy_size_bound(k: int) -> float:
    """Testable form of the greedy guarantee for the {0,1}-pattern base set:
    2 * (3/2)^k * k * ln 3 + 1."""
    return 2.0 * (3.0 / 2.0) ** k * k * math.log(3) + 1.0


# -- the translate table and the budget exit ----------------------------------


class _BudgetExhausted(Exception):
    """The exact search's node or time budget ran out.  Raised wherever the
    budget is checked and caught once, in :func:`exact_min_complement`."""


def _check_clock(deadline: Optional[float]) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise _BudgetExhausted


def _translate_rows(instance: CoverInstance, deadline: Optional[float] = None) -> list[tuple[int, ...]]:
    """rows[v]: the in-range translates v - a covering target v, in base
    order.  Raises InfeasibleCoverError if some row is empty, and
    _BudgetExhausted once ``deadline`` passes."""
    lo, hi = instance.lo, instance.hi
    base_values = instance.base_set.values
    rows = []
    for v in range(instance.target_size):
        if v % 256 == 0:
            _check_clock(deadline)
        row = tuple(b for b in (v - a for a in base_values) if lo <= b < hi)
        if not row:
            raise InfeasibleCoverError(f"no translate covers target {v}")
        rows.append(row)
    return rows


# -- fractional-cover (LP-dual) bound -----------------------------------------

#: W, the common denominator of the integer dual weights.
DUAL_SCALE = 1 << 12
_MWU_EPS = 0.1


def _packing_counts(
    instance: CoverInstance, rows: list[tuple[int, ...]], deadline: Optional[float] = None
) -> list[int]:
    """Garg-Koenemann multiplicative weights for the packing LP
    max sum y_v  s.t.  sum_{v in cov(b)} y_v <= 1  for every in-range b,
    the dual of the covering LP.  Returns how often each target was raised
    (y up to a common factor); raises _BudgetExhausted once ``deadline``
    passes.

    The incidence is never stored: the translates covering v are ``rows[v]``,
    and their targets rows[v] + base, built per step as index arrays (an
    out-of-range target goes to a sink slot past 3^k).  The floats only pass
    through elementwise adds and multiplies, bincount's in-order sums, an
    exactly rounded fsum and argmin (no BLAS, no libm), so the counts are the
    same on every machine.
    """
    import numpy as np

    size = instance.target_size
    lo, hi = instance.lo, instance.hi
    base = np.array(instance.base_set.values, dtype=np.int64)
    covering = len(set().union(*rows))
    rows = [np.array(r, dtype=np.int64) for r in rows]
    # col[v] = sum of the lengths of the translates covering v; lengths start at 1
    col = np.array([len(r) for r in rows], dtype=np.float64)
    length = np.ones(hi - lo, dtype=np.float64)
    total = float(covering)
    # stop once sum(length) >= 1/delta, delta = (1+eps) * ((1+eps) m)^(-1/eps)
    stop = 1.0 / (1.0 + _MWU_EPS)
    for _ in range(round(1 / _MWU_EPS)):
        stop *= (1.0 + _MWU_EPS) * covering
    sink = np.uint64(size)
    counts = [0] * size
    steps = 0
    while total < stop:
        steps += 1
        if steps % 256 == 0:
            _check_clock(deadline)
        v = int(np.argmin(col))
        counts[v] += 1
        row = rows[v]
        inc = length[row - lo] * _MWU_EPS
        hit = np.minimum((row[:, None] + base).view(np.uint64), sink).ravel()
        col += np.bincount(hit, weights=np.repeat(inc, len(base)), minlength=size + 1)[:size]
        length[row - lo] += inc
        total += math.fsum(inc.tolist())
    return counts


def bit_planes(weights: list[int]) -> list[tuple[int, int]]:
    """(j, P_j) for every nonzero P_j, the bitset of targets whose weight has
    bit j set, so sum_{v in U} w_v = sum_j 2^j popcount(U & P_j)."""
    planes = []
    for j in range(max(weights, default=0).bit_length()):
        p = 0
        for v, w in enumerate(weights):
            if w >> j & 1:
                p |= 1 << v
        if p:
            planes.append((j, p))
    return planes


def _weight_of(planes: list[tuple[int, int]], mask: int) -> int:
    total = 0
    for j, p in planes:
        total += (mask & p).bit_count() << j
    return total


def gate_dual_weights(weights: list[int], coverages: list[int]) -> list[int]:
    """The exact check that makes integer dual weights safe: the load
    sum_{v in cov(b)} w_v of every translate's coverage bitset must be at
    most W.  If the largest load L exceeds W, every weight becomes w*W // L,
    after which no load exceeds W.  Only integers are involved, so no float
    error upstream can make the resulting bound unsound."""
    planes = bit_planes(weights)
    heaviest = max((_weight_of(planes, c) for c in coverages), default=0)
    if heaviest <= DUAL_SCALE:
        return list(weights)
    return [w * DUAL_SCALE // heaviest for w in weights]


def dual_weights(instance: CoverInstance, coverages: list[int]) -> list[int]:
    """Integer dual weights w_v over W with every translate's load at most W.
    The multiplicative-weights counts times W go through the exact gate,
    which turns them into count_v * W // L, L the largest count load: the
    largest feasible multiple of the counts.  ``coverages`` must hold the
    coverage bitset of every in-range translate that covers some target."""
    counts = _packing_counts(instance, _translate_rows(instance))
    return gate_dual_weights([c * DUAL_SCALE for c in counts], coverages)


def dual_bound(planes: list[tuple[int, int]], uncovered: int) -> int:
    """ceil(sum_{v in uncovered} w_v / W).  A gated dual restricted to the
    uncovered targets stays feasible, so this bounds the number of translates
    any cover of them needs (LP duality: Lovasz 1975, Chvatal 1979)."""
    return -(-_weight_of(planes, uncovered) // DUAL_SCALE)


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
    combines the counting bound ceil(|uncovered| / |base_set|) with the
    fractional-cover bound ceil(sum of uncovered dual weights / W) (see
    :func:`dual_weights`, computed once per call and gated in exact integers),
    dominance elimination inside a branch, and sibling bans (a candidate whose
    subtree is exhausted cannot reappear later at the same node).  The greedy
    cover (or ``initial``, if smaller) is the first incumbent.  The search
    order is fixed, the dual weights are machine-independent and budgets
    count nodes, so results are reproducible.  The bounds only cut subtrees
    that cannot beat the incumbent, so a tighter bound changes node counts
    but never the cover a completed search returns.

    Budget exhaustion is not an error: the certificate carries the best
    solution found with optimal="unknown" and stats.budget_exhausted set.
    The time budget covers the translate table and the dual weights as well
    as the search, so at large k it ends with the greedy cover.
    """
    budget = budget or SolverBudget()
    full = (1 << instance.target_size) - 1
    base_len = len(instance.base_set)

    stats = SolveStats()
    t0 = time.perf_counter()
    node_cap = budget.max_nodes
    deadline = None if budget.max_seconds is None else t0 + budget.max_seconds

    best = list(greedy_complement(instance).solution.values)  # the incumbent, replaced in place
    if initial is not None and len(initial) < len(best):
        verify_complement(instance, initial)
        best = list(initial.values)

    offset = -instance.lo  # banned-translate bitset index

    def search(uncovered: int, chosen: list[int], banned: int) -> None:
        stats.nodes += 1
        if node_cap is not None and stats.nodes > node_cap:
            raise _BudgetExhausted
        if stats.nodes % 4096 == 0:
            _check_clock(deadline)
        if not uncovered:
            best[:] = sorted(chosen)
            return
        need = len(best) - len(chosen)
        if -(-uncovered.bit_count() // base_len) >= need or dual_bound(planes, uncovered) >= need:
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
        kept: list[tuple[int, int]] = []
        for _, b, cu in cands:
            for _, k in kept:
                if not cu & ~k:
                    break
            else:
                kept.append((b, cu))
        # Inclusion-exclusion: once the subtree containing b is exhausted,
        # every cover using b has been seen, so later siblings may ban it.
        for b, c in kept:
            chosen.append(b)
            search(uncovered & ~c, chosen, banned)
            chosen.pop()
            banned |= 1 << (b + offset)

    try:
        rows = _translate_rows(instance, deadline)
        bmask = base_mask(instance.base_set)
        cover = {b: _shifted(bmask, b) & full for b in set().union(*rows)}
        # cands_of[v] pairs each translate covering v with its coverage bitset
        cands_of = [tuple((b, cover[b]) for b in row) for row in rows]
        counts = _packing_counts(instance, rows, deadline)
        planes = bit_planes(gate_dual_weights([c * DUAL_SCALE for c in counts], list(cover.values())))
        search(full, [], 0)
    except _BudgetExhausted:
        stats.budget_exhausted = True
    # search's closure holds search itself; emptying that cell breaks the
    # cycle, so the tables go with this frame instead of waiting for the
    # cycle collector (which let every call's tables pile up).
    del search
    stats.elapsed = time.perf_counter() - t0

    optimal = "unknown" if stats.budget_exhausted else "proven-optimal"
    code = BlockCode.from_iterable(instance.k, best)
    cert = verify_complement(instance, code, method="exact", optimal=optimal)
    cert.stats = stats

    known = KNOWN_MIN_SIZES.get(instance.k)
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
