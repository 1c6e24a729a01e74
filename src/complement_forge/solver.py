"""Complement search: find B with base_set + B covering [0, 3^k).

Three entry points share one certificate type:

* :func:`verify_complement` checks a proposed code and produces witnesses;
* :func:`greedy_complement` runs max-coverage greedy selection;
* :func:`exact_min_complement` proves minimality by branch and bound,
  improving its incumbent once by a local search when it stalls; for the
  {0,1} base it also starts from the digit-split floor
  (:func:`digit_split_bound`), proven from the block lengths below.

The search state is a single arbitrary-precision integer used as a bitset over
the target [0, 3^k): the coverage of a translate b is one shift, one AND and
one popcount, which is what makes the exact search at k = 4..5 feasible in pure
Python.  The branch and bound, :func:`_search_cover`, searches any set of
targets.  A translate b + base covers targets of one residue class mod g, g the
gcd of a - a_min over the base, so it is called once per class (a {0,1} base is
one class; the {0,2} pattern's two parities are two).  It, the dual weights and
the local search read one translate table, built once per search by
:func:`_translate_table`: the translates covering each target, each translate's
targets and coverage bitset, and the base values.  Each function's docstring
gives its own mechanism.  Bounds and covers are decided in integers, the dual
loop's floats give the same counts on every machine, the local search draws
from a seeded ``random.Random`` and all tie-breaking is fixed, so identical
instances always yield identical certificates.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .ternary import BASE, BlockCode, concat_codes, zero_one_base

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
    hi: Optional[int] = None  # None means 3^k

    def __post_init__(self) -> None:
        if self.base_set.k != self.k:
            raise ValueError(f"base_set has block length {self.base_set.k}, expected {self.k}")
        if not self.base_set.values:
            raise ValueError("base_set must be nonempty")
        if self.base_set.values[0] < 0:
            raise ValueError(f"base_set value {self.base_set.values[0]} is negative")
        if self.hi is None:
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
    """What a search did.  ``local_steps`` counts the steps of the local
    search the exact search runs when it stalls (each run ends one step per
    target of its class after its last smaller cover), ``local_gain`` the
    translates those runs took off its incumbent; neither counts a run the
    clock ended.  ``floor`` is the lower bound the search started from, the
    sum of its residue classes' root bounds; ``chain_nodes`` the nodes the
    searches of the digit-split chain (:func:`_digit_split_floor`) took,
    which neither ``nodes`` nor the node budget counts."""

    nodes: int = 0
    budget_exhausted: bool = False
    local_steps: int = 0
    local_gain: int = 0
    floor: int = 0
    chain_nodes: int = 0


@dataclass
class CoverCertificate:
    """A verified cover with provenance.

    ``optimal`` is tri-state: "proven-optimal", "unknown", or
    "proven-suboptimal".
    """

    instance: CoverInstance
    solution: BlockCode
    method: str  # greedy | exact | external
    optimal: str = "unknown"
    stats: SolveStats = field(default_factory=SolveStats)

    def __post_init__(self) -> None:
        if self.optimal not in ("proven-optimal", "unknown", "proven-suboptimal"):
            raise ValueError(f"bad optimality flag {self.optimal!r}")

    def witness(self, v: int) -> tuple[int, int]:
        """The canonical pair summing to v: the least a in base_set with
        b = v - a in solution.  KeyError if v is off the target or uncovered.

        With C the solution's bitset offset by ``off`` and R the base's bitset
        reflected about a_max (bit a_max - a for each a), bit a_max - a of
        shift(C, a_max - v - off) is set iff v - a is in the solution, so the
        highest bit of that shift ANDed with R is the least such a."""
        if not 0 <= v < self.instance.target_size:
            raise KeyError(v)
        code_mask, off, reflected, a_max = self._witness_masks
        hits = _shifted(code_mask, a_max - v - off) & reflected
        if not hits:
            raise KeyError(f"{v} is not covered")
        a = a_max - hits.bit_length() + 1
        return (a, v - a)

    @functools.cached_property
    def _witness_masks(self) -> tuple[int, int, int, int]:
        """(C, off, R, a_max) for :meth:`witness`, built on its first call."""
        base = self.instance.base_set.values
        a_max = base[-1]
        off = -min(self.solution.values[0], 0) if self.solution.values else 0
        reflected = base_mask(BlockCode(self.instance.k, tuple(a_max - a for a in reversed(base))))
        return base_mask(self.solution, off), off, reflected, a_max

    @property
    def size(self) -> int:
        return len(self.solution)

    def verify(self) -> bool:
        return not uncovered_values(self.instance, self.solution)


# -- bitset plumbing ----------------------------------------------------------


def base_mask(code: BlockCode, offset: int = 0) -> int:
    """Bitset of a code shifted by ``offset`` (bit v + offset set iff v in
    code), every v + offset nonnegative.  Built in one pass over a
    bytearray read as a little-endian int, not by |code| big-int ORs."""
    if not code.values:
        return 0
    buf = bytearray((code.values[-1] + offset) // 8 + 1)
    for v in code.values:
        v += offset
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _shifted(mask: int, b: int) -> int:
    return mask << b if b >= 0 else mask >> -b


def uncovered_values(instance: CoverInstance, code: BlockCode) -> list[int]:
    """All target values not expressible as a + b; empty means the cover holds.

    Two exact routes, whichever shifts fewer times.  When the base is the
    digit product of its places' digit sets D_i (:func:`_digit_places`),
    base + code is the code's bitset ORed with itself shifted by d 3^i for
    each nonzero d in D_i (and kept unshifted when 0 is in D_i), one place
    after another: one shift per nonzero digit over all places, k for a
    {0,1} base.  That route is taken when its shift count is below the size
    of the smaller of base and code, the rule the greedy applies between
    its digit passes and its scatter; bits past the target are cut after
    each place.  Otherwise, the sumset being symmetric, the bitset of the
    larger side is shifted by each value of the smaller one: |code| shifts
    of the base's bitset, or |base| shifts of the code's.  Either bitset is
    offset by the code's least value when that is negative.  Only
    integers, so no check imports numpy."""
    if code.k != instance.k:
        raise ValueError(f"code has block length {code.k}, expected {instance.k}")
    size = instance.target_size
    full = (1 << size) - 1
    small, large = sorted((code, instance.base_set), key=len)
    places = _digit_places(instance.base_set)
    if places is not None and _digit_passes(places) < len(small):
        offset = -min(code.values[0], 0)
        window = (1 << size + offset) - 1
        covered = base_mask(code, offset)
        for s, digits in places:
            moved = 0 if digits[0] else covered
            for d in digits:
                if d:
                    moved |= covered << d * s
            covered = moved & window
        covered >>= offset
    else:
        offset = -min(large.values[0], 0)
        mask = base_mask(large, offset)
        covered = 0
        for b in small.values:
            covered |= _shifted(mask, b - offset)
    missing = full & ~covered
    return [v for v, bit in enumerate(bin(missing)[:1:-1]) if bit == "1"]


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


# -- greedy (the classical covering argument, run literally) ------------------


#: The scatter's cost per (target, base value) pair, in units of one element
#: of the digit-pass estimate passes * (span + max base).  Timed per step on
#: {0,1} bases at k = 9..12 (numpy 2.4), an indexed ``ufunc.at`` unit cost
#: 10 to 22 such elements.
_SCATTER_WEIGHT = 16


# bounded, so a long-lived caller that solves over many bases holds only the
# latest 64 decompositions
@functools.lru_cache(maxsize=64)
def _digit_places(base: BlockCode) -> Optional[tuple[tuple[int, tuple[int, ...]], ...]]:
    """(3^i, D_i) for every place i whose digit set D_i among the base's
    k-digit values is not {0}, largest place first, which cuts the greedy's
    digit-pass window fastest; None when the base is not the digit product
    of its D_i, i.e. prod |D_i| != |base|.  In plain integers and cached per
    base, so the greedy and :func:`uncovered_values` share one
    decomposition.  D_i is read off the distinct quotients v // 3^i, a set
    that shrinks place by place: 2^(k-i) of them for a {0,1} base."""
    places, product, rest = [], 1, set(base.values)
    for i in range(base.k):
        digits = tuple(sorted({v % BASE for v in rest}))
        product *= len(digits)
        if product > len(base):
            return None
        if digits != (0,):
            places.append((BASE**i, digits))
        rest = {v // BASE for v in rest}
    return tuple(places[::-1]) if product == len(base) else None


def _digit_passes(places) -> int:
    """The shifts a pass over the digit places makes: one per nonzero digit."""
    return sum(len(digits) - (digits[0] == 0) for _, digits in places)


def _retire_by_digits(ext, ext_lo: int, t, a_min: int, a_max: int, places) -> None:
    """ext[x - ext_lo] -= #{a in base : x + a in t} for every translate x, the
    base being the digit product given by ``places`` (see :func:`_digit_places`)
    and ``t`` the ascending targets a step newly covered.

    The decrements g(x) live on the window [w_lo, w_lo + span) with
    w_lo = t[0] - a_max and span = t[-1] - a_min - w_lo + 1.  Start from the
    indicator h of t - w_lo and let place i turn h(j) into
    sum_{d in D_i} h(j + d 3^i): one vector add per nonzero digit.  Once the
    places in P are done, h(j) = #{a in the sub-product over P : w_lo + j + a
    in t} for every j a later place can still read, a tail that shrinks by
    max(D_i) 3^i per place; after the last place, h[:span] is g exactly.
    """
    import numpy as np

    w_lo = int(t[0]) - a_max
    span = int(t[-1]) - a_min - w_lo + 1
    # h never exceeds the digit product's size
    narrow = math.prod(len(digits) for _, digits in places) < 1 << 15
    h = np.zeros(span + a_max, dtype=np.int16 if narrow else np.int32)
    h[t - w_lo] = 1
    valid = len(h)
    for s, digits in places:
        valid -= digits[-1] * s
        moved = [h[d * s : valid + d * s] for d in digits if d]
        moved = moved[0] if len(moved) == 1 else moved[0] + moved[1]
        if digits[0]:
            h[:valid] = moved
        else:
            h[:valid] += moved
    ext[w_lo - ext_lo : w_lo - ext_lo + span] -= h[:span]


#: How many entries the greedy's level scan reads one at a time before it
#: gallops: a read costs about a twentieth of a numpy window's compare, and
#: the next entry at the level is mostly one or two past the last pick.
_SCAN_ALONE = 8


def _next_at_level(marginals, at_level, pos: int, level: int) -> int:
    """The first i >= pos with marginals[at_level[i]] == level, or
    len(at_level) if there is none.  The first ``_SCAN_ALONE`` entries are
    read one at a time; past them the scan gallops through windows
    [pos + 2^j, pos + 2^(j+1)) read as one numpy compare each, so a hit at
    offset d costs about log2(d) array operations instead of d Python
    steps."""
    n = len(at_level)
    stop = min(n, pos + _SCAN_ALONE)
    while pos < stop:
        if marginals[at_level[pos]] == level:
            return pos
        pos += 1
    import numpy as np

    width = _SCAN_ALONE
    while pos < n:
        hits = np.flatnonzero(marginals[at_level[pos : pos + width]] == level)
        if len(hits):
            return pos + int(hits[0])
        pos += width
        width *= 2
    return n


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
      smallest-value tie-break.  The scan for it starts where the last one
      ended and gallops through windows that double in size
      (:func:`_next_at_level`), so a long run of dropped entries costs a
      few array compares, not one Python step each.  The array is rebuilt
      (one O(3^k) pass) only once every entry has dropped below L, at most
      once per distinct level.
    * A round takes a run of picks, not one.  With g the base's least gap,
      two translates less than g apart cover disjoint targets, so taking
      one leaves the other's marginal as it was.  Every entry in
      [b0, b0 + g) still at L, b0 the first, is then what one pick at a
      time would take next, in the same order, and the round takes them
      all and retires their targets (a + picks, already ascending) in one
      step.  A base with g = 1, such as a {0,1} pattern, takes one pick a
      round; a one-element base, its g taken as 3^k, takes every translate
      in one.
    * The marginals live in one array padded to every value t - a can take,
      the candidates [lo, hi) being a view into it, so a step's decrements
      need no range mask.  They are retired one of two exact ways, whichever
      touches fewer elements.  An indexed scatter (``np.subtract.at``) of
      |base| units per newly covered target touches |T| |base| elements.  A
      base that is a digit product (every pattern enumeration is) can instead
      correlate T with the base one digit place at a time
      (:func:`_retire_by_digits`), touching about passes * (span + max base)
      elements, where passes counts the nonzero digits over all places and
      span is the step's window of translates.

    A marginal never exceeds |base|, so the marginals are int16 when
    |base| < 2^15 and int32 otherwise.  A scatter step costs O(|base|^2) per
    pick plus its share of the rebuilds.  The scatter needs numpy >= 1.25,
    whose indexed ``ufunc.at`` loops run as fast as ``bincount``, and a unit
    of the marginals' own dtype: a Python int against int16 marginals takes
    a slow casting loop, about 40 times slower at k=11.  Older numpy gives
    the same covers, many times slower.
    """
    size = instance.target_size
    lo, hi = instance.lo, instance.hi

    import numpy as np

    base = np.array(instance.base_set.values, dtype=np.int64)
    nb = len(base)
    a_min, a_max = instance.base_set.values[0], instance.base_set.values[-1]

    # every t - a with 0 <= t < 3^k lies in [ext_lo, ext_hi)
    ext_lo, ext_hi = min(lo, -a_max), max(hi, size - a_min)
    ext = np.zeros(ext_hi - ext_lo, dtype=np.int16 if nb < 1 << 15 else np.int32)
    marginals = ext[lo - ext_lo : hi - ext_lo]
    # marginal against the fully-uncovered target: #{a : 0 <= a + b < 3^k}
    b_arr = np.arange(lo, hi, dtype=np.int64)
    marginals[:] = np.searchsorted(base, size - b_arr) - np.searchsorted(base, -b_arr)
    del b_arr
    shift = base + ext_lo  # the slot of t - a is t - shift[a]
    unit = ext.dtype.type(1)

    # a step's digit passes touch about passes * (t_max - t_min + pad) elements
    # and its scatter |T| |base|
    places = _digit_places(instance.base_set)
    if places is not None:
        passes = _digit_passes(places)
        pad = 2 * a_max - a_min + 1

    # every a + b with b in [lo, hi), and every target, lies in [u_lo, u_hi);
    # the padding outside [0, 3^k) counts as covered
    u_lo, u_hi = min(0, lo + a_min), max(size, hi + a_max)
    uncovered = np.zeros(u_hi - u_lo, dtype=bool)
    uncovered[-u_lo : size - u_lo] = True

    # translates less than the least gap apart cover disjoint targets; a
    # one-element base takes every translate in one round
    gap = int(np.diff(base).min(initial=size))
    remaining = size
    chosen: list[int] = []
    level, at_level, pos = 0, np.empty(0, dtype=np.intp), 0
    while remaining:
        pos = _next_at_level(marginals, at_level, pos, level)
        if pos == len(at_level):
            level = int(marginals.max())
            if level <= 0:
                raise InfeasibleCoverError("no translate covers the remaining targets")
            at_level, pos = np.flatnonzero(marginals == level), 0
        # the round's picks: the entries in [b0, b0 + gap) still at the level
        run = at_level[pos : pos + gap]
        run = run[run < run[0] + gap]
        pos += len(run)
        picks = run[marginals[run] == level] + lo
        chosen += picks.tolist()
        # ascending, as the picks span less than the gap between base values
        t = (base[:, None] + picks).ravel()
        t = t[uncovered[t - u_lo]]
        uncovered[t - u_lo] = False
        remaining -= len(t)
        # each newly covered target t retires one unit from every translate t - a
        if places is not None and passes * (int(t[-1] - t[0]) + pad) < _SCATTER_WEIGHT * nb * len(t):
            _retire_by_digits(ext, ext_lo, t, a_min, a_max, places)
        else:
            for start in range(0, len(t), 512):
                np.subtract.at(ext, (t[start : start + 512, None] - shift).ravel(), unit)
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


class _TranslateTable(NamedTuple):
    """Which in-range translates cover which targets: rows[v] lists those
    covering target v, in base order; for each b in some row, coverage[b] is
    the bitset and targets[b] the ascending list of the targets b covers;
    base holds the base values, ascending."""

    rows: list[tuple[int, ...]]
    coverage: dict[int, int]
    targets: dict[int, list[int]]
    base: tuple[int, ...]


def _translate_table(instance: CoverInstance, deadline: Optional[float] = None) -> _TranslateTable:
    """The translate table of ``instance``.  Raises InfeasibleCoverError if
    some row is empty, and _BudgetExhausted once ``deadline`` passes.  No
    gap between base values reaches 3^k, so b is in some row iff it is in
    range and -a_max <= b < 3^k - a_min."""
    size = instance.target_size
    lo, hi = instance.lo, instance.hi
    values = instance.base_set.values
    targets: dict[int, list[int]] = {b: [] for b in range(max(lo, -values[-1]), min(hi, size - values[0]))}
    rows = []
    for v in range(size):
        if v % 256 == 0:
            _check_clock(deadline)
        row = tuple(b for b in (v - a for a in values) if lo <= b < hi)
        if not row:
            raise InfeasibleCoverError(f"no translate covers target {v}")
        rows.append(row)
        for b in row:
            targets[b].append(v)
    bmask, full = base_mask(instance.base_set), (1 << size) - 1
    return _TranslateTable(rows, {b: _shifted(bmask, b) & full for b in targets}, targets, values)


# -- fractional-cover (LP-dual) bound -----------------------------------------

#: W, the common denominator of the integer dual weights.
DUAL_SCALE = 1 << 12
#: The multiplicative-weights step: 0.2 takes about a quarter of the steps
#: 0.1 takes, and the maximal pass in :func:`gated_dual_weights` makes up
#: what the coarser packing leaves.
_MWU_EPS = 0.2


def _packing_counts(instance: CoverInstance, table: _TranslateTable, deadline: Optional[float] = None) -> list[int]:
    """Garg-Koenemann multiplicative weights for the packing LP
    max sum y_v  s.t.  sum_{v in cov(b)} y_v <= 1  for every in-range b,
    the dual of the covering LP.  Returns how often each target was raised
    (y up to a common factor); raises _BudgetExhausted once ``deadline``
    passes.

    The incidence is never stored.  Row v lists v - a for a run
    base[i0:i1] of the base, kept as the slots v - a - lo, which index the
    translate lengths.  A step raises those lengths, so translate v - a_i
    adds to the load of target v - a_i + a_j for every j, which is
    (v - a_max + a_min) + pairs[i, j] with
    pairs[i, j] = (a_max - a_i) + (a_j - a_min), a table built once.  The
    loads live in one array padded on the left by a_max - a_min, so that
    target t sits at t - lo + a_max - a_min and row v's window starts at
    v - lo: one bincount of pairs[i0:i1], added into it.  The targets
    [0, 3^k) are a view of that array.  Outside the window an add over the
    whole array would add 0.0, so the loads are the same floats either way.
    The floats only pass through elementwise adds and multiplies, bincount's
    in-order sums, an exactly rounded fsum and argmin (no BLAS, no libm), so
    the counts are the same on every machine.
    """
    import numpy as np

    size = instance.target_size
    lo, hi = instance.lo, instance.hi
    values = instance.base_set.values
    base = np.array(values, dtype=np.intp)
    nb = len(base)
    a_min, a_max = values[0], values[-1]
    pad = a_max - a_min
    covering = len(table.coverage)
    pairs = (a_max - base)[:, None] + (base - a_min)
    # row v lists v - a in base order, for the a in (v - hi, v - lo]
    at = {a: i for i, a in enumerate(values)}
    rows_at = []
    for v, r in enumerate(table.rows):
        i0 = at[v - r[0]]
        rows_at.append((np.array(r, dtype=np.intp) - lo, pairs[i0 : i0 + len(r)].ravel()))
    # ext[i] is the load of target lo - pad + i.  Row 0 holds some b >= lo
    # with b + a = 0, so lo <= 0, and row 3^k - 1 some b < hi with
    # b + a = 3^k - 1, so 3^k <= hi + a_max: the targets [0, 3^k) lie
    # inside ext, and so does every window.
    ext = np.zeros(pad + hi - lo + a_max, dtype=np.float64)
    # col[v] = sum of the lengths of the translates covering v; lengths start at 1
    col = ext[pad - lo : pad - lo + size]
    col[:] = [len(r) for r in table.rows]
    length = np.ones(hi - lo, dtype=np.float64)
    total = float(covering)
    # stop once sum(length) >= 1/delta, delta = (1+eps) * ((1+eps) m)^(-1/eps)
    stop = 1.0 / (1.0 + _MWU_EPS)
    for _ in range(round(1 / _MWU_EPS)):
        stop *= (1.0 + _MWU_EPS) * covering
    counts = [0] * size
    steps = 0
    while total < stop:
        steps += 1
        if steps % 256 == 0:
            _check_clock(deadline)
        v = int(col.argmin())
        counts[v] += 1
        slots, bins = rows_at[v]
        held = length[slots]
        inc = held * _MWU_EPS
        loads = np.bincount(bins, weights=inc.repeat(nb))
        ext[v - lo : v - lo + len(loads)] += loads
        length[slots] = held + inc
        total += math.fsum(inc.tolist())
    return counts


def gate_dual_weights(weights: list[int], table: _TranslateTable) -> list[int]:
    """The exact check that makes integer dual weights safe: the load
    sum_{v in cov(b)} w_v of every translate b must be at most W.  The loads
    are summed over each translate's targets in the translate table, one
    integer addition per (target, translate) pair.  If the largest load
    L exceeds W, every weight becomes w*W // L, after which no load exceeds
    W.  Only integers are involved, so no float error upstream can make the
    resulting bound unsound."""
    heaviest = max(_translate_loads(weights, table).values(), default=0)
    if heaviest <= DUAL_SCALE:
        return list(weights)
    return [w * DUAL_SCALE // heaviest for w in weights]


def _translate_loads(weights: list[int], table: _TranslateTable) -> dict[int, int]:
    """The load sum_{v in cov(b)} w_v of every translate b in the table."""
    return {b: sum(map(weights.__getitem__, vs)) for b, vs in table.targets.items()}


def gated_dual_weights(instance: CoverInstance, table: _TranslateTable, deadline: Optional[float] = None) -> list[int]:
    """Integer dual weights w_v over W with every translate's load at most W,
    and each target on a translate loaded to exactly W, from ``table``.

    The multiplicative-weights counts (step ``_MWU_EPS``) times W go through
    the exact gate, which turns them into count_v * W // L, L the largest
    count load: the largest feasible multiple of the counts.  A maximal pass
    then visits the targets in order of fewest covering translates, ties by
    ascending target, and raises each w_v by its least slack W - load(b)
    over the b in rows[v].  Every load stays at most W, and once v is
    visited one of its translates is at W, so no weight can rise further.
    A dual restricted to any set U of targets stays feasible, so
    ceil(sum_{v in U} w_v / W) bounds the number of translates any cover of
    U needs (LP duality: Lovasz 1975, Chvatal 1979).  Raises
    _BudgetExhausted once ``deadline`` passes."""
    weights = gate_dual_weights([c * DUAL_SCALE for c in _packing_counts(instance, table, deadline)], table)
    loads = _translate_loads(weights, table)
    # a stable sort keeps equal rows in ascending target order
    for v, row in sorted(enumerate(table.rows), key=lambda item: len(item[1])):
        slack = DUAL_SCALE - max(loads[b] for b in row)
        if slack:
            weights[v] += slack
            for b in row:
                loads[b] += slack
    return weights


# -- row-weighting local search (a primal heuristic) ---------------------------

#: The seed of the local search's random source when the exact search calls
#: it.  From the 15-cover the {0,1} k=5 search holds when it stalls, this
#: seed reaches the minimum 14 at step 171.
_LOCAL_SEED = 0


def _local_search(
    targets: Sequence[int],
    table: _TranslateTable,
    cover: list[int],
    patience: int,
    floor: int,
    seed: int,
    deadline: Optional[float] = None,
) -> int:
    """Row-weighting local search with a one-step tabu for a smaller cover of
    any set of ``targets`` (Gao, Weise & Li, EJOR 246, 2015; Yagiura,
    Kishida & Ibaraki, EJOR 172, 2006).  ``cover`` is a list of translates
    covering every target, ``table`` the translate table of
    :func:`_translate_table`; each smaller cover found replaces ``cover`` in
    place, sorted.  Returns the number of steps taken; raises
    _BudgetExhausted once ``deadline`` passes, keeping what ``cover`` holds.

    Every target's weight starts at 1.  While everything is covered, the
    cover is recorded and the member whose uniquely covered targets weigh
    least is dropped.  A step drops that member too, draws an uncovered
    target, adds the translate covering it that covers the most uncovered
    weight, and raises the weight of every still-uncovered target by 1.
    Ties go to the translate that entered or left the cover longest ago,
    then to the least value.  A translate that is the only one in some row
    is never dropped; the one just added is not dropped before the next
    add, and the one just dropped is not added straight back.  The search
    stops once it has taken ``patience`` steps since it started or since it
    last recorded a smaller cover, at a cover of ``floor`` translates or
    fewer, or when nothing can be dropped.  Each smaller cover is at least
    one translate smaller, so a run takes at most
    (len(cover) - floor + 1) * patience steps.

    All of it is integers.  Each target keeps how many members cover it
    and their sum, which is the member itself when the count is 1, so each
    member's uniquely covered weight is updated in place as counts move
    between 0, 1 and 2; the uncovered targets are the set of those at 0.
    Candidate v - a covers the uncovered target t iff t - v + a is a base
    value, so a step sums the candidates' uncovered weights through
    shared[t - v], the base values a with a + (t - v) in the base, built
    once: a few entries per uncovered target rather than a pass over each
    candidate's targets.  The uncovered target is drawn by index from the
    ascending uncovered targets by ``random.Random(seed)``, so a run gives
    the same cover on every machine."""
    rng = random.Random(seed)
    rows, covers = table.rows, table.targets
    forced = {rows[v][0] for v in targets if len(rows[v]) == 1}
    shared: dict[int, list[int]] = {}
    for a in table.base:
        for c in table.base:
            shared.setdefault(c - a, []).append(a)
    # per target, indexed by its value; a count off ``targets`` never falls to 0 or 1
    weight = [1] * len(rows)
    count = [len(rows)] * len(rows)
    for v in targets:
        count[v] = 0
    owner = [0] * len(rows)  # the sum of the members covering v
    for b in cover:
        for v in covers[b]:
            count[v] += 1
            owner[v] += b
    unique = {b: 0 for b in cover}  # the weight each member alone covers
    uncovered = set()
    for v in targets:
        if count[v] == 1:
            unique[owner[v]] += 1
        elif count[v] == 0:
            uncovered.add(v)
    # when b last entered or left the cover, for the ties
    stamp = dict.fromkeys(covers, 0)

    def drop(added) -> Optional[int]:
        """Drop the member of least unique weight, forced ones and ``added``
        kept; None when there is none."""
        b = min(
            (b for b in unique if b != added and b not in forced),
            key=lambda b: (unique[b], stamp[b], b),
            default=None,
        )
        if b is not None:
            del unique[b]
            stamp[b] = taken
            for v in covers[b]:
                count[v] -= 1
                owner[v] -= b
                if count[v] == 0:
                    uncovered.add(v)
                elif count[v] == 1:
                    unique[owner[v]] += weight[v]
        return b

    added = None
    taken = last = 0  # the steps taken, and the one that recorded the last smaller cover
    while True:
        while not uncovered:
            if len(unique) < len(cover):
                cover[:] = sorted(unique)
                last = taken
            if len(cover) <= floor or drop(added) is None:
                return taken
        if taken - last == patience:
            return taken
        taken += 1
        if taken % 256 == 0:
            _check_clock(deadline)
        dropped = drop(added)
        if dropped is None:
            return taken
        open_targets = sorted(uncovered)
        v = open_targets[rng.randrange(len(open_targets))]
        gain = dict.fromkeys(rows[v], 0)
        for t in open_targets:
            for a in shared.get(t - v, ()):
                if v - a in gain:
                    gain[v - a] += weight[t]
        added = min((-gain[b], stamp[b], b) for b in rows[v] if b != dropped)[2]
        stamp[added] = taken
        alone = 0
        for t in covers[added]:
            if count[t] == 0:
                alone += weight[t]
                uncovered.discard(t)
            elif count[t] == 1:
                unique[owner[t]] -= weight[t]
            count[t] += 1
            owner[t] += added
        unique[added] = alone
        for t in open_targets:
            if count[t] == 0:
                weight[t] += 1


# -- exact minimal (branch and bound) -----------------------------------------

#: The removed-weight table is emptied when it reaches this many entries, so
#: it stays small at every k.
_REMOVED_CAP = 1 << 12
#: How many nodes a search goes without a better cover before it runs
#: :func:`_local_search` from its incumbent, once per search.
_STALL = 1 << 12


def _search_cover(
    table: _TranslateTable,
    cands_of: list[tuple[tuple[int, int, int], ...]],
    weights: list[int],
    uncovered: int,
    best: list[int],
    stats: SolveStats,
    node_cap: Optional[int],
    deadline: Optional[float],
    floor: int,
) -> None:
    """Branch and bound for a smallest cover of U, the targets in the bitset
    ``uncovered``, from ``best``, a cover of U that each smaller cover found
    replaces in place, sorted.  ``cands_of[v]`` holds (b, coverage bitset,
    ban bit) for each translate b covering target v; ``weights`` are the
    dual weights of :func:`gated_dual_weights`, feasible on any U; ``floor``
    is a proven lower bound on any cover of U (0 when none is known).  Nodes
    add to ``stats.nodes``, the root uncounted, and ``stats.floor`` rises by
    what the root's bounds add to ``floor``; raises _BudgetExhausted past
    ``node_cap`` nodes or ``deadline``, keeping what ``best`` holds.

    Branches on the least uncovered target v: every solution must contain some
    b in {v - a : a in base_set} within range.  Candidates inside a branch are
    ordered by descending marginal coverage, then ascending value.  Pruning
    combines the counting bound ceil(|U| / |base_set|) on the uncovered set U
    with the fractional-cover bound ceil(w(U) / W), dominance elimination
    inside a branch, and sibling bans (a candidate whose subtree is exhausted
    cannot reappear later at the same node).  The root bound is the largest
    of ``floor`` and the two bounds on U: a root whose bound meets ``best``
    is not searched, and the search ends as soon as its incumbent meets it,
    as no cover of U is smaller.  The first time the search goes ``_STALL``
    nodes without a better cover, the node that ends that run calls
    :func:`_local_search` on ``best`` before it is bounded (with the seed
    ``_LOCAL_SEED``, down to the root bound, the clock still running, until
    it goes one step per target of U without a smaller cover); a smaller
    cover it finds becomes the incumbent in place, and the search resumes
    with the tighter room.  Its steps are not nodes; a run takes at most
    (|best| - root bound + 1) |U| of them.  A completed cover no smaller
    than the incumbent, which a node pushed before that search can still
    reach, is not recorded.  The bounds only cut subtrees that cannot beat
    the incumbent, so a tighter bound changes node counts but never the
    size of the cover a completed search returns.

    The search is one loop over an explicit stack: each node above the one
    being expanded is a frame (U, w(U), |U|, its remaining children, its
    bans, the b chosen below it), and a node's children are sorted and
    dominance-filtered once, when it is entered.  Each child is counted, and
    its bounds are tested, in its parent's loop, so only a child that passes
    both is pushed.  Choosing b removes cu = cov(b) & U from U, so the
    child's |U| is |U| - |cu|, which the sort key already holds, and its
    w(U) is the parent's less the removed weight w(cu).  Most tests meet a
    cu seen before, so w(cu) is memoised per call in a table emptied
    whenever it reaches ``_REMOVED_CAP`` entries; only on a miss is it
    summed, from the weights of cu's targets.  No stack limit ends a
    search: only its nodes, its clock or its completion."""
    base_len = len(table.base)
    targets = [v for v, bit in enumerate(bin(uncovered)[:1:-1]) if bit == "1"]
    weight, banned = sum(map(weights.__getitem__, targets)), 0
    # the root bound, below which no cover goes: at it the search ends
    root = max(floor, -(-len(targets) // base_len), -(-weight // DUAL_SCALE))
    stats.floor += root - floor
    floor = root
    if floor >= len(best):
        return
    # the node that ends a run of _STALL without a better cover; 0 once the local search has run
    stall = stats.nodes + _STALL
    removed: dict[int, int] = {}  # w(cu) by cu
    # one frame per node above the one being expanded, each resuming its children
    parents: list[tuple] = []
    children = None  # None: this node is entered, its children not yet listed
    while True:
        if children is None:
            v = (uncovered & -uncovered).bit_length() - 1
            cands = []
            for b, c, bit in cands_of[v]:
                if not banned & bit:
                    cu = c & uncovered
                    cands.append((-cu.bit_count(), b, cu, bit))
            cands.sort()
            # Drop dominated candidates: if b1's remaining coverage is contained
            # in b2's, any cover using b1 maps to one using b2 of the same size.
            kept = []
            masks: list[int] = []
            for cand in cands:
                cu = cand[2]
                for k in masks:
                    if (cu & k) == cu:
                        break
                else:
                    kept.append(cand)
                    masks.append(cu)
            left = uncovered.bit_count()
            children = iter(kept)
        # Inclusion-exclusion: once the subtree containing b is exhausted,
        # every cover using b has been seen, so later siblings may ban it.
        for minus, b, cu, bit in children:
            stats.nodes += 1
            if node_cap is not None and stats.nodes > node_cap:
                raise _BudgetExhausted
            if stats.nodes % 4096 == 0:
                _check_clock(deadline)
            if stats.nodes == stall:
                stall, before = 0, len(best)
                stats.local_steps += _local_search(targets, table, best, len(targets), floor, _LOCAL_SEED, deadline)
                stats.local_gain += before - len(best)
                if len(best) <= floor:
                    return
            if left == -minus:
                # a cover the local search has since beaten is not recorded
                if len(parents) + 1 < len(best):
                    best[:] = sorted([frame[5] for frame in parents] + [b])
                    if len(best) <= floor:
                        return
                    if stall:
                        stall = stats.nodes + _STALL
            else:
                # a bound ceil(x / d) falls below need iff x <= (need - 1) d
                room = len(best) - len(parents) - 2
                if left + minus <= room * base_len:
                    w = removed.get(cu)
                    if w is None:
                        if len(removed) >= _REMOVED_CAP:
                            removed.clear()
                        w, rest = 0, cu
                        while rest:
                            t = rest.bit_length() - 1
                            w += weights[t]
                            rest ^= 1 << t
                        removed[cu] = w
                    if weight - w <= room * DUAL_SCALE:
                        parents.append((uncovered, weight, left, children, banned | bit, b))
                        uncovered, weight, children = uncovered ^ cu, weight - w, None
                        break
            banned |= bit
        else:
            if not parents:
                return
            uncovered, weight, left, children, banned, _ = parents.pop()


def _branch_and_bound(
    instance: CoverInstance,
    incumbent: Sequence[int],
    floor: int,
    stats: SolveStats,
    node_cap: Optional[int],
    deadline: Optional[float],
) -> list[int]:
    """The least cover :func:`_search_cover` finds from the cover
    ``incumbent``, one search per residue class; ``floor`` is a proven lower
    bound on every cover, read only when the instance is one class.  A
    budget exit sets ``stats.budget_exhausted`` and returns the best cover
    found.

    The targets split into residue classes mod g, g the gcd of a - a_min
    over the base values (a one-element base is one class): b + base lies in
    the class of b + a_min, so no translate covers targets of two classes
    and a minimum cover is the union of each class's minimum cover.  The
    search runs once per class r = 0..g-1, in that order, over the targets
    congruent to r, from the incumbent's translates in that class.  The dual
    weights of :func:`gated_dual_weights`, computed once and gated in exact
    integers, stay feasible on each class.  The classes share one node
    count, cap and clock, and the root counts once.  When the counting bound
    or ``floor`` closes every class at its root, the search ends there
    without computing the dual weights."""
    size = instance.target_size
    full = (1 << size) - 1
    values = instance.base_set.values
    a_min = values[0]
    # every translate b + base lies in the residue class of b + a_min mod g;
    # a one-element base (g = 0) is one class
    g = math.gcd(*(a - a_min for a in values)) or 1
    # each class's incumbent part, replaced in place as the search improves it
    parts: list[list[int]] = [[] for _ in range(g)]
    for b in incumbent:
        parts[(b + a_min) % g].append(b)
    # bits 0, g, 2g, ... of the target, shifted by r to class r
    stripe = ((1 << g * -(-size // g)) - 1) // ((1 << g) - 1) & full
    # each class's bound before the dual weights: the counting bound, or the
    # floor on a one-class instance
    bounds = [max(-(-len(range(r, size, g)) // len(values)), floor if g == 1 else 0) for r in range(g)]
    stats.floor = sum(bounds)
    try:
        # the classes these bounds leave open at their roots; when there is
        # none, the dual weights are never computed
        unclosed = [r for r in range(g) if bounds[r] < len(parts[r])]
        if unclosed:
            table = _translate_table(instance, deadline)
            # one (b, coverage bitset, ban bit) per translate, shared by the rows
            entry = {b: (b, c, 1 << (b - instance.lo)) for b, c in table.coverage.items()}
            cands_of = [tuple(entry[b] for b in row) for row in table.rows]
            weights = gated_dual_weights(instance, table, deadline)
        # the root is node 1, shared by the classes and bounded like every other node
        stats.nodes = 1
        if node_cap is not None and node_cap < 1:
            raise _BudgetExhausted
        for r in unclosed:
            _search_cover(table, cands_of, weights, stripe << r & full, parts[r], stats, node_cap, deadline, bounds[r])
    except _BudgetExhausted:
        stats.budget_exhausted = True
    return [b for part in parts for b in part]


def digit_split_bound(k: int, m_prev: int) -> int:
    """ceil(3 m_prev / 2), a lower bound on the size of every cover of
    [0, 3^k) by translates of the {0,1} base B_k when every cover of
    [0, 3^(k-1)) by translates of B_(k-1) takes at least m_prev, the
    translates of both levels taken from the same named range: [0, 3^j), or
    the signed (-3^j, 3^j).

    Proof.  Write each translate of a cover B at level k as b = 3c + e with
    e in {0, 1, 2}, and let S_e hold the c's of low digit e.  As
    B_k = 3 B_(k-1) + {0, 1}, a target 3u + f is b + 3x + d with x in
    B_(k-1) and d in {0, 1}, and e + d is f or f + 3:

    * f = 1 takes e + d = 1, so u = c + x with c in S_0 or S_1: S_0 u S_1
      covers [0, 3^(k-1)) at level k-1;
    * f = 2 takes e + d = 2, so S_1 u S_2 covers it;
    * f = 0 takes e + d = 0, or e + d = 3 with a carry, u = (c + 1) + x:
      S_0 u (S_2 + 1) covers it.

    Every c lies in [0, 3^(k-1)) on the nonnegative range, in
    [-3^(k-1), 3^(k-1)) on the signed one, and c + 1 is at most 3^(k-1).
    The sub-translates at 3^(k-1) and -3^(k-1), the only ones off the
    named range at level k-1, cover nothing in [0, 3^(k-1)), as
    0 <= x < 3^(k-1) for every x in B_(k-1); dropping them leaves three
    covers at level k-1 in range, each of at least m_prev translates.  Each
    S_e is in two of them, so 2 |B| >= 3 m_prev."""
    return -(-3 * m_prev // 2)


#: The nodes each level's search in :func:`_digit_split_floor` may take:
#: the counts measured are 5,301 at signed k=4, 4,112 at k=5 and 4,165 at
#: signed k=5, each with the level below's floor.
_CHAIN_NODES = 1 << 13


def _digit_split_floor(instance: CoverInstance, stats: SolveStats, deadline: Optional[float]) -> int:
    """A proven lower bound on every cover of ``instance``: the digit-split
    bound (:func:`digit_split_bound`) over the least cover one level down,
    for the {0,1} base on either named range, and 0 for any other instance.

    The levels below are proven bottom up from block length 1, on the same
    range: level j's exact search starts from its greedy cover, with level
    j-1's floor, at most ``_CHAIN_NODES`` nodes (added to
    ``stats.chain_nodes``) and ``deadline``, and its size, once proven, is
    m_j.  From the first level whose search does not finish, the floor is
    the bound that search started from, and past it the lemma alone: the
    counting bound ceil(3^j / 2^j) never exceeds ceil(3 L / 2) when L is at
    least ceil(3^(j-1) / 2^(j-1)).  A proven floor only cuts what cannot be
    smaller, so it changes node counts but never the size of a cover a
    completed search returns."""
    k, size = instance.k, instance.target_size
    signed = (instance.lo, instance.hi) == (1 - size, size)
    if not is_zero_one_base(instance) or not (signed or (instance.lo, instance.hi) == (0, size)):
        return 0
    floor, proving = 0, True
    for j in range(1, k):
        bound = digit_split_bound(j, floor)
        if not proving:
            floor = bound
            continue
        base = zero_one_base(j)
        level = CoverInstance.signed(j, base) if signed else CoverInstance(j, base)
        level_stats = SolveStats()
        cover = _branch_and_bound(
            level, greedy_complement(level).solution.values, bound, level_stats, _CHAIN_NODES, deadline
        )
        stats.chain_nodes += level_stats.nodes
        proving = not level_stats.budget_exhausted
        floor = len(cover) if proving else level_stats.floor
    return digit_split_bound(k, floor)


def exact_min_complement(
    instance: CoverInstance,
    budget: SolverBudget | None = None,
    initial: BlockCode | None = None,
) -> CoverCertificate:
    """Branch and bound for a minimum-size complement.

    The greedy cover (or ``initial``, if smaller) is the first incumbent,
    and :func:`_branch_and_bound` searches each residue class from it.  For
    the {0,1} base on either named range, the search also starts from the
    digit-split floor of :func:`_digit_split_floor`, proven from the levels
    below: the {0,1} k=5 search ends once its local search reaches 14, and
    the signed k=5 search proves 14.  The chain's nodes are not the search's.

    Budget exhaustion is not an error: the certificate carries the best
    solution found with optimal="unknown" and stats.budget_exhausted set;
    a class the budget left unfinished contributes its incumbent part.
    The time budget covers the chain, the translate table and the dual
    weights as well as the search, so at large k it ends with the greedy
    cover.
    """
    budget = budget or SolverBudget()
    stats = SolveStats()
    deadline = None if budget.max_seconds is None else time.perf_counter() + budget.max_seconds

    incumbent = greedy_complement(instance).solution.values
    if initial is not None and len(initial) < len(incumbent):
        verify_complement(instance, initial)
        incumbent = initial.values
    floor = _digit_split_floor(instance, stats, deadline)
    cover = _branch_and_bound(instance, incumbent, floor, stats, budget.max_nodes, deadline)

    optimal = "unknown" if stats.budget_exhausted else "proven-optimal"
    code = BlockCode.from_iterable(instance.k, cover)
    cert = verify_complement(instance, code, method="exact", optimal=optimal)
    cert.stats = stats

    known = KNOWN_MIN_SIZES.get(instance.k)
    if known is not None and cert.size < known and is_zero_one_base(instance):
        import logging

        logging.getLogger(__name__).error(
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
        product_size=len(product),
        reference_size=len(reference),
        reference_optimal=reference_optimal,
        covers=covers,
    )
