"""Finite-scale measure checks: digit cancellation, entropy, box counting,
dyadic net measures, a weighted-cover inequality checker, and the
mass-distribution ratio test.

Every decision of the net-measure and weighted-cover checks (cover
minimization, hypothesis and conclusion inequalities, interval counting) is
exact: sums of rationals times 2^(i/q) are vectors of integer numerators over
one common denominator in the basis {2^(i/q)}, and each order comparison is
the sign of such a vector, decided in integers by :meth:`Pow2Sum.sign` (a
rational value by the sign of its numerator).  The weighted-cover check sums
the weight on each dyadic node and its ancestors once, parents first, and
compares the threshold once per node; when every weight is rational the
sums are plain integer numerators over one common denominator.
``mass_ratio`` decides its bound from the integer count of intervals a ball
meets.  Floating point appears only in reported estimates.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TextIO, Union

from .density import BoxDimEstimates, ComplementEnumeration, DensityParams, complement_enum

LEVEL_CAP = 24  # dyadic tree depth limit for exact net-measure work


# -- exact values in Q(2^(1/q)) --------------------------------------------------


def _floor_pow2(i: int, q: int, p: int) -> int:
    """floor(2^(i/q + p)) for 0 <= i < q, p >= 0: the integer q-th root of
    n = 2^(i + q*p), by integer Newton steps from 2^(p+1) > n^(1/q); they
    never fall below the floor and strictly decrease above it."""
    n = 1 << (i + q * p)
    x = 2 << p
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


class Pow2Sum:
    """An exact value sum_i nums[i] * 2^(i/q) / den: integer numerators over
    one positive common denominator.

    The ring operations are integer tuple operations and stay exact.  The
    denominator is not kept reduced, so ``==`` is value equality through cross
    products, and order comparisons reduce to :meth:`sign`, which is decided
    in integers.  ``coeffs`` gives the rational coefficient of each 2^(i/q).
    """

    __slots__ = ("q", "nums", "den")

    def __init__(self, q: int, coeffs: Sequence[Fraction | int]):
        if q < 1 or len(coeffs) != q:
            raise ValueError("need one coefficient per basis slot")
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        self.q = q
        self.nums = tuple(c.numerator * (den // c.denominator) for c in fracs)
        self.den = den

    @classmethod
    def _of(cls, q: int, nums: tuple[int, ...], den: int) -> "Pow2Sum":
        """The value sum nums[i] * 2^(i/q) / den, taken as given (den > 0)."""
        v = object.__new__(cls)
        v.q, v.nums, v.den = q, nums, den
        return v

    @classmethod
    def zero(cls) -> "Pow2Sum":
        return cls._of(1, (0,), 1)

    @classmethod
    def from_fraction(cls, c: Fraction | int) -> "Pow2Sum":
        c = _as_rational(c)
        return cls._of(1, (c.numerator,), c.denominator)

    @classmethod
    def from_power(cls, exponent: Fraction) -> "Pow2Sum":
        """The value 2^exponent for a rational exponent."""
        exponent = Fraction(exponent)
        q = exponent.denominator
        d, r = divmod(exponent.numerator, q)
        nums = [0] * q
        nums[r] = 1 << max(d, 0)
        return cls._of(q, tuple(nums), 1 << max(-d, 0))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def _promote(self, q: int) -> "Pow2Sum":
        if q == self.q:
            return self
        nums = [0] * q
        nums[:: q // self.q] = self.nums
        return Pow2Sum._of(q, tuple(nums), self.den)

    @staticmethod
    def _common(a: "Pow2Sum", b: "Pow2Sum") -> tuple["Pow2Sum", "Pow2Sum"]:
        if a.q == b.q:
            return a, b
        q = math.lcm(a.q, b.q)
        return a._promote(q), b._promote(q)

    def _plus(self, other: "Pow2Sum", k: int) -> "Pow2Sum":
        """self + k * other for an integer k."""
        a, b = self._common(self, other)
        if a.den == b.den:
            den, fa, fb = a.den, 1, k
        else:
            den = math.lcm(a.den, b.den)
            fa, fb = den // a.den, k * (den // b.den)
        return Pow2Sum._of(a.q, tuple(x * fa + y * fb for x, y in zip(a.nums, b.nums)), den)

    def __add__(self, other: "Pow2Sum") -> "Pow2Sum":
        return self._plus(other, 1)

    def __sub__(self, other: "Pow2Sum") -> "Pow2Sum":
        return self._plus(other, -1)

    def scale(self, c: Fraction | int) -> "Pow2Sum":
        c = _as_rational(c)
        return Pow2Sum._of(self.q, tuple(n * c.numerator for n in self.nums), self.den * c.denominator)

    def __mul__(self, other: "Pow2Sum") -> "Pow2Sum":
        a, b = self._common(self, other)
        q = a.q
        out = [0] * (2 * q)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums):
                    if y:
                        out[i + j] += x * y
        # 2^((i+j)/q) = 2 * 2^((i+j-q)/q) for i + j >= q
        return Pow2Sum._of(q, tuple(lo + 2 * hi for lo, hi in zip(out, out[q:])), a.den * b.den)

    def _scaled_sum(self, margin: int) -> tuple[int, int, int]:
        """Integers (total, den, p) with total = sum nums[i] * floor(2^(i/q + p)):
        total is within sum |nums[i]| of the value times den * 2^p.  p doubles
        from 32 until |total| >= margin * sum |nums[i]|.  The 2^(i/q) are
        linearly independent over Q (x^q - 2 is Eisenstein), so a nonzero
        vector has a nonzero value and the doubling ends; the zero vector
        gives total 0."""
        ns = self.nums
        slack = sum(map(abs, ns))
        p = 32
        while True:
            total = sum(n * _floor_pow2(i, self.q, p) for i, n in enumerate(ns) if n)
            if abs(total) >= margin * slack:
                return total, self.den, p
            p *= 2

    def sign(self) -> int:
        """-1, 0 or 1, decided in integers.  A q == 1 value is the rational
        nums[0] / den, so it has the sign of its numerator; otherwise, once
        |total| >= sum |nums[i]| the value has the sign of total."""
        total = self.nums[0] if self.q == 1 else self._scaled_sum(1)[0]
        return (total > 0) - (total < 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pow2Sum):
            return NotImplemented
        a, b = self._common(self, other)
        return all(x * b.den == y * a.den for x, y in zip(a.nums, b.nums))

    def __lt__(self, other: "Pow2Sum") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "Pow2Sum") -> bool:
        return (self - other).sign() <= 0

    def __float__(self) -> float:
        """The nearest double, up to a relative 2^-54 before rounding: total
        is within 2^-54 |total| of the value times den * 2^p."""
        total, den, p = self._scaled_sum(1 << 54)
        return float(Fraction(total, den << p))

    def __repr__(self) -> str:
        total, den, p = self._scaled_sum(1 << 54)
        return f"Pow2Sum(~{_format_g6(total, den << p)})"


def _format_g6(n: int, d: int) -> str:
    """n/d (d > 0) as ``format(x, ".6g")`` writes a double x, but rounded
    half-even from the exact fraction, so no magnitude overflows or
    underflows."""
    if n == 0:
        return "0"
    sign, n = ("-" if n < 0 else ""), abs(n)

    def at_least(e: int) -> bool:  # n/d >= 10^e
        return n * 10 ** max(-e, 0) >= d * 10 ** max(e, 0)

    e = (n.bit_length() - d.bit_length()) * 30103 // 100000  # near floor(log10(n/d))
    while not at_least(e):
        e -= 1
    while at_least(e + 1):
        e += 1
    num, den = n * 10 ** max(5 - e, 0), d * 10 ** max(e - 5, 0)
    m, r = divmod(num, den)  # m = the six leading digits
    if 2 * r > den or (2 * r == den and m & 1):
        m += 1
    if m == 10**6:
        m, e = 10**5, e + 1
    digits = str(m)
    if -4 <= e < 6:
        fixed = digits[: e + 1] + "." + digits[e + 1 :] if e >= 0 else "0." + "0" * (-e - 1) + digits
        return sign + fixed.rstrip("0").rstrip(".")
    mantissa = (digits[0] + "." + digits[1:]).rstrip("0").rstrip(".")
    return f"{sign}{mantissa}e{'-' if e < 0 else '+'}{abs(e):02d}"


Weight = Union[Fraction, int, Pow2Sum]


def _as_rational(c: Fraction | int) -> Fraction | int:
    """c itself when it is an int or a Fraction (both carry numerator and
    denominator), else Fraction(c)."""
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _as_pow2(w: Weight) -> Pow2Sum:
    return w if isinstance(w, Pow2Sum) else Pow2Sum.from_fraction(w)


# -- digit cancellation and entropy ----------------------------------------------


@dataclass(frozen=True)
class FrequencyVector:
    """Digit frequencies (p0, p1, p2), nonnegative rationals summing to 1."""

    p0: Fraction
    p1: Fraction
    p2: Fraction

    def __post_init__(self) -> None:
        ps = (self.p0, self.p1, self.p2)
        if any(p < 0 for p in ps) or sum(ps) != 1:
            raise ValueError("frequencies must be a probability vector")

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.p0, self.p1, self.p2)


@dataclass(frozen=True)
class CancelResult:
    t_digits: str
    sum_digits: str
    frequencies: FrequencyVector


def cancel_digits(r_digits: str) -> CancelResult:
    """Digit-wise canceling translate: t_n = 0 when r_n is 1 or 2, else 2.

    The digit sums r_n + t_n then avoid both 0 and carries (each sum is 1 or
    2), which is what caps the entropy of the translated point.
    """
    t = []
    sums = []
    for ch in r_digits:
        if ch not in "012":
            raise ValueError(f"invalid ternary digit {ch!r}")
        tn = 0 if ch in "12" else 2
        t.append(str(tn))
        sums.append(str(int(ch) + tn))
    n = len(sums)
    if n == 0:
        raise ValueError("empty digit string")
    counts = [sums.count("0"), sums.count("1"), sums.count("2")]
    freq = FrequencyVector(*(Fraction(c, n) for c in counts))
    return CancelResult("".join(t), "".join(sums), freq)


def entropy3(v: FrequencyVector | Sequence[Fraction | float]) -> float:
    """Base-3 Shannon entropy, with 0 log 0 = 0; maximized (= 1) at uniform."""
    ps = v.as_tuple() if isinstance(v, FrequencyVector) else tuple(v)
    h = 0.0
    for p in ps:
        p = float(p)
        if p > 0:
            h -= p * math.log(p) / math.log(3)
    return h


# -- box-counting estimates -------------------------------------------------------


def box_dim_estimate(counter: Callable[[int], int], scales: Iterable[int]) -> BoxDimEstimates:
    """Evaluate a cover counter S(3^-n) over the given n and report exponents."""
    entries = []
    for n in scales:
        if n < 1:
            raise ValueError("scales are exponents n >= 1 (mesh 3^-n)")
        count = counter(n)
        if count < 1:
            raise ValueError("cover counts must be positive")
        entries.append((n, count, math.log(count) / (n * math.log(3))))
    if not entries:
        raise ValueError("no scales given")
    return BoxDimEstimates(tuple(entries))


def write_estimates_csv(out: TextIO, estimates: BoxDimEstimates) -> None:
    """CSV rendering: header plus one row per scale, 12 significant digits."""
    out.write("scale,count,estimate\n")
    for n, count, est in estimates.entries:
        out.write(f"{3.0**-n:.12g},{count},{est:.12g}\n")


# -- dyadic net measure ------------------------------------------------------------


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """[m/2^j, (m+1)/2^j) inside the unit interval."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0 or not 0 <= self.index < 2**self.level:
            raise ValueError("dyadic interval outside the unit interval")
        if self.level > LEVEL_CAP:
            raise ValueError(f"level {self.level} beyond supported cap {LEVEL_CAP}")

    def contains(self, other: "DyadicInterval") -> bool:
        if other.level < self.level:
            return False
        return other.index >> (other.level - self.level) == self.index


def _atoms(target: Sequence[DyadicInterval]) -> tuple[int, set[int]]:
    """Normalize a finite union to its atom set at the deepest level used."""
    if not target:
        raise ValueError("target must be a nonempty union")
    level = max(iv.level for iv in target)
    atoms: set[int] = set()
    for iv in target:
        shift = level - iv.level
        start = iv.index << shift
        atoms.update(range(start, start + (1 << shift)))
    return level, atoms


def net_measure(target: Sequence[DyadicInterval], t: Fraction, delta: Fraction) -> Pow2Sum:
    """Exact minimal sum |I|^t over dyadic covers of the target with mesh <= delta.

    Dynamic program over the dyadic tree: a node meeting the target is either
    covered whole (when its length fits the mesh) or delegated to its
    children.  A node entirely inside the target is tiled at the coarsest
    allowed level, which is optimal for t <= 1: refining a tile multiplies the
    cost by 2^(1 - t) >= 1.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("exponent t must lie in [0, 1]")
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("mesh must be positive")
    level, atoms = _atoms(target)
    j_delta = (math.ceil(1 / delta) - 1).bit_length()  # least j with 2^-j <= delta
    if j_delta > 2 * LEVEL_CAP:
        raise ValueError("mesh too fine for the supported level cap")
    return _cover_cost(sorted(atoms), level, t, j_delta, 0, 0)


def _cover_cost(sorted_atoms: list[int], level: int, t: Fraction, j_delta: int, j: int, m: int) -> Pow2Sum:
    """net_measure's value on the dyadic node (j, m).  A module-level function,
    so the recursion leaves no closure cycle behind for the collector."""
    shift = level - j
    cnt = bisect.bisect_left(sorted_atoms, (m + 1) << shift) - bisect.bisect_left(sorted_atoms, m << shift)
    if cnt == 0:
        return Pow2Sum.zero()
    if cnt == 1 << shift:
        jj = max(j, j_delta)
        return Pow2Sum.from_power(-jj * t).scale(2 ** (jj - j))
    # partial node, so j < level: explore the split, and the whole cover
    # when the mesh admits it
    split = _cover_cost(sorted_atoms, level, t, j_delta, j + 1, 2 * m)
    split = split + _cover_cost(sorted_atoms, level, t, j_delta, j + 1, 2 * m + 1)
    if j >= j_delta:
        whole = Pow2Sum.from_power(-j * t)
        if whole <= split:
            return whole
    return split


# -- the weighted-cover inequality -------------------------------------------------


@dataclass(frozen=True)
class WeightedCover:
    """Dyadic intervals with positive weights and a mesh bound delta."""

    items: tuple[tuple[DyadicInterval, Pow2Sum], ...]
    delta: Fraction

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("cover must be nonempty")
        if _longest(self.items) > self.delta:
            raise ValueError("interval longer than the mesh bound")
        if any(w.sign() <= 0 for _, w in self.items):
            raise ValueError("weights must be positive")

    @classmethod
    def build(
        cls, items: Iterable[tuple[DyadicInterval, Weight]], delta: Optional[Fraction] = None
    ) -> "WeightedCover":
        norm = tuple((iv, _as_pow2(w)) for iv, w in items)
        if delta is None:
            delta = _longest(norm)
        return cls(norm, Fraction(delta))


def _longest(items: Sequence[tuple[DyadicInterval, Pow2Sum]]) -> Fraction:
    """The length of the coarsest interval among the items."""
    return Fraction(1, 2 ** min(iv.level for iv, _ in items))


@dataclass(frozen=True)
class MarstrandReport:
    """Outcome of the weighted-cover check.

    ``hypothesis_ok`` is the per-atom threshold condition; when it fails the
    lemma simply does not apply (a distinguished outcome, not an error).  When
    it holds, ``conclusion_ok`` must be True: a False here would contradict a
    theorem and the caller should treat it as a hard failure.
    """

    hypothesis_ok: bool
    failing_atoms: tuple[int, ...]
    lhs: Pow2Sum  # sum of weight * |I|^s
    rhs: Pow2Sum  # c * net measure of the target
    conclusion_ok: Optional[bool]

    @property
    def outcome(self) -> str:
        if not self.hypothesis_ok:
            return "hypothesis-violated"
        return "pass" if self.conclusion_ok else "FAIL"


def marstrand_check(
    cover: WeightedCover,
    target: Sequence[DyadicInterval],
    c: Fraction,
    s: Fraction,
) -> MarstrandReport:
    """Check the weighted-cover inequality sum a_n |I_n|^s >= c * M^s_delta(target),
    after verifying the hypothesis that the weights over every target atom
    exceed c.

    One pass over the weighted dyadic nodes, parents first, gives each node
    the total weight on it and its ancestors: its nearest weighted ancestor's
    total plus its own weight.  Each atom reads the total of its deepest
    weighted ancestor (an atom with none fails), and ``c < total`` is decided
    once per such node."""
    c = Fraction(c)
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise ValueError("exponent s must lie in [0, 1]")
    level, atoms = _atoms(target)
    atoms = sorted(atoms)
    # Rational weights (q == 1) are summed as integer numerators over one
    # common denominator den, where c < t / den is c.numerator * den <
    # t * c.denominator; other weights are summed as Pow2Sum values.
    rational = all(w.q == 1 for _, w in cover.items)
    if rational:
        den = math.lcm(*{w.den for _, w in cover.items})
        values: list = [w.nums[0] * (den // w.den) for _, w in cover.items]
        c_scaled, c_den = c.numerator * den, c.denominator

        def above_c(total) -> bool:
            return c_scaled < total * c_den

    else:
        values = [w for _, w in cover.items]
        c_val = Pow2Sum.from_fraction(c)

        def above_c(total) -> bool:
            return c_val < total

    # the weight on each dyadic node, repeats summed
    weight_at: dict[tuple[int, int], Union[int, Pow2Sum]] = {}
    for (iv, _), w in zip(cover.items, values):
        node = (iv.level, iv.index)
        weight_at[node] = weight_at[node] + w if node in weight_at else w
    # owner[a]: index into totals of the deepest node seen so far that holds
    # atoms[a].  Parents come first, so the nearest weighted ancestor of a
    # node owns the node's first atom when the node is reached.
    owner: list[Optional[int]] = [None] * len(atoms)
    totals: list = []
    for j, m in sorted(weight_at):
        if j > level:
            break  # no atom lies under a node deeper than the atoms
        shift = level - j
        lo = bisect.bisect_left(atoms, m << shift)
        hi = bisect.bisect_left(atoms, (m + 1) << shift, lo)
        if lo == hi:
            continue
        w, above = weight_at[j, m], owner[lo]
        totals.append(w if above is None else totals[above] + w)
        owner[lo:hi] = [len(totals) - 1] * (hi - lo)
    exceeds = {k: k is not None and above_c(totals[k]) for k in set(owner)}
    failing = tuple(m for m, k in zip(atoms, owner) if not exceeds[k])
    # lhs: the weights summed per level, then one multiply by 2^(-j*s) per level
    weight_on_level: dict = {}
    for (j, _), w in weight_at.items():
        weight_on_level[j] = weight_on_level[j] + w if j in weight_on_level else w
    if rational:
        lhs = _level_sum(weight_on_level, den, s)
    else:
        lhs = Pow2Sum.zero()
        for j, w in weight_on_level.items():
            lhs = lhs + w * Pow2Sum.from_power(-j * s)
    if failing:
        return MarstrandReport(False, failing, lhs, Pow2Sum.zero(), None)
    rhs = net_measure(target, s, cover.delta).scale(c)
    return MarstrandReport(True, (), lhs, rhs, rhs <= lhs)


def _level_sum(weight_on_level: dict[int, int], den: int, s: Fraction) -> Pow2Sum:
    """sum_j (W_j / den) * 2^(-j*s) for integer numerators W_j, as one
    Pow2Sum over q = s.denominator: with -j*s.numerator = q*d + r
    (0 <= r < q, d <= 0), 2^(-j*s) = 2^(r/q) / 2^(-d), and every term goes
    over the common denominator den * 2^e, e the largest -d."""
    q = s.denominator
    terms = [(w, *divmod(-j * s.numerator, q)) for j, w in weight_on_level.items()]
    e = max((-d for _, d, _ in terms), default=0)
    nums = [0] * q
    for w, d, r in terms:
        nums[r] += w << (e + d)
    return Pow2Sum._of(q, tuple(nums), den << e)


# -- mass-distribution ratio test ---------------------------------------------------


@dataclass(frozen=True)
class MassRatioEntry:
    f: int  # complement index defining the scale delta = 3^-u_f
    meeting_intervals: int  # sigma-intervals of level f-1 meeting the delta-ball
    ratio: float  # mu[N_delta(x)] / (2 delta)^beta
    bound: float  # 8 / 2^beta
    within_bound: bool


@dataclass(frozen=True)
class MassRatioReport:
    entries: tuple[MassRatioEntry, ...]
    t_shift: int
    max_meeting: int

    @property
    def all_within(self) -> bool:
        return all(e.within_bound for e in self.entries)


def mass_ratio(
    params: DensityParams,
    bits: Sequence[int],
    levels: Sequence[int],
) -> MassRatioReport:
    """Ratio test for the natural mass distribution on the complement set.

    ``bits`` chooses the digit (0 or 1) at each complement position u_1, u_2,
    ...; all other ternary digits of the point x are zero, so x is an exact
    rational.  For each f in ``levels`` the ball N_delta(x) with
    delta = 3^-u_f is intersected against the 2^(f-1) intervals of level f-1
    (each of measure 2^-(f-1)); the count is exact integer arithmetic.  The
    ratio bound is 8 * 3^(beta t / (1 - D)) / 2^beta with the shift t of
    :attr:`ComplementEnumeration.t_shift`, which is 0, so the bound is
    8 / 2^beta.

    An entry is within the bound iff its count is at most 4, decided from the
    count alone.  With u = u_f, the ratio is count * 2^-(f-1) / (2 * 3^-u)^beta,
    and beta * log2 3 = 1 - D in both parameter forms, so
    ratio / bound = count * 2^(u - uD - f - 2).  As in the ``t_shift``
    argument, floor(uD) = u - f and uD is not an integer, so
    ratio / bound = (count / 4) * 2^-frac(uD) with 0 < frac(uD) < 1: a count
    of at most 4 is within the bound and one of 8 or more is not.  Counts
    5 to 7 never occur, as the count is 1 or 2.  Two level-(f-1) sums that
    first differ at index i differ by L = 3^-u_(f-1) if i = f - 1, and
    otherwise by at least 3^-u_i - sum_{j > i} 3^-u_j >= 3^-u_i / 2 >= 3L/2,
    so the intervals' left ends lie at least L apart; the ball's width
    2 * 3^-u <= 2L/3 < L is too short to meet three closed intervals of
    length L, and x lies in its own interval.  The reported ``ratio`` and
    ``bound`` are floats on the same formulas.
    """
    if any(b not in (0, 1) for b in bits):
        raise ValueError("digit choices must be 0 or 1")
    levels = sorted(set(levels))
    if not levels or levels[0] < 2:
        raise ValueError("levels start at f = 2")
    f_max = levels[-1]
    if len(bits) < f_max:
        raise ValueError(f"need at least {f_max} digit choices")
    enum = _complement_prefix(params, max(f_max, len(bits)))
    if enum.empty:
        raise ValueError("complement is empty at density 1; no ratio test")
    u = enum.elements

    scale = u[len(bits) - 1]  # everything scaled by 3^(u_N)
    weights = [3 ** (scale - u[i]) for i in range(len(bits))]
    x = sum(b * w for b, w in zip(bits, weights))

    beta = params.beta_float
    log2, log3 = math.log(2), math.log(3)
    bound = math.exp(math.log(8) - beta * log2)

    entries = []
    for f in levels:
        delta = weights[f - 1]  # scaled 3^-u_f
        length = weights[f - 2]  # scaled interval length 3^-u_(f-1)
        count = _count_meeting(weights[: f - 1], x, delta, length)
        ratio_log = math.log(count) - (f - 1) * log2 - beta * (log2 - u[f - 1] * log3)
        entries.append(
            MassRatioEntry(
                f=f,
                meeting_intervals=count,
                ratio=math.exp(ratio_log),
                bound=bound,
                within_bound=count <= 4,
            )
        )
    return MassRatioReport(
        entries=tuple(entries),
        t_shift=enum.t_shift,
        max_meeting=max(e.meeting_intervals for e in entries),
    )


@functools.lru_cache(maxsize=8)
def _complement_prefix(params: DensityParams, count: int) -> ComplementEnumeration:
    """:func:`complement_enum`, memoised: a mass-ratio run samples many points
    under one parameter set, and the enumeration depends on nothing else."""
    return complement_enum(params, count)


def random_marstrand_trial(rng, max_level: int, s: Fraction) -> MarstrandReport:
    """One seeded random weighted-cover trial: a random dyadic union, a cover
    built from ancestors of its atoms plus noise intervals, random rational
    weights, and a random threshold.  The mix produces both hypothesis
    outcomes; whenever the hypothesis holds the conclusion must too."""
    if not 2 <= max_level <= LEVEL_CAP:
        raise ValueError(f"max_level must lie in [2, {LEVEL_CAP}], got {max_level}")
    level = rng.randint(2, max_level)
    universe = 2**level
    n_atoms = rng.randint(1, max(1, universe // 2))
    atoms = sorted(rng.sample(range(universe), n_atoms))
    target = [DyadicInterval(level, m) for m in atoms]
    items: list[tuple[DyadicInterval, Pow2Sum]] = []
    for m in atoms:
        j = rng.randint(max(1, level - 2), level)
        items.append((DyadicInterval(j, m >> (level - j)), _random_weight(rng)))
    for _ in range(rng.randint(0, 4)):
        j = rng.randint(1, level)
        items.append((DyadicInterval(j, rng.randrange(2**j)), _random_weight(rng)))
    cover = WeightedCover.build(items)
    c = Fraction(rng.randint(1, 12), rng.randint(1, 3))
    return marstrand_check(cover, target, c, s)


def _random_weight(rng) -> Pow2Sum:
    """A trial weight n/d, n in [1, 8] drawn before d in [1, 4], built as a
    Pow2Sum without reducing n/d."""
    n = rng.randint(1, 8)
    return Pow2Sum._of(1, (n,), rng.randint(1, 4))


def _count_meeting(weights: Sequence[int], x: int, delta: int, length: int) -> int:
    """Number of sums sum sigma_i * weights[i] (sigma binary) whose closed
    interval [v, v + length] meets [x - delta, x + delta].

    The weights are super-increasing (each exceeds the sum of its successors),
    so the value order equals the lexicographic order of sigma and both
    boundary indices come from greedy digit walks.
    """

    def largest_at_most(bound: int) -> Optional[int]:
        if bound < 0:
            return None
        idx = 0
        value = 0
        for w in weights:
            idx <<= 1
            if value + w <= bound:
                value += w
                idx |= 1
        return idx

    hi = largest_at_most(x + delta)
    if hi is None:
        return 0
    below = largest_at_most(x - delta - length - 1)
    lo = 0 if below is None else below + 1
    return max(0, hi - lo + 1)
