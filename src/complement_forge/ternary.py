"""Exact base-3 integers, rationals, and block-set operations.

Everything downstream (cover solving, fractal assembly, density sets) works
with finite ternary expansions, so this module keeps all arithmetic exact:
integers are arbitrary precision, fractional values are p/3^m in canonical
form, and set operations are enumerations over sorted tuples.

Digit conventions, fixed once here:

* internally, digit position j is the 3^j place (least significant first);
* rendered digit strings are most-significant-first, so the 3-digit value 7
  prints as "021" (0*9 + 2*3 + 1); every one is written by ``int_to_ternary``
  and read by ``ternary_to_int``;
* fractional positions are 1-based, x = sum_n x_n / 3^n.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

BASE = 3  # fixed for v1; named so a later base-b generalization is mechanical

ENUMERATION_CAP = 1 << 24


class EnumerationCapExceeded(ValueError):
    """A pattern would enumerate more than ENUMERATION_CAP values."""


def _check_block_length(k: int) -> None:
    if k < 0:
        raise ValueError(f"block length must be nonnegative, got {k}")


@dataclass(frozen=True)
class BlockCode:
    """A finite set of k-digit block values, sorted strictly ascending.

    Values may be negative (they live in the open interval (-3^k, 3^k)); all
    the bundled paper sets are nonnegative.
    """

    k: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_block_length(self.k)
        bound = BASE**self.k
        prev = None
        for v in self.values:
            if not -bound < v < bound:
                raise ValueError(f"value {v} outside (-(3^{self.k}), 3^{self.k})")
            if prev is not None and v <= prev:
                raise ValueError("values must be sorted strictly ascending")
            prev = v

    @classmethod
    def from_iterable(cls, k: int, values: Iterable[int]) -> "BlockCode":
        return cls(k, tuple(sorted(set(values))))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __contains__(self, v: int) -> bool:
        i = bisect.bisect_left(self.values, v)
        return i < len(self.values) and self.values[i] == v


@dataclass(frozen=True)
class PatternSet:
    """Per-position allowed digits generating a digit-restricted block set.

    ``allowed[j]`` constrains the 3^j place.  Enumeration size is the product
    of the per-position choice counts.
    """

    k: int
    allowed: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        _check_block_length(self.k)
        if len(self.allowed) != self.k:
            raise ValueError("need one allowed-digit set per position")
        for j, s in enumerate(self.allowed):
            if not s or not s <= {0, 1, 2}:
                raise ValueError(f"position {j}: allowed digits must be a nonempty subset of {{0,1,2}}")

    @classmethod
    def uniform(cls, k: int, digits: Iterable[int]) -> "PatternSet":
        ds = frozenset(digits)
        return cls(k, (ds,) * k)

    def size(self) -> int:
        n = 1
        for s in self.allowed:
            n *= len(s)
        return n

    def contains(self, v: int) -> bool:
        if v < 0:
            return False
        for s in self.allowed:
            v, d = divmod(v, BASE)
            if d not in s:
                return False
        return v == 0


def zero_one_pattern(k: int) -> PatternSet:
    """The k-digit pattern with digits {0,1} everywhere (blocks of the half Cantor set)."""
    return PatternSet.uniform(k, (0, 1))


def enumerate_pattern(p: PatternSet) -> BlockCode:
    """All values generated by a pattern, as a sorted BlockCode.

    Guards against accidental blowup: raises EnumerationCapExceeded if the
    (exactly known) output size would exceed ``ENUMERATION_CAP``.
    """
    n = p.size()
    if n > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"pattern enumerates {n} values, cap is {ENUMERATION_CAP}")
    weights = [BASE**j for j in range(p.k)]
    values = [0]
    for j in range(p.k):
        choices = sorted(p.allowed[j])
        values = [v + d * weights[j] for v in values for d in choices]
    return BlockCode(p.k, tuple(sorted(values)))


@functools.cache
def zero_one_base(k: int) -> BlockCode:
    """The values of the {0,1} pattern at block length k, the base set of every
    complement the paper and the catalog refer to; built once per k."""
    return enumerate_pattern(zero_one_pattern(k))


@dataclass(frozen=True)
class GammaValue:
    """The dimension exponent log(card)/log(3^n) of a code of ``card``
    n-digit blocks, kept as its exact integer pair with a float view."""

    card: int
    n: int

    @property
    def value(self) -> float:
        return math.log(self.card) / (self.n * math.log(BASE))


def sumset(a: BlockCode, b: BlockCode) -> BlockCode:
    """{x + y : x in a, y in b}, deduplicated.

    Sums of two k-digit blocks may need k+1 digits (and one more level of
    sign headroom), so the result carries block length k+1.
    """
    if a.k != b.k:
        raise ValueError(f"block length mismatch: {a.k} != {b.k}")
    return BlockCode(a.k + 1, tuple(sorted({x + y for x in a.values for y in b.values})))


def concat_codes(a: BlockCode, b: BlockCode) -> BlockCode:
    """Digit-string concatenation {u || v : u in a, v in b} as integers u*3^(b.k) + v.

    Defined for nonnegative blocks only; the size is exactly |a|*|b|.
    """
    if a.values and a.values[0] < 0 or b.values and b.values[0] < 0:
        raise ValueError("concatenation is undefined for signed blocks")
    shift = BASE**b.k
    values = tuple(sorted(u * shift + v for u in a.values for v in b.values))
    return BlockCode(a.k + b.k, values)


def _normalize_ternary(numerator: int, depth: int) -> tuple[int, int]:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    while depth > 0 and numerator % BASE == 0:
        numerator //= BASE
        depth -= 1
    return numerator, depth


@dataclass(frozen=True)
class TernaryRational:
    """An exact number numerator / 3^depth in canonical form (3 does not divide
    the numerator unless depth is 0).  Equality and hashing are structural."""

    numerator: int
    depth: int

    def __post_init__(self) -> None:
        num, dep = _normalize_ternary(self.numerator, self.depth)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "depth", dep)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_fraction(cls, f: Fraction) -> "TernaryRational":
        den = f.denominator
        depth = 0
        while den % BASE == 0:
            den //= BASE
            depth += 1
        if den != 1:
            raise ValueError(f"{f} has no finite ternary expansion")
        return cls(f.numerator, depth)

    @classmethod
    def from_digit_string(cls, s: str) -> "TernaryRational":
        """Parse a ternary literal like "0.020", "2", or "-0.1"."""
        s = s.strip()
        int_part, _, frac_part = s.removeprefix("-").partition(".")
        try:
            num = ternary_to_int(int_part + frac_part)  # no digit on either side raises
        except ValueError:
            raise ValueError(f"not a ternary literal: {s!r}") from None
        return cls(-num if s.startswith("-") else num, len(frac_part))

    # -- arithmetic (always exact) ------------------------------------------

    def _with_depth(self, depth: int) -> int:
        """Numerator rescaled to the given depth (depth >= self.depth)."""
        return self.numerator * BASE ** (depth - self.depth)

    def __add__(self, other: "TernaryRational") -> "TernaryRational":
        d = max(self.depth, other.depth)
        return TernaryRational(self._with_depth(d) + other._with_depth(d), d)

    def __sub__(self, other: "TernaryRational") -> "TernaryRational":
        d = max(self.depth, other.depth)
        return TernaryRational(self._with_depth(d) - other._with_depth(d), d)

    def scale(self, n: int) -> "TernaryRational":
        return TernaryRational(self.numerator * n, self.depth)

    # -- views ---------------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, BASE**self.depth)

    def floor(self) -> int:
        return self.numerator // BASE**self.depth

    def digit(self, p: int) -> int:
        """Fractional digit x_p (1-based), for nonnegative values only."""
        if self.numerator < 0:
            raise ValueError("digit expansion defined for nonnegative values")
        if p < 1:
            raise ValueError("fractional positions are 1-based")
        if p > self.depth:
            return 0
        return (self.numerator // BASE ** (self.depth - p)) % BASE

    def halve_truncated(self, depth: int) -> "TernaryRational":
        """floor(x/2 * 3^depth) / 3^depth: halve, keeping a finite expansion.

        Halving a ternary rational generally has no finite expansion (1/2 is
        0.111...), so the result is cut after ``depth`` fractional digits;
        the error x/2 - result lies in [0, 3^-depth).
        """
        if self.numerator < 0:
            raise ValueError("halve_truncated defined for nonnegative values")
        if depth >= self.depth:
            return TernaryRational(self._with_depth(depth) // 2, depth)
        return TernaryRational(self.numerator // (2 * BASE ** (self.depth - depth)), depth)

    def __str__(self) -> str:
        sign = "-" if self.numerator < 0 else ""
        ip, fp = divmod(abs(self.numerator), BASE**self.depth)
        if self.depth == 0:
            return sign + int_to_ternary(ip)
        return f"{sign}{int_to_ternary(ip)}.{int_to_ternary(fp, self.depth)}"


# -- the digit-string codec: every ternary string is written and read here ------


def int_to_ternary(n: int, width: int = 1) -> str:
    """Most-significant-first ternary digits of a nonnegative integer,
    zero-padded on the left to ``width`` digits (7 at width 3 is "021")."""
    if n < 0:
        raise ValueError("ternary strings are defined for nonnegative integers")
    ds = []
    while n:
        n, d = divmod(n, BASE)
        ds.append("012"[d])
    return "".join(reversed(ds)).rjust(width, "0")


def ternary_to_int(s: str) -> int:
    """Inverse of int_to_ternary.  Only digits 0, 1, 2 are read: ``int(s, 3)``
    alone would also take a sign, underscores and surrounding whitespace."""
    if not s or s.strip("012"):
        raise ValueError(f"not a ternary digit string: {s!r}")
    return int(s, BASE)


def block_string(value: int, k: int) -> str:
    """Paper-style k-digit string of a block value, the sign carried in front:
    7 at k=3 is "021" and -7 is "-021"."""
    _check_block_length(k)
    if abs(value) >= BASE**k:
        raise ValueError(f"{value} does not fit in {k} ternary digits")
    return ("-" if value < 0 else "") + int_to_ternary(abs(value), k)


def cantor_dimension() -> float:
    """log 2 / log 3, the Hausdorff (= box) dimension of the middle-third Cantor set."""
    return math.log(2) / math.log(3)
