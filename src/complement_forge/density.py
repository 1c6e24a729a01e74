"""The density set A = {floor(y/D) : y >= 1} and its succinct encoding.

D is the density parameter (1 - alpha) / (log 2 / log 3).  For rational alpha
short of 1, D = (P/Q) * log2 3 with 1 - alpha = P/Q is irrational, and every
floor and comparison here goes through one exact primitive, floor(j * log2 3)
for j >= 1.  Since 3^j is odd, j * log2 3 is never an integer, so the floor is
settled by evaluating it closely enough: a double when its fractional part
clears a margin that grows with the value, otherwise mpmath at doubling
precision.  No power of 3 is ever built and no precision cap can run out.

Each parameter form supplies just the exact comparison u*D <= x and the floor
map floor(u*D); floor(y/D), comparisons against 1/D, the walk of the
complement and the D <= 1 check are all written once in terms of them.
Rational D (for example D = 1 or D = 1/2, the degenerate corners) is the
second form, with integer arithmetic for both.

A itself is never computed one floor(y/D) at a time.  Its consecutive
elements k_y = floor(y/D) differ by a0 = floor(1/D) or a0 + 1, and the larger
step is taken exactly when (k_y + a0 + 1)*D <= y + 1, so one comparison per
element walks A in order (:meth:`DensityParams.a_walk`).  Every per-y loop
(the prefix, the box-dimension sequence and the check of a rational
encoding) consumes that walk; the complement is walked the same way, one
comparison per element (:func:`complement_enum`).  Prefixes are byte
bitmaps, bit m % 8 of byte m // 8 standing for position m, so a membership
test is O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from typing import Callable, Iterator, Optional

from .ternary import BASE, cantor_dimension, int_to_ternary

_LOG2_3 = math.log(3) / math.log(2)

#: Density-independent part of the additive constant in the length guarantee
#: len(encode(r, s, n)) <= 4*log3(n) + ENCODING_CONSTANT + len3(floor(1/D)).
#: Counting field overheads gives at most 3*len3(n) + 4*len3(len3(n)) + 3
#: beyond the r-width term, whose gap over 4*log3(n) peaks below 11 at small
#: n; a dense sweep observes 9.67 (see tests).
ENCODING_CONSTANT = 12


def _floor_log2_3(j: int) -> int:
    """floor(j * log2 3) for j >= 1, exact.

    The double est = j * _LOG2_3 is within est * 2^-51 of the true value (the
    constant is off by under an ulp and the product rounds once), so its floor
    is trusted when the fractional part clears est * 2^-48.  That margin
    reaches 1/2 near j = 2^47, beyond which the double cannot decide anything.
    """
    if j < 1:
        raise ValueError("exponent must be >= 1")
    if j < 1 << 47:
        est = j * _LOG2_3
        floor = int(est)
        margin = est * 2.0**-48
        if margin < est - floor < 1 - margin:
            return floor
    from mpmath import mp

    # mpf(j) is exact at this precision; the logs, product and quotient add at
    # most 4 ulps, well inside the 2^8-ulp margin
    prec = j.bit_length() + 64
    while True:
        with mp.workprec(prec):
            est = mp.mpf(j) * mp.log(3) / mp.log(2)
            floor = int(mp.floor(est))
            margin = mp.ldexp(est, 8 - prec)
            if margin < est - floor < 1 - margin:
                return floor
        prec *= 2


@dataclass(frozen=True)
class DensityParams:
    """The pair (alpha, D) with D = (1 - alpha) / (log 2 / log 3).

    Exactly one of two internal forms is active:

    * log form: alpha = p/q rational in [1 - log3(2), 1), D irrational, held
      as the pair (P, Q) with 1 - alpha = P/Q;
    * rational form: D itself an exact Fraction in (0, 1] (covers the
      boundary D = 1 and test corners like D = 1/2, whose alpha is
      irrational).

    Only the comparison u*D <= x (:meth:`le_d`) and the floor map
    :meth:`floor_mul` look at the form; every other decision is written in
    terms of them.
    """

    one_minus_alpha: Optional[Fraction]
    d_exact: Optional[Fraction]

    def __post_init__(self) -> None:
        if (self.one_minus_alpha is None) == (self.d_exact is None):
            raise ValueError("exactly one of alpha / density forms must be set")
        if self.one_minus_alpha is not None:
            pq = self.one_minus_alpha
            if pq <= 0:
                raise ValueError("alpha = 1 gives density 0; the construction excludes it")
            if not self.le_d(1, 1):
                raise ValueError("alpha below 1 - log3(2): density would exceed 1")
        else:
            d = self.d_exact
            if not 0 < d <= 1:
                raise ValueError("density must lie in (0, 1]")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_alpha(cls, alpha: Fraction | float | str) -> "DensityParams":
        # floats go through their shortest decimal repr so 0.8 means 4/5, not
        # the exact binary double; pass a Fraction or string for full control
        alpha = Fraction(str(alpha)) if isinstance(alpha, float) else Fraction(alpha)
        return cls(one_minus_alpha=1 - alpha, d_exact=None)

    @classmethod
    def from_density(cls, d: Fraction | str) -> "DensityParams":
        return cls(one_minus_alpha=None, d_exact=Fraction(d))

    # -- views ---------------------------------------------------------------

    @property
    def alpha_fraction(self) -> Optional[Fraction]:
        return None if self.one_minus_alpha is None else 1 - self.one_minus_alpha

    @property
    def alpha_float(self) -> float:
        if self.one_minus_alpha is not None:
            return 1.0 - float(self.one_minus_alpha)
        return 1.0 - float(self.d_exact) * cantor_dimension()

    @property
    def d_float(self) -> float:
        if self.d_exact is not None:
            return float(self.d_exact)
        return float(self.one_minus_alpha) * _LOG2_3

    @property
    def beta_float(self) -> float:
        """alpha - 1 + dim C, the mass-distribution exponent."""
        return self.alpha_float - 1.0 + cantor_dimension()

    def describe(self) -> str:
        if self.one_minus_alpha is not None:
            return f"alpha={self.alpha_fraction} (D={self.d_float:.6f})"
        return f"D={self.d_exact} (alpha={self.alpha_float:.6f})"

    # -- exact decisions -------------------------------------------------------

    def _comparison(self) -> Callable[[int, int], bool]:
        """The exact test (u, x) -> u*D <= x for u >= 1, with the form's
        integers bound once so that a loop pays one call per test."""
        if self.d_exact is not None:
            num, den = self.d_exact.numerator, self.d_exact.denominator
            return lambda u, x: u * num <= x * den
        # u*D = u P log2 3 / Q with 1 - alpha = P/Q is irrational, so
        # u*D <= x iff u P log2 3 < x Q iff floor(u P log2 3) < x Q
        p, q = self.one_minus_alpha.numerator, self.one_minus_alpha.denominator
        return lambda u, x: _floor_log2_3(u * p) < x * q

    def le_d(self, u: int, x: int) -> bool:
        """Exact test u*D <= x for u >= 0."""
        return x >= 0 if u == 0 else self._comparison()(u, x)

    def floor_div(self, y: int) -> int:
        """floor(y / D) for y >= 1: the largest q with q*D <= y."""
        if y < 1:
            raise ValueError("y must be >= 1")
        # the double estimate is off by about y * 2^-50: gallop from it to a
        # bracket lo*D <= y < hi*D, then bisect
        lo = int(y / self.d_float)
        hi, step = lo + 1, 1
        while not self.le_d(lo, y):
            lo, hi, step = max(0, lo - step), lo, 2 * step
        while self.le_d(hi, y):
            lo, hi, step = hi, hi + step, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.le_d(mid, y):
                lo = mid
            else:
                hi = mid
        return lo

    def floor_mul(self, u: int) -> int:
        """floor(u * D) for u >= 1, exact for both parameter forms."""
        if u < 1:
            raise ValueError("u must be >= 1")
        if self.d_exact is not None:
            d = self.d_exact
            return u * d.numerator // d.denominator
        # u*D = u P log2 3 / Q, and floor(x / Q) = floor(floor(x) / Q)
        pq = self.one_minus_alpha
        return _floor_log2_3(u * pq.numerator) // pq.denominator

    def fraction_le_inv_d(self, r: int, s: int) -> bool:
        """Exact test r/s <= 1/D (r >= 0, s >= 1)."""
        return self.le_d(r, s)

    def a_walk(self) -> Iterator[int]:
        """The elements k_1 < k_2 < ... of A, without end.

        k_y = floor(y/D) and 1/D >= 1, so k_{y+1} - k_y is a0 = floor(1/D)
        or a0 + 1, the larger exactly when (k_y + a0 + 1)*D <= y + 1: one
        comparison per element.
        """
        le_d = self._comparison()
        a0 = self.floor_div(1)
        k, y = a0, 1
        while True:
            yield k
            y += 1
            k += a0 + 1 if le_d(k + a0 + 1, y) else a0

    def a_elements(self, upto: int) -> Iterator[int]:
        """The elements of A in [1, upto], ascending."""
        return takewhile(lambda k: k <= upto, self.a_walk())


# -- the characteristic prefix -------------------------------------------------


@dataclass(frozen=True)
class APrefix:
    """Characteristic prefix of A over positions 1..n, held as a byte bitmap:
    position m is bit m % 8 of byte m // 8."""

    n: int
    bitmap: bytes = field(repr=False)
    source: str  # "direct" or "rational(r/s)"

    @property
    def bits(self) -> int:
        """The bitmap as one integer, bit m standing for position m."""
        return int.from_bytes(self.bitmap, "little")

    def contains(self, m: int) -> bool:
        return 1 <= m <= self.n and bool(self.bitmap[m >> 3] >> (m & 7) & 1)

    def members(self) -> list[int]:
        bitmap = self.bitmap
        return [m for m in range(1, self.n + 1) if bitmap[m >> 3] >> (m & 7) & 1]

    def count(self) -> int:
        return self.bits.bit_count()

    def density(self) -> Fraction:
        return Fraction(self.count(), self.n)


def _bitmap(n: int, positions: Iterator[int]) -> bytes:
    """Bitmap of the given positions, all in [1, n]."""
    buf = bytearray((n >> 3) + 1)
    for k in positions:
        buf[k >> 3] |= 1 << (k & 7)
    return bytes(buf)


def a_prefix(params: DensityParams, n: int) -> APrefix:
    """A's characteristic prefix on [1, n], from the walk of A."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    return APrefix(n, _bitmap(n, params.a_elements(n)), "direct")


def a_prefix_from_rational(r: int, s: int, n: int) -> APrefix:
    """Prefix reconstructed from the encoded fraction: positions floor(r*y/s)
    in [1, n], which take y from ceil(s/r) to ((n + 1)*s - 1) // r."""
    if r < 0 or s < 1 or n < 1:
        raise ValueError("need r >= 0, s >= 1 and n >= 1")
    ys = range(-(-s // r), ((n + 1) * s - 1) // r + 1) if r else range(0)
    return APrefix(n, _bitmap(n, (r * y // s for y in ys)), f"rational({r}/{s})")


# -- best rational below 1/D ----------------------------------------------------


def best_rational(params: DensityParams, n: int) -> tuple[int, int]:
    """The largest fraction r/s with s <= n and r/s <= 1/D.

    Walks the Stern-Brocot tree with batched same-direction runs; every
    comparison against 1/D is exact.  Termination: once the two walk
    endpoints' denominators sum past n, no fraction in (lo, 1/D] has
    denominator <= n.
    """
    if n < 1:
        raise ValueError("denominator bound must be >= 1")
    a0 = params.floor_div(1)  # floor(1/D)
    lo = (a0, 1)
    hi = (a0 + 1, 1)
    while lo[1] + hi[1] <= n:
        med_le = params.fraction_le_inv_d(lo[0] + hi[0], lo[1] + hi[1])
        if med_le:
            # run toward 1/D: lo + t*hi, largest t within the denominator budget
            t_cap = (n - lo[1]) // hi[1]
            t_lo, t_hi = 1, t_cap
            while t_lo < t_hi:
                t_mid = (t_lo + t_hi + 1) // 2
                if params.fraction_le_inv_d(lo[0] + t_mid * hi[0], lo[1] + t_mid * hi[1]):
                    t_lo = t_mid
                else:
                    t_hi = t_mid - 1
            lo = (lo[0] + t_lo * hi[0], lo[1] + t_lo * hi[1])
        else:
            # run hi toward 1/D; overshooting the budget just ends the walk
            u_cap = max(1, (n - lo[1] - hi[1]) // lo[1] + 1)
            u_lo, u_hi = 1, u_cap
            while u_lo < u_hi:
                u_mid = (u_lo + u_hi + 1) // 2
                if not params.fraction_le_inv_d(hi[0] + u_mid * lo[0], hi[1] + u_mid * lo[1]):
                    u_lo = u_mid
                else:
                    u_hi = u_mid - 1
            hi = (hi[0] + u_lo * lo[0], hi[1] + u_lo * lo[1])
    g = math.gcd(lo[0], lo[1])
    return lo[0] // g, lo[1] // g


@dataclass(frozen=True)
class RationalCheck:
    ok: bool
    checked: int
    counterexamples: tuple[int, ...]  # first few y where the floors disagree


def verify_rational_encoding(params: DensityParams, r: int, s: int, n: int) -> RationalCheck:
    """Check floor(y/D) == floor(r*y/s) for every 1 <= y <= n."""
    bad = []
    for y, k in zip(range(1, n + 1), params.a_walk()):
        if k != r * y // s:
            bad.append(y)
            if len(bad) >= 10:
                break
    return RationalCheck(ok=not bad, checked=n, counterexamples=tuple(bad))


# -- the (r, s, n) wire encoding -------------------------------------------------
#
# Ternary alphabet {0,1,2}.  Each length-delimited field is
#     zeros(len3(len3(x))) "2" ternary(len3(x)) ternary(x)
# and the full string is  field(n) || field(s) || ternary(r),
# with r recovered as the remainder.  Version 1; see the catalog schema.


def _field(x: int) -> str:
    body = int_to_ternary(x)
    length = int_to_ternary(len(body))
    return "0" * len(length) + "2" + length + body


def encode_rsn(r: int, s: int, n: int) -> str:
    """Self-delimiting ternary encoding of (r, s, n); see decode_rsn."""
    if s < 1 or n < 1 or r < 0:
        raise ValueError("need r >= 0, s >= 1, n >= 1")
    return _field(n) + _field(s) + int_to_ternary(r)


def _read_field(s: str, pos: int) -> tuple[int, int]:
    zeros = 0
    while pos < len(s) and s[pos] == "0":
        zeros += 1
        pos += 1
    if pos >= len(s) or s[pos] != "2":
        raise ValueError("malformed field: missing terminator")
    pos += 1
    if pos + zeros > len(s):
        raise ValueError("malformed field: truncated length")
    length = int(s[pos : pos + zeros], BASE)
    pos += zeros
    if pos + length > len(s):
        raise ValueError("malformed field: truncated body")
    value = int(s[pos : pos + length], BASE)
    return value, pos + length


def decode_rsn(encoded: str) -> tuple[int, int, int]:
    """Inverse of encode_rsn."""
    n, pos = _read_field(encoded, 0)
    s, pos = _read_field(encoded, pos)
    rest = encoded[pos:]
    if not rest:
        raise ValueError("malformed encoding: missing r")
    r = int(rest, BASE)
    return r, s, n


def encoding_constant(params: DensityParams) -> int:
    """The additive constant c0 for these parameters: the format overhead plus
    the ternary width of floor(1/D) (the r field is that much wider than s)."""
    return ENCODING_CONSTANT + len(int_to_ternary(params.floor_div(1)))


@dataclass(frozen=True)
class DescriptionLength:
    n: int
    r: int
    s: int
    encoded: str
    length: int
    bound: float  # 4*log3(n) + encoding_constant(params)

    @property
    def gap(self) -> float:
        return self.length - 4 * math.log(self.n) / math.log(3)


def description_length(params: DensityParams, n: int) -> DescriptionLength:
    """Length of the concrete (r, s, n) encoding, with its logarithmic bound.

    The length is guaranteed (and asserted) to stay within
    4*log3(n) + encoding_constant(params) ternary symbols.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    r, s = best_rational(params, n)
    encoded = encode_rsn(r, s, n)
    bound = 4 * math.log(n) / math.log(3) + encoding_constant(params)
    if len(encoded) > bound:
        raise AssertionError(
            f"encoding length {len(encoded)} exceeds {bound:.2f} for n={n}; "
            "the measured constant needs recalibration"
        )
    return DescriptionLength(n=n, r=r, s=s, encoded=encoded, length=len(encoded), bound=bound)


# -- the complement and its shift constant ---------------------------------------


@dataclass(frozen=True)
class ComplementEnumeration:
    """First elements u_1 < u_2 < ... of the complement of A.  ``empty``
    marks the degenerate D = 1 case."""

    elements: tuple[int, ...]
    empty: bool

    @property
    def t_shift(self) -> Optional[int]:
        """The minimal integer t making u_i <= (i + t)/(1 - D) hold over the
        enumerated range, which is always 0 (None when the complement is
        empty).

        For a complement element u no y has floor(y/D) = u, so no integer lies
        in [uD, (u+1)D); in particular uD is not an integer, and
        |A & [1, u]| = #{y >= 1 : y < (u+1)D} = ceil(uD) - 1 = floor(uD).
        For the i-th element that count is u - i, so the least t with
        u <= (i + t)/(1 - D), namely u - i - floor(uD), is 0.
        """
        return None if self.empty else 0

    def ratio(self, i: int) -> float:
        """i / u_i (1-based), which converges to 1 - D."""
        return i / self.elements[i - 1]


def complement_enum(params: DensityParams, count: int) -> ComplementEnumeration:
    """Enumerate the first ``count`` complement elements.

    With c(u) = |complement & [1, u]| = floor((u + 1)(1 - D)), the i-th
    element is u_i = ceil(i/(1 - D)) - 1, the largest u with u(1 - D) < i,
    that is with not u*D <= u - i.  u_1 is found by galloping from 1 (near
    D = 1 it is about 1/(1 - D), where a double estimate of 1 - D cancels to
    0), and since ceil(x + y) is ceil(x) + ceil(y) or one less,
    u_(i+1) - u_i is u_1 or u_1 + 1: one exact comparison per element.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if params.floor_mul(1) == 1:  # D = 1: A is all of N
        return ComplementEnumeration(elements=(), empty=True)
    le_d = params._comparison()

    def below(u: int, i: int) -> bool:  # u(1 - D) < i
        return not le_d(u, u - i)

    lo, hi = 1, 2
    while below(hi, 1):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid, 1):
            lo = mid
        else:
            hi = mid
    step = u = lo
    out = [u]
    for i in range(2, count + 1):
        u += step + 1 if below(u + step + 1, i) else step
        out.append(u)
    return ComplementEnumeration(elements=tuple(out), empty=False)


# -- finite box-dimension report for C_A ------------------------------------------


@dataclass(frozen=True)
class BoxDimReport:
    """Finite version of the covering estimate for C_A: with k_n the n-th
    element of A, the n-th entry is n*log2 / ((k_n - 1)*log3)."""

    entries: tuple[tuple[int, int, float], ...]  # (n, k_n, estimate)
    tail_sup: float  # max over the second half of the sequence
    target: float  # 1 - alpha
    complement_lower_bound: float  # dim C + alpha - 1, induced bound for C_(A-bar)

    @property
    def final_estimate(self) -> float:
        return self.entries[-1][2]


def box_dim_bound_ca(params: DensityParams, depth: int) -> BoxDimReport:
    if depth < 2:
        raise ValueError("need depth >= 2")
    log2, log3 = math.log(2), math.log(3)
    entries = []
    for n, k in zip(range(1, depth + 1), params.a_walk()):
        if k < 2:
            continue  # k_1 = 1 happens only at D = 1; skip the degenerate ratio
        entries.append((n, k, n * log2 / ((k - 1) * log3)))
    tail = [e for _, _, e in entries[len(entries) // 2 :]]
    return BoxDimReport(
        entries=tuple(entries),
        tail_sup=max(tail),
        target=1.0 - params.alpha_float,
        complement_lower_bound=cantor_dimension() + params.alpha_float - 1.0,
    )
