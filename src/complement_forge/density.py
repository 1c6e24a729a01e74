"""The density set A = {floor(y/D) : y >= 1} and its succinct encoding.

D is the density parameter (1 - alpha) / (log 2 / log 3).  For rational alpha
short of 1, D = (P/Q) * log2 3 with 1 - alpha = P/Q is irrational, and every
floor and comparison here goes through one exact primitive, floor(j * log2 3)
for j >= 1.  Since 3^j is odd, j * log2 3 is never an integer, so the floor is
settled in integers, by a fixed-point bracket of log2 3 refined until it
decides (:func:`_floor_log2_3`); no float, power of 3 or precision cap enters.

Each parameter form supplies just the exact comparison u*D <= x, bound once
per parameter set (:attr:`DensityParams.le_d`); floor(y/D), comparisons
against 1/D, the walk of A, the complement's bound and the D <= 1 check are
all written once in terms of it, and every search among them is one
gallop-and-bisect (:func:`_largest`).  Rational D (for example D = 1 or
D = 1/2, the degenerate corners) is the second form, with integer arithmetic.

A itself is never computed one floor(y/D) at a time.  Its prefix on [1, n]
is fixed by the best rational r/s <= 1/D with s <= n (:func:`best_rational`,
a Stern-Brocot walk of O(log n) exact comparisons): floor(y/D) = floor(r*y/s)
for every y <= n.  The prefix is built from r/s as a word: Christoffel words
for the Farey fractions on the way to r/s are concatenated and the last one
tiled out to n (:func:`a_prefix_from_rational`).  The box-dimension sequence
k_y is read off the same kind of rational (:func:`box_dim_bound_ca`), and so
is the complement, whose i-th element is (i*r - 1) // (r - s) below the
bound the rational is taken at (:func:`complement_enum`).  Only the
independent checks walk A one comparison per element
(:meth:`DensityParams.a_walk`).  Prefixes are byte bitmaps, bit m % 8 of
byte m // 8 standing for position m, so a membership test is O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .ternary import cantor_dimension, int_to_ternary, ternary_to_int

_LOG2_3 = math.log(3) / math.log(2)

#: Density-independent part of the additive constant in the length guarantee
#: len(encode(r, s, n)) <= 4*log3(n) + ENCODING_CONSTANT + len3(floor(1/D)).
#: Counting field overheads gives at most 3*len3(n) + 4*len3(len3(n)) + 3
#: beyond the r-width term, whose gap over 4*log3(n) peaks below 11 at small
#: n; a dense sweep observes 9.67 (see tests).
ENCODING_CONSTANT = 12


@cache
def _log2_3_bracket(p: int) -> tuple[int, int]:
    """Integers lo < 2^p log2 3 < hi (hi - lo is 1), from log2 3 =
    1 + atanh(1/5)/atanh(1/3) with each atanh summed in q = p + 16 bits.

    Floor division by n^2, repeated from floor(2^q/n), gives exactly
    floor(2^q/n^(2k+1)); its floor quotient by 2k+1 is under 1 below the k-th
    term of 2^q atanh(1/n), and once it is 0 the rest of the series is below
    n^2/(n^2 - 1) < 2.  So the sum s of `terms` terms puts 2^q atanh(1/n) in
    [s, s + terms + 2); the quotient of the brackets, floored and ceiled,
    brackets 2^p (log2 3 - 1)."""
    ends = []
    for n in (5, 3):
        s = terms = 0
        num = (1 << p + 16) // n
        while num:
            s += num // (2 * terms + 1)
            terms += 1
            num //= n * n
        ends += [s, s + terms + 2]
    lo5, hi5, lo3, hi3 = ends
    return (1 << p) + (lo5 << p) // hi3, (1 << p) - (-hi5 << p) // lo3


def _floor_log2_3(j: int) -> int:
    """floor(j * log2 3) for j >= 1, exact: with lo < 2^p log2 3 < hi, it is
    j*lo >> p once that equals j*hi >> p.  j * log2 3 is never an integer (3^j
    is odd) and each doubling of p halves the width j*(hi - lo)/2^p, so that
    happens for every j.  p starts 64 bits over j, doubling up from 128."""
    if j < 1:
        raise ValueError("exponent must be >= 1")
    p = 128
    while p < j.bit_length() + 64:
        p *= 2
    while True:
        lo, hi = _log2_3_bracket(p)
        if j * lo >> p == j * hi >> p:
            return j * lo >> p
        p *= 2


def _largest(pred: Callable[[int], bool], lo: int, hi: Optional[int] = None) -> int:
    """The largest x in [lo, hi) with pred(x), for a pred that holds at lo and
    turns false once.  With no hi, gallop up from lo (lo + 1, lo + 3,
    lo + 7, ...) to the first x where pred fails, then bisect."""
    if hi is None:
        step = 1
        while pred(lo + step):
            lo, step = lo + step, 2 * step
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class DensityParams:
    """The pair (alpha, D) with D = (1 - alpha) / (log 2 / log 3).

    Exactly one of two internal forms is active:

    * log form: alpha = p/q rational in [1 - log3(2), 1), D irrational, held
      as the pair (P, Q) with 1 - alpha = P/Q;
    * rational form: D itself an exact Fraction in (0, 1] (covers the
      boundary D = 1 and test corners like D = 1/2, whose alpha is
      irrational).

    Only the comparison u*D <= x (:attr:`le_d`) looks at the form; every
    other decision is written in terms of it.
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

    @cached_property
    def le_d(self) -> Callable[[int, int], bool]:
        """The exact test (u, x) -> u*D <= x for u >= 1, with the form's
        integers bound once, so a loop pays one call per test."""
        if self.d_exact is not None:
            num, den = self.d_exact.numerator, self.d_exact.denominator
            return lambda u, x: u * num <= x * den
        # u*D = u P log2 3 / Q with 1 - alpha = P/Q is irrational, so
        # u*D <= x iff u P log2 3 < x Q iff floor(u P log2 3) < x Q
        p, q = self.one_minus_alpha.numerator, self.one_minus_alpha.denominator
        return lambda u, x: _floor_log2_3(u * p) < x * q

    def floor_div(self, y: int) -> int:
        """floor(y / D) for y >= 1: the largest q with q*D <= y."""
        if y < 1:
            raise ValueError("y must be >= 1")
        le_d = self.le_d
        # y over the double D, divided in integers so that no y overflows (a
        # D that underflows to 0.0 just gives no estimate).  It is off by
        # about y * 2^-50, and floor(y/D) >= y as D <= 1.  From a too-high
        # estimate, count down to the last q still too high; that search
        # holds false at q <= 0, so it never asks about u = 0
        num, den = self.d_float.as_integer_ratio()
        q = max(y, y * den // max(num, 1))
        if le_d(q, y):
            return _largest(lambda u: le_d(u, y), q)
        return q - 1 - _largest(lambda d: q - d > 0 and not le_d(q - d, y), 0)

    def a_walk(self) -> Iterator[int]:
        """The elements k_1 < k_2 < ... of A, without end.

        k_y = floor(y/D) and 1/D >= 1, so k_{y+1} - k_y is a0 = floor(1/D)
        or a0 + 1, the larger exactly when (k_y + a0 + 1)*D <= y + 1: one
        comparison per element.
        """
        le_d = self.le_d
        a0 = self.floor_div(1)
        k, y = a0, 1
        while True:
            yield k
            y += 1
            k += a0 + 1 if le_d(k + a0 + 1, y) else a0


# -- the characteristic prefix -------------------------------------------------


@dataclass(frozen=True)
class APrefix:
    """Characteristic prefix of A over positions 1..n, held as a byte bitmap:
    position m is bit m % 8 of byte m // 8."""

    n: int
    bitmap: bytes = field(repr=False)

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


def _repeat(word: int, length: int, t: int, mask: int) -> int:
    """``word`` (``length`` letters, held as bits 1..length) written t times,
    cut to the positions under ``mask``; pieces double, so O(log t) steps."""
    n = mask.bit_length() - 1
    t = min(t, -(-n // length))  # more copies than fill n positions add nothing
    out = filled = 0
    while t:
        if t & 1:
            out = (out | word << filled) & mask
            filled += length
        t >>= 1
        if t and length < n:
            word = (word | word << length) & mask
            length *= 2
    return out


def a_prefix_from_rational(r: int, s: int, n: int) -> APrefix:
    """Prefix of {floor(r*y/s) : y >= 1} on [1, n], built as a word.

    r = 0 covers no position, and for 0 < r <= s the floors start at 0 or 1
    and step by 0 or 1, so they cover every one.  For r > s, let word(p/q)
    be the p letters on positions 1..p, position m set when m = floor(p*y/q)
    for some y; the set has period p, so the prefix is word(r/s) tiled out
    to n.  With a0 = floor(r/s), word(a0/1) = 0^(a0-1)1 and
    word((a0+1)/1) = 0^a0 1, and for Farey neighbours a/b < c/d
    (cb - ad = 1) the mediant's word is word(a/b).word(c/d):

    * for y <= b its floors are those of a/b, since a fraction strictly
      between a/b and the mediant has denominator >= 2b + d > y;
    * for y <= d, floor((a + c)(b + y)/(b + d)) - a is
      floor((1 + (a + c)y)/(b + d)), which exceeds c*y/d by
      (d - y)/(d(b + d)) < 1/d and so has the floor of c*y/d.

    The Stern-Brocot walk from a0/1 and (a0+1)/1 to r/s is Euclid's
    algorithm on the distances r*b - a*s (below) and c*s - r*d (above): a
    run lo += t*hi appends word(hi)^t to word(lo), and a run hi += u*lo
    prepends word(lo)^u to word(hi).  Each word is an int cut to positions
    1..n, so no a0 > n builds an a0-bit word.
    """
    if r < 0 or s < 1 or n < 1:
        raise ValueError("need r >= 0, s >= 1 and n >= 1")
    nbytes = (n >> 3) + 1
    if r == 0:
        return APrefix(n, bytes(nbytes))
    mask = (2 << n) - 1
    if r <= s:
        return APrefix(n, (mask - 1).to_bytes(nbytes, "little"))
    g = math.gcd(r, s)
    r, s = r // g, s // g
    a, below = divmod(r, s)
    above = s - below
    lo, lo_len = (1 << a if a <= n else 0), a
    hi, hi_len = (1 << a + 1 if a < n else 0), a + 1
    while below:  # below = 0 leaves lo = r/s
        if below >= above:
            t, below = divmod(below, above)
            if lo_len < n:
                lo = (lo | _repeat(hi, hi_len, t, mask) << lo_len) & mask
            lo_len += t * hi_len
        else:
            u, above = divmod(above, below)
            shift = u * lo_len
            hi = _repeat(lo, lo_len, u, mask) | (hi << shift & mask if shift < n else 0)
            hi_len += shift
            if above == 0:  # hi reaches r/s
                lo, lo_len = hi, hi_len
                break
    return APrefix(n, _repeat(lo, lo_len, -(-n // lo_len), mask).to_bytes(nbytes, "little"))


def a_prefix(params: DensityParams, n: int) -> APrefix:
    """A's characteristic prefix on [1, n], from its best rational.

    With r/s = best_rational(params, n), floor(y/D) = floor(r*y/s) for every
    y <= n: r/s <= 1/D gives <=, and an integer m with y*r/s < m <= y/D would
    put m/y in (r/s, 1/D] with denominator y <= n, against the choice of r/s.
    Every position <= n is some k_y = floor(y/D) >= y with y <= n, because
    D <= 1, and r/s >= floor(1/D) >= 1 keeps floor(r*y/s) >= y > n for
    y > n.  So the prefix of A is the prefix of {floor(r*y/s)}, built by
    :func:`a_prefix_from_rational`: O(log n) exact comparisons in place of
    one per element.
    """
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    return a_prefix_from_rational(*best_rational(params, n), n)


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
    le_d = params.le_d
    a0 = params.floor_div(1)  # floor(1/D)
    lo = (a0, 1)
    hi = (a0 + 1, 1)
    while lo[1] + hi[1] <= n:
        if le_d(lo[0] + hi[0], lo[1] + hi[1]):
            # run toward 1/D: lo + t*hi, largest t within the denominator budget
            t_cap = (n - lo[1]) // hi[1]
            t = _largest(lambda t: le_d(lo[0] + t * hi[0], lo[1] + t * hi[1]), 1, t_cap + 1)
            lo = (lo[0] + t * hi[0], lo[1] + t * hi[1])
        else:
            # run hi toward 1/D; overshooting the budget just ends the walk.
            # The cap also ends the run at rational D once lo == 1/D
            u_cap = max(1, (n - lo[1] - hi[1]) // lo[1] + 1)
            u = _largest(lambda u: not le_d(hi[0] + u * lo[0], hi[1] + u * lo[1]), 1, u_cap + 1)
            hi = (hi[0] + u * lo[0], hi[1] + u * lo[1])
    g = math.gcd(lo[0], lo[1])
    return lo[0] // g, lo[1] // g


@dataclass(frozen=True)
class RationalCheck:
    ok: bool
    counterexamples: tuple[int, ...]  # first few y where the floors disagree


def verify_rational_encoding(params: DensityParams, r: int, s: int, n: int) -> RationalCheck:
    """Check floor(y/D) == floor(r*y/s) for every 1 <= y <= n."""
    bad = []
    for y, k in zip(range(1, n + 1), params.a_walk()):
        if k != r * y // s:
            bad.append(y)
            if len(bad) >= 10:
                break
    return RationalCheck(ok=not bad, counterexamples=tuple(bad))


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
    length = ternary_to_int(s[pos : pos + zeros])
    pos += zeros
    if pos + length > len(s):
        raise ValueError("malformed field: truncated body")
    value = ternary_to_int(s[pos : pos + length])
    return value, pos + length


def decode_rsn(encoded: str) -> tuple[int, int, int]:
    """Inverse of encode_rsn."""
    n, pos = _read_field(encoded, 0)
    s, pos = _read_field(encoded, pos)
    return ternary_to_int(encoded[pos:]), s, n


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

    The length is guaranteed to stay within 4*log3(n) + c0 ternary symbols,
    c0 = encoding_constant(params), and the guarantee is checked in integers
    as 3^(length - c0) <= n^4 (a length at most c0 always holds, as n >= 2);
    ``bound`` reports the same limit as a float.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    r, s = best_rational(params, n)
    encoded = encode_rsn(r, s, n)
    c0 = encoding_constant(params)
    bound = 4 * math.log(n) / math.log(3) + c0
    if 3 ** max(len(encoded) - c0, 0) > n**4:
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
    """Enumerate the first ``count`` complement elements, read off a best
    rational.

    The i-th element is u_i = ceil(i/(1 - D)) - 1, the largest u with
    u(1 - D) < i, that is with not u*D <= u - i.  N = u_count is at least
    ``count`` and is found by one gallop-and-bisect from there (near D = 1
    it is about count/(1 - D), where a double estimate of 1 - D cancels to
    0).  Let r/s = best_rational(params, N).

    For u <= N, |A & [1, u]| = ceil((u + 1)s/r) - 1: a y with
    floor(y/D) <= u has y <= floor(y/D) <= N, as D <= 1, and for y <= N
    floor(y/D) = floor(r*y/s) (the argument of :func:`a_prefix`), while
    r/s >= 1 gives y <= floor(r*y/s) too; so the count is
    #{y >= 1 : r*y/s < u + 1}.  The complement count is then
    c(u) = (u + 1) - ceil((u + 1)s/r) = floor((u + 1)(r - s)/r).  Since
    u_1 <= N is a complement element, c(N) >= 1 forces r > s, and u_i, the
    least u with c(u) >= i, is ceil(i*r/(r - s)) - 1 = (i*r - 1) // (r - s)
    for every i <= count (u_i <= N, where the two counts agree).  So the
    enumeration takes O(log N) exact comparisons in place of one per element.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if params.d_exact == 1:  # D = 1: A is all of N (the log form is never 1)
        return ComplementEnumeration(elements=(), empty=True)
    le_d = params.le_d
    r, s = best_rational(params, _largest(lambda u: not le_d(u, u - count), count))
    gap = r - s
    return ComplementEnumeration(elements=tuple([(x - 1) // gap for x in range(r, count * r + 1, r)]), empty=False)


# -- box-dimension estimates ----------------------------------------------------------


@dataclass(frozen=True)
class BoxDimEstimates:
    """A sequence of box-dimension estimates, one (n, count, estimate) entry
    per n: cover counts S(3^-n) with exponents log S/(n log 3) from
    ``measure.box_dim_estimate``, or (n, k_n, n*log2/((k_n - 1)*log3)) for
    C_A from :func:`box_dim_bound_ca`."""

    entries: tuple[tuple[int, int, float], ...]

    @property
    def tail_sup(self) -> float:
        """The largest estimate over the second half of the sequence."""
        return max(e for _, _, e in self.entries[len(self.entries) // 2 :])

    @property
    def final(self) -> float:
        return self.entries[-1][2]


def box_dim_bound_ca(params: DensityParams, depth: int) -> BoxDimEstimates:
    """The covering estimates for C_A at n = 1..depth, k_n the n-th element
    of A, read off a best rational.

    With r/q = best_rational(params, depth), k_n = floor(n/D) = r*n // q for
    every n <= depth, by the argument of :func:`a_prefix`; so the sequence
    takes O(log depth) exact comparisons in place of one per element.
    """
    if depth < 2:
        raise ValueError("need depth >= 2")
    r, q = best_rational(params, depth)
    log2, log3 = math.log(2), math.log(3)
    # k_1 = 1 happens only at D = 1; skip the degenerate ratio
    return BoxDimEstimates(
        tuple([(n, k, n * log2 / ((k - 1) * log3)) for n in range(1, depth + 1) if (k := r * n // q) >= 2])
    )
