"""The density set A = {floor(y/D) : y >= 1} and its succinct encoding.

D is the density parameter (1 - alpha) / (log 2 / log 3).  For rational alpha
short of 1, D is irrational (a rational multiple of log_2 3), so every floor
and comparison here reduces to deciding inequalities between powers of 2 and
powers of 3.  Those are settled exactly with integer arithmetic: for j >= 1,
2^M > 3^j iff M >= (3^j).bit_length(), and equality is impossible.  A float
estimate picks the candidate; the certified check confirms it; there is no
precision cap to exhaust.

Rational D (for example D = 1 or D = 1/2, the degenerate corners) is supported
directly with integer division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .ternary import BASE, cantor_dimension, int_to_ternary

_LOG2_3 = math.log(3) / math.log(2)

#: Density-independent part of the additive constant in the length guarantee
#: len(encode(r, s, n)) <= 4*log3(n) + ENCODING_CONSTANT + len3(floor(1/D)).
#: Counting field overheads gives at most 3*len3(n) + 4*len3(len3(n)) + 3
#: beyond the r-width term, whose gap over 4*log3(n) peaks below 11 at small
#: n; a dense sweep observes 9.67 (see tests).
ENCODING_CONSTANT = 12


def _bitlen_pow3(j: int) -> int:
    """(3^j).bit_length(), i.e. floor(j * log2 3) + 1, certified exact.

    Uses a float estimate and falls back to the exact power only when the
    fractional part is too close to an integer to trust the float.
    """
    if j < 0:
        raise ValueError("exponent must be nonnegative")
    if j == 0:
        return 1
    est = j * _LOG2_3
    frac = est - math.floor(est)
    # double-precision error here is ~2e-16 * est; 1e-6 is a generous margin
    if 1e-6 < frac < 1 - 1e-6:
        return int(est) + 1
    return (3**j).bit_length()


def _pow2_gt_pow3(m: int, j: int) -> bool:
    """Exact test 2^m > 3^j (j >= 0).  For j >= 1 equality cannot occur."""
    if j == 0:
        return m > 0
    return m >= _bitlen_pow3(j)


def _floor_log_ratio(m: int, n: int) -> int:
    """floor(m*log 2 / (n*log 3)) for positive integers, exact.

    This is the largest q with 3^(q*n) <= 2^m.
    """
    if m <= 0 or n <= 0:
        raise ValueError("arguments must be positive")
    q = int(m / (n * _LOG2_3))
    # certify: 3^(q n) <= 2^m < 3^((q+1) n)
    while q > 0 and not _pow2_gt_pow3(m, q * n):
        q -= 1
    while _pow2_gt_pow3(m, (q + 1) * n):
        q += 1
    return q


@dataclass(frozen=True)
class DensityParams:
    """The pair (alpha, D) with D = (1 - alpha) / (log 2 / log 3).

    Exactly one of two internal forms is active:

    * log form: alpha = p/q rational in [1 - log3(2), 1), D irrational, held
      as the pair (P, Q) with 1 - alpha = P/Q;
    * rational form: D itself an exact Fraction in (0, 1] (covers the
      boundary D = 1 and test corners like D = 1/2, whose alpha is
      irrational).
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
            # D <= 1  <=>  (1 - alpha) <= log3(2)  <=>  3^P <= 2^Q
            if _bitlen_pow3(pq.numerator) > pq.denominator:
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

    def floor_div(self, y: int) -> int:
        """floor(y / D), exact for both parameter forms."""
        if y < 1:
            raise ValueError("y must be >= 1")
        if self.d_exact is not None:
            d = self.d_exact
            return y * d.denominator // d.numerator
        # y/D = (y * Q * log 2) / (P * log 3) with 1 - alpha = P/Q
        pq = self.one_minus_alpha
        return _floor_log_ratio(y * pq.denominator, pq.numerator)

    def fraction_le_inv_d(self, r: int, s: int) -> bool:
        """Exact test r/s <= 1/D (s >= 1)."""
        if s < 1:
            raise ValueError("denominator must be >= 1")
        if self.d_exact is not None:
            return Fraction(r, s) <= 1 / self.d_exact
        if r <= 0:
            return True
        # r/s <= 1/D  <=>  3^(r P) <= 2^(s Q)
        pq = self.one_minus_alpha
        return s * pq.denominator >= _bitlen_pow3(r * pq.numerator)

    def a_elements(self, upto: int) -> Iterator[int]:
        """The elements of A in [1, upto], ascending (k_y = floor(y/D) is
        strictly increasing since 1/D >= 1)."""
        y = 1
        while True:
            k = self.floor_div(y)
            if k > upto:
                return
            yield k
            y += 1

    def shift_bound(self, u: int, n: int) -> int:
        """Least integer t with u <= (n + t)/(1 - D), for one complement element.

        Requires D < 1.  Rearranged: t >= u*(1-D) - n.
        """
        if self.d_exact is not None:
            d = self.d_exact
            if d >= 1:
                raise ValueError("complement is empty for D = 1")
            val = u * (1 - d) - n
            return math.ceil(val)
        # 1 - D = (Q log 2 - P log 3)/(Q log 2); u(1-D) <= n + t
        #   <=>  (u - n - t) Q log 2 <= u P log 3
        #   <=>  t >= u - n - floor(u P log 3 / (Q log 2))   [exact via bit lengths]
        pq = self.one_minus_alpha
        b = _bitlen_pow3(u * pq.numerator) - 1  # floor(u P log2 3)
        return u - n - b // pq.denominator


# -- the characteristic prefix -------------------------------------------------


@dataclass(frozen=True)
class APrefix:
    """Characteristic prefix of A over positions 1..n, held as a bitmask."""

    n: int
    bits: int
    source: str  # "direct" or "rational(r/s)"

    def contains(self, m: int) -> bool:
        return 1 <= m <= self.n and bool(self.bits >> m & 1)

    def members(self) -> list[int]:
        return [m for m in range(1, self.n + 1) if self.bits >> m & 1]

    def count(self) -> int:
        return self.bits.bit_count()

    def density(self) -> Fraction:
        return Fraction(self.count(), self.n)


def a_prefix(params: DensityParams, n: int) -> APrefix:
    """A's characteristic prefix on [1, n], computed from the defining floors."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    bits = 0
    for k in params.a_elements(n):
        bits |= 1 << k
    return APrefix(n, bits, "direct")


def a_prefix_from_rational(r: int, s: int, n: int) -> APrefix:
    """Prefix reconstructed from the encoded fraction: positions floor(r*y/s)."""
    if s < 1 or n < 1:
        raise ValueError("need s >= 1 and n >= 1")
    bits = 0
    y = 1
    while True:
        k = r * y // s
        if k > n:
            break
        if k >= 1:
            bits |= 1 << k
        y += 1
    return APrefix(n, bits, f"rational({r}/{s})")


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
    if params.d_exact is not None:
        inv = 1 / params.d_exact
        if inv.denominator <= n:
            return inv.numerator, inv.denominator
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
    for y in range(1, n + 1):
        if params.floor_div(y) != r * y // s:
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
    """First elements u_1 < u_2 < ... of the complement of A, with the minimal
    integer shift t making u_i <= (i + t)/(1 - D) hold over the enumerated
    range.  ``empty`` marks the degenerate D = 1 case."""

    elements: tuple[int, ...]
    t_shift: Optional[int]
    empty: bool

    def ratio(self, i: int) -> float:
        """i / u_i (1-based), which converges to 1 - D."""
        return i / self.elements[i - 1]


def complement_enum(params: DensityParams, count: int) -> ComplementEnumeration:
    """Enumerate the first ``count`` complement elements and the minimal shift."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if params.d_exact == 1:
        return ComplementEnumeration(elements=(), t_shift=None, empty=True)
    out: list[int] = []
    prev = 0
    y = 1
    while len(out) < count:
        k = params.floor_div(y)
        for m in range(prev + 1, k):
            out.append(m)
            if len(out) == count:
                break
        prev = k
        y += 1
    t = None
    for i, u in enumerate(out, start=1):
        ti = params.shift_bound(u, i)
        if t is None or ti > t:
            t = ti
    return ComplementEnumeration(elements=tuple(out), t_shift=t, empty=False)


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
    for n in range(1, depth + 1):
        k = params.floor_div(n)
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
