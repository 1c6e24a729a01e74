"""Concatenation fractals: block-code schedules, dimension accounting, and
exact sum-decompositions.

A spec is a schedule of stages; stage i contributes a block of n_i ternary
digits whose value must split as (pattern element) + (code element).  Two
kinds are built here:

* uniform: every stage is the same (k, code) pair over the {0,1} pattern,
  so the generated set is self-similar;
* quadratic: stage lengths n_k = 2k - 1 (cumulative depth k^2), with the
  {0,1} positions of stage patterns thinned out to the density set A.

All decomposition arithmetic is exact; dimension quantities are reported as
floats alongside their defining integer pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .density import DensityParams, a_prefix
from .solver import CoverCertificate, CoverInstance, greedy_complement, verify_complement
from .ternary import (
    BASE,
    BlockCode,
    GammaValue,
    PatternSet,
    TernaryRational,
    enumerate_pattern,
    cantor_dimension,
    zero_one_base,
    zero_one_pattern,
)


@dataclass(frozen=True)
class Stage:
    """One schedule entry: block length n, base pattern, and verified code."""

    n: int
    pattern: PatternSet
    certificate: CoverCertificate

    def __post_init__(self) -> None:
        if self.pattern.k != self.n or self.certificate.instance.k != self.n:
            raise ValueError("stage block lengths disagree")

    @property
    def code(self) -> BlockCode:
        return self.certificate.solution

    @property
    def gamma(self) -> GammaValue:
        return GammaValue(card=len(self.code), n=self.n)


@dataclass(frozen=True)
class FractalSpec:
    """A finite schedule of stages plus the rule that generated it."""

    kind: str  # "uniform" | "quadratic"
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "quadratic"):
            raise ValueError(f"unknown spec kind {self.kind!r}")
        if not self.stages:
            raise ValueError("spec needs at least one stage")
        if self.kind == "quadratic":
            for i, st in enumerate(self.stages, start=1):
                if st.n != 2 * i - 1:
                    raise ValueError(f"quadratic stage {i} must have length {2*i-1}, got {st.n}")

    def stage_at(self, i: int) -> Stage:
        """Stage index i >= 1; uniform specs repeat their single stage."""
        if self.kind == "uniform":
            return self.stages[0]
        if i > len(self.stages):
            raise ValueError(f"spec has {len(self.stages)} stages, asked for {i}")
        return self.stages[i - 1]

    def digit_depth(self, stages: int) -> int:
        """Total ternary digits consumed by the first ``stages`` stages."""
        return sum(self.stage_at(i).n for i in range(1, stages + 1))


def _ensure_zero(cert: CoverCertificate) -> CoverCertificate:
    """Force 0 into the code (keeps 0 and 1 decomposable with no special cases).

    Adding a value can only enlarge the cover, so re-verification cannot fail;
    the gamma drift is logged since it changes the dimension accounting.
    """
    if 0 in cert.solution:
        return cert
    k = cert.instance.k
    enlarged = BlockCode.from_iterable(k, (0, *cert.solution.values))
    import logging

    logging.getLogger(__name__).info(
        "adjoined 0 to a size-%d code at k=%d (gamma %.5f -> %.5f)",
        len(cert.solution),
        k,
        GammaValue(len(cert.solution), k).value,
        GammaValue(len(enlarged), k).value,
    )
    return verify_complement(cert.instance, enlarged, method=cert.method, optimal="unknown")


def build_uniform_spec(k: int, cert: CoverCertificate) -> FractalSpec:
    """Uniform spec repeating (k, code) over the {0,1} base pattern."""
    if cert.instance.base_set != zero_one_base(k):
        raise ValueError("certificate base set is not the {0,1} pattern at this length")
    if not cert.verify():
        raise ValueError("certificate does not re-verify")
    return FractalSpec(kind="uniform", stages=(Stage(k, zero_one_pattern(k), _ensure_zero(cert)),))


def density_patterns(params: DensityParams, stages: int) -> tuple[PatternSet, ...]:
    """The quadratic schedule's stage patterns: stage k spans absolute digit
    positions (m_{k-1}, m_k] with m_k = k^2, and its pattern allows digit 1
    only at positions lying in the density set A.

    The digit at the 3^j place of stage k sits at absolute position m_k - j,
    which is how membership in A is tested below.  At density 1 (A = N) every
    stage degenerates to the full {0,1} pattern.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    prefix = a_prefix(params, stages * stages)
    one, zero = frozenset((0, 1)), frozenset((0,))
    return tuple(
        PatternSet(2 * k - 1, tuple(one if prefix.contains(k * k - j) else zero for j in range(2 * k - 1)))
        for k in range(1, stages + 1)
    )


def build_density_spec(params: DensityParams, stages: int) -> FractalSpec:
    """Variable-density spec over :func:`density_patterns`, each stage's code
    the greedy complement of its pattern."""
    built = []
    for pattern in density_patterns(params, stages):
        inst = CoverInstance(pattern.k, enumerate_pattern(pattern))
        built.append(Stage(pattern.k, pattern, _ensure_zero(greedy_complement(inst))))
    return FractalSpec(kind="quadratic", stages=tuple(built))


# -- dimension accounting -------------------------------------------------------


@dataclass(frozen=True)
class MeasureBound:
    """Value of the n-stage cover sum (card B)^n * 3^s * 3^(-k n s).

    For the natural exponent s = gamma the base-3 logarithm collapses to an
    exact rational multiple of log3(card B); ``log3_coefficient`` carries that
    rational (the identity "= 3^gamma" is coefficient == 1/k).  For other
    exponents only the float view is defined.
    """

    card: int
    k: int
    n: int
    log3_coefficient: Optional[Fraction]
    log3_value: float


def measure_bound(spec: FractalSpec, n: int, exponent: Optional[float] = None) -> MeasureBound:
    """Cover-sum bound after n stages of a uniform spec, in log space."""
    if spec.kind != "uniform":
        raise ValueError("measure bound is defined for uniform specs")
    if n < 1:
        raise ValueError("need n >= 1")
    stage = spec.stage_at(1)
    card, k = len(stage.code), stage.n
    log3_card = math.log(card) / math.log(BASE)
    if exponent is None:
        # n*log3(card) + s*(1 - k*n) with s = log3(card)/k, as exact coefficients
        coeff = n + Fraction(1 - k * n, k)
        return MeasureBound(card, k, n, coeff, float(coeff) * log3_card)
    s = exponent
    return MeasureBound(card, k, n, None, n * log3_card + s * (1 - k * n))


@dataclass(frozen=True)
class DimensionLedger:
    """Per-spec dimension bookkeeping: the exponent gamma of each distinct
    stage, the additive-complement floor 1 - dim C, and their gap."""

    gammas: tuple[GammaValue, ...]
    lower_bound: float  # 1 - dim C
    gaps: tuple[float, ...]
    description_length: Optional[float]  # quadratic specs: ternary symbols to pin one point

    @property
    def gap(self) -> float:
        return self.gaps[0]


def dimension_ledger(spec: FractalSpec) -> DimensionLedger:
    floor = 1.0 - cantor_dimension()
    gammas = tuple(st.gamma for st in spec.stages)
    gaps = tuple(g.value - floor for g in gammas)
    desc = None
    if spec.kind == "quadratic":
        # symbols to specify a depth-m_k point: the stage codes' product plus
        # the 4 log3 m_k cost of the density prefix encoding
        m_k = spec.digit_depth(len(spec.stages))
        desc = sum(math.log(len(st.code)) / math.log(BASE) for st in spec.stages)
        desc += 4 * math.log(m_k) / math.log(BASE)
    return DimensionLedger(gammas=gammas, lower_bound=floor, gaps=gaps, description_length=desc)


# -- exact decompositions -------------------------------------------------------


@dataclass(frozen=True)
class DecompositionCertificate:
    """Stage-wise split of x: block value v_i = a_i + b_i with a_i from the
    stage pattern and b_i from the stage code.  Reconstruction is exact."""

    x: TernaryRational
    a_blocks: tuple[int, ...]
    b_blocks: tuple[int, ...]
    stage_offsets: tuple[int, ...]  # cumulative digit depths m_1 < m_2 < ...

    def half_c_part(self) -> TernaryRational:
        """sum a_i / 3^(m_i): the pattern-side point (a prefix of the scaled set)."""
        return _block_sum(self.a_blocks, self.stage_offsets)

    def half_e_part(self) -> TernaryRational:
        """sum b_i / 3^(m_i): the code-side point."""
        return _block_sum(self.b_blocks, self.stage_offsets)

    def is_exact(self) -> bool:
        """half_c_part() + half_e_part() == x, decided in integers as
        sum (a_i + b_i) * 3^(M - m_i) == x * 3^M with M the last offset; an x
        deeper than M is no such sum."""
        last = self.stage_offsets[-1]
        if self.x.depth > last:
            return False
        blocks = zip(self.a_blocks, self.b_blocks, self.stage_offsets)
        total = sum((a + b) * BASE ** (last - m) for a, b, m in blocks)
        return total == self.x.numerator * BASE ** (last - self.x.depth)


def _block_sum(blocks: Sequence[int], offsets: Sequence[int]) -> TernaryRational:
    """sum v_i / 3^(m_i) as one numerator over 3^(m_last)."""
    last = offsets[-1]
    return TernaryRational(sum(v * BASE ** (last - m) for v, m in zip(blocks, offsets)), last)


def decompose(x: TernaryRational, spec: FractalSpec, depth: int) -> DecompositionCertificate:
    """Split x in [0, 1] into pattern + code parts through ``depth`` stages.

    x is scaled once to the integer N = x * 3^M, M the consumed digit depth;
    stage i's block is the n_i-digit slice of N ending m_i digits in.  The
    boundary x = 1 is treated as 0.222... truncated at depth M (N = 3^M - 1);
    the certificate's ``x`` field holds the value actually decomposed.
    Witness pairs come from each stage's certificate (smallest a, then b), so
    the decomposition is deterministic.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    if not 0 <= x.numerator <= BASE**x.depth:
        raise ValueError("x must lie in [0, 1]")
    stages = [spec.stage_at(i) for i in range(1, depth + 1)]
    digits_needed = sum(st.n for st in stages)
    if x.numerator == 1 and x.depth == 0:  # x = 1
        x = TernaryRational(BASE**digits_needed - 1, digits_needed)
    elif x.depth > digits_needed:
        raise ValueError(f"x has {x.depth} digits; {depth} stages only consume {digits_needed}")
    scaled = x.numerator * BASE ** (digits_needed - x.depth)

    # blocks are cut off the low end of N, so the last stage comes first
    a_blocks, b_blocks, offsets = [0] * depth, [0] * depth, [0] * depth
    m = digits_needed
    for i in range(depth - 1, -1, -1):
        stage = stages[i]
        scaled, v = divmod(scaled, BASE**stage.n)
        a_blocks[i], b_blocks[i] = stage.certificate.witness(v)
        offsets[i] = m
        m -= stage.n
    cert = DecompositionCertificate(x, tuple(a_blocks), tuple(b_blocks), tuple(offsets))
    if not cert.is_exact():
        raise AssertionError(f"decomposition of {x} does not reconstruct it")
    return cert


@dataclass(frozen=True)
class ReflectionCertificate:
    """Witness that x + r lands in 2 - E (up to the stated digit depth).

    The identity checked by verify() is exact:
        x + r + e_point + residual == 2,
    where x is a Cantor-set point (digits {0,2}), e_point is twice a code-side
    point, and 0 <= residual < 2*3^-depth absorbs the halving truncation of
    (2 - r)/2 (the halving error, doubled).
    """

    r: TernaryRational
    digit_depth: int
    decomposition: DecompositionCertificate
    cantor_point: TernaryRational  # x, digits {0, 2}
    e_point: TernaryRational  # y with x + r = 2 - y - residual
    translated_point: TernaryRational  # x + r
    residual: TernaryRational

    def verify(self) -> bool:
        two = TernaryRational(2, 0)
        lhs = self.translated_point + self.e_point + self.residual
        ok = lhs == two and self.translated_point == self.cantor_point + self.r
        res = self.residual.as_fraction()
        return ok and 0 <= res < Fraction(2, BASE**self.digit_depth)


def reflect_decompose(r: TernaryRational, spec: FractalSpec, depth: int) -> ReflectionCertificate:
    """Find a Cantor-set point x with x + r in 2 - E, certified exactly.

    Splits (2 - r)/2 = x' + y' with x' pattern-side and y' code-side, then
    doubles: x = 2x' has Cantor digits, and x + r = 2 - 2y' - residual where
    the residual is the (2 - r)/2 truncation error, below 3^-digit_depth.
    r = 0 is refused: (2 - 0)/2 = 1 is split as 0.22...2, so x + r + e
    falls 2 * 3^-digit_depth short of 2, which no residual below the bound
    makes up.
    """
    if not 0 < r.numerator <= 2 * BASE**r.depth:
        raise ValueError("r must lie in (0, 2]")
    digits = spec.digit_depth(depth)
    w = TernaryRational(2, 0) - r
    u = w.halve_truncated(digits)
    cert = decompose(u, spec, depth)
    x = cert.half_c_part().scale(2)
    y = cert.half_e_part().scale(2)
    residual = w - u.scale(2)
    return ReflectionCertificate(
        r=r,
        digit_depth=digits,
        decomposition=cert,
        cantor_point=x,
        e_point=y,
        translated_point=x + r,
        residual=residual,
    )
