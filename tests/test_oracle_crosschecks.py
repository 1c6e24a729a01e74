"""Cross-checks of optimized paths against naive reference implementations."""

import itertools
import random
from fractions import Fraction

import numpy as np
from mpmath import mp

from complement_forge.density import DensityParams, complement_enum
from complement_forge.fractal import build_density_spec
from complement_forge.measure import Pow2Sum, mass_ratio
from complement_forge.solver import (
    CoverInstance,
    exact_min_complement,
    greedy_complement,
    uncovered_values,
)
from complement_forge.ternary import BlockCode, PatternSet, enumerate_pattern, zero_one_pattern


def naive_greedy(instance):
    """The spec'd selection rule, run literally: rescan every candidate each
    round, pick max coverage, break ties by smallest value."""
    base = instance.base_set.values
    size = 3**instance.k
    cands = np.arange(instance.lo, instance.hi)
    uncovered = np.ones(size, dtype=bool)
    chosen = []
    while uncovered.any():
        cov = np.zeros(len(cands), dtype=np.int64)
        for a in base:
            t = cands + a
            ok = (t >= 0) & (t < size)
            cov[ok] += uncovered[t[ok]]
        i = int(np.argmax(cov))  # the first maximum: the smallest value
        if cov[i] == 0:
            raise AssertionError("infeasible")
        chosen.append(int(cands[i]))
        t = np.array(base) + chosen[-1]
        uncovered[t[(t >= 0) & (t < size)]] = False
    return chosen


def test_greedy_matches_naive_selection():
    rng = random.Random(20)
    instances = []
    for _ in range(25):
        k = rng.randint(1, 3)
        vals = rng.sample(range(3**k), rng.randint(1, 3**k))
        if 0 not in vals:
            vals.append(0)
        instances.append(CoverInstance(k, BlockCode.from_iterable(k, vals)))
    for _ in range(10):
        vals = rng.sample(range(81), rng.randint(1, 30))
        instances.append(CoverInstance(4, BlockCode.from_iterable(4, {0, *vals})))
        instances.append(CoverInstance.signed(4, BlockCode.from_iterable(4, vals)))
    # signed ranges, including bases whose smallest element is not 0, so that
    # a + b and t - a run past both ends of the candidate range
    instances.append(CoverInstance.signed(2, enumerate_pattern(zero_one_pattern(2))))
    for k in (2, 3, 4):
        for digits in ((0, 2), (1, 2)):
            instances.append(CoverInstance.signed(k, enumerate_pattern(PatternSet.uniform(k, digits))))
    # the alpha = 0.8 quadratic stages 4 and 5 (k = 7 and 9)
    spec = build_density_spec(DensityParams.from_alpha("0.8"), 5)
    instances += [stage.certificate.instance for stage in spec.stages[3:]]
    for inst in instances:
        got = list(greedy_complement(inst).solution.values)
        assert got == sorted(naive_greedy(inst))


def exhaustive_min_cover_size(instance):
    candidates = list(range(instance.lo, instance.hi))
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if not uncovered_values(instance, BlockCode.from_iterable(instance.k, combo)):
                return size
    raise AssertionError("no cover at all")


def test_exact_matches_exhaustive_minimum():
    rng = random.Random(21)
    for _ in range(12):
        k = rng.randint(1, 2)
        vals = rng.sample(range(3**k), rng.randint(1, 3**k))
        if 0 not in vals:
            vals.append(0)
        inst = CoverInstance(k, BlockCode.from_iterable(k, vals))
        cert = exact_min_complement(inst)
        assert cert.optimal == "proven-optimal"
        assert cert.size == exhaustive_min_cover_size(inst)


def test_exact_signed_matches_exhaustive_minimum():
    rng = random.Random(30)
    for _ in range(6):
        k = rng.choice((1, 2))
        vals = rng.sample(range(3**k), rng.randint(1, 3**k))
        inst = CoverInstance.signed(k, BlockCode.from_iterable(k, vals))
        cert = exact_min_complement(inst)
        assert cert.optimal == "proven-optimal"
        assert cert.size == exhaustive_min_cover_size(inst)


def cf_convergents(q, terms):
    """Continued-fraction convergents h/k of 2^(1/q), from 100-digit mpmath."""
    with mp.workdps(100):
        x = mp.root(2, q)
        h, h_prev, k, k_prev = 1, 0, 0, 1
        for _ in range(terms):
            a = int(mp.floor(x))
            h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
            yield h, k
            x = 1 / (x - a)


def test_pow2sum_sign_against_high_precision():
    rng = random.Random(22)
    cases = []
    for _ in range(60):
        q = rng.choice((1, 2, 3, 5, 10))
        cases.append((q, [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(q)]))
    for q in (30, 60):
        for _ in range(10):
            cases.append((q, [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(q)]))
    # near cancellation: 2^(j/q) * (h - k * 2^(1/q)) for convergents h/k
    for q in (2, 3, 10, 30, 60):
        for h, k in cf_convergents(q, 40):
            j = rng.randrange(q - 1)
            coeffs = [Fraction(0)] * q
            coeffs[j], coeffs[j + 1] = Fraction(h), Fraction(-k)
            cases.append((q, coeffs))
    for q, coeffs in cases:
        v = Pow2Sum(q, coeffs)
        with mp.workdps(80):
            root = mp.root(2, q)
            ref = sum(mp.mpf(c.numerator) / c.denominator * root**i for i, c in enumerate(coeffs))
            ref_sign = 0 if ref == 0 else (1 if ref > 0 else -1)
        if all(c == 0 for c in coeffs):
            assert v.sign() == 0
        else:
            assert v.sign() == ref_sign


def brute_force_meeting_count(u, bits, f, scale):
    """Enumerate all 2^(f-1) level-(f-1) intervals and intersect directly."""
    weights = [3 ** (scale - u[i]) for i in range(len(bits))]
    x = sum(b * w for b, w in zip(bits, weights))
    delta = 3 ** (scale - u[f - 1])
    length = 3 ** (scale - u[f - 2])
    count = 0
    for sigma in itertools.product((0, 1), repeat=f - 1):
        v = sum(s * w for s, w in zip(sigma, weights))
        if v <= x + delta and v + length >= x - delta:
            count += 1
    return count


def test_mass_ratio_counts_match_enumeration():
    rng = random.Random(23)
    for alpha in ("0.75", "0.8"):
        params = DensityParams.from_alpha(alpha)
        enum = complement_enum(params, 16)
        u = enum.elements
        for _ in range(10):
            bits = [rng.randint(0, 1) for _ in range(10)]
            rep = mass_ratio(params, bits, range(3, 11), enumeration=enum)
            for e in rep.entries:
                expect = brute_force_meeting_count(u, bits, e.f, u[len(bits) - 1])
                assert e.meeting_intervals == expect
