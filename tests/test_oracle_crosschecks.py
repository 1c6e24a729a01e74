"""Cross-checks of optimized paths against naive reference implementations."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from _oracles import oracle_exact_search, oracle_local_search, oracle_within_bound
from complement_forge import solver
from complement_forge.density import DensityParams, complement_enum
from complement_forge.fractal import build_density_spec
from complement_forge.measure import Pow2Sum, mass_ratio
from complement_forge.solver import (
    CoverInstance,
    InfeasibleCoverError,
    SolverBudget,
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
    # one-element bases, where each translate covers at most one target
    instances += [CoverInstance(2, BlockCode(2, (0,))), CoverInstance(3, BlockCode(3, (0,)))]
    instances += [CoverInstance.signed(2, BlockCode(2, (a,))) for a in (0, 4, 8)]
    # digit products at k = 5..7, whose large steps retire their targets one
    # digit place at a time; the mixed places include {0,1,2} and {1}
    infeasible = [CoverInstance(2, BlockCode(2, (1,)))]
    mixed = ((0, 1, 2), (1,), (0, 1), (0, 2), (2,), (1, 2), (0, 1, 2))
    for k in (5, 6, 7):
        for allowed in (((0, 1),) * k, ((0, 2),) * k, ((1, 2),) * k, mixed[:k]):
            base = enumerate_pattern(PatternSet(k, tuple(map(frozenset, allowed))))
            instances.append(CoverInstance.signed(k, base))
            # a base without 0 leaves target 0 uncovered by the translates [0, 3^k)
            (instances if base.values[0] == 0 else infeasible).append(CoverInstance(k, base))
    for inst in instances:
        got = list(greedy_complement(inst).solution.values)
        assert got == sorted(naive_greedy(inst))
    # e.g. base {1} over [0, 9): both refuse
    for inst in infeasible:
        with pytest.raises(AssertionError, match="infeasible"):
            naive_greedy(inst)
        with pytest.raises(InfeasibleCoverError):
            greedy_complement(inst)


def test_greedy_runs_on_wide_gap_bases_match_naive_selection(monkeypatch):
    # bases whose least gap g is above 1, where a round takes every entry
    # still at the top marginal in [b0, b0 + g): the stage-6 shape (places
    # 0-1 fixed to {0}, {0,1} elsewhere) at k = 5..7, {0, 9} patterns and
    # seeded non-product bases, each over the signed and the nonneg range
    rounds = []
    next_at_level = solver._next_at_level

    def counting(*args):
        rounds[-1] += 1
        return next_at_level(*args)

    monkeypatch.setattr(solver, "_next_at_level", counting)
    zero, free = frozenset((0,)), frozenset((0, 1))
    bases = [enumerate_pattern(PatternSet(k, (zero, zero) + (free,) * (k - 2))) for k in (5, 6, 7)]
    bases += [BlockCode(k, (0, 9)) for k in (3, 4, 5)]
    bases += [enumerate_pattern(PatternSet(5, (zero, zero, free, zero, free)))]  # {0, 9, 81, 90}
    rng = random.Random(26)
    for _ in range(6):
        k = rng.randint(3, 5)
        gap = rng.randint(2, 5)
        vals = [0]
        for _ in range(rng.randint(1, 5)):
            vals.append(vals[-1] + rng.randint(gap, 3 * gap))
        bases.append(BlockCode.from_iterable(k, [v for v in vals if v < 3**k]))
    picks = 0
    for base in bases:
        for inst in (CoverInstance(base.k, base), CoverInstance.signed(base.k, base)):
            rounds.append(0)
            got = list(greedy_complement(inst).solution.values)
            assert got == sorted(naive_greedy(inst)), (inst.k, base.values, inst.lo)
            picks += len(got)
    assert sum(rounds) < picks / 2  # runs of several picks were taken


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


def test_exact_search_matches_the_bound_on_entry_oracle(monkeypatch):
    # bounding each child in its parent's loop, with the removed weight
    # memoised, must visit the same nodes as bounding it on entry: same
    # cover, optimality, node count and exhaustion point under every cap
    rng = random.Random(19)
    instances = []
    for _ in range(12):
        k = rng.randint(2, 4)
        vals = rng.sample(range(3**k), rng.randint(3, 3 * k))
        if rng.random() < 0.5:
            instances.append(CoverInstance.signed(k, BlockCode.from_iterable(k, vals)))
        else:
            instances.append(CoverInstance(k, BlockCode.from_iterable(k, {0, *vals})))
    # the patterns of the exact searches the search benchmark pins
    for k, overrides, signed in (
        (4, {}, False),
        (4, {}, True),
        (5, {2: (0,)}, False),
        (5, {j: (0, 2) for j in range(5)}, False),
        (5, {0: (0, 1, 2)}, False),
    ):
        pattern = PatternSet(k, tuple(frozenset(overrides.get(j, (0, 1))) for j in range(k)))
        base = enumerate_pattern(pattern)
        instances.append(CoverInstance.signed(k, base) if signed else CoverInstance(k, base))
    # both sides take the same counts, checked against their own oracle
    # elsewhere; one run per instance keeps this test short
    packing_counts = solver._packing_counts
    memo = {}

    def memoised(inst, table, deadline=None):
        if inst not in memo:
            memo[inst] = packing_counts(inst, table)
        return memo[inst]

    monkeypatch.setattr(solver, "_packing_counts", memoised)
    # the {0,1} k=5 search stalls at 15 from node 16 and runs the local
    # search at node 16 + _STALL = 4112, which finds 14, the digit-split
    # floor, and so ends the proof; caps on both sides of that node
    stalled = CoverInstance(5, enumerate_pattern(zero_one_pattern(5)))
    runs = [(inst, cap) for inst in instances for cap in (1, 2, 10, 127, 2000, 4096, 5000)]
    runs += [(stalled, cap) for cap in (4096, 4097, 4111, 4112, 4200, 25000)]
    # the signed k=5 search ends where its branch and bound reaches the
    # floor 14, at node 4165
    runs += [(CoverInstance.signed(5, stalled.base_set), cap) for cap in (4164, 4165)]
    exhausted = 0
    for inst, cap in runs:
        cert = exact_min_complement(inst, SolverBudget(max_nodes=cap, max_seconds=None))
        got = (cert.solution.values, cert.optimal, cert.stats.nodes, cert.stats.budget_exhausted)
        assert got == oracle_exact_search(inst, cap), (inst, cap)
        exhausted += cert.stats.budget_exhausted
        if inst == stalled:
            assert (cert.size, cert.stats.local_steps > 0) == ((15, False) if cap < 4112 else (14, True)), cap
    assert 0 < exhausted < len(runs)


def test_split_search_proves_the_unsplit_minimum():
    # searching each residue class mod g apart proves the minimum that one
    # search over every target proves, on bases whose values share a gcd
    # g > 1 past their least one, over both candidate ranges
    rng = random.Random(41)
    instances = [CoverInstance(3, enumerate_pattern(PatternSet.uniform(3, (0, 2))))]
    # a least value a_min not divisible by g puts b in another class than b + a_min
    instances += [CoverInstance.signed(3, BlockCode(3, vals)) for vals in ((1, 9, 13, 15), (1, 6, 21), (2, 17, 22))]
    for i in range(23):
        signed = i % 2 == 0
        g = rng.choice((2, 3, 4, 5))
        # the nonnegative range covers 0 only with 0 in the base
        a_min = rng.randrange(3) if signed else 0
        vals = {a_min, *(a_min + g * rng.randint(1, (26 - a_min) // g) for _ in range(rng.randint(2, 5)))}
        base = BlockCode.from_iterable(3, vals)
        instances.append(CoverInstance.signed(3, base) if signed else CoverInstance(3, base))
    searched = 0
    for inst in instances:
        values = inst.base_set.values
        assert math.gcd(*(a - values[0] for a in values)) > 1
        cert = exact_min_complement(inst, SolverBudget(max_nodes=None, max_seconds=None))
        unsplit, optimal, _, _ = oracle_exact_search(inst, None, split=False)
        assert (cert.optimal, cert.size) == (optimal, len(unsplit)) == ("proven-optimal", cert.size), inst
        searched += cert.stats.nodes > 1
    assert searched >= 3


def test_local_search_matches_the_fresh_sum_oracle():
    # the cover counts, owner sums and unique weights kept from step to step
    # must pick the drops and adds that scores summed afresh at every step
    # pick: the same covers and step counts, per residue class, from the
    # greedy cover, with and without a floor to stop at
    rng = random.Random(44)
    instances = [
        CoverInstance(4, enumerate_pattern(zero_one_pattern(4))),
        CoverInstance.signed(4, enumerate_pattern(zero_one_pattern(4))),
        CoverInstance(4, enumerate_pattern(PatternSet.uniform(4, (0, 2)))),
        CoverInstance(5, enumerate_pattern(zero_one_pattern(5))),
        # custom ranges, where rows lose candidates at both ends
        CoverInstance(4, enumerate_pattern(zero_one_pattern(4)), lo=-7, hi=60),
        CoverInstance(4, enumerate_pattern(PatternSet.uniform(4, (0, 2))), lo=-20, hi=60),
    ]
    for _ in range(8):
        k = rng.randint(2, 3)
        vals = rng.sample(range(3**k), rng.randint(2, 2 * k))
        if rng.random() < 0.5:
            instances.append(CoverInstance.signed(k, BlockCode.from_iterable(k, vals)))
        else:
            instances.append(CoverInstance(k, BlockCode.from_iterable(k, {0, *vals})))
    improved = 0
    for inst in instances:
        values = inst.base_set.values
        g = math.gcd(*(a - values[0] for a in values)) or 1
        table = solver._translate_table(inst)
        start = greedy_complement(inst).solution.values
        for r in range(g):
            targets = range(r, inst.target_size, g)
            part = [b for b in start if (b + values[0]) % g == r]
            for seed, floor in ((0, 0), (1, len(part) - 1)):
                cover = list(part)
                steps = solver._local_search(targets, table, cover, 150, floor, seed)
                assert (cover, steps) == oracle_local_search(
                    targets, table.rows, part, 150, floor, seed
                ), (inst, r, seed)
                improved += len(cover) < len(part)
    assert improved >= 4


def test_local_search_over_a_set_of_targets_matches_the_fresh_sum_oracle():
    # over a random set of targets, not a union of residue classes, only
    # the set's targets count: a target off the set that a drop leaves
    # uncovered is not covered again, and weighs nothing in a member's score
    rng = random.Random(45)
    differed = 0
    for _ in range(30):
        k = rng.randint(2, 3)
        vals = rng.sample(range(3**k), rng.randint(2, 2 * k))
        if rng.random() < 0.5:
            inst = CoverInstance.signed(k, BlockCode.from_iterable(k, vals))
        else:
            inst = CoverInstance(k, BlockCode.from_iterable(k, {0, *vals}))
        table = solver._translate_table(inst)
        targets = sorted(rng.sample(range(3**k), rng.randint(3 * k, 3**k)))
        start = sorted({b for v in targets for b in table.rows[v][:2]})
        for seed in (0, 1):
            cover = list(start)
            steps = solver._local_search(targets, table, cover, 60, 0, seed)
            assert (cover, steps) == oracle_local_search(targets, table.rows, start, 60, 0, seed), (inst, targets)
            differed += cover != start
    assert differed >= 10


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
            rep = mass_ratio(params, bits, range(3, 11))
            for e in rep.entries:
                expect = brute_force_meeting_count(u, bits, e.f, u[len(bits) - 1])
                assert e.meeting_intervals == expect


def test_mass_ratio_verdict_matches_the_float_oracle():
    # the bound holds iff a ball meets at most 4 intervals, and a ball meets
    # 1 or 2; against the float verdict over log-form alphas (two with large
    # denominators) and rational D, levels 2..20, which also puts counts 4
    # and 8 on either side of the bound
    forms = [DensityParams.from_alpha(a) for a in ("0.631", "0.64", "0.7", "0.75", "0.8", "0.9", "0.95")]
    forms += [DensityParams.from_alpha(1 - Fraction(p, q)) for p, q in ((123456789, 987654321), (10**12 + 39, 3 * 10**12))]
    forms += [DensityParams.from_density(Fraction(d)) for d in ("1/2", "2/3", "3/7", "5/8", "99/100")]
    rng = random.Random(31)
    entries = 0
    for params in forms:
        u = complement_enum(params, 20).elements
        for _ in range(12):
            rep = mass_ratio(params, [rng.randint(0, 1) for _ in range(20)], range(2, 21))
            assert 1 <= rep.max_meeting <= 2 and rep.all_within
            for e in rep.entries:
                assert e.meeting_intervals in (1, 2)
                assert e.within_bound == oracle_within_bound(params, e.f, e.meeting_intervals, u[e.f - 1])
                assert oracle_within_bound(params, e.f, 4, u[e.f - 1])
                assert not oracle_within_bound(params, e.f, 8, u[e.f - 1])
                entries += 1
    assert entries == 14 * 12 * 19
