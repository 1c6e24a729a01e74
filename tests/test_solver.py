import collections
import gc
import hashlib
import inspect
import math
import random
import sys

import numpy as np
import pytest

from _oracles import brute_force_uncovered, oracle_digit_split_floor, oracle_packing_counts, oracle_witness
from complement_forge import fractal, solver
from complement_forge.catalog import PAPER_BLOCKS
from complement_forge.density import DensityParams
from complement_forge.fractal import build_density_spec
from complement_forge.solver import (
    DUAL_SCALE,
    KNOWN_MIN_SIZES,
    CoverCertificate,
    CoverInstance,
    CoverVerificationError,
    SolverBudget,
    exact_min_complement,
    gate_dual_weights,
    gated_dual_weights,
    greedy_complement,
    greedy_size_bound,
    product_probe,
    uncovered_values,
    verify_complement,
)
from complement_forge.ternary import (
    BlockCode,
    PatternSet,
    concat_codes,
    enumerate_pattern,
    zero_one_base,
    zero_one_pattern,
)


def c_instance(k, signed=False):
    base = enumerate_pattern(zero_one_pattern(k))
    return CoverInstance.signed(k, base) if signed else CoverInstance(k, base)


def test_verify_paper_sets():
    for k, values in PAPER_BLOCKS.items():
        cert = verify_complement(c_instance(k), BlockCode(k, values))
        assert cert.verify()
        assert cert.size == len(values)


#: A k=6 cover of 23 values, found by a row-weighting local search; the
#: smallest known at k=6 (B3 x B3 has 25).
K6_COVER_23 = (0, 2, 7, 14, 21, 55, 62, 69, 76, 164, 198, 205, 212, 219, 226, 326, 334, 341, 355, 386, 393, 400, 591)


def _reflect(k, values):
    r = (3**k - 1) // 2
    return BlockCode.from_iterable(k, (r - b for b in values))


def test_reflection_maps_signed_covers_to_signed_covers():
    # the {0,1} base is fixed by a -> R - a with R = (3^k - 1)/2, so
    # base + (R - code) = 2R - (base + code): b -> R - b takes a signed-range
    # cover to one, and takes what a non-cover misses through v -> 3^k - 1 - v
    codes = [(k, values) for k, values in PAPER_BLOCKS.items()] + [(6, K6_COVER_23)]
    codes += [(k, exact_min_complement(c_instance(k)).solution.values) for k in range(1, 5)]
    codes += [(k, exact_min_complement(c_instance(k, signed=True)).solution.values) for k in range(1, 4)]
    for k, values in codes:
        inst = c_instance(k, signed=True)
        reflected = _reflect(k, values)
        assert verify_complement(inst, reflected).size == len(values), (k, values)
        assert _reflect(k, reflected.values).values == tuple(sorted(values))
    rng = random.Random(24)
    misses = 0
    for k, values in codes + codes:
        # drop members and add translates from [-R, 3^k), where every
        # translate meets the target and so reflects into the signed range
        kept = rng.sample(values, rng.randint(1, len(values) - 1))
        kept += rng.sample(range(-(3**k - 1) // 2, 3**k), rng.randint(0, 2))
        code = BlockCode.from_iterable(k, kept)
        inst = c_instance(k, signed=True)
        missed = uncovered_values(inst, code)
        misses += bool(missed)
        assert uncovered_values(inst, _reflect(k, code.values)) == sorted(3**k - 1 - v for v in missed), (k, kept)
    assert misses > len(codes)


def test_instance_refuses_negative_base_values():
    with pytest.raises(ValueError, match="negative"):
        CoverInstance(2, BlockCode.from_iterable(2, [-1, 0, 1]))
    with pytest.raises(ValueError, match="negative"):
        CoverInstance.signed(2, BlockCode.from_iterable(2, [-4]))


def test_instance_keeps_an_upper_bound_of_minus_one():
    # hi=-1 is a range like any other, not "no bound given": translates in
    # [-8, -1) cannot reach target 8
    inst = CoverInstance(2, zero_one_base(2), lo=-8, hi=-1)
    assert (inst.lo, inst.hi) == (-8, -1)
    with pytest.raises(solver.InfeasibleCoverError):
        greedy_complement(inst)
    assert CoverInstance(2, zero_one_base(2), lo=-8).hi == 9


def test_verify_failure_lists_uncovered():
    inst = CoverInstance(1, BlockCode.from_iterable(1, [0, 1]))
    with pytest.raises(CoverVerificationError) as ei:
        verify_complement(inst, BlockCode.from_iterable(1, [0]))
    assert ei.value.uncovered == [2]


def test_verify_against_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(1, 3)
        inst = c_instance(k)
        code = BlockCode.from_iterable(k, rng.sample(range(3**k), rng.randint(1, 3**k)))
        assert uncovered_values(inst, code) == brute_force_uncovered(k, inst.base_set.values, code.values)


def test_cover_check_shifts_either_side():
    # the larger of base and code is the shifted bitset: codes smaller and
    # larger than the base, negative code values (signed ranges), bases that
    # are not digit products, and the empty code
    rng = random.Random(25)
    cases = []
    for k in range(1, 6):
        size = 3**k
        bases = [zero_one_base(k).values, (0,), tuple(range(size))]
        bases += [tuple(sorted(rng.sample(range(size), rng.randint(2, min(size, 12))))) for _ in range(3)]
        for base in bases:
            for lo in (0, -size + 1):
                for n in (0, 1, len(base) - 1, len(base), len(base) + 1, rng.randint(1, size)):
                    code = rng.sample(range(lo, size), min(n, size - lo))
                    cases.append((k, base, lo, code))
    larger = negative = 0
    for k, base, lo, code in cases:
        base_set = BlockCode.from_iterable(k, base)
        inst = CoverInstance(k, base_set, lo=lo)
        code = BlockCode.from_iterable(k, code)
        larger += len(code) > len(base_set)
        negative += bool(code.values) and code.values[0] < 0
        assert uncovered_values(inst, code) == brute_force_uncovered(k, base, code.values), (k, base, code)
    assert larger > 50 and negative > 50
    for k in (1, 3):
        assert uncovered_values(c_instance(k), BlockCode(k, ())) == list(range(3**k))


_DIGIT_SETS = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def _digit_product(places):
    """The base whose 3^i place takes the digits places[i]."""
    return enumerate_pattern(PatternSet(len(places), tuple(frozenset(d) for d in places)))


def test_digit_places_decomposes_digit_products_and_refuses_the_rest():
    assert solver._digit_places(zero_one_base(3)) == ((9, (0, 1)), (3, (0, 1)), (1, (0, 1)))
    assert solver._digit_places(_digit_product([(1, 2), (0,), (2,)])) == ((9, (2,)), (1, (1, 2)))
    assert solver._digit_places(BlockCode(2, (8,))) == ((3, (2,)), (1, (2,)))
    assert solver._digit_places(BlockCode(2, (0,))) == ()
    # every place's digits {0, 1}, but not all four of their sums
    for values in ((0, 1, 3), (0, 4), (1, 3), (0, 1, 2, 3, 4, 5, 6, 7)):
        assert solver._digit_places(BlockCode(2, values)) is None


def test_cover_check_by_digit_places_matches_the_sumset(monkeypatch):
    # every per-place digit set at k <= 3, a sample at k = 4 with the sets
    # {1,2}, {0,2} and {2} in every place, and bases that are no digit
    # product; codes of one value, of sizes either side of the switch
    # between the routes, and signed ones
    rng = random.Random(35)
    products = [[d] for d in _DIGIT_SETS]
    products += [[a, b] for a in _DIGIT_SETS for b in _DIGIT_SETS]
    products += [[a, b, c] for a in _DIGIT_SETS for b in _DIGIT_SETS for c in _DIGIT_SETS]
    products += [[d] * 4 for d in _DIGIT_SETS]
    products += [[rng.choice(_DIGIT_SETS) for _ in range(4)] for _ in range(60)]
    bases = [_digit_product(places) for places in products]
    for k in range(2, 5):
        for _ in range(15):
            size = rng.randint(2, min(3**k, 12))
            bases.append(BlockCode.from_iterable(k, rng.sample(range(3**k), size)))
    shifts = [0]
    real_shifted = solver._shifted

    def counting(mask, b):
        shifts[0] += 1
        return real_shifted(mask, b)

    monkeypatch.setattr(solver, "_shifted", counting)
    routes = collections.Counter()
    for base in bases:
        k, size = base.k, 3**base.k
        places = solver._digit_places(base)
        passes = None if places is None else sum(len(d) - (d[0] == 0) for _, d in places)
        for lo in (0, -size + 1):
            inst = CoverInstance(k, base, lo=lo)
            sizes = {1, rng.randint(1, size - lo)}
            if passes is not None:
                sizes |= {n for n in (passes - 1, passes, passes + 1) if 1 <= n <= size - lo}
            for n in sorted(sizes):
                code = BlockCode.from_iterable(k, rng.sample(range(lo, size), n))
                shifts[0] = 0
                got = uncovered_values(inst, code)
                sums = {a + b for a in base.values for b in code.values}
                assert got == sorted(set(range(size)) - sums), (base, code)
                # the digit route shifts no bitset by a value, the other route once per value
                small = min(len(base), len(code))
                by_digits = passes is not None and passes < small
                assert shifts[0] == (0 if by_digits else small), (base, code)
                routes[by_digits, code.values[0] < 0] += 1
    assert min(routes.values()) > 100, routes


def test_verify_mutation_of_b3():
    values = PAPER_BLOCKS[3]
    inst = c_instance(3)
    for drop in values:
        reduced = BlockCode.from_iterable(3, [v for v in values if v != drop])
        with pytest.raises(CoverVerificationError):
            verify_complement(inst, reduced)


def test_witness_table():
    cert = verify_complement(c_instance(3), BlockCode(3, PAPER_BLOCKS[3]))
    for v in range(27):
        a, b = cert.witness(v)
        assert a + b == v
        assert a in cert.instance.base_set.values
        assert b in cert.solution.values
    # canonical choice: smallest a, then smallest b (the published example 020)
    assert cert.witness(6) == (4, 2)


def test_witness_matches_the_base_order_scan():
    # every target at k = 1..6 for paper (B3 x B3 at k = 6) and greedy codes,
    # over the nonneg range and, reflected to hold negative values, over the
    # signed one; a code with members dropped leaves targets uncovered
    certs = []
    for k in range(1, 7):
        paper = PAPER_BLOCKS[k] if k in PAPER_BLOCKS else concat_codes(*[BlockCode(3, PAPER_BLOCKS[3])] * 2).values
        for values in (paper, greedy_complement(c_instance(k)).solution.values):
            certs.append(verify_complement(c_instance(k), BlockCode(k, values)))
            certs.append(verify_complement(c_instance(k, signed=True), _reflect(k, values)))
            thinned = BlockCode(k, values[::2])
            certs.append(CoverCertificate(c_instance(k), thinned, "external"))
    assert sum(c.solution.values[0] < 0 for c in certs) >= 5
    uncovered = 0
    for cert in certs:
        for v in range(-2, cert.instance.target_size + 2):
            try:
                want = oracle_witness(cert, v)
            except KeyError:
                uncovered += 0 <= v < cert.instance.target_size
                with pytest.raises(KeyError):
                    cert.witness(v)
            else:
                assert cert.witness(v) == want, (cert.instance.k, cert.solution.values, v)
    assert uncovered > 100


def test_witness_matches_the_base_order_scan_on_the_density_stages():
    # sampled targets, both ends included, of the alpha=0.8 quadratic spec's
    # six stages, whose bases are thinned {0,1} patterns up to 11 digits
    rng = random.Random(31)
    for stage in build_density_spec(DensityParams.from_alpha("0.8"), 6).stages:
        cert, size = stage.certificate, stage.certificate.instance.target_size
        for v in [0, size - 1, *rng.sample(range(size), min(size, 400))]:
            assert cert.witness(v) == oracle_witness(cert, v)
        for v in (-1, size):
            with pytest.raises(KeyError):
                cert.witness(v)


def test_greedy_examples():
    g1 = greedy_complement(c_instance(1))
    assert g1.size == 2
    full = CoverInstance(2, BlockCode.from_iterable(2, range(9)))
    assert greedy_complement(full).solution.values == (0,)
    g4 = greedy_complement(c_instance(4))
    assert g4.size <= greedy_size_bound(4)
    assert g4.size >= 9  # can't beat the exact minimum


def test_greedy_deterministic():
    a = greedy_complement(c_instance(5)).solution
    b = greedy_complement(c_instance(5)).solution
    assert a == b


def test_greedy_signed_range():
    cert = greedy_complement(c_instance(3, signed=True))
    assert cert.verify()
    assert all(-27 < v < 27 for v in cert.solution.values)


def test_greedy_marginals_hold_wide_bases():
    # a marginal can reach |base|, so a base of 2^15 values or more needs
    # int32 marginals: int16 ones wrap at k=10, and both bases below then
    # take (0, 26282) on the nonnegative range
    k = 10
    for free, cover in ((10, (0,)), (9, (0, 3**9))):
        pattern = PatternSet(k, tuple(frozenset((0, 1, 2) if j < free else (0, 1)) for j in range(k)))
        base = enumerate_pattern(pattern)
        assert len(base) == 2 * 3**9 if free == 9 else 3**10
        for inst in (CoverInstance(k, base), CoverInstance.signed(k, base)):
            assert greedy_complement(inst).solution.values == cover, (free, inst.lo)


def _values_digest(code):
    return hashlib.sha256(",".join(map(str, code.values)).encode()).hexdigest()


def test_greedy_codes_are_pinned(monkeypatch):
    # any change in the selection or its tie-break moves these digests; the
    # count of steps retired by digit places shows which decrement path ran
    digit_steps = []
    retire_by_digits = solver._retire_by_digits

    def counting(*args):
        digit_steps[-1] += 1
        retire_by_digits(*args)

    monkeypatch.setattr(solver, "_retire_by_digits", counting)

    def greedy(inst):
        digit_steps.append(0)
        return greedy_complement(inst).solution

    for k, signed, size, digest in (
        (9, True, 139, "e3315b7f9ee04b87611c191c21dc095f8889c1b008058d1a882678e7604319dd"),
        (10, False, 248, "b219b623f3ec60e0825992a20c4b04e1bf508b0c30d9fc491844df47e7909f90"),
        (11, False, 414, "cef7dcaad497d7ca7dec3eece5f64399610f4c3f1914bbf35597bcdd6911cf69"),
    ):
        g = greedy(c_instance(k, signed))
        assert (len(g), _values_digest(g)) == (size, digest)
        assert 0 < digit_steps[-1] < size  # both paths ran
    stage6 = build_density_spec(DensityParams.from_alpha("0.8"), 6).stages[5]
    g6 = greedy(stage6.certificate.instance)
    assert len(g6) == 24_696
    assert _values_digest(g6) == "90d344ea59f3c4862cb0fea7f47fe7b157a8d4848547d4d7957c96c6b084e7ab"
    assert digit_steps[-1] == 0  # eight values over 3^11: the scatter always wins


def test_greedy_takes_a_run_of_picks_a_round(monkeypatch):
    # translates less than the base's least gap apart cover disjoint
    # targets, so a round takes every one of them still at the top marginal:
    # nine picks a round at stage 6 (least gap 9), three at stage 4 (gap 3);
    # one pick a round made 24,696 and 588 scans there; stage 1's base {0}
    # takes its translates in one round
    rounds = []
    next_at_level, greedy = solver._next_at_level, fractal.greedy_complement

    def counting(*args):
        rounds[-1] += 1
        return next_at_level(*args)

    def counted_greedy(inst):
        rounds.append(0)
        return greedy(inst)

    monkeypatch.setattr(solver, "_next_at_level", counting)
    monkeypatch.setattr(fractal, "greedy_complement", counted_greedy)
    spec = build_density_spec(DensityParams.from_alpha("0.8"), 6)
    assert rounds == [1, 5, 70, 196, 2_896, 2_744]
    assert [len(stage.certificate.solution) for stage in spec.stages][3:] == [588, 2_896, 24_696]
    g6 = spec.stages[5].certificate.solution
    assert _values_digest(g6) == "90d344ea59f3c4862cb0fea7f47fe7b157a8d4848547d4d7957c96c6b084e7ab"


def test_next_at_level_finds_the_first_entry_still_at_level():
    # the scan reads entries pos to pos + 7 one at a time, then windows
    # [pos + 2^j, pos + 2^(j+1)): hits on both edges of every window, at the
    # last entry and nowhere, with entries before pos at the level too and
    # every entry after the hit at it
    level, pos, n = 7, 5, 100
    at_level = np.arange(3, 3 + 2 * n, 2)
    offsets = [0, 1] + [d for j in range(1, 7) for d in (2**j - 1, 2**j)] + [n - 1 - pos, None]
    for offset in offsets:
        marginals = np.full(3 + 2 * n, level - 1)
        marginals[at_level[:pos]] = level
        if offset is not None:
            marginals[at_level[pos + offset :]] = level
        want = n if offset is None else pos + offset
        assert solver._next_at_level(marginals, at_level, pos, level) == want, offset
    assert solver._next_at_level(marginals, at_level, n, level) == n
    assert solver._next_at_level(marginals, at_level[:0], 0, level) == 0
    rng = random.Random(41)
    for _ in range(200):
        marginals = np.array([rng.choice((level, level - 1, level - 2)) for _ in range(60)])
        at_level = np.array(sorted(rng.sample(range(60), rng.randint(0, 60))), dtype=np.intp)
        pos = rng.randint(0, len(at_level))
        want = pos
        while want < len(at_level) and marginals[at_level[want]] != level:
            want += 1
        assert solver._next_at_level(marginals, at_level, pos, level) == want


def test_exact_small_k():
    for k, expect in ((1, 2), (2, 3), (3, 5)):
        cert = exact_min_complement(c_instance(k))
        assert cert.size == expect
        assert cert.optimal == "proven-optimal"
        assert cert.verify()


def _coverages(inst):
    """The bitset of targets each translate in range covers, by shifting."""
    full = (1 << inst.target_size) - 1
    mask = sum(1 << a for a in inst.base_set.values)
    return [(mask << b if b >= 0 else mask >> -b) & full for b in range(inst.lo, inst.hi)]


def _counting_bound(inst):
    """ceil(3^k / |base_set|): every translate covers at most |base_set| targets."""
    return -(-inst.target_size // len(inst.base_set))


def _root_dual_bound(weights):
    return -(-sum(weights) // DUAL_SCALE)


def _weights(inst):
    return gated_dual_weights(inst, solver._translate_table(inst))


def test_root_bounds():
    # the counting bound and the dual bound of the gated weights over all of
    # [0, 3^k), and a search whose greedy cover meets them ends at its root
    full = CoverInstance(2, BlockCode.from_iterable(2, range(9)))
    for inst, counting, dual in ((c_instance(3), 4, 5), (c_instance(5), 8, 12), (full, 1, 1)):
        assert (_counting_bound(inst), _root_dual_bound(_weights(inst))) == (counting, dual)
    cert = exact_min_complement(full, SolverBudget(max_nodes=None, max_seconds=None))
    assert (cert.size, cert.optimal, cert.stats.nodes) == (1, "proven-optimal", 1)


def test_exact_leq_greedy_and_bounds():
    rng = random.Random(6)
    for _ in range(20):
        k = rng.randint(1, 3)
        base = BlockCode.from_iterable(k, rng.sample(range(3**k), rng.randint(1, 3**k)))
        if 0 not in base.values:
            base = BlockCode.from_iterable(k, (0, *base.values))
        inst = CoverInstance(k, base)
        g = greedy_complement(inst)
        e = exact_min_complement(inst)
        assert e.size <= g.size
        assert e.size >= _counting_bound(inst)
        assert e.size >= _root_dual_bound(_weights(inst))
        assert e.verify() and g.verify()


def _pattern_instance(k, overrides):
    """The {0,1} pattern at block length k with the digits of some places
    (3^j: digits) overridden, over the translates [0, 3^k)."""
    pattern = PatternSet(k, tuple(frozenset(overrides.get(j, (0, 1))) for j in range(k)))
    return CoverInstance(k, enumerate_pattern(pattern))


def test_exact_node_counts_are_pinned():
    # the counting and dual bounds are deterministic, so node counts are
    # too; a tighter bound moves the counts but never the size of the cover
    # a completed search returns.  Each row ends with the local search's
    # steps and the translates it took off the incumbent.
    for inst, nodes, cover, local in (
        (c_instance(4), 95, (0, 2, 7, 18, 23, 25, 34, 39, 41), (0, 0)),
        # stalls after its minimum, so its local search finds nothing
        # smaller and stops after one step per target, 81
        (c_instance(4, signed=True), 5301, (0, 2, 7, 18, 23, 25, 34, 39, 41), (81, 0)),
        # holds 15 from node 16; at node 16 + _STALL the local search finds
        # 14, the digit-split floor from m_4 = 9, at step 171, which ends
        # the search
        (c_instance(5), 4112, (0, 2, 7, 14, 21, 52, 59, 66, 73, 107, 114, 126, 128, 202), (171, 1)),
        # holds 15 when it stalls, and its local search finds nothing
        # smaller in one step per target, 243; the branch and bound reaches
        # 14 at node 4,165, where the floor 14 from the signed m_4 = 9 ends it
        (c_instance(5, signed=True), 4165, (-7, 0, 7, 14, 21, 55, 62, 69, 76, 99, 107, 114, 121, 128), (243, 0)),
        (_pattern_instance(5, {0: (0, 1, 2)}), 739, (0, 6, 21, 54, 69, 75, 102, 117, 123), (0, 0)),
        (
            _pattern_instance(5, {2: (0,)}),
            1802,
            (0, 2, 7, 9, 14, 16, 21, 23, 55, 57, 62, 64, 69, 71, 76, 78, 110, 112, 117, 119, 124, 126, 131, 132),
            (0, 0),
        ),
        (
            _pattern_instance(5, {j: (0, 2) for j in range(5)}),
            175,  # the two parity classes searched apart
            (0, 1, 4, 5, 14, 15, 28, 29, 42, 43, 64, 65, 72, 73, 76, 77, 86, 87),
            (0, 0),
        ),
    ):
        # signed k=5 runs past 300,000 nodes without its floor: a cap ends
        # such a search with a failure instead of a hang
        cert = exact_min_complement(inst, SolverBudget(max_nodes=100_000, max_seconds=None))
        assert (cert.optimal, cert.stats.nodes, cert.solution.values) == ("proven-optimal", nodes, cover)
        assert (cert.stats.local_steps, cert.stats.local_gain) == local


def _search_inputs(inst):
    """The translate table, candidate rows and dual weights the exact search
    hands :func:`solver._search_cover`."""
    table = solver._translate_table(inst)
    entry = {b: (b, c, 1 << (b - inst.lo)) for b, c in table.coverage.items()}
    return table, [tuple(entry[b] for b in row) for row in table.rows], gated_dual_weights(inst, table)


def _fewest_translates(coverages, uncovered):
    """The fewest coverage bitsets whose union holds ``uncovered``, by trying
    every translate on the least uncovered target, one depth at a time."""

    def fits(rest, depth):
        low = rest & -rest
        return not rest or depth > 0 and any(fits(rest & ~c, depth - 1) for c in coverages if c & low)

    return next(depth for depth in range(len(coverages) + 1) if fits(uncovered, depth))


@pytest.mark.parametrize("stall", [solver._STALL, 1])
def test_search_cover_finds_the_minimum_of_any_target_set(monkeypatch, stall):
    # a random set U of targets, not a residue class: from one translate per
    # target of U the search returns a cover of U of the fewest translates;
    # with _STALL = 1 its local search runs over U at the first node
    monkeypatch.setattr(solver, "_STALL", stall)
    rng = random.Random(42)
    searched = local = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        vals = rng.sample(range(3**k), rng.randint(1, 2 * k))
        if rng.random() < 0.5:
            inst = CoverInstance.signed(k, BlockCode.from_iterable(k, vals))
        else:
            inst = CoverInstance(k, BlockCode.from_iterable(k, {0, *vals}))
        table, cands_of, weights = _search_inputs(inst)
        targets = rng.sample(range(3**k), rng.randint(1, min(3**k, 12)))
        uncovered = sum(1 << v for v in targets)
        best = sorted({table.rows[v][0] for v in targets})
        stats = solver.SolveStats()
        solver._search_cover(table, cands_of, weights, uncovered, best, stats, None, None, 0)
        assert best == sorted(best) and len(set(best)) == len(best)
        assert set(targets) <= {a + b for a in inst.base_set.values for b in best}, (inst, targets, best)
        assert len(best) == _fewest_translates(list(table.coverage.values()), uncovered), (inst, targets)
        searched += stats.nodes > 0
        local += stats.local_steps
    assert searched >= 10 and (local > 0) == (stall == 1)


def test_search_cover_over_each_class_is_the_exact_search():
    # the exact search is a root node and one search per residue class,
    # each from the greedy cover's share of that class, and from the
    # digit-split floor on a {0,1} base (which is one class)
    for inst in (
        c_instance(4),
        c_instance(4, signed=True),
        c_instance(5),
        _pattern_instance(5, {j: (0, 2) for j in range(5)}),
    ):
        table, cands_of, weights = _search_inputs(inst)
        values = inst.base_set.values
        g = math.gcd(*(a - values[0] for a in values)) or 1
        floor = solver._digit_split_floor(inst, solver.SolveStats(), None)
        assert (g, floor) == (2, 0) if g > 1 else floor > 0
        stats = solver.SolveStats(nodes=1)
        cover = []
        for r in range(g):
            part = [b for b in greedy_complement(inst).solution.values if (b + values[0]) % g == r]
            uncovered = sum(1 << v for v in range(r, inst.target_size, g))
            solver._search_cover(table, cands_of, weights, uncovered, part, stats, None, None, floor)
            cover += part
        cert = exact_min_complement(inst, SolverBudget(max_nodes=None, max_seconds=None))
        assert (tuple(sorted(cover)), stats.nodes) == (cert.solution.values, cert.stats.nodes)
        assert (stats.local_steps, stats.local_gain) == (cert.stats.local_steps, cert.stats.local_gain)


def test_the_stall_search_stops_at_the_class_root_bound(monkeypatch):
    # at k=3 the root bound is 5, the minimum: with _STALL = 1 the local
    # search runs at node 2 from the greedy's 6 and stops once it has a 5
    monkeypatch.setattr(solver, "_STALL", 1)
    cert = exact_min_complement(c_instance(3), SolverBudget(max_nodes=None, max_seconds=None))
    assert (cert.optimal, cert.size, cert.stats.nodes) == ("proven-optimal", 5, 2)
    assert (cert.stats.local_steps, cert.stats.local_gain) == (13, 1)


def test_the_stall_search_patience_reaches_24_at_k6():
    # a 20,000-node {0,1} k=6 search holds the greedy's 26 until its local
    # search, which needs more than 256 steps between its two smaller
    # covers; one step of patience per target (729) reaches 24
    cert = exact_min_complement(c_instance(6), SolverBudget(max_nodes=20_000, max_seconds=None))
    assert (cert.optimal, cert.size, cert.stats.local_gain) == ("unknown", 24, 2)
    verify_complement(cert.instance, cert.solution)


def test_a_completion_no_smaller_than_the_local_search_cover_is_not_recorded(monkeypatch):
    # with _STALL = 9 the k=4 search runs its local search at node 10, the
    # child that completes its first 9-cover; a 9-cover the local search
    # has just put in place stays, since that completion is no smaller
    paper = PAPER_BLOCKS[4]

    def install(targets, table, cover, patience, floor, seed, deadline=None):
        cover[:] = paper
        return 0

    own = exact_min_complement(c_instance(4)).solution.values
    assert own != paper and len(own) == len(paper)
    monkeypatch.setattr(solver, "_STALL", 9)
    monkeypatch.setattr(solver, "_local_search", install)
    cert = exact_min_complement(c_instance(4), SolverBudget(max_nodes=None, max_seconds=None))
    assert (cert.optimal, cert.stats.nodes, cert.solution.values) == ("proven-optimal", 95, paper)
    assert cert.stats.local_gain == 1  # from the greedy's 10


def _local(inst, cover, patience, floor, seed=solver._LOCAL_SEED):
    """_local_search over every target of ``inst``: (the cover, steps)."""
    cover = list(cover)
    taken = solver._local_search(range(inst.target_size), solver._translate_table(inst), cover, patience, floor, seed)
    return cover, taken


def test_local_search_returns_a_smaller_verified_cover():
    # each run keeps a cover no larger than its start, sorted and verified,
    # and two runs with one seed agree; out of reach of floor 0, a run takes
    # its patience in steps at least, and one patience more per smaller
    # cover at most
    cases = [(c_instance(4), 9), (c_instance(4, signed=True), 9), (c_instance(5), 14)]
    cases.append((_pattern_instance(5, {0: (0, 1, 2)}), 9))
    for inst, minimum in cases:
        start = greedy_complement(inst).solution.values
        for seed in (0, 1, 2):
            cover, steps = _local(inst, start, 400, 0, seed)
            assert (cover, steps) == _local(inst, start, 400, 0, seed)
            assert 400 <= steps <= (len(start) - len(cover) + 1) * 400
            assert minimum <= len(cover) <= len(start) and cover == sorted(cover)
            verify_complement(inst, BlockCode(inst.k, tuple(cover)))
    # the exact search's seed and patience (one step per target) take the
    # k=5 greedy cover to the minimum
    start = greedy_complement(c_instance(5)).solution.values
    cover, steps = _local(c_instance(5), start, 243, 12)
    assert (len(start), len(cover), steps) == (18, 14, 397)
    # at k=6, one step per target from the greedy's 31: (steps, size) by seed
    start = greedy_complement(c_instance(6)).solution.values
    runs = [_local(c_instance(6), start, 729, 0, seed) for seed in range(4)]
    assert len(start) == 31
    assert [(steps, len(cover)) for cover, steps in runs] == [(1582, 24), (1922, 24), (834, 26), (1654, 24)]


def test_local_search_stops_patience_steps_after_its_last_smaller_cover(monkeypatch):
    # every step draws one uncovered target, so the draws made by the time
    # a smaller cover is recorded number its step; a run that cannot reach
    # its floor stops exactly ``patience`` steps after the last of them
    draws, recorded = [], []

    class Counting(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    class Recording(list):
        def __setitem__(self, index, value):
            recorded.append(len(draws))
            super().__setitem__(index, value)

    monkeypatch.setattr(solver.random, "Random", Counting)
    late = 0
    for inst in (c_instance(4), c_instance(4, signed=True), c_instance(5)):
        table = solver._translate_table(inst)
        start = greedy_complement(inst).solution.values
        for patience in (1, 20, 81, 243):
            draws.clear()
            recorded.clear()
            cover = Recording(start)
            steps = solver._local_search(range(inst.target_size), table, cover, patience, 0, 0)
            last = recorded[-1] if recorded else 0
            assert steps == len(draws) == last + patience, (inst, patience)
            late += last > 0
    assert late >= 3


def test_local_search_stops_at_its_floor():
    # covers are recorded one translate smaller at a time, so a floor below
    # the start is met exactly; a floor at the start takes no step
    inst = c_instance(5)
    start = greedy_complement(inst).solution.values
    assert len(start) == 18
    for floor in (17, 16, 15):
        cover, steps = _local(inst, start, 2000, floor)
        assert len(cover) == floor and steps < 2000
        verify_complement(inst, BlockCode(5, tuple(cover)))
    assert _local(inst, start, 2000, 18) == (list(start), 0)


def test_local_search_never_drops_a_forced_translate():
    # a translate alone in some row is in every cover; with only forced
    # members left to drop, the search stops
    single = CoverInstance(2, BlockCode(2, (0,)))
    assert _local(single, range(9), 100, 0) == (list(range(9)), 0)
    # at k=1, 0 alone covers 0: the cover {0, 2} drops 2 when it is
    # recorded, and its first step finds only 0 left
    assert _local(c_instance(1), (0, 2), 100, 0) == ([0, 2], 1)


@pytest.mark.parametrize("signed, nodes", [(False, 241), (True, 15784)])
def test_exact_split_proves_the_scaled_base(signed, nodes):
    # 3 B4, the {0,1} pattern with the 3^0 place forced to 0, covers each
    # residue class mod 3 as B4 covers [0, 3^4), so its minimum is 3 m_4 =
    # 27; one search over all three classes is still open after 3 million
    # nodes, and each class searched apart is a k=4 search
    inst = _pattern_instance(5, {0: (0,)})
    if signed:
        inst = CoverInstance.signed(5, inst.base_set)
    cert = exact_min_complement(inst, SolverBudget(max_nodes=20000, max_seconds=None))
    assert (cert.optimal, cert.size, cert.stats.nodes) == ("proven-optimal", 27, nodes)
    assert brute_force_uncovered(5, inst.base_set.values, cert.solution.values) == []


def test_root_dual_bound_at_k7_is_27():
    # the maximal dual sums to about 26.3 W at k=7, so a cover needs 27
    # translates (the multiplicative weights alone give 25.8 W)
    assert _root_dual_bound(_weights(c_instance(7))) == 27


def test_packing_counts_match_the_sinked_index_oracle():
    # the padded load array sums the same floats in the same order as the
    # per-step index arrays with a sink slot, so the counts agree exactly
    instances = [c_instance(k, signed) for k in range(1, 6) for signed in (False, True)]
    # the patterns of the exact searches the search benchmark pins
    instances += [
        _pattern_instance(5, {2: (0,)}),
        _pattern_instance(5, {j: (0, 2) for j in range(5)}),
        _pattern_instance(5, {0: (0, 1, 2)}),
    ]
    rng = random.Random(40)
    for _ in range(50):
        k = rng.randint(1, 3)
        vals = rng.sample(range(3**k), rng.randint(1, 3**k))
        if rng.random() < 0.5:
            instances.append(CoverInstance.signed(k, BlockCode.from_iterable(k, vals)))
        else:
            instances.append(CoverInstance(k, BlockCode.from_iterable(k, {0, *vals})))
    for inst in instances:
        table = solver._translate_table(inst)
        assert solver._packing_counts(inst, table) == oracle_packing_counts(inst, table.rows)


def test_translate_table_matches_brute_force():
    # b is in rows[v] iff v is in b's targets iff bit v of b's bitset is
    # set, each bitset is (b + base) & [0, 3^k), and rows keep base order,
    # over the nonneg, signed and custom ranges; a range that leaves some
    # target uncovered is refused
    rng = random.Random(45)
    tables = refused = 0
    for i in range(120):
        k = rng.randint(1, 3)
        size = 3**k
        base = BlockCode.from_iterable(k, rng.sample(range(size), rng.randint(1, size)))
        if i % 3 == 0:
            inst = CoverInstance(k, base)
        elif i % 3 == 1:
            inst = CoverInstance.signed(k, base)
        else:
            lo = rng.randrange(-size, size)
            inst = CoverInstance(k, base, lo=lo, hi=rng.randint(lo + 1, size))
        in_range = range(inst.lo, inst.hi)
        rows = [tuple(v - a for a in base.values if v - a in in_range) for v in range(size)]
        if not all(rows):
            with pytest.raises(solver.InfeasibleCoverError):
                solver._translate_table(inst)
            refused += 1
            continue
        table = solver._translate_table(inst)
        assert table.rows == rows
        hits = {b: sorted(b + a for a in base.values if 0 <= b + a < size) for b in in_range}
        assert list(table.coverage) == list(table.targets) == [b for b in in_range if hits[b]]
        for b, vs in table.targets.items():
            assert vs == hits[b] and table.coverage[b] == sum(1 << v for v in vs)
            for v in range(size):
                assert (b in rows[v]) == (v in vs) == bool(table.coverage[b] >> v & 1)
        tables += 1
    assert tables >= 50 and refused >= 10


def test_an_exact_search_builds_at_most_one_translate_table(monkeypatch):
    # the search, its dual weights and its local search read one table, and
    # so does each level of the digit-split chain that its root bounds leave
    # open (k=1 and 2 close at the counting bound); a search the counting
    # bound closes at its root builds none
    calls = []
    build = solver._translate_table

    def counting(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(solver, "_translate_table", counting)
    unbounded = SolverBudget(max_nodes=None, max_seconds=None)
    cert = exact_min_complement(c_instance(4, signed=True), unbounded)
    levels = [c_instance(3, signed=True), c_instance(4, signed=True)]
    assert (cert.stats.nodes, cert.stats.local_steps, calls) == (5301, 81, levels)
    calls.clear()
    cert = exact_min_complement(CoverInstance(7, BlockCode(7, (0, 4))), unbounded)
    assert (cert.optimal, cert.stats.nodes, calls) == ("proven-optimal", 1, [])


def _loads(weights, coverages):
    return [sum(w for v, w in enumerate(weights) if c >> v & 1) for c in coverages]


def test_dual_gate_rescales_overloaded_weights():
    inst = c_instance(4)
    covs = _coverages(inst)
    table = solver._translate_table(inst)
    rows = table.rows
    weights = gated_dual_weights(inst, table)
    assert sum(weights) == 30953  # the same multiplicative-weights run on every machine
    loads = _loads(weights, covs)
    assert max(loads) <= DUAL_SCALE
    # maximal: every target lies on a translate loaded to exactly W
    assert all(any(loads[b - inst.lo] == DUAL_SCALE for b in row) for row in rows)
    assert _root_dual_bound(weights) == 8
    tampered = list(weights)
    tampered[40] += DUAL_SCALE // 2
    heaviest = max(_loads(tampered, covs))
    assert heaviest > DUAL_SCALE
    # the gate sums the loads along the translate table; they must be the
    # loads of the coverage bitsets
    gated = gate_dual_weights(tampered, table)
    assert gated == [w * DUAL_SCALE // heaviest for w in tampered]
    assert max(_loads(gated, covs)) <= DUAL_SCALE
    assert _root_dual_bound(gated) <= KNOWN_MIN_SIZES[4]
    assert gate_dual_weights(weights, table) == weights  # feasible weights pass unchanged


def test_a_cover_below_the_published_minimum_is_logged(monkeypatch, caplog):
    monkeypatch.setitem(KNOWN_MIN_SIZES, 3, 6)
    with caplog.at_level("ERROR", logger="complement_forge.solver"):
        assert exact_min_complement(c_instance(3)).size == 5
    assert len(caplog.records) == 1 and "size-5 cover at k=3, below the published minimum 6" in caplog.text


def test_exact_budget_exhaustion_is_not_an_error():
    cert = exact_min_complement(c_instance(4), SolverBudget(max_nodes=10, max_seconds=None))
    assert cert.stats.budget_exhausted
    assert cert.optimal == "unknown"
    assert cert.verify()  # best-found is still a verified cover


def test_counting_closes_every_class_without_the_weights(monkeypatch):
    # b covers b and b + 4, one residue mod 4, so a class of n targets
    # needs ceil(n / 2) translates: 3 * 274 + 273.  The greedy cover meets
    # that in every class, so the root ends the search before any dual
    # weight is computed
    inst = CoverInstance(7, BlockCode(7, (0, 4)))
    sizes = [len(range(r, inst.target_size, 4)) for r in range(4)]
    assert sizes == [547, 547, 547, 546]
    parity = sum(-(-n // 2) for n in sizes)
    assert parity == 1095

    def refuse(*args):
        raise AssertionError("the dual weights were computed")

    monkeypatch.setattr(solver, "_packing_counts", refuse)
    cert = exact_min_complement(inst, SolverBudget(max_nodes=None, max_seconds=None))
    assert (cert.optimal, cert.size, cert.stats.nodes) == ("proven-optimal", parity, 1)
    assert cert.solution == greedy_complement(inst).solution
    assert brute_force_uncovered(7, (0, 4), cert.solution.values) == []


def test_exact_search_deeper_than_the_stack_completes(monkeypatch):
    # one class (a gcd of 1), a greedy cover of 1,093 translates and a
    # minimum of 731, which the first branch reaches about 730 translates
    # deep; the search runs on its own stack, so only its nodes end it, at
    # any depth of the caller's stack
    inst = CoverInstance(7, BlockCode(7, (0, 4, 5)))
    # the three searches share one run of the weight loop, checked elsewhere
    counts = solver._packing_counts(inst, solver._translate_table(inst))
    monkeypatch.setattr(solver, "_packing_counts", lambda *args: counts)
    budget = SolverBudget(max_nodes=1500, max_seconds=None)
    cert = exact_min_complement(inst, budget)
    assert (cert.optimal, cert.size, cert.stats.nodes) == ("proven-optimal", 731, 734)
    assert brute_force_uncovered(7, (0, 4, 5), cert.solution.values) == []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        shallow = exact_min_complement(inst, budget)
    finally:
        sys.setrecursionlimit(limit)
    assert (shallow.optimal, shallow.solution, shallow.stats.nodes) == (cert.optimal, cert.solution, 734)
    # a cap below the first cover still ends as a budget, with the greedy cover
    capped = exact_min_complement(inst, SolverBudget(max_nodes=700, max_seconds=None))
    assert (capped.optimal, capped.stats.budget_exhausted, capped.stats.nodes) == ("unknown", True, 701)
    assert capped.solution == greedy_complement(inst).solution and capped.size == 1093


def test_exact_time_budget_keeps_the_greedy_cover():
    inst = c_instance(5)
    budget = SolverBudget(max_nodes=None, max_seconds=1e-9)
    cert = exact_min_complement(inst, budget)
    assert cert.stats.budget_exhausted and cert.optimal == "unknown"
    assert cert.solution == greedy_complement(inst).solution and cert.size == 18 and cert.verify()
    # an exit from any depth leaves no reference cycle behind: the search's
    # frames and tables are locals of one call, and go with it
    gc.collect()
    gc.disable()
    try:
        for cap in (budget, SolverBudget(max_nodes=2000, max_seconds=None)):
            for _ in range(2):
                assert exact_min_complement(inst, cap).stats.budget_exhausted
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("late", ["weights", "search", "local"])
def test_exact_clock_ends_the_weight_loop_and_the_search(monkeypatch, late):
    # a clock that stands still until it jumps past the deadline: as the
    # weight loop starts, as it returns, or as the local search starts
    now = [0.0]
    monkeypatch.setattr(solver.time, "perf_counter", lambda: now[0])
    late_call = "_local_search" if late == "local" else "_packing_counts"
    call = getattr(solver, late_call)
    # the {0,1} k=5 search ends where its local search meets the digit-split
    # floor, before the local search reads the clock; without the range's
    # last translate the floor does not apply, and the search is as before
    inst = CoverInstance(5, c_instance(5).base_set, hi=3**5 - 1) if late == "local" else c_instance(5)

    def jump(*args):
        # the chain's searches at the levels below run first, on their own tables
        if len(args[1].rows) < inst.target_size:
            return call(*args)
        if late != "search":
            now[0] = 2.0
        out = call(*args)
        now[0] = 2.0
        return out

    monkeypatch.setattr(solver, late_call, jump)
    cert = exact_min_complement(inst, SolverBudget(max_nodes=None, max_seconds=1.0))
    assert cert.stats.budget_exhausted and cert.optimal == "unknown"
    assert cert.verify()
    # the weight loop and the local search read the clock every 256 steps,
    # the search every 4096 nodes, and each keeps the best cover found
    if late == "weights":
        assert cert.stats.nodes == 0 and cert.solution == greedy_complement(inst).solution
    elif late == "search":
        assert cert.stats.nodes == 4096 and cert.size == 15
    else:
        # the local search runs at node 16 + _STALL and has found 14 by its
        # step 256; a run the clock ends is not counted
        assert (cert.stats.nodes, cert.size) == (4112, 14)
        assert (cert.stats.local_steps, cert.stats.local_gain) == (0, 0)


def _exhaustive_minimum(inst):
    """The least cover of ``inst``, by trying every translate on the least
    uncovered target depth by depth, the coverages summed pair by pair."""
    size = inst.target_size
    coverages = {sum(1 << a + b for a in inst.base_set.values if 0 <= a + b < size) for b in range(inst.lo, inst.hi)}
    return _fewest_translates(sorted(coverages - {0}), (1 << size) - 1)


def test_digit_split_bound_against_exhaustive_minima(monkeypatch):
    # ceil(3 m_(k-1) / 2) <= m_k for k <= 3 on both named ranges, and the
    # chain's floor, proven level by level, is the minimum itself at k = 2
    # and 3, as the oracle's own chain says; at k = 3 the floor closes the
    # search at its root, from a minimum cover, with no translate table
    for signed in (False, True):
        minima = [1] + [_exhaustive_minimum(c_instance(k, signed)) for k in (1, 2, 3)]
        assert minima == [1, 2, 3, 5]
        for k in (1, 2, 3):
            assert solver.digit_split_bound(k, minima[k - 1]) <= minima[k]
        for k in (2, 3):
            floor = solver._digit_split_floor(c_instance(k, signed), solver.SolveStats(), None)
            assert floor == oracle_digit_split_floor(c_instance(k, signed)) == minima[k], (k, signed)
        cert = exact_min_complement(c_instance(3, signed))
        assert (cert.size, cert.optimal, cert.stats.floor) == (5, "proven-optimal", 5)
    monkeypatch.setattr(solver, "_translate_table", lambda *args: pytest.fail("a translate table was built"))
    for signed in (False, True):
        cert = exact_min_complement(c_instance(3, signed), initial=BlockCode(3, PAPER_BLOCKS[3]))
        assert (cert.optimal, cert.stats.nodes, cert.solution.values) == ("proven-optimal", 1, PAPER_BLOCKS[3])


def test_the_chain_spends_none_of_the_node_budget():
    # the levels below search on their own node allowance: a 5,000-node
    # k=6 search still reaches 24 and a 2,000-node k=5 search stops at 15,
    # each at its cap, while the chain's own nodes are counted apart
    for k, cap, size in ((6, 5000, 24), (5, 2000, 15)):
        cert = exact_min_complement(c_instance(k), SolverBudget(max_nodes=cap, max_seconds=None))
        assert (cert.size, cert.optimal, cert.stats.nodes) == (size, "unknown", cap + 1)
        assert cert.stats.chain_nodes > 0 and cert.stats.floor == {5: 14, 6: 21}[k]


def test_exact_deterministic():
    a = exact_min_complement(c_instance(4), SolverBudget(max_nodes=5000, max_seconds=None))
    b = exact_min_complement(c_instance(4), SolverBudget(max_nodes=5000, max_seconds=None))
    assert a.solution == b.solution and a.stats.nodes == b.stats.nodes


def test_exact_accepts_initial_incumbent():
    # a caller can seed the search with a known cover; with a tiny budget the
    # incumbent survives as best-found.  At k=6 the digit-split floor is 21,
    # below the 23-cover
    budget = SolverBudget(max_nodes=2000, max_seconds=None)
    cert = exact_min_complement(c_instance(6), budget, initial=BlockCode(6, K6_COVER_23))
    assert (cert.size, cert.stats.floor) == (23, 21)
    assert cert.optimal == "unknown" and cert.stats.budget_exhausted
    # the paper's 14-cover meets the k=5 floor, so the search ends at its root
    cert = exact_min_complement(c_instance(5), budget, initial=BlockCode(5, PAPER_BLOCKS[5]))
    assert (cert.solution.values, cert.optimal, cert.stats.nodes) == (PAPER_BLOCKS[5], "proven-optimal", 1)


def test_product_probe():
    b1 = BlockCode(1, PAPER_BLOCKS[1])
    b2 = BlockCode(2, PAPER_BLOCKS[2])
    b3 = BlockCode(3, PAPER_BLOCKS[3])
    r22 = product_probe(b2, b2, BlockCode(4, PAPER_BLOCKS[4]), "proven-optimal")
    assert r22.product_size == 9 and r22.covers and r22.verdict == "optimal"
    r23 = product_probe(b2, b3, BlockCode(5, PAPER_BLOCKS[5]))
    assert r23.product_size == 15 and r23.reference_size == 14 and r23.verdict == "suboptimal"
    assert r23.covers
    r11 = product_probe(b1, b1, BlockCode(2, PAPER_BLOCKS[2]), "proven-optimal")
    assert r11.product_size == 4 and r11.verdict == "suboptimal"


def test_greedy_bound_formula():
    assert greedy_size_bound(4) == pytest.approx(2 * 1.5**4 * 4 * math.log(3) + 1)
