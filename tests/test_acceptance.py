"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The exact-search criterion proves the block-length-5 minimum 14
within a fixed 2-million-node budget (it needs under a million nodes, a few
seconds of search), so its outcome is machine-independent; everything
finishes in seconds.
"""

import math
import random
import time
from fractions import Fraction

from _oracles import oracle_a_prefix, oracle_net_measure
from complement_forge.catalog import PAPER_BLOCKS
from complement_forge.density import (
    ENCODING_CONSTANT,
    DensityParams,
    a_prefix_from_rational,
    best_rational,
    box_dim_bound_ca,
    complement_enum,
    description_length,
)
from complement_forge.fractal import (
    build_density_spec,
    build_uniform_spec,
    decompose,
    measure_bound,
    reflect_decompose,
)
from complement_forge.measure import (
    DyadicInterval,
    FrequencyVector,
    box_dim_estimate,
    entropy3,
    mass_ratio,
    net_measure,
    random_marstrand_trial,
)
from complement_forge.solver import (
    CoverInstance,
    CoverVerificationError,
    SolverBudget,
    exact_min_complement,
    greedy_complement,
    greedy_size_bound,
    product_probe,
    verify_complement,
)
from complement_forge.ternary import BlockCode, TernaryRational, enumerate_pattern, zero_one_pattern

DIM_C = math.log(2) / math.log(3)
ALPHAS = ("0.7", "0.75", "0.8", "0.9")


def _criterion(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _instance(k):
    return CoverInstance(k, enumerate_pattern(zero_one_pattern(k)))


def test_criterion_01_exact_minimal_sizes():
    t0 = time.perf_counter()
    sizes = {}
    for k in (1, 2, 3):
        cert = exact_min_complement(_instance(k))
        sizes[k] = (cert.size, cert.optimal)
    small_elapsed = time.perf_counter() - t0

    t1 = time.perf_counter()
    cert4 = exact_min_complement(_instance(4))
    k4_elapsed = time.perf_counter() - t1
    sizes[4] = (cert4.size, cert4.optimal)

    cert5 = exact_min_complement(_instance(5), SolverBudget(max_nodes=2_000_000, max_seconds=600))
    ok = (
        sizes[1] == (2, "proven-optimal")
        and sizes[2] == (3, "proven-optimal")
        and sizes[3] == (5, "proven-optimal")
        and sizes[4] == (9, "proven-optimal")
        and small_elapsed < 1.0
        and k4_elapsed < 60.0
        and cert5.size == 14
        and cert5.optimal == "proven-optimal"
        and cert5.stats.nodes == 4_112
        and cert5.solution.values == (0, 2, 7, 14, 21, 52, 59, 66, 73, 107, 114, 126, 128, 202)
    )
    _criterion(
        1,
        ok,
        f"exact sizes k=1..4: {[sizes[k][0] for k in (1, 2, 3, 4)]} "
        f"(k<=3 in {small_elapsed:.2f}s, k=4 in {k4_elapsed:.2f}s); "
        f"k=5 best {cert5.size}, optimal={cert5.optimal} in {cert5.stats.nodes} nodes",
    )


def test_criterion_02_paper_sets_verify_and_mutations_fail():
    all_verify = True
    for k, values in PAPER_BLOCKS.items():
        all_verify &= verify_complement(_instance(k), BlockCode(k, values)).verify()
    mutations_fail = True
    for drop in PAPER_BLOCKS[3]:
        reduced = BlockCode.from_iterable(3, [v for v in PAPER_BLOCKS[3] if v != drop])
        try:
            verify_complement(_instance(3), reduced)
            mutations_fail = False
        except CoverVerificationError:
            pass
    _criterion(
        2,
        all_verify and mutations_fail,
        f"published sets verify: {all_verify}; every single-element deletion of the "
        f"length-3 set fails: {mutations_fail}",
    )


def test_criterion_03_product_probe():
    b2 = BlockCode(2, PAPER_BLOCKS[2])
    b3 = BlockCode(3, PAPER_BLOCKS[3])
    exact4 = exact_min_complement(_instance(4))
    p22 = product_probe(b2, b2, exact4.solution, exact4.optimal)
    p23 = product_probe(b2, b3, BlockCode(5, PAPER_BLOCKS[5]))
    ok = (
        p22.product_size == 9 == exact4.size
        and p22.covers
        and p22.verdict == "optimal"
        and p23.product_size == 15 > 14 == p23.reference_size
        and p23.covers
        and p23.verdict == "suboptimal"
    )
    _criterion(
        3,
        ok,
        f"2x2 product size {p22.product_size} equals the exact k=4 minimum {exact4.size}; "
        f"2x3 product size {p23.product_size} > best length-5 size {p23.reference_size}",
    )


def test_criterion_04_dimension_constants():
    gamma3 = math.log(5) / math.log(27)
    h = entropy3(FrequencyVector(Fraction(0), Fraction(1, 3), Fraction(2, 3)))
    closed = 1 - (2 / 3) * DIM_C
    ok = (
        abs(gamma3 - 0.4883) < 5e-5
        and abs(DIM_C - 0.6309) < 5e-5
        and abs(h - closed) < 1e-12
    )
    _criterion(
        4,
        ok,
        f"gamma_3 = {gamma3:.6f} (~0.4883), dim C = {DIM_C:.6f} (~0.6309), "
        f"entropy(0,1/3,2/3) - closed form = {abs(h - closed):.2e}",
    )


def test_criterion_05_greedy_trend():
    t0 = time.perf_counter()
    gaps = []
    bounds_ok = True
    for k in range(1, 13):
        cert = greedy_complement(_instance(k))
        bounds_ok &= cert.size <= greedy_size_bound(k)
        gaps.append(math.log(cert.size) / (k * math.log(3)) - (1 - DIM_C))
    elapsed = time.perf_counter() - t0
    late_small = all(g < 0.25 for g in gaps[9:])
    trending_down = sum(gaps[6:]) / 6 < sum(gaps[:6]) / 6
    ok = bounds_ok and late_small and trending_down and elapsed < 300.0
    _criterion(
        5,
        ok,
        f"greedy k=1..12 within bound: {bounds_ok}; gap at k=10..12 "
        f"{[round(g, 4) for g in gaps[9:]]} (< 0.25: {late_small}); "
        f"decreasing on average: {trending_down}; runtime {elapsed:.1f}s",
    )


def test_criterion_06_measure_bound_identity():
    ok = True
    for k in range(1, 6):
        spec = build_uniform_spec(k, verify_complement(_instance(k), BlockCode(k, PAPER_BLOCKS[k])))
        for n in range(1, 51):
            ok &= measure_bound(spec, n).log3_coefficient == Fraction(1, k)
    _criterion(6, ok, "cover-sum bound equals 3^gamma exactly (log-space) for n=1..50, k<=5")


def test_criterion_07_decomposition_round_trips():
    rng = random.Random(2024)
    spec3 = build_uniform_spec(3, verify_complement(_instance(3), BlockCode(3, PAPER_BLOCKS[3])))
    quad = build_density_spec(DensityParams.from_alpha("0.8"), 4)
    uniform_ok = all(
        decompose(TernaryRational(rng.randrange(3**45), 45), spec3, 15).is_exact() for _ in range(1000)
    )
    quad_ok = all(
        decompose(TernaryRational(rng.randrange(3**16), 16), quad, 4).is_exact() for _ in range(1000)
    )
    reflect_ok = all(
        reflect_decompose(TernaryRational(rng.randrange(2 * 3**20 + 1), 20), spec3, 10).verify()
        for _ in range(100)
    )
    _criterion(
        7,
        uniform_ok and quad_ok and reflect_ok,
        f"1000 exact splits at digit depth 45 (uniform) and 16 (quadratic): "
        f"{uniform_ok}/{quad_ok}; 100 reflection round-trips: {reflect_ok}",
    )


def test_criterion_08_density_encoding():
    from complement_forge.density import encoding_constant

    t0 = time.perf_counter()
    n = 10_000
    agree = True
    bound_ok = True
    worst_gap = 0.0
    c0_max = 0
    for a in ALPHAS:
        params = DensityParams.from_alpha(a)
        direct = oracle_a_prefix(params, n)  # A walked element by element
        r, s = best_rational(params, n)
        agree &= a_prefix_from_rational(r, s, n).bits == direct.bits
        dl = description_length(params, n)
        bound_ok &= dl.length <= dl.bound
        worst_gap = max(worst_gap, dl.gap)
        c0_max = max(c0_max, encoding_constant(params))
    elapsed = time.perf_counter() - t0
    ok = agree and bound_ok and worst_gap <= c0_max and elapsed < 30.0
    _criterion(
        8,
        ok,
        f"rational-encoded prefixes match bit-for-bit at n=10^4: {agree}; "
        f"measured c0 = {worst_gap:.2f} within the guaranteed constant {c0_max}; "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_09_complement_shift_stability():
    ok = True
    details = []
    for a in ALPHAS:
        params = DensityParams.from_alpha(a)
        e1 = complement_enum(params, 10_000)
        e2 = complement_enum(params, 20_000)
        ratio = 10_000 / e1.elements[-1]
        target = 1 - params.d_float
        stable = e2.t_shift <= e1.t_shift
        close = abs(ratio - target) < 1e-3
        ok &= stable and close
        details.append(f"alpha={a}: t={e1.t_shift}->{e2.t_shift}, |n/u_n-(1-D)|={abs(ratio - target):.2e}")
    _criterion(9, ok, "; ".join(details))


def test_criterion_10_marstrand_harness_and_net_oracle():
    rng = random.Random(0)
    held = violations = 0
    for i in range(200):
        s = Fraction(1, 2) if i % 2 else Fraction(1)
        rep = random_marstrand_trial(rng, 8, s)
        if rep.hypothesis_ok:
            held += 1
            violations += not rep.conclusion_ok
    oracle_ok = True
    orng = random.Random(1)
    for _ in range(25):
        level = orng.randint(2, 5)
        atoms = orng.sample(range(2**level), orng.randint(1, min(8, 2**level)))
        target = [DyadicInterval(level, m) for m in atoms]
        t = orng.choice((Fraction(1), Fraction(1, 2)))
        delta = Fraction(1, 2 ** orng.randint(0, level))
        oracle_ok &= net_measure(target, t, delta) == oracle_net_measure(target, t, delta)
    ok = violations == 0 and held > 20 and oracle_ok
    _criterion(
        10,
        ok,
        f"200 seeded covering trials: hypothesis held {held} times, conclusion violations "
        f"{violations}; exact DP == exhaustive oracle on 25 unions at levels <= 5: {oracle_ok}",
    )


def test_criterion_11_mass_ratio_bound():
    params = DensityParams.from_alpha("0.8")
    rng = random.Random(11)
    all_within = True
    max_meet = 0
    for _ in range(50):
        bits = [rng.randint(0, 1) for _ in range(15)]
        rep = mass_ratio(params, bits, range(5, 16))
        all_within &= rep.all_within
        max_meet = max(max_meet, rep.max_meeting)
    ok = all_within and max_meet <= 2
    _criterion(
        11,
        ok,
        f"50 sampled points, levels 5..15: all ratios within 8*3^(bt/c)/2^b (t={rep.t_shift}): "
        f"{all_within}; max intervals meeting a ball: {max_meet} (at most 2)",
    )


def test_criterion_12_box_dimension_estimates():
    cantor = box_dim_estimate(lambda n: 2**n, range(1, 41))
    cantor_ok = all(abs(e - DIM_C) < 1e-12 for _, _, e in cantor.entries)
    gamma3 = math.log(5) / math.log(27)
    e3 = box_dim_estimate(lambda i: 5 ** (i // 3), [3 * i for i in range(1, 14)])
    e3_ok = all(abs(e - gamma3) < 1e-12 for _, _, e in e3.entries)
    report = box_dim_bound_ca(DensityParams.from_alpha("0.8"), 10_000)
    ca_ok = abs(report.final - 0.2) < 1e-2
    ok = cantor_ok and e3_ok and ca_ok
    _criterion(
        12,
        ok,
        f"Cantor prefix estimator pinned at log2/log3: {cantor_ok}; block-code estimator at "
        f"gamma_3: {e3_ok}; C_A estimate at depth 10^4 = {report.final:.4f} "
        f"(target 0.2, tol 1e-2)",
    )
