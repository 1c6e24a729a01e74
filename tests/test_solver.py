import gc
import hashlib
import math
import random

import pytest

from _oracles import brute_force_uncovered
from complement_forge import solver
from complement_forge.catalog import PAPER_BLOCKS
from complement_forge.density import DensityParams
from complement_forge.fractal import build_density_spec
from complement_forge.solver import (
    DUAL_SCALE,
    KNOWN_MIN_SIZES,
    CoverInstance,
    CoverVerificationError,
    SolverBudget,
    bit_planes,
    counting_lower_bound,
    coverage_mask,
    dual_bound,
    dual_weights,
    exact_min_complement,
    gate_dual_weights,
    greedy_complement,
    greedy_size_bound,
    product_probe,
    uncovered_values,
    verify_complement,
)
from complement_forge.ternary import BlockCode, enumerate_pattern, zero_one_pattern


def c_instance(k, signed=False):
    base = enumerate_pattern(zero_one_pattern(k))
    return CoverInstance.signed(k, base) if signed else CoverInstance(k, base)


def test_verify_paper_sets():
    for k, values in PAPER_BLOCKS.items():
        cert = verify_complement(c_instance(k), BlockCode(k, values))
        assert cert.verify()
        assert cert.size == len(values)


def test_instance_refuses_negative_base_values():
    with pytest.raises(ValueError, match="negative"):
        CoverInstance(2, BlockCode.from_iterable(2, [-1, 0, 1]))
    with pytest.raises(ValueError, match="negative"):
        CoverInstance.signed(2, BlockCode.from_iterable(2, [-4]))


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
        a, b = cert.witness[v]
        assert a + b == v
        assert a in cert.instance.base_set.values
        assert b in cert.solution.values
    # canonical choice: smallest a, then smallest b (the published example 020)
    assert cert.witness[6] == (4, 2)


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


def _values_digest(code):
    return hashlib.sha256(",".join(map(str, code.values)).encode()).hexdigest()


def test_greedy_codes_are_pinned():
    # any change in the selection or its tie-break moves these digests
    g10 = greedy_complement(c_instance(10)).solution
    assert len(g10) == 248
    assert _values_digest(g10) == "b219b623f3ec60e0825992a20c4b04e1bf508b0c30d9fc491844df47e7909f90"
    stage6 = build_density_spec(DensityParams.from_alpha("0.8"), 6).stages[5]
    g6 = greedy_complement(stage6.certificate.instance).solution
    assert len(g6) == 24_696
    assert _values_digest(g6) == "90d344ea59f3c4862cb0fea7f47fe7b157a8d4848547d4d7957c96c6b084e7ab"


def test_counting_lower_bound():
    assert counting_lower_bound(c_instance(3)) == 4  # ceil(27/8)
    assert counting_lower_bound(c_instance(5)) == 8  # ceil(243/32)
    full = CoverInstance(2, BlockCode.from_iterable(2, range(9)))
    assert counting_lower_bound(full) == 1


def test_exact_small_k():
    for k, expect in ((1, 2), (2, 3), (3, 5)):
        cert = exact_min_complement(c_instance(k))
        assert cert.size == expect
        assert cert.optimal == "proven-optimal"
        assert cert.verify()


def _coverages(inst):
    return [coverage_mask(inst, b) for b in range(inst.lo, inst.hi)]


def _root_dual_bound(inst):
    weights = dual_weights(inst, _coverages(inst))
    return dual_bound(bit_planes(weights), (1 << inst.target_size) - 1)


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
        assert e.size >= counting_lower_bound(inst)
        assert e.size >= _root_dual_bound(inst)
        assert e.verify() and g.verify()


def test_exact_node_counts_are_pinned():
    # the counting and dual bounds are deterministic, so node counts are too
    for signed, nodes in ((False, 127), (True, 5087)):
        cert = exact_min_complement(c_instance(4, signed), SolverBudget(max_nodes=None, max_seconds=None))
        assert (cert.size, cert.optimal, cert.stats.nodes) == (9, "proven-optimal", nodes)


def _loads(weights, coverages):
    return [sum(w for v, w in enumerate(weights) if c >> v & 1) for c in coverages]


def test_dual_gate_rescales_overloaded_weights():
    inst = c_instance(4)
    covs = _coverages(inst)
    full = (1 << inst.target_size) - 1
    weights = dual_weights(inst, covs)
    assert sum(weights) == 30393  # the same multiplicative-weights run on every machine
    assert max(_loads(weights, covs)) <= DUAL_SCALE
    assert dual_bound(bit_planes(weights), full) == 8
    tampered = list(weights)
    tampered[40] += DUAL_SCALE // 2
    assert max(_loads(tampered, covs)) > DUAL_SCALE
    gated = gate_dual_weights(tampered, covs)
    assert max(_loads(gated, covs)) <= DUAL_SCALE
    assert dual_bound(bit_planes(gated), full) <= KNOWN_MIN_SIZES[4]
    assert gate_dual_weights(weights, covs) == weights  # feasible weights pass unchanged


def test_exact_budget_exhaustion_is_not_an_error():
    cert = exact_min_complement(c_instance(4), SolverBudget(max_nodes=10, max_seconds=None))
    assert cert.stats.budget_exhausted
    assert cert.optimal == "unknown"
    assert cert.verify()  # best-found is still a verified cover


def test_exact_time_budget_keeps_the_greedy_cover():
    inst = c_instance(5)
    budget = SolverBudget(max_nodes=None, max_seconds=1e-9)
    cert = exact_min_complement(inst, budget)
    assert cert.stats.budget_exhausted and cert.optimal == "unknown"
    assert cert.solution == greedy_complement(inst).solution and cert.size == 18 and cert.verify()
    # an exit from any depth leaves no reference cycle behind: each call's
    # tables go with its frame
    gc.collect()
    gc.disable()
    try:
        for cap in (budget, SolverBudget(max_nodes=2000, max_seconds=None)):
            for _ in range(2):
                assert exact_min_complement(inst, cap).stats.budget_exhausted
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("late", ["weights", "search"])
def test_exact_clock_ends_the_weight_loop_and_the_search(monkeypatch, late):
    # a clock that stands still until it jumps past the deadline, as the
    # weight loop starts or as it returns
    now = [0.0]
    monkeypatch.setattr(solver.time, "perf_counter", lambda: now[0])
    packing_counts = solver._packing_counts

    def jump(*args):
        if late == "weights":
            now[0] = 2.0
        counts = packing_counts(*args)
        now[0] = 2.0
        return counts

    monkeypatch.setattr(solver, "_packing_counts", jump)
    inst = c_instance(5)
    cert = exact_min_complement(inst, SolverBudget(max_nodes=None, max_seconds=1.0))
    assert cert.stats.budget_exhausted and cert.optimal == "unknown"
    assert cert.verify()
    # the weight loop reads the clock every 256 steps, the search every 4096
    # nodes and keeps the best cover it found
    if late == "weights":
        assert cert.stats.nodes == 0 and cert.solution == greedy_complement(inst).solution
    else:
        assert cert.stats.nodes == 4096 and cert.size < greedy_complement(inst).size


def test_exact_deterministic():
    a = exact_min_complement(c_instance(4), SolverBudget(max_nodes=5000, max_seconds=None))
    b = exact_min_complement(c_instance(4), SolverBudget(max_nodes=5000, max_seconds=None))
    assert a.solution == b.solution and a.stats.nodes == b.stats.nodes


def test_exact_accepts_initial_incumbent():
    # a caller can seed the search with a known cover; with a tiny budget the
    # incumbent survives as best-found
    initial = BlockCode(5, PAPER_BLOCKS[5])
    cert = exact_min_complement(c_instance(5), SolverBudget(max_nodes=2000, max_seconds=None), initial=initial)
    assert cert.size == 14
    assert cert.optimal == "unknown" and cert.stats.budget_exhausted


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
