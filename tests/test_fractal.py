import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import oracle_decompose, oracle_reflect_decompose
from complement_forge.catalog import PAPER_BLOCKS
from complement_forge.density import DensityParams, a_prefix
from complement_forge.fractal import (
    build_density_spec,
    build_uniform_spec,
    decompose,
    dimension_ledger,
    measure_bound,
    reflect_decompose,
)
from complement_forge.solver import CoverInstance, greedy_complement, verify_complement
from complement_forge.ternary import BlockCode, TernaryRational, enumerate_pattern, zero_one_pattern

DIM_C = math.log(2) / math.log(3)


def uniform_spec(k):
    inst = CoverInstance(k, enumerate_pattern(zero_one_pattern(k)))
    cert = verify_complement(inst, BlockCode(k, PAPER_BLOCKS[k]))
    return build_uniform_spec(k, cert)


def test_gamma_examples():
    from complement_forge.fractal import GammaValue

    assert uniform_spec(3).stage_at(1).gamma.value == pytest.approx(math.log(5) / math.log(27))
    assert uniform_spec(1).stage_at(1).gamma.value == pytest.approx(math.log(2) / math.log(3))
    assert uniform_spec(2).stage_at(1).gamma.value == pytest.approx(0.5)
    # singleton code has exponent 0
    assert GammaValue(card=1, n=4).value == 0.0


def test_build_uniform_rejects_wrong_base():
    inst = CoverInstance(2, BlockCode.from_iterable(2, [0, 1, 2]))
    cert = verify_complement(inst, BlockCode.from_iterable(2, list(range(0, 9, 3))))
    with pytest.raises(ValueError):
        build_uniform_spec(2, cert)


def test_zero_adjoined_when_missing():
    # only signed ranges admit covers without 0; the builder adjoins it
    inst = CoverInstance.signed(1, enumerate_pattern(zero_one_pattern(1)))
    cert = verify_complement(inst, BlockCode.from_iterable(1, [-1, 1]))
    spec = build_uniform_spec(1, cert)
    assert 0 in spec.stage_at(1).code
    assert decompose(TernaryRational(0, 0), spec, 2).is_exact()


def test_adjoining_zero_logs_the_gamma_drift(caplog):
    inst = CoverInstance.signed(1, enumerate_pattern(zero_one_pattern(1)))
    cert = verify_complement(inst, BlockCode.from_iterable(1, [-1, 1]))
    with caplog.at_level("INFO", logger="complement_forge.fractal"):
        build_uniform_spec(1, cert)
    assert [r.getMessage() for r in caplog.records] == ["adjoined 0 to a size-2 code at k=1 (gamma 0.63093 -> 1.00000)"]


def test_measure_bound_identity():
    for k in (1, 2, 3, 4, 5):
        spec = uniform_spec(k)
        for n in (1, 2, 7, 50):
            mb = measure_bound(spec, n)
            assert mb.log3_coefficient == Fraction(1, k)
            assert mb.log3_value == pytest.approx(spec.stage_at(1).gamma.value)


def test_measure_bound_monotone_above_gamma():
    spec = uniform_spec(3)
    g = spec.stage_at(1).gamma.value
    vals = [measure_bound(spec, n, exponent=g + 0.01).log3_value for n in range(1, 21)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dimension_ledger():
    led = dimension_ledger(uniform_spec(3))
    assert led.lower_bound == pytest.approx(1 - DIM_C)
    assert led.gap == pytest.approx(0.4883 - 0.3691, abs=2e-4)
    led1 = dimension_ledger(uniform_spec(1))
    assert led1.gap == pytest.approx(2 * DIM_C - 1)
    assert all(g >= 0 for g in led1.gaps)


def test_decompose_paper_example():
    spec = uniform_spec(3)
    cert = decompose(TernaryRational.from_digit_string("0.020"), spec, 1)
    assert cert.a_blocks == (4,) and cert.b_blocks == (2,)  # 020 = 011 + 002
    assert cert.is_exact()


def test_decompose_zero_and_one():
    spec = uniform_spec(3)
    z = decompose(TernaryRational(0, 0), spec, 3)
    assert set(z.a_blocks) == {0} and set(z.b_blocks) == {0}
    one = decompose(TernaryRational(1, 0), spec, 2)
    assert one.x.as_fraction() == Fraction(3**6 - 1, 3**6)
    assert one.is_exact()


def test_decompose_random_round_trip():
    spec = uniform_spec(3)
    rng = random.Random(9)
    for _ in range(100):
        x = TernaryRational(rng.randrange(3**30), 30)
        cert = decompose(x, spec, 10)
        assert cert.is_exact()
        # pattern side really is a half-Cantor prefix: digits 0/1 only
        half = cert.half_c_part()
        assert all(half.digit(p) in (0, 1) for p in range(1, 31))


def test_decompose_depth_guard():
    spec = uniform_spec(3)
    with pytest.raises(ValueError):
        decompose(TernaryRational(1, 10), spec, 1)  # 10 digits, 3 consumed
    with pytest.raises(ValueError):
        decompose(TernaryRational(-1, 1), spec, 1)


def test_is_exact_refuses_a_tampered_block_and_an_x_past_the_last_offset():
    # the integer check agrees with the identity half_c + half_e == x it
    # stands for, on the certificates decompose makes and on tampered ones
    rng = random.Random(12)
    for spec, depth in ((uniform_spec(3), 4), (build_density_spec(DensityParams.from_alpha("0.8"), 4), 4)):
        digits = spec.digit_depth(depth)
        for _ in range(40):
            cert = decompose(TernaryRational(rng.randrange(3**digits), digits), spec, depth)
            assert cert.is_exact()
            i = rng.randrange(depth)
            field = rng.choice(("a_blocks", "b_blocks"))
            blocks = list(getattr(cert, field))
            blocks[i] += rng.choice((-1, 1)) * 3 ** rng.randrange(3)
            tampered = dataclasses.replace(cert, **{field: tuple(blocks)})
            assert not tampered.is_exact()
            assert tampered.half_c_part() + tampered.half_e_part() != tampered.x
            # x one digit past the last offset: no sum over 3^M equals it
            deeper = dataclasses.replace(cert, x=cert.x + TernaryRational(1, digits + 1))
            assert deeper.x.depth == cert.stage_offsets[-1] + 1
            assert not deeper.is_exact()


_DECOMPOSE_UNDER_O = """
from complement_forge import fractal
from complement_forge.solver import CoverInstance, verify_complement
from complement_forge.ternary import BlockCode, TernaryRational, enumerate_pattern, zero_one_pattern

if __debug__:
    raise SystemExit("interpreter is not running with -O")
inst = CoverInstance(3, enumerate_pattern(zero_one_pattern(3)))
spec = fractal.build_uniform_spec(3, verify_complement(inst, BlockCode(3, (0, 2, 7, 12, 14))))
fractal.DecompositionCertificate.is_exact = lambda self: False
try:
    fractal.decompose(TernaryRational.from_digit_string("0.020"), spec, 1)
except Exception:
    print("raised")
else:
    print("returned")
"""


def test_decompose_check_survives_optimize_flag():
    # the reconstruction check must not be an assert statement, which -O strips
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _DECOMPOSE_UNDER_O], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_reflect_examples():
    spec = uniform_spec(3)
    two = reflect_decompose(TernaryRational(2, 0), spec, 5)
    assert two.verify()
    assert two.cantor_point == TernaryRational(0, 0)
    assert two.translated_point == TernaryRational(2, 0)
    one = reflect_decompose(TernaryRational(1, 0), spec, 10)
    assert one.verify()
    half = reflect_decompose(TernaryRational(1, 0).halve_truncated(30), spec, 10)
    assert half.verify()


def _reflection_specs():
    quadratic = build_density_spec(DensityParams.from_alpha("0.8"), 4)
    return ((uniform_spec(3), 5), (uniform_spec(5), 2), (quadratic, 4))


def test_reflect_refuses_zero():
    # (2 - 0)/2 = 1 is split as 0.22...2, which leaves x + r + e a whole
    # 2 * 3^-digits short of 2: no residual inside the bound closes it
    for spec, depth in _reflection_specs():
        for zero in (TernaryRational(0, 0), TernaryRational(0, 7)):
            with pytest.raises(ValueError, match=r"r must lie in \(0, 2\]"):
                reflect_decompose(zero, spec, depth)


def test_reflect_verifies_the_least_positive_r():
    for spec, depth in _reflection_specs():
        digits = spec.digit_depth(depth)
        least = reflect_decompose(TernaryRational(1, digits), spec, depth)
        assert least.verify()
        assert least.residual == TernaryRational(1, digits)


def test_reflect_random_round_trip():
    spec = uniform_spec(3)
    rng = random.Random(10)
    for _ in range(50):
        r = TernaryRational(rng.randrange(2 * 3**15 + 1), 15)
        rc = reflect_decompose(r, spec, 6)
        assert rc.verify()
        # x really lands in the Cantor set: digits 0/2 only
        assert all(rc.cantor_point.digit(p) in (0, 2) for p in range(1, 19))


def test_density_spec_patterns_match_prefix():
    params = DensityParams.from_alpha("0.8")
    spec = build_density_spec(params, 4)
    prefix = a_prefix(params, 16)
    for k, stage in enumerate(spec.stages, start=1):
        m_k = k * k
        for j, allowed in enumerate(stage.pattern.allowed):
            expected = frozenset((0, 1)) if prefix.contains(m_k - j) else frozenset((0,))
            assert allowed == expected
        assert stage.certificate.verify()
    assert spec.digit_depth(4) == 16


def test_density_spec_full_density_is_uniform():
    params = DensityParams.from_density(Fraction(1))
    spec = build_density_spec(params, 3)
    for stage in spec.stages:
        assert all(s == frozenset((0, 1)) for s in stage.pattern.allowed)


def test_density_spec_stage_lengths():
    params = DensityParams.from_alpha("0.8")
    spec = build_density_spec(params, 5)
    assert [st.n for st in spec.stages] == [1, 3, 5, 7, 9]
    led = dimension_ledger(spec)
    assert led.description_length is not None and led.description_length > 0


def test_greedy_uniform_gamma_floor():
    # every complement of the {0,1} pattern needs at least 3^k/2^k elements,
    # so gamma stays above 1 - dim C
    for k in range(1, 9):
        inst = CoverInstance(k, enumerate_pattern(zero_one_pattern(k)))
        cert = greedy_complement(inst)
        spec = build_uniform_spec(k, cert)
        assert spec.stage_at(1).gamma.value >= (1 - DIM_C) - 1e-12


def test_stage_past_a_quadratic_schedule_is_a_value_error():
    spec = build_density_spec(DensityParams.from_alpha("0.8"), 2)
    with pytest.raises(ValueError, match="spec has 2 stages, asked for 3"):
        spec.stage_at(3)
    with pytest.raises(ValueError, match="spec has 2 stages, asked for 3"):
        decompose(TernaryRational(1, 1), spec, 3)


def _decomposition_fields(cert):
    return {
        "x": cert.x,
        "a_blocks": cert.a_blocks,
        "b_blocks": cert.b_blocks,
        "stage_offsets": cert.stage_offsets,
        "half_c": cert.half_c_part(),
        "half_e": cert.half_e_part(),
    }


def test_decompose_and_reflect_match_digit_by_digit_reference():
    # the alpha=0.8 six-stage quadratic spec and uniform-k5, as the certify benchmark runs them
    quadratic = build_density_spec(DensityParams.from_alpha(Fraction(4, 5)), 6)
    rng = random.Random(15)
    short = 0
    for spec, stages in ((quadratic, 6), (uniform_spec(5), 8)):
        points = [(TernaryRational(1, 0), depth) for depth in range(1, stages + 1)]
        for _ in range(200):
            depth = rng.randint(1, stages)
            digits = rng.randint(0, spec.digit_depth(depth))
            short += digits < spec.digit_depth(depth)
            points.append((TernaryRational(rng.randrange(3**digits), digits), depth))
        for x, depth in points:
            assert _decomposition_fields(decompose(x, spec, depth)) == oracle_decompose(x, spec, depth)
        # r = 0 is refused; its place goes to the least positive r
        translates = [(TernaryRational(1, spec.digit_depth(stages)), stages), (TernaryRational(2, 0), stages)]
        for _ in range(100):
            depth = rng.randint(1, stages)
            digits = rng.randint(0, spec.digit_depth(depth) + 3)  # some cut by the halving
            translates.append((TernaryRational(rng.randrange(2 * 3**digits + 1), digits), depth))
        for r, depth in translates:
            if r.numerator == 0:
                with pytest.raises(ValueError):
                    reflect_decompose(r, spec, depth)
                continue
            rc = reflect_decompose(r, spec, depth)
            assert {
                "r": rc.r,
                "digit_depth": rc.digit_depth,
                "decomposition": _decomposition_fields(rc.decomposition),
                "cantor_point": rc.cantor_point,
                "e_point": rc.e_point,
                "translated_point": rc.translated_point,
                "residual": rc.residual,
            } == oracle_reflect_decompose(r, spec, depth)
    assert short >= 300
