import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from _oracles import mp_floor_y_over_d, scan_best_rational
from complement_forge.density import (
    ENCODING_CONSTANT,
    DensityParams,
    a_prefix,
    a_prefix_from_rational,
    best_rational,
    box_dim_bound_ca,
    complement_enum,
    decode_rsn,
    description_length,
    encode_rsn,
    verify_rational_encoding,
)

ALPHAS = ("0.7", "0.75", "0.8", "0.9")


def test_params_validation():
    with pytest.raises(ValueError):
        DensityParams.from_alpha(Fraction(1))  # density 0
    with pytest.raises(ValueError):
        DensityParams.from_alpha(Fraction(1, 4))  # density above 1
    with pytest.raises(ValueError):
        DensityParams.from_density(Fraction(3, 2))
    p = DensityParams.from_alpha("0.8")
    assert 0 < p.d_float <= 1
    assert p.alpha_fraction == Fraction(4, 5)


def test_floor_matches_high_precision_oracle():
    for a in ALPHAS:
        p = DensityParams.from_alpha(a)
        for y in range(1, 300):
            assert p.floor_div(y) == mp_floor_y_over_d(p.one_minus_alpha, y)


def test_floor_at_eleven_digit_arguments():
    # y/D for alpha = 2/3 lies 3e-11 above an integer here, and
    # 19760456010 * log2 3 lies 4e-11 below one
    p = DensityParams.from_alpha("2/3")
    assert p.fraction_le_inv_d(19760456010, 10439860591) is True
    assert p.floor_div(10439860591) == 19760456010


def test_params_accept_density_just_below_one():
    # P log2 3 < Q by 8e-5 with P ~ 5.4e12, so D = 1 - 1e-17
    p = DensityParams.from_alpha(1 - Fraction(5406435358383, 8568997305610))
    assert p.floor_div(1) == 1


def test_floor_matches_oracle_at_large_numerators():
    # floor(y/D) walks floor(j log2 3) at j = q P, here up to 10^15; the
    # first case is the known near-integer one above
    rng = random.Random(20)
    cases = [(Fraction(1, 3), 10439860591)]
    for _ in range(300):
        num = rng.randint(1, 10**6)
        den = rng.randint(math.ceil(num * math.log2(3)), 3 * num)
        j_max = 10 ** rng.uniform(3, 15)
        cases.append((Fraction(num, den), max(1, int(j_max * math.log2(3) / den))))
    for one_minus_alpha, y in cases:
        p = DensityParams.from_alpha(1 - one_minus_alpha)
        assert p.floor_div(y) == mp_floor_y_over_d(one_minus_alpha, y)


def test_a_prefix_examples():
    p1 = DensityParams.from_density(Fraction(1))
    assert a_prefix(p1, 12).members() == list(range(1, 13))
    ph = DensityParams.from_density(Fraction(1, 2))
    assert a_prefix(ph, 12).members() == [2, 4, 6, 8, 10, 12]
    p8 = DensityParams.from_alpha("0.8")
    assert a_prefix(p8, 10).members() == [3, 6, 9]


def test_prefix_density_bound():
    # each y lands one element, so the prefix density tracks D within 2/n
    for a in ALPHAS:
        p = DensityParams.from_alpha(a)
        for n in (10, 100, 1000):
            got = float(a_prefix(p, n).density())
            assert abs(got - p.d_float) <= 2 / n


def test_best_rational_against_scan():
    p8 = DensityParams.from_alpha("0.8")
    assert best_rational(p8, 10) == (22, 7) == scan_best_rational(p8, 10)
    rng = random.Random(7)
    for a in ALPHAS:
        p = DensityParams.from_alpha(a)
        for _ in range(4):
            n = rng.randint(1, 60)
            assert best_rational(p, n) == scan_best_rational(p, n)


def test_best_rational_trivia():
    third = DensityParams.from_density(Fraction(1, 3))  # 1/D = 3 exactly
    assert best_rational(third, 5) == (3, 1)
    p8 = DensityParams.from_alpha("0.8")
    assert best_rational(p8, 1) == (p8.floor_div(1), 1)
    one = DensityParams.from_density(Fraction(1))
    assert best_rational(one, 10) == (1, 1)


def test_rational_encoding_equality():
    p8 = DensityParams.from_alpha("0.8")
    r, s = best_rational(p8, 10_000)
    chk = verify_rational_encoding(p8, r, s, 10_000)
    assert chk.ok and chk.counterexamples == ()
    # deliberately overshoot 1/D: the floors must eventually disagree
    bad = verify_rational_encoding(p8, r + 1, s, 10_000)
    assert not bad.ok and bad.counterexamples
    one = DensityParams.from_density(Fraction(1))
    assert verify_rational_encoding(one, 1, 1, 50).ok


def test_prefix_via_rational_matches_direct():
    for a in ALPHAS:
        p = DensityParams.from_alpha(a)
        r, s = best_rational(p, 2000)
        assert a_prefix_from_rational(r, s, 2000).bits == a_prefix(p, 2000).bits


def test_encode_decode_round_trip():
    assert decode_rsn(encode_rsn(22, 7, 10)) == (22, 7, 10)
    rng = random.Random(8)
    for _ in range(100):
        r = rng.randrange(0, 10**6)
        s = rng.randint(1, 10**6)
        n = rng.randint(1, 10**6)
        assert decode_rsn(encode_rsn(r, s, n)) == (r, s, n)
    with pytest.raises(ValueError):
        decode_rsn("012")


def test_description_length_bound_sweep():
    # dense over small n (where the field overheads dominate) plus spot checks
    # at large n, including alphas outside the usual band
    from complement_forge.density import encoding_constant

    worst = -99.0
    for a in ("0.65", "0.7", "0.75", "0.8", "0.9", "0.95", "0.99"):
        p = DensityParams.from_alpha(a)
        c0 = encoding_constant(p)
        inv_width = c0 - ENCODING_CONSTANT
        for n in list(range(2, 400)) + [729, 3000, 6561, 10_000, 3**10, 3**12]:
            dl = description_length(p, n)
            assert dl.length <= dl.bound
            worst = max(worst, dl.gap - inv_width)
    assert worst <= ENCODING_CONSTANT  # the frozen base covers the sweep max


def test_complement_examples():
    ph = DensityParams.from_density(Fraction(1, 2))
    ce = complement_enum(ph, 50)
    assert ce.elements == tuple(range(1, 101, 2))
    assert ce.t_shift == 0
    assert ce.ratio(50) == pytest.approx(50 / 99)
    one = DensityParams.from_density(Fraction(1))
    assert complement_enum(one, 5).empty


def test_complement_shift_minimal():
    for a in ALPHAS:
        p = DensityParams.from_alpha(a)
        ce = complement_enum(p, 500)
        t = ce.t_shift
        c = 1 - p.d_float
        for i, u in enumerate(ce.elements, start=1):
            assert u <= (i + t) / c + 1e-9
        # minimality: t - 1 must fail somewhere
        assert any(u > (i + t - 1) / c for i, u in enumerate(ce.elements, start=1))


def test_complement_shift_is_zero():
    # a complement element u has floor(u*D) = |A & [1, u]| = u - i
    params = [DensityParams.from_alpha(a) for a in (*ALPHAS, "0.95", "2/3")]
    params += [DensityParams.from_density(Fraction(a, b)) for a, b in ((1, 2), (1, 7), (3, 4), (9, 10), (39, 40))]
    for p in params:
        ce = complement_enum(p, 3000)
        assert ce.t_shift == 0
        assert all(u - i - p.floor_mul(u) == 0 for i, u in enumerate(ce.elements, start=1))


_ENUM_JUST_BELOW_ONE = """
from fractions import Fraction
from complement_forge.density import DensityParams, complement_enum
p = DensityParams.from_alpha(Fraction(3162561947227, 8568997305610))
print(list(complement_enum(p, 10).elements))
"""


def test_complement_enum_returns_just_below_one():
    # D = 1 - 1e-17 puts u_1 near 10^17, out of reach of any walk of A; the
    # child process turns a hang into a failure
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _ENUM_JUST_BELOW_ONE], env=env, capture_output=True, text=True, timeout=20
        )
    except subprocess.TimeoutExpired:
        pytest.fail("complement_enum did not return within 20 s")
    assert proc.returncode == 0, proc.stderr
    # u_i = ceil(i/(1 - D)) - 1, from 60-digit mpmath
    with mp.workdps(60):
        c = 1 - mp.mpf(5406435358383) / 8568997305610 * mp.log(3) / mp.log(2)
        expect = [int(mp.ceil(i / c)) - 1 for i in range(1, 11)]
    assert proc.stdout.strip() == str(expect)


def test_prefix_and_complement_partition():
    params = [DensityParams.from_density(Fraction(a, b)) for b in range(2, 21) for a in range(1, b)]
    params += [DensityParams.from_alpha(a) for a in (*ALPHAS, "0.95")]
    n = 500
    for p in params:
        members = set(a_prefix(p, n).members())
        comp = [u for u in complement_enum(p, n).elements if u <= n]
        assert members.isdisjoint(comp)
        assert sorted(members | set(comp)) == list(range(1, n + 1))


def test_box_dim_report():
    one = DensityParams.from_density(Fraction(1))
    rep = box_dim_bound_ca(one, 100)
    dim_c = math.log(2) / math.log(3)
    # k_n = n: estimates are dim_C * n/(n-1), dropping toward dim C
    assert rep.entries[0] == (2, 2, pytest.approx(2 * dim_c))
    assert rep.final_estimate == pytest.approx(dim_c * 100 / 99)
    p8 = DensityParams.from_alpha("0.8")
    rep = box_dim_bound_ca(p8, 2000)
    assert abs(rep.final_estimate - 0.2) < 1e-2
    assert rep.complement_lower_bound == pytest.approx(dim_c + 0.8 - 1)


# -- the stepwise walk of A against the per-y definition ---------------------------

WALK_LOG_POINTS = ALPHAS + ("2/3", 1 - Fraction(5406435358383, 8568997305610))
WALK_RATIONAL_POINTS = tuple(Fraction(a, b) for b in range(1, 13) for a in range(1, b + 1))


def _walk_cases():
    """(params, floor(y/D) by definition) for every walk test point."""
    for a in WALK_LOG_POINTS:
        p = DensityParams.from_alpha(a)
        yield p, lambda y, pq=p.one_minus_alpha: mp_floor_y_over_d(pq, y)
    for d in WALK_RATIONAL_POINTS:
        yield DensityParams.from_density(d), lambda y, d=d: y * d.denominator // d.numerator


def _defined_a(floor_y_over_d, n):
    """The elements of A in [1, n], one floor(y/D) per y."""
    out = []
    y = 1
    while (k := floor_y_over_d(y)) <= n:
        out.append(k)
        y += 1
    return out


def test_walk_matches_per_y_definition():
    n = 3000
    for p, floor_y_over_d in _walk_cases():
        want = _defined_a(floor_y_over_d, n)
        prefix = a_prefix(p, n)
        assert prefix.members() == want and prefix.count() == len(want), p.describe()
        gaps = sorted(set(range(1, n + 1)) - set(want))
        if gaps:
            assert complement_enum(p, len(gaps)).elements == tuple(gaps), p.describe()
        elif p.d_exact == 1:
            assert complement_enum(p, 5).empty
        depth = 1000
        ks = [floor_y_over_d(y) for y in range(1, depth + 1)]
        assert [(m, k) for m, k, _ in box_dim_bound_ca(p, depth).entries] == [
            (m, k) for m, k in zip(range(1, depth + 1), ks) if k >= 2
        ], p.describe()


def test_rational_check_matches_per_y_definition():
    for p, floor_y_over_d in _walk_cases():
        r, s = best_rational(p, 50)
        ks = [floor_y_over_d(y) for y in range(1, 2001)]
        for rr in (r, r + 1):
            want = [y for y, k in enumerate(ks, start=1) if k != rr * y // s][:10]
            got = verify_rational_encoding(p, rr, s, 2000)
            assert got.counterexamples == tuple(want) and got.ok == (not want), p.describe()


def test_floor_div_far_from_the_double_estimate():
    # at y = 10^30 the double estimate of y/D is off by about 10^15
    p8 = DensityParams.from_alpha("0.8")
    for y in (10**20, 10**30, 10**30 + 7):
        assert p8.floor_div(y) == mp_floor_y_over_d(p8.one_minus_alpha, y, dps=80)
    for d in (Fraction(7, 11), Fraction(1), Fraction(1, 10**9 + 7)):
        p = DensityParams.from_density(d)
        y = 10**40 + 3
        assert p.floor_div(y) == y * d.denominator // d.numerator


def test_a_prefix_makes_one_exact_floor_per_element(monkeypatch):
    from complement_forge import density

    calls = 0
    exact = density._floor_log2_3

    def counted(j):
        nonlocal calls
        calls += 1
        return exact(j)

    params = [DensityParams.from_alpha(a) for a in WALK_LOG_POINTS]
    monkeypatch.setattr(density, "_floor_log2_3", counted)
    for p in params:
        for n in (1, 10, 5000):
            calls = 0
            prefix = a_prefix(p, n)
            assert calls <= prefix.count() + 3, (p.describe(), n, calls)


def test_a_prefix_from_rational_edge_numerators():
    # r = 0 puts every floor(0*y/s) at 0, outside [1, n]: an empty prefix,
    # returned without waiting for a floor above n that never comes
    empty = a_prefix_from_rational(0, 3, 10)
    assert empty.members() == [] and empty.count() == 0 and empty.bits == 0
    # r < s repeats floors; each position still appears once
    assert a_prefix_from_rational(1, 3, 5).members() == [1, 2, 3, 4, 5]
    assert a_prefix_from_rational(2, 1, 9).members() == [2, 4, 6, 8]
    with pytest.raises(ValueError):
        a_prefix_from_rational(-1, 3, 10)


def test_prefix_bitmap_views_agree():
    p = DensityParams.from_alpha("0.8")
    prefix = a_prefix(p, 1000)
    members = prefix.members()
    assert prefix.bits == sum(1 << m for m in members)
    assert [m for m in range(-2, 1010) if prefix.contains(m)] == members
