import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from _oracles import (
    mp_floor_u_times_d,
    mp_floor_y_over_d,
    oracle_a_prefix,
    oracle_a_prefix_from_rational,
    oracle_box_dim_bound_ca,
    oracle_complement_enum,
    scan_best_rational,
)
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
    assert p.le_d(19760456010, 10439860591) is True
    assert p.floor_div(10439860591) == 19760456010


def _log2_3_denominators(limit):
    """The continued-fraction denominators of log2 3 up to limit, from
    60-digit mpmath."""
    with mp.workdps(60):
        x = mp.log(3) / mp.log(2)
        before, last, out = 1, 0, []
        while True:
            a = int(mp.floor(x))
            before, last = last, a * last + before
            if last > limit:
                return out
            out.append(last)
            x = 1 / (x - a)


def test_floor_log2_3_matches_high_precision_oracle():
    # j * log2 3 comes closest to an integer at the continued-fraction
    # denominators and their small multiples; past 2^47 a double's error
    # in j * log2 3 can exceed 1/2
    from complement_forge.density import _floor_log2_3

    dens = _log2_3_denominators(10**15)
    assert len(dens) == 31 and dens[-1] == 483615324366283
    js = [j for d in dens for j in (d - 1, d, d + 1) if j >= 1]
    js += range(2**47 - 2, 2**47 + 3)
    js += [m * d for d in dens[-4:] for m in (1 + 2**47 // d, 3 + 2**50 // d)]
    rng = random.Random(23)
    js += [rng.randint(1, 2**200) for _ in range(2000)]
    js.append(10**400 + 7)
    for j in js:
        assert _floor_log2_3(j) == mp_floor_u_times_d(Fraction(1), j, dps=len(str(j)) + 40), j


_FLOORS_WITHOUT_MPMATH = """
import sys
from complement_forge.density import DensityParams, _floor_log2_3
print(_floor_log2_3(2**47 + 1), _floor_log2_3(10**400 + 7), DensityParams.from_alpha("0.8").floor_div(10**400 + 7))
print("mpmath" in sys.modules)
"""


def test_floors_past_the_double_range_load_no_mpmath():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _FLOORS_WITHOUT_MPMATH], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    floors, loaded = proc.stdout.split("\n")[:2]
    big = 10**400 + 7
    assert floors.split() == [
        str(mp_floor_u_times_d(Fraction(1), 2**47 + 1)),
        str(mp_floor_u_times_d(Fraction(1), big, dps=450)),
        str(mp_floor_y_over_d(Fraction(1, 5), big, dps=450)),
    ]
    assert loaded == "False"


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


def test_best_rational_at_rational_density():
    # at rational D the walk can land on 1/D itself, where only the
    # denominator cap ends a run
    for b in range(1, 13):
        for a in range(1, b + 1):
            p = DensityParams.from_density(Fraction(a, b))
            for n in range(1, 40):
                best = max(Fraction(s * b // a, s) for s in range(1, n + 1))
                assert best_rational(p, n) == (best.numerator, best.denominator), (a, b, n)


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
    # a_prefix is built from r/s itself, so the paper's claim is checked
    # against A walked element by element
    for a in ALPHAS:
        p = DensityParams.from_alpha(a)
        r, s = best_rational(p, 2000)
        assert a_prefix_from_rational(r, s, 2000).bits == oracle_a_prefix(p, 2000).bits


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


def test_decode_rsn_refuses_malformed_encodings():
    good = encode_rsn(1, 1, 1)
    # int(..., 3) read "1_1" as 4, and took a sign or a trailing space
    for bad in (good + "_1", good + " ", good[:-1] + "+" + good[-1], "2", "", good[:-1]):
        with pytest.raises(ValueError):
            decode_rsn(bad)


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


def test_description_length_guarantee_is_decided_in_integers(monkeypatch):
    # at alpha = 4/5, n = 3^5 the encoding has 27 symbols and c0 = base + 2;
    # with base 5 the length equals 4*5 + c0 exactly, which holds, while the
    # float 4*log3(243) reads 19.999999999999996 and would refuse it
    from complement_forge import density

    p = DensityParams.from_alpha(Fraction(4, 5))
    monkeypatch.setattr(density, "ENCODING_CONSTANT", 5)
    dl = description_length(p, 243)
    assert (dl.length, density.encoding_constant(p)) == (27, 7)
    monkeypatch.setattr(density, "ENCODING_CONSTANT", 4)
    with pytest.raises(AssertionError, match="encoding length 27 exceeds 26.00 for n=243"):
        description_length(p, 243)


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
    cases = [
        (p, lambda u, pq=p.one_minus_alpha: mp_floor_u_times_d(pq, u))
        for p in map(DensityParams.from_alpha, (*ALPHAS, "0.95", "2/3"))
    ]
    for a, b in ((1, 2), (1, 7), (3, 4), (9, 10), (39, 40)):
        cases.append((DensityParams.from_density(Fraction(a, b)), lambda u, a=a, b=b: u * a // b))
    for p, floor_u_times_d in cases:
        ce = complement_enum(p, 3000)
        assert ce.t_shift == 0
        assert all(u - i - floor_u_times_d(u) == 0 for i, u in enumerate(ce.elements, start=1))


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
    assert rep.final == pytest.approx(dim_c * 100 / 99)
    p8 = DensityParams.from_alpha("0.8")
    rep = box_dim_bound_ca(p8, 2000)
    assert abs(rep.final - 0.2) < 1e-2


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
    # past the double range: y overflows a double, and D underflows one
    assert p8.floor_div(10**400 + 7) == mp_floor_y_over_d(p8.one_minus_alpha, 10**400 + 7, dps=450)
    for d, y in ((Fraction(1, 2), 10**400 + 1), (Fraction(2, 3), 3**700), (Fraction(1, 10**400), 7)):
        assert DensityParams.from_density(d).floor_div(y) == y * d.denominator // d.numerator


# the density workload's six points at n = 3^12, with the number of exact
# floors a_prefix makes there (all of them in best_rational)
WORKLOAD_N = 3**12
WORKLOAD_FLOORS = {"7/10": 108, "3/4": 94, "4/5": 117, "9/10": 130, "19/20": 196, "D=1/2": 0}


def _params(text):
    if text.startswith("D="):
        return DensityParams.from_density(Fraction(text[2:]))
    return DensityParams.from_alpha(Fraction(text))


def test_a_prefix_makes_logarithmically_many_exact_floors(monkeypatch):
    # the walk of A made one floor per element, about n*D of them: 42,000 to
    # 253,000 at the log-form workload points, against a bound of 400 there
    from complement_forge import density

    calls = 0
    exact = density._floor_log2_3

    def counted(j):
        nonlocal calls
        calls += 1
        return exact(j)

    monkeypatch.setattr(density, "_floor_log2_3", counted)
    # from n = 4 on: floor(1/D) alone can take two floors, and n = 3 makes 5
    for p in map(DensityParams.from_alpha, WALK_LOG_POINTS):
        for n in (4, 10, 100, 5000, WORKLOAD_N):
            calls = 0
            a_prefix(p, n)
            assert calls <= n.bit_length() ** 2, (p.describe(), n, calls)
    for text, want in WORKLOAD_FLOORS.items():
        p = _params(text)
        calls = 0
        a_prefix(p, WORKLOAD_N)
        assert calls == want, (text, calls)


def test_complement_and_box_sequence_make_logarithmically_many_comparisons(monkeypatch):
    # the walks they replaced made one exact comparison per element: more
    # than 10^4 each at n = 10^4, against a ceiling of 168 there
    from complement_forge import density

    calls = 0

    def counting(compare):
        def counted(*args):
            nonlocal calls
            calls += 1
            return compare(*args)

        return counted

    monkeypatch.setattr(density, "_floor_log2_3", counting(density._floor_log2_3))
    for text in ("7/10", "4/5", "19/20", "D=1/2"):
        for n in (2, 10, 100, 10_000):
            p = _params(text)
            if p.d_exact is not None:  # the rational form never takes a floor of log2 3
                vars(p)["le_d"] = counting(p.le_d)
            for f in (complement_enum, box_dim_bound_ca):
                calls = 0
                f(p, n)
                assert 0 < calls <= 12 * n.bit_length(), (text, f.__name__, n, calls)


def _seeded_density_params(rng):
    """A log-form or rational-D parameter set, from tiny D to D = 1."""
    kind = rng.randrange(4)
    if kind == 0:  # 1 - alpha = P/Q up to log3 2, so D in (0, 1)
        q = rng.randint(2, 10**4)
        return DensityParams.from_alpha(1 - Fraction(rng.randint(1, int(q * 0.6309)), q))
    if kind == 1:  # alpha near 1: D small, floor(1/D) up to about 10^6
        return DensityParams.from_alpha(1 - Fraction(1, rng.randint(2, 10**6)))
    if kind == 2:
        b = rng.randint(1, 10**4)
        return DensityParams.from_density(Fraction(rng.randint(1, b), b))
    return DensityParams.from_density(Fraction(1, rng.randint(1, 10**7)))


def _value_error(f, *args):
    with pytest.raises(ValueError) as exc:
        f(*args)
    return str(exc.value)


def test_a_prefix_matches_the_walk_of_a():
    rng = random.Random(16)
    cases = [(_params(text), WORKLOAD_N) for text in WORKLOAD_FLOORS]
    cases += [(_seeded_density_params(rng), rng.choice((rng.randint(1, 50), rng.randint(1, 5000)))) for _ in range(420)]
    for p, n in cases:
        assert a_prefix(p, n) == oracle_a_prefix(p, n), (p.describe(), n)
    for p in (DensityParams.from_alpha("0.8"), DensityParams.from_density(Fraction(1, 2))):
        for n in (0, -3):
            assert _value_error(a_prefix, p, n) == _value_error(oracle_a_prefix, p, n)


def test_complement_and_box_sequence_match_the_walks():
    # field for field against the walks the closed forms replaced: elements
    # and empty, and the entries with their floats
    rng = random.Random(18)
    sizes = (1, 2, 3, 10, 99, 1000, 10_000)
    fixed = [DensityParams.from_alpha(a) for a in ("0.37", "0.5", "2/3", *ALPHAS, "0.95", "0.99")]
    fixed += [DensityParams.from_density(Fraction(d)) for d in ("1", "1/2", "1/10000000", "999/1000")]
    cases = [(p, n) for p in fixed for n in sizes]
    cases += [(_seeded_density_params(rng), rng.choice(sizes[:-1]) + rng.randint(0, 50)) for _ in range(120)]
    # D = 1 - 1e-17: u_1 is about 10^17, and A holds every position below it
    near_one = DensityParams.from_alpha(Fraction(3162561947227, 8568997305610))
    cases += [(near_one, n) for n in (1, 2, 10, 300)]
    for p, n in cases:
        assert complement_enum(p, n) == oracle_complement_enum(p, n), (p.describe(), n)
        if n >= 2:
            assert box_dim_bound_ca(p, n) == oracle_box_dim_bound_ca(p, n), (p.describe(), n)
        else:
            assert _value_error(box_dim_bound_ca, p, n) == _value_error(oracle_box_dim_bound_ca, p, n)
    p = DensityParams.from_alpha("0.8")
    for n in (0, -3):
        assert _value_error(complement_enum, p, n) == _value_error(oracle_complement_enum, p, n)


def test_a_prefix_from_rational_matches_the_per_y_floors():
    rng = random.Random(61)
    cases = []
    for _ in range(2400):
        n = rng.choice((rng.randint(1, 40), rng.randint(1, 3000)))
        s = rng.choice((1, rng.randint(1, 60), rng.randint(1, 10**4), rng.randint(1, 10**30)))
        r = rng.choice(
            (
                0,
                rng.randint(1, s),  # r <= s
                s,
                rng.randint(s, 6 * s),  # floor(r/s) from 1 to 6
                s * rng.randint(1, n + 2) + rng.randint(0, s - 1),  # floor(r/s) around n
                s * rng.randint(n + 1, 10**9) + rng.randint(0, s - 1),  # r >> n
            )
        )
        g = rng.choice((1, 1, 2, 6, 10**12))  # non-reduced r/s
        cases.append((r * g, s * g, n))
    assert sum(r == 0 for r, _, _ in cases) > 100 and sum(s == 1 or r // s > n for r, s, _ in cases) > 100
    for r, s, n in cases:
        assert a_prefix_from_rational(r, s, n) == oracle_a_prefix_from_rational(r, s, n), (r, s, n)
    for r, s, n in ((-1, 3, 10), (1, 0, 10), (1, -2, 10), (3, 2, 0), (0, 0, 0)):
        assert _value_error(a_prefix_from_rational, r, s, n) == _value_error(oracle_a_prefix_from_rational, r, s, n)


def _word(p, q):
    """The p letters of p/q by definition: position m is 1 when m = floor(p*y/q)."""
    ones = {p * y // q for y in range(1, q + 1)}
    return "".join("1" if m in ones else "0" for m in range(1, p + 1))


def test_christoffel_words_follow_the_mediant_rule():
    # word(lo + hi) = word(lo).word(hi) for Farey neighbours lo = a/b < hi = c/d
    # (cb - ad = 1) in [1, 4] with b, d < 12: the rule a_prefix_from_rational
    # builds every prefix by
    pairs = 0
    for b in range(1, 12):
        for d in range(1, 12):
            for a in range(b, 4 * b + 1):
                c, rem = divmod(1 + a * d, b)
                if rem or c > 4 * d:
                    continue
                mediant = _word(a + c, b + d)
                assert mediant == _word(a, b) + _word(c, d), (a, b, c, d)
                prefix = a_prefix_from_rational(a + c, b + d, a + c)
                assert "".join("01"[prefix.contains(m)] for m in range(1, a + c + 1)) == mediant
                pairs += 1
    assert pairs == 249


def test_best_rational_encodes_the_prefix():
    # the lemma a_prefix rests on: floor(y/D) = floor(r*y/s) for y <= n
    rng = random.Random(38)
    cases = [(_seeded_density_params(rng), rng.randint(1, 2000)) for _ in range(150)]
    for n in (1, 2, 7, 60, 999):
        for m in (n - 1, n, n + 1):  # D or 1/D with denominator m, around n
            for a in {1, max(1, m // 3), max(1, m - 1)}:
                if m >= 1 and a <= m:
                    d = Fraction(a, m)
                    cases += [(DensityParams.from_density(d), n), (DensityParams.from_density(1 / (1 + d)), n)]
    for p, n in cases:
        assert verify_rational_encoding(p, *best_rational(p, n), n).ok, (p.describe(), n)


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
