import collections
import decimal
import gc
import io
import itertools
import math
import random
from fractions import Fraction

import pytest

from _oracles import oracle_marstrand_check, oracle_net_measure
import complement_forge.measure as measure_module
from complement_forge.density import DensityParams
from complement_forge.measure import (
    LEVEL_CAP,
    DyadicInterval,
    FrequencyVector,
    Pow2Sum,
    WeightedCover,
    box_dim_estimate,
    cancel_digits,
    entropy3,
    marstrand_check,
    mass_ratio,
    net_measure,
    random_marstrand_trial,
    write_estimates_csv,
)

DIM_C = math.log(2) / math.log(3)


# -- exact algebraic values ------------------------------------------------------


def test_pow2sum_ring():
    rt = Pow2Sum.from_power(Fraction(1, 2))
    assert rt * rt == Pow2Sum.from_fraction(2)
    assert Pow2Sum.from_power(Fraction(-3, 2)) * Pow2Sum.from_power(Fraction(3, 2)) == Pow2Sum.from_fraction(1)
    a = Pow2Sum.from_power(Fraction(1, 10))
    b = Pow2Sum.from_power(Fraction(9, 10))
    assert a * b == Pow2Sum.from_fraction(2)


def test_pow2sum_order():
    rt = Pow2Sum.from_power(Fraction(1, 2))
    assert Pow2Sum.from_fraction(Fraction(7, 5)) < rt < Pow2Sum.from_fraction(Fraction(3, 2))
    assert not rt < rt
    assert rt <= rt
    vals = [Pow2Sum.from_power(Fraction(i, 3)) for i in range(-3, 4)]
    floats = [float(v) for v in vals]
    assert floats == sorted(floats)
    for u, v in zip(vals, vals[1:]):
        assert u < v


def test_pow2sum_sign_pell_pairs():
    # a - b*sqrt(2) = norm/(a + b*sqrt(2)) with a near 2^bits: the value is
    # about 2^-(bits+1) against coefficients of that many bits
    for bits, ((a, b), norm) in itertools.product((30, 1300), (((1, 1), -1), ((3, 2), 1))):
        while a.bit_length() < bits:
            a, b = 3 * a + 4 * b, 2 * a + 3 * b
        assert a * a - 2 * b * b == norm
        x = Pow2Sum(2, [a, -b])
        assert x.sign() == norm
        assert Pow2Sum(2, [-a, b]).sign() == -norm
        # a + b*sqrt(2) = 2a - norm/(a + b*sqrt(2)) ~ 2a - norm/(2a), to 4x the bits
        value = Fraction(norm, 2 * a - Fraction(norm, 2 * a))
        scaled = x.scale(2 ** a.bit_length())  # an O(1) value: float and repr stay finite
        for v, exact in ((x, value), (scaled, value * 2 ** a.bit_length())):
            assert float(v) == pytest.approx(float(exact), rel=1e-15, abs=0.0)
            # beyond the double range (x at 1300 bits underflows) repr keeps the value
            shown = f"{float(exact):.6g}" if float(exact) else _sci6(exact)
            assert repr(v) == f"Pow2Sum(~{shown})"
        if bits == 1300:  # about 2^1299: beyond the double range, where float() overflows
            big = x.scale(2**2600)
            assert repr(big) == f"Pow2Sum(~{_sci6(value * 2**2600)})"


def _sci6(x: Fraction) -> str:
    """x to six significant digits in the scientific form of "%.6g", via decimal."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
    mantissa, _, exp = format(d, ".5e").partition("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{int(exp):+03d}"


def test_pow2sum_repr_matches_double_formatting():
    rng = random.Random(11)
    for _ in range(500):
        x = rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300)
        c = Fraction(x)
        assert repr(Pow2Sum.from_fraction(c)) == f"Pow2Sum(~{x:.6g})"
    assert repr(Pow2Sum.zero()) == "Pow2Sum(~0)"
    assert repr(Pow2Sum.from_fraction(Fraction(999_9995, 10))) == "Pow2Sum(~1e+06)"


def test_pow2sum_equality_across_unreduced_denominators():
    half = Pow2Sum.from_fraction(Fraction(2, 4))
    unreduced = Pow2Sum.from_fraction(Fraction(1, 4)).scale(2)
    assert (unreduced.nums, unreduced.den) == ((2,), 4)  # numerator and denominator keep their factor 2
    assert unreduced == half == Pow2Sum(1, [Fraction(1, 2)])
    assert unreduced != Pow2Sum.from_fraction(Fraction(1, 4))
    # 2^(-3/2) * 8 = 2 * 2^(1/2), held as (0, 8) over 4
    x = Pow2Sum.from_power(Fraction(-3, 2)).scale(8)
    assert (x.nums, x.den) == ((0, 8), 4)
    assert x == Pow2Sum(2, [0, 2]) and x != Pow2Sum(2, [2, 0])
    assert x - Pow2Sum(2, [0, 2]) == Pow2Sum.zero()


def test_pow2sum_equality_across_q_promotion():
    one = Pow2Sum.from_fraction(1)
    assert Pow2Sum(2, [1, 0]) == one and one == Pow2Sum(2, [1, 0])
    assert Pow2Sum(6, [0, 0, 0, 1, 0, 0]) == Pow2Sum.from_power(Fraction(1, 2))
    assert Pow2Sum(6, [0, 0, 0, 1, 0, 0]) != Pow2Sum.from_power(Fraction(1, 3))
    # 2^(1/2) + 2^(1/3) lives at q = 6
    total = Pow2Sum.from_power(Fraction(1, 2)) + Pow2Sum.from_power(Fraction(1, 3))
    assert total.q == 6 and total == Pow2Sum(6, [0, 0, 1, 1, 0, 0])


def test_pow2sum_coeffs_round_trip():
    rng = random.Random(12)
    for _ in range(100):
        q = rng.choice((1, 2, 3, 6))
        coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(q)]
        v = Pow2Sum(q, coeffs)
        assert v.coeffs == tuple(coeffs)
        assert all(isinstance(c, Fraction) for c in v.coeffs)
        w = v * Pow2Sum.from_power(Fraction(rng.randint(-9, 9), q)) + v.scale(Fraction(1, 3))
        assert Pow2Sum(w.q, w.coeffs) == w
    assert Pow2Sum(2, [3, -1]).coeffs == (Fraction(3), Fraction(-1))


def test_pow2sum_from_power_negative_exponents():
    assert Pow2Sum.from_power(-5) == Pow2Sum.from_fraction(Fraction(1, 32))
    assert Pow2Sum.from_power(Fraction(-7, 3)).coeffs == (0, 0, Fraction(1, 8))  # 2^-3 * 2^(2/3)
    assert Pow2Sum.from_power(Fraction(-1, 2)).coeffs == (0, Fraction(1, 2))  # 2^-1 * 2^(1/2)
    for e in (Fraction(-7, 3), Fraction(-1, 2), Fraction(-9, 10), Fraction(-4)):
        assert Pow2Sum.from_power(e) * Pow2Sum.from_power(-e) == Pow2Sum.from_fraction(1)
        assert Pow2Sum.zero() < Pow2Sum.from_power(e) < Pow2Sum.from_fraction(1)


def test_pow2sum_rational_sign_needs_no_roots(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rational value has the sign of its numerator")

    monkeypatch.setattr(measure_module, "_floor_pow2", refuse)
    a, b = 3**630, 2**1000 + 1  # about 1000 bits each
    x, y = Pow2Sum.from_fraction(Fraction(a, b)), Pow2Sum.from_fraction(Fraction(a + 1, b))
    assert (x - y).sign() == -1 and (y - x).sign() == 1 and (x - x).sign() == 0
    assert x < y and not y < x and x <= x
    assert Pow2Sum(1, [Fraction(-a, b)]).sign() == -1
    assert WeightedCover.build([(DyadicInterval(1, 0), Fraction(a, b))]).items[0][1] == x


# -- digit cancellation ------------------------------------------------------------


def test_cancel_digits_examples():
    r = cancel_digits("012")
    assert (r.t_digits, r.sum_digits) == ("200", "212")
    r = cancel_digits("0" * 6)
    assert r.t_digits == "2" * 6 and r.sum_digits == "2" * 6
    assert r.frequencies.as_tuple() == (Fraction(0), Fraction(0), Fraction(1))


def test_cancel_digits_no_zero_no_carry():
    rng = random.Random(11)
    s = "".join(rng.choice("012") for _ in range(2000))
    r = cancel_digits(s)
    assert set(r.sum_digits) <= {"1", "2"}  # never 0, never a carry digit


def test_cancel_digits_limit_frequencies():
    rng = random.Random(42)
    s = "".join(rng.choice("012") for _ in range(100_000))
    f = cancel_digits(s).frequencies
    assert float(f.p0) == 0.0
    assert abs(float(f.p1) - 1 / 3) < 1e-2
    assert abs(float(f.p2) - 2 / 3) < 1e-2


def test_entropy_examples():
    v = FrequencyVector(Fraction(0), Fraction(1, 3), Fraction(2, 3))
    assert entropy3(v) == pytest.approx(1 - (2 / 3) * DIM_C, abs=1e-15)
    assert entropy3((Fraction(1), Fraction(0), Fraction(0))) == 0.0
    assert entropy3((Fraction(1, 3),) * 3) == pytest.approx(1.0, abs=1e-15)


def test_entropy_bounds():
    rng = random.Random(12)
    for _ in range(100):
        cuts = sorted(rng.randint(0, 60) for _ in range(2))
        p = (Fraction(cuts[0], 60), Fraction(cuts[1] - cuts[0], 60), Fraction(60 - cuts[1], 60))
        h = entropy3(FrequencyVector(*p))
        assert -1e-12 <= h <= 1 + 1e-12


def test_frequency_vector_validation():
    with pytest.raises(ValueError):
        FrequencyVector(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


# -- box counting --------------------------------------------------------------------


def test_box_dim_estimators():
    cantor = box_dim_estimate(lambda n: 2**n, range(1, 40))
    assert all(abs(e - DIM_C) < 1e-12 for _, _, e in cantor.entries)
    interval = box_dim_estimate(lambda n: 3**n, range(1, 20))
    assert interval.final == pytest.approx(1.0, abs=1e-12)
    # blocks of length 3 drawn from a 5-element code: exponent log5/log27
    e3 = box_dim_estimate(lambda i: 5 ** (i // 3), [3 * i for i in range(1, 12)])
    assert e3.final == pytest.approx(math.log(5) / math.log(27), abs=1e-12)


def test_estimates_csv_format():
    est = box_dim_estimate(lambda n: 2**n, [1, 2])
    buf = io.StringIO()
    write_estimates_csv(buf, est)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "scale,count,estimate"
    assert lines[1].startswith("0.333333333333,2,")
    assert len(lines) == 3


# -- net measure -----------------------------------------------------------------------


def test_net_measure_lebesgue():
    assert net_measure([DyadicInterval(0, 0)], Fraction(1), Fraction(1)) == Pow2Sum.from_fraction(1)
    union = [DyadicInterval(3, 0), DyadicInterval(3, 1), DyadicInterval(2, 3)]
    got = net_measure(union, Fraction(1), Fraction(1))
    assert got == Pow2Sum.from_fraction(Fraction(1, 2))
    # coarse mesh cannot change the Lebesgue value of a union
    assert net_measure(union, Fraction(1), Fraction(1, 8)) == got


def test_net_measure_single_interval():
    for j, m in ((0, 0), (2, 1), (5, 17)):
        got = net_measure([DyadicInterval(j, m)], Fraction(1, 2), Fraction(1, 2**j))
        assert got == Pow2Sum.from_power(Fraction(-j, 2))


def test_net_measure_mesh_monotone():
    rng = random.Random(13)
    for _ in range(20):
        level = rng.randint(2, 6)
        atoms = rng.sample(range(2**level), rng.randint(1, 2**level))
        target = [DyadicInterval(level, m) for m in atoms]
        t = Fraction(rng.randint(0, 4), 4)
        coarse = net_measure(target, t, Fraction(1))
        fine = net_measure(target, t, Fraction(1, 2**level))
        assert coarse <= fine


def test_net_measure_matches_oracle():
    rng = random.Random(14)
    for trial in range(30):
        level = rng.randint(2, 5)
        n_atoms = rng.randint(1, min(8, 2**level))
        atoms = rng.sample(range(2**level), n_atoms)
        target = [DyadicInterval(level, m) for m in atoms]
        t = rng.choice((Fraction(1), Fraction(1, 2), Fraction(7, 10)))
        delta = Fraction(1, 2 ** rng.randint(0, level))
        assert net_measure(target, t, delta) == oracle_net_measure(target, t, delta)


def test_net_measure_sparse_level8():
    rng = random.Random(15)
    atoms = rng.sample(range(2**8), 5)
    target = [DyadicInterval(8, m) for m in atoms]
    got = net_measure(target, Fraction(7, 10), Fraction(1, 4))
    assert got == oracle_net_measure(target, Fraction(7, 10), Fraction(1, 4))


def test_net_measure_leaves_no_garbage_cycles():
    # the dynamic program must not leave a reference cycle per call (a
    # self-referencing recursive closure did, holding the sorted atoms)
    rng = random.Random(3)
    target = [DyadicInterval(10, m) for m in sorted(rng.sample(range(2**10), 342))]
    expected = net_measure(target, Fraction(1, 2), Fraction(1, 8))
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            assert net_measure(target, Fraction(1, 2), Fraction(1, 8)) == expected
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_net_measure_validation():
    with pytest.raises(ValueError):
        net_measure([], Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        net_measure([DyadicInterval(1, 0)], Fraction(3, 2), Fraction(1))
    with pytest.raises(ValueError):
        DyadicInterval(2, 4)
    with pytest.raises(ValueError):
        DyadicInterval(40, 0)


# -- the weighted-cover inequality ---------------------------------------------------


def test_marstrand_single_interval():
    iv = DyadicInterval(2, 1)
    cover = WeightedCover.build([(iv, Fraction(3))])
    rep = marstrand_check(cover, [iv], Fraction(2), Fraction(1))
    assert rep.outcome == "pass"
    assert rep.lhs == Pow2Sum.from_fraction(Fraction(3, 4))
    assert rep.rhs == Pow2Sum.from_fraction(Fraction(2, 4))


def test_marstrand_hypothesis_violated_is_distinguished():
    iv = DyadicInterval(2, 1)
    cover = WeightedCover.build([(iv, Fraction(1))])
    rep = marstrand_check(cover, [iv], Fraction(5), Fraction(1))
    assert rep.outcome == "hypothesis-violated"
    assert rep.conclusion_ok is None


def test_marstrand_randomized_never_fails():
    rng = random.Random(0)
    held = 0
    for i in range(200):
        s = Fraction(1, 2) if i % 2 else Fraction(1)
        rep = random_marstrand_trial(rng, 8, s)
        if rep.hypothesis_ok:
            held += 1
            assert rep.conclusion_ok, f"trial {i}: conclusion failed with hypothesis held"
    assert held > 20  # the generator must actually exercise the applicable case


def _cross_check_case(rng: random.Random, irrational: bool):
    """A seeded cover against a target: ancestors of some atoms (others get
    none), repeated intervals, intervals deeper than the atoms, and noise."""
    level = rng.randint(1, 6)
    atoms = rng.sample(range(2**level), rng.randint(1, min(2**level, 12)))
    target = [DyadicInterval(level, m) for m in atoms]
    if rng.random() < 0.3:  # a coarser piece of the target too
        j = rng.randint(0, level)
        target.append(DyadicInterval(j, rng.randrange(2**j)))

    def weight():
        w = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        if irrational and rng.random() < 0.6:
            root = Pow2Sum.from_power(rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3))))
            return root.scale(w)
        return w

    items = []
    for m in atoms:
        if rng.random() < 0.85:
            j = rng.randint(0, level)
            items.append((DyadicInterval(j, m >> (level - j)), weight()))
    for _ in range(rng.randint(0, 3)):  # repeats, with their own weights
        if items:
            items.append((rng.choice(items)[0], weight()))
    for _ in range(rng.randint(0, 3)):  # deeper than the atoms, or anywhere
        j = rng.randint(level + 1, level + 3) if rng.random() < 0.5 else rng.randint(0, level)
        items.append((DyadicInterval(j, rng.randrange(2**j)), weight()))
    if not items:
        items.append((DyadicInterval(level + 1, 0), weight()))
    c = Fraction(rng.randint(1, 12), rng.randint(1, 6))
    s = rng.choice((Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)))
    return WeightedCover.build(items), target, c, s


def test_marstrand_check_matches_per_atom_reference():
    rng = random.Random(41)
    seen = collections.Counter()
    for i in range(400):
        cover, target, c, s = _cross_check_case(rng, irrational=i % 2 == 1)
        got, want = marstrand_check(cover, target, c, s), oracle_marstrand_check(cover, target, c, s)
        assert got.hypothesis_ok == want.hypothesis_ok
        assert got.failing_atoms == want.failing_atoms
        assert got.lhs == want.lhs and got.rhs == want.rhs
        assert got.conclusion_ok == want.conclusion_ok
        level = max(iv.level for iv in target)
        weighted = {(iv.level, iv.index) for iv, _ in cover.items}
        nodes = [(iv.level, iv.index) for iv, _ in cover.items]
        seen["held", i % 2] += got.hypothesis_ok
        seen["failed", i % 2] += not got.hypothesis_ok
        seen["deeper"] += any(j > level for j, _ in weighted)
        seen["repeated"] += len(nodes) > len(weighted)
        seen["unweighted atom"] += any(
            all((j, m >> (level - j)) not in weighted for j in range(level + 1)) for m in got.failing_atoms
        )
    # every kind of case the reference is checked on occurs many times
    assert min(seen.values()) >= 20, seen


def _report_fields(rep):
    return (rep.hypothesis_ok, rep.failing_atoms, rep.lhs, rep.rhs, rep.conclusion_ok, float(rep.lhs), repr(rep.rhs))


def test_seeded_trials_report_what_the_pow2sum_reference_reports(monkeypatch):
    # the trials' rational weights are summed as integers over one common
    # denominator; each report, and that of the same cover with one weight
    # times 2^(1/3) (summed as Pow2Sum), equals the Pow2Sum-only reference
    checked = []

    def recording(cover, target, c, s):
        rep = marstrand_check(cover, target, c, s)
        first, weight = cover.items[0]
        scaled = weight * Pow2Sum.from_power(Fraction(1, 3))
        irrational = WeightedCover(((first, scaled), *cover.items[1:]), cover.delta)
        for cov, got in ((cover, rep), (irrational, marstrand_check(irrational, target, c, s))):
            assert _report_fields(got) == _report_fields(oracle_marstrand_check(cov, target, c, s))
            checked.append(got.hypothesis_ok)
        return rep

    monkeypatch.setattr(measure_module, "marstrand_check", recording)
    rng = random.Random(30)
    for i in range(160):
        random_marstrand_trial(rng, 8, (Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(0))[i % 4])
    assert len(checked) == 320
    assert min(checked.count(True), checked.count(False)) >= 30


def test_mass_ratio_enumerates_the_complement_once_per_parameter_set(monkeypatch):
    calls = collections.Counter()
    real = measure_module.complement_enum

    def counting(params, count):
        calls[params] += 1
        return real(params, count)

    monkeypatch.setattr(measure_module, "complement_enum", counting)
    measure_module._complement_prefix.cache_clear()
    rng = random.Random(5)
    alphas = [DensityParams.from_alpha(a) for a in ("0.8", "0.9")]
    for i in range(40):
        mass_ratio(alphas[i % 2], [rng.randint(0, 1) for _ in range(15)], range(5, 16))
    assert calls == {alphas[0]: 1, alphas[1]: 1}


def test_weighted_cover_validation():
    iv = DyadicInterval(2, 1)
    assert WeightedCover.build([(iv, 1), (DyadicInterval(4, 0), 2)]).delta == Fraction(1, 4)
    with pytest.raises(ValueError, match="mesh bound"):
        WeightedCover.build([(iv, 1), (DyadicInterval(1, 0), 2)], delta=Fraction(1, 4))
    with pytest.raises(ValueError, match="positive"):
        WeightedCover.build([(iv, 1), (DyadicInterval(3, 0), Pow2Sum(2, [1, -1]))])
    with pytest.raises(ValueError, match="positive"):
        WeightedCover.build([(iv, 0)])
    with pytest.raises(ValueError):
        WeightedCover.build([])


def test_random_marstrand_trial_rejects_levels_outside_the_cap():
    # rng=None: the check must come before any sampling
    for bad in (0, 1, LEVEL_CAP + 1, 30):
        with pytest.raises(ValueError, match="max_level"):
            random_marstrand_trial(None, bad, Fraction(1))


def test_marstrand_square_family_shape():
    # weights |S|^t from dyadic squares over their fiber intervals, s = 1:
    # a budgeted gamma-sum forces small Lebesgue measure of the heavy set
    rng = random.Random(16)
    gamma = Fraction(17, 10)
    t = gamma - 1
    for k in (2, 3, 4):
        budget = Pow2Sum.from_power(Fraction(1, 2)).scale(Fraction(1, 2 ** (k + 1)))  # 2^(1/2)/2^(k+1), c = 1
        level = 6
        squares = []
        total = Pow2Sum.zero()
        while True:
            j = rng.randint(3, level)
            iv = DyadicInterval(j, rng.randrange(2**j))
            # square diameter sqrt(2)*2^-j, so |S|^gamma = 2^(gamma/2 - j*gamma)
            gcost = Pow2Sum.from_power(gamma / 2 - j * gamma)
            if not (total + gcost < budget):
                break
            total = total + gcost
            squares.append((iv, Pow2Sum.from_power(t / 2 - j * t)))  # weight |S|^t
        if not squares:
            continue
        # heavy set: atoms whose weight sum exceeds c = 1
        level_max = max(iv.level for iv, _ in squares)
        heavy = []
        for m in range(2**level_max):
            atom = DyadicInterval(level_max, m)
            s_w = Pow2Sum.zero()
            for iv, w in squares:
                if iv.contains(atom):
                    s_w = s_w + w
            if Pow2Sum.from_fraction(1) < s_w:
                heavy.append(atom)
        if not heavy:
            continue
        rep = marstrand_check(WeightedCover.build(squares), heavy, Fraction(1), Fraction(1))
        assert rep.outcome == "pass"
        # the chain: Lebesgue measure of the heavy set stays under 2^-(k+1)
        leb = net_measure(heavy, Fraction(1), WeightedCover.build(squares).delta)
        assert leb < Pow2Sum.from_fraction(Fraction(1, 2 ** (k + 1)))


# -- mass-distribution ratios ------------------------------------------------------------


def test_mass_ratio_closed_form_half():
    params = DensityParams.from_density(Fraction(1, 2))
    rep = mass_ratio(params, [0] * 12, levels=range(2, 13))
    assert rep.t_shift == 0
    for e in rep.entries:
        # mu[N_delta(0)] <= 2 * 2^-(f-1), i.e. at most 2 intervals meet the ball
        assert e.meeting_intervals <= 2
        assert e.within_bound
    assert rep.all_within


def test_mass_ratio_beta_zero_bound_is_eight():
    # at beta = 0 the ratio is a measure (<= 1) and the bound is 8
    assert 8.0 == pytest.approx(8 * 3**0 / 2**0)
    params = DensityParams.from_density(Fraction(1, 2))
    rep = mass_ratio(params, [1] * 12, levels=range(3, 10))
    for e in rep.entries:
        mu = e.meeting_intervals * 2.0 ** -(e.f - 1)
        assert mu <= 1.0 <= 8.0


def test_mass_ratio_alpha_08_samples():
    params = DensityParams.from_alpha("0.8")
    rng = random.Random(17)
    for _ in range(25):
        bits = [rng.randint(0, 1) for _ in range(15)]
        rep = mass_ratio(params, bits, range(5, 16))
        assert rep.max_meeting <= 2 and rep.all_within


def test_mass_ratio_validation():
    params = DensityParams.from_alpha("0.8")
    with pytest.raises(ValueError):
        mass_ratio(params, [0, 2], [2])
    with pytest.raises(ValueError):
        mass_ratio(params, [0] * 4, [1])
    with pytest.raises(ValueError):
        mass_ratio(DensityParams.from_density(Fraction(1)), [0] * 4, [2])

def test_marstrand_check_refuses_exponents_outside_the_unit_interval():
    # refused whether or not the hypothesis holds (c = 1/2 holds, c = 5 fails)
    target = [DyadicInterval(1, 0)]
    cover = WeightedCover.build([(DyadicInterval(1, 0), Fraction(1))])
    for c in (Fraction(1, 2), Fraction(5)):
        for s in (Fraction(2), Fraction(-1, 2)):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                marstrand_check(cover, target, c, s)
