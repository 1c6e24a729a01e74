import random
from fractions import Fraction

import pytest

from complement_forge.ternary import (
    BlockCode,
    EnumerationCapExceeded,
    PatternSet,
    TernaryRational,
    block_string,
    concat_codes,
    enumerate_pattern,
    int_to_ternary,
    sumset,
    ternary_to_int,
    zero_one_base,
    zero_one_pattern,
)


def test_digits_examples():
    assert int_to_ternary(7) == "21"
    assert int_to_ternary(0) == "0"
    assert int_to_ternary(7, 3) == "021"
    assert int_to_ternary(0, 3) == "000"
    assert int_to_ternary(14, 3) == "112"
    assert int_to_ternary(0, 0) == ""
    assert int_to_ternary(14, 2) == "112"  # width pads, never truncates
    assert block_string(7, 3) == "021"


def test_digits_round_trip():
    rng = random.Random(0)
    for _ in range(500):
        k = rng.randint(1, 12)
        v = rng.randrange(3**k)
        assert ternary_to_int(int_to_ternary(v, k)) == v
        assert ternary_to_int(block_string(v, k)) == v
    # sign carried separately from the digit expansion
    assert block_string(-7, 3) == "-021"
    assert block_string(-7, 3).removeprefix("-") == block_string(7, 3)


def test_ternary_int_bounds():
    with pytest.raises(ValueError):
        block_string(27, 3)
    with pytest.raises(ValueError):
        block_string(-27, 3)
    with pytest.raises(ValueError):
        int_to_ternary(-1)


def test_ternary_to_int_reads_only_digits_0_1_2():
    # int(s, 3) alone reads each of the last five as a number
    for bad in ("", "3", "1.0", "-1", "+1", "1_0", " 1", "1 "):
        with pytest.raises(ValueError):
            ternary_to_int(bad)
    assert ternary_to_int("0021") == 7


def test_enumerate_pattern_examples():
    c3 = enumerate_pattern(zero_one_pattern(3))
    assert c3.values == (0, 1, 3, 4, 9, 10, 12, 13)
    assert zero_one_base(3) == c3 and zero_one_base(3) is zero_one_base(3)
    single = enumerate_pattern(PatternSet.uniform(2, (0,)))
    assert single.values == (0,)
    # {0,1} allowed at positions 0 and 2 only
    p = PatternSet(4, (frozenset((0, 1)), frozenset((0,)), frozenset((0, 1)), frozenset((0,))))
    assert enumerate_pattern(p).values == (0, 1, 9, 10)


def test_enumerate_pattern_size_and_cap():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randint(1, 6)
        p = PatternSet(k, tuple(frozenset(rng.sample((0, 1, 2), rng.randint(1, 3))) for _ in range(k)))
        code = enumerate_pattern(p)
        assert len(code) == p.size()
        assert all(p.contains(v) for v in code.values)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_pattern(zero_one_pattern(25))  # 2^25 values; raises before enumerating


def test_sumset_examples():
    a = BlockCode.from_iterable(1, [0, 1])
    z = BlockCode.from_iterable(1, [0])
    assert sumset(a, z).values == (0, 1)
    c2 = enumerate_pattern(zero_one_pattern(2))
    b2 = BlockCode.from_iterable(2, [0, 2, 4])
    assert set(range(9)) <= set(sumset(c2, b2).values)
    two = BlockCode.from_iterable(2, [0, 2])
    assert sumset(two, two).values == (0, 2, 4)


def test_sumset_properties():
    rng = random.Random(2)
    for _ in range(50):
        k = rng.randint(1, 4)
        a = BlockCode.from_iterable(k, rng.sample(range(3**k), rng.randint(1, 3**k // 2 + 1)))
        b = BlockCode.from_iterable(k, rng.sample(range(3**k), rng.randint(1, 3**k // 2 + 1)))
        ab, ba = sumset(a, b), sumset(b, a)
        assert ab == ba
        assert len(ab) <= len(a) * len(b)
        assert ab.k == k + 1
    with pytest.raises(ValueError):
        sumset(BlockCode.from_iterable(1, [0]), BlockCode.from_iterable(2, [0]))


def test_concat_examples():
    b2 = BlockCode.from_iterable(2, [0, 2, 4])
    b4 = concat_codes(b2, b2)
    assert b4.values == (0, 2, 4, 18, 20, 22, 36, 38, 40)  # the published length-4 set
    z = BlockCode.from_iterable(1, [0])
    zz = concat_codes(z, z)
    assert zz.k == 2 and zz.values == (0,)
    b3 = BlockCode.from_iterable(3, [0, 2, 7, 12, 14])
    b5 = concat_codes(b2, b3)
    assert b5.k == 5 and len(b5) == 15
    with pytest.raises(ValueError):
        concat_codes(BlockCode.from_iterable(1, [-1, 0]), z)


def test_concat_cover_composition():
    # if a covers at k1 and b covers at k2 against the {0,1} patterns, the
    # concatenation covers at k1 + k2: checked by brute force
    from _oracles import brute_force_uncovered

    b1 = BlockCode.from_iterable(1, [0, 1])
    b2 = BlockCode.from_iterable(2, [0, 2, 4])
    for x, y in ((b1, b1), (b1, b2), (b2, b2)):
        k = x.k + y.k
        base = enumerate_pattern(zero_one_pattern(k))
        assert brute_force_uncovered(k, base.values, concat_codes(x, y).values) == []


def test_block_code_validation():
    with pytest.raises(ValueError):
        BlockCode(2, (0, 0))
    with pytest.raises(ValueError):
        BlockCode(2, (9,))
    assert 2 in BlockCode.from_iterable(2, [0, 2, 4])
    assert 3 not in BlockCode.from_iterable(2, [0, 2, 4])
    assert [block_string(v, 2) for v in BlockCode.from_iterable(2, [4, 0, 2])] == ["00", "02", "11"]


def test_rational_canonical_form():
    x = TernaryRational(6, 2)  # 6/9 = 2/3
    assert (x.numerator, x.depth) == (2, 1)
    assert TernaryRational(9, 2) == TernaryRational(1, 0)
    assert TernaryRational.from_fraction(Fraction(5, 27)) == TernaryRational(5, 3)
    with pytest.raises(ValueError):
        TernaryRational.from_fraction(Fraction(1, 2))


def test_rational_digits_and_parse():
    x = TernaryRational.from_digit_string("0.020")
    assert (x.numerator, x.depth) == (2, 2)  # 0.020 == 0.02 canonically
    assert x.digit(1) == 0 and x.digit(2) == 2 and x.digit(3) == 0
    y = TernaryRational.from_digit_string("1.2")
    assert y.as_fraction() == Fraction(5, 3)
    assert str(TernaryRational.from_digit_string("0.021")) == "0.021"
    assert str(TernaryRational.from_digit_string("-12.001")) == "-12.001"
    assert str(TernaryRational(7, 0)) == "21"
    for bad in ("0.13", "1_0.2", "0.+1", "--1", "0.1.2", "", " ", "-", ".", "-."):
        with pytest.raises(ValueError):
            TernaryRational.from_digit_string(bad)
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(0, 10)
        num = rng.randrange(3**m + 1)
        x = TernaryRational(num, m)
        rebuilt = sum(x.digit(p) * Fraction(1, 3**p) for p in range(1, m + 1))
        assert rebuilt + x.floor() == x.as_fraction()


def test_rational_arithmetic_exact():
    rng = random.Random(4)
    for _ in range(200):
        a = TernaryRational(rng.randrange(-(3**8), 3**8), rng.randint(0, 8))
        b = TernaryRational(rng.randrange(-(3**8), 3**8), rng.randint(0, 8))
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (TernaryRational(1, 0) + TernaryRational(2, 1)).as_fraction() == Fraction(5, 3)


def test_halve_truncated():
    one = TernaryRational(1, 0)
    h = one.halve_truncated(5)
    assert h.as_fraction() == Fraction(3**5 // 2, 3**5)  # 0.11111
    assert one.halve_truncated(0) == TernaryRational(0, 0)
    x = TernaryRational(4, 2)  # 4/9
    assert x.halve_truncated(2).as_fraction() == Fraction(2, 9)
    deep = TernaryRational(7, 4)
    cut = deep.halve_truncated(2)
    assert 0 <= deep.as_fraction() / 2 - cut.as_fraction() < Fraction(1, 9)
