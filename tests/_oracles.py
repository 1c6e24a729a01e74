"""Independent oracles for the test suite.

These deliberately avoid the library's optimized code paths: covers are
checked by double loops over pairs, floors by high-precision mpmath, rational
approximations by exhaustive scans, and net measures by enumerating every
dyadic cover.  Expected values frozen into tests were produced by these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from mpmath import mp

from complement_forge.measure import DyadicInterval, Pow2Sum


def brute_force_uncovered(k: int, base: Iterable[int], code: Iterable[int]) -> list[int]:
    """Set-cover check by enumerating all sums."""
    sums = {a + b for a in base for b in code}
    return [v for v in range(3**k) if v not in sums]


def mp_floor_y_over_d(one_minus_alpha: Fraction, y: int, dps: int = 60) -> int:
    """floor(y/D) via high-precision floating point, D = (1-alpha)*log2(3)."""
    with mp.workdps(dps):
        d = mp.mpf(one_minus_alpha.numerator) / one_minus_alpha.denominator * mp.log(3) / mp.log(2)
        return int(mp.floor(y / d))


def scan_best_rational(params, n: int) -> tuple[int, int]:
    """Largest r/s <= 1/D with s <= n by scanning every denominator; the best
    numerator for each s is floor(s/D) from the high-precision floor."""
    best = max(Fraction(mp_floor_y_over_d(params.one_minus_alpha, s), s) for s in range(1, n + 1))
    return best.numerator, best.denominator


def all_dyadic_covers(
    target: Sequence[DyadicInterval], delta: Fraction
) -> Iterator[tuple[DyadicInterval, ...]]:
    """Every antichain of dyadic intervals covering the target with mesh <= delta.

    Nodes that miss the target are never included (they cannot help a minimal
    cover), so the enumeration is exponential only in the target's bushiness.
    """
    level = max(iv.level for iv in target)
    atoms: set[int] = set()
    for iv in target:
        shift = level - iv.level
        atoms.update(range(iv.index << shift, (iv.index + 1) << shift))

    j_delta = 0
    while Fraction(1, 2**j_delta) > delta:
        j_delta += 1

    def intersects(j: int, m: int) -> bool:
        if j <= level:
            shift = level - j
            return any(m << shift <= a < (m + 1) << shift for a in atoms)
        return (m >> (j - level)) in atoms

    def covers(j: int, m: int) -> Iterator[tuple[DyadicInterval, ...]]:
        if not intersects(j, m):
            yield ()
            return
        if j >= j_delta:
            yield (DyadicInterval(j, m),)
        if j < max(level, j_delta):
            for left in covers(j + 1, 2 * m):
                for right in covers(j + 1, 2 * m + 1):
                    yield left + right

    yield from covers(0, 0)


def oracle_net_measure(target: Sequence[DyadicInterval], t: Fraction, delta: Fraction) -> Pow2Sum:
    """Exhaustive minimization over all dyadic covers (exact arithmetic)."""
    best = None
    for cover in all_dyadic_covers(target, delta):
        cost = Pow2Sum.zero()
        for iv in cover:
            cost = cost + Pow2Sum.from_power(-iv.level * Fraction(t))
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best
