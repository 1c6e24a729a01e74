"""Independent oracles for the test suite.

These deliberately avoid the library's optimized code paths: covers are
checked by double loops over pairs, floors by high-precision mpmath, rational
approximations by exhaustive scans, net measures by enumerating every
dyadic cover, the weighted-cover hypothesis by summing each atom's
weighted ancestors one atom at a time, cover witnesses by scanning the
base in order, decompositions by reading one ternary digit at a time, the
density set's prefixes, complement and box-dimension sequence one element
at a time, the multiplicative-weights counts with every step's targets
built as a sinked index array, the exact search with every node
bounded on entry, and the local search with every score summed afresh
from the members at every step.  Expected values frozen into
tests were produced by these.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import takewhile
from typing import Iterable, Iterator, Sequence

import numpy as np
from mpmath import mp

from complement_forge.density import (
    APrefix,
    BoxDimEstimates,
    ComplementEnumeration,
    DensityParams,
    _largest,
)
from complement_forge.fractal import FractalSpec
from complement_forge.measure import (
    DyadicInterval,
    MarstrandReport,
    Pow2Sum,
    WeightedCover,
    _atoms,
    net_measure,
)
from complement_forge import solver
from complement_forge.solver import _MWU_EPS, DUAL_SCALE, CoverInstance
from complement_forge.ternary import BlockCode, TernaryRational


def brute_force_uncovered(k: int, base: Iterable[int], code: Iterable[int]) -> list[int]:
    """Set-cover check by enumerating all sums."""
    sums = {a + b for a in base for b in code}
    return [v for v in range(3**k) if v not in sums]


def oracle_packing_counts(instance: CoverInstance, rows: list[tuple[int, ...]]) -> list[int]:
    """The multiplicative-weights counts of ``solver._packing_counts``, each
    step's targets rows[v] + base built as an index array in which every
    target off [0, 3^k) goes to one sink slot past the end."""
    size = instance.target_size
    lo, hi = instance.lo, instance.hi
    base = np.array(instance.base_set.values, dtype=np.int64)
    covering = len(set().union(*rows))
    rows = [np.array(r, dtype=np.int64) for r in rows]
    col = np.array([len(r) for r in rows], dtype=np.float64)
    length = np.ones(hi - lo, dtype=np.float64)
    total = float(covering)
    stop = 1.0 / (1.0 + _MWU_EPS)
    for _ in range(round(1 / _MWU_EPS)):
        stop *= (1.0 + _MWU_EPS) * covering
    sink = np.uint64(size)
    counts = [0] * size
    while total < stop:
        v = int(np.argmin(col))
        counts[v] += 1
        row = rows[v]
        inc = length[row - lo] * _MWU_EPS
        hit = np.minimum((row[:, None] + base).view(np.uint64), sink).ravel()
        col += np.bincount(hit, weights=np.repeat(inc, len(base)), minlength=size + 1)[:size]
        length[row - lo] += inc
        total += math.fsum(inc.tolist())
    return counts


def _bit_planes(weights: list[int]) -> list[tuple[int, int]]:
    """(j, P_j) for every bit j of the weights, P_j the bitset of targets
    whose weight has bit j set, so sum_{v in U} w_v = sum_j 2^j |U & P_j|."""
    return [
        (j, sum(1 << v for v, w in enumerate(weights) if w >> j & 1))
        for j in range(max(weights, default=0).bit_length())
    ]


def oracle_local_search(
    targets: range, rows: list[tuple[int, ...]], cover: list[int], patience: int, floor: int, seed: int
) -> tuple[list[int], int]:
    """(cover, steps taken) of ``solver._local_search`` with nothing kept
    between steps but the members, the weights and the stamps: each step
    counts every target's covering members, and sums each member's
    uniquely covered weight and each candidate's uncovered weight, from
    scratch.  It stops ``patience`` steps after the step that recorded its
    best cover (step 0 for the start)."""
    rng = random.Random(seed)
    covers: dict[int, set[int]] = {}
    for v in targets:
        for b in rows[v]:
            covers.setdefault(b, set()).add(v)
    forced = {rows[v][0] for v in targets if len(rows[v]) == 1}
    weight = dict.fromkeys(targets, 1)
    stamp = dict.fromkeys(covers, 0)
    members = set(cover)
    best, best_step = list(cover), 0

    def uncovered() -> list[int]:
        return [v for v in targets if not any(v in covers[b] for b in members)]

    def drop(added, taken):
        count = {v: sum(v in covers[b] for b in members) for v in targets}
        unique = {b: sum(weight[v] for v in covers[b] if count[v] == 1) for b in members}
        droppable = [b for b in members if b != added and b not in forced]
        if not droppable:
            return None
        b = min(droppable, key=lambda b: (unique[b], stamp[b], b))
        members.remove(b)
        stamp[b] = taken
        return b

    added, taken = None, 0
    while True:
        while not uncovered():
            if len(members) < len(best):
                best, best_step = sorted(members), taken
            if len(best) <= floor or drop(added, taken) is None:
                return best, taken
        if taken == best_step + patience:
            return best, taken
        taken += 1
        dropped = drop(added, taken)
        if dropped is None:
            return best, taken
        open_targets = uncovered()
        v = open_targets[rng.randrange(len(open_targets))]
        gain = {b: sum(weight[t] for t in covers[b] if t in open_targets) for b in rows[v]}
        added = min((b for b in rows[v] if b != dropped), key=lambda b: (-gain[b], stamp[b], b))
        members.add(added)
        stamp[added] = taken
        for t in uncovered():
            weight[t] += 1


def oracle_exact_search(
    instance: CoverInstance, max_nodes: int | None, split: bool = True
) -> tuple[tuple[int, ...], str, int, bool]:
    """(solution, optimal, nodes, budget_exhausted) of the branch and bound
    in ``solver.exact_min_complement``, run with no clock the way it ran
    before children were bounded in their parents: every child is a call
    that counts itself and tests both bounds on entry, the dual bound
    summing the uncovered weight from the bit planes at every node, and the
    weights are gated and raised to a maximal dual against the coverage
    bitsets.  The targets split into their residue classes mod g, the gcd
    of a - a_min over the base (one class when ``split`` is false), each
    searched from its share of the greedy cover in turn, under one node
    count whose root is counted once; the classes' roots are bounded
    uncounted.  The node that ends a class's first run of
    ``solver._STALL`` nodes without a better cover runs the local search
    from the class's cover, down to the class's root bound and with one
    step of patience per target of the class, before it is bounded.  For
    the {0,1} base on a named range, each class's root bound also takes
    the digit-split floor of :func:`oracle_digit_split_floor`, and a class
    search ends once its cover meets its root bound.  It shares the greedy
    incumbent, the translate table, the multiplicative-weights counts and
    the local search with the solver, which are checked on their own."""
    return _oracle_search(instance, max_nodes, split, oracle_digit_split_floor(instance))[:4]


def _zero_one_values(k: int) -> tuple[int, ...]:
    """The {0,1}-digit blocks of length k, one subset of the places each."""
    return tuple(sorted(sum(3**i for i in range(k) if s >> i & 1) for s in range(2**k)))


def oracle_digit_split_floor(instance: CoverInstance) -> int:
    """The lower bound ceil(3 m / 2) from the least cover m one level down,
    for the {0,1} base on [0, 3^k) or (-3^k, 3^k), 0 for any other
    instance.  m is proven by this oracle's own search, one level at a time
    from block length 1 on the same range, each level under
    ``solver._CHAIN_NODES`` nodes and the floor of the level below; from
    the first level that does not finish, m is that level's root bound, and
    past it ceil(3 m / 2) of the level below."""
    k, size = instance.k, instance.target_size
    signed = (instance.lo, instance.hi) == (1 - size, size)
    if instance.base_set.values != _zero_one_values(k) or not (signed or (instance.lo, instance.hi) == (0, size)):
        return 0
    m, proving = 0, True
    for j in range(1, k):
        floor = -(-3 * m // 2)
        if proving:
            level = CoverInstance(j, BlockCode(j, _zero_one_values(j)), lo=1 - 3**j if signed else 0, hi=3**j)
            solution, _, _, exhausted, root = _oracle_search(level, solver._CHAIN_NODES, True, floor)
            proving = not exhausted
            m = root if exhausted else len(solution)
        else:
            m = floor
    return -(-3 * m // 2)


def _oracle_search(
    instance: CoverInstance, max_nodes: int | None, split: bool, floor0: int
) -> tuple[tuple[int, ...], str, int, bool, int]:
    """:func:`oracle_exact_search` from the floor ``floor0``, returning the
    sum of the classes' root bounds as well."""
    size = instance.target_size
    full = (1 << size) - 1
    base_len = len(instance.base_set)
    a_min = instance.base_set.values[0]
    g = (math.gcd(*(a - a_min for a in instance.base_set.values)) or 1) if split else 1
    parts: list[list[int]] = [[] for _ in range(g)]
    for b in solver.greedy_complement(instance).solution.values:
        parts[(b + a_min) % g].append(b)
    offset = -instance.lo
    table = solver._translate_table(instance)
    rows = table.rows
    bmask = sum(1 << a for a in instance.base_set.values)
    cover = {b: (bmask << b if b >= 0 else bmask >> -b) & full for b in set().union(*rows)}
    cands_of = [tuple((b, cover[b]) for b in row) for row in rows]
    weights = [c * DUAL_SCALE for c in solver._packing_counts(instance, table)]
    planes = _bit_planes(weights)

    def weight_of(mask: int) -> int:
        return sum((mask & p).bit_count() << j for j, p in planes)

    heaviest = max(weight_of(c) for c in cover.values())
    if heaviest > DUAL_SCALE:
        weights = [w * DUAL_SCALE // heaviest for w in weights]
        planes = _bit_planes(weights)
    # the maximal pass, read off the coverage bitsets: raise each target, the
    # least covered first, by the least slack of the translates covering it
    loads = {b: weight_of(c) for b, c in cover.items()}
    covering = [[b for b, c in cover.items() if c >> v & 1] for v in range(instance.target_size)]
    for v in sorted(range(instance.target_size), key=lambda v: (len(covering[v]), v)):
        slack = DUAL_SCALE - max(loads[b] for b in covering[v])
        weights[v] += slack
        for b in covering[v]:
            loads[b] += slack
    planes = _bit_planes(weights)
    nodes = 1  # the root, shared by the classes
    stall = 0  # the node that runs the local search; 0 once it has run

    class Exhausted(Exception):
        pass

    class Met(Exception):
        """The class's cover has met its root bound."""

    def search(uncovered: int, chosen: list[int], banned: int, counted: bool = True) -> None:
        nonlocal nodes, stall
        if counted:
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise Exhausted
            if nodes == stall:
                stall = 0
                solver._local_search(targets, table, best, len(targets), floor, solver._LOCAL_SEED)
                if len(best) <= floor:
                    raise Met
        if not uncovered:
            if len(chosen) < len(best):
                best[:] = sorted(chosen)
                if len(best) <= floor:
                    raise Met
                if stall:
                    stall = nodes + solver._STALL
            return
        need = len(best) - len(chosen)
        if -(-uncovered.bit_count() // base_len) >= need or -(-weight_of(uncovered) // DUAL_SCALE) >= need:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        cands = []
        for b, c in cands_of[v]:
            if not banned >> (b + offset) & 1:
                cu = c & uncovered
                cands.append((-cu.bit_count(), b, cu))
        cands.sort()
        kept: list[tuple[int, int]] = []
        for _, b, cu in cands:
            if all(cu & ~k for _, k in kept):
                kept.append((b, cu))
        for b, c in kept:
            chosen.append(b)
            search(uncovered & ~c, chosen, banned)
            chosen.pop()
            banned |= 1 << (b + offset)

    # each class's root bound; the digit-split floor bounds the whole cover,
    # so it bounds a class only when there is one
    roots = []
    for r in range(g):
        targets = range(r, size, g)
        dual = -(-weight_of(sum(1 << v for v in targets)) // DUAL_SCALE)
        roots.append(max(-(-len(targets) // base_len), dual, floor0 if g == 1 else 0))
    try:
        if max_nodes is not None and nodes > max_nodes:
            raise Exhausted
        for r, best in enumerate(parts):
            targets, floor = range(r, size, g), roots[r]
            if floor >= len(best):
                continue
            stall = nodes + solver._STALL
            try:
                search(sum(1 << v for v in targets), [], 0, counted=False)
            except Met:
                pass
        exhausted = False
    except Exhausted:
        exhausted = True
    solution = tuple(sorted(b for part in parts for b in part))
    return solution, "unknown" if exhausted else "proven-optimal", nodes, exhausted, sum(roots)


def mp_floor_y_over_d(one_minus_alpha: Fraction, y: int, dps: int = 60) -> int:
    """floor(y/D) via high-precision floating point, D = (1-alpha)*log2(3)."""
    with mp.workdps(dps):
        d = mp.mpf(one_minus_alpha.numerator) / one_minus_alpha.denominator * mp.log(3) / mp.log(2)
        return int(mp.floor(y / d))


def mp_floor_u_times_d(one_minus_alpha: Fraction, u: int, dps: int = 60) -> int:
    """floor(u*D) via high-precision floating point, D = (1-alpha)*log2(3)."""
    with mp.workdps(dps):
        d = mp.mpf(one_minus_alpha.numerator) / one_minus_alpha.denominator * mp.log(3) / mp.log(2)
        return int(mp.floor(u * d))


def scan_best_rational(params, n: int) -> tuple[int, int]:
    """Largest r/s <= 1/D with s <= n by scanning every denominator; the best
    numerator for each s is floor(s/D) from the high-precision floor."""
    best = max(Fraction(mp_floor_y_over_d(params.one_minus_alpha, s), s) for s in range(1, n + 1))
    return best.numerator, best.denominator


def _bitmap(n: int, positions: Iterable[int]) -> bytes:
    """Bitmap of the given positions, all in [1, n]: bit m % 8 of byte m // 8."""
    buf = bytearray((n >> 3) + 1)
    for k in positions:
        buf[k >> 3] |= 1 << (k & 7)
    return bytes(buf)


def oracle_a_prefix(params: DensityParams, n: int) -> APrefix:
    """A's prefix on [1, n] from the walk of A, one exact comparison per
    element."""
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    return APrefix(n, _bitmap(n, takewhile(lambda k: k <= n, params.a_walk())))


def oracle_a_prefix_from_rational(r: int, s: int, n: int) -> APrefix:
    """Positions floor(r*y/s) in [1, n], one y at a time: y runs from
    ceil(s/r) to ((n + 1)*s - 1) // r."""
    if r < 0 or s < 1 or n < 1:
        raise ValueError("need r >= 0, s >= 1 and n >= 1")
    ys = range(-(-s // r), ((n + 1) * s - 1) // r + 1) if r else range(0)
    return APrefix(n, _bitmap(n, (r * y // s for y in ys)))


def oracle_complement_enum(params: DensityParams, count: int) -> ComplementEnumeration:
    """The first ``count`` complement elements, walked one exact comparison
    per element.  With c(u) = floor((u + 1)(1 - D)), u_i = ceil(i/(1 - D)) - 1
    is the largest u with u(1 - D) < i; u_1 is galloped from 1, and since
    ceil(x + y) is ceil(x) + ceil(y) or one less, u_(i+1) - u_i is u_1 or
    u_1 + 1."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if params.d_exact == 1:
        return ComplementEnumeration(elements=(), empty=True)
    le_d = params.le_d

    def below(u: int, i: int) -> bool:  # u(1 - D) < i
        return not le_d(u, u - i)

    step = u = _largest(lambda u: below(u, 1), 1)
    out = [u]
    for i in range(2, count + 1):
        u += step + 1 if below(u + step + 1, i) else step
        out.append(u)
    return ComplementEnumeration(elements=tuple(out), empty=False)


def oracle_box_dim_bound_ca(params: DensityParams, depth: int) -> BoxDimEstimates:
    """The covering estimates n*log2 / ((k_n - 1)*log3) with k_n taken from
    the walk of A, one exact comparison per element."""
    if depth < 2:
        raise ValueError("need depth >= 2")
    log2, log3 = math.log(2), math.log(3)
    entries = []
    for n, k in zip(range(1, depth + 1), params.a_walk()):
        if k < 2:
            continue
        entries.append((n, k, n * log2 / ((k - 1) * log3)))
    return BoxDimEstimates(tuple(entries))


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


def oracle_marstrand_check(
    cover: WeightedCover, target: Sequence[DyadicInterval], c: Fraction, s: Fraction
) -> MarstrandReport:
    """The weighted-cover check by a per-atom ancestor walk: every atom adds
    up the weights on its level + 1 ancestors, and every node's weight times
    2^(-j*s) is added to lhs on its own."""
    c = Fraction(c)
    s = Fraction(s)
    level, atoms = _atoms(target)
    weight_at: dict[tuple[int, int], Pow2Sum] = {}
    for iv, w in cover.items:
        node = (iv.level, iv.index)
        weight_at[node] = weight_at[node] + w if node in weight_at else w
    c_val = Pow2Sum.from_fraction(c)
    failing = []
    for m in sorted(atoms):
        total = Pow2Sum.zero()
        for j in range(level + 1):
            w = weight_at.get((j, m >> (level - j)))
            if w is not None:
                total = total + w
        if not (c_val < total):
            failing.append(m)
    lhs = Pow2Sum.zero()
    for (j, _), w in weight_at.items():
        lhs = lhs + w * Pow2Sum.from_power(-j * s)
    if failing:
        return MarstrandReport(False, tuple(failing), lhs, Pow2Sum.zero(), None)
    rhs = net_measure(target, s, cover.delta).scale(c)
    return MarstrandReport(True, (), lhs, rhs, rhs <= lhs)


def oracle_within_bound(params: DensityParams, f: int, count: int, u_f: int) -> bool:
    """The mass-ratio verdict taken in floats: log(ratio) against log(bound),
    ratio = count * 2^-(f-1) / (2 * 3^-u_f)^beta and bound = 8 / 2^beta,
    with a 1e-9 slack."""
    beta = params.beta_float
    log2, log3 = math.log(2), math.log(3)
    ratio_log = math.log(count) - (f - 1) * log2 - beta * (log2 - u_f * log3)
    return ratio_log <= math.log(8) - beta * log2 + 1e-9


def oracle_witness(cert: solver.CoverCertificate, v: int) -> tuple[int, int]:
    """The least a of the base, scanned in order, with v - a in the code;
    KeyError off the target or when no a works."""
    if not 0 <= v < cert.instance.target_size:
        raise KeyError(v)
    code = set(cert.solution.values)
    for a in cert.instance.base_set.values:
        if v - a in code:
            return (a, v - a)
    raise KeyError(v)


def oracle_decompose(x: TernaryRational, spec: FractalSpec, depth: int) -> dict:
    """The stage-wise split of x read one ternary digit at a time, each
    witness found by scanning the base set, and each half summed one block at
    a time.  x = 1 is read as 0.222... cut at the consumed depth."""
    digits_needed = spec.digit_depth(depth)
    if x.as_fraction() == 1:
        x = TernaryRational(3**digits_needed - 1, digits_needed)
    a_blocks, b_blocks, offsets = [], [], []
    pos = 0
    for i in range(1, depth + 1):
        stage = spec.stage_at(i)
        v = 0
        for j in range(1, stage.n + 1):
            v = v * 3 + x.digit(pos + j)
        pos += stage.n
        a, b = oracle_witness(stage.certificate, v)
        a_blocks.append(a)
        b_blocks.append(b)
        offsets.append(pos)

    def block_sum(blocks):
        total = TernaryRational(0, 0)
        for v, m in zip(blocks, offsets):
            total = total + TernaryRational(v, m)
        return total

    return {
        "x": x,
        "a_blocks": tuple(a_blocks),
        "b_blocks": tuple(b_blocks),
        "stage_offsets": tuple(offsets),
        "half_c": block_sum(a_blocks),
        "half_e": block_sum(b_blocks),
    }


def oracle_reflect_decompose(r: TernaryRational, spec: FractalSpec, depth: int) -> dict:
    """The reflection of r through ``oracle_decompose``: split (2 - r)/2, cut
    at the consumed depth, and double both halves."""
    digits = spec.digit_depth(depth)
    w = TernaryRational(2, 0) - r
    u = w.halve_truncated(digits)
    dec = oracle_decompose(u, spec, depth)
    x = dec["half_c"].scale(2)
    return {
        "r": r,
        "digit_depth": digits,
        "decomposition": dec,
        "cantor_point": x,
        "e_point": dec["half_e"].scale(2),
        "translated_point": x + r,
        "residual": w - u.scale(2),
    }
