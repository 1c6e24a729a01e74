"""The four benchmark workloads: search, density, cli-session and certify.

Each workload has a ``setup`` (one set-up repetition, returning the state a
pass needs) and a ``run_pass`` that runs the workload's fixed operation list
once.  Every operation is one timed program call followed by untimed output
checks; a failed check, an unexpected exit code or an exception marks the
operation failed.  All inputs come from the run's seed.

Program functions are always called through their module
(``solver.exact_min_complement``), so the tracer's patches see every call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from complement_forge import catalog, density, fractal, measure, solver, ternary


@dataclass
class Context:
    root: Path  # checkout root; the program is imported from root/src
    work: Path  # this run's scratch directory, inside the checkout
    seed: int
    traced: bool = False  # cli-session: run commands under the tracing launcher
    dumps: list = field(default_factory=list)  # span dumps of traced children


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class PassResult:
    times: list[float]  # one per operation
    failures: list[str]  # one per failed operation
    counts: dict
    peak_rss_mib: Optional[float] = None  # cli-session: max over its children


def run_ops(ops: list[Op]) -> tuple[list[float], list[str], list[object]]:
    """Time each call, then check its output outside the timed region."""
    times, failures, outputs = [], [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            times.append(time.perf_counter() - t0)
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            outputs.append(None)
            continue
        times.append(time.perf_counter() - t0)
        try:
            problems = op.check(out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{op.label}: {'; '.join(problems)}")
        outputs.append(out)
    return times, failures, outputs


# -- independent checkers ------------------------------------------------------


def pattern_values(allowed) -> list[int]:
    """Every block a digit pattern generates, by plain enumeration."""
    return [sum(d * 3**j for j, d in enumerate(ds)) for ds in itertools.product(*allowed)]


def cover_problems(k: int, base: list[int], lo: int, hi: int, values) -> list[str]:
    """Does base + values cover [0, 3^k) using translates in [lo, hi)?"""
    code = np.asarray(list(values), dtype=np.int64)
    if code.size == 0 or code.min() < lo or code.max() >= hi:
        return ["translate outside the allowed range"]
    n = 3**k
    sums = (np.asarray(base, dtype=np.int64)[:, None] + code[None, :]).ravel()
    hit = np.zeros(n, dtype=bool)
    hit[sums[(sums >= 0) & (sums < n)]] = True
    missing = n - int(hit.sum())
    return [f"{missing} of {n} targets uncovered"] if missing else []


def digits_allowed(value: int, allowed) -> bool:
    for digits in allowed:
        value, d = divmod(value, 3)
        if d not in digits:
            return False
    return value == 0


def split_problems(splits, x: Fraction) -> list[str]:
    """Check a stage-wise split of x: per stage (a, b, digit offset, allowed
    digits by place, code), a must fit the pattern, b must be a code value,
    and the sum of (a + b) / 3^offset must be x exactly."""
    problems = []
    total = Fraction(0)
    for i, (a, b, offset, allowed, code) in enumerate(splits, start=1):
        if not digits_allowed(a, allowed) or b not in code:
            problems.append(f"stage {i}: {a} + {b} is not pattern + code")
        total += Fraction(a + b, 3**offset)
    if total != x:
        problems.append("blocks do not reconstruct x")
    return problems


# -- search ----------------------------------------------------------------------

# label, k, digit overrides by place (3^0 first; other places {0,1}), signed
# range, node budget, pinned minimum (None: budgeted, best-so-far expected)
EXACT_CASES = (
    ("exact k=4", 4, {}, False, None, 9),
    ("exact k=4 signed", 4, {}, True, None, 9),
    ("exact k=5 3^2 place 0", 5, {2: (0,)}, False, None, 24),
    ("exact k=5 digits 02", 5, {j: (0, 2) for j in range(5)}, False, None, 18),
    ("exact k=5 3^0 place free", 5, {0: (0, 1, 2)}, False, None, 9),
    ("exact k=5 budget 200k", 5, {}, False, 200_000, None),
)
GREEDY_KS = (10, 11)
K5_BEST_KNOWN = 14


def _allowed(k: int, overrides: dict) -> list[tuple[int, ...]]:
    return [tuple(overrides.get(j, (0, 1))) for j in range(k)]


def _exact_op(label, inst, base, budget, pinned) -> Op:
    def call():
        return solver.exact_min_complement(inst, solver.SolverBudget(max_nodes=budget, max_seconds=None))

    def check(cert):
        problems = cover_problems(inst.k, base, inst.lo, inst.hi, cert.solution.values)
        if pinned is not None:
            if cert.size != pinned or cert.optimal != "proven-optimal":
                problems.append(f"got size {cert.size} {cert.optimal}, want {pinned} proven-optimal")
        else:
            exhausted = cert.stats.budget_exhausted and cert.optimal == "unknown"
            if not (exhausted or cert.optimal == "proven-optimal"):
                problems.append(f"budgeted search ended {cert.optimal} without exhausting its budget")
            if cert.size < K5_BEST_KNOWN:
                problems.append(f"size {cert.size} beats the best known {K5_BEST_KNOWN}")
        return problems

    return Op(label, call, check)


def _greedy_op(inst, base) -> Op:
    def check(cert):
        problems = cover_problems(inst.k, base, inst.lo, inst.hi, cert.solution.values)
        if cert.size > solver.greedy_size_bound(inst.k):
            problems.append(f"greedy size {cert.size} above the bound {solver.greedy_size_bound(inst.k):.1f}")
        return problems

    return Op(f"greedy k={inst.k}", lambda: solver.greedy_complement(inst), check)


class Search:
    """Exact branch and bound to proven optima, a budgeted k=5 search and
    greedy covers at k=10 and 11.  The instances are pinned (each has a known
    minimum); the seed fixes the order they run in."""

    name = "search"
    min_passes = 1

    def setup(self, ctx: Context):
        ops = []
        for label, k, overrides, signed, budget, pinned in EXACT_CASES:
            allowed = _allowed(k, overrides)
            pattern = ternary.PatternSet(k, tuple(frozenset(a) for a in allowed))
            base_code = ternary.enumerate_pattern(pattern)
            inst = solver.CoverInstance.signed(k, base_code) if signed else solver.CoverInstance(k, base_code)
            ops.append(_exact_op(label, inst, pattern_values(allowed), budget, pinned))
        for k in GREEDY_KS:
            inst = solver.CoverInstance(k, ternary.enumerate_pattern(ternary.zero_one_pattern(k)))
            ops.append(_greedy_op(inst, pattern_values([(0, 1)] * k)))
        random.Random(ctx.seed).shuffle(ops)
        return ops

    def run_pass(self, ctx: Context, ops) -> PassResult:
        times, failures, outs = run_ops(ops)
        certs = [c for c in outs if c is not None]
        counts = {
            "exact_nodes": sum(c.stats.nodes for c in certs if c.method == "exact"),
            "greedy_size_sum": sum(c.size for c in certs if c.method == "greedy"),
            "proven": sum(c.optimal == "proven-optimal" for c in certs),
        }
        return PassResult(times, failures, counts)


# -- density ----------------------------------------------------------------------

DENSITY_N = 3**12
DENSITY_AUX = 10_000  # complement_enum count and box_dim_bound_ca depth
# best r/s <= 1/D with s <= 3^12, checked by an exhaustive scan at 60 digits
DENSITY_POINTS = {
    "7/10": (952685, 452991),
    "3/4": (381074, 150997),
    "4/5": (952685, 301994),
    "9/10": (952685, 150997),
    "19/20": (1905370, 150997),
    "D=1/2": (2, 1),
}


def density_params(text: str) -> density.DensityParams:
    if text.startswith("D="):
        return density.DensityParams.from_density(Fraction(text[2:]))
    return density.DensityParams.from_alpha(Fraction(text))


def _density_pipeline(params, n):
    """The steps of the ``density`` command, in its order."""
    prefix = density.a_prefix(params, n)
    r, s = density.best_rational(params, n)
    rebuilt = density.a_prefix_from_rational(r, s, n)
    dl = density.description_length(params, n)
    enum = density.complement_enum(params, DENSITY_AUX) if params.d_exact != 1 else None
    box = density.box_dim_bound_ca(params, DENSITY_AUX)
    return prefix, (r, s), rebuilt, dl, enum, box


def _density_op(text: str) -> Op:
    params = density_params(text)
    pinned = DENSITY_POINTS[text]

    def check(out):
        prefix, rs, rebuilt, dl, enum, box = out
        problems = []
        if rs != pinned:
            problems.append(f"best rational {rs}, want {pinned}")
        if rebuilt.bits != prefix.bits:
            problems.append("prefix from r/s disagrees with the direct prefix")
        if (dl.r, dl.s) != rs or dl.length > dl.bound:
            problems.append(f"encoding length {dl.length} over bound {dl.bound:.2f} or wrong r/s")
        if enum is not None:
            if len(enum.elements) != DENSITY_AUX or any(prefix.contains(u) for u in enum.elements if u <= prefix.n):
                problems.append("complement enumeration meets A")
        if not box.entries or any(k <= prefix.n and not prefix.contains(k) for _, k, _ in box.entries):
            problems.append("box-dimension k_n outside A")
        return problems

    return Op(f"density {text}", lambda: _density_pipeline(params, DENSITY_N), check)


class Density:
    """The ``density`` command's pipeline in-process at n = 3^12 over six
    parameter points; four of them take the exact-power fallback of the
    power-of-3 bit-length helper and two do not.  The seed fixes the order."""

    name = "density"
    min_passes = 1

    def setup(self, ctx: Context):
        ops = [_density_op(text) for text in DENSITY_POINTS]
        random.Random(ctx.seed).shuffle(ops)
        return ops

    def run_pass(self, ctx: Context, ops) -> PassResult:
        times, failures, outs = run_ops(ops)
        done = [o for o in outs if o is not None]
        counts = {
            "a_count_sum": sum(o[0].count() for o in done),
            "encoding_length_sum": sum(o[3].length for o in done),
        }
        return PassResult(times, failures, counts)


# -- child processes ------------------------------------------------------------------


def child_env(ctx: Context, pycache: Path, catalog_dir: Optional[Path] = None) -> dict:
    """Environment for a cold CLI process: the source tree on the path,
    bytecode kept under this run's directory and written there, and the
    catalog pointed at a scratch copy so no home-directory catalog is used."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(ctx.root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env[catalog.ENV_CATALOG_DIR] = str(catalog_dir or ctx.work / "no-catalog")
    return env


def run_child(argv: list[str], env: dict, cwd: Path) -> tuple[int, bytes, bytes, float, float]:
    """Run a child to completion: (exit code, stdout, stderr, seconds, max RSS MiB)."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), seconds, usage.ru_maxrss / 1024


def warm_pycache(ctx: Context, pycache: Path) -> None:
    """Compile every module the CLI imports into ``pycache``."""
    code, _, err, _, _ = run_child(
        [sys.executable, "-c", "import complement_forge.cli"], child_env(ctx, pycache), ctx.work
    )
    if code != 0:
        raise RuntimeError(f"importing the CLI failed: {err.decode(errors='replace')}")


# -- cli-session ------------------------------------------------------------------------

CLI_SEED_KS = range(3, 11)
CLI_VARIANTS = 33  # seeded supersets of each greedy code, stored as extra entries
CLI_DENSITY_RUNS = 12
PAPER_SIZES = {k: len(v) for k, v in catalog.PAPER_BLOCKS.items()}
# best r/s <= 1/D with s <= 10^4, checked by an exhaustive scan at 60 digits
CLI_DENSITY = {"0.7": (10179, 4840), "0.75": (25217, 9992), "0.8": (30537, 9680), "0.9": (30537, 4840)}
QUADRATIC_S4_CARDS = [3, 15, 70, 588]


def _populate(cat: catalog.Catalog, rng: random.Random) -> list[dict]:
    """About 290 entries: the paper codes, greedy codes at k=3..10 with seeded
    supersets, uniform specs for k=3..5 and seeded density runs."""
    cat.ensure_seeded()
    stored = []
    for k in CLI_SEED_KS:
        inst = solver.CoverInstance(k, ternary.enumerate_pattern(ternary.zero_one_pattern(k)))
        cert = solver.greedy_complement(inst)
        stored.append({"id": cat.add_complement(cert, source="solver"), "k": k, "size": cert.size})
        for _ in range(CLI_VARIANTS):
            extra = rng.sample(range(3**k), rng.randint(1, 3))
            code = ternary.BlockCode.from_iterable(k, set(cert.solution.values) | set(extra))
            entry_id = cat.add_complement(solver.verify_complement(inst, code), source="benchmark")
            stored.append({"id": entry_id, "k": k, "size": len(code)})
    for k in (3, 4, 5):
        inst = solver.CoverInstance(k, ternary.enumerate_pattern(ternary.zero_one_pattern(k)))
        cert = solver.verify_complement(inst, ternary.BlockCode(k, catalog.PAPER_BLOCKS[k]))
        cat.add_spec(fractal.build_uniform_spec(k, cert), f"uniform-k{k}")
    for _ in range(CLI_DENSITY_RUNS):
        params = density.DensityParams.from_alpha(Fraction(rng.randint(70, 95), 100))
        n = rng.randint(500, 2000)
        dl = density.description_length(params, n)
        cat.add_density(params, n, dl.r, dl.s, dl.length)
    return stored


def _ternary_literal(rng: random.Random, digits: int) -> str:
    return "0." + "".join(rng.choice("012") for _ in range(digits))


def _decompose_check(x_text: str, k: int):
    code = set(catalog.PAPER_BLOCKS[k])
    x = Fraction(int(x_text[2:], 3), 3 ** len(x_text[2:]))

    def check(p):
        problems = [] if p["exact"] is True else ["exact is not true"]
        blocks = p["blocks"]
        offsets = itertools.accumulate(b["n"] for b in blocks)
        problems += split_problems([(b["a"], b["b"], m, [(0, 1)] * k, code) for b, m in zip(blocks, offsets)], x)
        if any(b["a"] + b["b"] != b["block"] for b in blocks):
            problems.append("a block is not a + b")
        return problems

    return check


def _cli_commands(rng: random.Random, stored: list[dict]) -> list[tuple[list[str], int, Callable]]:
    """The session: (arguments, expected exit code, payload check)."""

    def fields(**want):
        def check(p):
            return [f"{key}={p.get(key)!r}, want {value!r}" for key, value in want.items() if p.get(key) != value]

        return check

    def complement_check(k, size=None, optimal=None):
        base = pattern_values([(0, 1)] * k)

        def check(p):
            problems = cover_problems(k, base, 0, 3**k, p["values"])
            if size is not None and p["size"] != size:
                problems.append(f"size {p['size']}, want {size}")
            if optimal is not None and p["optimal"] != optimal:
                problems.append(f"optimal {p['optimal']}, want {optimal}")
            if size is None and p["size"] > solver.greedy_size_bound(k):
                problems.append(f"size {p['size']} above the greedy bound")
            return problems

        return check

    def budget_check(p):
        problems = complement_check(5)(p)
        if p["optimal"] != "unknown" or p["size"] < K5_BEST_KNOWN:
            problems.append(f"budgeted k=5 gave size {p['size']} {p['optimal']}")
        return problems

    def report_check(p):
        sizes = [row["size"] for row in p["complements"]]
        want = [PAPER_SIZES[k] for k in range(1, 6)]
        problems = [] if sizes == want else [f"sizes {sizes}, want {want}"]
        if "probes" in p and not all(pr["covers"] for pr in p["probes"]):
            problems.append("a product probe does not cover")
        return problems

    picks = rng.sample(stored, 4)
    paper3 = catalog.PAPER_BLOCKS[3]
    broken = ",".join(str(v) for v in paper3[:-1])
    alpha = rng.choice(sorted(CLI_DENSITY))
    x3, x5 = _ternary_literal(rng, 9), _ternary_literal(rng, 10)
    x3b = _ternary_literal(rng, 9)
    gk = rng.choice((3, 4, 5))
    cmds = [
        (["complement", "--k", "3", "--method", "exact"], 0, complement_check(3, 5, "proven-optimal")),
        (["complement", "--k", "6", "--method", "greedy"], 0, complement_check(6)),
        (["complement", "--k", "5", "--method", "exact", "--budget-nodes", "2000"], 4, budget_check),
        (["verify", "--k", "3", "--values", "000,002,021,110,112", "--ternary"], 0, fields(ok=True, k=3, size=5)),
        (["verify", "--k", "3", "--values", broken], 3, fields(ok=False)),
    ]
    cmds += [(["verify", "--id", e["id"]], 0, fields(ok=True, k=e["k"], size=e["size"])) for e in picks[:3]]
    cmds += [
        (["gamma", "--k", str(gk)], 0, lambda p, gk=gk: fields(k=gk)(p) + fields(card=PAPER_SIZES[gk])(p["gamma"])),
        (["gamma", "--id", picks[3]["id"]], 0, lambda p, e=picks[3]: fields(card=e["size"], k=e["k"])(p["gamma"])),
        (["spec-build", "--kind", "uniform", "--k", "4"], 0, fields(name="uniform-k4")),
        (
            ["spec-build", "--kind", "quadratic", "--alpha", "0.8", "--stages", "4"],
            0,
            lambda p: fields(name="quadratic-a4-5-s4")(p)
            + ([] if [g["card"] for g in p["gammas"]] == QUADRATIC_S4_CARDS else ["stage cards differ"]),
        ),
        (["decompose", "--x", x3, "--spec", "uniform-k3", "--depth", "3"], 0, _decompose_check(x3, 3)),
        (["decompose", "--x", x3b, "--spec", "uniform-k3", "--depth", "3"], 0, _decompose_check(x3b, 3)),
        (["decompose", "--x", x5, "--spec", "uniform-k5", "--depth", "2"], 0, _decompose_check(x5, 5)),
        (
            ["density", "--alpha", alpha, "--n", "10000"],
            0,
            lambda p: fields(prefix_match=True, r=CLI_DENSITY[alpha][0], s=CLI_DENSITY[alpha][1])(p)
            + ([] if p["encoding_length"] <= p["bound"] else ["encoding over its bound"]),
        ),
        (
            ["boxdim", "--alpha", "0.8", "--depth", "10000"],
            0,
            lambda p: [] if abs(p["target"] - 0.2) < 1e-12 else [f"target {p['target']}"],
        ),
        (
            ["netcheck", "--trials", "200", "--max-level", "8", "--seed", str(rng.randrange(10**6))],
            0,
            fields(trials=200, violations=0),
        ),
        (
            ["massratio", "--alpha", "0.8", "--levels", "5:15", "--samples", "50", "--seed", str(rng.randrange(10**6))],
            0,
            fields(violations=0),
        ),
        (["report", "--all"], 0, report_check),
        (["report"], 0, report_check),
    ]
    return cmds


@dataclass
class CliState:
    dir: Path
    pycache: Path
    catalog: Path
    commands: list


class CliSession:
    """README commands as cold child processes, one after another, against a
    fresh copy of a catalog populated with about 300 seeded entries."""

    name = "cli-session"
    min_passes = 2  # 2 x 20 commands, so the tail percentile has 10 samples beyond it

    def setup(self, ctx: Context) -> CliState:
        # the first repetition compiles the run's bytecode cache, later ones find it warm
        pycache = ctx.work / "pycache"
        warm_pycache(ctx, pycache)
        d = Path(tempfile.mkdtemp(dir=ctx.work, prefix="cli-"))
        rng = random.Random(ctx.seed)
        stored = _populate(catalog.Catalog(d / "catalog"), rng)
        return CliState(d, pycache, d / "catalog", _cli_commands(rng, stored))

    def run_pass(self, ctx: Context, st: CliState) -> PassResult:
        pass_dir = Path(tempfile.mkdtemp(dir=st.dir, prefix="pass-"))
        cat_dir = pass_dir / "catalog"
        shutil.copytree(st.catalog, cat_dir)
        env = child_env(ctx, st.pycache, cat_dir)
        times, failures, rss = [], [], 0.0
        counts = {"hypothesis_held": 0}
        for i, (args, want_code, check) in enumerate(st.commands):
            label = " ".join(args[:3])
            if ctx.traced:
                spans = pass_dir / f"spans-{i}.json"
                argv = [sys.executable, str(ctx.root / "perfbench" / "launch.py"), str(spans), *args]
            else:
                argv = [sys.executable, "-m", "complement_forge.cli", *args]
            code, out, err, seconds, child_rss = run_child(argv + ["--format", "json"], env, pass_dir)
            times.append(seconds)
            rss = max(rss, child_rss)
            if ctx.traced and spans.exists():
                ctx.dumps.append(json.loads(spans.read_text()))
            if code != want_code:
                failures.append(f"{label}: exit {code}, want {want_code}: {err.decode(errors='replace')[-300:]}")
                continue
            try:
                payload = json.loads(out)
                problems = check(payload)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"bad output: {type(exc).__name__}: {exc}"]
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}")
            if args[0] == "netcheck" and not problems:
                counts["hypothesis_held"] += payload["hypothesis_held"]
        counts["catalog_entries"] = len(list((cat_dir / "entries").glob("*.json")))
        shutil.rmtree(pass_dir)
        return PassResult(times, failures, counts, peak_rss_mib=rss)


# -- certify -------------------------------------------------------------------------------

CERTIFY_ALPHA = Fraction(4, 5)
QUADRATIC_STAGES = 6
UNIFORM_DEPTH = 8
N_QUADRATIC = 400  # decompositions, and as many reflections, through the quadratic spec
N_UNIFORM = 800  # the same through uniform-k5
N_TRIALS = 240
TRIAL_EXPONENTS = (Fraction(1, 2), Fraction(1), Fraction(1, 3))
TRIAL_MAX_LEVEL = 9
N_MASS = 400
MASS_LEVELS = range(5, 16)


def _decomposition_problems(cert, spec, x) -> list[str]:
    problems = [] if cert.is_exact() else ["is_exact() is false"]
    splits = [
        (a, b, m, spec.stage_at(i).pattern.allowed, spec.stage_at(i).code)
        for i, (a, b, m) in enumerate(zip(cert.a_blocks, cert.b_blocks, cert.stage_offsets), start=1)
    ]
    return problems + split_problems(splits, x.as_fraction())


def _decompose_op(spec, depth, x, label) -> Op:
    return Op(label, lambda: fractal.decompose(x, spec, depth), lambda c: _decomposition_problems(c, spec, x))


def _reflect_op(spec, depth, r, label) -> Op:
    def check(rc):
        problems = [] if rc.verify() else ["verify() is false"]
        total = rc.cantor_point.as_fraction() + r.as_fraction() + rc.e_point.as_fraction() + rc.residual.as_fraction()
        if total != 2 or not 0 <= rc.residual.as_fraction() < Fraction(2, 3**rc.digit_depth):
            problems.append("x + r + e + residual is not 2 within the residual bound")
        if not digits_allowed(rc.cantor_point.numerator, [(0, 2)] * rc.cantor_point.depth):
            problems.append("Cantor point has a digit 1")
        return problems + _decomposition_problems(rc.decomposition, spec, rc.decomposition.x)

    return Op(label, lambda: fractal.reflect_decompose(r, spec, depth), check)


def _trial_op(trial_seed: int, s: Fraction) -> Op:
    def check(rep):
        return ["conclusion fails although the hypothesis holds"] if rep.hypothesis_ok and not rep.conclusion_ok else []

    return Op(
        f"netcheck s={s}",
        lambda: measure.random_marstrand_trial(random.Random(trial_seed), TRIAL_MAX_LEVEL, s),
        check,
    )


def _mass_op(params, bits) -> Op:
    return Op(
        "mass_ratio",
        lambda: measure.mass_ratio(params, bits, MASS_LEVELS),
        lambda rep: [] if rep.all_within else ["ratio above its bound"],
    )


class Certify:
    """In-process certificates: decompositions and reflections of seeded
    points through the alpha=0.8 six-stage quadratic spec and uniform-k5,
    a fixed set of weighted-cover trials and seeded mass-ratio samples."""

    name = "certify"
    min_passes = 1

    def setup(self, ctx: Context) -> list[Op]:
        params = density.DensityParams.from_alpha(CERTIFY_ALPHA)
        quadratic = fractal.build_density_spec(params, QUADRATIC_STAGES)
        k5 = solver.CoverInstance(5, ternary.enumerate_pattern(ternary.zero_one_pattern(5)))
        uniform = fractal.build_uniform_spec(
            5, solver.verify_complement(k5, ternary.BlockCode(5, catalog.PAPER_BLOCKS[5]))
        )
        rng = random.Random(ctx.seed)
        ops = []
        for spec, depth, count, tag in (
            (quadratic, QUADRATIC_STAGES, N_QUADRATIC, "quadratic"),
            (uniform, UNIFORM_DEPTH, N_UNIFORM, "uniform-k5"),
        ):
            digits = spec.digit_depth(depth)
            for _ in range(count):
                x = ternary.TernaryRational(rng.randrange(3**digits), digits)
                ops.append(_decompose_op(spec, depth, x, f"decompose {tag}"))
                r = ternary.TernaryRational(rng.randrange(2 * 3**digits + 1), digits)
                ops.append(_reflect_op(spec, depth, r, f"reflect {tag}"))
        # The trials are the same in every run: each draws its own level and
        # atom count, and a trial's cost grows with the square of the atom
        # count, so a seeded sample of 240 varies by about a quarter in cost.
        for i in range(N_TRIALS):
            ops.append(_trial_op(i, TRIAL_EXPONENTS[i % len(TRIAL_EXPONENTS)]))
        for _ in range(N_MASS):
            ops.append(_mass_op(params, [rng.randint(0, 1) for _ in range(MASS_LEVELS[-1])]))
        return ops

    def run_pass(self, ctx: Context, ops) -> PassResult:
        times, failures, outs = run_ops(ops)
        reports = [o for o in outs if isinstance(o, measure.MarstrandReport)]
        counts = {
            "hypothesis_held": sum(r.hypothesis_ok for r in reports),
            "trials": len(reports),
        }
        return PassResult(times, failures, counts)


WORKLOADS = {w.name: w for w in (Search(), Density(), CliSession(), Certify())}
