"""The complement-forge command line.

Subcommands: complement, verify, gamma, spec-build, decompose, density,
boxdim, netcheck, massratio, report.  Batch-oriented: deterministic outputs
for a given seed, JSON/CSV for scripts, and a persistent catalog (directory
from $COMPLEMENT_FORGE_CATALOG, default ~/.complement-forge).

Exit codes: 0 success, 2 invalid input, 3 verification/check failure,
4 solver budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction
from itertools import takewhile
from typing import TYPE_CHECKING, Callable, Optional, TextIO

from . import __version__
from .catalog import MAX_BLOCK_LENGTH, Catalog, CatalogError
from .solver import (
    CoverInstance,
    CoverVerificationError,
    SolverBudget,
    exact_min_complement,
    greedy_complement,
    product_probe,
    verify_complement,
)
from .ternary import (
    BlockCode,
    GammaValue,
    TernaryRational,
    block_string,
    cantor_dimension,
    ternary_to_int,
    zero_one_base,
)

# the fractal, density and measure layers are imported by the commands that
# run them, so a command pays only for the layers it uses
if TYPE_CHECKING:
    from .density import DensityParams
    from .fractal import FractalSpec

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3
EXIT_BUDGET = 4

JSON_SCHEMA = "complement-forge/1"


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INVALID):
        super().__init__(message)
        self.code = code


def _emit(
    args: argparse.Namespace, text_lines: list[str], payload: dict, write_csv: Optional[Callable[[TextIO], None]] = None
) -> None:
    """Render as JSON, as text, or as CSV through ``write_csv`` (for the
    commands that offer --format csv), to the --out file or stdout.  JSON
    output is deterministic: sorted keys and no timestamps (catalog files keep
    their own provenance)."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "json":
            fh.write(json.dumps({"schema": JSON_SCHEMA, **payload}, sort_keys=True, indent=2) + "\n")
        elif args.format == "csv":
            write_csv(fh)
        else:
            fh.write("\n".join(text_lines) + "\n")


def _instance(k: int, rng: str) -> CoverInstance:
    base = zero_one_base(k)
    if rng == "signed":
        return CoverInstance.signed(k, base)
    return CoverInstance(k, base)


def _parse_values(raw: str, k: int, ternary: bool) -> BlockCode:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise _CliError("empty value list")
    if ternary:
        vals = [ternary_to_int(p) for p in parts]
    else:
        vals = [int(p, 10) for p in parts]
    return BlockCode.from_iterable(k, vals)


def _reject_beside_id(args: argparse.Namespace, *flags: str) -> None:
    """A stored entry carries its own k, values and range, so ``--id`` takes none of ``flags``."""
    given = [f for f in flags if getattr(args, f[2:]) is not None and getattr(args, f[2:]) is not False]
    if given:
        raise _CliError(f"--id reads a stored entry with its own k, values and range; drop {', '.join(given)}")


def _in_range(
    flag: str, value: Optional[int], minimum: int = 1, maximum: Optional[int] = None, where: str = ""
) -> None:
    """Refuse a given ``flag`` whose value is below ``minimum`` or above ``maximum``."""
    if value is not None and value < minimum:
        raise _CliError(f"{flag} must be at least {minimum}{where}, not {value}")
    if value is not None and maximum is not None and value > maximum:
        raise _CliError(f"{flag} must be between {minimum} and {maximum}{where}, not {value}")


@contextlib.contextmanager
def _refused_as(what: str, raw: str):
    """Refuse a ValueError or a zero denominator raised inside as ``bad <what> '<raw>': <why>``."""
    try:
        yield
    except (ValueError, ZeroDivisionError) as exc:
        why = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise _CliError(f"bad {what} {raw!r}: {why}") from None


def _alpha_params(raw: str) -> DensityParams:
    from .density import DensityParams

    with _refused_as("alpha/density", raw):
        if raw.startswith("D="):
            return DensityParams.from_density(Fraction(raw[2:]))
        return DensityParams.from_alpha(Fraction(raw))


# -- subcommands ----------------------------------------------------------------


def _cmd_complement(args: argparse.Namespace) -> int:
    budgets = (("--budget-nodes", args.budget_nodes), ("--budget-secs", args.budget_secs))
    given = [flag for flag, value in budgets if value is not None]
    if args.method == "greedy" and given:
        raise _CliError(f"--method greedy reads no budget; drop {', '.join(given)}")
    _in_range("--budget-nodes", args.budget_nodes)
    # a NaN deadline is never passed, and neither NaN nor inf is valid JSON
    if args.budget_secs is not None and not (math.isfinite(args.budget_secs) and args.budget_secs > 0):
        raise _CliError(f"--budget-secs must be a positive finite number of seconds, not {args.budget_secs}")
    # the greedy's arrays grow as 3^k: k=13 took 12 s and peaked at 78 MiB
    # RSS on a 2-vCPU box, and k=20 would ask for over 100 GB before its
    # first step.  The exact search's translate table grows as 6^k: k=8
    # took 1.5 s and 120 MiB with a one-node budget
    k_max = MAX_BLOCK_LENGTH if args.method == "greedy" else 8
    _in_range("--k", args.k, maximum=k_max, where=f" for --method {args.method}")
    inst = _instance(args.k, args.range)
    budget = None
    if args.method == "greedy":
        cert = greedy_complement(inst)
    else:
        solver_budget = SolverBudget(max_nodes=args.budget_nodes)
        if args.budget_secs is not None:
            solver_budget.max_seconds = args.budget_secs
        cert = exact_min_complement(inst, solver_budget)
        budget = {"nodes": solver_budget.max_nodes, "secs": solver_budget.max_seconds}
    cat = Catalog.default()
    entry_id = cat.add_complement(cert, source="solver", budget=budget)
    gamma = GammaValue(cert.size, args.k).value
    lines = [
        f"k={args.k} method={cert.method} size={cert.size} optimal={cert.optimal}",
        f"gamma = {gamma:.6f}",
        f"values: {', '.join(block_string(v, args.k) for v in cert.solution.values)}",
        f"catalog id: {entry_id}",
    ]
    payload = {
        "command": "complement",
        "k": args.k,
        "method": cert.method,
        "size": cert.size,
        "optimal": cert.optimal,
        "gamma": gamma,
        "values": list(cert.solution.values),
        "catalog_id": entry_id,
    }
    _emit(args, lines, payload)
    if cert.stats.budget_exhausted:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # a check lists up to 3^k targets: k=13 took 0.5 s and 120 MiB on a
    # 2-vCPU box, about three times k=12, and no code the catalog or the
    # greedy makes is longer
    _in_range("--k", args.k, maximum=MAX_BLOCK_LENGTH)
    if args.id:
        _reject_beside_id(args, "--k", "--values", "--ternary", "--range")
        _, cert = Catalog.default().load_complement(args.id)
    elif args.values is not None and args.k is not None:
        code = _parse_values(args.values, args.k, args.ternary)
        try:
            cert = verify_complement(_instance(args.k, args.range or "nonneg"), code)
        except CoverVerificationError as exc:
            lines = [f"FAIL: {len(exc.uncovered)} uncovered values", f"uncovered: {exc.uncovered}"]
            _emit(args, lines, {"command": "verify", "ok": False, "uncovered": exc.uncovered})
            return EXIT_VERIFY_FAILED
    else:
        raise _CliError("need --id, or --k with --values")
    k = cert.instance.k
    lines = [f"ok: size {cert.size} covers all {3**k} targets at k={k}"]
    _emit(args, lines, {"command": "verify", "ok": True, "k": k, "size": cert.size})
    return EXIT_OK


def _cmd_gamma(args: argparse.Namespace) -> int:
    _in_range("--k", args.k)
    cat = Catalog.default()
    if args.id:
        _reject_beside_id(args, "--k")
        entry, _ = cat.load_complement(args.id)
    else:
        if args.k is None:
            raise _CliError("need --k or --id")
        cat.ensure_seeded()
        entry, _ = cat.best_complement(args.k)
    g = entry["gamma"]
    lines = [
        f"k={entry['k']} size={len(entry['values'])} optimal={entry['optimal']}",
        f"gamma = log {g['card']} / log 3^{g['k']} = {g['value']:.6f}",
    ]
    _emit(args, lines, {"command": "gamma", "k": entry["k"], "gamma": g})
    return EXIT_OK


def _uniform_spec(cat: Catalog, k: int) -> FractalSpec:
    """The uniform spec over the best stored complement code at block length k."""
    from .fractal import build_uniform_spec

    cat.ensure_seeded()
    _, cert = cat.best_complement(k)
    return build_uniform_spec(k, cert)


def _resolve_spec(cat: Catalog, name: str) -> FractalSpec:
    """``uniform-kN`` is built, as ``spec-build --kind uniform`` builds it, over
    the best code stored at k = N, so a better code found since is used; any
    other name or id is looked up."""
    if name.startswith("uniform-k"):
        k = name[len("uniform-k") :]
        if not re.fullmatch(r"[1-9][0-9]*", k):
            raise _CliError(f"--spec {name!r}: uniform-kN needs a positive decimal N")
        spec = _uniform_spec(cat, int(k))
        cat.add_spec(spec, name)
        return spec
    found = cat.find_spec(name)
    if found is not None:
        return found[1]
    raise _CliError(f"unknown spec {name!r} (build it with spec-build)")


def _cmd_spec_build(args: argparse.Namespace) -> int:
    from .fractal import build_density_spec, dimension_ledger

    _in_range("--k", args.k)
    # stage s is 2s - 1 digits long and its greedy covers 3^(2s-1) targets:
    # at alpha = 0.8 on a 2-vCPU box 6 stages took 0.3 s and 41 MiB, 7 stages
    # (a 13-digit last stage, the greedy's --k cap) 1.7 s and 85 MiB, and an
    # eighth stage would have 3^15 targets
    _in_range("--stages", args.stages, maximum=(MAX_BLOCK_LENGTH + 1) // 2)
    cat = Catalog.default()
    if args.kind == "uniform":
        if args.k is None:
            raise _CliError("uniform specs need --k")
        if args.alpha is not None or args.stages is not None:
            raise _CliError("uniform specs take --k, not --alpha or --stages")
        spec = _uniform_spec(cat, args.k)
        name = f"uniform-k{args.k}"
        params_desc = None
    else:
        if args.alpha is None or args.stages is None:
            raise _CliError("quadratic specs need --alpha and --stages")
        if args.k is not None:
            raise _CliError("quadratic specs take --alpha and --stages, not --k")
        params = _alpha_params(args.alpha)
        spec = build_density_spec(params, args.stages)
        frac = params.alpha_fraction
        tag = f"a{frac.numerator}-{frac.denominator}" if frac else f"d{params.d_exact.numerator}-{params.d_exact.denominator}"
        name = f"quadratic-{tag}-s{args.stages}"
        params_desc = params.describe()
    spec_id = cat.add_spec(spec, name, params=params_desc)
    led = dimension_ledger(spec)
    lines = [f"spec {name} (id {spec_id})"]
    for i, (g, gap) in enumerate(zip(led.gammas, led.gaps), start=1):
        lines.append(f"stage {i}: n={g.n} card={g.card} gamma={g.value:.5f} gap={gap:+.5f}")
    lines.append(f"lower bound 1 - dim C = {led.lower_bound:.5f}")
    if led.description_length is not None:
        lines.append(f"description length (ternary symbols): {led.description_length:.2f}")
    payload = {
        "command": "spec-build",
        "name": name,
        "id": spec_id,
        "gammas": [{"card": g.card, "n": g.n, "value": g.value} for g in led.gammas],
        "lower_bound": led.lower_bound,
        "gaps": list(led.gaps),
        "description_length": led.description_length,
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .fractal import decompose

    try:
        x = TernaryRational.from_digit_string(args.x)
    except ValueError as exc:
        raise _CliError(str(exc))
    # the work grows as the square of the depth: 3,000 took 0.4 s cold on a
    # 2-vCPU box through uniform-k3 or uniform-k5, and 12,000 took 3.4 s
    _in_range("--depth", args.depth, maximum=3000)
    spec = _resolve_spec(Catalog.default(), args.spec)
    cert = decompose(x, spec, args.depth)
    lines = [f"x = {cert.x} through {args.depth} stage(s)"]
    blocks = []
    for i in range(1, args.depth + 1):
        st = spec.stage_at(i)
        a, b = cert.a_blocks[i - 1], cert.b_blocks[i - 1]
        v = a + b
        lines.append(
            f"stage {i}: block {block_string(v, st.n)} -> a={block_string(a, st.n)} b={block_string(b, st.n)}"
        )
        blocks.append({"stage": i, "block": v, "a": a, "b": b, "n": st.n})
    exact = cert.is_exact()
    lines.append(f"reconstruction exact: {exact}")
    payload = {"command": "decompose", "x": str(cert.x), "blocks": blocks, "exact": exact}
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_density(args: argparse.Namespace) -> int:
    from .density import a_prefix_from_rational, complement_enum, description_length

    params = _alpha_params(args.alpha)
    n = args.n
    # the work grows linearly in n: 10^6 took 0.5 s and 34 MiB cold on a
    # 2-vCPU box, and 10^7 took 2.4 s and 146 MiB
    _in_range("--n", n, 2, 10**6)
    dl = description_length(params, n)
    r, s = dl.r, dl.s
    prefix = a_prefix_from_rational(r, s, n)
    # the paper's claim, checked against A walked one exact comparison per
    # element: the walk's elements up to n are distinct, so they are the
    # prefix's members when all lie in it and the counts agree
    walked = list(takewhile(lambda k: k <= n, params.a_walk()))
    agrees = len(walked) == prefix.count() and all(map(prefix.contains, walked))
    enum = complement_enum(params, min(n, 10_000))
    lines = [
        f"{params.describe()}  n={n}",
        f"|A ∩ [1,n]| = {prefix.count()}  density {float(prefix.density()):.6f} (D = {params.d_float:.6f})",
        f"best rational r/s = {r}/{s}",
        f"prefix via r/s matches direct: {agrees}",
        f"encoding: {dl.encoded}",
        f"encoding length {dl.length} <= 4 log3 n + c0 = {dl.bound:.2f}",
    ]
    if not enum.empty:
        lines.append(f"complement shift t = {enum.t_shift}; n/u_n -> {enum.ratio(len(enum.elements)):.6f}")
    payload = {
        "command": "density",
        "params": params.describe(),
        "n": n,
        "count": prefix.count(),
        "r": r,
        "s": s,
        "prefix_match": agrees,
        "encoding": dl.encoded,
        "encoding_length": dl.length,
        "bound": dl.bound,
        "t_shift": enum.t_shift,
    }
    cat = Catalog.default()
    cat.add_density(params, n, r, s, dl.length)

    def write_csv(fh: TextIO) -> None:
        fh.write("position,bit\n")
        fh.writelines(f"{m},{1 if prefix.contains(m) else 0}\n" for m in range(1, n + 1))

    _emit(args, lines, payload, write_csv)
    return EXIT_OK if agrees else EXIT_VERIFY_FAILED


def _cmd_boxdim(args: argparse.Namespace) -> int:
    depth = args.depth
    _in_range("--depth", depth)
    if args.alpha is not None:
        from .density import box_dim_bound_ca

        # one entry per digit: 10^6 took 0.8 s and 190 MiB cold on a 2-vCPU
        # box, and 4 * 10^6 took 2 s and 707 MiB
        _in_range("--depth", depth, 2, 10**6, " for --alpha")
        params = _alpha_params(args.alpha)
        est = box_dim_bound_ca(params, depth)
        label, target = "C_A", 1.0 - params.alpha_float
        lower = cantor_dimension() + params.alpha_float - 1.0  # induced bound for C_(A-bar)
        extra = {"complement_lower_bound": lower}
        lines = [
            f"C_A box-dimension bound, {params.describe()}, depth {depth}",
            f"final estimate {est.final:.6f}  tail sup {est.tail_sup:.6f}",
            f"target 1 - alpha = {target:.6f}",
            f"induced complement lower bound dim C + alpha - 1 = {lower:.6f}",
        ]

        def write_csv(fh: TextIO) -> None:
            fh.write("n,k_n,estimate\n")
            fh.writelines(f"{n},{k},{e:.12g}\n" for n, k, e in est.entries)

    else:
        from .measure import box_dim_estimate, write_estimates_csv

        if args.set == "cantor":
            est = box_dim_estimate(lambda n: 2**n, range(1, min(depth, 512) + 1))
            target = cantor_dimension()
            label = "cantor"
        else:
            cat = Catalog.default()
            spec = _resolve_spec(cat, args.spec)
            st = spec.stage_at(1)
            if spec.kind != "uniform":
                raise _CliError("boxdim over a spec expects a uniform spec")
            _in_range("--depth", depth, st.n, where=f" for --spec {args.spec}, one block")
            stages = min(depth // st.n, 256)
            est = box_dim_estimate(lambda m: len(st.code) ** (m // st.n), [st.n * i for i in range(1, stages + 1)])
            target = st.gamma.value
            label = args.spec
        extra = {}
        lines = [
            f"box-dimension estimates for {label}",
            f"final {est.final:.12g}  tail sup {est.tail_sup:.12g}  target {target:.12g}",
        ]
        write_csv = functools.partial(write_estimates_csv, estimates=est)

    payload = {"command": "boxdim", "set": label, "final": est.final, "tail_sup": est.tail_sup, "target": target}
    _emit(args, lines, {**payload, **extra}, write_csv)
    return EXIT_OK


def _cmd_netcheck(args: argparse.Namespace) -> int:
    from .measure import random_marstrand_trial

    with _refused_as("--s", args.s):
        exps = [Fraction(part.strip()) for part in args.s.split(",")]
    _in_range("--trials", args.trials)
    # a trial at level L holds up to 2^(L-1) atoms: the worst trial at level
    # 16 took 0.4 s and 43 MiB on a 2-vCPU box, at 18 1.5 s and 120 MiB
    _in_range("--max-level", args.max_level, 2, 16)
    rng = random.Random(args.seed)
    trials = args.trials
    held = 0
    violations = 0
    for i in range(trials):
        s = exps[i % len(exps)]
        rep = random_marstrand_trial(rng, args.max_level, s)
        if rep.hypothesis_ok:
            held += 1
            if not rep.conclusion_ok:
                violations += 1
    lines = [
        f"{trials} weighted-cover trials, levels <= {args.max_level}, s in {args.s}",
        f"hypothesis held: {held}; conclusion violations: {violations}",
    ]
    payload = {
        "command": "netcheck",
        "trials": trials,
        "hypothesis_held": held,
        "violations": violations,
        "seed": args.seed,
    }
    _emit(args, lines, payload)
    return EXIT_OK if violations == 0 else EXIT_VERIFY_FAILED


def _cmd_massratio(args: argparse.Namespace) -> int:
    from .measure import mass_ratio

    params = _alpha_params(args.alpha)
    _in_range("--samples", args.samples)
    try:
        lo, hi = map(int, args.levels.split(":"))
    except ValueError:
        raise _CliError(f"--levels takes LO:HI, got {args.levels!r}")
    levels = range(lo, hi + 1)
    if not levels:
        raise _CliError(f"--levels {args.levels} is an empty range")
    # the work grows as the cube of HI: one sample to 1,000 took 0.55 s
    # cold on a 2-vCPU box, to 3,000 took 4 s and to 6,000 31 s
    _in_range("--levels HI", hi, 2, 1000)
    rng = random.Random(args.seed)
    worst_ratio = 0.0
    bound = None
    max_meet = 0
    bad = 0
    flagged = 0
    for _ in range(args.samples):
        bits = [rng.randint(0, 1) for _ in range(max(levels))]
        rep = mass_ratio(params, bits, levels)
        max_meet = max(max_meet, rep.max_meeting)
        flagged += not rep.all_within
        bound = rep.entries[0].bound
        for e in rep.entries:
            worst_ratio = max(worst_ratio, e.ratio)
            bad += not e.within_bound
    lines = [
        f"{args.samples} sampled points, levels {args.levels}, {params.describe()}",
        f"shift t = {rep.t_shift}; worst ratio {worst_ratio:.6f} vs bound {bound:.6f}",
        f"max intervals meeting a ball: {max_meet} (flagged runs: {flagged})",
        f"bound violations: {bad}",
    ]
    payload = {
        "command": "massratio",
        "samples": args.samples,
        "worst_ratio": worst_ratio,
        "bound": bound,
        "max_meeting": max_meet,
        "violations": bad,
        "t_shift": rep.t_shift,
        "seed": args.seed,
    }
    _emit(args, lines, payload)
    return EXIT_OK if bad == 0 else EXIT_VERIFY_FAILED


def _cmd_report(args: argparse.Namespace) -> int:
    cat = Catalog.default()
    cat.ensure_seeded()
    rows = []
    for k in range(1, 6):
        entry, _ = cat.best_complement(k)
        rows.append(
            {
                "k": k,
                "size": len(entry["values"]),
                "optimal": entry["optimal"],
                "gamma": entry["gamma"]["value"],
                "method": entry["method"],
            }
        )
    lines = ["best complement codes", " k  size  gamma     optimal"]
    for r in rows:
        lines.append(f" {r['k']}  {r['size']:4d}  {r['gamma']:.5f}  {r['optimal']} ({r['method']})")
    payload = {"command": "report", "complements": rows}
    if args.all:
        from .density import complement_enum, description_length

        probes = []
        for k1, k2 in ((2, 2), (2, 3), (1, 1)):
            _, cert1 = cat.best_complement(k1)
            _, cert2 = cat.best_complement(k2)
            ref_entry, ref = cat.best_complement(k1 + k2)
            pr = product_probe(cert1.solution, cert2.solution, ref.solution, ref_entry["optimal"])
            probes.append(
                {
                    "k1": k1,
                    "k2": k2,
                    "product_size": pr.product_size,
                    "reference_size": pr.reference_size,
                    "covers": pr.covers,
                    "verdict": pr.verdict,
                }
            )
        lines.append("")
        lines.append("product probes")
        for p in probes:
            lines.append(
                f" B{p['k1']} x B{p['k2']}: size {p['product_size']} vs best {p['reference_size']}"
                f" -> {p['verdict']} (covers: {p['covers']})"
            )
        dens = []
        for a in ("0.7", "0.75", "0.8", "0.9"):
            params = _alpha_params(a)
            dl = description_length(params, 1000)
            enum = complement_enum(params, 1000)
            dens.append(
                {
                    "alpha": a,
                    "r": dl.r,
                    "s": dl.s,
                    "encoding_length": dl.length,
                    "t_shift": enum.t_shift,
                }
            )
        lines.append("")
        lines.append("density encodings at n = 1000")
        for d in dens:
            lines.append(
                f" alpha={d['alpha']}: r/s = {d['r']}/{d['s']}, {d['encoding_length']} symbols, t = {d['t_shift']}"
            )
        payload["probes"] = probes
        payload["density"] = dens
    _emit(args, lines, payload)
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _add_output(p: argparse.ArgumentParser, formats: tuple[str, ...] = ("text", "json")) -> None:
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    p.add_argument("--format", choices=formats, default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="complement-forge",
        description="Additive complements of ternary block sets and the fractal constructions they support.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complement", help="solve for a complement code")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("greedy", "exact"), default="greedy")
    p.add_argument("--range", choices=("nonneg", "signed"), default="nonneg")
    p.add_argument("--budget-nodes", type=int, default=None, help="exact-solver node budget")
    p.add_argument("--budget-secs", type=float, default=None, help="exact-solver time budget (s, default 600)")
    _add_output(p)
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("verify", help="re-verify a stored or inline code")
    p.add_argument("--id", default=None, help="catalog entry id")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--values", default=None, help="comma-separated block values")
    p.add_argument("--ternary", action="store_true", help="parse --values as digit strings")
    p.add_argument("--range", choices=("nonneg", "signed"), default=None, help="range of --values (default nonneg)")
    _add_output(p)
    # read a value list that starts with a minus ("-11,0,5") as a value, not as an option
    p._negative_number_matcher = re.compile(r"^-\d")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gamma", help="dimension exponent of a stored code")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--id", default=None)
    _add_output(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("spec-build", help="build and store a fractal spec")
    p.add_argument("--kind", choices=("uniform", "quadratic"), required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--stages", type=int, default=None)
    _add_output(p)
    p.set_defaults(func=_cmd_spec_build)

    p = sub.add_parser("decompose", help="split x into pattern + code parts")
    p.add_argument("--x", required=True, help="ternary literal, e.g. 0.020")
    p.add_argument("--spec", required=True, help="spec name or id (uniform-kN auto-builds)")
    p.add_argument("--depth", type=int, required=True, help="stages to consume")
    _add_output(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("density", help="density set prefix, best rational, encoding")
    p.add_argument("--alpha", required=True, help="rational alpha (or D=p/q for exact density)")
    p.add_argument("--n", type=int, required=True)
    _add_output(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("boxdim", help="box-counting dimension estimates")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--set", choices=("cantor",), default=None)
    which.add_argument("--spec", default=None)
    which.add_argument("--alpha", default=None)
    p.add_argument("--depth", type=int, required=True)
    _add_output(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_boxdim)

    p = sub.add_parser("netcheck", help="randomized weighted-cover inequality trials")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-level", type=int, default=8)
    p.add_argument("--s", default="1/2,1", help="comma-separated exponents")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized harnesses")
    _add_output(p)
    p.set_defaults(func=_cmd_netcheck)

    p = sub.add_parser("massratio", help="mass-distribution ratio test")
    p.add_argument("--alpha", required=True)
    p.add_argument("--levels", default="5:15", help="inclusive range lo:hi")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized harnesses")
    _add_output(p)
    # read a range that starts with a minus ("-2:3") as a value, not as an option
    p._negative_number_matcher = re.compile(r"^-\d")
    p.set_defaults(func=_cmd_massratio)

    p = sub.add_parser("report", help="summary tables from the catalog")
    p.add_argument("--all", action="store_true", help="include probes and density tables")
    _add_output(p)
    p.set_defaults(func=_cmd_report)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CoverVerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
