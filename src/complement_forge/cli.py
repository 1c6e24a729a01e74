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
import random
import re
import sys
from fractions import Fraction
from typing import Callable, Optional, TextIO

from . import __version__, measure
from .catalog import Catalog, CatalogError, block_string
from .density import (
    DensityParams,
    a_prefix,
    a_prefix_from_rational,
    box_dim_bound_ca,
    complement_enum,
    description_length,
)
from .fractal import FractalSpec, GammaValue, build_density_spec, build_uniform_spec, decompose, dimension_ledger
from .measure import box_dim_estimate, mass_ratio, write_estimates_csv
from .solver import (
    CoverInstance,
    CoverVerificationError,
    SolverBudget,
    exact_min_complement,
    greedy_complement,
    verify_complement,
)
from .ternary import BlockCode, TernaryRational, cantor_dimension, value_of, zero_one_base

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
        vals = [value_of([int(d) for d in p]) for p in parts]
    else:
        vals = [int(p, 10) for p in parts]
    return BlockCode.from_iterable(k, vals)


def _reject_beside_id(args: argparse.Namespace, *flags: str) -> None:
    """A stored entry carries its own k, values and range, so ``--id`` takes none of ``flags``."""
    given = [f for f in flags if getattr(args, f[2:]) is not None and getattr(args, f[2:]) is not False]
    if given:
        raise _CliError(f"--id reads a stored entry with its own k, values and range; drop {', '.join(given)}")


def _alpha_params(raw: str) -> DensityParams:
    try:
        if raw.startswith("D="):
            return DensityParams.from_density(Fraction(raw[2:]))
        return DensityParams.from_alpha(Fraction(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(f"bad alpha/density {raw!r}: {exc}")


# -- subcommands ----------------------------------------------------------------


def _cmd_complement(args: argparse.Namespace) -> int:
    if args.budget_nodes is not None and args.budget_nodes <= 0:
        raise _CliError("node budget must be positive")
    if args.budget_secs <= 0:
        raise _CliError("time budget must be positive")
    if args.k < 1:
        raise _CliError("need k >= 1")
    inst = _instance(args.k, args.range)
    budget = SolverBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)
    if args.method == "greedy":
        cert = greedy_complement(inst)
    else:
        cert = exact_min_complement(inst, budget)
    cat = Catalog.default()
    entry_id = cat.add_complement(
        cert,
        source="solver",
        budget={"nodes": args.budget_nodes, "secs": args.budget_secs},
    )
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
    if args.id:
        _reject_beside_id(args, "--k", "--values", "--ternary", "--range")
        _, cert = Catalog.default().load_complement(args.id)
    elif args.values and args.k:
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
    cat = Catalog.default()
    if args.id:
        _reject_beside_id(args, "--k")
        entry, _ = cat.load_complement(args.id)
    else:
        if not args.k:
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
    cat.ensure_seeded()
    _, cert = cat.best_complement(k)
    return build_uniform_spec(k, cert)


def _resolve_spec(cat: Catalog, name: str) -> FractalSpec:
    entry = cat.find_spec(name)
    if entry is not None:
        return cat.spec_from_entry(entry)
    if name.startswith("uniform-k"):
        spec = _uniform_spec(cat, int(name[len("uniform-k") :]))
        cat.add_spec(spec, name)
        return spec
    raise _CliError(f"unknown spec {name!r} (build it with spec-build)")


def _cmd_spec_build(args: argparse.Namespace) -> int:
    cat = Catalog.default()
    if args.kind == "uniform":
        if not args.k:
            raise _CliError("uniform specs need --k")
        if args.alpha is not None or args.stages is not None:
            raise _CliError("uniform specs take --k, not --alpha or --stages")
        spec = _uniform_spec(cat, args.k)
        name = f"uniform-k{args.k}"
        params_desc = None
    else:
        if not args.alpha or not args.stages:
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
    cat = Catalog.default()
    spec = _resolve_spec(cat, args.spec)
    try:
        x = TernaryRational.from_digit_string(args.x)
    except ValueError as exc:
        raise _CliError(str(exc))
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
    lines.append(f"reconstruction exact: {cert.is_exact()}")
    payload = {"command": "decompose", "x": str(cert.x), "blocks": blocks, "exact": cert.is_exact()}
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_density(args: argparse.Namespace) -> int:
    params = _alpha_params(args.alpha)
    n = args.n
    if n < 2:
        raise _CliError("need --n >= 2")
    prefix = a_prefix(params, n)
    dl = description_length(params, n)
    r, s = dl.r, dl.s
    rebuilt = a_prefix_from_rational(r, s, n)
    agrees = rebuilt.bits == prefix.bits
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
    if args.alpha is not None:
        params = _alpha_params(args.alpha)
        report = box_dim_bound_ca(params, depth)
        lines = [
            f"C_A box-dimension bound, {params.describe()}, depth {depth}",
            f"final estimate {report.final_estimate:.6f}  tail sup {report.tail_sup:.6f}",
            f"target 1 - alpha = {report.target:.6f}",
            f"induced complement lower bound dim C + alpha - 1 = {report.complement_lower_bound:.6f}",
        ]
        payload = {
            "command": "boxdim",
            "set": "C_A",
            "final": report.final_estimate,
            "tail_sup": report.tail_sup,
            "target": report.target,
            "complement_lower_bound": report.complement_lower_bound,
        }

        def write_csv(fh: TextIO) -> None:
            fh.write("n,k_n,estimate\n")
            fh.writelines(f"{n},{k},{e:.12g}\n" for n, k, e in report.entries)

    else:
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
            stages = max(1, min(depth // st.n, 256))
            est = box_dim_estimate(lambda i: len(st.code) ** i, [st.n * i for i in range(1, stages + 1)])
            target = st.gamma.value
            label = args.spec
        lines = [
            f"box-dimension estimates for {label}",
            f"final {est.final:.12g}  tail sup {est.tail_sup:.12g}  target {target:.12g}",
        ]
        payload = {
            "command": "boxdim",
            "set": label,
            "final": est.final,
            "tail_sup": est.tail_sup,
            "target": target,
        }
        write_csv = functools.partial(write_estimates_csv, estimates=est)

    _emit(args, lines, payload, write_csv)
    return EXIT_OK


def _cmd_netcheck(args: argparse.Namespace) -> int:
    try:
        exps = [Fraction(part.strip()) for part in args.s.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(f"bad --s {args.s!r}: {exc}")
    if args.trials < 1:
        raise _CliError("need --trials >= 1")
    rng = random.Random(args.seed)
    trials = args.trials
    held = 0
    violations = 0
    for i in range(trials):
        s = exps[i % len(exps)]
        rep = measure.random_marstrand_trial(rng, args.max_level, s)
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
    params = _alpha_params(args.alpha)
    if args.samples < 1:
        raise _CliError("need --samples >= 1")
    lo, _, hi = args.levels.partition(":")
    levels = range(int(lo), int(hi) + 1)
    if not levels:
        raise _CliError(f"--levels {args.levels} is an empty range")
    rng = random.Random(args.seed)
    worst_ratio = 0.0
    bound = None
    max_meet = 0
    bad = 0
    flagged = 0
    enum = complement_enum(params, max(levels) + 8)
    for _ in range(args.samples):
        bits = [rng.randint(0, 1) for _ in range(max(levels))]
        rep = mass_ratio(params, bits, levels, enumeration=enum)
        max_meet = max(max_meet, rep.max_meeting)
        flagged += rep.flagged
        bound = rep.entries[0].bound
        for e in rep.entries:
            worst_ratio = max(worst_ratio, e.ratio)
            bad += not e.within_bound
    lines = [
        f"{args.samples} sampled points, levels {args.levels}, {params.describe()}",
        f"shift t = {enum.t_shift}; worst ratio {worst_ratio:.6f} vs bound {bound:.6f}",
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
        "t_shift": enum.t_shift,
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
        probes = []
        for k1, k2 in ((2, 2), (2, 3), (1, 1)):
            pr = cat.product_probe(k1, k2)
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
    p.add_argument("--budget-secs", type=float, default=600.0, help="exact-solver time budget (s)")
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
