"""complement-forge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Scratch files live under ``.perfbench_work/`` (removed at exit),
span dumps of traced runs go to ``.perfbench_out/``.  The last line of
standard output is the result; the line before it records the machine and
the run's details.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # imports compile the same way on every run

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("ternary", "solver", "fractal", "density", "measure", "catalog", "cli")
SETUP_REPS = 3
INTERPRETER_REPS = 5
IMPORT_REPS = 3
WAITING = "not applicable: one closed-loop client, nothing waits on a queue or a lock"


def nearest_rank(samples: list[float], pct: int) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(n_min: int) -> int:
    """Highest whole percentile with at least 10 of ``n_min`` samples beyond
    it; with fewer than 11 samples there is none and the maximum is used."""
    return 100 if n_min < 11 else math.floor(100 * (1 - 10 / n_min))


def version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def interpreter_start_s() -> float:
    """Median wall time of a bare ``python -c pass``: the machine baseline."""
    times = []
    for _ in range(INTERPRETER_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "scipy": version("scipy"),
        "cli.interpreter_start_s": interpreter_start_s(),
    }


def fresh_import_s(ctx) -> float:
    """Time to import every layer in a fresh interpreter that, like this
    process, compiles the package from source and writes no bytecode."""
    code = (
        "import importlib, time; t = time.perf_counter()\n"
        f"for m in {LAYERS!r}: importlib.import_module('complement_forge.' + m)\n"
        "print(time.perf_counter() - t)"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ctx.work, capture_output=True, text=True, check=True)
    return float(out.stdout)


def timed_setup(wl, ctx):
    """One set-up repetition: the imports, then the workload's own set-up."""
    import_s = fresh_import_s(ctx)
    t0 = time.perf_counter()
    state = wl.setup(ctx)
    return state, import_s + time.perf_counter() - t0


def measure_passes(wl, ctx, state, seconds: float) -> list:
    """Whole passes until the next one would end past ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(wl.run_pass(ctx, state))
        now = time.perf_counter()
        if len(results) >= wl.min_passes and (now - start) + (now - t0) > seconds:
            return results


def cli_import_s(ctx, w) -> float:
    """Median time of ``import complement_forge.cli`` in fresh processes with
    compiled bytecode in place."""
    pycache = ctx.work / "pycache"
    w.warm_pycache(ctx, pycache)
    code = "import time; t = time.perf_counter(); import complement_forge.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPS):
        rc, out, err, _, _ = w.run_child([sys.executable, "-c", code], w.child_env(ctx, pycache), ctx.work)
        if rc != 0:
            raise RuntimeError(err.decode(errors="replace"))
        times.append(float(out))
    return statistics.median(times)


def run(args, work: Path) -> tuple[dict, dict]:
    import workloads as w  # imports numpy and every layer of the package
    from tracing import Tracer, layer_metrics, merge

    wl = w.WORKLOADS[args.workload]
    ctx = w.Context(root=ROOT, work=work, seed=args.seed)
    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "machine": machine(), "waiting": WAITING}

    if not args.trace:
        setup_times = []
        for _ in range(SETUP_REPS):
            state, seconds = timed_setup(wl, ctx)
            setup_times.append(seconds)
        passes = measure_passes(wl, ctx, state, args.seconds)
    else:
        # set-up and a pass under the tracer between two untraced passes
        state, seconds = timed_setup(wl, ctx)
        setup_times = [seconds]
        passes = [wl.run_pass(ctx, state)]
        tracer = Tracer()
        tracer.install()
        try:
            # cli-session's set-up is the benchmark's fixture; its commands trace themselves
            traced_state = wl.setup(ctx) if wl.name != "cli-session" else state
            ctx.traced = True
            passes.append(wl.run_pass(ctx, traced_state))
        finally:
            tracer.uninstall()
            ctx.traced = False
        passes.append(wl.run_pass(ctx, state))

    n_ops = len(passes[0].times)
    samples = [t for p in passes for t in p.times]
    untraced = [t for p in (passes[::2] if args.trace else passes) for t in p.times]
    failures = [f for p in passes for f in p.failures]
    repeat = all(p.counts == passes[0].counts for p in passes)
    if not repeat:
        failures.append(f"deterministic counts differ between passes: {[p.counts for p in passes]}")
    attempted = len(samples) + (0 if repeat else 1)
    pct = tail_percentile(wl.min_passes * n_ops)
    pass_times = [sum(p.times) for p in passes]
    child_rss = [p.peak_rss_mib for p in passes if p.peak_rss_mib is not None]
    peak_rss = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    info.update(
        passes=len(passes),
        ops_per_pass=n_ops,
        samples={"wall_s": len(pass_times), "cmd": len(samples), "setup_s": len(setup_times)},
        tail_percentile=pct,
        cmd_p50_s=statistics.median(untraced),
        cmd_tail_s=nearest_rank(untraced, pct),
        setup_reps_s=setup_times,
        pass_s=pass_times,
        failed_ratio=len(failures) / attempted,
        counts=passes[0].counts,
        failures=failures[:10],
    )
    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(pass_times), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (peak_rss, "MiB"),
        }
    else:
        dumps = [tracer.dump(), *ctx.dumps]
        self_s, counts = merge(dumps)
        metrics = layer_metrics(self_s, counts, n_ops)
        cli = wl.name == "cli-session"
        metrics["cli.cmd_p50_s"] = (info["cmd_p50_s"] if cli else 0.0, "s")
        metrics["cli.cmd_tail_s"] = (info["cmd_tail_s"] if cli else 0.0, "s")
        metrics["cli.import_s"] = (cli_import_s(ctx, w), "s")
        metrics["cli.interpreter_start_s"] = (info["machine"]["cli.interpreter_start_s"], "s")
        metrics["trace.overhead_ratio"] = (2 * pass_times[1] / (pass_times[0] + pass_times[2]) - 1, "ratio")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"info": info, "processes": dumps}))
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("search", "density", "cli-session", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "complement_forge" / "__init__.py").is_file():
        print(f"error: no complement_forge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        info, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
