"""Span tracing around calls into complement_forge's public functions.

The tracer replaces each probed function (or catalog method) with a wrapper
that records a span (name, start, end, parent) and any counts read off the
result.  Functions are patched in every loaded ``complement_forge`` module
that holds a reference to them, so calls between modules are seen too.
Spans are kept in memory and written out at the end; per-layer numbers are
self times (a span's duration minus that of its child spans) summed by name.

Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


def _exact_counts(cert):
    return {
        "solver.exact.nodes": cert.stats.nodes,
        "solver.exact.proven": int(cert.optimal == "proven-optimal"),
    }


def _greedy_counts(cert):
    return {"solver.greedy.size_sum": cert.size}


def _netcheck_counts(report):
    return {"measure.netcheck.hypothesis_held": int(report.hypothesis_ok)}


# (module, attribute or Class.method, span name, counts read off the result)
PROBES = (
    ("complement_forge.ternary", "enumerate_pattern", "ternary.enumerate_pattern", None),
    ("complement_forge.solver", "exact_min_complement", "solver.exact", _exact_counts),
    ("complement_forge.solver", "greedy_complement", "solver.greedy", _greedy_counts),
    ("complement_forge.solver", "verify_complement", "solver.verify", None),
    ("complement_forge.density", "a_prefix", "density.a_prefix", None),
    ("complement_forge.density", "best_rational", "density.best_rational", None),
    ("complement_forge.density", "a_prefix_from_rational", "density.from_rational", None),
    ("complement_forge.density", "description_length", "density.description_length", None),
    ("complement_forge.density", "complement_enum", "density.complement_enum", None),
    ("complement_forge.density", "box_dim_bound_ca", "density.box_dim", None),
    ("complement_forge.fractal", "decompose", "fractal.decompose", None),
    ("complement_forge.fractal", "reflect_decompose", "fractal.reflect", None),
    ("complement_forge.fractal", "build_density_spec", "fractal.build_spec", None),
    ("complement_forge.fractal", "build_uniform_spec", "fractal.build_spec", None),
    ("complement_forge.measure", "random_marstrand_trial", "measure.netcheck", _netcheck_counts),
    ("complement_forge.measure", "mass_ratio", "measure.mass_ratio", None),
    ("complement_forge.catalog", "Catalog.load_entry", "catalog.load", None),
    ("complement_forge.catalog", "Catalog.save_entry", "catalog.save", None),
    ("complement_forge.catalog", "Catalog.best_complement", "catalog.best_complement", None),
    ("complement_forge.cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, open_, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = time.perf_counter()
            counts[name + ".calls"] += 1
            if count is not None:
                counts.update(count(result))
            return result

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every probe; modules that are not imported yet are imported."""
        for module_name, target, name, count in PROBES:
            module = importlib.import_module(module_name)
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, getattr(cls, meth), count))
                continue
            original = getattr(module, target)
            wrapper = self._wrap(name, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("complement_forge"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "self_s": self.self_times()}


def merge(dumps: list[dict]) -> tuple[dict[str, float], Counter]:
    """Sum self times and counts over several traced processes."""
    self_s: dict[str, float] = {}
    counts: Counter = Counter()
    for d in dumps:
        for name, value in d["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        counts.update(d["counts"])
    return self_s, counts


def layer_metrics(self_s: dict[str, float], counts: Counter, ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit); absent work reads 0."""

    def s(name):
        return self_s.get(name, 0.0)

    exact_calls = counts["solver.exact.calls"]
    nodes = counts["solver.exact.nodes"]
    return {
        "solver.exact.s": (s("solver.exact"), "s"),
        "solver.exact.nodes": (nodes, "count"),
        "solver.exact.nodes_per_s": (nodes / s("solver.exact") if nodes else 0.0, "1/s"),
        "solver.exact.proven_ratio": (
            counts["solver.exact.proven"] / exact_calls if exact_calls else 0.0,
            "ratio",
        ),
        "solver.greedy.s": (s("solver.greedy"), "s"),
        "solver.greedy.size_sum": (counts["solver.greedy.size_sum"], "count"),
        "solver.verify.s": (s("solver.verify"), "s"),
        "solver.verify.calls": (counts["solver.verify.calls"], "count"),
        "density.a_prefix.s": (s("density.a_prefix"), "s"),
        "density.best_rational.s": (s("density.best_rational"), "s"),
        "density.from_rational.s": (s("density.from_rational"), "s"),
        "density.description_length.s": (s("density.description_length"), "s"),
        "density.complement_enum.s": (s("density.complement_enum"), "s"),
        "density.box_dim.s": (s("density.box_dim"), "s"),
        "fractal.decompose.s": (s("fractal.decompose"), "s"),
        "fractal.decompose.calls": (counts["fractal.decompose.calls"], "count"),
        "fractal.reflect.s": (s("fractal.reflect"), "s"),
        "fractal.build_spec.s": (s("fractal.build_spec"), "s"),
        "measure.netcheck.s": (s("measure.netcheck"), "s"),
        "measure.netcheck.trials": (counts["measure.netcheck.calls"], "count"),
        "measure.netcheck.hypothesis_held": (counts["measure.netcheck.hypothesis_held"], "count"),
        "measure.mass_ratio.s": (s("measure.mass_ratio"), "s"),
        "catalog.load.s": (s("catalog.load"), "s"),
        "catalog.entries_loaded": (counts["catalog.load.calls"] / ops, "count"),
        "catalog.save.s": (s("catalog.save"), "s"),
        "catalog.saves": (counts["catalog.save.calls"], "count"),
        "catalog.best_complement.s": (s("catalog.best_complement"), "s"),
        "cli.main.s": (s("cli.main"), "s"),
        "ternary.enumerate_pattern.s": (s("ternary.enumerate_pattern"), "s"),
        "ternary.enumerate_pattern.calls": (counts["ternary.enumerate_pattern.calls"], "count"),
    }
