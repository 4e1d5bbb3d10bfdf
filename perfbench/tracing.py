"""Spans around the library's public functions, installed from outside.

``install(tracer)`` wraps every public module-level function of the
package's modules, plus a fixed set of ``MonomialIdeal`` and
``WeightedOrientedGraph`` methods, and rebinds every module-level name
that pointed at an original: ``symbolic`` imports
``irreducible_decomposition`` and ``cli`` imports most public functions, so
patching only the home module would miss those calls.  Each call records a
span (name, start, end, parent) in memory; hooks add work counts at the
same boundary.  ``layer_metrics`` turns one pass's spans into the per-layer
figures.

``Monomial`` value methods (``divides``, ``lcm``, ``*``) are not wrapped:
they run millions of times per pass, and their cost lands in the self time
of the ideal method that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Sequence

PACKAGE = "oriented_ideals"
MODULES = ("graphs", "covers", "ideals", "monomials", "symbolic", "theorems", "cli")

# Methods wrapped on their class, besides the module-level functions.
METHODS = {
    ("monomials", "MonomialIdeal"): (
        "__init__", "__mul__", "__pow__", "__add__", "__le__", "intersect",
        "saturate", "contains", "contains_ideal", "with_ambient",
        "generator_strings",
    ),
    ("graphs", "WeightedOrientedGraph"): (
        "__init__", "from_json", "to_json", "induced_subgraph",
    ),
}

ITEM = "item"  # the benchmark's own span around one timed item


class Tracer:
    """Spans of one pass, kept in parallel lists in the order they opened.

    Parents open before their children, so a parent's index is always
    smaller than its children's.  The root of every span is the ``item``
    span the benchmark opened around the call, which identifies the request.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: Counter[str] = Counter()
        self.peak_gens = 0  # most generators of any product, intersection or saturation
        # (item span index, graph) pairs seen by a cover scan
        self.scanned: set[tuple[int, object]] = set()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def item(self) -> int:
        """Index of the root span of the call in progress."""
        return self._stack[0] if self._stack else -1


def self_times(
    names: Sequence[str], start: Sequence[float], end: Sequence[float],
    parent: Sequence[int],
) -> dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    Spans come from one thread, so the children of a span never overlap and
    the part of its interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(names)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        out[name] += end[i] - start[i] - covered[i]
    return dict(out)


def inclusive_times(
    names: Sequence[str], start: Sequence[float], end: Sequence[float],
    parent: Sequence[int],
) -> dict[str, float]:
    """Per-name total time, counting a span only if no ancestor has its name."""
    out: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        p = parent[i]
        while p >= 0 and names[p] != name:
            p = parent[p]
        if p < 0:
            out[name] += end[i] - start[i]
    return dict(out)


# --- counting hooks: (tracer, args, result) at the end of the span ---------

def _count_product(kind: str) -> Callable:
    def hook(tracer: Tracer, args: tuple, result: object) -> None:
        a, b = args[0], args[1]
        if result is NotImplemented:
            return
        gens = len(result.generators)
        tracer.counts[f"{kind}_calls"] += 1
        tracer.counts["rows_in"] += len(a.generators) * len(b.generators)
        tracer.counts["rows_out"] += gens
        tracer.peak_gens = max(tracer.peak_gens, gens)
    return hook


def _count_saturate(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.peak_gens = max(tracer.peak_gens, len(result.generators))


def _count_scan(tracer: Tracer, args: tuple, result: object) -> None:
    g = args[0]
    tracer.counts["scans"] += 1
    tracer.counts["subsets"] += 1 << len(g.vertices)
    tracer.scanned.add((tracer.item(), g))


def _count_strong_scan(tracer: Tracer, args: tuple, result: object) -> None:
    _count_scan(tracer, args, result)
    tracer.counts["strong"] += len(result)
    tracer.counts["strong_subsets"] += 1 << len(args[0].vertices)


def _count_decomposition(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["components"] += len(result)


HOOKS: dict[str, Callable] = {
    "monomials.MonomialIdeal.__mul__": _count_product("mul"),
    "monomials.MonomialIdeal.intersect": _count_product("intersect"),
    "monomials.MonomialIdeal.saturate": _count_saturate,
    "covers.enumerate_strong_covers": _count_strong_scan,
    "covers.minimal_vertex_covers": _count_scan,
    "ideals.irreducible_decomposition": _count_decomposition,
}


def _wrap(fn: Callable, name: str, tracer: Tracer) -> Callable:
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result
        finally:
            tracer.close(idx)

    return wrapper


def _targets() -> Iterable[tuple[object, str, Callable, str, Callable]]:
    """(owner, attribute, original, span name, rewrap) for every wrapped callable."""
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                yield module, attr, obj, f"{short}.{attr}", lambda w: w
    for (short, cls_name), methods in METHODS.items():
        cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
        for attr in methods:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                yield cls, attr, raw.__func__, f"{short}.{cls_name}.{attr}", classmethod
            else:
                yield cls, attr, raw, f"{short}.{cls_name}.{attr}", lambda w: w


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the package's public callables; returns a function that undoes it."""
    undo: list[tuple[object, str, object]] = []
    replaced: dict[int, Callable] = {}
    for owner, attr, original, name, rewrap in _targets():
        wrapper = _wrap(original, name, tracer)
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, rewrap(wrapper))
        replaced[id(original)] = wrapper
    # every other module-level binding of a wrapped function
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and obj is not wrapper:
                undo.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall() -> None:
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return uninstall


def _sum(table: dict[str, float], names: Iterable[str]) -> float:
    return sum(table.get(n, 0.0) for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# The per-layer metrics, in report order, with their units.
LAYER_UNITS = {
    "monomials.mul_s": "s",
    "monomials.intersect_s": "s",
    "monomials.saturate_s": "s",
    "monomials.contains_s": "s",
    "monomials.mul_calls": "count",
    "monomials.intersect_calls": "count",
    "monomials.rows_in": "count",
    "monomials.rows_out": "count",
    "monomials.keep_ratio": "ratio",
    "monomials.peak_gens": "count",
    "ideals.decomp_total_s": "s",
    "ideals.decomp_self_s": "s",
    "ideals.decomp_calls": "count",
    "ideals.components": "count",
    "symbolic.q_sub_p_s": "s",
    "symbolic.q_sub_p_calls": "count",
    "symbolic.compare_self_s": "s",
    "symbolic.oracle_s": "s",
    "symbolic.maximal_primes": "count",
    "covers.scan_s": "s",
    "covers.maximal_s": "s",
    "covers.calls": "count",
    "covers.subsets": "count",
    "covers.strong": "count",
    "covers.yield": "ratio",
    "covers.calls_per_graph": "ratio",
    "theorems.check_self_s": "s",
    "theorems.checks": "count",
    "cli.self_s": "s",
    "cli.requests": "count",
    "cli.stdout_bytes": "bytes",
    "graphs.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    All but ``cli.stdout_bytes`` and ``trace.overhead_s``, which the worker
    measures outside the spans.  Time spent in the benchmark's own ``item``
    spans is not attributed.
    """
    names, start, end, parent = tracer.names, tracer.start, tracer.end, tracer.parent
    own = self_times(names, start, end, parent)
    total = inclusive_times(names, start, end, parent)
    calls = Counter(names)
    counts = tracer.counts

    def layer_self(prefix: str) -> float:
        return sum(t for n, t in own.items() if n.startswith(prefix))

    # one localization per maximal prime: q_sub_p on route one, a saturation
    # of I^s on the oracle route
    per_prime = {
        ("symbolic.q_sub_p", "symbolic.compare_powers"),
        ("symbolic.q_sub_p", "symbolic.symbolic_power"),
        ("monomials.MonomialIdeal.saturate", "symbolic.symbolic_power_oracle"),
    }
    primes = sum(
        p >= 0 and (name, names[p]) in per_prime for name, p in zip(names, parent)
    )
    scans = ("covers.enumerate_strong_covers", "covers.minimal_vertex_covers")

    mi = "monomials.MonomialIdeal."
    return {
        "monomials.mul_s": own.get(mi + "__mul__", 0.0),
        "monomials.intersect_s": own.get(mi + "intersect", 0.0),
        "monomials.saturate_s": own.get(mi + "saturate", 0.0),
        "monomials.contains_s": _sum(own, (mi + "contains", mi + "contains_ideal", mi + "__le__")),
        "monomials.mul_calls": counts["mul_calls"],
        "monomials.intersect_calls": counts["intersect_calls"],
        "monomials.rows_in": counts["rows_in"],
        "monomials.rows_out": counts["rows_out"],
        "monomials.keep_ratio": _ratio(counts["rows_out"], counts["rows_in"]),
        "monomials.peak_gens": tracer.peak_gens,
        "ideals.decomp_total_s": total.get("ideals.irreducible_decomposition", 0.0),
        "ideals.decomp_self_s": own.get("ideals.irreducible_decomposition", 0.0),
        "ideals.decomp_calls": calls["ideals.irreducible_decomposition"],
        "ideals.components": counts["components"],
        "symbolic.q_sub_p_s": total.get("symbolic.q_sub_p", 0.0),
        "symbolic.q_sub_p_calls": calls["symbolic.q_sub_p"],
        "symbolic.compare_self_s": own.get("symbolic.compare_powers", 0.0),
        "symbolic.oracle_s": total.get("symbolic.symbolic_power_oracle", 0.0),
        "symbolic.maximal_primes": primes,
        "covers.scan_s": _sum(total, scans),
        "covers.maximal_s": own.get("covers.maximal_strong_covers", 0.0),
        "covers.calls": counts["scans"],
        "covers.subsets": counts["subsets"],
        "covers.strong": counts["strong"],
        "covers.yield": _ratio(counts["strong"], counts["strong_subsets"]),
        "covers.calls_per_graph": _ratio(counts["scans"], len(tracer.scanned)),
        "theorems.check_self_s": layer_self("theorems."),
        "theorems.checks": sum(c for n, c in calls.items() if n.startswith("theorems.check_")),
        "cli.self_s": layer_self("cli."),
        "cli.requests": calls["cli.main"],
        "graphs.self_s": layer_self("graphs."),
        "trace.spans": len(names),
    }
