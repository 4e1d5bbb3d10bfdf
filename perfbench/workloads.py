"""The four workloads: their inputs, their timed items and output digests.

An item is one timed public call (or, for ``cycle-w2``, the fixed group of
calls the workload defines) and its output digest.  Items call the library
through module attributes at call time, so the tracing wrappers see every
call.  The graph sets come from the workload seed alone; the runner's
``--seed`` only fixes the order in which items run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

DEFAULT_WORKLOAD_SEED = 20260819

NAMES = ("sample200-s3", "cycle-w2", "cover-scan", "cli-mix")

# Span names each workload must record in a traced pass: one per wrapped
# function the workload is expected to reach, so a binding the tracer
# failed to patch shows up as a missing span.
EXPECTED_SPANS = {
    "sample200-s3": (
        "symbolic.compare_powers", "symbolic.q_sub_p", "ideals.edge_ideal",
        "ideals.irreducible_decomposition", "ideals.irreducible_component",
        "covers.enumerate_strong_covers", "covers.is_strong_cover",
        "covers.cover_partition", "covers.is_vertex_cover",
        "monomials.intersect_all", "monomials.MonomialIdeal.__mul__",
        "monomials.MonomialIdeal.intersect", "monomials.MonomialIdeal.contains",
        "monomials.MonomialIdeal.contains_ideal", "monomials.MonomialIdeal.__init__",
        "graphs.WeightedOrientedGraph.to_json",
    ),
    "cycle-w2": (
        "ideals.irreducible_decomposition", "ideals.decomposition_intersection",
        "ideals.edge_ideal", "symbolic.compare_powers", "symbolic.q_sub_p",
        "covers.enumerate_strong_covers", "monomials.intersect_all",
        "monomials.MonomialIdeal.intersect", "monomials.MonomialIdeal.__mul__",
        "monomials.MonomialIdeal.contains_ideal",
    ),
    "cover-scan": (
        "covers.enumerate_strong_covers", "covers.maximal_strong_covers",
        "covers.minimal_vertex_covers", "covers.is_strong_cover",
        "covers.cover_partition", "covers.is_vertex_cover",
    ),
    "cli-mix": (
        "cli.main", "cli.build_parser", "cli.cmd_verify", "cli.cmd_covers",
        "cli.cmd_decompose", "cli.cmd_power",
        "graphs.WeightedOrientedGraph.from_json", "graphs.oriented_line",
        "graphs.oriented_cycle", "graphs.rooted_tree", "graphs.forest_broom",
        "theorems.check_line_characterization", "theorems.check_line_cubic_witness",
        "theorems.check_line_cover_families", "theorems.check_cycle_equality",
        "theorems.check_broom_equality", "theorems.check_full_cover_equality",
        "theorems.random_regression", "theorems.random_graph",
        "symbolic.symbolic_power", "symbolic.symbolic_power_oracle",
        "symbolic.compare_powers", "monomials.MonomialIdeal.saturate",
        "covers.maximal_strong_covers", "covers.cover_partition",
        "ideals.irreducible_decomposition", "ideals.decomposition_intersection",
    ),
}


def digest(obj: object) -> str:
    """Short stable digest of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Item:
    key: str
    run: Callable[[], object]
    canonical: Callable[[object], object]  # output -> JSON-able value


class CliOutput(NamedTuple):
    code: int
    stdout: str
    stderr: str


@dataclass
class Workload:
    name: str
    items: list[Item]
    # untimed items checked once per run, beside the timed ones
    checks: list[Item] = field(default_factory=list)


def _decomposition_json(g, comps) -> list:
    return [
        {"cover": list(g.sort_vertices(c.cover)), "ideal": c.ideal.generator_strings()}
        for c in comps
    ]


def acceptance_sample(api, workload_seed: int) -> list:
    rng = random.Random(workload_seed)
    return [api.random_graph(rng, n_max=7, weight_max=3) for _ in range(200)]


def _sample200(api, workload_seed: int) -> Workload:
    graphs = acceptance_sample(api, workload_seed)
    items = [
        Item(f"g{i:03d}", lambda g=g: api.compare_powers(g, 3), lambda r: r.to_json())
        for i, g in enumerate(graphs)
    ]
    checks = [
        Item(
            f"decomposition:g{i:03d}",
            lambda g=g: api.irreducible_decomposition(g),
            lambda comps, g=g: _decomposition_json(g, comps),
        )
        for i, g in enumerate(graphs)
    ]
    return Workload("sample200-s3", items, checks)


def _cycle_item(api, g) -> tuple:
    comps = api.irreducible_decomposition(g)
    identity = api.decomposition_intersection(comps, g) == api.edge_ideal(g)
    return comps, identity, api.compare_powers(g, 2)


def _cycle_w2(api, workload_seed: int) -> Workload:
    items = []
    for n in (8, 9, 10):
        g = api.oriented_cycle(n, (2,) * n)
        items.append(Item(
            f"cycle{n}",
            lambda g=g: _cycle_item(api, g),
            lambda out, g=g: {
                "decomposition": _decomposition_json(g, out[0]),
                "identity": out[1],
                "report": out[2].to_json(),
            },
        ))
    return Workload("cycle-w2", items)


def cover_scan_graphs(api, workload_seed: int) -> list[tuple[str, object]]:
    rng = random.Random(workload_seed)
    graphs = [
        ("line18", api.oriented_line(18, tuple(1 + i % 2 for i in range(18)))),
        ("cycle18", api.oriented_cycle(18, (2,) * 18)),
    ]
    for k in range(3):
        graphs.append(
            (f"random{k}", api.random_graph(rng, n_min=18, n_max=18, edge_prob=0.25))
        )
    return graphs


def _cover_scan(api, workload_seed: int) -> Workload:
    items = []
    for label, g in cover_scan_graphs(api, workload_seed):
        for fn in ("enumerate_strong_covers", "maximal_strong_covers", "minimal_vertex_covers"):
            items.append(Item(
                f"{fn}:{label}",
                lambda g=g, fn=fn: getattr(api, fn)(g),
                lambda covers, g=g: [list(g.sort_vertices(c)) for c in covers],
            ))
    return Workload("cover-scan", items)


CLI_GRAPHS = {
    "break-line": ("line", (1, 1, 1, 1, 2, 2, 1)),
    "cycle6-w2": ("cycle", (2, 2, 2, 2, 2, 2)),
    "witness-line": ("line", (1, 2, 1, 1, 1)),
}


def cli_requests() -> list[list[str]]:
    """The 46 argv lists; a graph is named by its CLI_GRAPHS key."""
    requests = [["verify", "--family", "all", "--json"]]
    for bits in range(32):
        weights = ",".join(str(1 + (bits >> k & 1)) for k in range(5))
        requests.append(["verify", "--family", "line", "--weights", weights, "--json"])
    for name in CLI_GRAPHS:
        requests += [
            ["covers", name, "--maximal", "--json"],
            ["covers", name, "--partition"],
            ["decompose", name, "--json"],
            ["power", name, "--s", "3", "--oracle", "--json"],
        ]
    requests.append(["verify", "--random", "--seed", "7", "--trials", "25", "--json"])
    return requests


def _cli_call(cli, argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def write_cli_graphs(api, directory: str) -> dict[str, str]:
    paths = {}
    for name, (kind, weights) in CLI_GRAPHS.items():
        build = api.oriented_line if kind == "line" else api.oriented_cycle
        g = build(len(weights), weights)
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(g.to_json(), fh)
        paths[name] = path
    return paths


def _cli_mix(api, workload_seed: int, scratch: str) -> Workload:
    import oriented_ideals.cli as cli

    paths = write_cli_graphs(api, scratch)
    items = []
    for argv in cli_requests():
        real = [paths.get(a, a) for a in argv]
        items.append(Item(
            " ".join(argv),
            lambda real=real: _cli_call(cli, real),
            lambda out: {"exit": out.code, "stdout": out.stdout},
        ))
    return Workload("cli-mix", items)


def build(name: str, api, workload_seed: int, scratch: str) -> Workload:
    """The workload's items; scratch is a directory for input files."""
    if name == "sample200-s3":
        return _sample200(api, workload_seed)
    if name == "cycle-w2":
        return _cycle_w2(api, workload_seed)
    if name == "cover-scan":
        return _cover_scan(api, workload_seed)
    if name == "cli-mix":
        return _cli_mix(api, workload_seed, scratch)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


def expected_path(bench_dir: str, workload_seed: int) -> str:
    return os.path.join(bench_dir, "expected", f"{workload_seed}.json")


def check(item: Item, output: object, expected: dict[str, str]) -> tuple[str, str | None]:
    """(digest, problem): problem is None when the digest matches the recorded one."""
    got = digest(item.canonical(output))
    want = expected.get(item.key)
    if want is None:
        return got, f"{item.key}: no recorded digest"
    if got != want:
        return got, f"{item.key}: digest {got} != recorded {want}"
    return got, None
