"""Command-line front end.

Subcommands: covers, decompose, power, verify.  Graphs come in as JSON
files ({"vertices": [...], "edges": [[tail, head], ...], "weights":
{...}}); results print as text or, with --json, as JSON on stdout.

Exit codes: 0 success, 1 verification failure (a failed check, or a result
that broke an invariant the theory guarantees), 2 input error, 3 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from .covers import (
    CapExceededError,
    cover_partition,
    enumerate_strong_covers,
    maximal_strong_covers,
    minimal_vertex_covers,
)
from .graphs import WeightedOrientedGraph, oriented_cycle, oriented_line, rooted_tree
from .ideals import (
    decomposition_intersection,
    edge_ideal,
    irreducible_decomposition,
)
from .symbolic import (
    InvariantError,
    compare_powers,
    symbolic_power,
    symbolic_power_oracle,
)
from .theorems import (
    check_broom_equality,
    check_cycle_equality,
    check_full_cover_equality,
    check_line_characterization,
    check_line_cover_families,
    check_line_cubic_witness,
    line_drop,
    random_regression,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3


def _load_graph(path: str) -> WeightedOrientedGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
    return WeightedOrientedGraph.from_json(data)


def _fmt_set(g: WeightedOrientedGraph, vs) -> str:
    return "{" + ", ".join(g.sort_vertices(vs)) + "}"


def cmd_covers(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.minimal:
        covers = minimal_vertex_covers(g)
        kind = "minimal vertex covers"
    elif args.maximal:
        covers = maximal_strong_covers(g)
        kind = "maximal strong covers"
    else:
        covers = enumerate_strong_covers(g)
        kind = "strong covers"

    if args.json:
        if args.partition:
            payload = [cover_partition(g, c).to_json() for c in covers]
        else:
            payload = [list(g.sort_vertices(c)) for c in covers]
        print(json.dumps(payload, indent=2))
        return EXIT_OK

    print(f"{kind} ({len(covers)}):")
    for c in covers:
        if args.partition:
            p = cover_partition(g, c)
            print(
                f"  {_fmt_set(g, c)}  L1={_fmt_set(g, p.l1)} "
                f"L2={_fmt_set(g, p.l2)} L3={_fmt_set(g, p.l3)}"
            )
        else:
            print(f"  {_fmt_set(g, c)}")
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    ideal = edge_ideal(g)
    comps = irreducible_decomposition(g)
    identity = decomposition_intersection(comps, g) == ideal
    if args.json:
        payload = {
            "edge_ideal": ideal.generator_strings(),
            "components": [c.to_json() for c in comps],
            "intersection_equals_edge_ideal": identity,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"edge ideal: {ideal}")
    if not comps:
        print("no components (zero ideal)")
    for c in comps:
        print(f"  cover {_fmt_set(g, c.cover)}: {c.ideal}")
    print(f"intersection equals edge ideal: {str(identity).lower()}")
    return EXIT_OK if identity else EXIT_VERIFICATION_FAILED


def cmd_power(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    s = args.s
    if s < 1:
        print(f"error: --s must be >= 1, got {s}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    mode = "compare"
    if args.ordinary:
        mode = "ordinary"
    elif args.symbolic:
        mode = "symbolic"
    if args.oracle and mode == "ordinary":
        print("error: --oracle only applies to symbolic computations", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if mode == "ordinary":
        result = edge_ideal(g) ** s
        if args.json:
            print(json.dumps({"s": s, "ordinary": result.generator_strings()}, indent=2))
        else:
            print(f"I^{s} = {result}")
        return EXIT_OK

    if mode == "symbolic":
        result = symbolic_power(g, s)
        oracle_ok = True
        oracle = None
        if args.oracle:
            oracle = symbolic_power_oracle(g, s)
            oracle_ok = oracle == result
        if args.json:
            payload = {"s": s, "symbolic": result.generator_strings()}
            if args.oracle:
                payload["oracle"] = oracle.generator_strings()
                payload["oracle_agrees"] = oracle_ok
            print(json.dumps(payload, indent=2))
        else:
            print(f"I^({s}) = {result}")
            if args.oracle:
                print(f"oracle agrees: {str(oracle_ok).lower()}")
                if not oracle_ok:
                    print(f"oracle route: {oracle}")
        return EXIT_OK if oracle_ok else EXIT_VERIFICATION_FAILED

    report = compare_powers(g, s)
    oracle_ok = True
    oracle_dump = {}
    if args.oracle:
        for step in report.per_s:
            oracle = symbolic_power_oracle(g, step.s)
            route_one = symbolic_power(g, step.s)
            if oracle != route_one:
                oracle_ok = False
                oracle_dump[step.s] = {
                    "symbolic": route_one.generator_strings(),
                    "oracle": oracle.generator_strings(),
                }
    if args.json:
        payload = report.to_json()
        if args.oracle:
            payload["oracle_agrees"] = oracle_ok
            if oracle_dump:
                payload["oracle_disagreements"] = oracle_dump
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'s':>3} {'|I^s|':>7} {'|I^(s)|':>8} {'equal':>6}  witness")
        for step in report.per_s:
            witness = "-" if step.witness is None else step.witness
            print(
                f"{step.s:>3} {step.ordinary_generators:>7} "
                f"{step.symbolic_generators:>8} {str(step.equal).lower():>6}  {witness}"
            )
        if args.oracle:
            print(f"oracle agrees: {str(oracle_ok).lower()}")
            for s_bad, dump in oracle_dump.items():
                print(f"  s={s_bad} symbolic: {dump['symbolic']}")
                print(f"  s={s_bad} oracle:   {dump['oracle']}")
    return EXIT_OK if oracle_ok else EXIT_VERIFICATION_FAILED


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--weights wants comma-separated integers, got {text!r}") from None


def _standard_brooms(w_z: int):
    lone = rooted_tree({}, "z", {"z": w_z})
    star = rooted_tree({"t1": "z", "t2": "z"}, "z", {"z": w_z, "t1": 1, "t2": 1})
    path = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": w_z, "t1": 2, "t2": 2})
    return [(lone, "single-vertex tree"), (star, "star with two leaves"), (path, "path of three")]


def _verify_checks(args: argparse.Namespace) -> list:
    checks = []
    family = args.family
    s_max = args.s_max
    if family in ("line", "all"):
        weight_vectors = []
        if args.weights:
            weight_vectors.append(_parse_weights(args.weights))
        elif family == "line":
            raise ValueError("--family line needs --weights")
        if family == "all" and not args.weights:
            weight_vectors = [(1, 2, 2, 1), (1, 2, 1, 1, 1), (1, 1, 1, 1, 1)]
        for wv in weight_vectors:
            checks.append(check_line_characterization(wv))
            drop = line_drop(wv)
            if drop is not None:
                checks.append(check_line_cubic_witness(wv, drop))
            families = check_line_cover_families(wv)
            if families.hypotheses_ok:
                checks.append(families)
        if family == "all":
            checks.append(check_line_cover_families((1, 1, 1, 1, 2, 2, 1)))
    if family in ("cycle", "all"):
        if args.weights and family == "cycle":
            checks.append(check_cycle_equality(_parse_weights(args.weights), s_max))
        else:
            checks.append(check_cycle_equality((2, 2, 2), s_max))
            checks.append(check_cycle_equality((2, 2, 2, 2), s_max))
    if family in ("forest", "all"):
        for tree, label in _standard_brooms(args.w_z):
            result = check_broom_equality(tree, "z", args.w_y, args.w_z, s_max)
            result.instance += f" ({label})"
            checks.append(result)
    if family == "all":
        checks.append(
            check_full_cover_equality(oriented_line(3, (2, 2, 2)), s_max)
        )
        checks.append(
            check_full_cover_equality(oriented_cycle(3, (2, 2, 2)), s_max)
        )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    # the line checks do not read --s-max, so it is checked here for all
    if args.s_max < 1:
        raise ValueError(f"--s-max must be >= 1, got {args.s_max}")
    results = []
    summary = None
    if args.random:
        summary = random_regression(args.seed, args.trials, s_max=args.s_max)
    if args.family:
        results = _verify_checks(args)

    failed = any(r.status == "fail" for r in results) or (
        summary is not None and not summary.passed
    )
    if args.json:
        payload = {"checks": [r.to_json() for r in results]}
        if summary is not None:
            payload["regression"] = summary.to_json()
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(f"{r.status.upper():<5} {r.check}: {r.instance}")
            if r.status == "skip":
                print(f"      {r.details.get('notice', '')}")
            elif r.status == "fail":
                print(f"      predicted: {r.prediction}")
                print(f"      computed:  {r.computed}")
        if summary is not None:
            verdict = "pass" if summary.passed else "FAIL"
            print(
                f"{verdict}: random regression seed={summary.seed} "
                f"trials={summary.trials} failures={len(summary.failures)}"
            )
            for failure in summary.failures:
                print(f"      {json.dumps(failure)}")
    return EXIT_VERIFICATION_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oriented-ideals",
        description=(
            "Exact computations with edge ideals of weighted oriented graphs: "
            "strong covers, irreducible decompositions, symbolic powers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_covers = sub.add_parser("covers", help="enumerate vertex covers")
    p_covers.add_argument("graph", help="path to a graph JSON file")
    group = p_covers.add_mutually_exclusive_group()
    group.add_argument("--strong", action="store_true", help="strong covers (default)")
    group.add_argument("--minimal", action="store_true", help="minimal vertex covers")
    group.add_argument("--maximal", action="store_true", help="maximal strong covers")
    p_covers.add_argument(
        "--partition", action="store_true", help="show the L1/L2/L3 layers"
    )
    p_covers.add_argument("--json", action="store_true")
    p_covers.set_defaults(func=cmd_covers)

    p_dec = sub.add_parser("decompose", help="irreducible decomposition")
    p_dec.add_argument("graph", help="path to a graph JSON file")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_pow = sub.add_parser("power", help="ordinary and symbolic powers")
    p_pow.add_argument("graph", help="path to a graph JSON file")
    p_pow.add_argument("--s", type=int, default=3, help="exponent (default 3)")
    mode = p_pow.add_mutually_exclusive_group()
    mode.add_argument("--ordinary", action="store_true", help="print I^s")
    mode.add_argument("--symbolic", action="store_true", help="print the symbolic power")
    mode.add_argument(
        "--compare", action="store_true", help="table of I^s vs symbolic, s=1..N (default)"
    )
    p_pow.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the symbolic power against the localization route",
    )
    p_pow.add_argument("--json", action="store_true")
    p_pow.set_defaults(func=cmd_power)

    p_ver = sub.add_parser("verify", help="run the theorem checks")
    p_ver.add_argument(
        "--family", choices=["line", "cycle", "forest", "all"], default=None
    )
    p_ver.add_argument("--weights", help="comma-separated weights, e.g. 1,2,2,1")
    p_ver.add_argument("--w-y", type=int, default=2, dest="w_y")
    p_ver.add_argument("--w-z", type=int, default=2, dest="w_z")
    p_ver.add_argument("--s-max", type=int, default=3, dest="s_max")
    p_ver.add_argument("--random", action="store_true", help="randomized regression")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=25)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.family and not args.random:
        print("error: verify needs --family and/or --random", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
