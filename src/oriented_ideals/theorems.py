"""Executable checks for the structural results on symbolic powers.

Each check builds a concrete graph family instance, runs the exact
machinery, and compares the computed outcome against the predicted one,
returning a CheckResult verdict.  Instances that violate a check's
hypotheses are skipped with a notice rather than failed.

The families covered:

  * full cover: with all weights >= 2 (and no isolated vertices) the full
    vertex set is a strong cover exactly when there is no source, and
    then ordinary and symbolic powers agree;
  * naturally oriented cycles with all weights >= 2: powers agree;
  * brooms (a handle x -> y -> z in front of a tree rooted at z): powers
    agree, and the strong covers split into two families with explicitly
    predictable intersections;
  * oriented lines: a weight drop from >= 2 to 1 in the interior forces a
    cubic witness, powers agree for every s exactly when the interior
    weights >= 2 form a suffix, and in the single-break case the maximal
    strong covers and their component intersections have a closed form.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from .covers import (
    is_strong_cover,
    maximal_strong_covers,
    minimal_vertex_covers,
)
from .graphs import (
    WeightedOrientedGraph,
    forest_broom,
    oriented_cycle,
    oriented_line,
)
from .ideals import (
    decomposition_intersection,
    edge_ideal,
    irreducible_decomposition,
)
from .monomials import MonomialIdeal, _format, intersect_all
from .symbolic import (
    _compare,
    _powers_up_to,
    _prime_complements,
    _require_positive,
    _saturated_meet,
    compare_powers,
    q_sub_p,
)


@dataclass
class CheckResult:
    """Outcome of one theorem check on one instance."""

    check: str
    instance: str
    hypotheses_ok: bool
    prediction: str
    computed: str
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if not self.hypotheses_ok:
            return "skip"
        return "pass" if self.passed else "fail"

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "hypotheses_ok": self.hypotheses_ok,
            "prediction": self.prediction,
            "computed": self.computed,
            "pass": self.passed,
            "status": self.status,
            "details": self.details,
        }


def _skip(check: str, instance: str, notice: str) -> CheckResult:
    return CheckResult(
        check=check,
        instance=instance,
        hypotheses_ok=False,
        prediction="",
        computed=notice,
        passed=False,
        details={"notice": notice},
    )


def check_full_cover_equality(g: WeightedOrientedGraph, s_max: int = 3) -> CheckResult:
    """All weights >= 2: the full vertex set is strong iff there is no source,
    and when it is strong the powers agree.

    Isolated vertices are outside the statement (they are neither sources
    nor coverable into a strong full cover), so they skip the check.
    """
    _require_positive("s_max", s_max)
    name = "full_cover_equality"
    instance = f"graph with {len(g.vertices)} vertices, {len(g.edges)} edges"
    if any(w < 2 for w in g.weights.values()):
        return _skip(name, instance, "needs every weight >= 2")
    if any(g.is_isolated(v) for v in g.vertices):
        return _skip(name, instance, "isolated vertices are outside the statement")

    full_strong = is_strong_cover(g, g.vertices)
    sources = g.sources()
    equivalence_ok = full_strong == (not sources)

    details: dict = {
        "full_cover_strong": full_strong,
        "sources": sorted(sources),
    }
    prediction = "full cover strong iff no sources"
    if full_strong:
        report = compare_powers(g, s_max)
        details["comparison"] = report.to_json()
        prediction += f"; powers equal up to s={s_max}"
        passed = equivalence_ok and report.all_equal
        computed = (
            f"strong={full_strong}, sources={len(sources)}, "
            f"first_inequality={report.first_inequality}"
        )
    else:
        passed = equivalence_ok
        computed = f"strong={full_strong}, sources={len(sources)}"
    return CheckResult(
        check=name,
        instance=instance,
        hypotheses_ok=True,
        prediction=prediction,
        computed=computed,
        passed=passed,
        details=details,
    )


def check_cycle_equality(weights: Sequence[int], s_max: int = 3) -> CheckResult:
    """Naturally oriented cycle, all weights >= 2: powers agree up to s_max."""
    _require_positive("s_max", s_max)
    name = "cycle_equality"
    weights = tuple(weights)
    for w in weights:
        _require_positive("cycle weight", w)
    instance = f"cycle weights={weights}"
    if len(weights) < 3:
        return _skip(name, instance, "a cycle needs at least three vertices")
    if any(w < 2 for w in weights):
        return _skip(name, instance, "needs every weight >= 2")
    g = oriented_cycle(len(weights), weights)
    report = compare_powers(g, s_max)
    return CheckResult(
        check=name,
        instance=instance,
        hypotheses_ok=True,
        prediction=f"powers equal up to s={s_max}",
        computed=f"first_inequality={report.first_inequality}",
        passed=report.all_equal,
        details={"comparison": report.to_json()},
    )


def check_broom_equality(
    tree: WeightedOrientedGraph,
    root: str,
    w_y: int,
    w_z: int,
    s_max: int = 3,
) -> CheckResult:
    """Handle x -> y -> root in front of a tree: powers agree, and the strong
    covers split into the family through x (with root, without y) and the
    family through y (without x), with closed-form intersections:

        through x:  (x, root^w) + tree edge ideal
        through y:  (y^w(y), y*root^w) + tree edge ideal
    """
    _require_positive("s_max", s_max)
    for weight_name, w in (("w_y", w_y), ("w_z", w_z)):
        _require_positive(weight_name, w)
    name = "broom_equality"
    instance = (
        f"broom w_y={w_y} w_z={w_z} tree_vertices={len(tree.vertices)} root={root!r}"
    )
    try:
        broom = forest_broom(w_y, w_z, tree, root)
    except ValueError as exc:
        return _skip(name, instance, str(exc))

    x, y = broom.vertices[0], broom.vertices[1]
    ambient = broom.vertices
    # the handle's generators x*y^w(y) and y*root^w lie in both families'
    # pure-power parts, so adding the whole edge ideal adds the tree's
    broom_ideal = edge_ideal(broom)

    # a broom has edges, so its components are indexed by all its strong
    # covers, in scan order
    through_x = []
    through_y = []
    stray = []
    for comp in irreducible_decomposition(broom):
        c = comp.cover
        if x in c and y not in c and root in c:
            through_x.append(comp.ideal)
        elif y in c and x not in c:
            through_y.append(comp.ideal)
        else:
            stray.append(c)

    computed_1 = intersect_all(through_x, ambient=ambient)
    computed_2 = intersect_all(through_y, ambient=ambient)

    w_root = broom.weight(root)
    predicted_1 = MonomialIdeal(ambient, [x, f"{root}^{w_root}"]) + broom_ideal
    predicted_2 = MonomialIdeal(
        ambient, [f"{y}^{broom.weight(y)}", f"{y}*{root}^{w_root}"]
    ) + broom_ideal

    expected_maximal = {
        frozenset(broom.vertices) - {y},
        frozenset(broom.vertices) - {x},
    }
    maximal = set(maximal_strong_covers(broom))

    report = compare_powers(broom, s_max)
    passed = (
        report.all_equal
        and not stray
        and computed_1 == predicted_1
        and computed_2 == predicted_2
        and maximal == expected_maximal
    )
    return CheckResult(
        check=name,
        instance=instance,
        hypotheses_ok=True,
        prediction=(
            f"powers equal up to s={s_max}; covers split through x or y; "
            "family intersections have the closed form"
        ),
        computed=(
            f"first_inequality={report.first_inequality}, stray_covers={len(stray)}, "
            f"family_1={'ok' if computed_1 == predicted_1 else 'mismatch'}, "
            f"family_2={'ok' if computed_2 == predicted_2 else 'mismatch'}, "
            f"maximal={'ok' if maximal == expected_maximal else 'mismatch'}"
        ),
        passed=passed,
        details={
            "comparison": report.to_json(),
            "family_1_ideal": computed_1.generator_strings(),
            "family_2_ideal": computed_2.generator_strings(),
            "stray_covers": [sorted(c) for c in stray],
        },
    )


def check_line_cubic_witness(weights: Sequence[int], i: int) -> CheckResult:
    """Oriented line with w(x_i) >= 2 and w(x_(i+1)) = 1 for an interior i
    (1 < i < n-1): the monomial

        x_(i-1) * x_i^w(x_i) * x_(i+1)^2 * x_(i+2)^w(x_(i+2))

    lies in the third symbolic power but not in I^3.  A weight below 1 or
    an i that is not an int raises ValueError; an int i that is not
    interior is a skip.
    """
    name = "line_cubic_witness"
    weights = tuple(weights)
    for w in weights:
        _require_positive("weight", w)
    if not isinstance(i, int) or isinstance(i, bool):
        raise ValueError(f"i must be an integer, got {i!r}")
    n = len(weights)
    instance = f"line weights={weights}, i={i}"
    if not 1 < i < n - 1:
        return _skip(name, instance, f"i={i} is not interior (need 1 < i < {n - 1})")
    if weights[i - 1] < 2:
        return _skip(name, instance, f"w(x{i})={weights[i - 1]} but needs >= 2")
    if weights[i] != 1:
        return _skip(name, instance, f"w(x{i + 1})={weights[i]} but needs exactly 1")

    g = oriented_line(n, weights)
    # x_(i-1), x_i, x_(i+1) and x_(i+2) are the positions i-2 to i+1
    f = _format(g.vertices, (0,) * (i - 2) + (1, weights[i - 1], 2, weights[i + 1]))
    report, cube, third_symbolic = _compare(g, 3)
    in_symbolic = third_symbolic.contains(f)
    in_cube = cube.contains(f)
    unequal_at_3 = not report.per_s[2].equal
    passed = in_symbolic and not in_cube and unequal_at_3
    return CheckResult(
        check=name,
        instance=instance,
        hypotheses_ok=True,
        prediction="witness in third symbolic power, not in I^3; powers differ at s=3",
        computed=(
            f"witness={f}, in_symbolic={in_symbolic}, "
            f"in_cube={in_cube}, unequal_at_3={unequal_at_3}"
        ),
        passed=passed,
        details={"witness": f, "comparison": report.to_json()},
    )


def line_drop(weights: Sequence[int]) -> int | None:
    """The first interior i (1 < i < n-1) with w(x_i) >= 2 and w(x_(i+1)) = 1.

    Such a drop is where the cubic witness lives; None means there is none.
    A weight below 1 is no weighting, so it raises ValueError.
    """
    for w in weights:
        _require_positive("weight", w)
    return next(
        (i for i in range(2, len(weights) - 1) if weights[i - 1] >= 2 and weights[i] == 1),
        None,
    )


def line_equality_condition(weights: Sequence[int]) -> bool:
    """True iff the interior weights that are >= 2 form a suffix of the interior.

    Equivalently: whenever w(x_j) >= 2 for some 1 < j < n, every x_i with
    j <= i <= n-1 also has weight >= 2, so there is no interior drop.  The
    endpoint weights are free.
    """
    return line_drop(weights) is None


def check_line_characterization(weights: Sequence[int]) -> CheckResult:
    """Oriented line: powers agree for every s exactly when the suffix
    condition on interior weights holds.  Tested computationally as
    equality at s = 1, 2, 3 in the positive case and inequality at s = 3
    in the negative case (where the cubic witness lives).
    """
    name = "line_characterization"
    weights = tuple(weights)
    instance = f"line weights={weights}"
    if len(weights) < 2:
        return _skip(name, instance, "a line needs at least two vertices")
    g = oriented_line(len(weights), weights)
    condition = line_equality_condition(weights)
    report = compare_powers(g, 3)
    if condition:
        passed = report.all_equal
        prediction = "equal at s=1,2,3"
    else:
        passed = not report.per_s[2].equal
        prediction = "unequal at s=3"
    return CheckResult(
        check=name,
        instance=instance,
        hypotheses_ok=True,
        prediction=f"condition={condition}: {prediction}",
        computed=f"first_inequality={report.first_inequality}",
        passed=passed,
        details={"condition": condition, "comparison": report.to_json()},
    )


def _line_break_index(weights: Sequence[int]) -> int | None:
    """The k with w(x_i)=1 for i<k and w(x_i)>=2 for k<=i<=n-1, if any.

    With w(x_1) = 1 and no interior drop, the interior weights are ones
    followed by weights >= 2, so k is the first vertex past the ones.  A
    weight below 1 raises ValueError, as in line_drop.
    """
    if line_drop(weights) is not None or weights[:1] != (1,):
        return None
    k = 2 + weights[1:-1].count(1)
    return k if k < len(weights) else None


# The three families of maximal strong covers of a line with a single break
# at k, one row each, positions given as offsets from k: the family; which
# of x_(k-1), x_k, x_(k+1) its covers hold; the cut that leaves the prefix
# line x_1..x_(k-cut) it takes its minimal covers from; the tail's lone
# variables; and the start of the tail line x_(k+start)..x_n.
_LINE_FAMILIES = (
    ("alpha", (True, False, True), 2, (-1,), 1),
    ("beta", (False, True, True), 3, (-2,), 0),
    ("gamma", (True, True, False), 4, (-3, -1, 0), 2),
)


def check_line_cover_families(weights: Sequence[int]) -> CheckResult:
    """Single-break line (weights 1 before x_k, >= 2 from x_k through x_(n-1),
    with 4 < k < n): the maximal strong covers fall into three families by
    their pattern on {x_(k-1), x_k, x_(k+1)}, each family is a minimal cover
    of a prefix line joined to a fixed tail, and the intersection of the
    components under each maximal cover is the prefix cover's variables
    plus an explicit tail ideal: the lone variables, x_t^w(x_t) for the
    first vertex x_t of the tail line, and the tail line's edges.
    """
    name = "line_cover_families"
    weights = tuple(weights)
    n = len(weights)
    instance = f"line weights={weights}"
    k = _line_break_index(weights)
    if k is None:
        return _skip(name, instance, "weights do not have a single break index")
    if not 4 < k < n:
        return _skip(name, instance, f"break index k={k} needs 4 < k < n={n}")

    g = oriented_line(n, weights)
    vs = g.vertices  # vs[i-1] is x_i
    families = {}  # pattern -> family, prefix variables, tail ideal, predicted and found covers
    for fam, pattern, cut, lone, start in _LINE_FAMILIES:
        prefix, t = vs[: k - cut], k + start - 1  # the tail line is vs[t:]
        lone_vars = {vs[k + i - 1] for i in lone}
        tail = (
            [*lone_vars]
            + [f"{v}^{w}" for v, w in zip(vs[t : t + 1], weights[t:])]
            + [f"{u}*{v}^{w}" for u, v, w in zip(vs[t:], vs[t + 1 :], weights[t + 1 :])]
        )
        fixed = lone_vars.union(vs[t:])
        covers = {c | fixed for c in minimal_vertex_covers(g.induced_subgraph(prefix))}
        families[pattern] = (fam, frozenset(prefix), tail, covers, set())

    unclassified, ideal_mismatches = [], []
    maximal = maximal_strong_covers(g)
    for c in maximal:
        row = families.get(tuple(v in c for v in vs[k - 2 : k + 1]))
        if row is None:
            unclassified.append(c)
            continue
        fam, prefix_vars, tail, _, found = row
        found.add(c)
        predicted = MonomialIdeal(vs, [*c & prefix_vars, *tail])
        computed = q_sub_p(g, c)
        if computed != predicted:
            ideal_mismatches.append(
                {
                    "cover": sorted(c),
                    "family": fam,
                    "computed": computed.generator_strings(),
                    "predicted": predicted.generator_strings(),
                }
            )

    families_ok = not unclassified and all(
        covers == found for *_, covers, found in families.values()
    )
    passed = families_ok and not ideal_mismatches
    return CheckResult(
        check=name,
        instance=instance,
        hypotheses_ok=True,
        prediction=(
            f"maximal strong covers split into the three families at k={k} "
            "and their component intersections match the tail ideals"
        ),
        computed=(
            f"families={'ok' if families_ok else 'mismatch'}, "
            f"ideal_mismatches={len(ideal_mismatches)}"
        ),
        passed=passed,
        details={
            "k": k,
            "maximal_covers": [sorted(c) for c in maximal],
            "families": {
                fam: sorted(sorted(c) for c in found) for fam, *_, found in families.values()
            },
            "unclassified": [sorted(c) for c in unclassified],
            "ideal_mismatches": ideal_mismatches,
        },
    )


def random_graph(
    rng: random.Random,
    *,
    n_min: int = 2,
    n_max: int = 7,
    edge_prob: float = 0.5,
    weight_max: int = 3,
) -> WeightedOrientedGraph:
    """A random weighted oriented graph on x1..xn, n drawn from [n_min, n_max].

    Each vertex pair gets an edge with the given probability and a random
    orientation; weights are uniform in [1, weight_max].  Isolated vertices
    are kept.
    """
    n = rng.randint(n_min, n_max)
    vs = [f"x{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                if rng.random() < 0.5:
                    edges.append((vs[i], vs[j]))
                else:
                    edges.append((vs[j], vs[i]))
    weights = {v: rng.randint(1, weight_max) for v in vs}
    return WeightedOrientedGraph(vs, edges, weights)


@dataclass
class RegressionSummary:
    """Result of a randomized sweep of the module-level identities."""

    seed: int
    trials: int
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "pass": self.passed,
            "failures": self.failures,
        }


def random_regression(seed: int, trials: int, *, s_max: int = 3) -> RegressionSummary:
    """Random graphs through the standing identities: the decomposition
    intersection recovers the edge ideal, the two symbolic routes agree,
    and every ordinary power sits inside its symbolic power.

    Each graph is swept once over s = 1..s_max, and every power is built
    once.  I^s is one product from I^(s-1).  Route one, localize then
    power, keeps Q_{⊆P}^s for each maximal prime of the decomposition the
    identity check built.  Route two, power then localize, saturates that
    I^s by the complements of one maximal strong cover scan.  Neither
    route reads the other's ideals.  The first failure of a graph ends
    its sweep.

    The graphs are drawn by random_graph with its defaults: 2 to 7
    vertices, weights 1 to 3.  Any counterexample is recorded with the
    full graph for reproduction.  trials and s_max below 1, or given as a bool, raise ValueError.
    """
    _require_positive("trials", trials)
    _require_positive("s_max", s_max)
    rng = random.Random(seed)
    summary = RegressionSummary(seed=seed, trials=trials)
    for _ in range(trials):
        g = random_graph(rng)
        ideal = edge_ideal(g)
        comps = irreducible_decomposition(g)
        if decomposition_intersection(comps, g) != ideal:
            summary.failures.append(
                {"graph": g.to_json(), "problem": "decomposition identity"}
            )
            continue
        complements = _prime_complements(g) if not ideal.is_zero else []
        for s, ordinary, symbolic in _powers_up_to(g, ideal, [c.cover for c in comps], s_max):
            if symbolic != _saturated_meet(g, ordinary, complements):
                summary.failures.append(
                    {"graph": g.to_json(), "problem": "symbolic routes differ", "s": s}
                )
                break
            if not symbolic.contains_ideal(ordinary):
                summary.failures.append(
                    {
                        "graph": g.to_json(),
                        "problem": "ordinary power not inside symbolic power",
                        "s": s,
                    }
                )
                break
    return summary
