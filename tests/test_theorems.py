"""Structure checks: each one exercised on instances where it applies,
instances where it skips, and a randomized regression sweep."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

import oriented_ideals.cli as cli
import oriented_ideals.theorems as theorems
from oriented_ideals import (
    CheckResult,
    MonomialIdeal,
    RegressionSummary,
    WeightedOrientedGraph,
    check_broom_equality,
    check_cycle_equality,
    check_full_cover_equality,
    check_line_characterization,
    check_line_cover_families,
    check_line_cubic_witness,
    compare_powers,
    forest_broom,
    line_drop,
    line_equality_condition,
    oriented_cycle,
    oriented_line,
    random_regression,
    rooted_tree,
)

from conftest import (
    RIG_SEED,
    RIG_TRIALS,
    reference_cubic_witness,
    reference_random_regression,
    rig_failures,
    rig_graphs,
    rig_powers,
)


def test_check_result_states():
    r = CheckResult(
        check="c", instance="i", hypotheses_ok=True,
        prediction="p", computed="q", passed=True,
    )
    assert r.status == "pass"
    assert bool(r)
    failed = CheckResult(
        check="c", instance="i", hypotheses_ok=True,
        prediction="p", computed="q", passed=False,
    )
    assert failed.status == "fail"
    skipped = CheckResult(
        check="c", instance="i", hypotheses_ok=False,
        prediction="", computed="n", passed=False,
    )
    assert skipped.status == "skip"
    data = r.to_json()
    assert data["pass"] is True
    assert data["status"] == "pass"


def test_full_cover_check_on_heavy_line():
    # x1 is a source, so the full set must fail to be strong; the
    # equivalence still holds and the power clause is vacuous
    r = check_full_cover_equality(oriented_line(3, (2, 2, 2)))
    assert r.status == "pass"
    assert r.details["full_cover_strong"] is False
    assert r.details["sources"] == ["x1"]


def test_full_cover_check_on_heavy_cycle():
    r = check_full_cover_equality(oriented_cycle(3, (2, 2, 2)))
    assert r.status == "pass"
    assert r.details["full_cover_strong"] is True
    assert r.details["comparison"]["all_equal"] is True


def test_full_cover_check_skips():
    assert check_full_cover_equality(oriented_line(3, (1, 2, 2))).status == "skip"


def test_full_cover_check_skips_isolated_vertices():
    g = WeightedOrientedGraph(["a", "b", "c"], [("a", "b")], dict.fromkeys("abc", 2))
    r = check_full_cover_equality(g)
    assert r.status == "skip"
    assert r.details == {"notice": "isolated vertices are outside the statement"}


def test_cycle_check():
    assert check_cycle_equality((2, 2, 2)).status == "pass"
    assert check_cycle_equality((3, 2, 2, 2)).status == "pass"
    assert check_cycle_equality((2, 1, 2)).status == "skip"
    assert check_cycle_equality((2, 2)).status == "skip"


def broom_trees():
    lone = rooted_tree({}, "z", {"z": 2})
    star = rooted_tree({"t1": "z", "t2": "z"}, "z", {"z": 2, "t1": 1, "t2": 1})
    path = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": 2, "t1": 2, "t2": 2})
    return [("lone", lone), ("star", star), ("path", path)]


@pytest.mark.parametrize("label,tree", broom_trees())
def test_broom_check_passes(label, tree):
    r = check_broom_equality(tree, "z", 2, 2)
    assert r.status == "pass", r.computed
    assert r.details["comparison"]["all_equal"] is True
    assert r.details["stray_covers"] == []


def test_broom_family_ideals_frozen():
    lone = rooted_tree({}, "z", {"z": 2})
    r = check_broom_equality(lone, "z", 2, 2)
    assert list(r.details["family_1_ideal"]) == ["x", "z^2"]
    assert list(r.details["family_2_ideal"]) == ["y^2", "y*z^2"]

    path = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": 2, "t1": 2, "t2": 2})
    r = check_broom_equality(path, "z", 2, 2)
    assert list(r.details["family_1_ideal"]) == ["x", "z^2", "z*t1^2", "t1*t2^2"]
    assert list(r.details["family_2_ideal"]) == ["y^2", "y*z^2", "z*t1^2", "t1*t2^2"]


def test_broom_check_fails_on_a_stray_cover(monkeypatch):
    # a component on the whole vertex set holds both x and y, so it is in
    # neither family
    real = theorems.irreducible_decomposition
    monkeypatch.setattr(
        theorems,
        "irreducible_decomposition",
        lambda g: real(g) + [SimpleNamespace(cover=frozenset(g.vertices), ideal=None)],
    )
    r = check_broom_equality(rooted_tree({}, "z", {"z": 2}), "z", 2, 2)
    assert r.status == "fail"
    assert r.details["stray_covers"] == [["x", "y", "z"]]
    assert "stray_covers=1" in r.computed


def test_broom_check_skips_on_bad_weights():
    path = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": 2, "t1": 1, "t2": 1})
    # t1 is interior with weight 1, so the broom constructor refuses
    assert check_broom_equality(path, "z", 2, 2).status == "skip"


def test_broom_check_skips_a_tree_beside_a_cycle():
    # the root plus a separate 3-cycle: every non-root vertex has one
    # in-edge and |E| = |V| - 1, but it is no tree
    cycle = [("a", "b"), ("b", "c"), ("c", "a")]
    tree = WeightedOrientedGraph(["z", "a", "b", "c"], cycle, dict.fromkeys("zabc", 2))
    r = check_broom_equality(tree, "z", 2, 2)
    assert r.status == "skip"
    assert "not reached from the root" in r.details["notice"]


def level_sequences(n: int):
    """The rooted trees on n vertices, each once, as level sequences.

    A tree is listed by the depths of its vertices in preorder, the root
    at depth 1, taking the children of each vertex in the order that makes
    the sequence lexicographically largest.  The walk of Beyer and
    Hedetniemi (Constant time generation of rooted trees, SIAM J. Comput.
    1980) starts at the path 1, 2, ..., n and ends at the star.
    """
    levels = list(range(1, n + 1))
    while True:
        yield tuple(levels)
        p = n - 1  # the last vertex not a child of the root
        while p > 0 and levels[p] == 2:
            p -= 1
        if p == 0:
            return
        q = p - 1  # the parent of p
        while levels[q] != levels[p] - 1:
            q -= 1
        for i in range(p, n):
            levels[i] = levels[i - p + q]


def tree_of_levels(levels, leaf_weight: int):
    """The tree of a level sequence, root z, weight 2 off the leaves."""
    names = ["z"] + [f"t{i}" for i in range(1, len(levels))]
    parent = {}
    for i in range(1, len(levels)):
        j = i - 1
        while levels[j] != levels[i] - 1:
            j -= 1
        parent[names[i]] = names[j]
    inner = set(parent.values())
    weights = {v: 2 if v == "z" or v in inner else leaf_weight for v in names}
    return rooted_tree(parent, "z", weights)


def test_broom_check_on_every_small_rooted_tree():
    # the tree theorem on every rooted tree of 1-5 vertices; a root of
    # weight 1 with children is no broom, so those cases skip
    trees = {n: list(level_sequences(n)) for n in range(1, 6)}
    assert [len(trees[n]) for n in range(1, 6)] == [1, 1, 2, 4, 9]
    assert all(len(set(seqs)) == len(seqs) for seqs in trees.values())
    statuses = []
    for seqs in trees.values():
        for levels, leaf_weight in itertools.product(seqs, (1, 2)):
            tree = tree_of_levels(levels, leaf_weight)
            for w_y, w_z in itertools.product((2, 3), (1, 2, 3)):
                r = check_broom_equality(tree, "z", w_y, w_z, s_max=3)
                assert r.status != "fail", (levels, leaf_weight, w_y, w_z, r.computed)
                if r.status == "skip":
                    assert w_z == 1 and len(levels) > 1, r.details["notice"]
                statuses.append(r.status)
    assert (statuses.count("pass"), statuses.count("skip")) == (140, 64)


def test_powers_agree_to_s5_on_every_positive_case():
    # the paper claims equality for every s on brooms and on lines without
    # an interior drop; the negative cases keep their s = 3 witness
    brooms = []
    for w_y, w_z in itertools.product((1, 2, 3), repeat=2):
        for tree, _ in cli._standard_brooms(w_z):
            try:
                brooms.append(forest_broom(w_y, w_z, tree, "z"))
            except ValueError:
                continue  # outside the broom family's weight hypotheses
    lines = [
        oriented_line(n, wv)
        for n in (5, 6)
        for wv in itertools.product((1, 2), repeat=n)
        if line_equality_condition(wv)
    ]
    assert (len(brooms), len(lines)) == (14, 16 + 20)
    unequal = [
        (g.to_json(), r.first_inequality)
        for g in brooms + lines
        if not (r := compare_powers(g, 5)).all_equal
    ]
    assert not unequal, unequal


def test_cubic_witness_line5():
    r = check_line_cubic_witness((1, 2, 1, 1, 1), 2)
    assert r.status == "pass"
    assert r.details["witness"] == "x1*x2^2*x3^2*x4"


def test_cubic_witness_skips():
    assert check_line_cubic_witness((1, 2, 1, 1, 1), 1).status == "skip"
    assert check_line_cubic_witness((1, 2, 1, 1, 1), 4).status == "skip"
    assert check_line_cubic_witness((1, 1, 1, 1, 1), 2).status == "skip"
    assert check_line_cubic_witness((1, 2, 2, 1, 1), 2).status == "skip"


def test_cubic_witness_rejects_bad_weights_and_positions():
    # a zero weight is no weighting, so it may not read as an unmet hypothesis
    for weights in ((1, 3, 0, 1, 1), (1, 0, 1, 1, 1)):
        with pytest.raises(ValueError, match="weight must be an integer >= 1"):
            check_line_cubic_witness(weights, 2)
    for i in (2.0, True):
        with pytest.raises(ValueError, match="i must be an integer"):
            check_line_cubic_witness((1, 2, 1, 1, 1), i)


def test_line_drop_cases():
    assert line_drop((1, 2, 1, 1, 1)) == 2
    assert line_drop((1, 1, 2, 1, 2, 2, 1)) == 3
    assert line_drop((1, 2, 2, 1, 1)) == 3  # the first drop, not the first heavy
    assert line_drop((1, 2, 1, 2, 1, 1)) == 2  # the first of two drops
    assert line_drop((1, 3, 1, 1)) == 2
    assert line_drop((1, 2, 2, 1)) is None  # x4 is an endpoint
    assert line_drop((2, 1, 1, 1)) is None  # x1 is an endpoint
    assert line_drop((1, 1, 1, 1, 1)) is None
    assert line_drop((1, 2, 2, 2, 5)) is None
    assert line_drop((1, 2, 3)) is None
    assert line_drop(()) is None
    # (1, 2, 0, 1) has no drop to weight 1, yet its weights >= 2 are no suffix
    for bad in ((1, 2, 0, 1), (1, True, 1, 1), (1, 2.0, 1, 1)):
        with pytest.raises(ValueError, match="weight must be an integer >= 1"):
            line_drop(bad)
        with pytest.raises(ValueError, match="weight must be an integer >= 1"):
            line_equality_condition(bad)


def test_line_equality_condition_cases():
    assert line_equality_condition((1, 1, 1, 1))
    assert line_equality_condition((1, 2, 2, 1))  # endpoint weight is free
    assert line_equality_condition((3, 1, 1))  # first vertex is not interior
    assert line_equality_condition((1, 2, 2, 2, 5))
    assert not line_equality_condition((1, 2, 1, 1, 1))
    assert not line_equality_condition((1, 2, 1, 2, 1))
    assert not line_equality_condition((1, 1, 2, 1, 2, 2, 1))
    assert line_equality_condition((1,))
    assert line_equality_condition((4, 7))  # no interior at all


@pytest.mark.parametrize("weights", [(), (1,), (3,)])
def test_line_characterization_skips_fewer_than_two_vertices(weights):
    r = check_line_characterization(weights)
    assert r.status == "skip"
    assert r.details == {"notice": "a line needs at least two vertices"}


@pytest.mark.parametrize(
    "weights", list(itertools.product((1, 2), repeat=4))
)
def test_line_characterization_exhaustive_n4(weights):
    r = check_line_characterization(weights)
    assert r.status == "pass", r.computed


def test_line_characterization_exhaustive_n7():
    # past the five-vertex acceptance grid: a drop can now sit at x2..x6
    statuses = {}
    for weights in itertools.product((1, 2), repeat=7):
        statuses[weights] = check_line_characterization(weights).status
    failed = [w for w, status in statuses.items() if status != "pass"]
    assert len(statuses) == 128 and not failed, failed


def test_line_cover_families_frozen_case():
    r = check_line_cover_families((1, 1, 1, 1, 2, 2, 1))
    assert r.status == "pass", r.computed
    assert r.details["k"] == 5
    assert r.details["unclassified"] == []
    assert r.details["ideal_mismatches"] == []
    assert r.details["families"] == {
        "alpha": [["x1", "x3", "x4", "x6", "x7"], ["x2", "x4", "x6", "x7"]],
        "beta": [["x1", "x3", "x5", "x6", "x7"], ["x2", "x3", "x5", "x6", "x7"]],
        "gamma": [["x2", "x4", "x5", "x7"]],
    }
    total = sum(len(covers) for covers in r.details["families"].values())
    assert total == len(r.details["maximal_covers"]) == 5


def test_line_cover_families_skips():
    # two separate weight breaks
    assert check_line_cover_families((1, 2, 1, 2, 1, 1, 1)).status == "skip"
    # break too close to the left end
    assert check_line_cover_families((1, 2, 1, 1, 1)).status == "skip"
    # no break at all
    assert check_line_cover_families((1, 1, 1, 1, 1, 1, 1)).status == "skip"


@pytest.mark.parametrize(
    "bad", [(1, 0, 2, 2, 2, 1), (1, 1, 1, 1, 2, -2, 1), (1, 1, True, 1, 2, 2, 1)]
)
def test_line_cover_families_rejects_weights_below_one(bad):
    # a weight below 1 is no weighting, not a line outside the statement
    with pytest.raises(ValueError, match="weight must be an integer >= 1"):
        check_line_cover_families(bad)


def test_line_cover_families_more_instances():
    for weights in [
        (1, 1, 1, 1, 2, 2, 2, 1),
        (1, 1, 1, 1, 2, 2, 2),
        (1, 1, 1, 1, 1, 2, 1),
    ]:
        r = check_line_cover_families(weights)
        assert r.status == "pass", (weights, r.computed)


def single_break(weights):
    """The k of 4 < k < n with ones before x_k and weights >= 2 from x_k to x_(n-1)."""
    n = len(weights)
    for k in range(5, n):
        if set(weights[: k - 1]) == {1} and min(weights[k - 1 : n - 1]) >= 2:
            return k
    return None


def test_line_cover_families_every_single_break_line():
    # every weighting in {1,2,3}^n, n = 6..9: the single-break lines pass
    # at their break, and every other weighting skips
    passed = 0
    for n in range(6, 10):
        for weights in itertools.product((1, 2, 3), repeat=n):
            r = check_line_cover_families(weights)
            k = single_break(weights)
            if k is None:
                assert r.status == "skip", weights
            else:
                assert (r.status, r.details["k"]) == ("pass", k), (weights, r.computed)
                passed += 1
    assert passed == 156


def test_line_cover_families_fails_on_an_unclassified_cover(monkeypatch):
    # the whole vertex set holds x4, x5 and x6, a pattern of no family
    real = theorems.maximal_strong_covers
    monkeypatch.setattr(
        theorems, "maximal_strong_covers", lambda g: real(g) + [frozenset(g.vertices)]
    )
    r = check_line_cover_families((1, 1, 1, 1, 2, 2, 1))
    assert r.status == "fail"
    assert r.computed == "families=mismatch, ideal_mismatches=0"
    assert r.details["unclassified"] == [["x1", "x2", "x3", "x4", "x5", "x6", "x7"]]
    assert r.details["ideal_mismatches"] == []


def test_line_cover_families_fails_on_an_ideal_mismatch(monkeypatch):
    gamma = frozenset({"x2", "x4", "x5", "x7"})
    real = theorems.q_sub_p
    monkeypatch.setattr(
        theorems,
        "q_sub_p",
        lambda g, c: MonomialIdeal.unit(g.vertices) if c == gamma else real(g, c),
    )
    r = check_line_cover_families((1, 1, 1, 1, 2, 2, 1))
    assert r.status == "fail"
    assert r.computed == "families=ok, ideal_mismatches=1"
    assert r.details["ideal_mismatches"] == [
        {
            "cover": ["x2", "x4", "x5", "x7"],
            "family": "gamma",
            "computed": ["1"],
            "predicted": ["x2", "x4", "x5", "x7"],
        }
    ]


def test_random_regression_passes():
    summary = random_regression(42, 25)
    assert summary.passed
    assert bool(summary)
    assert summary.trials == 25
    assert summary.failures == []
    data = summary.to_json()
    assert data["pass"] is True
    assert data["seed"] == 42


@pytest.mark.parametrize("seed", [3, 11, 2026])
def test_random_regression_matches_recomputation(seed):
    # each power built once per graph gives the summary that recomputing
    # both routes from scratch at every s gives
    assert random_regression(seed, 25).to_json() == (
        reference_random_regression(seed, 25).to_json()
    )


def test_random_regression_matches_recomputation_at_s4():
    assert random_regression(5, 6, s_max=4).to_json() == (
        reference_random_regression(5, 6, s_max=4).to_json()
    )


@pytest.mark.parametrize("weights", list(itertools.product((1, 2), repeat=5)))
def test_cubic_witness_matches_recomputation(weights):
    for i in range(1, 5):
        assert check_line_cubic_witness(weights, i).to_json() == (
            reference_cubic_witness(weights, i).to_json()
        )


def test_regression_records_routes_that_differ(routes_differ_from_2):
    summary = random_regression(RIG_SEED, RIG_TRIALS)
    # one record at s = 2 per graph, and the sweep of that graph stops there
    assert summary.failures == rig_failures(
        routes_differ_from_2, "symbolic routes differ", 2
    )
    assert not summary.passed
    reference = reference_random_regression(RIG_SEED, RIG_TRIALS)
    assert summary.to_json() == reference.to_json()


def test_regression_records_broken_containment(monkeypatch):
    graphs = rig_graphs()
    powers = rig_powers(graphs)
    real = MonomialIdeal.contains_ideal
    monkeypatch.setattr(
        MonomialIdeal,
        "contains_ideal",
        lambda self, other: other not in powers and real(self, other),
    )
    summary = random_regression(RIG_SEED, RIG_TRIALS)
    assert summary.failures == rig_failures(
        graphs, "ordinary power not inside symbolic power", 2
    )
    reference = reference_random_regression(RIG_SEED, RIG_TRIALS)
    assert summary.to_json() == reference.to_json()


def test_regression_records_broken_decomposition(monkeypatch):
    # without its last component the intersection is larger than the edge
    # ideal, or the zero ideal when that was the only one
    real = theorems.irreducible_decomposition
    monkeypatch.setattr(theorems, "irreducible_decomposition", lambda g: real(g)[:-1])
    summary = random_regression(RIG_SEED, RIG_TRIALS)
    # the sweep skips the powers of a graph that fails the identity
    assert summary.failures == rig_failures(rig_graphs(), "decomposition identity")


def test_empty_regression_passes():
    assert RegressionSummary(seed=7, trials=0, failures=[]).passed


# True is an int, but not the weight 1
@pytest.mark.parametrize("bad", [0, -3, True])
def test_weights_below_one_are_rejected(bad):
    lone = rooted_tree({}, "z", {"z": 2})
    checks = [
        lambda: check_cycle_equality((2, 2, bad)),
        # rejected before the vertex count is tested
        lambda: check_cycle_equality((bad, 2)),
        lambda: check_broom_equality(lone, "z", bad, 2),
        lambda: check_broom_equality(lone, "z", 2, bad),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            check()
    # a weight of 1 where 2 is needed is outside the statement, not an error
    assert check_cycle_equality((2, 1, 2)).status == "skip"
    assert check_broom_equality(lone, "z", 1, 2).status == "skip"


# True is an int, but not the count 1
@pytest.mark.parametrize("bad", [0, -1, 2.0, True])
def test_sweep_bounds_below_one_are_rejected(bad):
    lone = rooted_tree({}, "z", {"z": 2})
    checks = [
        lambda: check_full_cover_equality(oriented_cycle(3, (2, 2, 2)), bad),
        # the skipping instances are rejected too, before any hypothesis test
        lambda: check_full_cover_equality(oriented_line(3, (1, 2, 2)), s_max=bad),
        lambda: check_cycle_equality((2, 2, 2), bad),
        lambda: check_cycle_equality((2, 1, 2), bad),
        lambda: check_broom_equality(lone, "z", 2, 2, bad),
        lambda: random_regression(1, 3, s_max=bad),
        lambda: random_regression(1, bad),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            check()
