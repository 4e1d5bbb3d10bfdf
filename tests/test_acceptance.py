"""Acceptance gate: nine exact-equality criteria, each with a runtime budget.

Every test prints one ACCEPTANCE line (visible under pytest -s) naming the
criterion, the verdict, and the measured time.  All comparisons are exact;
there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
import time

from oriented_ideals import (
    check_broom_equality,
    check_line_cover_families,
    compare_powers,
    decomposition_intersection,
    edge_ideal,
    enumerate_strong_covers,
    intersect_all,
    irreducible_decomposition,
    line_equality_condition,
    oriented_cycle,
    oriented_line,
    random_graph,
    rooted_tree,
    symbolic_power,
    symbolic_power_oracle,
)

from conftest import (
    SAMPLE_SEED,
    brute_force_strong_covers,
    component_q_sub_p,
    maximal_covers,
)


def report(name: str, ok: bool, elapsed: float, limit: float) -> None:
    verdict = "PASS" if ok and elapsed <= limit else "FAIL"
    print(
        f"ACCEPTANCE {name}: {verdict} "
        f"({elapsed:.2f}s elapsed, limit {limit:.0f}s)"
    )


def test_decomposition_identity_random_graphs(sample_200):
    start = time.perf_counter()
    bad = []
    for g in sample_200:
        comps = irreducible_decomposition(g)
        if decomposition_intersection(comps, g) != edge_ideal(g):
            bad.append(g.to_json())
    elapsed = time.perf_counter() - start
    report("decomposition identity on 200 graphs", not bad, elapsed, 60.0)
    assert not bad, bad[:3]
    assert elapsed <= 60.0


def test_symbolic_routes_agree_random_graphs(sample_200):
    # three routes: localize then power, power then localize, and the
    # powers of the component intersections Q_{⊆P}
    start = time.perf_counter()
    bad = []
    for g in sample_200:
        comps = irreducible_decomposition(g)
        local = [component_q_sub_p(comps, p) for p in maximal_covers(comps)]
        for s in (1, 2, 3):
            symbolic = symbolic_power(g, s)
            if symbolic != symbolic_power_oracle(g, s):
                bad.append((g.to_json(), s, "oracle"))
            if local and symbolic != intersect_all([q**s for q in local]):
                bad.append((g.to_json(), s, "component intersections"))
    elapsed = time.perf_counter() - start
    report("symbolic power matches oracle, s <= 3", not bad, elapsed, 60.0)
    assert not bad, bad[:3]
    assert elapsed <= 60.0


def test_line_cubic_witness_instance():
    start = time.perf_counter()
    g = oriented_line(5, (1, 2, 1, 1, 1))
    f = "x1*x2^2*x3^2*x4"
    in_symbolic = symbolic_power(g, 3).contains(f)
    in_cube = (edge_ideal(g) ** 3).contains(f)
    first = compare_powers(g, 3).first_inequality
    ok = in_symbolic and not in_cube and first == 3
    elapsed = time.perf_counter() - start
    report("cubic witness on the weight-(1,2,1,1,1) line", ok, elapsed, 1.0)
    assert in_symbolic and not in_cube
    assert first == 3
    assert elapsed <= 1.0


def test_line_characterization_all_weight_vectors():
    start = time.perf_counter()
    mismatches = []
    for wv in itertools.product((1, 2), repeat=5):
        predicted = line_equality_condition(wv)
        observed = compare_powers(oriented_line(5, wv), 3).all_equal
        if predicted != observed:
            mismatches.append((wv, predicted, observed))
    elapsed = time.perf_counter() - start
    report(
        "equality characterization on all 32 five-line weightings",
        not mismatches,
        elapsed,
        120.0,
    )
    assert not mismatches, mismatches
    assert elapsed <= 120.0


def test_cycle_equality_small():
    start = time.perf_counter()
    bad = []
    for n in (3, 4, 5):
        report_n = compare_powers(oriented_cycle(n, (2,) * n), 3)
        if not report_n.all_equal:
            bad.append((n, report_n.first_inequality))
    elapsed = time.perf_counter() - start
    report("all-weight-2 cycles n in {3,4,5}", not bad, elapsed, 30.0)
    assert not bad, bad
    assert elapsed <= 30.0


def test_broom_equality_and_split():
    start = time.perf_counter()
    lone = rooted_tree({}, "z", {"z": 2})
    star = rooted_tree({"t1": "z", "t2": "z"}, "z", {"z": 2, "t1": 1, "t2": 1})
    path = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": 2, "t1": 2, "t2": 2})
    results = [check_broom_equality(t, "z", 2, 2) for t in (lone, star, path)]
    ok = all(r.status == "pass" for r in results)

    frozen = [
        (["x", "z^2"], ["y^2", "y*z^2"]),
        (["x", "z^2", "z*t1", "z*t2"], ["y^2", "z*t1", "z*t2", "y*z^2"]),
        (["x", "z^2", "z*t1^2", "t1*t2^2"], ["y^2", "y*z^2", "z*t1^2", "t1*t2^2"]),
    ]
    for r, (fam1, fam2) in zip(results, frozen):
        ok = (
            ok
            and set(r.details["family_1_ideal"]) == set(fam1)
            and set(r.details["family_2_ideal"]) == set(fam2)
        )
    elapsed = time.perf_counter() - start
    report("broom power equality and cover split", ok, elapsed, 30.0)
    assert ok, [r.computed for r in results]
    assert elapsed <= 30.0


def test_line_cover_family_structure():
    start = time.perf_counter()
    r = check_line_cover_families((1, 1, 1, 1, 2, 2, 1))
    ok = (
        r.status == "pass"
        and r.details["k"] == 5
        and r.details["unclassified"] == []
        and r.details["ideal_mismatches"] == []
    )
    elapsed = time.perf_counter() - start
    report("maximal-cover families on the break-5 seven-line", ok, elapsed, 30.0)
    assert ok, r.computed
    assert elapsed <= 30.0


def test_strong_cover_enumeration_oracle():
    start = time.perf_counter()
    rng = random.Random(SAMPLE_SEED + 8)
    bad = []
    for _ in range(50):
        g = random_graph(rng, n_max=5)
        expected = brute_force_strong_covers(g)
        got = [frozenset(c) for c in enumerate_strong_covers(g)]
        if got != expected:
            bad.append(g.to_json())
    elapsed = time.perf_counter() - start
    report("strong-cover enumeration vs subset filter", not bad, elapsed, 30.0)
    assert not bad, bad[:3]
    assert elapsed <= 30.0


def test_unit_weight_path_equality():
    start = time.perf_counter()
    bad = []
    for n in range(2, 7):
        r = compare_powers(oriented_line(n, (1,) * n), 3)
        if not r.all_equal:
            bad.append((n, r.first_inequality))
    elapsed = time.perf_counter() - start
    report("unit-weight paths n <= 6", not bad, elapsed, 30.0)
    assert not bad, bad
    assert elapsed <= 30.0
