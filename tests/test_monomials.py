"""Monomial strings and monomial-ideal arithmetic against hand-computed values."""

from __future__ import annotations

import random
import re
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_member,
    monomial,
    reference_first_outside,
    reference_intersection,
    reference_minimal_rows,
    reference_product,
    row_divides,
)
from oriented_ideals import (
    MonomialIdeal,
    WeightedOrientedGraph,
    intersect_all,
    irreducible_component,
)
from oriented_ideals.monomials import _check_name

X4 = ("x1", "x2", "x3", "x4")
X5 = ("x1", "x2", "x3", "x4", "x5")


def ideal(*gens: str, ambient=X5) -> MonomialIdeal:
    return MonomialIdeal(ambient, gens)


# --- monomial strings --------------------------------------------------


def test_identity_monomial():
    one = ideal("1")
    assert one.generators == ("1",)
    assert str(one) == "[1]"
    assert one.contains("x1*x2^2")
    assert one.contains(" 1 ")
    assert not ideal("x1").contains("1")


def test_monomial_validation():
    # the string forms of a negative, a fractional and a zero exponent
    for text in ("x1^-2", "x1^1.5", "x1^0"):
        with pytest.raises(ValueError):
            ideal(text)
        with pytest.raises(ValueError):
            ideal("x1").contains(text)


def test_generator_that_is_not_a_string_is_rejected():
    # read as exponent maps, {"x": -1} would pack a negative exponent and
    # {"x": True, "y": 2} would read as x*y^2
    for bad in ({"x": -1}, {"x": True, "y": 2}, {"x": 1.5}, [("x", 2)]):
        with pytest.raises(TypeError, match="must be a string"):
            MonomialIdeal(["x", "y"], [bad])
        with pytest.raises(TypeError, match="must be a string"):
            MonomialIdeal(["x", "y"], ["x"]).contains(bad)


def test_bare_string_generators_rejected():
    # iterating "x1" gives the generators "x" and "1", the unit ideal, and
    # "xy" gives x and y
    for ambient, text in ((["x"], "x1"), (["x", "y"], "xy"), (["x"], "x")):
        with pytest.raises(TypeError, match="generators must be monomial strings"):
            MonomialIdeal(ambient, text)
    assert MonomialIdeal(["x"], ["x"]).generators == ("x",)


@pytest.mark.parametrize("name", ["", "1", "a*b", "a^2", " a", "a\t"])
def test_unreadable_variable_names_rejected(name):
    # each would format to a string that parses as another monomial, or
    # none; the parser and the ambient check both apply this rule
    with pytest.raises(ValueError, match=re.escape(f"variable name {name!r} is empty")):
        _check_name(name, "variable")


def test_non_string_variable_name_keeps_its_type_error():
    with pytest.raises(TypeError, match="variable names must be strings, got 3"):
        MonomialIdeal((3,), [])


@pytest.mark.parametrize("name", ["", "1", "a*b", "a^2", " a", "a\t"])
def test_unreadable_ambient_names_rejected(name):
    # a generator on such a name would print as another monomial, or none
    message = re.escape(f"variable name {name!r} is empty")
    for build in (
        lambda: MonomialIdeal((name, "b"), ["b"]),
        lambda: MonomialIdeal.zero(("b", name)),
        lambda: MonomialIdeal.unit((name,)),
        lambda: MonomialIdeal(("b",), ["b"]).with_ambient(("b", name)),
    ):
        with pytest.raises(ValueError, match=message):
            build()


def test_ambient_name_rule_on_mixed_ambients():
    with pytest.raises(ValueError, match="'a\\^2'"):
        MonomialIdeal(("a^2", "b", ""), ["b"])
    with pytest.raises(ValueError, match="'1'"):
        MonomialIdeal(("1", "b"), ["b"])
    with pytest.raises(TypeError, match="variable names must be strings, got 3"):
        MonomialIdeal(("b", 3), ["b"])
    assert MonomialIdeal(("a b", "2", "x_1"), ["2*x_1^2"]).generator_strings() == ["2*x_1^2"]


@pytest.mark.parametrize("name", ["a b", "2", "x_1", "x'", "é"])
def test_readable_variable_names_round_trip(name):
    for text in (name, f"{name}^3*y"):
        assert MonomialIdeal((name, "y"), [text]).generators == (text,)


def test_parse_round_trip():
    for text in ("1", "x1", "x3^2", "x1*x3^2", "x2^10*x5"):
        assert ideal(text).generators == (text,)
    # whitespace around whole factors is read past
    assert ideal(" x1 * x3^2 ").generators == ("x1*x3^2",)
    with pytest.raises(ValueError):
        ideal("x1^0")
    # the formatter writes no leading zero, so a string with one would not
    # read back as itself
    for text in ("x1^02", "x1^00001"):
        with pytest.raises(ValueError, match="leading zero"):
            ideal(text)
        with pytest.raises(ValueError, match="leading zero"):
            ideal("x1").contains(text)
    with pytest.raises(ValueError):
        ideal("x1*x1")
    with pytest.raises(ValueError):
        ideal("x1^a")
    for text in ("x1**x2", "*x1", "x1*"):
        with pytest.raises(ValueError, match="empty factor"):
            ideal(text)
    # exponents are ASCII digits only, as the formatter writes them; int()
    # would read each of these as 10 or 2
    for text in ("x1^1_0", "x1^\u0662", "x1^+2", "x1^ 2"):
        with pytest.raises(ValueError, match="bad exponent"):
            ideal(text)
        with pytest.raises(ValueError, match="bad exponent"):
            ideal("x1").contains(text)


def test_format_uses_ambient_order():
    assert MonomialIdeal(("x1", "x2"), ["x2*x1"]).generators == ("x1*x2",)
    assert MonomialIdeal(("x2", "x1"), ["x2*x1"]).generators == ("x2*x1",)


# --- ideals: canonical form --------------------------------------------


def test_minimal_generating_set():
    a = ideal("x1*x2", "x1*x2*x3", "x2^2")
    assert a.generator_strings() == ["x1*x2", "x2^2"]


def test_graded_lex_generator_order():
    a = ideal("x2^2", "x1*x2", "x3^3", "x1")
    assert a.generator_strings() == ["x1", "x2^2", "x3^3"]
    b = ideal("x2^2", "x1*x3", "x1*x2")
    assert b.generator_strings() == ["x1*x2", "x1*x3", "x2^2"]


def test_zero_and_unit():
    zero = MonomialIdeal.zero(X5)
    unit = MonomialIdeal.unit(X5)
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and not unit.is_zero
    assert str(zero) == "[]"
    assert str(unit) == "[1]"
    assert not zero.contains("x1")
    assert unit.contains("1")
    # the identity absorbs everything else
    assert ideal("1", "x1*x2").is_unit


def test_ideal_equality_is_canonical():
    assert ideal("x1*x2", "x2^2") == ideal("x2^2", "x2^3", "x1*x2")
    assert ideal("x1") != ideal("x2")
    assert MonomialIdeal(("x1", "x2"), ["x1"]) != MonomialIdeal(("x2", "x1"), ["x1"])


def test_equal_values_hash_equal():
    a = ideal("x1*x2^2", "x2*x3^2")
    square = a * a
    gens = square.generator_strings()
    routes = [square, a ** 2, ideal(*gens), ideal(*reversed(gens))]
    assert all(r == square for r in routes)
    assert len({hash(r) for r in routes}) == 1
    product = ideal("x1*x2^2")
    for same in (
        ideal("x2^2*x1"),
        ideal(monomial(X5, {"x2": 2, "x1": 1})),
        ideal(monomial(X5, [("x1", 1), ("x2", 2), ("x3", 0)])),
    ):
        assert same == product
        assert hash(same) == hash(product)


def test_generator_outside_ambient_rejected():
    with pytest.raises(ValueError):
        MonomialIdeal(("x1", "x2"), ["x1*x3"])
    with pytest.raises(ValueError):
        MonomialIdeal(("x1", "x1"), ["x1"])


def test_ambient_mismatch_rejected():
    a = MonomialIdeal(("x1", "x2"), ["x1"])
    b = MonomialIdeal(("x2", "x1"), ["x1"])
    for op in (lambda: a + b, lambda: a * b, lambda: a.intersect(b), lambda: a <= b):
        with pytest.raises(ValueError):
            op()


# --- ideals: arithmetic -------------------------------------------------


def test_sum():
    assert ideal("x1") + ideal("x2") == ideal("x1", "x2")
    assert ideal("x1") + ideal("x1*x2") == ideal("x1")


def test_product():
    assert ideal("x1", "x2") * ideal("x3") == ideal("x1*x3", "x2*x3")


def test_power_of_two_generator_ideal():
    a = ideal("x1*x2^2", "x2*x3^2")
    assert (a ** 2).generator_strings() == [
        "x1^2*x2^4",
        "x1*x2^3*x3^2",
        "x2^2*x3^4",
    ]


def test_power_conventions():
    a = ideal("x1*x2^2", "x2*x3^2")
    assert (a ** 0).is_unit
    assert a ** 1 == a
    with pytest.raises(ValueError):
        a ** -1
    for flag in (True, False):
        with pytest.raises(ValueError):
            a ** flag
    zero = MonomialIdeal.zero(X5)
    assert (zero ** 3).is_zero


def test_intersection():
    assert ideal("x1").intersect(ideal("x2")) == ideal("x1*x2")
    a = MonomialIdeal(("x", "y", "z"), ["x", "z^2"])
    b = MonomialIdeal(("x", "y", "z"), ["y^2", "y*z^2"])
    meet = a.intersect(b)
    assert meet.contains("x*y^2")
    assert meet.contains("y*z^2")
    assert meet == MonomialIdeal(("x", "y", "z"), ["x*y^2", "y*z^2"])
    # intersecting with the unit ideal changes nothing
    assert a.intersect(MonomialIdeal.unit(("x", "y", "z"))) == a
    # two principal ideals meet in the principal ideal of the lcm
    assert ideal("x1*x2^2").intersect(ideal("x2*x3")) == ideal("x1*x2^2*x3")


def test_intersect_all():
    parts = [ideal("x1"), ideal("x2"), ideal("x3")]
    assert intersect_all(parts) == ideal("x1*x2*x3")
    assert intersect_all([], ambient=X5).is_unit
    with pytest.raises(ValueError):
        intersect_all([])


def test_saturate():
    a = ideal("x1*x2^2", "x2*x3^2")
    assert a.saturate({"x2"}) == ideal("x1", "x3^2")
    assert a.saturate(()) == a
    assert ideal("x1*x2").saturate({"x1", "x2"}).is_unit
    assert MonomialIdeal.zero(X5).saturate({"x1"}).is_zero
    with pytest.raises(ValueError):
        a.saturate({"y"})


def test_contains_monomial():
    a = ideal("x1*x2^2")
    assert a.contains("x1^2*x2^3")
    assert not a.contains("x1*x2")
    assert a.contains("x1*x2^2*x5")
    # a principal ideal contains exactly the multiples of its generator
    assert ideal("x2").contains("x1*x2^2")
    assert not ideal("x2^3").contains("x1*x2^2")
    assert not ideal("x3").contains("x1*x2^2")
    assert ideal("x1*x2^2").contains("x1*x2^2")
    # exponents far above every generator's are read at the ideal's own width
    assert a.contains(f"x1^{2**70}*x2^{2**70}")
    assert not a.contains(f"x1^{2**70}*x3^{2**70}")
    assert not MonomialIdeal.zero(X5).contains(f"x1^{2**70}")


def test_with_ambient():
    small = MonomialIdeal(("x1", "x2"), ["x1*x2^2"])
    big = small.with_ambient(X5)
    assert big.ambient == X5
    assert big.generator_strings() == ["x1*x2^2"]
    with pytest.raises(ValueError):
        small.with_ambient(("x1",))

    a = MonomialIdeal(("x", "y", "z", "w"), ["x*y^2", "z^3", "y*z"])
    for ambient in (
        ("z", "y", "x", "w"),  # reordered
        ("u", "w", "z", "v", "y", "x"),  # wider
        ("y", "z", "x"),  # narrower, dropping only the unused w
    ):
        moved = a.with_ambient(ambient)
        reference = MonomialIdeal(ambient, a.generators)
        assert moved.ambient == ambient and moved == reference
        assert moved.generator_strings() == reference.generator_strings()
        assert moved.with_ambient(a.ambient) == a
    assert MonomialIdeal.zero(("x",)).with_ambient(("y", "x")).is_zero
    assert MonomialIdeal.unit(("x",)).with_ambient(("y",)).is_unit
    with pytest.raises(ValueError, match="uses 'z'"):
        a.with_ambient(("x", "y", "w"))
    with pytest.raises(ValueError, match="distinct"):
        a.with_ambient(("x", "y", "z", "x"))
    with pytest.raises(TypeError):
        a.with_ambient("xyzw")


def test_a_string_is_not_taken_as_a_list_of_names():
    # iterating "xy" gives the names "x" and "y"; saturating by them would
    # turn this ideal into the unit ideal
    a = MonomialIdeal(("x", "y", "z"), ["x*y^2", "y*z^3"])
    with pytest.raises(TypeError):
        a.saturate("xy")
    with pytest.raises(TypeError):
        a.saturate("x")
    with pytest.raises(TypeError):
        MonomialIdeal("xyz", ["x*y^2"])
    with pytest.raises(TypeError):
        a.with_ambient("xyz")
    assert a.saturate(["x", "y"]).is_unit
    assert a.with_ambient(["x", "y", "z"]) == a


# --- property tests -----------------------------------------------------

exponent_maps = st.dictionaries(
    st.sampled_from(X5), st.integers(min_value=0, max_value=4), max_size=4
)
monomials = exponent_maps.map(lambda exps: monomial(X5, exps))
ideals = st.lists(monomials, max_size=5).map(lambda gens: MonomialIdeal(X5, gens))


@given(ideals)
def test_canonical_form_is_idempotent(a):
    assert MonomialIdeal(X5, a.generators) == a


@given(ideals)
def test_no_generator_divides_another(a):
    rows = a._rows
    for i, g in enumerate(rows):
        for j, h in enumerate(rows):
            if i != j:
                assert not row_divides(g, h)


@given(st.lists(monomials, max_size=5), st.randoms())
def test_generator_order_does_not_matter(gens, rnd):
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    assert MonomialIdeal(X5, gens) == MonomialIdeal(X5, shuffled)


@given(ideals, ideals)
def test_intersection_membership(a, b):
    meet = a.intersect(b)
    for g in meet.generators:
        assert a.contains(g) and b.contains(g)
    for g in a._rows:
        for h in b._rows:
            (lcm,) = reference_intersection([g], [h])
            assert meet.contains(monomial(X5, zip(X5, lcm)))


@given(ideals, ideals)
def test_containment_chain(a, b):
    assert a * b <= a.intersect(b)
    assert a.intersect(b) <= a
    assert a <= a + b


@given(ideals)
def test_power_addition_law(a):
    assert a ** 3 == (a ** 1) * (a ** 2)
    assert a ** 4 == (a ** 2) * (a ** 2)


@given(ideals, ideals)
def test_equality_iff_mutual_containment(a, b):
    assert (a == b) == (a <= b and b <= a)


@given(ideals, st.sets(st.sampled_from(X5), max_size=3))
def test_saturation_grows_and_is_idempotent(a, vs):
    sat = a.saturate(vs)
    assert a <= sat
    assert sat.saturate(vs) == sat


@settings(max_examples=25)
@given(st.lists(exponent_maps, min_size=1, max_size=3), exponent_maps)
def test_membership_matches_brute_force(gens, probe):
    a = MonomialIdeal(X5, [monomial(X5, g) for g in gens])
    rows = [tuple(g.get(v, 0) for v in X5) for g in gens]
    row = tuple(probe.get(v, 0) for v in X5)
    assert a.contains(monomial(X5, probe)) == brute_force_member(rows, row)


def test_membership_brute_force_spot_checks():
    rng = random.Random(7)
    a = ideal("x1*x2^2", "x2*x3^2", "x4^3")
    rows = [(1, 2, 0, 0, 0), (0, 1, 2, 0, 0), (0, 0, 0, 3, 0)]
    for _ in range(40):
        row = tuple(rng.randint(0, 3) for _ in X5)
        assert a.contains(monomial(X5, zip(X5, row))) == brute_force_member(rows, row)


# --- differential test against the tuple reference kernel -----------------

# 0, 1, small, and wide exponents: the packed field width must adapt to all
exponents = st.one_of(
    st.sampled_from((0, 1)), st.integers(2, 5), st.integers(0, 2**70)
)


@st.composite
def ambient_and_rows(draw):
    """An ambient of 0 to 6 variables and two generator row lists over it."""
    n = draw(st.integers(0, 6))
    ambient = tuple(f"x{i}" for i in range(1, n + 1))
    rows = st.one_of(
        st.just([]),  # the zero ideal
        st.just([(0,) * n]),  # the unit ideal
        st.lists(st.tuples(*[exponents] * n), min_size=1, max_size=6),
    )
    return ambient, draw(rows), draw(rows)


def from_rows(ambient, rows) -> MonomialIdeal:
    return MonomialIdeal(ambient, [monomial(ambient, zip(ambient, row)) for row in rows])


@settings(max_examples=300, deadline=None)
@given(ambient_and_rows(), st.integers(0, 3), st.data())
def test_kernel_matches_tuple_reference(case, s, data):
    ambient, a_rows, b_rows = case
    a, b = from_rows(ambient, a_rows), from_rows(ambient, b_rows)
    ra, rb = reference_minimal_rows(a_rows), reference_minimal_rows(b_rows)
    assert a._rows == ra and b._rows == rb

    assert (a * b)._rows == reference_product(ra, rb)
    power = ((0,) * len(ambient),)
    for _ in range(s):
        power = reference_product(power, ra)
    assert (a ** s)._rows == power
    assert a.intersect(b)._rows == reference_intersection(ra, rb)
    assert (a + b)._rows == reference_minimal_rows(ra + rb)

    dropped = data.draw(st.sets(st.sampled_from(ambient)) if ambient else st.just(set()))
    keep = [v not in dropped for v in ambient]
    saturated = [tuple(e if k else 0 for e, k in zip(row, keep)) for row in ra]
    assert a.saturate(dropped)._rows == reference_minimal_rows(saturated)

    def covers(gens, row):
        return any(row_divides(k, row) for k in gens)

    assert a.contains_ideal(b) == all(covers(ra, row) for row in rb)
    for row in rb:
        assert a.contains(monomial(ambient, zip(ambient, row))) == covers(ra, row)


# --- packed storage ----------------------------------------------------------
#
# An ideal stores only its packed rows and the layout that packed them.  Equal
# ideals can be packed at different widths, so equality, the hash and the
# largest exponent must not depend on the width.


@settings(max_examples=200, deadline=None)
@given(ambient_and_rows())
def test_an_ideal_packed_wider_is_the_same_ideal(case):
    ambient, a_rows, _ = case
    a = from_rows(ambient, a_rows)
    assume(ambient and not a.is_zero)
    # a multiple of a generator lies in a but widens the fields of the sum
    first = a._rows[0]
    multiple = from_rows(ambient, [(first[0] + (1 << a._layout.vbits),) + first[1:]])
    wide = a + multiple
    assert wide._layout.vbits != a._layout.vbits
    assert wide == a and a == wide
    assert hash(wide) == hash(a)
    assert wide._rows == a._rows


@settings(max_examples=200, deadline=None)
@given(ambient_and_rows(), st.integers(0, 3))
def test_equal_generator_counts_with_other_rows_are_unequal(case, shift):
    ambient, a_rows, _ = case
    # built from its own generators, so its width is set by them alone
    a = from_rows(ambient, reference_minimal_rows(a_rows))
    # reversing the variables keeps the width; scaling by 2**shift widens it
    # whenever shift > 0 and some exponent is positive
    reversed_vars = from_rows(ambient, [row[::-1] for row in a._rows])
    assert reversed_vars._layout.vbits == a._layout.vbits
    times = from_rows(ambient, scaled(a._rows, 2**shift))
    for b in (reversed_vars, times):
        assert b.num_generators == a.num_generators
        assert (a == b) == (b == a) == (a._rows == b._rows)
    if shift and max(chain.from_iterable(a._rows), default=0):
        assert times._layout.vbits != a._layout.vbits
        assert a != times


def reference_generator_strings(ideal: MonomialIdeal) -> list[str]:
    """Each generator row formatted by the test-side formatter, in ambient order."""
    ambient = ideal.ambient
    return [monomial(ambient, zip(ambient, row)) for row in ideal._rows]


def assert_strings_match_reference(ideal: MonomialIdeal) -> None:
    expected = reference_generator_strings(ideal)
    assert ideal.generators == tuple(expected)
    assert ideal.generator_strings() == expected
    assert str(ideal) == "[" + ", ".join(expected) + "]"
    assert repr(ideal) == f"MonomialIdeal({ideal.ambient!r}, {expected!r})"


@settings(max_examples=200, deadline=None)
@given(ambient_and_rows())
def test_generator_strings_match_monomial_format(case):
    ambient, a_rows, b_rows = case
    a, b = from_rows(ambient, a_rows), from_rows(ambient, b_rows)
    for result in (a, a * b, a.intersect(b)):
        assert_strings_match_reference(result)


@settings(max_examples=200, deadline=None)
@given(ambient_and_rows())
def test_generators_read_back_as_the_same_ideal(case):
    ambient, a_rows, b_rows = case
    a, b = from_rows(ambient, a_rows), from_rows(ambient, b_rows)
    for result in (a, a * b, a.intersect(b)):
        again = MonomialIdeal(ambient, result.generators)
        assert again == result
        assert again._rows == result._rows


def test_generator_strings_of_zero_unit_and_named_ideals():
    names = ("é", "a b", "x_1", "y")
    for ideal_, strings in (
        (MonomialIdeal.zero(names), []),
        (MonomialIdeal.unit(names), ["1"]),
        (MonomialIdeal.unit(()), ["1"]),
        (MonomialIdeal(names, ["y*é^3", "a b^2*x_1"]), ["a b^2*x_1", "é^3*y"]),
    ):
        assert ideal_.generator_strings() == strings
        assert_strings_match_reference(ideal_)


def assert_bound_covers_rows(ideal: MonomialIdeal) -> None:
    """The layout's bound holds every exponent, and n fields of it fit vbits."""
    layout = ideal._layout
    assert max(chain.from_iterable(ideal._rows), default=0) <= layout.maxexp
    assert len(ideal.ambient) * layout.maxexp < 2**layout.vbits


@settings(max_examples=200, deadline=None)
@given(ambient_and_rows(), st.data())
def test_exponent_bound_follows_each_operation(case, data):
    ambient, a_rows, b_rows = case
    a, b = from_rows(ambient, a_rows), from_rows(ambient, b_rows)
    # built from strings, the bound is the largest exponent written, even in
    # a row that minimalization drops
    for ideal_, rows in ((a, a_rows), (b, b_rows)):
        assert ideal_._layout.maxexp == max(chain.from_iterable(rows), default=0)
    bound_a, bound_b = a._layout.maxexp, b._layout.maxexp
    dropped = data.draw(st.sets(st.sampled_from(ambient)) if ambient else st.just(set()))
    product, meet, total = a * b, a.intersect(b), a + b
    assert product._layout.maxexp == bound_a + bound_b
    # the larger bound's layout is shared, not built again
    assert meet._layout is total._layout is (a if bound_a >= bound_b else b)._layout
    assert a.saturate(dropped)._layout is a._layout
    for result in (a, b, product, meet, total, a.saturate(dropped)):
        assert_bound_covers_rows(result)


@settings(max_examples=100, deadline=None)
@given(ambient_and_rows())
def test_products_and_intersections_build_no_rows_until_read(case):
    ambient, a_rows, b_rows = case
    a, b = from_rows(ambient, a_rows), from_rows(ambient, b_rows)
    for op in (a.__mul__, a.intersect):
        result = op(b)
        result.num_generators, result.is_zero, result.is_unit
        assert result == op(b)  # the same width, so the packed rows are compared
        assert result._tuples is None
        rows = result._rows
        assert result._tuples is rows


# --- intersections with pure-power ideals -----------------------------------
#
# An ideal built by _pure_powers, as every component ideal is, is marked and
# met without a divisor index; the same generators given as strings build an
# unmarked ideal, which takes the general path.  Both must give the tuple
# reference, on either side of the intersection.


def power_rows(n, powers):
    """The exponent row of x_i^e for each position i and exponent e."""
    return [tuple(e if j == i else 0 for j in range(n)) for i, e in powers.items()]


def check_pure_meet(ambient, rows, powers, more_powers=None):
    r = from_rows(ambient, rows)
    c = MonomialIdeal._pure_powers(ambient, powers)
    plain = MonomialIdeal(ambient, c.generators)
    assert c._pure and not plain._pure and not r._pure
    assert c == plain
    assert c._rows == reference_minimal_rows(power_rows(len(ambient), powers))
    # the largest power bounds the pure ideal, and a meet takes the larger bound
    assert c._layout.maxexp == max(powers.values(), default=0)
    bound = max(r._layout.maxexp, c._layout.maxexp)
    expected = reference_intersection(reference_minimal_rows(rows), c._rows)
    general = r.intersect(plain)
    assert general._rows == expected
    for meet in (r.intersect(c), c.intersect(r)):
        assert not meet._pure
        assert meet._rows == expected
        assert meet == general
        assert meet._layout.maxexp == bound
        assert_bound_covers_rows(meet)
    if more_powers is not None:
        d = MonomialIdeal._pure_powers(ambient, more_powers)
        both = reference_intersection(c._rows, d._rows)
        assert c.intersect(d)._rows == both == d.intersect(c)._rows
        assert c.intersect(d)._layout.maxexp == max(c._layout.maxexp, d._layout.maxexp)
        assert intersect_all([c, d, r])._rows == reference_intersection(both, r._rows)


@st.composite
def rows_and_powers(draw):
    """Rows over 0 to 5 variables, and two pure-power maps over them.

    The rows and each map draw exponents up to 2 or up to 9, so the two
    sides of a meet are often packed at different widths.
    """
    n = draw(st.integers(0, 5))
    ambient = tuple(f"x{i}" for i in range(1, n + 1))
    top = draw(st.sampled_from((2, 9)))
    rows = draw(st.one_of(
        st.just([]),
        st.just([(0,) * n]),
        st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1, max_size=6),
    ))

    def powers():
        positions = st.integers(0, n - 1) if n else st.nothing()
        top = draw(st.sampled_from((2, 9)))
        return draw(st.dictionaries(positions, st.integers(1, top), max_size=n))

    return ambient, rows, powers(), powers()


@settings(max_examples=150, deadline=None)
@given(rows_and_powers())
def test_pure_power_meet_matches_tuple_reference(case):
    check_pure_meet(*case)


def test_pure_power_meet_with_zero_and_unit_ideals():
    for rows in ([], [(0, 0, 0)]):
        check_pure_meet(X5[:3], rows, {0: 2, 2: 1}, {1: 3})
    # the unit ideal meets C in C
    c = MonomialIdeal._pure_powers(X5, {0: 2, 3: 1})
    assert MonomialIdeal.unit(X5).intersect(c) == c == c.intersect(MonomialIdeal.unit(X5))
    assert MonomialIdeal.zero(X5).intersect(c).is_zero


def test_pure_power_meet_with_the_empty_cover_component():
    # an edgeless graph's empty cover is strong, and its component ideal is
    # the zero ideal, built by _pure_powers with no powers
    g = WeightedOrientedGraph(("a", "b", "c"), [])
    zero = irreducible_component(g, ()).ideal
    assert zero._pure and zero.is_zero
    check_pure_meet(g.vertices, [(1, 0, 2), (0, 3, 0)], {}, {1: 2})
    r = MonomialIdeal(g.vertices, ["a*c^2", "b^3"])
    assert r.intersect(zero).is_zero and zero.intersect(r).is_zero
    assert zero.intersect(zero).is_zero


@pytest.mark.parametrize("row_top, power_top", ((9, 2), (2, 9)))
def test_pure_power_meet_across_widths(row_top, power_top):
    rows = [(row_top, 1, 0, 0), (0, row_top, 2, 0), (1, 0, 0, row_top), (2, 2, 2, 2)]
    powers = {0: power_top, 2: 1, 3: 2}
    r = from_rows(X4, rows)
    c = MonomialIdeal._pure_powers(X4, powers)
    assert r._layout.vbits != c._layout.vbits
    check_pure_meet(X4, rows, powers, {1: row_top})


# --- divisor search across block boundaries --------------------------------
#
# The divisor search packs each complete run of 64 kept rows into one block
# and the rows after the last one into a partial block, so these cases hold
# 63, 64, 65, 128, 129 and 165 rows of several degrees: a partial block alone,
# full blocks with and without a partial one, and rows kept after a block was
# built.


def antichain(level):
    """(a, b, c, 2 * (level - a - b - c)) with a + b + c <= level.

    No row divides another, and the degrees run from level to 2 * level,
    mixed along the list.
    """
    return [
        (a, b, c, 2 * (level - a - b - c))
        for a in range(level + 1)
        for b in range(level + 1 - a)
        for c in range(level + 1 - a - b)
    ]


ANTICHAIN = antichain(8)  # 165 rows
BLOCK_SIZES = (63, 64, 65, 128, 129, len(ANTICHAIN))


def scaled(rows, scale):
    return [tuple(scale * e for e in row) for row in rows]


# exponents up to 2**70
@pytest.mark.parametrize("scale", (1, 2**66), ids=("scale1", "scale2^66"))
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_block_boundaries_match_tuple_reference(size, scale):
    rows = scaled(ANTICHAIN[:size], scale)
    # a multiple of every row, of larger degree than any row, is tested
    # against all of them
    multiples = [row[:3] + (row[3] + 17 * scale,) for row in rows]
    a = from_rows(X4, rows + multiples)
    ra = reference_minimal_rows(rows + multiples)
    assert a._rows == ra
    assert a.num_generators == len(ra) == size

    b = from_rows(X4, [(scale, 0, 0, 0), (0, 0, 0, 2 * scale), (0, scale, scale, 0)])
    assert (a * b)._rows == reference_product(ra, b._rows)

    shifted = from_rows(
        X4, [row[:3] + (row[3] + scale,) for row in scaled(ANTICHAIN[35:165], scale)]
    )
    assert a.intersect(shifted)._rows == reference_intersection(ra, shifted._rows)
    assert shifted.intersect(a)._rows == reference_intersection(shifted._rows, ra)

    whole = from_rows(X4, scaled(ANTICHAIN, scale))
    for bigger in (a * b, shifted, whole):
        expected = reference_first_outside(bigger._rows, ra)
        assert a.contains_ideal(bigger) == (expected is None)
        witness = bigger.first_generator_outside(a)
        assert witness == (None if expected is None else monomial(X4, zip(X4, expected)))

    # a generator missing from the other side is found when it comes first
    # and when every block and the tail are searched before it
    for missing in (0, size - 1):
        rest = from_rows(X4, ra[:missing] + ra[missing + 1 :])
        assert a.first_generator_outside(rest) == monomial(X4, zip(X4, ra[missing]))
        assert not rest.contains_ideal(a)
        assert a.contains_ideal(rest)


# 220 rows: two full blocks and a partial block of any size after them
WIDE_ANTICHAIN = antichain(9)


@pytest.mark.parametrize("full", (0, 1, 2))
def test_partial_last_block_of_every_size(full):
    canonical = reference_minimal_rows(WIDE_ANTICHAIN)
    assert len(canonical) == len(WIDE_ANTICHAIN)
    for k in range(1, 64):
        size = 64 * full + k
        rows = WIDE_ANTICHAIN[:size]
        # the multiples are of larger degree than every row, so minimalization
        # tests them against the whole index, partial block included
        multiples = [row[:3] + (row[3] + 19,) for row in rows]
        a = from_rows(X4, rows + multiples)
        kept = set(rows)
        ra = tuple(row for row in canonical if row in kept)
        assert a._rows == ra, size

        # in an antichain, each generator lies in the ideal only by itself,
        # so every slot of the partial block must take part, and no other
        assert a.contains_ideal(a)
        for missing in (0, size - 1):
            rest = from_rows(X4, ra[:missing] + ra[missing + 1 :])
            assert a.first_generator_outside(rest) == monomial(X4, zip(X4, ra[missing])), size
            assert not rest.contains_ideal(a)
            assert not rest.contains(a.generators[missing])


# Each step below packs at a width worked out from its own operands, so a
# product's kept packing (fields for 2 * scale) is refused by the next step
# whenever n * e there has another bit length: 4 * scale and 16 * scale do.
@pytest.mark.parametrize("scale", (1, 3, 2**40))
def test_kept_packing_is_refused_when_the_width_changes(scale):
    s = scale
    a_rows = [(s, 0, 0, 0), (0, s, 0, 0)]
    b_rows = [(0, 0, s, 0), (0, 0, 0, s)]
    ab = from_rows(X4, a_rows) * from_rows(X4, b_rows)
    rab = reference_product(a_rows, b_rows)
    assert ab._rows == rab
    assert ab._layout.vbits == (8 * s).bit_length()

    narrow = from_rows(X4, [(s, s, 0, 0), (0, 0, s, 0), (0, s, 0, s)])
    wide = from_rows(X4, [(4 * s, 0, 0, 0), (0, 0, 0, 3 * s), (0, s, 2 * s, 0)])
    for c in (narrow, wide):
        rc = c._rows
        assert ab.intersect(c)._rows == reference_intersection(rab, rc)
        assert c.intersect(ab)._rows == reference_intersection(rc, rab)
        assert (ab.intersect(c) * c)._rows == reference_product(
            reference_intersection(rab, rc), rc
        )
        assert (ab + c)._rows == reference_minimal_rows(rab + rc)
        for x, rx, y, ry in ((c, rc, ab, rab), (ab, rab, c, rc)):
            expected = reference_first_outside(ry, rx)
            assert x.contains_ideal(y) == (expected is None)
            witness = y.first_generator_outside(x)
            assert witness == (None if expected is None else monomial(X4, zip(X4, expected)))
    saturated = [(0,) + row[1:] for row in rab]
    assert ab.saturate({"x1"})._rows == reference_minimal_rows(saturated)
    assert ab.saturate({"x1"}).intersect(narrow)._rows == reference_intersection(
        reference_minimal_rows(saturated), narrow._rows
    )


def test_one_variable_ambient_keeps_the_least_power():
    x = ("x",)
    rows = [(e,) for e in range(3, 200)] + [(2**70,)]
    a = from_rows(x, rows)
    assert a._rows == reference_minimal_rows(rows) == ((3,),)
    assert a.num_generators == 1
    b = from_rows(x, [(2**70 - 1,)])
    assert (a * b)._rows == reference_product(a._rows, b._rows)
    assert a.intersect(b)._rows == reference_intersection(a._rows, b._rows)
    assert a.contains_ideal(b) and not b.contains_ideal(a)
    assert a.first_generator_outside(b) == "x^3"
    assert b.first_generator_outside(a) is None


@st.composite
def hyperplane_rows(draw):
    """An ambient of 1 to 5 variables and two large row lists over it.

    Rows on a hyperplane sum(w_i * e_i) = level with positive weights w
    divide no other row on it, and differing weights spread them over
    several degrees; the last weight is 1, so every choice of the other
    exponents below the level is on it.  A random subset of such rows, up to 200 of them, comes
    with multiples of some of them and is scaled by 1 or 2**64.
    """
    n = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = [rng.randint(1, 3) for _ in range(n - 1)] + [1]
    level = {1: 9, 2: 250, 3: 45, 4: 27, 5: 18}[n]  # at least 84 rows

    def on_level(i, left):
        if i == n - 1:
            if left % weights[i] == 0:
                yield (left // weights[i],)
            return
        for e in range(left // weights[i] + 1):
            for rest in on_level(i + 1, left - e * weights[i]):
                yield (e,) + rest

    plane = list(on_level(0, level))
    rng.shuffle(plane)
    size = draw(st.integers(1, 200))
    rows = plane[:size]
    multiples = [
        tuple(e + rng.randint(0, 2) for e in row) for row in rng.sample(rows, len(rows) // 2)
    ]
    scale = draw(st.sampled_from((1, 2**64)))
    a_rows = scaled(rows + multiples, scale)
    b_rows = scaled(plane[size : size + draw(st.integers(0, 150))] + rows[::3], scale)
    return tuple(f"x{i}" for i in range(1, n + 1)), a_rows, b_rows


@settings(max_examples=20, deadline=None)
@given(hyperplane_rows())
def test_block_kernel_matches_tuple_reference(case):
    ambient, a_rows, b_rows = case
    a, b = from_rows(ambient, a_rows), from_rows(ambient, b_rows)
    ra, rb = reference_minimal_rows(a_rows), reference_minimal_rows(b_rows)
    assert a._rows == ra and b._rows == rb
    assert a.num_generators == len(ra)

    small = from_rows(ambient, rb[:3])
    product = a * small
    rp = reference_product(ra, small._rows)
    assert product._rows == rp
    assert a.intersect(b)._rows == reference_intersection(ra, rb)

    # each step of a chain packs at its own width, which may differ from the
    # width the product kept
    assert product.intersect(small)._rows == reference_intersection(rp, small._rows)
    saturated = [(0,) + row[1:] for row in rp]
    assert product.saturate(ambient[:1])._rows == reference_minimal_rows(saturated)

    for x, y in ((a, b), (b, a), (a, product), (product, small)):
        expected = reference_first_outside(y._rows, x._rows)
        assert x.contains_ideal(y) == (expected is None)
        witness = y.first_generator_outside(x)
        assert witness == (None if expected is None else monomial(ambient, zip(ambient, expected)))
