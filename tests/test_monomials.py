"""Monomial and monomial-ideal arithmetic against hand-computed values."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_member,
    reference_first_outside,
    reference_intersection,
    reference_minimal_rows,
    reference_product,
    row_divides,
)
from oriented_ideals import Monomial, MonomialIdeal, intersect_all

X5 = ("x1", "x2", "x3", "x4", "x5")


def m(text: str) -> Monomial:
    return Monomial.from_str(text)


def ideal(*gens: str, ambient=X5) -> MonomialIdeal:
    return MonomialIdeal(ambient, gens)


# --- monomials ---------------------------------------------------------


def test_identity_monomial():
    one = Monomial()
    assert one.is_identity
    assert one.degree == 0
    assert str(one) == "1"
    assert one.divides(m("x1*x2^2"))
    assert one == m("1")


def test_zero_exponents_not_stored():
    assert Monomial({"x1": 0, "x2": 3}) == Monomial({"x2": 3})
    assert Monomial({"x1": 0}).is_identity


def test_divides():
    assert m("x2").divides(m("x1*x2^2"))
    assert not m("x2^3").divides(m("x1*x2^2"))
    assert not m("x3").divides(m("x1*x2^2"))
    assert m("x1*x2^2").divides(m("x1*x2^2"))


def test_lcm():
    assert m("x1*x2^2").lcm(m("x2*x3")) == m("x1*x2^2*x3")
    assert m("x1").lcm(Monomial()) == m("x1")


def test_product_and_power():
    assert m("x1*x2") * m("x2^2*x3") == m("x1*x2^3*x3")
    assert m("x1*x3^2") ** 3 == m("x1^3*x3^6")
    assert m("x1") ** 0 == Monomial()
    with pytest.raises(ValueError):
        m("x1") ** -1


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial({"x1": -2})
    with pytest.raises(TypeError):
        Monomial({"x1": 1.5})
    with pytest.raises(TypeError):
        Monomial({3: 1})


def test_parse_round_trip():
    for text in ("1", "x1", "x3^2", "x1*x3^2", "x2^10*x5"):
        assert m(text).format(X5) == text
    with pytest.raises(ValueError):
        Monomial.from_str("x1^0")
    with pytest.raises(ValueError):
        Monomial.from_str("x1*x1")
    with pytest.raises(ValueError):
        Monomial.from_str("x1^a")


def test_format_uses_ambient_order():
    assert m("x2*x1").format(("x1", "x2")) == "x1*x2"
    assert m("x2*x1").format(("x2", "x1")) == "x2*x1"


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
    assert not zero.contains(m("x1"))
    assert unit.contains(m("1"))
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
    product = m("x1") * m("x2^2")
    for same in (
        m("x2^2*x1"),
        Monomial({"x2": 2, "x1": 1}),
        Monomial([("x1", 1), ("x2", 2), ("x3", 0)]),
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
    zero = MonomialIdeal.zero(X5)
    assert (zero ** 3).is_zero


def test_intersection():
    assert ideal("x1").intersect(ideal("x2")) == ideal("x1*x2")
    a = MonomialIdeal(("x", "y", "z"), ["x", "z^2"])
    b = MonomialIdeal(("x", "y", "z"), ["y^2", "y*z^2"])
    meet = a.intersect(b)
    assert meet.contains(m("x*y^2"))
    assert meet.contains(m("y*z^2"))
    assert meet == MonomialIdeal(("x", "y", "z"), ["x*y^2", "y*z^2"])
    # intersecting with the unit ideal changes nothing
    assert a.intersect(MonomialIdeal.unit(("x", "y", "z"))) == a


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
    assert a.contains(m("x1^2*x2^3"))
    assert not a.contains(m("x1*x2"))
    assert a.contains("x1*x2^2*x5")


def test_with_ambient():
    small = MonomialIdeal(("x1", "x2"), ["x1*x2^2"])
    big = small.with_ambient(X5)
    assert big.ambient == X5
    assert big.generator_strings() == ["x1*x2^2"]
    with pytest.raises(ValueError):
        small.with_ambient(("x1",))


# --- property tests -----------------------------------------------------

exponent_maps = st.dictionaries(
    st.sampled_from(X5), st.integers(min_value=0, max_value=4), max_size=4
)
monomials = exponent_maps.map(Monomial)
ideals = st.lists(monomials, max_size=5).map(lambda gens: MonomialIdeal(X5, gens))


@given(monomials, monomials)
def test_lcm_divisibility(a, b):
    j = a.lcm(b)
    assert a.divides(j) and b.divides(j)
    assert j.divides(a * b)


@given(monomials, monomials)
def test_divides_iff_product_witness(a, b):
    if a.divides(b):
        quotient = Monomial({v: b[v] - a[v] for v in b.support})
        assert a * quotient == b


@given(ideals)
def test_canonical_form_is_idempotent(a):
    assert MonomialIdeal(X5, a.generators) == a


@given(ideals)
def test_no_generator_divides_another(a):
    gens = a.generators
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i != j:
                assert not g.divides(h)


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
    for g in a.generators:
        for h in b.generators:
            assert meet.contains(g.lcm(h))


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
@given(st.lists(monomials, min_size=1, max_size=3), monomials)
def test_membership_matches_brute_force(gens, probe):
    a = MonomialIdeal(X5, gens)
    assert a.contains(probe) == brute_force_member(a.generators, probe, X5)


def test_membership_brute_force_spot_checks():
    rng = random.Random(7)
    a = ideal("x1*x2^2", "x2*x3^2", "x4^3")
    for _ in range(40):
        probe = Monomial({v: rng.randint(0, 3) for v in X5})
        assert a.contains(probe) == brute_force_member(a.generators, probe, X5)


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
    return MonomialIdeal(ambient, [Monomial(zip(ambient, row)) for row in rows])


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
        assert a.contains(Monomial(zip(ambient, row))) == covers(ra, row)


# --- divisor search across block boundaries --------------------------------
#
# The divisor search packs each complete run of 64 kept rows into one block
# and the rows after the last one into a partial block, so these cases hold
# 63, 64, 65, 128, 129 and 165 rows of several degrees: a partial block alone,
# full blocks with and without a partial one, and rows kept after a block was
# built.

X4 = ("x1", "x2", "x3", "x4")


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
        assert witness == (None if expected is None else Monomial(zip(X4, expected)))

    # a generator missing from the other side is found when it comes first
    # and when every block and the tail are searched before it
    for missing in (0, size - 1):
        rest = from_rows(X4, ra[:missing] + ra[missing + 1 :])
        assert a.first_generator_outside(rest) == Monomial(zip(X4, ra[missing]))
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
            assert a.first_generator_outside(rest) == Monomial(zip(X4, ra[missing])), size
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
    assert ab._vbits == (8 * s).bit_length()

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
            assert witness == (None if expected is None else Monomial(zip(X4, expected)))
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
    assert a.first_generator_outside(b) == Monomial({"x": 3})
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
        assert witness == (None if expected is None else Monomial(zip(ambient, expected)))
