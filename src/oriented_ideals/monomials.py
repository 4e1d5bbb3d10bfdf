"""Exact arithmetic for monomials and monomial ideals.

A monomial is a power product of variables, stored sparsely as a mapping
from variable name to positive exponent; the identity monomial is the
empty mapping.  A monomial ideal lives in a fixed ambient polynomial ring,
given as an ordered tuple of variable names, and is always kept in
canonical form: the unique minimal generating set, sorted by total degree
and then lexicographically in the ambient variable order.  Everything is
exact integer arithmetic; there are no coefficients anywhere.

An ideal stores its generators as exponent rows, one tuple of ints per
generator in ambient order.  Ideal operations work on packed rows instead
(the packed exponent vectors of Monagan and Pearce): each row becomes one
Python int with one field of W bits per variable, variable 0 in the most
significant field.  A field is ``vbits`` value bits topped by a guard bit
that stays clear in every packed row.

W is worked out per operation, never set: ``vbits`` is the bit length of
n * e, where n is the ambient size and e the largest exponent the result
can hold (the operands' largest exponent, or the sum of both operands'
largest exponents for a product).  So a field never overflows, packed
addition is exponent addition, and the sum of all fields, which is the
total degree, is below 2**W - 1.  Since 2**W is 1 modulo 2**W - 1, the
degree of a packed row x is ``x % (2**W - 1)``, and the graded-lex order
is the order of ``(x % (2**W - 1), -x)``.

With H the mask of all guard bits, k divides x exactly when
``((x | H) - k) & H == H``: each field computes 2**vbits + x_i - k_i,
which keeps its guard bit iff x_i >= k_i and never borrows from the next
field.  The same guard bits give a per-field mask of where x_i >= k_i,
from which the lcm of two rows is assembled without unpacking.

Minimalization, containment and the pre-passes of an intersection all
ask one question: does some row of a list divide x?  A _Divisors index
answers it for 64 rows with a few big-int operations.  Each complete run
of 64 rows, in list order, is one block int holding one slot of n*W + 1
bits per row: the row's n fields, then a slot top bit that is clear.
With ``ones`` the low bit of every slot, ``(x | H) * ones`` holds x|H in
every slot, and subtracting the block computes the test above in all 64
slots at once.  Each field stays nonnegative, so no borrow leaves a field
and none reaches the slot top bit or the next slot.  Setting every bit of
a slot except its guard bits and top bit and adding ``ones`` then carries
into a slot's top bit exactly when all its guard bits survived, that is,
when that slot's row divides x, and the carry stops at that top bit.
Blocks are tested in list order, so a hit still ends the search early.
The rows after the last complete block, fewer than 64, are scanned one
at a time, so an ideal of fewer than 64 generators builds no block and
pays nothing for them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import chain
from operator import lshift


class Monomial:
    """An exponent vector with named variables, e.g. x1*x3^2."""

    __slots__ = ("_exps", "_hash")

    def __init__(self, exponents: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        exps = dict(exponents)
        for var, exp in exps.items():
            if not isinstance(var, str):
                raise TypeError(f"variable names must be strings, got {var!r}")
            if not isinstance(exp, int) or isinstance(exp, bool):
                raise TypeError(f"exponent of {var} must be an int, got {exp!r}")
            if exp < 0:
                raise ValueError(f"exponent of {var} is negative: {exp}")
        # zero exponents are not stored
        self._exps = {v: e for v, e in sorted(exps.items()) if e > 0}
        self._hash: int | None = None

    @classmethod
    def from_str(cls, text: str) -> Monomial:
        """Parse "x1*x3^2" (exponent 1 omitted, "1" is the identity)."""
        text = text.strip()
        if text == "1":
            return cls()
        exps: dict[str, int] = {}
        for factor in text.split("*"):
            factor = factor.strip()
            var, sep, exp = factor.partition("^")
            if not var:
                raise ValueError(f"empty factor in monomial string {text!r}")
            if sep:
                try:
                    e = int(exp)
                except ValueError:
                    raise ValueError(f"bad exponent in factor {factor!r}") from None
            else:
                e = 1
            if e < 1:
                raise ValueError(f"exponent must be positive in factor {factor!r}")
            if var in exps:
                raise ValueError(f"repeated variable {var!r} in {text!r}")
            exps[var] = e
        return cls(exps)

    @property
    def exponents(self) -> dict[str, int]:
        return dict(self._exps)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self._exps)

    @property
    def degree(self) -> int:
        return sum(self._exps.values())

    @property
    def is_identity(self) -> bool:
        return not self._exps

    def __getitem__(self, var: str) -> int:
        return self._exps.get(var, 0)

    def items(self) -> Iterable[tuple[str, int]]:
        return self._exps.items()

    def divides(self, other: Monomial) -> bool:
        other_exps = other._exps
        return all(other_exps.get(v, 0) >= e for v, e in self._exps.items())

    def lcm(self, other: Monomial) -> Monomial:
        exps = dict(self._exps)
        for v, e in other._exps.items():
            if e > exps.get(v, 0):
                exps[v] = e
        return Monomial(exps)

    def __mul__(self, other: Monomial) -> Monomial:
        if not isinstance(other, Monomial):
            return NotImplemented
        exps = dict(self._exps)
        for v, e in other._exps.items():
            exps[v] = exps.get(v, 0) + e
        return Monomial(exps)

    def __pow__(self, k: int) -> Monomial:
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"monomial power must be a nonnegative int, got {k!r}")
        return Monomial({v: e * k for v, e in self._exps.items()})

    def format(self, order: Sequence[str] | None = None) -> str:
        """Render as "x1*x3^2", listing variables in the given order."""
        if not self._exps:
            return "1"
        if order is None:
            vs = list(self._exps)
        else:
            vs = [v for v in order if v in self._exps]
            vs += sorted(v for v in self._exps if v not in set(order))
        return "*".join(v if self._exps[v] == 1 else f"{v}^{self._exps[v]}" for v in vs)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Monomial({self._exps!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._exps == other._exps

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._exps.items()))
        return self._hash


def _max_exponent(rows: Iterable[tuple[int, ...]]) -> int:
    return max(chain.from_iterable(rows), default=0)


class _Layout:
    """Packing of n-variable rows whose exponents are at most maxexp."""

    __slots__ = ("vbits", "shifts", "guard", "mask", "modulus", "bits")

    def __init__(self, n: int, maxexp: int):
        vbits = max(n * maxexp, 1).bit_length()
        width = vbits + 1
        self.vbits = vbits
        self.shifts = [width * (n - 1 - i) for i in range(n)]
        self.guard = sum(1 << (s + vbits) for s in self.shifts)
        self.mask = (1 << vbits) - 1
        self.modulus = (1 << width) - 1
        self.bits = width * n

    def pack(self, rows: Iterable[tuple[int, ...]]) -> list[int]:
        shifts = self.shifts
        return [sum(map(lshift, row, shifts)) for row in rows]

    def unpack(self, x: int) -> tuple[int, ...]:
        return tuple(map(self.mask.__and__, map(x.__rshift__, self.shifts)))

    def minimal(self, packed: set[int]) -> tuple[tuple[int, ...], ...]:
        """Rows of the minimal elements of packed, unpacked and sorted graded-lex.

        Rows are scanned in graded-lex order, and a row is kept unless a
        kept row of strictly smaller degree divides it; rows of one degree
        cannot divide each other unless they are equal.  The kept rows of
        smaller degree are searched through a _Divisors index, which grows
        by the rows of each finished degree.
        """
        modulus = self.modulus
        kept: list[int] = []  # kept rows of strictly smaller degree
        current: list[int] = []  # kept rows of the degree being scanned
        smaller = _Divisors(self, [])
        divides = smaller.divides
        degree = -1
        for d, neg in sorted((x % modulus, -x) for x in packed):
            if d != degree:
                kept += current
                smaller.extend(current)
                current = []
                degree = d
            if not divides(-neg):
                current.append(-neg)
        kept += current
        return tuple(map(self.unpack, kept))


BLOCK = 64  # rows per block int in a _Divisors index


class _Divisors:
    """Packed rows of one layout, searched for a divisor of a packed row.

    Every complete run of BLOCK rows, in the order the rows came, is one
    block int with one slot of ``layout.bits + 1`` bits per row; the rows
    after the last complete block form the tail and are scanned one by one.
    """

    __slots__ = ("guard", "slot", "blocks", "tail", "ones", "fill", "tops")

    def __init__(self, layout: _Layout, rows: list[int]):
        self.guard = layout.guard
        self.slot = layout.bits + 1
        self.blocks: list[int] = []
        self.tail = rows  # not copied, and never changed in place
        if len(rows) >= BLOCK:
            self._fold()

    def extend(self, rows: list[int]) -> None:
        """Add rows after the ones already held."""
        self.tail = self.tail + rows
        if len(self.tail) >= BLOCK:
            self._fold()

    def _fold(self) -> None:
        """Move every complete run of BLOCK tail rows into a block."""
        slot = self.slot
        if not self.blocks:
            self.ones = ((1 << (slot * BLOCK)) - 1) // ((1 << slot) - 1)
            self.tops = self.ones << (slot - 1)
            self.fill = self.ones * ((1 << (slot - 1)) - 1 - self.guard)
        offsets = range(0, slot * BLOCK, slot)
        tail = self.tail
        full = len(tail) - len(tail) % BLOCK
        for start in range(0, full, BLOCK):
            self.blocks.append(sum(map(lshift, tail[start : start + BLOCK], offsets)))
        self.tail = tail[full:]

    def divides(self, x: int) -> bool:
        """Some held row divides the packed row x."""
        guard = self.guard
        xg = x | guard
        blocks = self.blocks
        if blocks:
            # x in every slot; a slot carries into its top bit iff its row
            # divides x
            spread = xg * self.ones
            fill, ones, tops = self.fill, self.ones, self.tops
            for block in blocks:
                if ((spread - block) | fill) + ones & tops:
                    return True
        for k in self.tail:
            if (xg - k) & guard == guard:
                return True
        return False


def _canonical(n: int, rows: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    layout = _Layout(n, _max_exponent(rows))
    return layout.minimal(set(layout.pack(rows)))


class MonomialIdeal:
    """A monomial ideal in canonical form over a fixed variable order.

    Generators are minimalized and sorted on construction, so structural
    equality of two ideals over the same ambient is ideal equality.  The
    zero ideal has no generators; the unit ideal is generated by 1.
    """

    __slots__ = ("_ambient", "_position", "_rows", "_gens", "_hash")

    def __init__(
        self,
        ambient: Sequence[str],
        generators: Iterable[Monomial | str] = (),
    ):
        ambient = tuple(ambient)
        if len(set(ambient)) != len(ambient):
            raise ValueError("ambient variables must be distinct")
        self._ambient = ambient
        self._position = {v: i for i, v in enumerate(ambient)}
        rows = [
            self._row(Monomial.from_str(g) if isinstance(g, str) else g)
            for g in generators
        ]
        self._rows = _canonical(len(ambient), rows)
        self._gens: tuple[Monomial, ...] | None = None
        self._hash: int | None = None

    @classmethod
    def zero(cls, ambient: Sequence[str]) -> MonomialIdeal:
        return cls(ambient, ())

    @classmethod
    def unit(cls, ambient: Sequence[str]) -> MonomialIdeal:
        return cls(ambient, (Monomial(),))

    def _with_rows(self, rows: tuple[tuple[int, ...], ...]) -> MonomialIdeal:
        """An ideal over this ambient whose rows are already canonical."""
        ideal = MonomialIdeal.__new__(MonomialIdeal)
        ideal._ambient = self._ambient
        ideal._position = self._position
        ideal._rows = rows
        ideal._gens = None
        ideal._hash = None
        return ideal

    def _monomial(self, row: tuple[int, ...]) -> Monomial:
        return Monomial({v: e for v, e in zip(self._ambient, row) if e})

    def _row(self, m: Monomial) -> tuple[int, ...]:
        row = [0] * len(self._ambient)
        for v, e in m.items():
            if v not in self._position:
                raise ValueError(f"generator {m} uses {v!r}, not an ambient variable")
            row[self._position[v]] = e
        return tuple(row)

    @property
    def ambient(self) -> tuple[str, ...]:
        return self._ambient

    @property
    def generators(self) -> tuple[Monomial, ...]:
        if self._gens is None:
            self._gens = tuple(map(self._monomial, self._rows))
        return self._gens

    @property
    def num_generators(self) -> int:
        """Size of the minimal generating set, without building any Monomial."""
        return len(self._rows)

    @property
    def is_zero(self) -> bool:
        return not self._rows

    @property
    def is_unit(self) -> bool:
        return len(self._rows) == 1 and sum(self._rows[0]) == 0

    def generator_strings(self) -> list[str]:
        return [g.format(self._ambient) for g in self.generators]

    def _require_same_ambient(self, other: MonomialIdeal) -> None:
        if self._ambient != other._ambient:
            raise ValueError(
                f"ambient mismatch: {self._ambient} vs {other._ambient}"
            )

    def _first_outside(self, rows: Sequence[tuple[int, ...]]) -> int | None:
        """Index of the first of rows that self does not contain, if any."""
        layout = _Layout(
            len(self._ambient), max(_max_exponent(self._rows), _max_exponent(rows))
        )
        divides = _Divisors(layout, layout.pack(self._rows)).divides
        for i, x in enumerate(layout.pack(rows)):
            if not divides(x):
                return i
        return None

    def contains(self, m: Monomial | str) -> bool:
        """Membership: some generator divides m."""
        if isinstance(m, str):
            m = Monomial.from_str(m)
        # variables outside the ambient cannot matter: no generator uses them
        return self._first_outside([tuple(m[v] for v in self._ambient)]) is None

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        """True iff other is a subideal of self."""
        self._require_same_ambient(other)
        return self._first_outside(other._rows) is None

    def first_generator_outside(self, other: MonomialIdeal) -> Monomial | None:
        """The first generator of self, in canonical order, not in other.

        None when other contains self.  Only the generator returned is
        built as a Monomial.
        """
        self._require_same_ambient(other)
        i = other._first_outside(self._rows)
        return None if i is None else self._monomial(self._rows[i])

    def __le__(self, other: MonomialIdeal) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return other.contains_ideal(self)

    def __add__(self, other: MonomialIdeal) -> MonomialIdeal:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        self._require_same_ambient(other)
        rows = self._rows + other._rows
        return self._with_rows(_canonical(len(self._ambient), rows))

    def __mul__(self, other: MonomialIdeal) -> MonomialIdeal:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        self._require_same_ambient(other)
        # fields must hold the sum of the largest exponents on each side
        layout = _Layout(
            len(self._ambient), _max_exponent(self._rows) + _max_exponent(other._rows)
        )
        theirs = layout.pack(other._rows)
        products = {x + y for x in layout.pack(self._rows) for y in theirs}
        return self._with_rows(layout.minimal(products))

    def __pow__(self, s: int) -> MonomialIdeal:
        """s-fold product, minimalizing after each step; s=0 gives the unit ideal."""
        if not isinstance(s, int) or s < 0:
            raise ValueError(f"ideal power must be a nonnegative int, got {s!r}")
        if s == 0:
            return MonomialIdeal.unit(self._ambient)
        result = self
        for _ in range(s - 1):
            result = result * self
        return result

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        """Intersection of two monomial ideals, generated by pairwise lcms.

        A generator of one side that already lies in the other side is a
        generator of the intersection, and every lcm it takes part in is
        its multiple, so only the remaining generators are paired.
        """
        self._require_same_ambient(other)
        layout = _Layout(
            len(self._ambient),
            max(_max_exponent(self._rows), _max_exponent(other._rows)),
        )
        guard, vbits = layout.guard, layout.vbits
        mine = layout.pack(self._rows)
        theirs = layout.pack(other._rows)
        in_theirs = _Divisors(layout, theirs).divides
        in_mine = _Divisors(layout, mine).divides
        out: set[int] = set()
        pair_mine = []
        for x in mine:
            if in_theirs(x):
                out.add(x)
            else:
                pair_mine.append(x)
        pair_theirs = []
        for y in theirs:
            if in_mine(y):
                out.add(y)
            else:
                pair_theirs.append(y)
        for x in pair_mine:
            xg = x | guard
            for y in pair_theirs:
                t = (xg - y) & guard  # guard bits where x's field >= y's
                m = t - (t >> vbits)  # ... widened to value-bit masks
                out.add((x & m) | (y & ~m))
        return self._with_rows(layout.minimal(out))

    def saturate(self, variables: Iterable[str]) -> MonomialIdeal:
        """Saturation with respect to the product of the given variables.

        For monomial ideals this just zeroes out the exponents of those
        variables in every generator and minimalizes.
        """
        idx = set()
        for v in variables:
            if v not in self._position:
                raise ValueError(f"{v!r} is not an ambient variable")
            idx.add(self._position[v])
        layout = _Layout(len(self._ambient), _max_exponent(self._rows))
        keep = sum(
            layout.mask << s for i, s in enumerate(layout.shifts) if i not in idx
        )
        return self._with_rows(
            layout.minimal({x & keep for x in layout.pack(self._rows)})
        )

    def with_ambient(self, ambient: Sequence[str]) -> MonomialIdeal:
        """The same generators viewed in a different ambient ring."""
        return MonomialIdeal(ambient, self.generators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self._ambient == other._ambient and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._ambient, self._rows))
        return self._hash

    def __str__(self) -> str:
        return "[" + ", ".join(self.generator_strings()) + "]"

    def __repr__(self) -> str:
        return f"MonomialIdeal({self._ambient!r}, {self.generator_strings()!r})"


def intersect_all(
    ideals: Sequence[MonomialIdeal], *, ambient: Sequence[str] | None = None
) -> MonomialIdeal:
    """Fold a list of ideals with intersect; empty list gives the unit ideal."""
    if not ideals:
        if ambient is None:
            raise ValueError("empty intersection needs an explicit ambient")
        return MonomialIdeal.unit(ambient)
    result = ideals[0]
    for other in ideals[1:]:
        result = result.intersect(other)
    return result
