"""Exact arithmetic for monomial ideals, read from and written as monomial strings.

A monomial has two forms.  Outside this module it is a string such as
"x1*x3^2": variables joined by "*", each with "^e" when its exponent e is
above 1, and "1" for the identity monomial.  Generators, witnesses and
membership queries are such strings, and ``_parse`` is the one reader and
``_format`` the one writer.  Inside an ideal it is a packed exponent row,
below, and all arithmetic is on those rows.

A monomial ideal lives in a fixed ambient polynomial ring, given as an
ordered tuple of variable names, and is always kept in canonical form:
the unique minimal generating set, sorted by total degree and then
lexicographically in the ambient variable order.  Everything is exact
integer arithmetic; there are no coefficients anywhere.

A generator of an ideal is an exponent row, one int per variable in
ambient order, and an ideal stores its rows only packed (the packed
exponent vectors of Monagan and Pearce): each row is one Python int with
one field of W bits per variable, variable 0 in the most significant
field.  A field is ``vbits`` value bits topped by a guard bit that stays
clear in every packed row.  An ideal keeps its rows as the minimalization
that made it left them, with the layout that packed them, so an operation
whose own layout has the same ``vbits`` packs nothing again.  Rows are
unpacked to tuples only when something reads them: the generator
strings, the hash, equality of ideals packed at different widths, and
packing at another width.  The largest exponent is read from the lcm of
all rows, which is folded packed as below and is the one row unpacked.
Only the unpacked rows and the largest exponent are kept once worked out;
the generators, as strings in ambient order, and the hash are built on
each read, and str and repr of an ideal read those strings.

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
The k < 64 rows after the last complete block form one partial block of
k slots, with ``ones``, fill and top masks of k slots too: an empty slot
would hold the zero row, which divides everything, so it must take no
part.  Every row is tested through a block; an ideal of fewer than 64
generators is one partial block.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from operator import lshift


def _check_name(name: object, kind: str) -> None:
    """Reject a name that a monomial string would not read back as itself.

    A name is a string that is not empty, has no outer whitespace, holds no
    "*" or "^", and is not "1", the identity monomial's string.
    """
    if not isinstance(name, str):
        raise TypeError(f"{kind} names must be strings, got {name!r}")
    if not name or name.strip() != name or "*" in name or "^" in name or name == "1":
        raise ValueError(f"{kind} name {name!r} is empty, padded, '1', or holds '*' or '^'")


def _parse(text: str) -> dict[str, int]:
    """The exponents of a monomial string such as "x1*x3^2", by variable name.

    An exponent of 1 may be omitted, "1" is the identity monomial, and an
    exponent is ASCII digits only; whitespace around a factor is ignored.
    """
    if not isinstance(text, str):
        raise TypeError(f"a monomial must be a string such as 'x1*x3^2', got {text!r}")
    text = text.strip()
    if text == "1":
        return {}
    exps: dict[str, int] = {}
    for factor in text.split("*"):
        factor = factor.strip()
        var, sep, exp = factor.partition("^")
        if not var:
            raise ValueError(f"empty factor in monomial string {text!r}")
        _check_name(var, "variable")
        if sep and not (exp.isascii() and exp.isdigit()):
            raise ValueError(f"bad exponent in factor {factor!r}")
        e = int(exp) if sep else 1
        if e < 1:
            raise ValueError(f"exponent must be positive in factor {factor!r}")
        if var in exps:
            raise ValueError(f"repeated variable {var!r} in {text!r}")
        exps[var] = e
    return exps


def _format(ambient: Sequence[str], row: Iterable[int]) -> str:
    """The string of an exponent row: "v" or "v^e" per nonzero field in
    ambient order, joined by "*", and "1" for the zero row."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(ambient, row) if e) or "1"


class _Layout:
    """Packing of n-variable rows whose exponents are at most maxexp."""

    __slots__ = ("vbits", "shifts", "guard", "mask", "modulus", "bits")

    def __init__(self, n: int, maxexp: int):
        vbits = max(n * maxexp, 1).bit_length()
        width = vbits + 1
        self.vbits = vbits
        self.shifts = list(range(width * (n - 1), -width, -width))
        self.mask = (1 << vbits) - 1
        self.modulus = (1 << width) - 1
        self.bits = width * n
        # the low bit of every field, moved up to its guard bit
        self.guard = ((1 << self.bits) - 1) // self.modulus << vbits

    def pack(self, rows: Iterable[tuple[int, ...]]) -> list[int]:
        shifts = self.shifts
        return [sum(map(lshift, row, shifts)) for row in rows]

    def unpack(self, x: int) -> tuple[int, ...]:
        return tuple(map(self.mask.__and__, map(x.__rshift__, self.shifts)))

    def minimal(self, packed: set[int]) -> list[int]:
        """The minimal elements of packed, sorted graded-lex.

        Rows are scanned in graded-lex order, and a row is kept unless a
        kept row of strictly smaller degree divides it; rows of one degree
        cannot divide each other unless they are equal.  The sort key of a
        row x is one int, its degree above ``2**bits - 1 - x``, so it orders
        as ``(degree, -x)``.  The kept rows of smaller degree are searched
        through a _Divisors index, which grows by the rows of each finished
        degree.
        """
        bits, modulus = self.bits, self.modulus
        low = (1 << bits) - 1
        kept: list[int] = []  # kept rows of strictly smaller degree
        current: list[int] = []  # kept rows of the degree being scanned
        smaller = _Divisors(self, [])
        divides = smaller.divides
        limit = -1  # the largest key of the degree being scanned
        for key in sorted([(x % modulus) << bits | (low ^ x) for x in packed]):
            if key > limit:
                limit = key | low
                if current:
                    kept += current
                    smaller.extend(current)
                    current = []
            x = key & low ^ low
            if not kept or not divides(x):
                current.append(x)
        kept += current
        return kept


BLOCK = 64  # rows per block int in a _Divisors index


class _Divisors:
    """Packed rows of one layout, searched for a divisor of a packed row.

    Every complete run of BLOCK rows, in the order the rows came, is one
    block int with one slot of ``layout.bits + 1`` bits per row; ``masks``
    holds its ``ones``, fill and top masks over BLOCK slots.  The k < BLOCK
    rows after the last complete block, the tail, form the partial block
    ``last``, held with the same masks over exactly its k slots; ``extend``
    rebuilds it.
    """

    __slots__ = ("slot", "guard", "slot_fill", "blocks", "masks", "tail", "last")

    def __init__(self, layout: _Layout, rows: list[int]):
        self.slot = slot = layout.bits + 1
        self.guard = layout.guard
        # every bit of a slot but its guard bits and its top bit
        self.slot_fill = (1 << (slot - 1)) - 1 - layout.guard
        self.blocks: list[int] = []
        self.tail: list[int] = []
        self.last = (0, 0, 0, 0)  # no slots, so nothing divides
        if rows:
            self.extend(rows)

    def _masks(self, k: int) -> tuple[int, int, int]:
        """ones, fill and tops over the first k slots."""
        slot = self.slot
        ones = ((1 << (slot * k)) - 1) // ((1 << slot) - 1)
        return ones, ones * self.slot_fill, ones << (slot - 1)

    def extend(self, rows: list[int]) -> None:
        """Add rows after the ones already held."""
        slot = self.slot
        offsets = range(0, slot * BLOCK, slot)
        tail = self.tail + rows
        full = len(tail) - len(tail) % BLOCK
        if full:
            if not self.blocks:
                self.masks = self._masks(BLOCK)
            for start in range(0, full, BLOCK):
                self.blocks.append(sum(map(lshift, tail[start : start + BLOCK], offsets)))
            tail = tail[full:]
        self.tail = tail
        self.last = (sum(map(lshift, tail, offsets)), *self._masks(len(tail)))

    def divides(self, x: int) -> bool:
        """Some held row divides the packed row x."""
        xg = x | self.guard
        last, ones, fill, tops = self.last
        if self.blocks:
            # x in every slot; a slot carries into its top bit iff its row
            # divides x
            bones, bfill, btops = self.masks
            spread = xg * bones
            for block in self.blocks:
                if ((spread - block) | bfill) + bones & btops:
                    return True
        else:
            spread = xg * ones
        # slots of the spread past the partial block's get no mask bit
        return ((spread - last) | fill) + ones & tops != 0


class MonomialIdeal:
    """A monomial ideal in canonical form over a fixed variable order.

    Generators are monomial strings, given as any iterable of them.  They
    are minimalized and sorted on construction, so structural equality of
    two ideals over the same ambient is ideal equality.  The zero ideal has
    no generators; the unit ideal is generated by "1".

    An ideal stores only its packed rows, as minimalization left them, and
    the ``_Layout`` they were packed with; an operation whose layout has
    that width reuses them.  The exponent tuples in ``_rows`` and the
    largest exponent are worked out on first use and kept; the generators
    and the hash are built from ``_rows`` on each read.
    """

    __slots__ = ("_ambient", "_position", "_packed", "_layout", "_tuples", "_max")

    def __init__(
        self,
        ambient: Sequence[str],
        generators: Iterable[str] = (),
    ):
        if isinstance(ambient, str):
            raise TypeError(f"ambient must be a sequence of names, not {ambient!r}")
        if isinstance(generators, str):
            raise TypeError(f"generators must be monomial strings, not the string {generators!r}")
        ambient = tuple(ambient)
        for v in ambient:
            _check_name(v, "variable")
        if len(set(ambient)) != len(ambient):
            raise ValueError("ambient variables must be distinct")
        self._ambient = ambient
        self._position = {v: i for i, v in enumerate(ambient)}
        rows = list(map(self._row, generators))
        layout = _Layout(len(ambient), max(chain.from_iterable(rows), default=0))
        self._keep(layout, layout.minimal(set(layout.pack(rows))))

    @classmethod
    def _pure_powers(cls, ambient: tuple[str, ...], powers: dict[int, int]) -> MonomialIdeal:
        """The ideal generated by x_i^e for each position i and exponent e in powers.

        The ambient names are distinct and the exponents positive; each
        generator is packed as its one field, with no exponent row.  Powers
        of distinct variables never divide one another, so minimalization
        keeps them all and their largest exponent is the ideal's.
        """
        top = max(powers.values(), default=0)
        layout = _Layout(len(ambient), top)
        shifts = layout.shifts
        ideal = cls.__new__(cls)
        ideal._ambient = ambient
        ideal._position = {v: i for i, v in enumerate(ambient)}
        ideal._keep(layout, layout.minimal({e << shifts[i] for i, e in powers.items()}))
        ideal._max = top
        return ideal

    @classmethod
    def zero(cls, ambient: Sequence[str]) -> MonomialIdeal:
        return cls(ambient, ())

    @classmethod
    def unit(cls, ambient: Sequence[str]) -> MonomialIdeal:
        return cls(ambient, ("1",))

    def _keep(self, layout: _Layout, kept: list[int]) -> None:
        """Take the rows that layout.minimal kept, packed by layout."""
        self._packed = kept  # never changed in place
        self._layout = layout
        self._tuples: tuple[tuple[int, ...], ...] | None = None
        self._max: int | None = None

    def _minimal(self, layout: _Layout, packed: set[int]) -> MonomialIdeal:
        """The ideal over this ambient generated by the packed rows."""
        ideal = MonomialIdeal.__new__(MonomialIdeal)
        ideal._ambient = self._ambient
        ideal._position = self._position
        ideal._keep(layout, layout.minimal(packed))
        return ideal

    @property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """The generators' exponent rows in ambient order, unpacked on first use."""
        if self._tuples is None:
            self._tuples = tuple(map(self._layout.unpack, self._packed))
        return self._tuples

    def _maxexp(self) -> int:
        """The largest exponent of any generator, worked out on first use.

        It is the largest field of the lcm of all packed rows, which is
        folded as in ``intersect`` and unpacked alone.
        """
        if self._max is None:
            layout = self._layout
            guard, vbits = layout.guard, layout.vbits
            lcm = 0
            for x in self._packed:
                t = ((x | guard) - lcm) & guard  # guard bits where x's field >= lcm's
                m = t - (t >> vbits)
                lcm = (x & m) | (lcm & ~m)
            self._max = max(layout.unpack(lcm), default=0)
        return self._max

    def _pack(self, layout: _Layout) -> list[int]:
        """The rows packed by layout; the kept packing when its width matches."""
        if layout.vbits == self._layout.vbits:
            return self._packed
        return layout.pack(self._rows)

    def _row(self, text: str) -> tuple[int, ...]:
        row = [0] * len(self._ambient)
        for v, e in _parse(text).items():
            if v not in self._position:
                raise ValueError(f"generator {text} uses {v!r}, not an ambient variable")
            row[self._position[v]] = e
        return tuple(row)

    @property
    def ambient(self) -> tuple[str, ...]:
        return self._ambient

    @property
    def generators(self) -> tuple[str, ...]:
        """The generators as strings such as "x1*x3^2", variables in ambient order."""
        ambient = self._ambient
        return tuple(_format(ambient, row) for row in self._rows)

    @property
    def num_generators(self) -> int:
        """Size of the minimal generating set, without formatting any generator."""
        return len(self._packed)

    @property
    def is_zero(self) -> bool:
        return not self._packed

    @property
    def is_unit(self) -> bool:
        return self._packed == [0]

    def generator_strings(self) -> list[str]:
        """The generators, as a list."""
        return list(self.generators)

    def _require_same_ambient(self, other: MonomialIdeal) -> None:
        if self._ambient != other._ambient:
            raise ValueError(
                f"ambient mismatch: {self._ambient} vs {other._ambient}"
            )

    def _first_outside(self, other: MonomialIdeal) -> int | None:
        """Index of the first generator of other that self does not contain, if any."""
        layout = _Layout(len(self._ambient), max(self._maxexp(), other._maxexp()))
        divides = _Divisors(layout, self._pack(layout)).divides
        for i, x in enumerate(other._pack(layout)):
            if not divides(x):
                return i
        return None

    def contains(self, m: str) -> bool:
        """Membership: some generator divides the monomial string m."""
        exps = _parse(m)
        # variables outside the ambient cannot matter: no generator uses them
        row = [exps.get(v, 0) for v in self._ambient]
        layout = _Layout(len(row), max(self._maxexp(), max(row, default=0)))
        return _Divisors(layout, self._pack(layout)).divides(layout.pack([row])[0])

    def contains_ideal(self, other: MonomialIdeal) -> bool:
        """True iff other is a subideal of self."""
        self._require_same_ambient(other)
        return self._first_outside(other) is None

    def first_generator_outside(self, other: MonomialIdeal) -> str | None:
        """The first generator of self, in canonical order, not in other.

        None when other contains self.  Only the generator returned is
        formatted.
        """
        self._require_same_ambient(other)
        i = other._first_outside(self)
        if i is None:
            return None
        return _format(self._ambient, self._layout.unpack(self._packed[i]))

    def __le__(self, other: MonomialIdeal) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return other.contains_ideal(self)

    def __add__(self, other: MonomialIdeal) -> MonomialIdeal:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        self._require_same_ambient(other)
        layout = _Layout(len(self._ambient), max(self._maxexp(), other._maxexp()))
        return self._minimal(layout, {*self._pack(layout), *other._pack(layout)})

    def __mul__(self, other: MonomialIdeal) -> MonomialIdeal:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        self._require_same_ambient(other)
        # fields must hold the sum of the largest exponents on each side
        layout = _Layout(len(self._ambient), self._maxexp() + other._maxexp())
        theirs = other._pack(layout)
        return self._minimal(layout, {x + y for x in self._pack(layout) for y in theirs})

    def __pow__(self, s: int) -> MonomialIdeal:
        """s-fold product, minimalizing after each step; s=0 gives the unit ideal."""
        if not isinstance(s, int) or isinstance(s, bool) or s < 0:
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
        layout = _Layout(len(self._ambient), max(self._maxexp(), other._maxexp()))
        guard, vbits = layout.guard, layout.vbits
        mine = self._pack(layout)
        theirs = other._pack(layout)
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
        return self._minimal(layout, out)

    def saturate(self, variables: Iterable[str]) -> MonomialIdeal:
        """Saturation with respect to the product of the given variables.

        For monomial ideals this just zeroes out the exponents of those
        variables in every generator and minimalizes.
        """
        if isinstance(variables, str):
            raise TypeError(f"variables must be names, not the string {variables!r}")
        idx = set()
        for v in variables:
            if v not in self._position:
                raise ValueError(f"{v!r} is not an ambient variable")
            idx.add(self._position[v])
        layout = _Layout(len(self._ambient), self._maxexp())
        keep = sum(
            layout.mask << s for i, s in enumerate(layout.shifts) if i not in idx
        )
        return self._minimal(layout, {x & keep for x in self._pack(layout)})

    def with_ambient(self, ambient: Sequence[str]) -> MonomialIdeal:
        """The same generators viewed in a different ambient ring."""
        return MonomialIdeal(ambient, self.generators)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        if self._ambient != other._ambient or len(self._packed) != len(other._packed):
            return False
        if self._layout.vbits == other._layout.vbits:
            return self._packed == other._packed
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._ambient, self._rows))

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
