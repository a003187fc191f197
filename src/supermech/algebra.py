"""Supercommutative polynomial algebra over the rationals.

An expression is a finite sum of terms ``coefficient * even-monomial *
odd-word``.  Even generators commute with everything and carry integer
exponents; odd generators anticommute among themselves and square to zero,
so an odd word is a product of distinct odd generators kept in a fixed
total order.  ``reorder`` is the one rule for putting a graded word in
sort order, collecting the bidegree sign: it sorts the odd generators of a
term read out of an expression (form degree 0) and differentials (form
degree 1) in ``forms``.
``grassmann_coefficients`` applies the same sign to products of the odd
directions of a numeric Grassmann value, without numpy, so that a problem
file's initial data parses without loading the numeric layer.

Coefficients are exact rationals, stored as one ``int`` numerator per term
key over one denominator per expression (the layout of FLINT's
``fmpq_poly``).  In canonical form the denominator is positive, no
numerator is zero, the denominator and the numerators have no common
factor, and zero has denominator 1.  Products, sums, partials and
substitutions run on Python ints and end with one ``math.gcd`` per result,
skipped when the denominator is 1.  ``sum_of_products`` is the one product
routine: it adds every term pair of a sum of signed products straight into
one dict and normalises once per result, the role of the geobucket in Yan,
"The geobucket data structure for polynomials", J. Symb. Comp. 25 (1998);
``*``, ``-`` and ``SuperExpr.sum`` are its cases.  ``from_monomials`` is
the one packer of raw terms: ``SuperExpr(mapping)``, ``normalize``, the
parser and the witness monomials hand it ordered products of powers
``(generator, exponent)``.  Every operation returns
the unique canonical form, so equality is equality of the denominators and
the numerator dicts.

Generators are interned: constructing a ``GeneratorSymbol`` returns the one
instance with those fields, so symbols hash and compare by identity, in C.
A term key is one int with a fixed field per interned generator, allocated
in the order the generators are first built: ``FIELD_BITS`` bits for an
even generator, its exponent under a guard bit, and one bit for an odd one
(the packed exponent vectors of Monagan and Pearce, CASC 2007, as in
FLINT's ``mpoly``, and the bitmap blades of Dorst, Fontijne and Mann,
*Geometric Algebra for Computer Science*, section 19).  Inside an
expression an odd word is read in bit order, so a product of two terms
adds their keys: it is zero when the odd bits overlap, and its sign is
the parity of the crossings of the two words' bits, counted with
``int.bit_count``.  An exponent that reaches a guard bit raises
``ExponentTooLarge``; no carry passes silently into the next field.  Keys
are decoded only at the boundary, once per key by ``_unpack``, which also
writes the monomial's text: ``items()`` and the constructor
``SuperExpr(mapping)`` take and return ``(even-monomial, odd-word)`` keys
in sort order, with ``Fraction`` coefficients reduced term by term, and
pickling goes through that mapping.  The printers (``str`` here and in
``forms``, the LaTeX writer of ``cli``) read ``printed_terms``: the cached
text of each key and its coefficient as two ints, reduced by one gcd with
the denominator, with no ``Fraction``.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union


class Parity(Enum):
    EVEN = 0
    ODD = 1

    def __str__(self) -> str:
        return "even" if self is Parity.EVEN else "odd"


def parity_product(*parities: Parity) -> Parity:
    odd = False
    for parity in parities:
        odd ^= parity is Parity.ODD
    return Parity.ODD if odd else Parity.EVEN


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class UndeclaredGenerator(AlgebraError):
    pass


class MixedParity(AlgebraError):
    pass


class ZeroExpression(AlgebraError):
    pass


class ParityMismatch(AlgebraError):
    pass


class CoefficientTooLarge(AlgebraError):
    """A coefficient has more digits than the interpreter converts to text."""


class ExponentTooLarge(AlgebraError):
    """An exponent does not fit the field of its generator in a term key."""


def coefficient_text(numerator: int, denominator: int = 1) -> str:
    """The text of a reduced ratio of ints, ``str(Fraction(numerator,
    denominator))`` with no ``Fraction``: ``p`` or ``p/q``.  Raises
    ``CoefficientTooLarge`` past the interpreter's digit limit
    (``sys.get_int_max_str_digits``, 4300 by default) instead of its
    ``ValueError``."""
    try:
        return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    except ValueError:
        raise CoefficientTooLarge(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer"
        ) from None


def signed_sum(terms: Iterable[str]) -> str:
    """Write a sum of signed terms: the first as it is, then `` - x`` for a
    term ``-x`` and `` + x`` for any other; ``0`` when there is none.  The
    text, LaTeX and problem-file printers all write their sums here."""
    chunks: list[str] = []
    for text in terms:
        if not chunks:
            chunks.append(text)
        elif text.startswith("-"):
            chunks.append(f" - {text[1:]}")
        else:
            chunks.append(f" + {text}")
    return "".join(chunks) or "0"


def scaled(coeff: str, body: str, separator: str) -> str:
    """One term of a sum, a written coefficient times a written body: a
    coefficient ``1`` is dropped, ``-1`` becomes a sign, and a coefficient
    with no body is written alone."""
    if not body:
        return coeff
    if coeff == "1":
        return body
    if coeff == "-1":
        return f"-{body}"
    return f"{coeff}{separator}{body}"


def koszul(expr: "SuperExpr", odd: int) -> "SuperExpr":
    """``expr`` after an object of parity ``odd`` (0 or 1) moves past it
    (the Koszul rule): unchanged when ``odd`` is 0, and with its odd part
    negated, the grade involution, when ``odd`` is 1.  Every sign of
    moving past an expression is decided here."""
    if not odd:
        return expr
    bits = _ODD
    return _raw({key: -n if (key & bits).bit_count() & 1 else n for key, n in expr._nums.items()}, expr._den)


def reorder(letters: Iterable[GeneratorSymbol], degree: int) -> tuple[int, tuple[GeneratorSymbol, ...]] | None:
    """Sort letters of form degree ``degree`` (0 for odd generators, 1 for
    differentials) by ``sort_key`` under the bidegree rule: each swap of a
    and b multiplies the sign by ``(-1)^(degree + |a||b|)``.  Returns
    ``(sign, word)``, or ``None`` when a letter with ``degree + |a|`` odd
    repeats (it squares to zero)."""
    word = list(letters)
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j].sort_key < word[j - 1].sort_key:
            a, b = word[j - 1], word[j]
            # sort_key[0] is the parity's value
            if (degree + a.sort_key[0] * b.sort_key[0]) % 2:
                sign = -sign
            word[j - 1], word[j] = b, a
            j -= 1
    for a, b in zip(word, word[1:]):
        if a is b and (degree + a.sort_key[0]) % 2:
            return None
    return sign, tuple(word)


def grassmann_coefficients(terms: Iterable[tuple[float, Sequence[int]]], directions: int) -> list[float]:
    """The float coefficients, one per subset bitmask of ``directions``
    odd directions, of a sum of (coefficient, direction indices) terms: a
    repeated index kills its term, each crossing of two indices flips its
    sign, and each coefficient sums from ``0.0`` in term order.  A sum out
    of floating-point range is left for the caller to check; an index out
    of range raises ``IndexError``."""
    coeffs = [0.0] * (1 << directions)
    for value, indices in terms:
        mask, sign = 0, 1.0
        for index in indices:
            if not 0 <= index < directions:
                raise IndexError(f"direction index {index} out of range")
            if (mask >> (index + 1)).bit_count() % 2:
                sign = -sign
            if mask >> index & 1:
                sign = 0.0
            mask |= 1 << index
        if sign:
            coeffs[mask] += sign * float(value)
    return coeffs


class GeneratorSymbol:
    """A single jet coordinate, e.g. the first derivative of q.

    ``base_index`` numbers the coordinate within its parity class and
    ``jet_order`` is the derivative subscript.  Symbols are immutable value
    objects, and interned: the constructor returns the one instance per
    ``(name, parity, base_index, jet_order)``, so equal symbols are the same
    object and hashing and equality are object identity.  Charts of
    different jet orders share them.  ``sort_key`` is computed once, here:
    odd generators sort after even ones, and within a class the order is
    lexicographic on ``(base_index, jet_order)``.  The intern table keeps
    every symbol ever built, one per distinct coordinate, and each symbol
    keeps its field of a packed term key: ``offset`` is its lowest bit and
    ``unit`` the key of the generator alone.
    """

    __slots__ = ("name", "parity", "base_index", "jet_order", "sort_key", "offset", "unit")

    def __new__(cls, name: str, parity: Parity, base_index: int, jet_order: int) -> "GeneratorSymbol":
        key = (name, parity, base_index, jet_order)
        try:
            return _INTERNED[key]
        except KeyError:
            pass
        global _ODD, _GUARDS
        self = super().__new__(cls)
        offset = len(_OWNER)
        values = (*key, (parity.value, base_index, jet_order), offset, 1 << offset)
        for attr, value in zip(cls.__slots__, values):
            object.__setattr__(self, attr, value)
        if parity is Parity.ODD:
            _OWNER.append(self)
            _ODD |= self.unit
        else:
            _OWNER.extend([self] * FIELD_BITS)
            _GUARDS |= self.unit << (FIELD_BITS - 1)
        _INTERNED[key] = self
        return self

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"GeneratorSymbol is immutable; cannot set {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"GeneratorSymbol is immutable; cannot delete {attr!r}")

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, which returns
        # the interned instance
        return (GeneratorSymbol, (self.name, self.parity, self.base_index, self.jet_order))

    def shifted(self, amount: int = 1) -> "GeneratorSymbol":
        if self.jet_order + amount < 0:
            raise ValueError(f"negative jet order for {self}")
        return GeneratorSymbol(self.name, self.parity, self.base_index, self.jet_order + amount)

    def __str__(self) -> str:
        return f"{self.name}[{self.jet_order}]"

    def __repr__(self) -> str:
        return (
            f"GeneratorSymbol(name={self.name!r}, parity={self.parity!r}, "
            f"base_index={self.base_index!r}, jet_order={self.jet_order!r})"
        )


_INTERNED: dict[tuple[str, Parity, int, int], GeneratorSymbol] = {}

# The field of an even generator in a packed term key: an exponent of up to
# MAX_TERM_EXPONENT under a guard bit, which a carry out of the exponent sets.
FIELD_BITS = 32
MAX_TERM_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1
# the generator that owns each bit of a packed key, a field per generator in
# the order they were interned
_OWNER: list[GeneratorSymbol] = []
# the bits of the odd generators, and the guard bits of the even ones
_ODD = 0
_GUARDS = 0
# how many decoded keys are kept: the terms of a run's expressions share
# few distinct keys, so a small table answers most decodes
_DECODED = 4096

EvenMonomial = tuple[tuple[GeneratorSymbol, int], ...]
OddWord = tuple[GeneratorSymbol, ...]
# a term key as ``items()`` gives it and ``SuperExpr(mapping)`` takes it
TermKey = tuple[EvenMonomial, OddWord]

Scalar = Union[int, Fraction]
RawTerm = tuple[Scalar, Sequence[GeneratorSymbol]]


@lru_cache(maxsize=_DECODED)
def _factors(key: int) -> tuple[tuple[GeneratorSymbol, int], ...]:
    """The factors ``(generator, exponent)`` of a packed key in bit order,
    read from the lowest set bit up; an odd factor has exponent 1."""
    out = []
    while key:
        g = _OWNER[(key & -key).bit_length() - 1]
        e = 1 if g.sort_key[0] else key >> g.offset & _FIELD
        key -= e * g.unit
        out.append((g, e))
    return tuple(out)


@lru_cache(maxsize=_DECODED)
def _top_order(key: int) -> int:
    """The largest jet order of a factor of a packed key; -1 for none."""
    return max((g.jet_order for g, _ in _factors(key)), default=-1)


def _degree(key: int) -> int:
    """The total degree of a packed key, odd factors counted once."""
    return sum(e for _, e in _factors(key))


def _crossings(left: int, right: int) -> int:
    """How many pairs of a bit of ``left`` and a lower bit of ``right``
    there are: the swaps that put the odd word ``left`` followed by the
    disjoint word ``right`` in bit order."""
    count = 0
    while right:
        bit = right & -right
        count += (left & -bit).bit_count()
        right ^= bit
    return count


def _too_large(key: int) -> ExponentTooLarge:
    """The error for a key with a guard bit set."""
    g = _OWNER[(key & _GUARDS).bit_length() - 1]
    return ExponentTooLarge(
        f"an exponent of {g} exceeds {MAX_TERM_EXPONENT}, the largest a term can hold"
    )


def _pack(factors: Iterable[tuple[GeneratorSymbol, int]]) -> tuple[int, int] | None:
    """``(sign, key)`` of an ordered product of factors ``g^e``, or None
    when it is zero (an odd factor repeats or has an exponent above 1).
    Each factor adds its units to the key, and an odd one crosses the odd
    factors before it whose bits lie above its own, a sign each.  The
    guard bits are checked after each factor: a field below its guard bit
    takes an exponent of at most ``MAX_TERM_EXPONENT`` with no carry out,
    so a generator may repeat."""
    key = mask = swaps = 0
    for g, e in factors:
        if e < 1:
            raise ValueError(f"the exponent {e} of {g} is not positive")
        if g.sort_key[0]:
            if e > 1 or mask & g.unit:
                return None
            swaps += (mask & -g.unit).bit_count()
            mask |= g.unit
        elif e > MAX_TERM_EXPONENT:
            raise ExponentTooLarge(
                f"the exponent {e} of {g} exceeds {MAX_TERM_EXPONENT}, the largest a term can hold"
            )
        key += e * g.unit
        if key & _GUARDS:
            raise _too_large(key)
    return -1 if swaps & 1 else 1, key


@lru_cache(maxsize=_DECODED)
def _unpack(key: int) -> tuple[tuple, int, TermKey, str]:
    """``(sort key, sign, (even-monomial, odd-word), text)`` of a packed
    key, both parts in sort order: the sort key orders the terms of
    ``items()`` and the printers, the sign puts the odd word from bit order
    in sort order, and the text is the monomial as ``str`` writes it
    (``x0[1]^2*th0[0]``, empty for the constant key)."""
    even = []
    odd = []
    for g, e in _factors(key):
        if g.sort_key[0]:
            odd.append(g)
        else:
            even.append((g, e))
    even.sort(key=lambda item: item[0].sort_key)
    sign, word = reorder(odd, 0) if len(odd) > 1 else (1, tuple(odd))
    order = (tuple((g.sort_key, e) for g, e in even), tuple(g.sort_key for g in word))
    text = "*".join([*(f"{g}^{e}" if e > 1 else str(g) for g, e in even), *map(str, word)])
    return order, sign, (tuple(even), word), text


class SuperExpr:
    """A canonical supercommutative polynomial: integer numerators by packed
    term key over one positive denominator with no factor common to all of
    them (``1`` for zero).  ``SuperExpr(mapping)`` takes ``Fraction`` (or
    int) coefficients by ``(even-monomial, odd-word)`` key, each an ordered
    product, and sums them in ``from_monomials``."""

    __slots__ = ("_nums", "_den", "_hash")

    def __init__(self, terms: Mapping[TermKey, Scalar] | None = None):
        expr = from_monomials(
            (c.numerator, c.denominator, [*even, *((g, 1) for g in odd)])
            for (even, odd), c in (terms or {}).items()
        )
        self._nums, self._den, self._hash = expr._nums, expr._den, None

    def __reduce__(self):
        # the packed keys depend on the order generators were interned, so
        # pickle and deepcopy go through the public mapping
        return (SuperExpr, (dict(self.items()),))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SuperExpr":
        return _raw({})

    @staticmethod
    def constant(value: Scalar, denominator: int = 1) -> "SuperExpr":
        """The constant ``value / denominator``, the denominator a positive
        int."""
        if type(value) is not int:
            value = Fraction(value)
            value, denominator = value.numerator, value.denominator * denominator
        return _reduced({0: value}, denominator) if value else _raw({})

    @staticmethod
    def generator(gen: GeneratorSymbol) -> "SuperExpr":
        return _raw({gen.unit: 1})

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[TermKey, Fraction]]:
        """The terms, sorted, each coefficient a reduced ``Fraction``."""
        den = self._den
        return [(term, Fraction(sign * n, den)) for (_, sign, term, _), n in _decoded(self)]

    def numerators(self) -> tuple[Mapping[int, int], int]:
        """The integer numerators by packed term key, unsorted and
        read-only, and the one denominator they share."""
        return MappingProxyType(self._nums), self._den

    def is_zero(self) -> bool:
        return not self._nums

    def generators(self) -> set[GeneratorSymbol]:
        # a field of the union of the keys is nonzero where a term has it
        return {g for g, _ in _factors(reduce(or_, self._nums, 0))}

    def max_jet_order(self) -> int:
        """Largest derivative subscript present; -1 for constants."""
        return _top_order(reduce(or_, self._nums, 0))

    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get(0, 0), self._den)

    def total_degree(self) -> int:
        """Largest total degree of a term (odd factors count once each)."""
        return max(map(_degree, self._nums), default=0)

    def body(self) -> "SuperExpr":
        """The terms free of odd generators."""
        odd = _ODD
        return _reduced({key: n for key, n in self._nums.items() if not key & odd}, self._den)

    @staticmethod
    def sum(exprs: Iterable["SuperExpr"]) -> "SuperExpr":
        """Add many expressions: each is a product with the unit in
        ``sum_of_products``."""
        return sum_of_products((1, expr, _ONE) for expr in exprs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return SuperExpr.sum((self, _coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "SuperExpr":
        return _raw({key: -n for key, n in self._nums.items()}, self._den)

    def __sub__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return sum_of_products(((1, self, _ONE), (-1, _coerce(other), _ONE)))

    def __rsub__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return _coerce(other) - self

    def __mul__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return sum_of_products(((1, self, _coerce(other)),))

    def __rmul__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return _coerce(other) * self

    def __truediv__(self, other: Scalar) -> "SuperExpr":
        if not isinstance(other, (int, Fraction)):
            other = Fraction(other)
        p, q = other.numerator, other.denominator
        if not p:
            raise ZeroDivisionError("division of a SuperExpr by zero")
        # divide by |p/q| and move the sign of p onto the numerators
        if p < 0:
            p, q = -p, -q
        nums = self._nums if q == 1 else {key: n * q for key, n in self._nums.items()}
        return _reduced(nums, self._den * p)

    def __pow__(self, exponent: int) -> "SuperExpr":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponents must be non-negative integers")
        if exponent == 0:
            return SuperExpr.constant(1)
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SuperExpr.constant(other)
        if not isinstance(other, SuperExpr):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        # a constant (or zero) equals its Fraction, so it hashes as one
        if self._hash is None:
            nums = self._nums
            self._hash = (
                hash(self.constant_term()) if nums.keys() <= {0} else hash((frozenset(nums.items()), self._den))
            )
        return self._hash

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum(
            scaled(coefficient_text(n, d), text, "*") for _, text, n, d in printed_terms(self)
        )

    def __repr__(self) -> str:
        return f"SuperExpr({self})"


def _raw(nums: dict[int, int], den: int = 1) -> SuperExpr:
    """The internal constructor: ``nums`` and ``den`` already canonical."""
    expr = object.__new__(SuperExpr)
    expr._nums = nums
    expr._den = den
    expr._hash = None
    return expr


def _reduced(nums: dict[int, int], den: int) -> SuperExpr:
    """Canonical form of nonzero numerators over a positive denominator:
    one gcd, skipped when ``den`` is 1 (zero ends with ``den`` 1)."""
    if den != 1:
        common = math.gcd(den, *nums.values())
        if common != 1:
            den //= common
            nums = {key: n // common for key, n in nums.items()}
    return _raw(nums, den)


# the unit, a one-term constant operand of ``sum_of_products``; the key of
# a constant term is 0
_ONE = _raw({0: 1})


def sum_of_products(triples: Iterable[tuple[int, SuperExpr, SuperExpr]]) -> SuperExpr:
    """The canonical sum of ``weight * left * right`` over ``(weight, left,
    right)`` triples, each weight a nonzero int (a sign at most callers):
    the one product routine.  ``*`` is its one-triple case, ``-`` a sum of
    two signed products with the unit, and ``SuperExpr.sum`` one product
    with the unit per part.  Every term pair adds straight into one
    numerator dict over a common denominator widened as in
    ``from_monomials``, a one-term constant operand scales the other, and
    one gcd ends the sum.  The key of a term pair is the sum of its keys,
    signed by the crossings of the two odd words."""
    out: dict[int, int] = {}
    get = out.get
    den = 1
    for weight, a, b in triples:
        left, right = a._nums, b._nums
        if not left or not right:
            continue
        d = a._den * b._den
        if not out:
            # an empty sum takes any denominator
            den = d
        elif d != den:
            lcm = den // math.gcd(den, d) * d
            if lcm != den:
                scale = lcm // den
                out = {key: n * scale for key, n in out.items()}
                get = out.get
                den = lcm
            weight *= den // d
        if len(left) == 1 and 0 in left:
            left, right = right, left
        if len(right) == 1 and 0 in right:
            weight *= right[0]
            if not out:
                out = dict(left) if weight == 1 else {key: n * weight for key, n in left.items()}
                get = out.get
                continue
            for key, n in left.items():
                acc = get(key, 0) + n * weight
                if acc:
                    out[key] = acc
                else:
                    del out[key]
            continue
        # read per product: a lazy iterable of triples may intern generators
        odd, guards = _ODD, _GUARDS
        # every numerator is nonzero, so a sum cancels only on a key present
        for k1, n1 in left.items():
            n1 *= weight
            o1 = k1 & odd
            for k2, n2 in right.items():
                if o1:
                    o2 = k2 & odd
                    if o1 & o2:
                        continue
                    if o2 and _crossings(o1, o2) & 1:
                        n2 = -n2
                key = k1 + k2
                if key & guards:
                    raise _too_large(key)
                acc = get(key, 0) + n1 * n2
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return _reduced(out, den)


def _decoded(expr: SuperExpr) -> list[tuple[tuple[tuple, int, TermKey, str], int]]:
    """The terms as ``(_unpack(key), numerator)``, in sort order."""
    nums = expr._nums
    return sorted(zip(map(_unpack, nums), nums.values()), key=_by_order)


def _by_order(term: tuple[tuple[tuple, int, TermKey, str], int]) -> tuple:
    return term[0][0]


def printed_terms(expr: SuperExpr) -> list[tuple[TermKey, str, int, int]]:
    """The terms in sort order as ``(key, monomial text, numerator,
    denominator)``, each coefficient reduced on its own by one gcd of its
    numerator with the expression's denominator: what the text and LaTeX
    printers read, with no ``Fraction``."""
    den = expr._den
    out = []
    for (_, sign, term, text), n in _decoded(expr):
        common = math.gcd(n, den)
        out.append((term, text, sign * n // common, den // common))
    return out


def _coerce(value: "SuperExpr | Scalar") -> SuperExpr:
    if isinstance(value, SuperExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return SuperExpr.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a SuperExpr")


def normalize(raw: Iterable[RawTerm], declared: Iterable[GeneratorSymbol] | None = None) -> SuperExpr:
    """Build a canonical expression from raw ``(coefficient, factors)`` terms.

    Factors may appear in any order and evens may repeat; odd factors are
    sorted with the permutation sign and a repeated odd factor kills the
    term.  When ``declared`` is given, every factor must belong to it.
    """
    allowed = set(declared) if declared is not None else None

    def monomials():
        for coeff, factors in raw:
            if allowed is not None:
                for gen in factors:
                    if gen not in allowed:
                        raise UndeclaredGenerator(f"generator {gen} is not declared")
            coeff = Fraction(coeff)
            yield coeff.numerator, coeff.denominator, [(gen, 1) for gen in factors]

    return from_monomials(monomials())


def from_monomials(terms: Iterable[tuple[int, int, Iterable[tuple[GeneratorSymbol, int]]]]) -> SuperExpr:
    """The canonical sum of monomials ``numerator / denominator * factors``,
    each denominator positive and each factor list an ordered product of
    powers ``(generator, exponent)``, a generator free to repeat: the one
    packer of raw terms.  Each monomial is packed by ``_pack`` (an odd
    power above 1 or a repeated odd factor kills it), and the sum runs on
    integer numerators over the least common denominator, with one gcd."""
    nums: dict[int, int] = {}
    get = nums.get
    den = 1
    for num, d, factors in terms:
        packed = _pack(factors) if num else None
        if packed is None:
            continue
        sign, key = packed
        num *= sign
        if d != den:
            # widen the common denominator to the least common multiple
            lcm = den // math.gcd(den, d) * d
            if lcm != den:
                scale = lcm // den
                nums = {k: n * scale for k, n in nums.items()}
                get = nums.get
                den = lcm
            num *= den // d
        # as in ``sum_of_products``, a sum cancels only on a key present
        acc = get(key, 0) + num
        if acc:
            nums[key] = acc
        else:
            del nums[key]
    return _reduced(nums, den)


def parity_of(expr: SuperExpr) -> Parity:
    """Parity of a homogeneous expression.

    Raises ``ZeroExpression`` for 0 (any parity) and ``MixedParity`` when
    terms of both parities are present.
    """
    if expr.is_zero():
        raise ZeroExpression("the zero expression has no definite parity")
    odd = _ODD
    keys = iter(expr._nums)
    first = (next(keys) & odd).bit_count() & 1
    for key in keys:
        if (key & odd).bit_count() & 1 != first:
            raise MixedParity(f"expression {expr} mixes parities")
    return Parity.ODD if first else Parity.EVEN


def has_parity(expr: SuperExpr, parity: Parity) -> bool:
    """True when the expression is zero or homogeneous of the given parity."""
    if expr.is_zero():
        return True
    try:
        return parity_of(expr) is parity
    except MixedParity:
        return False


def partials(expr: SuperExpr) -> dict[GeneratorSymbol, SuperExpr]:
    """Every nonzero left partial derivative, keyed by generator, from one
    pass over the terms: the keys are exactly ``expr.generators()``.

    Each term's factors are read from its lowest bit up.  An even factor
    ``g^e`` gives ``e`` times the term with one ``g`` fewer; an odd factor
    is moved to the front of its word past the odd factors read before it,
    one sign each, and then removed.
    """
    # distinct terms keep distinct keys under one partial, so nothing cancels
    parts: dict[GeneratorSymbol, dict[int, int]] = {}
    for key, n in expr._nums.items():
        below = 0
        for g, e in _factors(key):
            if g.sort_key[0]:
                c = -n if below & 1 else n
                below += 1
            else:
                c = n * e
            part = parts.get(g)
            if part is None:
                part = parts[g] = {}
            part[key - g.unit] = c
    den = expr._den
    return {g: _reduced(nums, den) for g, nums in parts.items()}


def left_partial(expr: SuperExpr, gen: GeneratorSymbol) -> SuperExpr:
    """Left partial derivative with respect to a generator: its entry in
    ``partials``."""
    return partials(expr).get(gen) or SuperExpr.zero()


def shift_derivative(expr: SuperExpr) -> SuperExpr:
    """The total time derivative (``jets.total_derivative``), one jet order
    above its argument: the sum over generators g of ``g' * d(expr)/dg``,
    left partials, with g' the generator one jet order up.

    Each factor g of a term becomes g' in place: the key loses g's unit and
    gains g''s.  An odd g' moves from g's bit to its own past the odd bits
    between the two, one sign each (the Koszul sign of the partial cancels
    the one of moving g' to the front), and a word that already holds g'
    loses the term.  No product is formed."""
    nums: dict[int, int] = {}
    get = nums.get
    steps = _STEPS
    # one step up reaches a guard bit only from a field of 2^30 or more
    checked = reduce(or_, expr._nums, 0) & _GUARDS >> 1
    # as in ``sum_of_products``, different terms reach one key and a sum
    # cancels only on a key present
    for key, n in expr._nums.items():
        for g, e in _factors(key):
            delta, up, between = steps.get(g) or steps.setdefault(g, _step(g))
            if g.sort_key[0]:
                if key & up:
                    continue
                c = -n if (key & between).bit_count() & 1 else n
            else:
                c = n * e
            new = key + delta
            if checked and new & _GUARDS:
                raise _too_large(new)
            acc = get(new, 0) + c
            if acc:
                nums[new] = acc
            else:
                del nums[new]
    return _reduced(nums, expr._den)


def _step(g: GeneratorSymbol) -> tuple[int, int, int]:
    """For ``shift_derivative``: the change of a key when g becomes g', the
    unit of g' and the odd bits strictly between g and g'.  Kept in
    ``_STEPS``, one entry per generator: no bit is allocated between two
    that exist, so the entry stays true."""
    up = g.shifted().unit
    low, high = sorted((g.unit, up))
    return up - g.unit, up, (high - 2 * low) & _ODD


_STEPS: dict[GeneratorSymbol, tuple[int, int, int]] = {}


def substitute(expr: SuperExpr, assignment: Mapping[GeneratorSymbol, SuperExpr | Scalar]) -> SuperExpr:
    """Simultaneous substitution of generators by expressions.

    Each assigned value must be homogeneous of the generator's parity
    (zero always passes); the substitution is then an algebra map and the
    Koszul bookkeeping is inherited from multiplication.  A term with no
    assigned factor is kept as it is, with no product; the others multiply
    out all but their last factor, read in bit order, and that one into one
    ``sum_of_products``.
    """
    values: dict[GeneratorSymbol, SuperExpr] = {}
    fields = 0
    for gen, value in assignment.items():
        value = _coerce(value)
        if not has_parity(value, gen.parity):
            raise ParityMismatch(f"value {value} assigned to {gen} is not {gen.parity}")
        values[gen] = value
        fields |= gen.unit if gen.sort_key[0] else gen.unit * _FIELD
    kept: dict[int, int] = {}
    triples = []
    for key, n in expr._nums.items():
        if not key & fields:
            kept[key] = n
            continue
        factors = [values[gen] ** e if gen in values else _raw({e * gen.unit: 1}) for gen, e in _factors(key)]
        *head, last = factors
        triples.append((n, math.prod(head[1:], start=head[0]) if head else _ONE, last))
    if not triples:
        return expr
    total = sum_of_products([(1, _raw(kept), _ONE), *triples])
    return _reduced(total._nums, total._den * expr._den)


def divide_by_degree(expr: SuperExpr) -> SuperExpr:
    """Each term divided by its total degree (odd factors count once each),
    read from its key: the numerators over one common multiple of the
    degrees.  Raises ``ZeroDivisionError`` on a constant term."""
    degrees = {key: _degree(key) for key in expr._nums}
    if 0 in degrees.values():
        raise ZeroDivisionError("a constant term has degree 0")
    common = math.lcm(*degrees.values())
    return _reduced({key: n * (common // degrees[key]) for key, n in expr._nums.items()}, expr._den * common)
