"""Supercommutative polynomial algebra over the rationals.

An expression is a finite sum of terms ``coefficient * even-monomial *
odd-word``.  Even generators commute with everything and carry integer
exponents; odd generators anticommute among themselves and square to zero,
so an odd word is a product of distinct odd generators kept in a fixed
total order.  ``reorder`` is the one rule for putting a graded word in
that order, collecting the bidegree sign: it sorts odd generators (form
degree 0) here, the joined words of each term pair of a product and the
factors of each monomial alike, and differentials (form degree 1) in
``forms``.
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
``*``, ``-`` and ``SuperExpr.sum`` are its cases.  Every operation returns
the unique canonical form, so equality is equality of the denominators and
the numerator dicts.  ``items()``, ``constant_term()`` and the constructor
``SuperExpr(mapping)`` still take and return ``Fraction`` coefficients,
reduced term by term.

Generators are interned: constructing a ``GeneratorSymbol`` returns the one
instance with those fields, so symbols hash and compare by identity, in C.
Term keys are nested tuples of symbols that every dictionary operation
rehashes, which makes this the cost under every sum, product and partial.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
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


def coefficient_text(value: int | Fraction) -> str:
    """``str(value)`` for an exact coefficient, numerator or denominator;
    raises ``CoefficientTooLarge`` past the interpreter's digit limit
    (``sys.get_int_max_str_digits``, 4300 by default) instead of its
    ``ValueError``."""
    try:
        return str(value)
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
    return _raw({key: -n if len(key[1]) % 2 else n for key, n in expr._nums.items()}, expr._den)


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
    every symbol ever built, one per distinct coordinate.
    """

    __slots__ = ("name", "parity", "base_index", "jet_order", "sort_key")

    def __new__(cls, name: str, parity: Parity, base_index: int, jet_order: int) -> "GeneratorSymbol":
        key = (name, parity, base_index, jet_order)
        try:
            return _INTERNED[key]
        except KeyError:
            pass
        self = super().__new__(cls)
        values = (*key, (parity.value, base_index, jet_order))
        for attr, value in zip(cls.__slots__, values):
            object.__setattr__(self, attr, value)
        return _INTERNED.setdefault(key, self)

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


EvenMonomial = tuple[tuple[GeneratorSymbol, int], ...]
OddWord = tuple[GeneratorSymbol, ...]
TermKey = tuple[EvenMonomial, OddWord]
# the key of the constant term
_UNIT: TermKey = ((), ())

Scalar = Union[int, Fraction]
RawTerm = tuple[Scalar, Sequence[GeneratorSymbol]]


def _merge_even(left: EvenMonomial, right: EvenMonomial) -> EvenMonomial:
    """Multiply two canonical even monomials, adding the exponents of a
    shared generator."""
    if not left or not right:
        return left or right
    out: list[tuple[GeneratorSymbol, int]] = []
    i = j = 0
    while i < len(left) and j < len(right):
        (a, ea), (b, eb) = left[i], right[j]
        if a is b:
            out.append((a, ea + eb))
            i += 1
            j += 1
        elif a.sort_key < b.sort_key:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return tuple(out)


class SuperExpr:
    """A canonical supercommutative polynomial: integer numerators by term
    key over one positive denominator with no factor common to all of them
    (``1`` for zero).  ``SuperExpr(mapping)`` takes ``Fraction`` (or int)
    coefficients by term key."""

    __slots__ = ("_nums", "_den", "_hash")

    def __init__(self, terms: Mapping[TermKey, Scalar] | None = None):
        coeffs = {key: c for key, c in (terms or {}).items() if c}
        # the least common multiple of reduced denominators leaves no common
        # factor, so the result is canonical without a gcd
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._nums = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self._den = den
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SuperExpr":
        return _raw({})

    @staticmethod
    def constant(value: Scalar) -> "SuperExpr":
        value = Fraction(value)
        return _raw({_UNIT: value.numerator} if value else {}, value.denominator)

    @staticmethod
    def generator(gen: GeneratorSymbol) -> "SuperExpr":
        if gen.parity is Parity.EVEN:
            return _raw({(((gen, 1),), ()): 1})
        return _raw({((), (gen,)): 1})

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[TermKey, Fraction]]:
        """The terms, sorted, each coefficient a reduced ``Fraction``."""
        den = self._den
        return sorted(
            ((key, Fraction(n, den)) for key, n in self._nums.items()),
            key=lambda it: _term_sort_key(it[0]),
        )

    def numerators(self) -> tuple[Mapping[TermKey, int], int]:
        """The integer numerators by term key, unsorted and read-only, and
        the one denominator they share."""
        return MappingProxyType(self._nums), self._den

    def is_zero(self) -> bool:
        return not self._nums

    def generators(self) -> set[GeneratorSymbol]:
        out: set[GeneratorSymbol] = set()
        for (even, odd) in self._nums:
            out.update(g for g, _ in even)
            out.update(odd)
        return out

    def max_jet_order(self) -> int:
        """Largest derivative subscript present; -1 for constants."""
        top = -1
        for even, odd in self._nums:
            for g, _ in even:
                if g.jet_order > top:
                    top = g.jet_order
            for g in odd:
                if g.jet_order > top:
                    top = g.jet_order
        return top

    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get(_UNIT, 0), self._den)

    def total_degree(self) -> int:
        """Largest total degree of a term (odd factors count once each)."""
        deg = 0
        for (even, odd) in self._nums:
            deg = max(deg, sum(e for _, e in even) + len(odd))
        return deg

    def parity_split(self) -> tuple["SuperExpr", "SuperExpr"]:
        """Split into the even-parity and odd-parity parts."""
        even_nums: dict[TermKey, int] = {}
        odd_nums: dict[TermKey, int] = {}
        for key, n in self._nums.items():
            (odd_nums if len(key[1]) % 2 else even_nums)[key] = n
        return _reduced(even_nums, self._den), _reduced(odd_nums, self._den)

    def body(self) -> "SuperExpr":
        """The terms free of odd generators."""
        return _reduced({key: n for key, n in self._nums.items() if not key[1]}, self._den)

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
        other = Fraction(other)
        if other == 0:
            raise ZeroDivisionError("division of a SuperExpr by zero")
        # divide by |p/q| and move the sign of p onto the numerators
        scale = other.denominator if other > 0 else -other.denominator
        nums = {key: n * scale for key, n in self._nums.items()}
        return _reduced(nums, self._den * abs(other.numerator))

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
        if self._hash is None:
            self._hash = hash((frozenset(self._nums.items()), self._den))
        return self._hash

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum(
            scaled(coefficient_text(coeff), _format_monomial(key), "*")
            for key, coeff in self.items()
        )

    def __repr__(self) -> str:
        return f"SuperExpr({self})"


def _raw(nums: dict[TermKey, int], den: int = 1) -> SuperExpr:
    """The internal constructor: ``nums`` and ``den`` already canonical."""
    expr = object.__new__(SuperExpr)
    expr._nums = nums
    expr._den = den
    expr._hash = None
    return expr


def _reduced(nums: dict[TermKey, int], den: int) -> SuperExpr:
    """Canonical form of nonzero numerators over a positive denominator:
    one gcd, skipped when ``den`` is 1 (zero ends with ``den`` 1)."""
    if den != 1:
        common = math.gcd(den, *nums.values())
        if common != 1:
            den //= common
            nums = {key: n // common for key, n in nums.items()}
    return _raw(nums, den)


# the unit, a one-term constant operand of ``sum_of_products``
_ONE = _raw({_UNIT: 1})


def sum_of_products(triples: Iterable[tuple[int, SuperExpr, SuperExpr]]) -> SuperExpr:
    """The canonical sum of ``weight * left * right`` over ``(weight, left,
    right)`` triples, each weight a nonzero int (a sign at most callers):
    the one product routine.  ``*`` is its one-triple case, ``-`` a sum of
    two signed products with the unit, and ``SuperExpr.sum`` one product
    with the unit per part.  Every term pair adds straight into one
    numerator dict over a common denominator widened as in
    ``from_monomials``, a one-term constant operand scales the other, and
    one gcd ends the sum."""
    out: dict[TermKey, int] = {}
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
        if len(left) == 1 and _UNIT in left:
            left, right = right, left
        if len(right) == 1 and _UNIT in right:
            weight *= right[_UNIT]
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
        # every numerator is nonzero, so a sum cancels only on a key present
        for (ev1, od1), n1 in left.items():
            n1 *= weight
            for (ev2, od2), n2 in right.items():
                ordered = reorder(od1 + od2, 0) if od1 and od2 else (1, od1 or od2)
                if ordered is not None:
                    sign, odd = ordered
                    key = (_merge_even(ev1, ev2), odd)
                    acc = get(key, 0) + (n1 * n2 if sign > 0 else -n1 * n2)
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
    return _reduced(out, den)


def _coerce(value: "SuperExpr | Scalar") -> SuperExpr:
    if isinstance(value, SuperExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return SuperExpr.constant(value)
    raise TypeError(f"cannot interpret {value!r} as a SuperExpr")


def _term_sort_key(key: TermKey):
    even, odd = key
    return (
        tuple((g.sort_key, e) for g, e in even),
        tuple(g.sort_key for g in odd),
    )


def _format_monomial(key: TermKey) -> str:
    even, odd = key
    parts = [f"{g}^{e}" if e > 1 else str(g) for g, e in even]
    parts.extend(str(g) for g in odd)
    return "*".join(parts)


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
            yield coeff.numerator, coeff.denominator, factors

    return from_monomials(monomials())


def from_monomials(terms: Iterable[tuple[int, int, Sequence[GeneratorSymbol]]]) -> SuperExpr:
    """The canonical sum of monomials ``numerator / denominator * factors``,
    each denominator positive and each factor list an ordered product.
    Evens may repeat; odd factors are put in order with their sign by
    ``reorder``, and a repeated odd factor kills the term.  The sum runs on
    integer numerators over the least common denominator, with one gcd."""
    nums: dict[TermKey, int] = {}
    get = nums.get
    den = 1
    for num, d, factors in terms:
        if not num:
            continue
        evens: list[GeneratorSymbol] = []
        odds: list[GeneratorSymbol] = []
        for gen in factors:
            # sort_key[0] is the parity's value
            (odds if gen.sort_key[0] else evens).append(gen)
        if len(odds) > 1:
            ordered = reorder(odds, 0)
            if ordered is None:
                continue
            sign, odd_word = ordered
            if sign < 0:
                num = -num
        else:
            odd_word = tuple(odds)
        if len(evens) > 1:
            exps: dict[GeneratorSymbol, int] = {}
            for gen in evens:
                exps[gen] = exps.get(gen, 0) + 1
            even_mono = tuple(sorted(exps.items(), key=lambda it: it[0].sort_key))
        else:
            even_mono = ((evens[0], 1),) if evens else ()
        key = (even_mono, odd_word)
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
    parities = {len(odd) % 2 for (_, odd) in expr._nums}
    if len(parities) > 1:
        raise MixedParity(f"expression {expr} mixes parities")
    return Parity.ODD if parities.pop() else Parity.EVEN


def has_parity(expr: SuperExpr, parity: Parity) -> bool:
    """True when the expression is zero or homogeneous of the given parity."""
    if expr.is_zero():
        return True
    try:
        return parity_of(expr) is parity
    except MixedParity:
        return False


def exact_quotient(dividend: SuperExpr, divisor: SuperExpr) -> SuperExpr:
    """The quotient of two expressions free of odd generators when the
    divisor divides the dividend in Q[even generators].  Raises
    ``AlgebraError`` when it does not (a nonzero remainder) or when an
    operand has an odd generator.

    Division cancels the leading term of the remainder, in the
    lexicographic order with the generator that sorts first weighing most,
    until nothing is left.  Each monomial is packed into one int, its
    exponents the digits, so that a product adds ints and the order is the
    order of ints.  An exact quotient has at most ``deg_x(dividend) -
    deg_x(divisor)`` factors of each x; a quotient term past that bound
    means a remainder, and within it no digit of a product overflows, so
    an empty remainder is an identity of polynomials.  The numerators stay
    ints: the quotient is kept times a scale that grows by what the
    divisor's leading coefficient does not divide."""
    if any(odd for _, odd in dividend._nums) or any(odd for _, odd in divisor._nums):
        raise AlgebraError("exact division takes expressions free of odd generators")
    if divisor.is_zero():
        raise ZeroDivisionError("division of a SuperExpr by zero")
    if len(divisor._nums) == 1 and _UNIT in divisor._nums:
        return dividend / divisor.constant_term()
    degrees: list[dict[GeneratorSymbol, int]] = [{}, {}]
    for expr, degree in zip((dividend, divisor), degrees):
        for even, _ in expr._nums:
            for g, e in even:
                if e > degree.get(g, 0):
                    degree[g] = e
    top_degree, divisor_degree = degrees
    gens = sorted(top_degree.keys() | divisor_degree.keys(), key=lambda g: g.sort_key, reverse=True)
    bounds = [top_degree.get(g, 0) - divisor_degree.get(g, 0) for g in gens]
    base = max(top_degree.values(), default=0) + 1
    # the last generator in sort order is the lowest digit
    place = {g: base**i for i, g in enumerate(gens)}

    def pack(even: EvenMonomial) -> int:
        return sum(e * place[g] for g, e in even)

    rest = {pack(even): n for (even, _), n in dividend._nums.items()}
    terms = {pack(even): n for (even, _), n in divisor._nums.items()}
    lead = max(terms)
    lead_coeff = terms[lead]
    quotient: dict[TermKey, int] = {}
    scale = 1
    while rest:
        top = max(rest)
        n = rest[top]
        shift = rem = top - lead
        exps = []
        # the digits of the shift, each within its bound; a negative shift
        # leaves a negative rest
        for g, bound in zip(gens, bounds):
            rem, e = divmod(rem, base)
            if e > bound or rem < 0:
                raise AlgebraError(f"{divisor} does not divide {dividend}")
            if e:
                exps.append((g, e))
        grow = abs(lead_coeff) // math.gcd(n, lead_coeff)
        if grow != 1:
            scale *= grow
            rest = {key: m * grow for key, m in rest.items()}
            quotient = {key: m * grow for key, m in quotient.items()}
            n *= grow
        coeff = n // lead_coeff
        quotient[(tuple(reversed(exps)), ())] = coeff
        for key, m in terms.items():
            key += shift
            acc = rest.get(key, 0) - coeff * m
            if acc:
                rest[key] = acc
            else:
                del rest[key]
    return _reduced({key: n * divisor._den for key, n in quotient.items()}, scale * dividend._den)


def partials(expr: SuperExpr) -> dict[GeneratorSymbol, SuperExpr]:
    """Every nonzero left partial derivative, keyed by generator, from one
    pass over the terms: the keys are exactly ``expr.generators()``.

    An even factor ``g^e`` gives ``e`` times the term with one ``g`` fewer;
    an odd factor is moved to the front of its word, collecting a Koszul
    sign, and then removed.  Removing a factor keeps a key canonical.
    """
    # distinct terms keep distinct keys under one partial, so nothing cancels
    parts: dict[GeneratorSymbol, dict[TermKey, int]] = {}
    for (even, odd), n in expr._nums.items():
        for i, (g, e) in enumerate(even):
            rest = even[:i] + ((g, e - 1),) + even[i + 1:] if e > 1 else even[:i] + even[i + 1:]
            parts.setdefault(g, {})[(rest, odd)] = n * e
        for pos, g in enumerate(odd):
            parts.setdefault(g, {})[(even, odd[:pos] + odd[pos + 1:])] = -n if pos % 2 else n
    den = expr._den
    return {g: _reduced(nums, den) for g, nums in parts.items()}


def left_partial(expr: SuperExpr, gen: GeneratorSymbol) -> SuperExpr:
    """Left partial derivative with respect to a generator: its entry in
    ``partials``."""
    return partials(expr).get(gen) or SuperExpr.zero()


def shift_derivative(expr: SuperExpr) -> SuperExpr:
    """The sum over generators g of ``g' * d(expr)/dg``, left partials, with
    g' the generator one jet order up: the total time derivative.

    Each factor g of a term becomes g' in place.  No generator sorts
    between g and g', so an even monomial merges g' into the next entry or
    inserts it there, and an odd word keeps its order and its sign (the
    Koszul sign of the partial cancels the one of moving g' back); a word
    that already holds g' loses the term.  No product is formed."""
    nums: dict[TermKey, int] = {}
    get = nums.get
    successor: dict[GeneratorSymbol, GeneratorSymbol] = {}
    # as in ``sum_of_products``, different terms reach one key and a sum
    # cancels only on a key present
    for (even, odd), n in expr._nums.items():
        for i, (g, e) in enumerate(even):
            up = successor.get(g) or successor.setdefault(g, g.shifted())
            head = even[:i] + ((g, e - 1),) if e > 1 else even[:i]
            if i + 1 < len(even) and even[i + 1][0] is up:
                key = (head + ((up, even[i + 1][1] + 1),) + even[i + 2:], odd)
            else:
                key = (head + ((up, 1),) + even[i + 1:], odd)
            acc = get(key, 0) + n * e
            if acc:
                nums[key] = acc
            else:
                del nums[key]
        for pos, g in enumerate(odd):
            up = successor.get(g) or successor.setdefault(g, g.shifted())
            if pos + 1 < len(odd) and odd[pos + 1] is up:
                continue
            key = (even, odd[:pos] + (up,) + odd[pos + 1:])
            acc = get(key, 0) + n
            if acc:
                nums[key] = acc
            else:
                del nums[key]
    return _reduced(nums, expr._den)


def substitute(expr: SuperExpr, assignment: Mapping[GeneratorSymbol, SuperExpr | Scalar]) -> SuperExpr:
    """Simultaneous substitution of generators by expressions.

    Each assigned value must be homogeneous of the generator's parity
    (zero always passes); the substitution is then an algebra map and the
    Koszul bookkeeping is inherited from multiplication.  A term with no
    assigned factor is kept as it is, with no product; the others multiply
    out all but their last factor, and that one into one ``sum_of_products``.
    """
    values: dict[GeneratorSymbol, SuperExpr] = {}
    for gen, value in assignment.items():
        value = _coerce(value)
        if not has_parity(value, gen.parity):
            raise ParityMismatch(f"value {value} assigned to {gen} is not {gen.parity}")
        values[gen] = value
    kept: dict[TermKey, int] = {}
    triples = []
    for (even, odd), n in expr._nums.items():
        if not any(gen in values for gen, _ in even) and not any(gen in values for gen in odd):
            kept[(even, odd)] = n
            continue
        factors = [values.get(gen, SuperExpr.generator(gen)) ** exp for gen, exp in even]
        factors += [values.get(gen, SuperExpr.generator(gen)) for gen in odd]
        *head, last = factors
        triples.append((n, math.prod(head[1:], start=head[0]) if head else _ONE, last))
    if not triples:
        return expr
    total = sum_of_products([(1, _raw(kept), _ONE), *triples])
    return _reduced(total._nums, total._den * expr._den)
