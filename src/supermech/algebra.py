"""Supercommutative polynomial algebra over the rationals.

An expression is a finite sum of terms ``coefficient * even-monomial *
odd-word``.  Even generators commute with everything and carry integer
exponents; odd generators anticommute among themselves and square to zero,
so an odd word is a product of distinct odd generators kept in a fixed
total order.  Reordering odd factors multiplies the coefficient by the
sign of the permutation.

Coefficients are exact ``Fraction`` values and every operation returns the
unique canonical form, so equality is dictionary equality.

Generators are interned: constructing a ``GeneratorSymbol`` returns the one
instance with those fields, so symbols hash and compare by identity, in C.
Term keys are nested tuples of symbols that every dictionary operation
rehashes, which makes this the cost under every sum, product and partial.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union


class Parity(Enum):
    EVEN = 0
    ODD = 1

    def __str__(self) -> str:
        return "even" if self is Parity.EVEN else "odd"


def parity_product(*parities: Parity) -> Parity:
    return Parity(sum(p.value for p in parities) % 2)


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
    return SuperExpr({key: -c if len(key[1]) % 2 else c for key, c in expr._terms.items()})


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

Scalar = Union[int, Fraction]
RawTerm = tuple[Scalar, Sequence[GeneratorSymbol]]


def _sort_odd_word(factors: Sequence[GeneratorSymbol]) -> tuple[int, OddWord] | None:
    """Sort odd factors into canonical order, or report a repeated factor.

    Returns ``(sign, word)`` with the permutation sign, or ``None`` when a
    generator repeats (the term vanishes).
    """
    word = list(factors)
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j].sort_key < word[j - 1].sort_key:
            word[j], word[j - 1] = word[j - 1], word[j]
            sign = -sign
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b:
            return None
    return sign, tuple(word)


def _merge_odd_words(left: OddWord, right: OddWord) -> tuple[int, OddWord] | None:
    """Merge two canonical odd words, counting the crossings."""
    if not left or not right:
        return 1, left or right
    sign = 1
    out: list[GeneratorSymbol] = []
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a.sort_key < b.sort_key:
            out.append(a)
            i += 1
        else:
            # b jumps over the remaining factors of left
            if (len(left) - i) % 2:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return sign, tuple(out)


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
    """A canonical supercommutative polynomial."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[TermKey, Fraction] | None = None):
        self._terms: dict[TermKey, Fraction] = dict(terms or {})
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "SuperExpr":
        return SuperExpr()

    @staticmethod
    def constant(value: Scalar) -> "SuperExpr":
        value = Fraction(value)
        if value == 0:
            return SuperExpr()
        return SuperExpr({((), ()): value})

    @staticmethod
    def generator(gen: GeneratorSymbol) -> "SuperExpr":
        if gen.parity is Parity.EVEN:
            return SuperExpr({(((gen, 1),), ()): Fraction(1)})
        return SuperExpr({((), (gen,)): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[TermKey, Fraction]]:
        return sorted(self._terms.items(), key=lambda it: _term_sort_key(it[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def generators(self) -> set[GeneratorSymbol]:
        out: set[GeneratorSymbol] = set()
        for (even, odd) in self._terms:
            out.update(g for g, _ in even)
            out.update(odd)
        return out

    def max_jet_order(self) -> int:
        """Largest derivative subscript present; -1 for constants."""
        gens = self.generators()
        return max((g.jet_order for g in gens), default=-1)

    def constant_term(self) -> Fraction:
        return self._terms.get(((), ()), Fraction(0))

    def total_degree(self) -> int:
        """Largest total degree of a term (odd factors count once each)."""
        deg = 0
        for (even, odd) in self._terms:
            deg = max(deg, sum(e for _, e in even) + len(odd))
        return deg

    def parity_split(self) -> tuple["SuperExpr", "SuperExpr"]:
        """Split into the even-parity and odd-parity parts."""
        even_terms: dict[TermKey, Fraction] = {}
        odd_terms: dict[TermKey, Fraction] = {}
        for key, coeff in self._terms.items():
            (even_terms if len(key[1]) % 2 == 0 else odd_terms)[key] = coeff
        return SuperExpr(even_terms), SuperExpr(odd_terms)

    @staticmethod
    def sum(exprs: Iterable["SuperExpr"]) -> "SuperExpr":
        """Add many expressions into one term dict."""
        return _collect(term for expr in exprs for term in expr._terms.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return _collect(_coerce(other)._terms.items(), self._terms)

    __radd__ = __add__

    def __neg__(self) -> "SuperExpr":
        return SuperExpr({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return self + (-_coerce(other))

    def __rsub__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return _coerce(other) + (-self)

    def __mul__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return _collect(_product_terms(self, _coerce(other)))

    def __rmul__(self, other: "SuperExpr | Scalar") -> "SuperExpr":
        return _coerce(other) * self

    def __truediv__(self, other: Scalar) -> "SuperExpr":
        other = Fraction(other)
        if other == 0:
            raise ZeroDivisionError("division of a SuperExpr by zero")
        return SuperExpr({key: coeff / other for key, coeff in self._terms.items()})

    def __pow__(self, exponent: int) -> "SuperExpr":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponents must be non-negative integers")
        out = SuperExpr.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SuperExpr.constant(other)
        if not isinstance(other, SuperExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return signed_sum(
            scaled(coefficient_text(coeff), _format_monomial(key), "*")
            for key, coeff in self.items()
        )

    def __repr__(self) -> str:
        return f"SuperExpr({self})"


def _collect(
    terms: Iterable[tuple[TermKey, Fraction]], base: Mapping[TermKey, Fraction] | None = None
) -> SuperExpr:
    """Add ``(key, coefficient)`` pairs into one dict, a copy of ``base``
    when given, dropping keys whose coefficients cancel."""
    out: dict[TermKey, Fraction] = dict(base) if base else {}
    for key, coeff in terms:
        acc = out[key] + coeff if key in out else coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return SuperExpr(out)


def _product_terms(left: SuperExpr, right: SuperExpr) -> Iterator[tuple[TermKey, Fraction]]:
    for (ev1, od1), c1 in left._terms.items():
        for (ev2, od2), c2 in right._terms.items():
            merged = _merge_odd_words(od1, od2)
            if merged is not None:
                sign, odd = merged
                coeff = c1 * c2
                yield (_merge_even(ev1, ev2), odd), coeff if sign > 0 else -coeff


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
    terms: list[tuple[TermKey, Fraction]] = []
    for coeff, factors in raw:
        evens: list[GeneratorSymbol] = []
        odds: list[GeneratorSymbol] = []
        for gen in factors:
            if allowed is not None and gen not in allowed:
                raise UndeclaredGenerator(f"generator {gen} is not declared")
            (evens if gen.parity is Parity.EVEN else odds).append(gen)
        sorted_odd = _sort_odd_word(odds)
        if sorted_odd is None:
            continue
        sign, odd_word = sorted_odd
        exps: dict[GeneratorSymbol, int] = {}
        for gen in evens:
            exps[gen] = exps.get(gen, 0) + 1
        even_mono = tuple(sorted(exps.items(), key=lambda it: it[0].sort_key))
        terms.append(((even_mono, odd_word), Fraction(coeff) * sign))
    return _collect(terms)


def parity_of(expr: SuperExpr) -> Parity:
    """Parity of a homogeneous expression.

    Raises ``ZeroExpression`` for 0 (any parity) and ``MixedParity`` when
    terms of both parities are present.
    """
    if expr.is_zero():
        raise ZeroExpression("the zero expression has no definite parity")
    parities = {len(odd) % 2 for (_, odd) in expr._terms}
    if len(parities) > 1:
        raise MixedParity(f"expression {expr} mixes parities")
    return Parity(parities.pop())


def has_parity(expr: SuperExpr, parity: Parity) -> bool:
    """True when the expression is zero or homogeneous of the given parity."""
    if expr.is_zero():
        return True
    try:
        return parity_of(expr) is parity
    except MixedParity:
        return False


def left_partial(expr: SuperExpr, gen: GeneratorSymbol) -> SuperExpr:
    """Left partial derivative with respect to a generator.

    For an odd generator the factor is moved to the front of its word,
    collecting a Koszul sign, and then removed.
    """
    terms: list[tuple[TermKey, Fraction]] = []
    if gen.parity is Parity.EVEN:
        for (even, odd), coeff in expr._terms.items():
            exps = dict(even)
            exp = exps.get(gen)
            if not exp:
                continue
            # the monomial is sorted and the dict keeps its order, so the
            # key stays canonical without sorting again
            if exp == 1:
                del exps[gen]
                terms.append(((tuple(exps.items()), odd), coeff))
            else:
                exps[gen] = exp - 1
                terms.append(((tuple(exps.items()), odd), coeff * exp))
    else:
        for (even, odd), coeff in expr._terms.items():
            if gen not in odd:
                continue
            pos = odd.index(gen)
            terms.append(((even, odd[:pos] + odd[pos + 1:]), -coeff if pos % 2 else coeff))
    return _collect(terms)


def substitute(expr: SuperExpr, assignment: Mapping[GeneratorSymbol, SuperExpr | Scalar]) -> SuperExpr:
    """Simultaneous substitution of generators by expressions.

    Each assigned value must be homogeneous of the generator's parity
    (zero always passes); the substitution is then an algebra map and the
    Koszul bookkeeping is inherited from multiplication.
    """
    values: dict[GeneratorSymbol, SuperExpr] = {}
    for gen, value in assignment.items():
        value = _coerce(value)
        if not has_parity(value, gen.parity):
            raise ParityMismatch(f"value {value} assigned to {gen} is not {gen.parity}")
        values[gen] = value
    terms: list[SuperExpr] = []
    for (even, odd), coeff in expr._terms.items():
        term = SuperExpr.constant(coeff)
        for gen, exp in even:
            term = term * values.get(gen, SuperExpr.generator(gen)) ** exp
        for gen in odd:
            term = term * values.get(gen, SuperExpr.generator(gen))
        terms.append(term)
    return SuperExpr.sum(terms)
