"""Differential forms with the bidegree (form degree, parity) sign rule.

A form is a sum of terms ``coefficient * dx_1 ^ ... ^ dx_p`` with the
coefficient written on the left.  Swapping two adjacent differentials
gives ``dx ^ dy = -(-1)^{|x||y|} dy ^ dx``: differentials of even
coordinates anticommute among themselves, differentials of odd
coordinates commute, so the square of an odd differential survives.
Canonical words keep differentials sorted by the generator order, and
``algebra.reorder(word, 1)`` puts a word in that order with its sign.
One accumulator, ``_collect``, adds the ``(word, weight, left, right)``
entries of every form, the products of each canonical word into one
``algebra.sum_of_products``.  Only a word built out of order (wedge, d,
a shifted letter, ``GradedForm.term``) is first reordered by
``_ordered``; linear operations enter their canonical words as they are.

The exterior differential is built from ``df = sum dx * (df/dx)`` with
left partials, which makes ``d(f w) = df ^ w + f dw`` and ``d ^ 2 = 0``
hold on the nose; the total-derivative extension shifts subscripts and
commutes with d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Union

from .algebra import (
    GeneratorSymbol,
    SuperExpr,
    koszul,
    partials,
    reorder,
    scaled,
    signed_sum,
    sum_of_products,
)
from .jets import DomainMismatch, OrderExceeded, VectorFieldAlong, total_derivative as expr_total_derivative

WedgeWord = tuple[GeneratorSymbol, ...]
Scalar = Union[int, Fraction]
Entry = tuple[WedgeWord, int, SuperExpr, SuperExpr]
_ONE = SuperExpr.constant(1)


class FormError(Exception):
    pass


class NotSemibasic(FormError):
    pass


def _word_parity(word: WedgeWord) -> int:
    return sum(g.parity.value for g in word) % 2


class GradedForm:
    """A sum of wedge terms with SuperExpr coefficients on the left, keyed by
    canonical words: ``GradedForm(mapping)`` takes them unchecked, as ``items()``
    returns them, and ``GradedForm.term`` takes a word in any order."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[WedgeWord, SuperExpr] | None = None):
        self._terms: dict[WedgeWord, SuperExpr] = {
            word: coeff for word, coeff in (terms or {}).items() if not coeff.is_zero()
        }

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "GradedForm":
        return GradedForm()

    @staticmethod
    def differential(gen: GeneratorSymbol) -> "GradedForm":
        return GradedForm({(gen,): SuperExpr.constant(1)})

    @staticmethod
    def term(coeff: SuperExpr, word: Iterable[GeneratorSymbol]) -> "GradedForm":
        return _collect(_ordered([(word, 1, coeff, _ONE)]))

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[WedgeWord, SuperExpr]]:
        return sorted(
            self._terms.items(), key=lambda it: tuple(g.sort_key for g in it[0])
        )

    def is_zero(self) -> bool:
        return not self._terms

    @staticmethod
    def sum(forms: Iterable["GradedForm"]) -> "GradedForm":
        return _collect(entry for form in forms for entry in form._entries())

    def _entries(self, weight: int = 1, left: SuperExpr = _ONE) -> Iterable[Entry]:
        """The terms as ``_collect`` entries, times ``weight * left``."""
        return ((word, weight, left, coeff) for word, coeff in self._terms.items())

    def coefficient(self, word: WedgeWord) -> SuperExpr:
        return self._terms.get(word, SuperExpr.zero())

    def degrees(self) -> set[int]:
        return {len(word) for word in self._terms}

    def is_one_form(self) -> bool:
        return all(len(word) == 1 for word in self._terms)

    def differential_order(self) -> int:
        """Largest subscript among the differentials; -1 when none."""
        return max((g.jet_order for word in self._terms for g in word), default=-1)

    def coefficient_order(self) -> int:
        return max((c.max_jet_order() for c in self._terms.values()), default=-1)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "GradedForm") -> "GradedForm":
        return GradedForm.sum((self, other))

    def __neg__(self) -> "GradedForm":
        return _collect(self._entries(-1))

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        return _collect(chain(self._entries(), other._entries(-1)))

    def scale(self, factor: SuperExpr | Scalar) -> "GradedForm":
        """Multiply by a function from the left."""
        if not isinstance(factor, SuperExpr):
            factor = SuperExpr.constant(factor)
        return _collect(self._entries(1, factor))

    def wedge(self, other: "GradedForm") -> "GradedForm":
        # move each coefficient of other (degree 0) to the left across
        # the differentials of self
        return _collect(_ordered(
            (w1 + w2, 1, f1, koszul(f2, _word_parity(w1)))
            for w1, f1 in self._terms.items()
            for w2, f2 in other._terms.items()
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedForm):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset((w, hash(c)) for w, c in self._terms.items()))

    def __str__(self) -> str:
        return signed_sum(
            scaled(
                f"({coeff})" if grouped_coefficient(coeff, word) else str(coeff),
                "^".join(f"d({g})" for g in word),
                "*",
            )
            for word, coeff in self.items()
        )

    def __repr__(self) -> str:
        return f"GradedForm({self})"


def _collect(entries: Iterable[Entry]) -> GradedForm:
    """The form of these ``(word, weight, left, right)`` terms on canonical words:
    the one place that adds coefficients, a word's products in one ``sum_of_products``."""
    parts: dict[WedgeWord, list[tuple[int, SuperExpr, SuperExpr]]] = {}
    for word, weight, left, right in entries:
        parts.setdefault(word, []).append((weight, left, right))
    return GradedForm({word: sum_of_products(triples) for word, triples in parts.items()})


def _ordered(entries: Iterable[Entry]) -> Iterable[Entry]:
    """Entries with each word put in order by ``reorder(word, 1)``, its
    sign on the weight; a vanishing word is dropped."""
    for word, weight, left, right in entries:
        ordered = reorder(word, 1)
        if ordered is not None:
            sign, canonical = ordered
            yield canonical, sign * weight, left, right


def grouped_coefficient(coeff: SuperExpr, word: WedgeWord) -> bool:
    """Whether a printed form writes this coefficient in parentheses: it
    has more than one term and differentials follow it."""
    return bool(word) and len(coeff.numerators()[0]) > 1


def differential_of_function(f: SuperExpr) -> GradedForm:
    """df as a one-form, coefficients moved to the left of the
    differentials with the Koszul sign."""
    return GradedForm({(gen,): koszul(d, gen.parity.value) for gen, d in partials(f).items()})


def exterior_d(form: GradedForm | SuperExpr) -> GradedForm:
    """The exterior differential; parity preserving, degree raising,
    and square zero."""
    if isinstance(form, SuperExpr):
        return differential_of_function(form)
    return _collect(_ordered(
        ((gen,) + word, 1, koszul(d, gen.parity.value), _ONE)
        for word, coeff in form._terms.items()
        for gen, d in partials(coeff).items()
    ))


def total_derivative(form: GradedForm) -> GradedForm:
    """Extend the total time derivative to forms as an even derivation:
    coefficients differentiate, each differential shifts one subscript up."""
    terms = form._terms.items()
    # a shifted letter can meet its successor, and an even square vanishes
    shifted = _ordered((word[:t] + (word[t].shifted(),) + word[t + 1:], 1, coeff, _ONE)
                       for word, coeff in terms for t in range(len(word)))
    return _collect(chain(((w, 1, expr_total_derivative(c), _ONE) for w, c in terms), shifted))


def interior(x_field: VectorFieldAlong, form: GradedForm) -> GradedForm:
    """Left interior product with a field along a projection.

    Acts as a graded derivation of degree -1 and the field's parity, so
    it is a sum over positions: on ``f dx_0 ^ ... ^ dx_p`` position t
    gives ``(-1)^(t + |x_t| n_t) koszul(f, |X|) X(x_t)`` on the word
    without ``dx_t``, with n_t the odd differentials before t: passing
    the first t letters gives ``(-1)^(t + |X| n_t)``, moving ``X(x_t)``
    left past them ``(-1)^((|X| + |x_t|) n_t)``.  Removing a letter leaves
    a canonical word, so the products of each word add into one
    ``sum_of_products``.

    Any field whose source order reaches the form's highest differential
    subscript will do.  On a one-form the result is a function, read with
    ``.coefficient(())``: the energy, each charge and the witness check
    all contract this way.
    """
    x_parity = x_field.parity.value
    max_jet = form.differential_order()
    if max_jet > x_field.source_order:
        raise DomainMismatch(
            f"form has differentials of jet order {max_jet}, field source is T^{x_field.source_order}"
        )
    entries: list[Entry] = []
    for word, coeff in form._terms.items():
        moved = koszul(coeff, x_parity)
        odd_before = 0
        for t, gen in enumerate(word):
            value = x_field.components.get(gen)
            if value is not None:
                flip = (t + gen.parity.value * odd_before) % 2
                entries.append((word[:t] + word[t + 1:], -1 if flip else 1, moved, value))
            odd_before += gen.parity.value
    return _collect(entries)


def transpose_vertical(form: GradedForm, k: int) -> GradedForm:
    """Transpose of the vertical endomorphism on one-forms over T^k:
    ``dx_{j+1}`` becomes ``(j+1) dx_j`` and bottom differentials vanish;
    a coefficient of ``dx_1`` is kept as it is."""
    if not form.is_one_form():
        raise FormError("the vertical transpose acts on one-forms")
    if max(form.differential_order(), form.coefficient_order()) > k:
        raise OrderExceeded(f"form does not live on T^{k}")
    return GradedForm({
        (word[0].shifted(-1),): coeff if word[0].jet_order == 1 else word[0].jet_order * coeff
        for word, coeff in form._terms.items()
        if word[0].jet_order
    })


def cartan_operator(form: GradedForm, k: int) -> GradedForm:
    """The alternating-weights combination of vertical transposes and
    total-derivative extensions that carries dL to the momentum one-form.

    For order k the result is ``sum_{l=1..k} ((-1)^{l+1} / l!) *
    d_T^{l-1}(S*^l(form))`` and lives on T^(2k-1); for k = 1 it collapses
    to the vertical transpose alone.  S*^l is taken as S*(S*^(l-1)); the
    first transpose checks that ``form`` is a one-form on T^k.
    """
    if k < 1:
        raise OrderExceeded("the momentum construction needs k >= 1")
    entries: list[Entry] = []
    transposed = form
    factorial = 1
    for l in range(1, k + 1):
        factorial *= l
        piece = transposed = transpose_vertical(transposed, k)
        for _ in range(l - 1):
            piece = total_derivative(piece)
        entries.extend(piece._entries((-1) ** (l + 1), SuperExpr.constant(Fraction(1, factorial))))
    return _collect(entries)


@dataclass(frozen=True)
class CheckForm:
    """The components of a one-form certified semibasic at ``level`` by
    ``semibasic_check``, the one level check: ``components[x]`` is the
    coefficient of dx, for coordinates x of subscript at most ``level``.
    Contracting the form with a field is ``interior``'s job."""

    level: int
    components: Mapping[GeneratorSymbol, SuperExpr]

    def component(self, gen: GeneratorSymbol) -> SuperExpr:
        return self.components.get(gen, SuperExpr.zero())


def semibasic_check(form: GradedForm, level: int) -> CheckForm:
    """Certify that a one-form only involves differentials of subscript
    at most ``level`` and repackage it by components."""
    if not form.is_one_form():
        raise FormError("semibasic splitting applies to one-forms")
    for (gen,) in form._terms:
        if gen.jet_order > level:
            raise NotSemibasic(f"differential d({gen}) exceeds level {level}")
    return CheckForm(level, {word[0]: coeff for word, coeff in form._terms.items()})

