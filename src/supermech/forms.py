"""Differential forms with the bidegree (form degree, parity) sign rule.

A form is a sum of terms ``coefficient * dx_1 ^ ... ^ dx_p`` with the
coefficient written on the left.  Swapping two adjacent differentials
gives ``dx ^ dy = -(-1)^{|x||y|} dy ^ dx``: differentials of even
coordinates anticommute among themselves, differentials of odd
coordinates commute, so the square of an odd differential survives.
Canonical words keep differentials sorted by the generator order, and
``algebra.reorder(word, 1)`` puts a word in that order with its sign.
Every form is built by collecting ``(word, coefficient)`` pairs
(``_collect``): each word is reordered, its sign moved onto the
coefficient, and the coefficients of one word added together.

The exterior differential is built from ``df = sum dx * (df/dx)`` with
left partials, which makes ``d(f w) = df ^ w + f dw`` and ``d ^ 2 = 0``
hold on the nose; the total-derivative extension shifts subscripts and
commutes with d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .algebra import (
    GeneratorSymbol,
    SuperExpr,
    koszul,
    partials,
    reorder,
    scaled,
    signed_sum,
)
from .jets import DomainMismatch, OrderExceeded, VectorFieldAlong, total_derivative as expr_total_derivative

WedgeWord = tuple[GeneratorSymbol, ...]
Scalar = Union[int, Fraction]


class FormError(Exception):
    pass


class NotSemibasic(FormError):
    pass


def _word_parity(word: WedgeWord) -> int:
    return sum(g.parity.value for g in word) % 2


class GradedForm:
    """A sum of wedge terms with SuperExpr coefficients on the left."""

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
    def from_function(f: SuperExpr) -> "GradedForm":
        return GradedForm({(): f})

    @staticmethod
    def differential(gen: GeneratorSymbol) -> "GradedForm":
        return GradedForm({(gen,): SuperExpr.constant(1)})

    @staticmethod
    def term(coeff: SuperExpr, word: Iterable[GeneratorSymbol]) -> "GradedForm":
        return _collect([(word, coeff)])

    # -- structure ---------------------------------------------------------

    def items(self) -> list[tuple[WedgeWord, SuperExpr]]:
        return sorted(
            self._terms.items(), key=lambda it: tuple(g.sort_key for g in it[0])
        )

    def is_zero(self) -> bool:
        return not self._terms

    @staticmethod
    def sum(forms: Iterable["GradedForm"]) -> "GradedForm":
        return _collect(pair for form in forms for pair in form._terms.items())

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
        return GradedForm({word: -coeff for word, coeff in self._terms.items()})

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        return self + (-other)

    def scale(self, factor: SuperExpr | Scalar) -> "GradedForm":
        """Multiply by a function from the left."""
        if not isinstance(factor, SuperExpr):
            factor = SuperExpr.constant(factor)
        return GradedForm({word: factor * coeff for word, coeff in self._terms.items()})

    def wedge(self, other: "GradedForm") -> "GradedForm":
        # move each coefficient of other (degree 0) to the left across
        # the differentials of self
        return _collect(
            (w1 + w2, f1 * koszul(f2, _word_parity(w1)))
            for w1, f1 in self._terms.items()
            for w2, f2 in other._terms.items()
        )

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


def _collect(pairs: Iterable[tuple[Iterable[GeneratorSymbol], SuperExpr]]) -> GradedForm:
    """The form with these ``(word, coefficient)`` terms: each word is put
    in canonical order by ``reorder(word, 1)`` with its sign moved onto the
    coefficient, a vanishing word is dropped, and each canonical word's
    coefficients are added with one ``SuperExpr.sum``."""
    parts: dict[WedgeWord, list[SuperExpr]] = {}
    for word, coeff in pairs:
        ordered = reorder(word, 1)
        if ordered is not None:
            sign, canonical = ordered
            parts.setdefault(canonical, []).append(coeff if sign > 0 else -coeff)
    return GradedForm({
        word: coeffs[0] if len(coeffs) == 1 else SuperExpr.sum(coeffs)
        for word, coeffs in parts.items()
    })


def grouped_coefficient(coeff: SuperExpr, word: WedgeWord) -> bool:
    """Whether a printed form writes this coefficient in parentheses: it
    has more than one term and differentials follow it."""
    return bool(word) and len(coeff.numerators()[0]) > 1


def differential_of_function(f: SuperExpr) -> GradedForm:
    """df as a one-form, coefficients moved to the left of the
    differentials with the Koszul sign."""
    return _collect(
        ((gen,), koszul(d, gen.parity.value))
        for gen, d in sorted(partials(f).items(), key=lambda it: it[0].sort_key)
    )


def exterior_d(form: GradedForm | SuperExpr) -> GradedForm:
    """The exterior differential; parity preserving, degree raising,
    and square zero."""
    if isinstance(form, SuperExpr):
        return differential_of_function(form)
    return _collect(
        (dx + word, c)
        for word, coeff in form._terms.items()
        for dx, c in differential_of_function(coeff)._terms.items()
    )


def total_derivative(form: GradedForm) -> GradedForm:
    """Extend the total time derivative to forms as an even derivation:
    coefficients differentiate, each differential shifts one subscript up."""
    pairs: list[tuple[WedgeWord, SuperExpr]] = []
    for word, coeff in form._terms.items():
        pairs.append((word, expr_total_derivative(coeff)))
        pairs.extend(
            (word[:t] + (word[t].shifted(),) + word[t + 1:], coeff) for t in range(len(word))
        )
    return _collect(pairs)


def interior(x_field: VectorFieldAlong, form: GradedForm) -> GradedForm:
    """Left interior product with a field along a projection.

    Acts as a graded derivation of degree -1 and the field's parity, so
    it is a sum over positions: on ``f dx_0 ^ ... ^ dx_p`` position t
    gives ``(-1)^(t + |x_t| n_t) koszul(f, |X|) X(x_t)`` on the word
    without ``dx_t``, with n_t the odd differentials before t: passing
    the first t letters gives ``(-1)^(t + |X| n_t)``, moving ``X(x_t)``
    left past them ``(-1)^((|X| + |x_t|) n_t)``.  Removing a letter leaves
    a canonical word.

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
    pairs: list[tuple[WedgeWord, SuperExpr]] = []
    for word, coeff in form._terms.items():
        moved = koszul(coeff, x_parity)
        odd_before = 0
        for t, gen in enumerate(word):
            value = x_field.components.get(gen)
            if value is not None:
                term = moved * value
                flip = (t + gen.parity.value * odd_before) % 2
                pairs.append((word[:t] + word[t + 1:], -term if flip else term))
            odd_before += gen.parity.value
    return _collect(pairs)


def transpose_vertical(form: GradedForm, k: int) -> GradedForm:
    """Transpose of the vertical endomorphism on one-forms over T^k:
    ``dx_{j+1}`` becomes ``(j+1) dx_j`` and bottom differentials vanish."""
    if not form.is_one_form():
        raise FormError("the vertical transpose acts on one-forms")
    if max(form.differential_order(), form.coefficient_order()) > k:
        raise OrderExceeded(f"form does not live on T^{k}")
    return _collect(
        ((word[0].shifted(-1),), word[0].jet_order * coeff)
        for word, coeff in form._terms.items()
        if word[0].jet_order
    )


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
    pieces: list[GradedForm] = []
    transposed = form
    factorial = 1
    for l in range(1, k + 1):
        factorial *= l
        piece = transposed = transpose_vertical(transposed, k)
        for _ in range(l - 1):
            piece = total_derivative(piece)
        pieces.append(piece.scale(Fraction((-1) ** (l + 1), factorial)))
    return GradedForm.sum(pieces)


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

