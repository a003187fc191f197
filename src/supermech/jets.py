"""Higher-order tangent charts and the lifting calculus on them.

A chart of order k carries one generator per base coordinate and
derivative subscript 0..k.  Charts of different orders over the same base
share generator symbols, so pulling an expression back along a projection
leaves it unchanged.

Vector fields along a projection map functions at the source order to
expressions at the target order; they act through left partial
derivatives, components multiplying from the left.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (
    GeneratorSymbol,
    Parity,
    SuperExpr,
    UndeclaredGenerator,
    parity_of,
    parity_product,
    partials,
    shift_derivative,
    sum_of_products,
)


class JetError(Exception):
    pass


class OrderExceeded(JetError):
    pass


class DomainMismatch(JetError):
    pass


@dataclass(frozen=True)
class Chart:
    """Coordinates of an order-k tangent chart over a graded base."""

    base_even: tuple[str, ...]
    base_odd: tuple[str, ...]
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("chart order must be non-negative")
        names = list(self.base_even) + list(self.base_odd)
        if len(set(names)) != len(names):
            raise ValueError("duplicate base coordinate name")

    @staticmethod
    def create(base_even: Sequence[str], base_odd: Sequence[str], order: int) -> "Chart":
        return _chart(tuple(base_even), tuple(base_odd), order)

    def at_order(self, order: int) -> "Chart":
        """The chart of ``order`` over the same base: this chart for its own
        order, otherwise the one shared chart of that value."""
        if order == self.order:
            return self
        return _chart(self.base_even, self.base_odd, order)

    def parity_of_name(self, name: str) -> Parity:
        if name in self.base_even:
            return Parity.EVEN
        if name in self.base_odd:
            return Parity.ODD
        raise UndeclaredGenerator(f"no base coordinate named {name!r}")

    def gen(self, name: str, jet_order: int) -> GeneratorSymbol:
        parity = self.parity_of_name(name)
        if not 0 <= jet_order <= self.order:
            raise OrderExceeded(
                f"{name}[{jet_order}] exceeds chart order {self.order}"
            )
        pool = self.base_even if parity is Parity.EVEN else self.base_odd
        return GeneratorSymbol(name, parity, pool.index(name), jet_order)

    def coord(self, name: str, jet_order: int) -> SuperExpr:
        return SuperExpr.generator(self.gen(name, jet_order))

    @functools.cached_property
    def _generators(self) -> tuple[tuple[GeneratorSymbol, ...], frozenset[GeneratorSymbol]]:
        # built on first use; ``_chart`` keeps one chart, so one tuple, per value
        gens = sorted(
            (self.gen(name, j) for name in self.base_names() for j in range(self.order + 1)),
            key=lambda g: g.sort_key,
        )
        return tuple(gens), frozenset(gens)

    def coordinates(self) -> tuple[GeneratorSymbol, ...]:
        """Every generator of the chart, sorted by ``sort_key``."""
        return self._generators[0]

    def coordinate_set(self) -> frozenset[GeneratorSymbol]:
        """The generators of the chart, for membership tests."""
        return self._generators[1]

    def base_names(self) -> tuple[str, ...]:
        return self.base_even + self.base_odd

    def validate(self, expr: SuperExpr) -> None:
        """Check that an expression uses only this chart's generators: one
        set lookup each, and one more for a generator that is not one of
        them, to tell a higher jet of this base from a foreign one."""
        members = self.coordinate_set()
        for g in expr.generators():
            if g in members:
                continue
            if g.shifted(-g.jet_order) not in members:
                raise UndeclaredGenerator(f"generator {g} does not belong to this chart")
            raise OrderExceeded(f"{g} exceeds jet order {self.order}")


@functools.cache
def _chart(base_even: tuple[str, ...], base_odd: tuple[str, ...], order: int) -> Chart:
    """The chart of ``order`` over a base, built (and its names checked)
    once per chart value.  Like the intern table of ``GeneratorSymbol``,
    the cache keeps one entry per distinct chart."""
    return Chart(base_even, base_odd, order)


total_derivative = shift_derivative


def iterated_total_derivative(expr: SuperExpr, times: int) -> SuperExpr:
    for _ in range(times):
        expr = total_derivative(expr)
    return expr


@dataclass(frozen=True)
class VectorFieldAlong:
    """A vector field along the projection T^target -> T^source.

    ``components`` assigns to each source coordinate its image, an
    expression on T^target.  The field acts on functions of the source
    coordinates by ``X(f) = sum components[x] * (d f / d x)`` with left
    partials.  An even field has components of each coordinate's parity,
    an odd field the opposite; zero components may be omitted.
    """

    chart: Chart
    source_order: int
    target_order: int
    components: Mapping[GeneratorSymbol, SuperExpr]
    parity: Parity = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.source_order > self.target_order:
            raise DomainMismatch("a field along a projection cannot lower the order")
        source = self.chart.at_order(self.source_order).coordinate_set()
        clean: dict[GeneratorSymbol, SuperExpr] = {}
        inferred: Parity | None = self.parity
        for gen, comp in self.components.items():
            if gen not in source:
                raise DomainMismatch(f"component on {gen}, not a T^{self.source_order} coordinate")
            if comp.is_zero():
                continue
            if comp.max_jet_order() > self.target_order:
                raise OrderExceeded(f"component on {gen} exceeds jet order {self.target_order}")
            comp_parity = parity_of(comp)  # raises MixedParity for bad input
            this = parity_product(comp_parity, gen.parity)
            if inferred is None:
                inferred = this
            elif inferred is not this:
                raise DomainMismatch("components do not share a parity")
            clean[gen] = comp
        if inferred is None:
            inferred = Parity.EVEN
        object.__setattr__(self, "components", clean)
        object.__setattr__(self, "parity", inferred)

    def component(self, gen: GeneratorSymbol) -> SuperExpr:
        return self.components.get(gen, SuperExpr.zero())

    def apply(self, f: SuperExpr) -> SuperExpr:
        """Act on a function of the source coordinates."""
        if f.max_jet_order() > self.source_order:
            raise DomainMismatch(
                f"argument of jet order {f.max_jet_order()} is not a function on T^{self.source_order}"
            )
        comps = self.components
        return sum_of_products((1, comps[gen], d) for gen, d in partials(f).items() if gen in comps)

    def __add__(self, other: "VectorFieldAlong") -> "VectorFieldAlong":
        if (self.chart.base_names(), self.source_order, self.target_order) != (
            other.chart.base_names(),
            other.source_order,
            other.target_order,
        ):
            raise DomainMismatch("cannot add fields along different projections")
        comps: dict[GeneratorSymbol, SuperExpr] = dict(self.components)
        for gen, comp in other.components.items():
            comps[gen] = comps.get(gen, SuperExpr.zero()) + comp
        return VectorFieldAlong(self.chart, self.source_order, self.target_order, comps)

    def scale(self, factor: SuperExpr | int | Fraction) -> "VectorFieldAlong":
        comps = {gen: factor * comp for gen, comp in self.components.items()}
        return VectorFieldAlong(self.chart, self.source_order, self.target_order, comps)


def total_derivative_field(chart: Chart, source_order: int) -> VectorFieldAlong:
    """The canonical field along T^(source+1) -> T^source whose action is
    the total time derivative: each coordinate maps to its successor."""
    comps = {
        gen: SuperExpr.generator(gen.shifted())
        for gen in chart.at_order(source_order).coordinates()
    }
    return VectorFieldAlong(chart, source_order, source_order + 1, comps, Parity.EVEN)


def lift_vector_field(x_field: VectorFieldAlong, l: int) -> VectorFieldAlong:
    """The l-th lift of a field along T^k -> base.

    The component on the j-th derivative of a base coordinate is the total
    derivative of the one on the (j-1)-th, l total derivatives in all per
    component; the result is a field along T^(k+l) -> T^l.
    """
    if x_field.source_order != 0:
        raise DomainMismatch("lifting is defined for fields along a projection to the base")
    if l < 0:
        raise ValueError("lift order must be non-negative")
    comps: dict[GeneratorSymbol, SuperExpr] = {}
    for base_gen, comp in x_field.components.items():
        comps[base_gen] = comp
        for j in range(1, l + 1):
            comp = total_derivative(comp)
            comps[base_gen.shifted(j)] = comp
    return VectorFieldAlong(x_field.chart, l, x_field.target_order + l, comps, x_field.parity)


def vertical_lift_field(x_field: VectorFieldAlong) -> VectorFieldAlong:
    """Vertical lift of a field along T^k -> T^(k-1) to a field on T^k.

    The subscript-j component, rescaled by (j+1), becomes the component on
    the subscript-(j+1) coordinate; bottom components vanish.
    """
    k = x_field.target_order
    if x_field.source_order != k - 1:
        raise DomainMismatch("vertical lift expects a field along T^k -> T^(k-1)")
    comps = {
        gen.shifted(): (gen.jet_order + 1) * comp
        for gen, comp in x_field.components.items()
    }
    return VectorFieldAlong(x_field.chart, k, k, comps, x_field.parity)


def liouville_field(chart: Chart, k: int) -> VectorFieldAlong:
    """The dilation field on T^k: the vertical lift of the canonical total
    derivative field along T^k -> T^(k-1)."""
    if k < 1:
        raise OrderExceeded("the dilation field needs order k >= 1")
    return vertical_lift_field(total_derivative_field(chart, k - 1))


def vertical_endomorphism(y_field: VectorFieldAlong) -> VectorFieldAlong:
    """Shift a field on T^k one level up the jet tower.

    Composing with the projection to T^(k-1) drops the top components,
    then the vertical lift raises every subscript by one.  Nilpotent of
    order k+1.
    """
    if y_field.source_order != y_field.target_order:
        raise DomainMismatch("the vertical endomorphism acts on fields on T^k")
    k = y_field.source_order
    if k < 1:
        raise OrderExceeded("the vertical endomorphism needs order k >= 1")
    restricted = {
        gen: comp for gen, comp in y_field.components.items() if gen.jet_order <= k - 1
    }
    along = VectorFieldAlong(y_field.chart, k - 1, k, restricted, y_field.parity)
    return vertical_lift_field(along)
