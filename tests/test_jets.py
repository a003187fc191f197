"""Higher tangent charts, total derivatives, lifts, and the vertical
endomorphism."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supermech import (
    Chart,
    DomainMismatch,
    GeneratorSymbol,
    OrderExceeded,
    Parity,
    SuperExpr,
    UndeclaredGenerator,
    VectorFieldAlong,
    iterated_total_derivative,
    jets,
    lift_vector_field,
    liouville_field,
    parity_of,
    partials,
    total_derivative,
    total_derivative_field,
    vertical_endomorphism,
    vertical_lift_field,
)

from helpers import parity_part, random_expr, random_field

CHART = Chart.create(["q"], ["th"], 6)


def coord(name, j):
    return CHART.coord(name, j)


def gen(name, j):
    return CHART.gen(name, j)


# -- charts ----------------------------------------------------------------


def test_chart_coordinates_are_sorted():
    small = Chart.create(["q"], ["th"], 1)
    assert [str(g) for g in small.coordinates()] == ["q[0]", "q[1]", "th[0]", "th[1]"]


@st.composite
def charts(draw):
    names = draw(st.permutations(["q", "r", "x", "th", "ps", "chi"]))[: draw(st.integers(1, 6))]
    split = draw(st.integers(0, len(names)))
    return Chart.create(names[:split], names[split:], draw(st.integers(0, 4)))


@given(charts())
def test_chart_coordinates_match_the_explicit_construction(chart):
    explicit = sorted(
        (
            GeneratorSymbol(name, parity, index, j)
            for parity, pool in ((Parity.EVEN, chart.base_even), (Parity.ODD, chart.base_odd))
            for index, name in enumerate(pool)
            for j in range(chart.order + 1)
        ),
        key=lambda g: g.sort_key,
    )
    assert chart.coordinates() == tuple(explicit)
    assert chart.coordinate_set() == set(explicit)
    # an equal chart shares them
    twin = Chart.create(list(chart.base_even), list(chart.base_odd), chart.order)
    assert twin.coordinates() is chart.coordinates()


def test_a_chart_keeps_one_coordinate_tuple():
    chart = Chart.create(["q", "r"], ["th"], 2)
    first = chart.coordinates()
    assert chart.coordinates() is first
    assert chart.coordinate_set() is chart.coordinate_set()
    assert Chart.create(("q", "r"), ["th"], 2).coordinates() is first
    assert chart.at_order(0).at_order(2).coordinates() is first


@given(charts(), st.data())
def test_field_components_must_lie_in_the_source_chart(chart, data):
    source = data.draw(st.integers(0, chart.order))
    gen = data.draw(st.sampled_from(chart.at_order(source).coordinates()))
    one = SuperExpr.constant(1)
    assert VectorFieldAlong(chart, source, source + 1, {gen: one}).components == {gen: one}
    outside = [
        gen.shifted(source + 1 - gen.jet_order),
        GeneratorSymbol("z", gen.parity, gen.base_index, gen.jet_order),
        GeneratorSymbol(gen.name, gen.parity, gen.base_index + 1, gen.jet_order),
    ]
    for stranger in outside:
        with pytest.raises(DomainMismatch):
            VectorFieldAlong(chart, source, source + 1, {stranger: one})


def test_chart_rejects_duplicates_and_bad_orders():
    with pytest.raises(ValueError):
        Chart.create(["q"], ["q"], 1)
    with pytest.raises(ValueError):
        Chart.create(["q"], [], -1)
    with pytest.raises(OrderExceeded):
        CHART.at_order(1).gen("q", 2)
    with pytest.raises(UndeclaredGenerator):
        CHART.parity_of_name("x")


def test_chart_validate():
    small = CHART.at_order(1)
    small.validate(coord("q", 1) ** 2)
    with pytest.raises(OrderExceeded):
        small.validate(coord("q", 2))
    other = Chart.create(["x"], [], 1)
    with pytest.raises(UndeclaredGenerator):
        small.validate(other.coord("x", 0))
    # a generator of this base above the order, and foreign generators
    # that share a name with a base coordinate but not its parity or its
    # place in the base, each with its message
    with pytest.raises(OrderExceeded, match=r"^q\[5\] exceeds jet order 1$"):
        small.validate(coord("q", 1) * coord("q", 5))
    foreign = [Chart.create([], ["q"], 2).coord("q", 0), Chart.create(["p", "q"], [], 2).coord("q", 2)]
    for expr in foreign:
        with pytest.raises(UndeclaredGenerator, match=r"^generator q\[[02]\] does not belong to this chart$"):
            small.validate(expr)


# -- total derivative ------------------------------------------------------


def test_total_derivative_examples():
    assert total_derivative(coord("q", 0)) == coord("q", 1)
    assert total_derivative(coord("q", 0) ** 2) == 2 * coord("q", 0) * coord("q", 1)
    # T(th0*th1) = th1*th1 + th0*th2 and the first term dies
    assert total_derivative(coord("th", 0) * coord("th", 1)) == coord("th", 0) * coord(
        "th", 2
    )
    assert total_derivative(SuperExpr.constant(5)).is_zero()


def test_total_derivative_is_an_even_derivation():
    rng = random.Random(201)
    for _ in range(30):
        a = random_expr(rng, CHART, 3, 3, 3)
        b = random_expr(rng, CHART, 3, 3, 3)
        assert total_derivative(a * b) == total_derivative(a) * b + a * total_derivative(b)
        if not a.is_zero() and not total_derivative(a).is_zero():
            for part in (parity_part(a, Parity.EVEN), parity_part(a, Parity.ODD)):
                if not part.is_zero() and not total_derivative(part).is_zero():
                    assert parity_of(total_derivative(part)) is parity_of(part)


def test_total_derivative_makes_no_product(monkeypatch):
    # every factor turns into its successor in place: a dense expression
    # in the 12 generators of order 0..5 takes no product of expressions
    gens = CHART.at_order(5).coordinates()
    linear = SuperExpr.sum(SuperExpr.generator(g) * (i + 1) for i, g in enumerate(gens))
    dense = linear * linear * linear + linear * SuperExpr.generator(gens[-1])
    calls = []
    real = SuperExpr.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(SuperExpr, "__mul__", counted)
    derivative = total_derivative(dense)
    assert not calls
    monkeypatch.undo()
    # T is an even derivation
    t, top = total_derivative(linear), SuperExpr.generator(gens[-1])
    assert derivative == (
        t * linear * linear + linear * t * linear + linear * linear * t
        + t * top + linear * SuperExpr.generator(gens[-1].shifted())
    )


def test_iterated_total_derivative():
    assert iterated_total_derivative(coord("q", 0), 3) == coord("q", 3)
    assert iterated_total_derivative(coord("q", 0) ** 2, 2) == (
        2 * coord("q", 1) ** 2 + 2 * coord("q", 0) * coord("q", 2)
    )


# -- vector fields along projections ---------------------------------------


def test_field_parity_inference():
    x = VectorFieldAlong(CHART, 0, 1, {gen("q", 0): coord("th", 0)})
    assert x.parity is Parity.ODD
    y = VectorFieldAlong(CHART, 0, 1, {gen("q", 0): coord("q", 1)})
    assert y.parity is Parity.EVEN
    empty = VectorFieldAlong(CHART, 0, 1, {})
    assert empty.parity is Parity.EVEN


def test_field_rejects_bad_components():
    with pytest.raises(DomainMismatch):
        # mixed parities across components
        VectorFieldAlong(
            CHART, 0, 1, {gen("q", 0): coord("q", 0), gen("th", 0): coord("q", 0)}
        )
    with pytest.raises(DomainMismatch):
        # component on a coordinate outside the source chart
        VectorFieldAlong(CHART, 0, 1, {gen("q", 1): coord("q", 0)})
    with pytest.raises(OrderExceeded):
        # component living above the target order
        VectorFieldAlong(CHART, 0, 1, {gen("q", 0): coord("q", 2)})
    with pytest.raises(DomainMismatch):
        VectorFieldAlong(CHART, 2, 1, {})


def test_field_apply_and_domain():
    x = VectorFieldAlong(CHART, 1, 1, {gen("q", 0): coord("q", 1), gen("q", 1): -coord("q", 0)})
    assert x.apply(coord("q", 0) * coord("q", 1)) == coord("q", 1) ** 2 - coord("q", 0) ** 2
    with pytest.raises(DomainMismatch):
        x.apply(coord("q", 2))


def test_field_apply_graded_derivation_randomized():
    rng = random.Random(202)
    for _ in range(30):
        parity = rng.choice(list(Parity))
        x = random_field(rng, CHART, 2, 3, parity)
        if x is None:
            continue
        f = random_expr(rng, CHART, 2, 2, 3, rng.choice(list(Parity)))
        g = random_expr(rng, CHART, 2, 2, 3)
        if f.is_zero():
            continue
        sign = (-1) ** (x.parity.value * parity_of(f).value)
        assert x.apply(f * g) == x.apply(f) * g + sign * (f * x.apply(g))


def test_field_apply_takes_the_partials_once(monkeypatch):
    # one sweep over the argument's terms gives every partial it needs
    calls = []

    def counted(expr):
        calls.append(expr)
        return partials(expr)

    monkeypatch.setattr(jets, "partials", counted)
    x = VectorFieldAlong(CHART, 1, 2, {gen("q", 0): coord("q", 1), gen("th", 1): coord("th", 2)})
    f = coord("q", 0) ** 2 * coord("th", 0) * coord("th", 1) + coord("q", 1)
    assert x.apply(f) == 2 * coord("q", 0) * coord("q", 1) * coord("th", 0) * coord("th", 1) + (
        coord("q", 0) ** 2 * coord("th", 0) * coord("th", 2)
    )
    assert len(calls) == 1


def basis_field(order, g):
    """The coordinate field d/dg on T^order."""
    return VectorFieldAlong(CHART.at_order(order), order, order, {g: SuperExpr.constant(1)})


def test_field_addition_and_scaling():
    x = basis_field(1, gen("q", 0))
    y = basis_field(1, gen("q", 1))
    both = x + y
    assert both.component(gen("q", 0)) == SuperExpr.constant(1)
    assert both.component(gen("q", 1)) == SuperExpr.constant(1)
    assert x.scale(3).apply(coord("q", 0)) == SuperExpr.constant(3)
    with pytest.raises(DomainMismatch):
        x + basis_field(2, gen("q", 0))


def test_total_derivative_field_matches_total_derivative():
    rng = random.Random(203)
    t_field = total_derivative_field(CHART, 3)
    for _ in range(20):
        f = random_expr(rng, CHART, 3, 3, 3)
        assert t_field.apply(f) == total_derivative(f)


# -- lifts -----------------------------------------------------------------


def test_lift_vector_field_components():
    x = VectorFieldAlong(CHART, 0, 0, {gen("q", 0): coord("q", 0) ** 2})
    lifted = lift_vector_field(x, 2)
    assert lifted.source_order == 2 and lifted.target_order == 2
    assert lifted.component(gen("q", 0)) == coord("q", 0) ** 2
    assert lifted.component(gen("q", 1)) == 2 * coord("q", 0) * coord("q", 1)
    assert lifted.component(gen("q", 2)) == (
        2 * coord("q", 1) ** 2 + 2 * coord("q", 0) * coord("q", 2)
    )


@pytest.mark.parametrize("l", [1, 2, 3])
def test_lift_takes_one_total_derivative_per_level(l, monkeypatch):
    calls = []

    def counted(expr):
        calls.append(expr)
        return total_derivative(expr)

    monkeypatch.setattr(jets, "total_derivative", counted)
    x = VectorFieldAlong(CHART, 0, 0, {gen("q", 0): coord("q", 0) ** 2})
    lifted = lift_vector_field(x, l)
    assert len(calls) == l
    for j in range(l + 1):
        assert lifted.component(gen("q", j)) == iterated_total_derivative(coord("q", 0) ** 2, j)


def test_lift_requires_base_source():
    x = VectorFieldAlong(CHART, 1, 1, {gen("q", 0): coord("q", 1)})
    with pytest.raises(DomainMismatch):
        lift_vector_field(x, 1)


def test_lift_intertwines_total_derivative():
    # on functions of T^l: T(X^(l) f) = X^(l+1)(T f)
    rng = random.Random(204)
    for _ in range(15):
        parity = rng.choice(list(Parity))
        x = random_field(rng, CHART, 0, 0, parity)
        if x is None:
            continue
        l = rng.randint(0, 2)
        f = random_expr(rng, CHART, l, 2, 3)
        lhs = total_derivative(lift_vector_field(x, l).apply(f))
        rhs = lift_vector_field(x, l + 1).apply(total_derivative(f))
        assert lhs == rhs


# -- vertical structures ---------------------------------------------------


def test_vertical_lift_field_shifts_and_weights():
    t_field = total_derivative_field(CHART, 1)
    lifted = vertical_lift_field(t_field)
    assert lifted.component(gen("q", 1)) == coord("q", 1)
    assert lifted.component(gen("q", 2)) == 2 * coord("q", 2)
    assert lifted.component(gen("q", 0)).is_zero()
    with pytest.raises(DomainMismatch):
        vertical_lift_field(basis_field(1, gen("q", 0)))


def test_liouville_field_components():
    delta = liouville_field(CHART.at_order(2), 2)
    expected = {
        gen("q", 1): coord("q", 1),
        gen("q", 2): 2 * coord("q", 2),
        gen("th", 1): coord("th", 1),
        gen("th", 2): 2 * coord("th", 2),
    }
    assert dict(delta.components) == expected


def test_vertical_endomorphism_nilpotency():
    rng = random.Random(205)
    for k in (1, 2, 3):
        for _ in range(5):
            y = random_field(rng, CHART, k, k, rng.choice(list(Parity)))
            if y is None:
                continue
            power = y
            for _ in range(k + 1):
                power = vertical_endomorphism(power)
            assert not power.components


def test_vertical_endomorphism_sends_sode_to_liouville():
    # a second-order field on T^1: q0 -> q1, q1 -> force
    chart = CHART.at_order(1)
    sode = VectorFieldAlong(
        chart,
        1,
        1,
        {gen("q", 0): coord("q", 1), gen("q", 1): -coord("q", 0),
         gen("th", 0): coord("th", 1), gen("th", 1): coord("th", 0) * 0},
    )
    assert dict(vertical_endomorphism(sode).components) == dict(
        liouville_field(chart, 1).components
    )
