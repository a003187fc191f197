"""An oracle outside the package's own algebra: sympy's Euler-Lagrange
equations and the Ostrogradski energy, computed from the Lagrangian with
ordinary calculus in t, for even-only Lagrangians of order 1 to 3."""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.calculus.euler import euler_equations  # noqa: E402

from supermech import Chart, Parity, SuperLagrangian, cartan_data  # noqa: E402

from helpers import random_expr  # noqa: E402

t = sympy.Symbol("t")
NAMES = ("q", "p")


def to_sympy(expr, functions):
    """A ``SuperExpr`` with even generators only, with ``name[j]`` read
    as the j-th derivative of ``name(t)``."""
    total = sympy.Integer(0)
    for (even, odd), coeff in expr.items():
        assert not odd
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for gen, exponent in even:
            term *= sympy.diff(functions[gen.name], t, gen.jet_order) ** exponent
        total += term
    return total


def ostrogradski_energy(lagrangian, functions, order):
    """sum over coordinates and i = 1..k of p_i * q^(i), minus L, with the
    momenta p_i = sum over j of (-d/dt)^j dL/dq^(i+j)."""
    energy = -lagrangian
    for function in functions.values():
        for i in range(1, order + 1):
            momentum = sum(
                (-1) ** j
                * sympy.diff(lagrangian.diff(sympy.diff(function, t, i + j)), t, j)
                for j in range(order - i + 1)
            )
            energy += momentum * sympy.diff(function, t, i)
    return energy


def corpus():
    """Fixed-seed random Lagrangians on two even coordinates, four per
    order, degree at most three."""
    cases = []
    for order in (1, 2, 3):
        chart = Chart.create(list(NAMES), [], order)
        rng = random.Random(700 + order)
        count = 0
        while count < 4:
            expr = random_expr(rng, chart, order, 3, 4, Parity.EVEN)
            if expr.max_jet_order() == order:
                lag = SuperLagrangian(chart, expr)
                cases.append(pytest.param(order, lag, id=f"k{order}-{count}"))
                count += 1
    return cases


@pytest.mark.parametrize("order, lag", corpus())
def test_field_equations_and_energy_match_sympy(order, lag):
    functions = {name: sympy.Function(name)(t) for name in NAMES}
    lagrangian = to_sympy(lag.expr, functions)
    data = cartan_data(lag)
    equations = dict(zip(NAMES, euler_equations(lagrangian, list(functions.values()), t)))
    for gen in lag.chart.at_order(0).coordinates():
        ours = to_sympy(data.delta_check.component(gen), functions)
        equation = equations[gen.name]
        assert sympy.expand(ours - (equation.lhs - equation.rhs)) == 0, gen
    expected = ostrogradski_energy(lagrangian, functions, order)
    assert sympy.expand(to_sympy(data.energy, functions) - expected) == 0
