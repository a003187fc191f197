"""An oracle for the odd sector outside the package's own algebra: the
Grassmann envelope and sympy's calculus in t.

With n Grassmann constants xi_0, ..., xi_(n-1), the envelope replaces each
coordinate x by ``sum_I x_I(t) xi^I`` over the index sets I of x's parity
(``xi^I`` the product of the xi_i, i in I, in increasing order), where the
x_I are ordinary functions of t.  The envelope of the Lagrangian is
``sum_I L_I xi^I``, and its top coefficient L_top (that of
``xi_0 ... xi_(n-1)``) is an ordinary Lagrangian in the x_I.  Varying x_I
by ``eps(t) xi^I`` varies the envelope of L by ``sum_a env(E_a) eps xi^I``
up to a total derivative, with E_a the coefficient of ``d x_a`` (on the
left, as the package writes it) in the variational one-form.  So, with
``xi^I`` on the right of ``env(E_a)``:

    Euler-Lagrange of L_top in x_I  ==  top coefficient of env(E_a) xi^I

for every coordinate a and every I of a's parity, and the energy obeys
top(env(E_L)) == the Ostrogradski energy of L_top in all the x_I.  The
Grassmann products are written out here, one sign per merge, and sympy
does the calculus in t.
"""

import itertools
import random

import pytest

sympy = pytest.importorskip("sympy")

from supermech import Chart, Parity, SuperLagrangian, cartan_data  # noqa: E402

from helpers import random_expr  # noqa: E402

t = sympy.Symbol("t")
EVEN, ODD = ("q",), ("th", "ps")


def product(a, b):
    """The product of two envelope elements, each a dict from sorted index
    tuples I to the ordinary coefficient of ``xi^I``."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            if set(i) & set(j):
                continue
            word = i + j
            inversions = sum(1 for s, u in itertools.combinations(word, 2) if s > u)
            key = tuple(sorted(word))
            out[key] = out.get(key, 0) + (-1) ** inversions * x * y
    return out


def envelope(expr, components):
    """The envelope of a ``SuperExpr``: each generator name[j] becomes the
    j-th time derivative of its envelope."""
    total = {}
    for (even, odd), coeff in expr.items():
        term = {(): sympy.Rational(coeff.numerator, coeff.denominator)}
        factors = [g for g, e in even for _ in range(e)] + list(odd)
        for gen in factors:
            term = product(term, {
                index: sympy.diff(function, t, gen.jet_order)
                for index, function in components[gen.name].items()
            })
        for key, value in term.items():
            total[key] = total.get(key, 0) + value
    return total


def corpus():
    """Fixed-seed random Lagrangians with at least one term that has odd
    factors: three per order 1 and 2 and two of order 3 at n=2, one per
    order 1 and 2 at n=4.  Order 3 is the only case that reaches S*^3 and
    the second total derivative in the Cartan operator."""
    cases = []
    for n, order, per_order in ((2, 1, 3), (2, 2, 3), (2, 3, 2), (4, 1, 1), (4, 2, 1)):
        chart = Chart.create(list(EVEN), list(ODD), order)
        rng = random.Random(900 + 10 * n + order)
        count = 0
        while count < per_order:
            expr = random_expr(rng, chart, order, 3, 4, Parity.EVEN)
            if expr.max_jet_order() == order and any(odd for (_, odd), _ in expr.items()):
                lag = SuperLagrangian(chart, expr)
                cases.append(pytest.param(n, lag, id=f"n{n}-k{order}-{count}"))
                count += 1
    return cases


@pytest.mark.parametrize("n, lag", corpus())
def test_field_equations_and_energy_match_the_top_coefficient(n, lag):
    top = tuple(range(n))
    components = {
        name: {
            index: sympy.Function(f"{name}_{''.join(map(str, index))}")(t)
            for size in range(n + 1)
            if size % 2 == parity
            for index in itertools.combinations(range(n), size)
        }
        for names, parity in ((EVEN, 0), (ODD, 1))
        for name in names
    }
    l_top = sympy.expand(envelope(lag.expr, components).get(top, 0))
    data = cartan_data(lag)
    k = lag.order
    for name, functions in components.items():
        field_equation = envelope(data.delta_check.component(lag.chart.gen(name, 0)), components)
        for index, f in functions.items():
            euler_lagrange = sum(
                (-1) ** j * sympy.diff(l_top.diff(sympy.diff(f, t, j)), t, j)
                for j in range(k + 1)
            )
            expected = product(field_equation, {index: 1}).get(top, 0)
            assert sympy.expand(euler_lagrange - expected) == 0, (name, index)

    energy = -l_top
    for f in (f for functions in components.values() for f in functions.values()):
        for i in range(1, k + 1):
            momentum = sum(
                (-1) ** j * sympy.diff(l_top.diff(sympy.diff(f, t, i + j)), t, j)
                for j in range(k - i + 1)
            )
            energy += momentum * sympy.diff(f, t, i)
    assert sympy.expand(envelope(data.energy, components).get(top, 0) - energy) == 0
