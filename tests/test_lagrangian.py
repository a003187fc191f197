"""The derived data of a Lagrangian: momentum forms, energy, field
equations, regularity, and the solved dynamics."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from supermech import (
    Chart,
    GradedForm,
    LagrangianError,
    NotRegular,
    OrderExceeded,
    Parity,
    Regularity,
    SuperExpr,
    SuperLagrangian,
    cartan_data,
    cartan_one_form,
    cartan_operator,
    check_constant_of_motion,
    conservation_witness,
    exterior_d,
    interior,
    is_sode,
    liouville_field,
    parse_problem,
    regularity,
    semibasic_check,
    solve_dynamics,
    total_derivative,
    total_derivative_field,
    transpose_vertical,
    variational_derivative,
)
from supermech import algebra, forms, jets, lagrangian
from supermech.algebra import normalize
from supermech.lagrangian import NoWitness, _affine_split, _homotopy, _mat_vec, check_symmetry

from helpers import random_expr, reference_on_shell, reference_variational_derivative

PROBLEMS = Path(__file__).parent.parent / "problems"


def make(even, odd, order, build):
    chart = Chart.create(even, odd, order)
    return SuperLagrangian(chart, build(chart))


def oscillator():
    return make(["q"], [], 1, lambda c: (
        Fraction(1, 2) * c.coord("q", 1) ** 2 - Fraction(1, 2) * c.coord("q", 0) ** 2
    ))


def free_particle():
    return make(["q"], [], 1, lambda c: Fraction(1, 2) * c.coord("q", 1) ** 2)


def superparticle():
    return make(["q"], ["th"], 1, lambda c: (
        Fraction(1, 2) * c.coord("q", 1) ** 2
        + Fraction(1, 2) * c.coord("th", 0) * c.coord("th", 1)
    ))


def second_order_chain():
    return make(["q"], [], 2, lambda c: Fraction(1, 2) * c.coord("q", 2) ** 2)


# -- construction ----------------------------------------------------------


def test_lagrangian_validates_order_and_parity():
    chart = Chart.create(["q"], ["th"], 1)
    assert SuperLagrangian(chart, chart.coord("q", 1) ** 2).order == 1
    with pytest.raises(OrderExceeded):
        SuperLagrangian(chart.at_order(0), chart.coord("q", 1))
    with pytest.raises(LagrangianError):
        SuperLagrangian(chart, chart.coord("th", 0))
    with pytest.raises(OrderExceeded):
        SuperLagrangian(chart.at_order(0), chart.coord("q", 0))


# -- variational derivative ------------------------------------------------


def test_variational_derivative_oscillator():
    lag = oscillator()
    wide = lag.chart.at_order(2)
    vd = variational_derivative(lag.expr, wide.gen("q", 0))
    assert vd == -wide.coord("q", 0) - wide.coord("q", 2)


def test_variational_derivative_kills_total_derivatives():
    chart = Chart.create(["q"], ["th"], 2)
    for f in (chart.coord("q", 0) ** 3, chart.coord("q", 0) * chart.coord("th", 0)):
        exact = total_derivative(f)
        for base in chart.at_order(0).coordinates():
            assert variational_derivative(exact, base).is_zero()


# -- canonical systems, frozen ---------------------------------------------


def test_oscillator_cartan_package():
    lag = oscillator()
    data = cartan_data(lag)
    assert str(data.theta) == "q[1]*d(q[0])"
    assert str(data.omega) == "d(q[0])^d(q[1])"
    assert str(data.energy) == "1/2*q[0]^2 + 1/2*q[1]^2"
    assert str(data.delta) == "(-q[0] - q[2])*d(q[0])"


def test_superparticle_cartan_package():
    lag = superparticle()
    data = cartan_data(lag)
    assert str(data.theta) == "q[1]*d(q[0]) + 1/2*th[0]*d(th[0])"
    assert str(data.omega) == "d(q[0])^d(q[1]) - 1/2*d(th[0])^d(th[0])"
    assert str(data.energy) == "1/2*q[1]^2"
    assert str(data.delta) == "-q[2]*d(q[0]) - th[1]*d(th[0])"
    assert cartan_one_form(lag) == data.theta


def test_second_order_chain_cartan_package():
    lag = second_order_chain()
    data = cartan_data(lag)
    assert str(data.theta) == "-q[3]*d(q[0]) + q[2]*d(q[1])"
    assert str(data.energy) == "-q[1]*q[3] + 1/2*q[2]^2"
    assert str(data.delta) == "q[4]*d(q[0])"


# -- structural identities -------------------------------------------------


@pytest.mark.parametrize(
    "build", [oscillator, free_particle, superparticle, second_order_chain]
)
def test_structural_identities(build):
    lag = build()
    k = lag.order
    data = cartan_data(lag)
    assert exterior_d(data.omega).is_zero()
    # the field equations equal i_T Omega - dE
    t_field = total_derivative_field(lag.chart, 2 * k - 1)
    chain = interior(t_field, data.omega) - exterior_d(
        GradedForm({(): data.energy})
    )
    assert chain == data.delta
    # momentum form is semibasic at level k-1, field equations at level 0
    semibasic_check(data.theta, k - 1)
    semibasic_check(data.delta, 0)


# -- regularity ------------------------------------------------------------


def test_regularity_verdicts():
    assert regularity(superparticle()).verdict is Regularity.REGULAR
    assert regularity(oscillator()).verdict is Regularity.REGULAR
    assert regularity(second_order_chain()).verdict is Regularity.REGULAR

    linear = make(["q"], [], 1, lambda c: c.coord("q", 1))
    assert regularity(linear).verdict is Regularity.DEGENERATE

    coupled = make(["q"], [], 1, lambda c: (
        Fraction(1, 2) * c.coord("q", 0) ** 2 * c.coord("q", 1) ** 2
    ))
    assert regularity(coupled).verdict is Regularity.INDETERMINATE


def test_solve_dynamics_refuses_non_regular():
    linear = make(["q"], [], 1, lambda c: c.coord("q", 1))
    with pytest.raises(NotRegular) as info:
        solve_dynamics(linear)
    assert info.value.report.verdict is Regularity.DEGENERATE


# -- solved dynamics -------------------------------------------------------


def test_oscillator_dynamics():
    lag = oscillator()
    dyn = solve_dynamics(lag)
    wide = lag.chart.at_order(2)
    assert dict(dyn.forces) == {wide.gen("q", 2): -wide.coord("q", 0)}
    assert not dyn.constraints
    field = dyn.field()
    assert field.parity is Parity.EVEN
    assert is_sode(field)
    assert field.component(wide.gen("q", 0)) == wide.coord("q", 1)
    assert field.component(wide.gen("q", 1)) == -wide.coord("q", 0)


def test_superparticle_dynamics():
    lag = superparticle()
    dyn = solve_dynamics(lag)
    chart = lag.chart
    assert {str(g): str(e) for g, e in dyn.forces.items()} == {
        "q[2]": "0",
        "th[2]": "0",
    }
    assert {str(g): str(e) for g, e in dyn.constraints.items()} == {"th[1]": "0"}
    assert is_sode(dyn.field())
    # reduction substitutes the constraints
    assert dyn.reduce(chart.coord("th", 1) * chart.coord("q", 1)).is_zero()


def test_second_order_chain_dynamics():
    lag = second_order_chain()
    dyn = solve_dynamics(lag)
    wide = lag.chart.at_order(4)
    assert dict(dyn.forces) == {wide.gen("q", 4): SuperExpr.zero()}
    assert is_sode(dyn.field())


def test_dynamics_with_a_polynomial_body_matrix():
    # the body matrix [[1, y[0]], [y[0], 1 + y[0]^2]] has determinant 1
    # and an adjugate with polynomial entries
    lag = parse_problem(
        "order 1; even x, y; L = 1/2*x[1]^2 + y[0]*x[1]*y[1] + 1/2*y[1]^2"
        " + 1/2*y[0]^2*y[1]^2 - 1/2*x[0]^2 - 1/2*y[0]^2;"
    ).lagrangian()
    report = regularity(lag)
    assert report.verdict is Regularity.REGULAR
    assert report.determinants == (SuperExpr.constant(1),)
    dyn = solve_dynamics(lag)
    assert {str(g): str(e) for g, e in dyn.forces.items()} == {
        "x[2]": "-x[0] - x[0]*y[0]^2 + y[0]^2 - y[1]^2",
        "y[2]": "x[0]*y[0] - y[0]",
    }


def test_on_shell_resolves_forces_and_constraints_in_one_loop():
    # the odd forces contain the constrained velocities th0[1] and th1[1]
    lag = parse_problem(
        "order 1; even x0, x1; odd th0, th1; L = 1/2*x0[1]^2 + 1/2*x1[1]^2"
        " + 1/2*th0[0]*th0[1] + 1/2*th1[0]*th1[1] + x0[0]*th0[0]*th1[0];"
    ).lagrangian()
    dyn = solve_dynamics(lag)
    assert {str(g) for g in dyn.constraints} == {"th0[1]", "th1[1]"}
    assert "th1[1]" in str(dyn.forces[lag.chart.at_order(2).gen("th0", 2)])
    rng = random.Random(13)
    for _ in range(40):
        expr = random_expr(rng, lag.chart, 2, 3, 5)
        assert dyn.on_shell(expr) == reference_on_shell(dyn, expr)


@pytest.mark.parametrize(
    "build", [oscillator, free_particle, superparticle, second_order_chain]
)
def test_dynamics_satisfy_field_equations(build):
    lag = build()
    data = cartan_data(lag)
    dyn = solve_dynamics(lag, data)
    # every field-equation component vanishes after substituting the motion
    for base in lag.chart.at_order(0).coordinates():
        assert dyn.on_shell(data.delta_check.component(base)).is_zero()
    # the solved field satisfies the symplectic equation modulo constraints
    residual = dyn.reduce_form(
        interior(dyn.field(), data.omega)
        - exterior_d(GradedForm({(): data.energy}))
    )
    assert residual.is_zero()


def test_is_sode_rejects_the_dilation_field():
    chart = Chart.create(["q"], [], 1)
    assert not is_sode(liouville_field(chart, 1))


def test_check_constant_of_motion():
    lag = oscillator()
    dyn = solve_dynamics(lag)
    chart = lag.chart
    e = cartan_data(lag).energy
    assert check_constant_of_motion(e, dyn)
    assert not check_constant_of_motion(chart.coord("q", 0), dyn)


# -- conservation witnesses ------------------------------------------------


def test_witness_for_oscillator_energy():
    lag = oscillator()
    chart = lag.chart
    e = cartan_data(lag).energy
    witness = conservation_witness(e, lag)
    assert dict(witness.components) == {chart.gen("q", 0): chart.coord("q", 1)}
    assert witness.parity is Parity.EVEN


def test_witness_for_free_particle_momentum():
    lag = free_particle()
    chart = lag.chart
    witness = conservation_witness(chart.coord("q", 1), lag)
    assert dict(witness.components) == {chart.gen("q", 0): SuperExpr.constant(1)}


def test_witness_of_zero_is_the_zero_field():
    lag = free_particle()
    witness = conservation_witness(SuperExpr.zero(), lag)
    assert not witness.components
    assert witness.parity is Parity.EVEN


def test_no_witness_for_non_conserved_quantity():
    lag = free_particle()
    chart = lag.chart
    with pytest.raises(NoWitness):
        conservation_witness(chart.coord("q", 0), lag)


def test_witness_for_susy_charge_is_odd():
    lag = superparticle()
    chart = lag.chart
    charge = chart.coord("q", 1) * chart.coord("th", 0)
    witness = conservation_witness(charge, lag)
    assert witness.parity is Parity.ODD
    assert witness.component(chart.gen("q", 0)) == chart.coord("th", 0)
    assert witness.component(chart.gen("th", 0)) == -chart.coord("q", 1)


def test_non_conserved_quantity_is_decided_at_its_own_degree():
    # the search would run to degree 2 + 2k = 4; the dynamics show at
    # degree 2 that q[0]^2 is not conserved
    lag = oscillator()
    with pytest.raises(NoWitness, match="not constant along the dynamics"):
        conservation_witness(lag.chart.coord("q", 0) ** 2, lag)


def test_without_regular_dynamics_the_search_ends_at_its_degree_bound():
    # r has no velocity, so the system is not regular and no conservation
    # check ends the search early: it runs to deg q[0] + 2k = 3
    lag = make(["q", "r"], [], 1, lambda c: (
        Fraction(1, 2) * c.coord("q", 1) ** 2 + c.coord("r", 0) ** 2
    ))
    assert cartan_data(lag).regularity.verdict is Regularity.DEGENERATE
    with pytest.raises(NoWitness, match="degree <= 3$"):
        conservation_witness(lag.chart.coord("q", 0), lag)


# -- generating functions --------------------------------------------------

_JET = Chart.create(["x", "y"], ["a", "b"], 3)

# a factor is a base coordinate and a jet order; a term has 1 to 3 factors,
# so the polynomial has no constant term
_TERMS = st.lists(
    st.tuples(
        st.integers(-3, 3).filter(bool),
        st.integers(1, 3),
        st.lists(st.tuples(st.sampled_from("xyab"), st.integers(0, 3)), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=4,
)


def _polynomial(terms):
    return normalize(
        (Fraction(num, den), [_JET.gen(name, order) for name, order in factors])
        for num, den, factors in terms
    )


@given(_TERMS)
@example([(1, 1, [("a", 0), ("b", 1)]), (1, 2, [("x", 1), ("x", 2)])])
def test_homotopy_operator_inverts_the_total_derivative(terms):
    f = _polynomial(terms)
    derivatives, integral = _homotopy(total_derivative(f))
    assert integral == f
    assert all(vd.is_zero() for vd in derivatives.values())


@given(_TERMS)
def test_variational_derivative_matches_the_sum_of_iterated_derivatives(terms):
    f = _polynomial(terms)
    for base in _JET.at_order(0).coordinates():
        assert variational_derivative(f, base) == reference_variational_derivative(f, base)


@pytest.mark.parametrize(
    "problem, symmetry, generating",
    [
        ("oscillator", "time", "-1/2*q[0]^2 + 1/2*q[1]^2"),
        ("ostrogradski", "shift", "0"),
        ("superparticle", "susy", "1/2*q[1]*theta[0]"),
        ("superparticle", "time", "1/2*theta[0]*theta[1] + 1/2*q[1]^2"),
    ],
)
def test_generating_functions_of_the_shipped_symmetries(problem, symmetry, generating):
    spec = parse_problem((PROBLEMS / f"{problem}.sm").read_text(encoding="utf-8"))
    assert str(check_symmetry(spec.symmetry_field(symmetry), spec.lagrangian())) == generating


def test_sums_of_products_take_one_kernel_call_per_output(monkeypatch):
    # the contraction, a field acting on a function, the matrix-vector
    # product, the affine split and the homotopy sweeps add every product
    # into one ``sum_of_products`` per result and never call ``*``, on a
    # system whose x1*th0*th1 coupling gives odd words in both factors
    text = (Path(__file__).parent / "data" / "dense-N4-M2-k1.sm").read_text(encoding="utf-8")
    lag = parse_problem(text).lagrangian()
    data = cartan_data(lag)
    t_field = total_derivative_field(lag.chart, 1)
    sector = data._plan.dynamical
    equation = data.delta_check.component(lag.chart.gen("x1", 0))
    rate = total_derivative(lag.expr)
    products, kernel = [], []
    real_mul = SuperExpr.__mul__
    monkeypatch.setattr(SuperExpr, "__mul__", lambda a, b: products.append(1) or real_mul(a, b))
    for module in (forms, jets, lagrangian):
        real = module.sum_of_products
        monkeypatch.setattr(
            module, "sum_of_products", lambda triples, real=real: kernel.append(1) or real(triples)
        )

    def counted(run):
        products.clear()
        kernel.clear()
        run()
        return len(products), len(kernel)

    # one result per word of the two-form with a letter removed
    words = {
        word[:t] + word[t + 1:]
        for word, _ in data.omega.items()
        for t, g in enumerate(word)
        if g in t_field.components
    }
    assert counted(lambda: interior(t_field, data.omega)) == (0, len(words))
    assert counted(lambda: t_field.apply(data.energy)) == (0, 1)
    assert counted(lambda: _mat_vec(sector.matrix, sector.rhs)) == (0, len(sector.matrix))
    assert counted(lambda: _affine_split(equation, set(sector.unknowns))) == (0, 1)
    assert counted(lambda: _homotopy(rate)) == (0, 1)
    # T(L) integrates back to L, and every variational derivative is zero
    derivatives, integral = _homotopy(rate)
    assert integral == lag.expr and all(d.is_zero() for d in derivatives.values())


def test_linear_form_operations_add_canonical_words_in_one_accumulator(monkeypatch):
    # sums, differences, scalings, the contraction, the vertical transpose
    # and the Cartan combination take the canonical words of their operands
    # as they are: no word is reordered, no coefficient is negated or summed
    # apart, and each output word is one ``sum_of_products`` call
    text = (Path(__file__).parent / "data" / "dense-N4-M2-k1.sm").read_text(encoding="utf-8")
    lag = parse_problem(text).lagrangian()
    data = cartan_data(lag)
    dl = exterior_d(lag.expr)
    t_field = total_derivative_field(lag.chart, 1)
    odd = lag.chart.coord("th0", 0)
    calls = {"reorder": 0, "sum": 0, "neg": 0, "kernel": 0}

    def counting(name, real):
        def run(*args):
            calls[name] += 1
            return real(*args)
        return run

    monkeypatch.setattr(forms, "reorder", counting("reorder", forms.reorder))
    monkeypatch.setattr(SuperExpr, "sum", staticmethod(counting("sum", SuperExpr.sum)))
    monkeypatch.setattr(SuperExpr, "__neg__", counting("neg", SuperExpr.__neg__))
    for module in (forms, algebra):
        monkeypatch.setattr(module, "sum_of_products", counting("kernel", module.sum_of_products))

    def words(*operands):
        return {word for form in operands for word, _ in form.items()}

    def counted(run):
        for name in calls:
            calls[name] = 0
        run()
        return calls["reorder"], calls["sum"], calls["neg"], calls["kernel"]

    contracted = {
        word[:t] + word[t + 1:]
        for word, _ in data.omega.items()
        for t, g in enumerate(word)
        if g in t_field.components
    }
    assert counted(lambda: GradedForm.sum([dl, data.theta, data.delta])) == (
        0, 0, 0, len(words(dl, data.theta, data.delta))
    )
    assert counted(lambda: dl - data.theta) == (0, 0, 0, len(words(dl, data.theta)))
    assert counted(lambda: -data.omega) == (0, 0, 0, len(words(data.omega)))
    assert counted(lambda: data.theta.scale(odd)) == (0, 0, 0, len(words(data.theta)))
    assert counted(lambda: interior(t_field, data.omega)) == (0, 0, 0, len(contracted))
    # a transpose multiplies each coefficient by its subscript, and keeps it
    # where the subscript is 1: on a first-order system it makes no call,
    # and the Cartan combination adds that one level into its accumulator,
    # one call per word
    assert counted(lambda: transpose_vertical(dl, 1)) == (0, 0, 0, 0)
    assert counted(lambda: cartan_operator(dl, 1)) == (0, 0, 0, len(words(data.theta)))
