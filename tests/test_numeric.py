"""Grassmann-valued evaluation and fixed-step integration."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermech import (
    Chart,
    ConstraintViolation,
    Dynamics,
    GrassmannValue,
    IntegrationError,
    MissingValue,
    NumericError,
    NumericState,
    Parity,
    ParityViolation,
    SuperExpr,
    SuperLagrangian,
    Trajectory,
    conservation_report,
    evaluate,
    integrate,
    solve_dynamics,
)

from supermech.numeric import _Plan

from helpers import oracle_evaluate, oracle_product, random_expr, reference_rk4


def g(index, directions=3):
    return GrassmannValue.direction(index, directions)


def scalar(value, directions=3):
    return GrassmannValue.scalar(value, directions)


# -- Grassmann arithmetic --------------------------------------------------


def test_directions_anticommute_and_square_to_zero():
    assert g(0) * g(1) == -(g(1) * g(0))
    assert (g(0) * g(0)).sup_norm() == 0.0
    assert (g(0) + g(1)) * (g(0) + g(1)) == scalar(0.0)


def test_products_follow_subset_signs():
    prod = g(2) * g(0) * g(1)
    # g2*g0*g1 = +g0*g1*g2 after two transpositions... one for g2 past g0,
    # one for g2 past g1
    assert prod == g(0) * g(1) * g(2)
    assert g(1) * g(0) * g(2) == -(g(0) * g(1) * g(2))


def test_from_terms_and_body():
    v = GrassmannValue.from_terms([(2.0, []), (0.5, [1, 0])], 2)
    assert v.body() == 2.0
    # [1, 0] lists the factors in product order, so the coefficient flips
    assert v == scalar(2.0, 2) - 0.5 * (g(0, 2) * g(1, 2))
    assert v.sup_norm() == 2.0


def test_scalar_mixing_and_power():
    v = scalar(3.0) + 2.0 * g(0)
    assert v * 0.5 == scalar(1.5) + g(0)
    assert v ** 2 == scalar(9.0) + 12.0 * g(0)
    with pytest.raises(NumericError):
        v ** -1


def test_parity_support():
    assert scalar(1.0).is_even_support()
    assert g(0).is_odd_support()
    assert (g(0) * g(1)).is_even_support()
    mixed = scalar(1.0) + g(0)
    assert not mixed.is_even_support()
    assert not mixed.is_odd_support()
    assert scalar(0.0).supports_parity(Parity.ODD)
    assert g(0).supports_parity(Parity.ODD)
    assert not g(0).supports_parity(Parity.EVEN)


def test_direction_count_limits():
    with pytest.raises(Exception):
        GrassmannValue.direction(0, 9)
    with pytest.raises(Exception):
        GrassmannValue.direction(2, 2)


def test_scalar_factors_of_any_real_type():
    v = scalar(1.5) + g(0) * g(1)
    doubled = GrassmannValue(3, v.coeffs * 2.0)
    for factor in (2, 2.0, np.int64(2), np.float32(2.0), Fraction(2)):
        assert v * factor == doubled
        assert factor * v == doubled
    assert GrassmannValue.direction(0, 2) * np.int64(2) == 2.0 * GrassmannValue.direction(0, 2)


def test_mismatched_directions_rejected():
    with pytest.raises(Exception):
        scalar(1.0, 2) + scalar(1.0, 3)


# -- products against the double-loop oracle --------------------------------

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def grassmann(draw, directions, parity=None):
    """A value with up to 64 nonzero coefficients; ``parity`` 0 or 1
    restricts them to even or odd subsets."""
    masks = [m for m in range(1 << directions) if parity in (None, m.bit_count() % 2)]
    coeffs = np.zeros(1 << directions)
    if masks:
        for mask, value in draw(st.dictionaries(st.sampled_from(masks), finite, max_size=64)).items():
            coeffs[mask] = value
    return GrassmannValue(directions, coeffs)


@settings(max_examples=80)
@given(st.data())
def test_table_product_matches_double_loop(data):
    n = data.draw(st.integers(0, 8))
    left, right = data.draw(grassmann(n)), data.draw(grassmann(n))
    # the table adds the same terms in the same order as the loop
    assert np.array_equal((left * right).coeffs, oracle_product(left.coeffs, right.coeffs))


@settings(max_examples=60)
@given(st.data())
def test_product_is_associative(data):
    n = data.draw(st.integers(0, 8))
    a, b, c = (data.draw(grassmann(n)) for _ in range(3))
    scale = np.prod([np.abs(v.coeffs).sum() for v in (a, b, c)])
    # each coefficient sums at most 2**n rounded terms per product
    assert ((a * b) * c - a * (b * c)).sup_norm() <= 1e-12 * max(scale, 1.0)


@settings(max_examples=60)
@given(st.data())
def test_product_parity(data):
    n = data.draw(st.integers(0, 8))
    even, odd = data.draw(grassmann(n, 0)), data.draw(grassmann(n, 1))
    other_even, other_odd = data.draw(grassmann(n, 0)), data.draw(grassmann(n, 1))
    assert (even * odd).is_odd_support()
    assert (odd * even).is_odd_support()
    assert (even * other_even).is_even_support()
    assert (odd * other_odd).is_even_support()


# -- evaluation ------------------------------------------------------------


def numeric_chart():
    return Chart.create(["q"], ["th"], 2)


def make_state(chart, assignment, directions=3, time=0.0):
    values = {}
    for (name, j), value in assignment.items():
        values[chart.gen(name, j)] = value
    return NumericState(time, values, directions)


def test_evaluate_is_a_homomorphism_randomized():
    rng = random.Random(401)
    chart = numeric_chart()
    state = make_state(
        chart,
        {
            ("q", 0): scalar(1.25) + 0.5 * (g(0) * g(1)),
            ("q", 1): scalar(-0.75),
            ("q", 2): scalar(2.0) + g(1) * g(2),
            ("th", 0): 0.5 * g(0) + g(2),
            ("th", 1): g(1),
            ("th", 2): -1.5 * g(0),
        },
    )
    # coefficients like 1/3 only evaluate to the nearest float, so the
    # homomorphism holds up to roundoff rather than exactly
    def close(left, right):
        scale = max(1.0, left.sup_norm(), right.sup_norm())
        return (left - right).sup_norm() <= 1e-12 * scale

    for _ in range(25):
        a = random_expr(rng, chart, 2, 2, 3)
        b = random_expr(rng, chart, 2, 2, 3)
        assert close(evaluate(a * b, state), evaluate(a, state) * evaluate(b, state))
        assert close(evaluate(a + b, state), evaluate(a, state) + evaluate(b, state))


def test_evaluate_odd_order_matters():
    chart = numeric_chart()
    state = make_state(chart, {("th", 0): g(0), ("th", 1): g(1)})
    expr = chart.coord("th", 0) * chart.coord("th", 1)
    assert evaluate(expr, state) == g(0) * g(1)
    assert evaluate(-expr, state) == g(1) * g(0)


def test_evaluate_matches_oracle_with_powers():
    rng = random.Random(402)
    chart = numeric_chart()
    values = {
        ("q", 0): scalar(1.25) + 0.5 * (g(0) * g(1)),
        ("q", 1): scalar(-0.75) + g(1) * g(2),
        ("q", 2): scalar(2.0) + g(0) * g(2),
        ("th", 0): 0.5 * g(0) + g(2),
        ("th", 1): g(1) - 0.25 * g(0) * g(1) * g(2),
        ("th", 2): -1.5 * g(0),
    }
    state = make_state(chart, values)
    coeffs = {gen: value.coeffs for gen, value in state.values.items()}
    for _ in range(25):
        expr = random_expr(rng, chart, 2, 4, 4)
        assert np.array_equal(evaluate(expr, state).coeffs, oracle_evaluate(expr, coeffs, 3))


def test_state_validation():
    chart = numeric_chart()
    with pytest.raises(ParityViolation):
        make_state(chart, {("q", 0): g(0)})
    with pytest.raises(ParityViolation):
        make_state(chart, {("th", 0): scalar(1.0)})
    state = make_state(chart, {("q", 0): scalar(1.0)})
    with pytest.raises(MissingValue):
        state.get(chart.gen("q", 1))


# -- integration -----------------------------------------------------------


def oscillator_dynamics():
    chart = Chart.create(["q"], [], 1)
    lag = SuperLagrangian(
        chart,
        Fraction(1, 2) * chart.coord("q", 1) ** 2
        - Fraction(1, 2) * chart.coord("q", 0) ** 2,
    )
    return chart, solve_dynamics(lag)


def test_free_particle_is_exact():
    chart = Chart.create(["q"], [], 1)
    lag = SuperLagrangian(chart, Fraction(1, 2) * chart.coord("q", 1) ** 2)
    dyn = solve_dynamics(lag)
    initial = NumericState(
        0.0,
        {
            chart.gen("q", 0): GrassmannValue.scalar(0.0, 0),
            chart.gen("q", 1): GrassmannValue.scalar(1.0, 0),
        },
        0,
    )
    traj = integrate(dyn, initial, dt=1e-2, t_end=1.0)
    assert len(traj.states) == 101
    final = traj.states[-1].get(chart.gen("q", 0)).body()
    assert abs(final - 1.0) < 1e-12


def test_oscillator_tracks_cosine():
    chart, dyn = oscillator_dynamics()
    initial = NumericState(
        0.0,
        {
            chart.gen("q", 0): GrassmannValue.scalar(1.0, 0),
            chart.gen("q", 1): GrassmannValue.scalar(0.0, 0),
        },
        0,
    )
    traj = integrate(dyn, initial, dt=1e-3, t_end=1.0)
    final = traj.states[-1].get(chart.gen("q", 0)).body()
    assert abs(final - math.cos(1.0)) < 1e-10
    energy = chart.coord("q", 0) ** 2 * Fraction(1, 2) + chart.coord(
        "q", 1
    ) ** 2 * Fraction(1, 2)
    report = conservation_report(traj, {"energy": energy})
    assert report["energy"] < 1e-12


def superparticle_setup():
    chart = Chart.create(["q"], ["th"], 1)
    lag = SuperLagrangian(
        chart,
        Fraction(1, 2) * chart.coord("q", 1) ** 2
        + Fraction(1, 2) * chart.coord("th", 0) * chart.coord("th", 1),
    )
    return chart, solve_dynamics(lag)


def superparticle_state(chart, theta1):
    return NumericState(
        0.0,
        {
            chart.gen("q", 0): GrassmannValue.scalar(0.0, 2),
            chart.gen("q", 1): GrassmannValue.scalar(1.0, 2),
            chart.gen("th", 0): GrassmannValue.direction(0, 2),
            chart.gen("th", 1): theta1,
        },
        2,
    )


def test_superparticle_charges_are_exact():
    chart, dyn = superparticle_setup()
    traj = integrate(
        dyn, superparticle_state(chart, GrassmannValue.scalar(0.0, 2)), dt=1e-3, t_end=1.0
    )
    assert traj.constraint_drift() == 0.0
    charge = chart.coord("q", 1) * chart.coord("th", 0)
    report = conservation_report(traj, {"susy": charge})
    assert report["susy"] == 0.0
    # theta itself never moves because theta' is constrained to zero
    assert traj.states[-1].get(chart.gen("th", 0)) == GrassmannValue.direction(0, 2)


def test_integrate_rejects_violated_constraints():
    chart, dyn = superparticle_setup()
    bad = superparticle_state(chart, GrassmannValue.direction(1, 2))
    with pytest.raises(ConstraintViolation):
        integrate(dyn, bad, dt=1e-3, t_end=1.0)


def test_integrate_rejects_bad_spans():
    chart, dyn = oscillator_dynamics()
    initial = NumericState(
        0.0,
        {
            chart.gen("q", 0): GrassmannValue.scalar(1.0, 0),
            chart.gen("q", 1): GrassmannValue.scalar(0.0, 0),
        },
        0,
    )
    with pytest.raises(IntegrationError):
        integrate(dyn, initial, dt=-1e-3, t_end=1.0)
    with pytest.raises(IntegrationError):
        integrate(dyn, initial, dt=3e-3, t_end=1.0)
    with pytest.raises(IntegrationError):
        integrate(dyn, initial, dt=1e-3, t_end=0.0)


def test_integrate_requires_full_initial_data():
    chart, dyn = oscillator_dynamics()
    partial = NumericState(
        0.0, {chart.gen("q", 0): GrassmannValue.scalar(1.0, 0)}, 0
    )
    with pytest.raises(MissingValue):
        integrate(dyn, partial, dt=1e-3, t_end=1.0)


def test_integrate_aborts_on_blowup():
    # unstable quartic potential: solutions reach infinity in finite time
    chart = Chart.create(["q"], [], 1)
    lag = SuperLagrangian(
        chart,
        Fraction(1, 2) * chart.coord("q", 1) ** 2
        + Fraction(1, 4) * chart.coord("q", 0) ** 4,
    )
    dyn = solve_dynamics(lag)
    initial = NumericState(
        0.0,
        {
            chart.gen("q", 0): GrassmannValue.scalar(10.0, 0),
            chart.gen("q", 1): GrassmannValue.scalar(10.0, 0),
        },
        0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError):
            integrate(dyn, initial, dt=1e-2, t_end=10.0)


def test_trajectory_export_rows():
    chart, dyn = oscillator_dynamics()
    initial = NumericState(
        0.0,
        {
            chart.gen("q", 0): GrassmannValue.scalar(1.0, 0),
            chart.gen("q", 1): GrassmannValue.scalar(0.0, 0),
        },
        0,
    )
    traj = integrate(dyn, initial, dt=0.5, t_end=1.0)
    rows = traj.export_rows()
    assert rows[0] == "time\tcoordinate\tmask\tvalue"
    # 3 sampled times, 2 coordinates, 1 mask each
    assert len(rows) == 1 + 3 * 2
    assert rows[1] == "0.0\tq[0]\t0\t1.0"


def test_integrate_checks_parity_of_stored_states(monkeypatch):
    # no solved field breaks parity, so substitute one that drives the
    # even velocity by an odd value
    chart, dyn = superparticle_setup()
    wrong = {
        chart.gen("q", 0): chart.coord("q", 1),
        chart.gen("q", 1): chart.coord("th", 0),
        chart.gen("th", 0): chart.coord("th", 1),
        chart.gen("th", 1): SuperExpr.zero(),
    }

    class WrongField:
        def component(self, gen):
            return wrong[gen]

    monkeypatch.setattr(Dynamics, "field", lambda self: WrongField())
    with pytest.raises(ParityViolation, match="at step 1$"):
        integrate(dyn, superparticle_state(chart, scalar(0.0, 2)), dt=0.1, t_end=1.0)


def coupled_setup():
    """Quartic and mixed potentials with odd couplings: forces need powers
    and products of up to four factors."""
    chart = Chart.create(["q", "p"], ["a", "b"], 1)
    q0, q1, p0, p1 = (chart.coord(n, j) for n in "qp" for j in (0, 1))
    a0, a1, b0, b1 = (chart.coord(n, j) for n in "ab" for j in (0, 1))
    half = Fraction(1, 2)
    lag = SuperLagrangian(
        chart,
        half * q1**2 + half * p1**2 - Fraction(1, 4) * q0**4 - half * q0**2 * p0**2
        - half * p0**2 + half * a0 * a1 + half * b0 * b1 + q0**2 * a0 * b0 + p0 * q0 * a0 * b0,
    )
    return chart, solve_dynamics(lag)


def coupled_state(chart, dyn):
    values = {
        chart.gen("q", 0): scalar(0.5) + 0.25 * g(0) * g(1),
        chart.gen("q", 1): scalar(-0.25) + 0.5 * g(1) * g(2),
        chart.gen("p", 0): scalar(0.75) + 0.5 * g(0) * g(2),
        chart.gen("p", 1): scalar(0.1),
        chart.gen("a", 0): g(0) + 0.5 * g(1),
        chart.gen("b", 0): g(2) - 0.25 * g(0) * g(1) * g(2),
        chart.gen("a", 1): scalar(0.0),
        chart.gen("b", 1): scalar(0.0),
    }
    state = NumericState(0.0, values, 3)
    for gen, expr in dyn.constraints.items():
        values[gen] = evaluate(expr, state)
    return NumericState(0.0, values, 3)


def free_particle_case():
    chart = Chart.create(["q"], [], 1)
    dyn = solve_dynamics(SuperLagrangian(chart, Fraction(1, 2) * chart.coord("q", 1) ** 2))
    values = {chart.gen("q", 0): scalar(0.0, 0), chart.gen("q", 1): scalar(1.0, 0)}
    return dyn, NumericState(0.0, values, 0), 1e-2, 100


def oscillator_case():
    chart, dyn = oscillator_dynamics()
    values = {chart.gen("q", 0): scalar(1.0, 0), chart.gen("q", 1): scalar(0.0, 0)}
    return dyn, NumericState(0.0, values, 0), 1e-3, 1000


def superparticle_case():
    chart, dyn = superparticle_setup()
    return dyn, superparticle_state(chart, GrassmannValue.scalar(0.0, 2)), 1e-3, 1000


def coupled_case():
    chart, dyn = coupled_setup()
    return dyn, coupled_state(chart, dyn), 1e-2, 40


@pytest.mark.parametrize(
    "case", [free_particle_case, oscillator_case, superparticle_case, coupled_case]
)
def test_integrate_matches_reference_rk4(case):
    dyn, initial, dt, steps = case()
    traj = integrate(dyn, initial, dt=dt, t_end=initial.time + dt * steps)
    reference = reference_rk4(
        dyn, {gen: v.coeffs for gen, v in initial.values.items()}, initial.directions, dt, steps
    )
    assert len(traj.states) == len(reference) == steps + 1
    for state, expected in zip(traj.states, reference):
        for gen, coeffs in expected.items():
            got = state.get(gen).coeffs
            assert np.max(np.abs(got - coeffs)) <= 1e-12 * max(1.0, np.max(np.abs(coeffs)))


@settings(max_examples=2)
@given(st.integers(0, 2**32 - 1))
def test_chunked_reports_match_per_state_evaluation(seed):
    # 2000 dense n=8 states span many chunks of the batched evaluation
    rng, draws = random.Random(seed), np.random.default_rng(seed)
    chart, dyn = superparticle_setup()
    coords = chart.at_order(1).coordinates()
    values = draws.uniform(-1.0, 1.0, (2000, len(coords), 256))
    odd = np.array([m.bit_count() % 2 == 1 for m in range(256)])
    for row, gen in enumerate(coords):
        values[:, row, odd if gen.parity is Parity.EVEN else ~odd] = 0.0
    traj = Trajectory(dyn, tuple(0.1 * i for i in range(2000)), coords, values, 8)
    exprs = [random_expr(rng, chart, 1, 2, 3) for _ in range(2)]
    plan = _Plan(exprs, coords, 8)
    assert plan.chunk < 2000
    batched = np.concatenate(list(plan.chunks(values)))
    single = np.array([[evaluate(e, state).coeffs for e in exprs] for state in traj.states])
    assert np.array_equal(batched, single)

    report = conservation_report(traj, {"first": exprs[0], "second": exprs[1]})
    worst = np.abs(single[1:] - single[0]).max(axis=(0, 2))
    assert [report["first"], report["second"]] == worst.tolist()
    constrained = [gen for gen in dyn.constraints if gen.jet_order <= dyn.order]
    assert constrained
    assert traj.constraint_drift() == max(
        evaluate(SuperExpr.generator(gen) - dyn.constraints[gen], state).sup_norm()
        for state in traj.states
        for gen in constrained
    )
