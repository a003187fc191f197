"""Grassmann-valued evaluation and fixed-step integration."""

import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

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
    parse_problem,
    solve_dynamics,
)

from supermech import numeric
from supermech.numeric import _evaluate, _field_schedule, _rk4, _Schedule

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
    # a constant needs no coordinate
    assert evaluate(SuperExpr.constant(3), NumericState(0.0, {}, 3)) == scalar(3.0)


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


def wrong_parity_field(chart):
    """A field that drives the even velocity of the superparticle by its
    odd coordinate; no solved dynamics breaks parity like this."""
    wrong = {
        chart.gen("q", 0): chart.coord("q", 1),
        chart.gen("q", 1): chart.coord("th", 0),
        chart.gen("th", 0): chart.coord("th", 1),
        chart.gen("th", 1): SuperExpr.zero(),
    }

    class WrongField:
        def component(self, gen):
            return wrong[gen]

    return WrongField()


def test_integrate_checks_parity_of_stored_states(monkeypatch):
    # a field that breaks parity has no schedule: integrate stops before
    # the first step
    chart, dyn = superparticle_setup()
    monkeypatch.setattr(Dynamics, "field", lambda self: wrong_parity_field(chart))
    wrong = r"^the field's component for q\[1\] has support of the wrong parity$"
    with pytest.raises(ParityViolation, match=wrong):
        integrate(dyn, superparticle_state(chart, scalar(0.0, 2)), dt=0.1, t_end=1.0)
    # a stored trajectory is checked when it is built, so that the reports,
    # which read each value on the subsets of its parity, see all of it
    coords = chart.at_order(1).coordinates()
    values = np.zeros((3, len(coords), 4))
    values[2, 1, 1] = 0.5
    with pytest.raises(ParityViolation, match=r"^value for q\[1\] .* wrong parity at step 2$"):
        Trajectory(dyn, (0.0, 0.1, 0.2), coords, values, 2)


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
    schedule = _Schedule(exprs, coords, 8)
    assert schedule.chunk < 2000
    batched = np.concatenate([chunk for _, chunk, _ in schedule.evaluate(values)])
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


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 200))
def test_evaluation_on_nonzero_coefficients_stores_the_structural_floats(
    seed, directions, exponent
):
    # coefficients that are zero in every state are left out of the
    # products; states up to 1e200 overflow, and then the structural
    # schedule takes over, so the bytes, NaNs and infinities included,
    # are the structural schedule's
    rng, draws = random.Random(seed), np.random.default_rng(seed)
    chart = Chart.create(["q", "p"], ["a"], 1)
    coords = chart.at_order(1).coordinates()
    exprs = [random_expr(rng, chart, 1, 4, 4) for _ in range(3)]
    states = np.array(
        [
            [random_state(rng, coords, directions, 0.0).get(gen).coeffs for gen in coords]
            for _ in range(5)
        ]
    )
    states[:, draws.random(states.shape[1:]) < 0.5] = 0.0
    states *= 10.0**exponent
    with np.errstate(over="ignore", invalid="ignore"):
        pruned = [values for _, values in _evaluate(exprs, coords, directions, states)]
        structural = [
            values for _, values, _ in _Schedule(exprs, coords, directions).evaluate(states)
        ]
    assert np.concatenate(pruned).tobytes() == np.concatenate(structural).tobytes()


def test_reports_name_a_quantity_that_is_not_finite():
    chart, dyn = superparticle_setup()
    coords = chart.at_order(1).coordinates()
    q1 = chart.coord("q", 1)

    def run(q_velocity, th_velocity):
        values = np.zeros((4, len(coords), 4))
        values[:, 1, 0] = q_velocity
        values[:, 3, 1] = th_velocity
        return Trajectory(dyn, (0.0, 0.1, 0.2, 0.3), coords, values, 2)

    assert conservation_report(run([1.0, 2.0, 4.0, 3.0], 0.0), {"speed": q1}) == {"speed": 3.0}
    # all-zero states and no quantities leave nothing to evaluate
    assert conservation_report(run(0.0, 0.0), {}) == {}
    with pytest.raises(NumericError, match="^non-finite value of energy at step 2$"):
        conservation_report(run([1.0, 2.0, 1e200, 3.0], 0.0), {"speed": q1, "energy": q1 * q1})
    with pytest.raises(NumericError, match="^non-finite drift of speed at step 1$"):
        conservation_report(run([1e308, -1e308, 0.0, 0.0], 0.0), {"speed": q1})
    assert run(1.0, [0.0, 0.5, -2.0, 0.0]).constraint_drift() == 2.0
    residual = r"^non-finite residual of the th\[1\] constraint at step 3$"
    with pytest.raises(NumericError, match=residual):
        run(1.0, [0.0, 0.0, 0.0, math.inf]).constraint_drift()


# -- the scheduled RK4 steps -------------------------------------------------

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def random_field_dynamics(rng, chart):
    """Forces homogeneous of their coordinates' parities, with powers,
    constant terms, odd factors and products of up to four factors."""
    forces = {
        gen.shifted(2): random_expr(rng, chart, 1, 4, rng.randint(1, 5), gen.parity)
        for gen in chart.at_order(0).coordinates()
    }
    return Dynamics(SuperLagrangian(chart, SuperExpr.zero()), forces, {})


def random_state(rng, coordinates, directions, time):
    """Coefficients of the coordinate's parity drawn from [-1, 1]; some
    coefficients of either parity are -0.0."""
    values = {}
    for gen in coordinates:
        coeffs = np.zeros(1 << directions)
        for mask in range(1 << directions):
            if rng.random() < 0.2:
                coeffs[mask] = -0.0
            elif mask.bit_count() % 2 == gen.parity.value:
                coeffs[mask] = rng.uniform(-1.0, 1.0)
        values[gen] = GrassmannValue(directions, coeffs)
    return NumericState(time, values, directions)


def schedule_for(dyn, directions):
    coordinates = dyn.lagrangian.chart.at_order(dyn.order).coordinates()
    return _field_schedule(dyn.field(), coordinates, directions)


# ``_KERNEL_MAX_OPS`` values that send every field to one evaluation
EVALUATIONS = {"straight-line": 10**6, "numpy": 0}


def run_both_paths(dyn, initial, dt, steps):
    """The stored bytes, or the error text, of the straight-line and of the
    numpy steps, each from the same initial state: the two must be equal,
    and a finite run must store the floats of ``reference_rk4``."""
    coordinates = dyn.lagrangian.chart.at_order(dyn.order).coordinates()
    schedule = schedule_for(dyn, initial.directions)
    outcomes = []
    for ops in EVALUATIONS.values():
        values = np.zeros((steps + 1, len(coordinates), 1 << initial.directions))
        values[0] = [initial.get(gen).coeffs for gen in coordinates]
        try:
            with mock.patch.object(numeric, "_KERNEL_MAX_OPS", ops):
                with np.errstate(over="ignore", invalid="ignore"):
                    _rk4(schedule, values, dt, coordinates)
        except IntegrationError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(values.tobytes())
    straight_line, numpy_step = outcomes
    assert straight_line == numpy_step
    if isinstance(straight_line, bytes):
        start = {gen: initial.get(gen).coeffs for gen in coordinates}
        with np.errstate(over="ignore", invalid="ignore"):
            reference = reference_rk4(dyn, start, initial.directions, dt, steps)
        expected = np.array([[state[gen] for gen in coordinates] for state in reference])
        assert expected.tobytes() == straight_line
    return straight_line


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from([0.0, -0.0, 0.375]))
def test_straight_line_and_numpy_steps_store_reference_rk4_floats(seed, directions, time):
    # both evaluations store the same floats on every random field, and
    # integrate stores them too
    rng = random.Random(seed)
    dyn = random_field_dynamics(rng, Chart.create(["q", "p"], ["a"], 1))
    coordinates = dyn.lagrangian.chart.at_order(1).coordinates()
    initial = random_state(rng, coordinates, directions, time)
    dt, steps = rng.choice([0.01, 0.1, 0.5]), rng.randint(1, 12)
    outcome = run_both_paths(dyn, initial, dt, steps)
    try:
        trajectory = integrate(dyn, initial, dt=dt, t_end=time + steps * dt)
    except IntegrationError as exc:
        assert str(exc) == outcome
        return
    assert trajectory.values.tobytes() == outcome
    # the times appended one step at a time, zero signs included
    expected = [time] + [time + step * dt for step in range(1, steps + 1)]
    assert np.array(trajectory.times).tobytes() == np.array(expected).tobytes()


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 150))
def test_numpy_step_matches_straight_line_and_reference_rk4_at_scale(seed, directions, exponent):
    # states scaled up to 1e150 overflow inside a step, which both
    # evaluations then report alike
    rng = random.Random(seed)
    dyn = random_field_dynamics(rng, Chart.create(["q", "p"], ["a"], 1))
    coordinates = dyn.lagrangian.chart.at_order(1).coordinates()
    drawn = random_state(rng, coordinates, directions, 0.0)
    scale = 10.0**exponent
    initial = NumericState(
        0.0, {gen: value * scale for gen, value in drawn.values.items()}, directions
    )
    dt, steps = rng.choice([0.01, 0.1, 0.5]), rng.randint(1, 12)
    outcome = run_both_paths(dyn, initial, dt, steps)
    with mock.patch.object(numeric, "_KERNEL_MAX_OPS", 0):
        try:
            trajectory = integrate(dyn, initial, dt=dt, t_end=steps * dt)
        except IntegrationError as exc:
            assert str(exc) == outcome
        else:
            assert trajectory.values.tobytes() == outcome


def quartic_dynamics():
    """q'' = q^3 + q*a*a' and a'' = q^2*a: solutions reach infinity in
    finite time."""
    chart = Chart.create(["q"], ["a"], 1)
    q0, a0, a1 = chart.coord("q", 0), chart.coord("a", 0), chart.coord("a", 1)
    forces = {
        chart.gen("q", 0).shifted(2): q0**3 + q0 * a0 * a1,
        chart.gen("a", 0).shifted(2): q0**2 * a0,
    }
    return chart, Dynamics(SuperLagrangian(chart, SuperExpr.zero()), forces, {})


@pytest.mark.parametrize("directions", [0, 2])
@pytest.mark.parametrize("evaluation", EVALUATIONS)
def test_blowup_raises_the_same_error_on_both_paths(evaluation, directions):
    chart, dyn = quartic_dynamics()
    values = {gen: GrassmannValue(directions) for gen in chart.at_order(1).coordinates()}
    values[chart.gen("q", 0)] = scalar(10.0, directions)
    values[chart.gen("q", 1)] = scalar(10.0, directions)
    if directions:
        values[chart.gen("a", 0)] = g(0, directions) + g(1, directions)
    initial = NumericState(0.0, values, directions)
    outcome = run_both_paths(dyn, initial, 1e-2, 1000)
    assert outcome.startswith("non-finite value for q[")
    with mock.patch.object(numeric, "_KERNEL_MAX_OPS", EVALUATIONS[evaluation]):
        with pytest.raises(IntegrationError) as raised:
            integrate(dyn, initial, dt=1e-2, t_end=10.0)
    assert str(raised.value) == outcome


@pytest.mark.parametrize("evaluation", EVALUATIONS)
def test_straight_line_and_numpy_steps_fail_alike_on_inf_times_zero(evaluation):
    # q^2 overflows and p is zero: the product q^2 * p pairs inf with the
    # structural coefficient of p, 0.0, into a NaN on both evaluations,
    # whatever a product of the values alone would drop
    chart = Chart.create(["q", "p"], [], 1)
    q0, p0 = chart.coord("q", 0), chart.coord("p", 0)
    forces = {
        chart.gen("q", 0).shifted(2): q0**2 * p0,
        chart.gen("p", 0).shifted(2): SuperExpr.zero(),
    }
    dyn = Dynamics(SuperLagrangian(chart, SuperExpr.zero()), forces, {})
    values = {gen: scalar(0.0, 0) for gen in chart.at_order(1).coordinates()}
    values[chart.gen("q", 0)] = scalar(1e200, 0)
    initial = NumericState(0.0, values, 0)
    outcome = run_both_paths(dyn, initial, 0.1, 10)
    assert outcome == "non-finite value for q[0] at step 1"
    with mock.patch.object(numeric, "_KERNEL_MAX_OPS", EVALUATIONS[evaluation]):
        with pytest.raises(IntegrationError, match=r"^non-finite value for q\[0\] at step 1$"):
            integrate(dyn, initial, dt=0.1, t_end=1.0)


@pytest.mark.parametrize("evaluation", EVALUATIONS)
def test_an_overflow_that_no_pair_reads_leaves_both_steps_on_reference_rk4(evaluation):
    # at n=0 the odd a has no coefficients, so no pair reads 1e10*q in
    # 1e10*q*a: that value overflows, but it is no part of any product's
    # support, so both evaluations store the same finite states
    chart = Chart.create(["q", "p"], ["a"], 1)
    q0, p0, a0 = chart.coord("q", 0), chart.coord("p", 0), chart.coord("a", 0)
    forces = {
        chart.gen("q", 0).shifted(2): q0 * p0,
        chart.gen("p", 0).shifted(2): SuperExpr.zero(),
        chart.gen("a", 0).shifted(2): 10**10 * q0 * a0,
    }
    dyn = Dynamics(SuperLagrangian(chart, SuperExpr.zero()), forces, {})
    values = {gen: scalar(0.0, 0) for gen in chart.at_order(1).coordinates()}
    values[chart.gen("q", 0)] = scalar(1e300, 0)
    values[chart.gen("p", 0)] = scalar(1e-300, 0)
    initial = NumericState(0.0, values, 0)
    outcome = run_both_paths(dyn, initial, 0.1, 5)
    assert isinstance(outcome, bytes)
    with mock.patch.object(numeric, "_KERNEL_MAX_OPS", EVALUATIONS[evaluation]):
        trajectory = integrate(dyn, initial, dt=0.1, t_end=0.5)
    assert trajectory.values.tobytes() == outcome
    assert np.isfinite(trajectory.values).all()


def test_a_quantity_does_not_depend_on_what_is_evaluated_with_it():
    # q^2*p overflows into inf*0: a NaN whether or not q*r, whose factor
    # r is nonzero, is evaluated in the same report
    chart = Chart.create(["q", "p", "r"], [], 1)
    q0, p0, r0 = (chart.coord(name, 0) for name in "qpr")
    coords = chart.at_order(0).coordinates()
    values = np.array([[[1e200], [0.0], [1.0]]])
    dyn = Dynamics(SuperLagrangian(chart, SuperExpr.zero()), {}, {})
    trajectory = Trajectory(dyn, (0.0,), coords, values, 0)
    a, b = q0**2 * p0, q0 * r0
    for quantities in ({"a": a}, {"a": a, "b": b}):
        with pytest.raises(NumericError, match="^non-finite value of a at step 0$"):
            conservation_report(trajectory, quantities)
    assert not np.isfinite(evaluate(a, trajectory.states[0]).coeffs).all()


def test_which_path_each_system_takes():
    # the shipped problems take the straight-line step and an n=8 state
    # the numpy step, while a field that breaks parity has no schedule
    for name in ("oscillator", "ostrogradski", "superparticle"):
        problem = parse_problem((PROBLEMS / f"{name}.sm").read_text(encoding="utf-8"))
        dyn = solve_dynamics(problem.lagrangian())
        schedule = schedule_for(dyn, problem.simulation.directions)
        assert schedule.ops <= numeric._KERNEL_MAX_OPS, name
    chart, dyn = superparticle_setup()
    assert schedule_for(dyn, 8).ops > numeric._KERNEL_MAX_OPS
    assert schedule_for(dyn, 2).ops <= numeric._KERNEL_MAX_OPS
    coordinates = chart.at_order(1).coordinates()
    with pytest.raises(ParityViolation, match=r"q\[1\] has support of the wrong parity"):
        _field_schedule(wrong_parity_field(chart), coordinates, 2)


def test_schedule_is_built_once_per_run():
    # a finite n=6 run with powers and products never calls the product
    # of two values: the schedule, built before the first step, holds
    # every pair
    chart, dyn = quartic_dynamics()
    coordinates = chart.at_order(1).coordinates()
    initial = random_state(random.Random(7), coordinates, 6, 0.0)
    assert schedule_for(dyn, 6).ops > numeric._KERNEL_MAX_OPS
    with mock.patch.object(numeric, "_product", wraps=numeric._product) as product:
        trajectory = integrate(dyn, initial, dt=0.01, t_end=0.2)
    assert product.call_count == 0
    assert np.isfinite(trajectory.values).all()
