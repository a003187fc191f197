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
    cartan_data,
    certify_symmetry,
    conservation_report,
    evaluate,
    integrate,
    parse_problem,
    solve_dynamics,
)

from perfbench import workloads
from supermech import numeric
from supermech.cli import main
from supermech.numeric import _field_schedule, _rk4, _Schedule

from helpers import grassmann_value, oracle_evaluate, oracle_product, random_expr, reference_rk4


def g(index, directions=3):
    return grassmann_value([(1.0, [index])], directions)


def scalar(value, directions=3):
    return grassmann_value([(value, [])], directions)


# -- Grassmann products ------------------------------------------------------


def test_directions_anticommute_and_square_to_zero():
    assert g(0) * g(1) == grassmann_value([(1.0, [0, 1])], 3)
    assert g(1) * g(0) == grassmann_value([(-1.0, [0, 1])], 3)
    assert g(0) * g(0) == scalar(0.0)
    both = grassmann_value([(1.0, [0]), (1.0, [1])], 3)
    assert both * both == scalar(0.0)


def test_products_follow_subset_signs():
    prod = g(2) * g(0) * g(1)
    # g2*g0*g1 = +g0*g1*g2 after two transpositions... one for g2 past g0,
    # one for g2 past g1
    assert prod == g(0) * g(1) * g(2)
    assert g(1) * g(0) * g(2) == grassmann_value([(-1.0, [0, 1, 2])], 3)


def test_parity_support():
    assert scalar(1.0).supports_parity(Parity.EVEN)
    assert g(0).supports_parity(Parity.ODD)
    assert (g(0) * g(1)).supports_parity(Parity.EVEN)
    mixed = grassmann_value([(1.0, []), (1.0, [0])], 3)
    assert not mixed.supports_parity(Parity.EVEN)
    assert not mixed.supports_parity(Parity.ODD)
    assert scalar(0.0).supports_parity(Parity.ODD)
    assert not g(0).supports_parity(Parity.EVEN)


def test_direction_count_limits():
    for directions in (-1, 9):
        with pytest.raises(NumericError, match="^between 0 and 8 odd directions are supported$"):
            GrassmannValue(directions)
    with pytest.raises(NumericError, match=r"^expected 4 coefficients, got \(3,\)$"):
        GrassmannValue(2, np.zeros(3))


def test_mismatched_directions_rejected():
    with pytest.raises(NumericError, match="^mismatched numbers of odd directions$"):
        scalar(1.0, 2) * scalar(1.0, 3)


# -- products against the double-loop oracle --------------------------------

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def grassmann(draw, directions, parity=None):
    """A value with up to 64 nonzero coefficients, some of them -0.0, or
    now and then none; ``parity`` 0 or 1 restricts them to even or odd
    subsets."""
    masks = [m for m in range(1 << directions) if parity in (None, m.bit_count() % 2)]
    coeffs = np.zeros(1 << directions)
    if masks and draw(st.integers(0, 9)):
        drawn = draw(st.dictionaries(st.sampled_from(masks), finite | st.just(-0.0), max_size=64))
        for mask, value in drawn.items():
            coeffs[mask] = value
    return GrassmannValue(directions, coeffs)


@settings(max_examples=80)
@given(st.data())
def test_product_matches_double_loop(data):
    n = data.draw(st.integers(0, 8))
    left, right = data.draw(grassmann(n)), data.draw(grassmann(n))
    # the pairing adds the same terms in the same order as the loop, and
    # a -0.0 coefficient, like +0.0, takes part in no pair
    assert (left * right).coeffs.tobytes() == oracle_product(left.coeffs, right.coeffs).tobytes()
    zero = GrassmannValue(n)
    assert (zero * right).coeffs.tobytes() == np.zeros(1 << n).tobytes()
    other = data.draw(grassmann(data.draw(st.integers(0, 8).filter(lambda m: m != n))))
    with pytest.raises(NumericError, match="^mismatched numbers of odd directions$"):
        left * other


def crossing_sign(left_mask: int, right_mask: int) -> float:
    """The sign of the word of the left subset's indices followed by the
    right subset's, by its inversions."""
    word = [i for mask in (left_mask, right_mask) for i in range(mask.bit_length()) if mask >> i & 1]
    inversions = sum(a > b for k, a in enumerate(word) for b in word[k + 1 :])
    return -1.0 if inversions % 2 else 1.0


@settings(max_examples=200)
@given(st.data())
def test_pairs_match_a_double_loop_over_the_mask_lists(data):
    n = data.draw(st.integers(0, 12))
    masks = st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=80).map(sorted)
    lmasks, rmasks = tuple(data.draw(masks)), tuple(data.draw(masks))
    pairs = [
        (i, j, a | b, crossing_sign(a, b))
        for i, a in enumerate(lmasks)
        for j, b in enumerate(rmasks)
        if not a & b
    ]
    left, right, targets, inverse, sign = numeric._pairs(n, lmasks, rmasks)
    assert targets == tuple(sorted({target for _, _, target, _ in pairs}))
    got = [
        (i, j, targets[t], s)
        for i, j, t, s in zip(left.tolist(), right.tolist(), inverse.tolist(), sign.tolist())
    ]
    assert got == pairs


@settings(max_examples=60)
@given(st.data())
def test_product_is_associative(data):
    n = data.draw(st.integers(0, 8))
    a, b, c = (data.draw(grassmann(n)) for _ in range(3))
    scale = np.prod([np.abs(v.coeffs).sum() for v in (a, b, c)])
    # each coefficient sums at most 2**n rounded terms per product
    difference = ((a * b) * c).coeffs - (a * (b * c)).coeffs
    assert np.abs(difference).max() <= 1e-12 * max(scale, 1.0)


@settings(max_examples=60)
@given(st.data())
def test_product_parity(data):
    n = data.draw(st.integers(0, 8))
    even, odd = data.draw(grassmann(n, 0)), data.draw(grassmann(n, 1))
    other_even, other_odd = data.draw(grassmann(n, 0)), data.draw(grassmann(n, 1))
    assert (even * odd).supports_parity(Parity.ODD)
    assert (odd * even).supports_parity(Parity.ODD)
    assert (even * other_even).supports_parity(Parity.EVEN)
    assert (odd * other_odd).supports_parity(Parity.EVEN)


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
            ("q", 0): grassmann_value([(1.25, []), (0.5, [0, 1])], 3),
            ("q", 1): scalar(-0.75),
            ("q", 2): grassmann_value([(2.0, []), (1.0, [1, 2])], 3),
            ("th", 0): grassmann_value([(0.5, [0]), (1.0, [2])], 3),
            ("th", 1): g(1),
            ("th", 2): grassmann_value([(-1.5, [0])], 3),
        },
    )
    # coefficients like 1/3 only evaluate to the nearest float, so the
    # homomorphism holds up to roundoff rather than exactly
    def close(left, right):
        scale = max(1.0, np.abs(left).max(), np.abs(right).max())
        return np.abs(left - right).max() <= 1e-12 * scale

    for _ in range(25):
        a = random_expr(rng, chart, 2, 2, 3)
        b = random_expr(rng, chart, 2, 2, 3)
        product = evaluate(a, state) * evaluate(b, state)
        assert close(evaluate(a * b, state).coeffs, product.coeffs)
        total = evaluate(a, state).coeffs + evaluate(b, state).coeffs
        assert close(evaluate(a + b, state).coeffs, total)


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
        ("q", 0): grassmann_value([(1.25, []), (0.5, [0, 1])], 3),
        ("q", 1): grassmann_value([(-0.75, []), (1.0, [1, 2])], 3),
        ("q", 2): grassmann_value([(2.0, []), (1.0, [0, 2])], 3),
        ("th", 0): grassmann_value([(0.5, [0]), (1.0, [2])], 3),
        ("th", 1): grassmann_value([(1.0, [1]), (-0.25, [0, 1, 2])], 3),
        ("th", 2): grassmann_value([(-1.5, [0])], 3),
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
            chart.gen("q", 0): scalar(0.0, 0),
            chart.gen("q", 1): scalar(1.0, 0),
        },
        0,
    )
    traj = integrate(dyn, initial, dt=1e-2, t_end=1.0)
    assert len(traj.states) == 101
    final = traj.states[-1].get(chart.gen("q", 0)).coeffs[0]
    assert abs(final - 1.0) < 1e-12


def test_oscillator_tracks_cosine():
    chart, dyn = oscillator_dynamics()
    initial = NumericState(
        0.0,
        {
            chart.gen("q", 0): scalar(1.0, 0),
            chart.gen("q", 1): scalar(0.0, 0),
        },
        0,
    )
    traj = integrate(dyn, initial, dt=1e-3, t_end=1.0)
    final = traj.states[-1].get(chart.gen("q", 0)).coeffs[0]
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
            chart.gen("q", 0): scalar(0.0, 2),
            chart.gen("q", 1): scalar(1.0, 2),
            chart.gen("th", 0): g(0, 2),
            chart.gen("th", 1): theta1,
        },
        2,
    )


def test_superparticle_charges_are_exact():
    chart, dyn = superparticle_setup()
    traj = integrate(
        dyn, superparticle_state(chart, scalar(0.0, 2)), dt=1e-3, t_end=1.0
    )
    assert traj.constraint_drift() == 0.0
    charge = chart.coord("q", 1) * chart.coord("th", 0)
    report = conservation_report(traj, {"susy": charge})
    assert report["susy"] == 0.0
    # theta itself never moves because theta' is constrained to zero
    assert traj.states[-1].get(chart.gen("th", 0)) == g(0, 2)


def test_integrate_rejects_violated_constraints():
    chart, dyn = superparticle_setup()
    bad = superparticle_state(chart, g(1, 2))
    with pytest.raises(ConstraintViolation):
        integrate(dyn, bad, dt=1e-3, t_end=1.0)


NON_FINITE_RESIDUAL = """order 1; even x, y; odd a, b, c;
L = 1/2*x[1]^2 + 1/2*y[1]^2 + 1/2*a[0]*a[1] + 1/2*b[0]*b[1] + 1/2*c[0]*c[1]
    + x[0]*a[0]*b[0] + y[0]*a[0]*c[0];
simulate { n = 2; dt = 0.1; t = 1.0; init x[0] = 1e200; init y[0] = 1e200;
    init b[0] = 1e200*g[0]; init c[0] = %s; }
"""


@pytest.mark.parametrize("c0", ["-1e200*g[0]", "1e200*g[1]"], ids=["nan", "inf"])
def test_integrate_rejects_a_non_finite_initial_residual(c0):
    # the constraint a[1] = -x[0]*b[0] - y[0]*c[0] overflows: at a[1] = 0
    # its residual is inf*g[0] - inf*g[0], NaN, or inf*g[0] + inf*g[1], inf.
    # Both are refused before the first step, as the reports refuse a
    # residual that is not finite, and not compared with the tolerance
    problem = parse_problem(NON_FINITE_RESIDUAL % c0)
    dyn = solve_dynamics(problem.lagrangian())
    residual = r"^non-finite residual of the a\[1\] constraint at step 0$"
    with mock.patch.object(numeric, "_rk4") as rk4:
        with pytest.raises(NumericError, match=residual) as raised:
            integrate(dyn, problem.initial_state(), dt=0.1, t_end=1.0)
    assert type(raised.value) is NumericError
    assert rk4.call_count == 0


def test_integrate_rejects_bad_spans():
    chart, dyn = oscillator_dynamics()
    initial = NumericState(
        0.0,
        {
            chart.gen("q", 0): scalar(1.0, 0),
            chart.gen("q", 1): scalar(0.0, 0),
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
        0.0, {chart.gen("q", 0): scalar(1.0, 0)}, 0
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
            chart.gen("q", 0): scalar(10.0, 0),
            chart.gen("q", 1): scalar(10.0, 0),
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
            chart.gen("q", 0): scalar(1.0, 0),
            chart.gen("q", 1): scalar(0.0, 0),
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


@pytest.mark.parametrize("directions", [0, 2])
def test_a_wrong_parity_term_the_data_never_reaches_is_refused(monkeypatch, directions):
    # q[1]' = th[0] breaks parity, and th is zero for the whole run (at
    # n=0 it has no coefficient at all), so no value would show it: the
    # field is refused before the first step all the same
    chart, dyn = superparticle_setup()
    monkeypatch.setattr(Dynamics, "field", lambda self: wrong_parity_field(chart))
    values = {gen: GrassmannValue(directions) for gen in chart.at_order(1).coordinates()}
    values[chart.gen("q", 1)] = scalar(1.0, directions)
    wrong = r"^the field's component for q\[1\] has support of the wrong parity$"
    with mock.patch.object(numeric, "_rk4") as rk4:
        with pytest.raises(ParityViolation, match=wrong):
            integrate(dyn, NumericState(0.0, values, directions), dt=0.1, t_end=1.0)
    assert rk4.call_count == 0


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
        chart.gen("q", 0): grassmann_value([(0.5, []), (0.25, [0, 1])], 3),
        chart.gen("q", 1): grassmann_value([(-0.25, []), (0.5, [1, 2])], 3),
        chart.gen("p", 0): grassmann_value([(0.75, []), (0.5, [0, 2])], 3),
        chart.gen("p", 1): scalar(0.1),
        chart.gen("a", 0): grassmann_value([(1.0, [0]), (0.5, [1])], 3),
        chart.gen("b", 0): grassmann_value([(1.0, [2]), (-0.25, [0, 1, 2])], 3),
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
    return dyn, superparticle_state(chart, scalar(0.0, 2)), 1e-3, 1000


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
    schedule = _Schedule(exprs, coords, 8, traj.support)
    assert schedule.chunk < 2000
    # each chunk is register-major, (outputs, 2**n, chunk)
    batched = np.concatenate([chunk.transpose(2, 0, 1) for _, chunk in schedule.evaluate(values)])
    single = np.array([[evaluate(e, state).coeffs for e in exprs] for state in traj.states])
    assert np.array_equal(batched, single)

    report = conservation_report(traj, {"first": exprs[0], "second": exprs[1]})
    worst = np.abs(single[1:] - single[0]).max(axis=(0, 2))
    assert [report["first"], report["second"]] == worst.tolist()
    constrained = [gen for gen in dyn.constraints if gen.jet_order <= dyn.order]
    assert constrained
    assert traj.constraint_drift() == max(
        np.abs(evaluate(SuperExpr.generator(gen) - dyn.constraints[gen], state).coeffs).max()
        for state in traj.states
        for gen in constrained
    )


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 200))
def test_evaluation_on_nonzero_coefficients_stores_the_structural_floats(
    seed, directions, exponent
):
    # coefficients that are zero in every state are left out of the
    # products, and every output that pairing all coefficients of each
    # coordinate's parity leaves finite keeps its bytes; states up to
    # 1e200 overflow, and a left-out pair of inf and a zero that no state
    # makes nonzero is then a NaN there and no term here
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
    odd = np.array([mask.bit_count() % 2 == 1 for mask in range(1 << directions)])
    parity = np.array([odd if gen.parity is Parity.ODD else ~odd for gen in coords])

    def evaluated(support):
        schedule = _Schedule(exprs, coords, directions, support)
        return np.concatenate([values for _, values in schedule.evaluate(states)])

    with np.errstate(over="ignore", invalid="ignore"):
        pruned, structural = evaluated((states != 0).any(axis=0)), evaluated(parity)
    finite = np.isfinite(structural)
    assert pruned[finite].tobytes() == structural[finite].tobytes()
    if exponent < 50:
        assert finite.all()


@pytest.mark.parametrize("chunk_bytes", [numeric._CHUNK_BYTES, 1], ids=["default", "one-state"])
def test_reports_name_a_quantity_that_is_not_finite(monkeypatch, chunk_bytes):
    # at one byte each chunk holds one state: the first chunk holds only
    # the state the drifts start from, and a value can fail after it; the
    # drifts and the steps named must be those of one chunk for all states
    monkeypatch.setattr(numeric, "_CHUNK_BYTES", chunk_bytes)
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
    # a drift that fails before a value does is named, whatever the chunks
    with pytest.raises(NumericError, match="^non-finite drift of speed at step 1$"):
        conservation_report(run([1e308, -1e308, math.inf, 0.0], 0.0), {"speed": q1})
    assert run(1.0, [0.0, 0.5, -2.0, 0.0]).constraint_drift() == 2.0
    residual = r"^non-finite residual of the th\[1\] constraint at step 3$"
    with pytest.raises(NumericError, match=residual):
        run(1.0, [0.0, 0.0, 0.0, math.inf]).constraint_drift()


@pytest.mark.parametrize("chunk_bytes", [numeric._CHUNK_BYTES, 1], ids=["default", "one-state"])
def test_reports_name_the_first_state_then_output_that_is_not_finite(monkeypatch, chunk_bytes):
    # two outputs stop being finite: at the same step the first in order is
    # named, and at different steps the one that fails first, whatever its
    # place among the outputs
    monkeypatch.setattr(numeric, "_CHUNK_BYTES", chunk_bytes)
    chart, dyn = superparticle_setup()
    coords = chart.at_order(1).coordinates()
    q1 = chart.coord("q", 1)

    def run(q_velocity, q_position=0.0):
        values = np.zeros((4, len(coords), 4))
        values[:, 0, 0] = q_position
        values[:, 1, 0] = q_velocity
        return Trajectory(dyn, (0.0, 0.1, 0.2, 0.3), coords, values, 2)

    assert coords[:2] == (chart.gen("q", 0), chart.gen("q", 1))
    square, cube = q1 * q1, q1 * q1 * q1
    same = run([1.0, 2.0, 1e200, 3.0])
    with pytest.raises(NumericError, match="^non-finite value of square at step 2$"):
        conservation_report(same, {"square": square, "cube": cube})
    with pytest.raises(NumericError, match="^non-finite value of cube at step 2$"):
        conservation_report(same, {"cube": cube, "square": square})
    # the cube overflows at step 1 and the square at step 2
    apart = run([1.0, 1e120, 1e200, 3.0])
    with pytest.raises(NumericError, match="^non-finite value of cube at step 1$"):
        conservation_report(apart, {"square": square, "cube": cube})
    # a drift of the first output and a value of the second, at one step
    swing = run([1e308, -1e308, 1.0, 1.0], [1.0, 1e200, 1.0, 1.0])
    q0 = chart.coord("q", 0)
    with pytest.raises(NumericError, match="^non-finite drift of speed at step 1$"):
        conservation_report(swing, {"speed": q1, "potential": q0 * q0})
    with pytest.raises(NumericError, match="^non-finite value of potential at step 1$"):
        conservation_report(swing, {"potential": q0 * q0, "speed": q1})


# -- the scheduled RK4 steps -------------------------------------------------

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DATA = Path(__file__).resolve().parent / "data"


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


def schedule_for(dyn, initial):
    coordinates = dyn.lagrangian.chart.at_order(dyn.order).coordinates()
    start = np.array([initial.get(gen).coeffs for gen in coordinates])
    return _field_schedule(dyn.field(), coordinates, initial.directions, start)


# ``_KERNEL_MAX_OPS`` values that send every field to one evaluation
EVALUATIONS = {"straight-line": 10**6, "numpy": 0}


def run_both_paths(dyn, initial, dt, steps):
    """The stored bytes, or the error text, of the straight-line and of the
    numpy steps, each from the same initial state: the two must be equal,
    and a finite run must store the floats of ``reference_rk4``."""
    coordinates = dyn.lagrangian.chart.at_order(dyn.order).coordinates()
    schedule = schedule_for(dyn, initial)
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


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_a_finite_run_stores_zero_outside_its_support_and_reference_rk4_floats(seed, directions):
    # sparse initial data, whole coordinates and single coefficients left
    # at zero: the run's support is the closure of the nonzero
    # coefficients under the field, each later state stores +0.0 outside
    # it, and the stored bytes are those of the reference, which pairs
    # every nonzero coefficient
    rng = random.Random(seed)
    dyn = random_field_dynamics(rng, Chart.create(["q", "p"], ["a"], 1))
    coordinates = dyn.lagrangian.chart.at_order(1).coordinates()
    drawn = random_state(rng, coordinates, directions, 0.0)
    values = {}
    for gen, value in drawn.values.items():
        kept = [rng.random() < 0.6 for _ in value.coeffs] if rng.random() < 0.7 else False
        values[gen] = GrassmannValue(directions, np.where(kept, value.coeffs, 0.0))
    initial = NumericState(0.0, values, directions)
    support = schedule_for(dyn, initial).support
    dt, steps = rng.choice([0.01, 0.1]), rng.randint(1, 12)
    try:
        trajectory = integrate(dyn, initial, dt=dt, t_end=steps * dt)
    except IntegrationError:
        return
    assert not (trajectory.support & ~support).any()
    outside = trajectory.values[1:, ~support]
    assert outside.tobytes() == np.zeros(outside.shape).tobytes()
    start = {gen: initial.get(gen).coeffs for gen in coordinates}
    reference = reference_rk4(dyn, start, directions, dt, steps)
    expected = np.array([[state[gen] for gen in coordinates] for state in reference])
    assert expected.tobytes() == trajectory.values.tobytes()


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
        0.0,
        {gen: GrassmannValue(directions, v.coeffs * scale) for gen, v in drawn.values.items()},
        directions,
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


def still_field_case(rng, directions):
    """A random field with still registers, coefficients whose slope has no
    term: ``c`` is a constant coordinate, ``p`` has no force, and the force
    of ``q`` or ``a`` may have no terms; the coefficients of ``c`` and of
    ``p``'s velocity start at -0.0, 1e308, inf or an ordinary value."""
    chart = Chart.create(["q", "p", "c"], ["a"], 1)
    forces = {
        gen.shifted(2): random_expr(rng, chart, 1, 4, rng.randint(0, 5), gen.parity)
        if gen.name in "qa" and rng.random() < 0.7
        else SuperExpr.zero()
        for gen in chart.at_order(0).coordinates()
    }
    dyn = Dynamics(SuperLagrangian(chart, SuperExpr.zero()), forces, {})
    coordinates = chart.at_order(1).coordinates()
    drawn = random_state(rng, coordinates, directions, 0.0)
    values = dict(drawn.values)
    values[chart.gen("c", 1)] = GrassmannValue(directions)
    for gen in (chart.gen("c", 0), chart.gen("p", 1)):
        coeffs = np.zeros(1 << directions)
        for mask in range(1 << directions):
            if mask.bit_count() % 2 == 0:
                coeffs[mask] = rng.choice([-0.0, 1e308, math.inf, 0.5, -0.25])
        values[gen] = GrassmannValue(directions, coeffs)
    return dyn, NumericState(0.0, values, directions)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_still_registers_are_folded_out_of_the_straight_line_step(seed, directions):
    # a still register gets one stage input y + 0.0 and no slope, stage
    # update or term of the update; both steps store the same bytes, -0.0,
    # 1e308 and inf included, up to the sign of a NaN, which Python floats
    # and numpy may set apart after a blow-up; integrate stores those bytes
    # or names the same first state that is not finite
    rng = random.Random(seed)
    dyn, initial = still_field_case(rng, directions)
    coordinates = dyn.lagrangian.chart.at_order(1).coordinates()
    schedule = schedule_for(dyn, initial)
    dt, steps = rng.choice([0.01, 0.1, 0.5]), rng.randint(1, 8)
    stored = []
    sources = []

    def compile_spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    for steps_of in (numeric._straight_line_steps, numeric._numpy_steps):
        values = np.zeros((steps + 1, len(coordinates), 1 << directions))
        values[0] = [initial.get(gen).coeffs for gen in coordinates]
        with mock.patch.object(numeric, "compile", compile_spy, create=True):
            advance = steps_of(schedule, dt)
        with np.errstate(over="ignore", invalid="ignore"):
            advance(values.reshape(steps + 1, -1))
        stored.append(values)
    if np.isfinite(stored[0]).all():
        assert stored[0].tobytes() == stored[1].tobytes()
    else:
        assert np.array_equal(stored[0], stored[1], equal_nan=True)

    targeted = set(schedule.sums[1].tolist())
    still = [i for i in range(schedule.state) if i not in targeted]
    (source,) = sources
    lines = [line.strip() for line in source.splitlines()]
    for i in range(schedule.state):
        slopes = [line for line in lines if line.startswith(tuple(f"k{s}_{i} =" for s in range(1, 5)))]
        updates = [line for line in lines if line.startswith((f"z{i} =", f"y{i} ="))]
        if i in still:
            assert slopes == [] and updates == [f"z{i} = y{i} + 0.0", f"y{i} = z{i}"]
        else:
            assert len(slopes) == 4 and len(updates) == 4

    outcome = run_both_paths(dyn, initial, dt, steps)
    for ops in EVALUATIONS.values():
        with mock.patch.object(numeric, "_KERNEL_MAX_OPS", ops):
            try:
                trajectory = integrate(dyn, initial, dt=dt, t_end=steps * dt)
            except IntegrationError as exc:
                assert str(exc) == outcome
            else:
                assert trajectory.values.tobytes() == outcome == stored[0].tobytes()


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
        values[chart.gen("a", 0)] = grassmann_value([(1.0, [0]), (1.0, [1])], directions)
    initial = NumericState(0.0, values, directions)
    outcome = run_both_paths(dyn, initial, 1e-2, 1000)
    assert outcome.startswith("non-finite value for q[")
    with mock.patch.object(numeric, "_KERNEL_MAX_OPS", EVALUATIONS[evaluation]):
        with pytest.raises(IntegrationError) as raised:
            integrate(dyn, initial, dt=1e-2, t_end=10.0)
    assert str(raised.value) == outcome


@pytest.mark.parametrize("evaluation", EVALUATIONS)
def test_straight_line_and_numpy_steps_fail_alike_on_inf_times_zero(evaluation):
    # q^2 overflows and p is zero at the start, but p' = 1 makes p's
    # coefficient part of the run: the product q^2 * p pairs inf with it,
    # 0.0, into a NaN on both evaluations, whatever a product of the
    # values alone would drop
    chart = Chart.create(["q", "p"], [], 1)
    q0, p0 = chart.coord("q", 0), chart.coord("p", 0)
    forces = {
        chart.gen("q", 0).shifted(2): q0**2 * p0,
        chart.gen("p", 0).shifted(2): SuperExpr.zero(),
    }
    dyn = Dynamics(SuperLagrangian(chart, SuperExpr.zero()), forces, {})
    values = {gen: scalar(0.0, 0) for gen in chart.at_order(1).coordinates()}
    values[chart.gen("q", 0)] = scalar(1e200, 0)
    values[chart.gen("p", 1)] = scalar(1.0, 0)
    initial = NumericState(0.0, values, 0)
    outcome = run_both_paths(dyn, initial, 0.1, 10)
    assert outcome == "non-finite value for q[0] at step 1"
    with mock.patch.object(numeric, "_KERNEL_MAX_OPS", EVALUATIONS[evaluation]):
        with pytest.raises(IntegrationError, match=r"^non-finite value for q\[0\] at step 1$"):
            integrate(dyn, initial, dt=0.1, t_end=1.0)
    # with p zero for the whole run its coefficient takes part in no
    # product: q^2 * p has no term, as in the exact algebra, and q stays
    values[chart.gen("p", 1)] = scalar(0.0, 0)
    still = NumericState(0.0, values, 0)
    outcome = run_both_paths(dyn, still, 0.1, 10)
    with mock.patch.object(numeric, "_KERNEL_MAX_OPS", EVALUATIONS[evaluation]):
        trajectory = integrate(dyn, still, dt=0.1, t_end=1.0)
    assert trajectory.values.tobytes() == outcome
    assert (trajectory.values[:, 0, 0] == 1e200).all()


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
    # q^2*p overflows into inf*0 at step 0, where p is zero; p is nonzero
    # at step 1, so its coefficient is part of the run: a NaN whether or
    # not q*r, whose factor r is nonzero, is evaluated in the same report
    chart = Chart.create(["q", "p", "r"], [], 1)
    q0, p0, r0 = (chart.coord(name, 0) for name in "qpr")
    coords = chart.at_order(0).coordinates()
    values = np.array([[[1e200], [0.0], [1.0]], [[1e200], [1.0], [1.0]]])
    dyn = Dynamics(SuperLagrangian(chart, SuperExpr.zero()), {}, {})
    trajectory = Trajectory(dyn, (0.0, 0.1), coords, values, 0)
    a, b = q0**2 * p0, q0 * r0
    for quantities in ({"a": a}, {"a": a, "b": b}):
        with pytest.raises(NumericError, match="^non-finite value of a at step 0$"):
            conservation_report(trajectory, quantities)
    # evaluate reads one state: where p is zero, q^2*p has no term
    assert evaluate(a, trajectory.states[0]) == scalar(0.0, 0)
    assert not np.isfinite(evaluate(a, trajectory.states[1]).coeffs).all()
    # with p zero for the whole run, a is zero throughout, with or without b
    still = Trajectory(dyn, (0.0,), coords, values[:1], 0)
    assert conservation_report(still, {"a": a}) == {"a": 0.0}
    assert conservation_report(still, {"a": a, "b": b}) == {"a": 0.0, "b": 0.0}


def simulate_run(problem):
    """The run of the problem's simulate block, and the quantities
    ``simulate`` reports on: the energy, then each declared symmetry's
    certified charge."""
    lag = problem.lagrangian()
    data = cartan_data(lag)
    quantities = {"energy": data.energy}
    for name in problem.symmetries:
        quantities[name] = certify_symmetry(problem.symmetry_field(name), lag, data).charge
    sim = problem.simulation
    trajectory = integrate(data.dynamics, problem.initial_state(), dt=sim.dt, t_end=sim.t_end)
    return trajectory, quantities


# every stored problem with a simulate block, and the seed-1 grassmann-sim
# systems
SIMULATED = [
    (path.stem, text)
    for path in sorted(PROBLEMS.glob("*.sm")) + sorted(DATA.glob("*.sm"))
    if "simulate" in (text := path.read_text(encoding="utf-8"))
] + [(p.name, p.text) for p in workloads.grassmann_sim(1, PROBLEMS.parent).problems]


@pytest.mark.parametrize("text", [text for _, text in SIMULATED], ids=[name for name, _ in SIMULATED])
def test_equal_quantities_share_one_output_and_keep_their_floats(text):
    # the time charge is the energy on most of these systems, and one more
    # name repeats it: each report is, bit for bit, the quantity's own
    trajectory, quantities = simulate_run(parse_problem(text))
    quantities["energy again"] = quantities["energy"]
    together = conservation_report(trajectory, quantities)
    alone = {name: conservation_report(trajectory, {name: q})[name] for name, q in quantities.items()}
    assert list(together) == list(quantities)
    assert {n: v.hex() for n, v in together.items()} == {n: v.hex() for n, v in alone.items()}


def test_a_shared_output_is_named_by_its_first_name(tmp_path, capsys):
    # the energy of q = 1e200 overflows at step 0; the time charge is the
    # same polynomial, and the report names whichever comes first
    text = (
        "order 1; even q; L = 1/2*q[1]^2 - 1/2*q[0]^2; symmetry time { q -> q[1]; } "
        "simulate { dt = 0.1; t = 1.0; init q[0] = 1e200; }"
    )
    path = tmp_path / "overflow.sm"
    path.write_text(text, encoding="utf-8")
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr().err == "supermech: non-finite value of energy at step 0\n"
    trajectory, quantities = simulate_run(parse_problem(text))
    energy = quantities["energy"]
    assert quantities["time"] == energy
    for names in (("energy", "time"), ("time", "energy")):
        with pytest.raises(NumericError, match=f"^non-finite value of {names[0]} at step 0$"):
            conservation_report(trajectory, dict.fromkeys(names, energy))


@pytest.mark.parametrize(
    "name, outputs", [("superparticle", [4, 1, 2]), ("oscillator", [2, 1])]
)
def test_simulate_compiles_each_distinct_quantity_and_the_residuals_once(
    name, outputs, monkeypatch, capsys
):
    # the field, the constraint residuals (the superparticle has one, the
    # oscillator none) and the distinct quantities: the time charge is the
    # energy, and the drift reads the initial check's residual schedule
    built = []

    def build(*args):
        built.append(_Schedule(*args))
        return built[-1]

    monkeypatch.setattr(numeric, "_Schedule", build)
    assert main(["simulate", str(PROBLEMS / f"{name}.sm")]) == 0
    capsys.readouterr()
    assert [schedule.outputs for schedule in built] == outputs


def test_the_drift_compiles_its_own_schedule_off_the_kept_support():
    # a seed-1 grassmann-sim run with constraints and a nonzero drift: on
    # the kept support the drift compiles nothing; built by hand, or with
    # a stored column zeroed, it compiles once and reads what a fresh
    # trajectory reads
    (text,) = [text for name, text in SIMULATED if name == "N1-M3-k1-n4-s100"]
    trajectory, _ = simulate_run(parse_problem(text))
    kept = trajectory._residuals.schedule
    assert np.array_equal(kept.support, trajectory.support)
    args = (trajectory.dynamics, trajectory.times, trajectory.coordinates)
    values = trajectory.values.copy()
    row, mask = np.argwhere(trajectory.support)[-1]
    values[:, row, mask] = 0.0
    zeroed = Trajectory(*args, values, trajectory.directions, trajectory._residuals)
    assert not np.array_equal(kept.support, zeroed.support)
    cases = [
        (trajectory, 0, Trajectory(*args, trajectory.values, trajectory.directions)),
        (Trajectory(*args, trajectory.values, trajectory.directions), 1, trajectory),
        (zeroed, 1, Trajectory(*args, values, trajectory.directions)),
    ]
    for case, compiles, fresh in cases:
        with mock.patch.object(numeric, "_Schedule", wraps=_Schedule) as build:
            drift = case.constraint_drift()
        assert build.call_count == compiles
        assert drift > 0.0 and drift.hex() == fresh.constraint_drift().hex()


def test_which_path_each_system_takes():
    # the shipped problems take the straight-line step and a dense n=8
    # state the numpy step, while a field that breaks parity has no schedule
    for name in ("oscillator", "ostrogradski", "superparticle"):
        problem = parse_problem((PROBLEMS / f"{name}.sm").read_text(encoding="utf-8"))
        dyn = solve_dynamics(problem.lagrangian())
        schedule = schedule_for(dyn, problem.initial_state())
        assert schedule.ops <= numeric._KERNEL_MAX_OPS, name
    chart, dyn = superparticle_setup()
    coordinates = chart.at_order(1).coordinates()
    dense = random_state(random.Random(8), coordinates, 8, 0.0)
    assert schedule_for(dyn, dense).ops > numeric._KERNEL_MAX_OPS
    initial = superparticle_state(chart, scalar(0.0, 2))
    assert schedule_for(dyn, initial).ops <= numeric._KERNEL_MAX_OPS
    # the seed-1 benchmark system at n=8 touches 11 of its 512
    # coefficients, 3 of them still, so its step needs 174 operations
    problem = parse_problem((DATA / "sparse-n8.sm").read_text(encoding="utf-8"))
    schedule = schedule_for(solve_dynamics(problem.lagrangian()), problem.initial_state())
    assert (schedule.state, schedule.ops) == (11, 174)
    start = np.array([initial.get(gen).coeffs for gen in coordinates])
    with pytest.raises(ParityViolation, match=r"q\[1\] has support of the wrong parity"):
        _field_schedule(wrong_parity_field(chart), coordinates, 2, start)


def test_the_support_closes_before_the_one_schedule_is_built():
    # the seed-1 benchmark system at n=8 needs more than one closure pass,
    # each following only the masks its terms reach; one schedule is
    # built, on the closed support
    problem = parse_problem((DATA / "sparse-n8.sm").read_text(encoding="utf-8"))
    dyn = solve_dynamics(problem.lagrangian())
    with mock.patch.object(numeric, "_Schedule", wraps=_Schedule) as build, mock.patch.object(
        numeric, "_reached", wraps=numeric._reached
    ) as passes:
        schedule = schedule_for(dyn, problem.initial_state())
    assert build.call_count == 1 and passes.call_count > 1
    assert (schedule.state, schedule.ops) == (11, 174)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_the_closure_reaches_exactly_the_targets_of_the_schedule(seed, directions):
    # ``_field_schedule`` maps each sum target to a state register through
    # an uninitialised array, so ``_reached`` must yield, in order, the
    # ``output * 2**n + mask`` of every sum of a schedule on the same
    # support: random terms with even powers, odd factors and constants
    rng, draws = random.Random(seed), np.random.default_rng(seed)
    chart = Chart.create(["q", "p"], ["a", "b"], 1)
    coords = chart.at_order(1).coordinates()
    exprs = [random_expr(rng, chart, 1, 4, rng.randint(0, 6)) for _ in range(3)]
    support = draws.random((len(coords), 1 << directions)) < rng.random()
    index = {gen: row for row, gen in enumerate(coords)}
    chains = [
        (which, numeric._chain(index, even, odd))
        for which, expr in enumerate(exprs)
        for (even, odd), _ in expr.items()
    ]
    schedule = _Schedule(exprs, coords, directions, support)
    reached = list(numeric._reached(chains, support, directions))
    assert reached == schedule.sums[1].tolist()


def test_schedule_is_built_once_per_run():
    # a finite n=6 run with powers and products pairs no subsets once it
    # steps: the schedule, built before the first step, holds every pair
    chart, dyn = quartic_dynamics()
    coordinates = chart.at_order(1).coordinates()
    initial = random_state(random.Random(7), coordinates, 6, 0.0)
    assert schedule_for(dyn, initial).ops > numeric._KERNEL_MAX_OPS
    paired_while_stepping = []

    def rk4(*args):
        before = pairs.call_count
        _rk4(*args)
        paired_while_stepping.append(pairs.call_count - before)

    with mock.patch.object(numeric, "_pairs", wraps=numeric._pairs) as pairs, mock.patch.object(
        numeric, "_rk4", rk4
    ):
        trajectory = integrate(dyn, initial, dt=0.01, t_end=0.2)
    assert pairs.call_count > 0 and paired_while_stepping == [0]
    assert np.isfinite(trajectory.values).all()
