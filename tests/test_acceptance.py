"""End-to-end acceptance checks, one test per published guarantee.

Each test prints a single line naming its guarantee and PASS or FAIL; run
``pytest -s tests/test_acceptance.py`` to see the lines as they go by.
Randomized batteries draw from fixed seeds so a rerun exercises the same
cases, and the timed checks fail when they blow their stated budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from supermech import (
    Chart,
    GradedForm,
    GrassmannValue,
    NumericState,
    Parity,
    Regularity,
    SuperExpr,
    SuperLagrangian,
    VectorFieldAlong,
    cartan_data,
    certify_symmetry,
    check_constant_of_motion,
    conservation_report,
    exterior_d,
    form_total_derivative,
    integrate,
    interior,
    is_sode,
    left_partial,
    lift_vector_field,
    noether_charge,
    noether_inverse,
    parity_of,
    regularity,
    semibasic_check,
    solve_dynamics,
    total_derivative_field,
)

from helpers import (
    classical_field_equation,
    classical_momentum,
    form_degree_parity,
    grassmann_value,
    poly_to_expr,
    random_expr,
    random_field,
    random_form,
    random_homogeneous_form,
    random_poly,
)


@contextmanager
def guarantee(number, title, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    on_time = budget is None or elapsed < budget
    verdict = "PASS" if on_time else "FAIL"
    print(f"acceptance {number} ({title}): {verdict} in {elapsed:.2f}s")
    assert on_time, f"budget {budget}s exceeded: {elapsed:.2f}s"


# -- shared fixtures -------------------------------------------------------


def oscillator():
    chart = Chart.create(["q"], [], 1)
    q0, q1 = chart.coord("q", 0), chart.coord("q", 1)
    return SuperLagrangian(chart, Fraction(1, 2) * q1**2 - Fraction(1, 2) * q0**2)


def free_particle():
    chart = Chart.create(["q"], [], 1)
    return SuperLagrangian(chart, Fraction(1, 2) * chart.coord("q", 1) ** 2)


def superparticle():
    chart = Chart.create(["q"], ["th"], 1)
    q1 = chart.coord("q", 1)
    th0, th1 = chart.coord("th", 0), chart.coord("th", 1)
    return SuperLagrangian(
        chart, Fraction(1, 2) * q1**2 + Fraction(1, 2) * th0 * th1
    )


def stiff_chain():
    chart = Chart.create(["q"], [], 2)
    return SuperLagrangian(chart, Fraction(1, 2) * chart.coord("q", 2) ** 2)


def random_corpus():
    """Twenty even one-coordinate Lagrangians: ten second order and ten
    third order, degree at most three, fixed seeds."""
    out = []
    for order, base_seed in ((2, 500), (3, 600)):
        chart = Chart.create(["q"], [], order)
        for i in range(10):
            rng = random.Random(base_seed + i)
            poly = random_poly(rng, order, 3, 4)
            out.append((order, chart, poly, SuperLagrangian(chart, poly_to_expr(poly, chart))))
    return out


def scalar_state(chart, order, values):
    wide = chart.at_order(order)
    return NumericState(
        0.0,
        {
            wide.gen(name, j): GrassmannValue(0, [v])
            for (name, j), v in values.items()
        },
        0,
    )


# -- 1: the oscillator comes out in closed form, exactly -------------------


def test_guarantee_1_oscillator_closed_form():
    with guarantee(1, "harmonic oscillator derived exactly", budget=1.0):
        lag = oscillator()
        chart = lag.chart
        data = cartan_data(lag)
        wide = chart.at_order(2)
        assert str(data.theta) == "q[1]*d(q[0])"
        assert str(data.omega) == "d(q[0])^d(q[1])"
        assert str(data.energy) == "1/2*q[0]^2 + 1/2*q[1]^2"
        assert data.delta_check.component(chart.gen("q", 0)) == -(
            chart.coord("q", 0)
        ) - wide.coord("q", 2)

        assert regularity(lag).verdict is Regularity.REGULAR
        dyn = solve_dynamics(lag, data)
        assert {str(g): str(e) for g, e in dyn.forces.items()} == {"q[2]": "-q[0]"}
        assert dyn.constraints == {}

        time_shift = VectorFieldAlong(
            chart, 0, 1, {chart.gen("q", 0): chart.coord("q", 1)}, Parity.EVEN
        )
        cert = certify_symmetry(time_shift, lag, data)
        assert cert.generating == lag.expr
        assert cert.charge == data.energy


# -- 2: momenta and field equations match an independent oracle ------------


def test_guarantee_2_random_lagrangians_match_oracle():
    with guarantee(2, "random order-2/3 momenta and field equations vs oracle", budget=30.0):
        sign = 0
        for order, chart, poly, lag in random_corpus():
            data = cartan_data(lag)
            wide = chart.at_order(2 * order)
            for i in range(order):
                expected = poly_to_expr(classical_momentum(poly, order, i), wide)
                assert data.theta.coefficient((chart.gen("q", i),)) == expected
            oracle = poly_to_expr(classical_field_equation(poly, order), wide)
            actual = data.delta_check.component(chart.gen("q", 0))
            if sign == 0:
                # one global orientation, fixed by the first sample
                sign = 1 if actual == oracle else (-1 if actual == -oracle else 0)
                assert sign != 0, "field equation differs from the oracle by more than a sign"
            assert actual == (oracle if sign == 1 else -oracle)


# -- 3: structural identities of the derived geometry ----------------------


def test_guarantee_3_structural_identities():
    with guarantee(3, "two-form closed, chain identity, semibasic levels"):
        corpus = [lag for _, _, _, lag in random_corpus()]
        corpus += [oscillator(), superparticle(), stiff_chain()]
        for lag in corpus:
            k = lag.order
            data = cartan_data(lag)
            assert exterior_d(data.omega).is_zero()
            t_field = total_derivative_field(lag.chart, 2 * k - 1)
            chain = interior(t_field, data.omega) - exterior_d(
                GradedForm({(): data.energy})
            )
            assert chain == data.delta
            # both raise if a differential sits above its stated level
            semibasic_check(data.theta, k - 1)
            semibasic_check(data.delta, 0)


# -- 4: two hundred randomized graded-calculus cases -----------------------


def test_guarantee_4_calculus_battery():
    with guarantee(4, "200 randomized graded-calculus identities"):
        chart = Chart.create(["q"], ["th"], 3)
        cases = 0

        rng = random.Random(701)
        for _ in range(40):
            form = random_form(rng, chart, 2, 2, rng.randint(0, 2))
            assert exterior_d(exterior_d(form)).is_zero()
            cases += 1

        rng = random.Random(702)
        for _ in range(40):
            form = random_form(rng, chart, 2, 2, rng.randint(0, 2))
            assert form_total_derivative(exterior_d(form)) == exterior_d(
                form_total_derivative(form)
            )
            cases += 1

        rng = random.Random(703)
        for _ in range(40):
            a = random_homogeneous_form(rng, chart, 2, rng.randint(0, 2), rng.choice(list(Parity)))
            b = random_homogeneous_form(rng, chart, 2, rng.randint(0, 2), rng.choice(list(Parity)))
            p, pa = form_degree_parity(a)
            q, pb = form_degree_parity(b)
            flip = (-1) ** (p * q + pa * pb)
            assert a.wedge(b) == (b.wedge(a) if flip == 1 else -b.wedge(a))
            cases += 1

        rng = random.Random(704)
        gens = chart.at_order(2).coordinates()
        done = 0
        while done < 20:
            x = rng.choice(gens)
            f = random_expr(rng, chart, 2, 2, 3, rng.choice(list(Parity)))
            g = random_expr(rng, chart, 2, 2, 3)
            if f.is_zero():
                continue
            flip = (-1) ** (x.parity.value * parity_of(f).value)
            assert left_partial(f * g, x) == left_partial(f, x) * g + flip * (
                f * left_partial(g, x)
            )
            done += 1
            cases += 1
        done = 0
        while done < 20:
            a = random_homogeneous_form(rng, chart, 2, rng.randint(1, 2), rng.choice(list(Parity)))
            b = random_homogeneous_form(rng, chart, 2, rng.randint(1, 2), rng.choice(list(Parity)))
            x = random_field(rng, chart, 2, 2, rng.choice(list(Parity)), max_degree=1)
            if x is None:
                continue
            p, pa = form_degree_parity(a)
            flip = (-1) ** (p + x.parity.value * pa)
            assert interior(x, a.wedge(b)) == interior(x, a).wedge(b) + (
                a.wedge(interior(x, b)) if flip == 1 else -a.wedge(interior(x, b))
            )
            done += 1
            cases += 1

        rng = random.Random(705)
        done = 0
        while done < 40:
            level = rng.randint(0, 1)
            upper = rng.randint(level, 3 - level)
            x = random_field(rng, chart, 0, 0, rng.choice(list(Parity)))
            if x is None:
                continue
            form = GradedForm.zero()
            for g in chart.at_order(level).coordinates():
                form = form + GradedForm.differential(g).scale(
                    random_expr(rng, chart, upper, 2, 2)
                )
            if form.is_zero():
                continue
            semibasic_check(form, level)
            lhs = interior(lift_vector_field(x, 3), form).coefficient(())
            lifted = lift_vector_field(x, level)
            wide = VectorFieldAlong(
                lifted.chart, lifted.source_order, upper + level, lifted.components, lifted.parity
            )
            rhs = interior(wide, form).coefficient(())
            assert lhs == rhs
            done += 1
            cases += 1

        assert cases == 200


# -- 5: solved dynamics satisfy the symplectic equation --------------------


def test_guarantee_5_dynamics_solve_the_symplectic_equation():
    with guarantee(5, "solved fields are second order and kill i_G omega - dE"):
        corpus = [lag for _, _, _, lag in random_corpus()]
        corpus += [oscillator(), superparticle(), stiff_chain()]
        checked = 0
        for lag in corpus:
            data = cartan_data(lag)
            if regularity(lag).verdict is not Regularity.REGULAR:
                continue
            dyn = solve_dynamics(lag, data)
            gamma = dyn.field()
            assert is_sode(gamma)
            residual = dyn.reduce_form(
                interior(gamma, data.omega)
                - exterior_d(GradedForm({(): data.energy}))
            )
            assert residual.is_zero()
            checked += 1
        # three corpus draws plus the three named systems pass the verdict
        assert checked == 6


# -- 6: Noether both ways --------------------------------------------------


def test_guarantee_6_noether_round_trips():
    with guarantee(6, "three symmetry/charge round trips", budget=10.0):
        runs = []

        free = free_particle()
        runs.append(
            (
                free,
                VectorFieldAlong(
                    free.chart,
                    0,
                    1,
                    {free.chart.gen("q", 0): SuperExpr.constant(1)},
                    Parity.EVEN,
                ),
            )
        )

        osc = oscillator()
        runs.append(
            (
                osc,
                VectorFieldAlong(
                    osc.chart, 0, 1, {osc.chart.gen("q", 0): osc.chart.coord("q", 1)},
                    Parity.EVEN,
                ),
            )
        )

        susy = superparticle()
        runs.append(
            (
                susy,
                VectorFieldAlong(
                    susy.chart,
                    0,
                    1,
                    {
                        susy.chart.gen("q", 0): susy.chart.coord("th", 0),
                        susy.chart.gen("th", 0): -susy.chart.coord("q", 1),
                    },
                    Parity.ODD,
                ),
            )
        )

        for lag, field in runs:
            data = cartan_data(lag)
            cert = certify_symmetry(field, lag, data)
            dyn = solve_dynamics(lag, data)
            assert check_constant_of_motion(cert.charge, dyn)
            witness, generating = noether_inverse(cert.charge, lag, data)
            assert noether_charge(witness, generating, lag, data) == cert.charge


# -- 7: conserved quantities survive integration; the control moves --------


def test_guarantee_7_numeric_conservation():
    osc = oscillator()
    with guarantee(7, "oscillator energy drift below 1e-6", budget=5.0):
        dyn = solve_dynamics(osc)
        initial = scalar_state(osc.chart, 1, {("q", 0): 1.0, ("q", 1): 0.0})
        traj = integrate(dyn, initial, dt=1e-3, t_end=1.0)
        report = conservation_report(traj, {"energy": cartan_data(osc).energy})
        assert report["energy"] <= 1e-6

    chain = stiff_chain()
    with guarantee(7, "order-2 chain energy drift below 1e-6", budget=5.0):
        dyn = solve_dynamics(chain)
        initial = scalar_state(
            chain.chart,
            3,
            {("q", 0): 1.0, ("q", 1): 0.5, ("q", 2): 0.25, ("q", 3): 0.125},
        )
        traj = integrate(dyn, initial, dt=1e-3, t_end=1.0)
        report = conservation_report(traj, {"energy": cartan_data(chain).energy})
        assert report["energy"] <= 1e-6

    susy = superparticle()
    with guarantee(7, "superparticle drifts below 1e-6 with 2 directions", budget=5.0):
        dyn = solve_dynamics(susy)
        chart = susy.chart
        initial = NumericState(
            0.0,
            {
                chart.gen("q", 0): GrassmannValue(2),
                chart.gen("q", 1): grassmann_value([(1.0, [])], 2),
                chart.gen("th", 0): grassmann_value([(1.0, [0])], 2),
                chart.gen("th", 1): GrassmannValue(2),
            },
            2,
        )
        traj = integrate(dyn, initial, dt=1e-3, t_end=1.0)
        report = conservation_report(
            traj,
            {
                "energy": cartan_data(susy).energy,
                "susy": chart.coord("q", 1) * chart.coord("th", 0),
            },
        )
        assert report["energy"] <= 1e-6
        assert report["susy"] <= 1e-6

    free = free_particle()
    with guarantee(7, "free-particle control actually moves", budget=5.0):
        dyn = solve_dynamics(free)
        initial = scalar_state(free.chart, 1, {("q", 0): 0.0, ("q", 1): 1.0})
        traj = integrate(dyn, initial, dt=1e-3, t_end=1.0)
        report = conservation_report(traj, {"position": free.chart.coord("q", 0)})
        assert 0.9 <= report["position"] <= 1.1


# -- 8: halving the step divides the energy drift by about sixteen ---------


def test_guarantee_8_fourth_order_convergence():
    with guarantee(8, "energy-drift ratio under dt halving lands in [8, 32]"):
        chart = Chart.create(["q"], [], 1)
        q0, q1 = chart.coord("q", 0), chart.coord("q", 1)
        lag = SuperLagrangian(
            chart, Fraction(1, 2) * q1**2 - Fraction(1, 4) * q0**4
        )
        dyn = solve_dynamics(lag)
        drifts = []
        for dt in (4e-3, 2e-3, 1e-3):
            initial = scalar_state(chart, 1, {("q", 0): 1.0, ("q", 1): 0.0})
            traj = integrate(dyn, initial, dt=dt, t_end=1.0)
            drifts.append(conservation_report(traj, {"energy": cartan_data(lag).energy})["energy"])
        assert drifts[0] > drifts[1] > drifts[2] > 0
        for coarse, fine in zip(drifts, drifts[1:]):
            assert 8.0 <= coarse / fine <= 32.0
