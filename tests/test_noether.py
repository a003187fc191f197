"""The two-way correspondence between symmetries and conserved charges."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import gen
from supermech import (
    Chart,
    LagrangianError,
    NotProjectable,
    NotSymmetry,
    Parity,
    Regularity,
    SuperExpr,
    SuperLagrangian,
    VectorFieldAlong,
    cartan_data,
    certify_symmetry,
    check_constant_of_motion,
    check_symmetry,
    interior,
    noether_charge,
    noether_inverse,
    parse_problem,
    solve_dynamics,
    total_derivative,
)

ROOT = Path(__file__).resolve().parent.parent


def make(even, odd, order, build):
    chart = Chart.create(even, odd, order)
    return SuperLagrangian(chart, build(chart))


def base_field(lag, components):
    chart = lag.chart
    comps = {chart.gen(name, 0): expr for name, expr in components.items()}
    return VectorFieldAlong(chart, 0, 2 * lag.order - 1, comps)


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


# -- forward direction -----------------------------------------------------


def test_translation_of_free_particle():
    lag = free_particle()
    chart = lag.chart
    x = base_field(lag, {"q": SuperExpr.constant(1)})
    generating = check_symmetry(x, lag)
    assert generating.is_zero()
    charge = noether_charge(x, generating, lag)
    assert charge == chart.coord("q", 1)
    assert check_constant_of_motion(charge, solve_dynamics(lag))


def test_time_translation_of_oscillator():
    lag = oscillator()
    chart = lag.chart
    x = base_field(lag, {"q": chart.coord("q", 1)})
    generating = check_symmetry(x, lag)
    assert generating == lag.expr
    charge = noether_charge(x, generating, lag)
    assert charge == (
        Fraction(1, 2) * chart.coord("q", 0) ** 2
        + Fraction(1, 2) * chart.coord("q", 1) ** 2
    )
    assert charge == cartan_data(lag).energy


def test_supersymmetry_of_superparticle():
    lag = superparticle()
    chart = lag.chart
    x = base_field(lag, {"q": chart.coord("th", 0), "th": -chart.coord("q", 1)})
    assert x.parity is Parity.ODD
    generating = check_symmetry(x, lag)
    assert generating == Fraction(1, 2) * chart.coord("q", 1) * chart.coord("th", 0)
    charge = noether_charge(x, generating, lag)
    assert charge == chart.coord("q", 1) * chart.coord("th", 0)
    assert check_constant_of_motion(charge, solve_dynamics(lag))


def test_shift_symmetry_of_second_order_chain():
    lag = second_order_chain()
    wide = lag.chart.at_order(3)
    x = base_field(lag, {"q": SuperExpr.constant(1)})
    generating = check_symmetry(x, lag)
    assert generating.is_zero()
    charge = noether_charge(x, generating, lag)
    assert charge == -wide.coord("q", 3)


def test_certify_symmetry_bundles_everything():
    lag = superparticle()
    chart = lag.chart
    x = base_field(lag, {"q": chart.coord("th", 0), "th": -chart.coord("q", 1)})
    cert = certify_symmetry(x, lag)
    assert cert.x_field is x
    assert cert.charge == chart.coord("q", 1) * chart.coord("th", 0)
    assert cert.generating == Fraction(1, 2) * chart.coord("q", 1) * chart.coord("th", 0)


# -- rejection certificates ------------------------------------------------


def test_not_symmetry_certificate_oscillator():
    lag = oscillator()
    chart = lag.chart
    x = base_field(lag, {"q": chart.coord("q", 0)})
    with pytest.raises(NotSymmetry) as info:
        check_symmetry(x, lag)
    assert {name: str(e) for name, e in info.value.certificate.items()} == {
        "q": "-2*q[0] - 2*q[2]"
    }


ORDER_TWO = "order 2; even q; odd th; L = 1/2*q[2]^2 + 1/2*th[1]*th[2] + q[0]*th[0]*th[1];"


@pytest.mark.parametrize(
    "field, certificate",
    [
        (
            "q -> q[0]; th -> th[0];",
            {"q": "3*th[0]*th[1] + 2*q[4]", "th": "-2*th[3] + 6*q[0]*th[1] + 3*q[1]*th[0]"},
        ),
        (
            "q -> th[0]*th[1]; th -> q[1]*th[0];",
            {
                "q": "th[0]*th[4] + th[0]*th[5] + th[1]*th[3] + 3*th[1]*th[4]"
                " + 2*th[2]*th[3] - 2*q[0]*th[0]*th[2]",
                "th": "4*q[0]*q[1]*th[1] + 2*q[0]*q[2]*th[0] - 2*q[1]*th[3] + 2*q[1]^2*th[0]"
                " - 3*q[2]*th[2] - 3*q[3]*th[1] - q[4]*th[0] + 2*q[4]*th[1] + q[5]*th[0]",
            },
        ),
    ],
    ids=["scaling", "mixing"],
)
def test_not_symmetry_certificates_at_order_two(field, certificate):
    # the rates reach jet order 3 and 4, so the variational derivatives
    # reach order 5
    spec = parse_problem(f"{ORDER_TWO} symmetry s {{ {field} }}")
    with pytest.raises(NotSymmetry) as info:
        check_symmetry(spec.symmetry_field("s"), spec.lagrangian())
    assert {name: str(e) for name, e in info.value.certificate.items()} == certificate


def test_not_symmetry_certificate_free_particle():
    lag = free_particle()
    chart = lag.chart
    x = base_field(lag, {"q": chart.coord("q", 0)})
    with pytest.raises(NotSymmetry) as info:
        check_symmetry(x, lag)
    assert {name: str(e) for name, e in info.value.certificate.items()} == {
        "q": "-2*q[2]"
    }


def test_not_symmetry_constant_rate():
    # L = q1^2/2 + q0 changes by the constant 1 under translation, which
    # is not a total derivative of anything polynomial
    lag = make(["q"], [], 1, lambda c: (
        Fraction(1, 2) * c.coord("q", 1) ** 2 + c.coord("q", 0)
    ))
    x = base_field(lag, {"q": SuperExpr.constant(1)})
    with pytest.raises(NotSymmetry) as info:
        check_symmetry(x, lag)
    assert {name: str(e) for name, e in info.value.certificate.items()} == {"1": "1"}


def test_charge_with_wrong_generating_function_fails_verification():
    lag = oscillator()
    chart = lag.chart
    x = base_field(lag, {"q": chart.coord("q", 1)})
    with pytest.raises(LagrangianError):
        noether_charge(x, SuperExpr.zero(), lag)


def test_wrong_generating_function_fails_verification_on_a_degenerate_system():
    # the first-variation identity needs no dynamics, so a charge is
    # checked whatever the regularity: here the gauge system, whose time
    # symmetry has generating function L, not 0
    spec = parse_problem((ROOT / "tests" / "data" / "gauge.sm").read_text(encoding="utf-8"))
    lag = spec.lagrangian()
    data = cartan_data(lag)
    assert data.regularity.verdict is Regularity.DEGENERATE
    x = spec.symmetry_field("time")
    assert check_symmetry(x, lag) == lag.expr
    with pytest.raises(LagrangianError, match="first-variation identity"):
        noether_charge(x, SuperExpr.zero(), lag, data)


def test_charge_that_does_not_project_is_rejected():
    lag = second_order_chain()
    wide = lag.chart.at_order(3)
    x = base_field(lag, {"q": wide.coord("q", 3)})
    with pytest.raises(NotProjectable):
        noether_charge(x, SuperExpr.zero(), lag, verify=False)


# -- inverse direction and round trips -------------------------------------


def test_round_trip_free_particle_translation():
    lag = free_particle()
    chart = lag.chart
    charge = chart.coord("q", 1)
    witness, generating = noether_inverse(charge, lag)
    assert dict(witness.components) == {chart.gen("q", 0): SuperExpr.constant(1)}
    assert generating.is_zero()
    assert noether_charge(witness, generating, lag) == charge


def test_round_trip_oscillator_energy():
    lag = oscillator()
    chart = lag.chart
    charge = cartan_data(lag).energy
    witness, generating = noether_inverse(charge, lag)
    assert dict(witness.components) == {chart.gen("q", 0): chart.coord("q", 1)}
    assert generating == lag.expr
    assert noether_charge(witness, generating, lag) == charge


def test_round_trip_susy_charge():
    lag = superparticle()
    chart = lag.chart
    charge = chart.coord("q", 1) * chart.coord("th", 0)
    witness, generating = noether_inverse(charge, lag)
    assert witness.parity is Parity.ODD
    assert witness.component(chart.gen("q", 0)) == chart.coord("th", 0)
    assert witness.component(chart.gen("th", 0)) == -chart.coord("q", 1)
    assert noether_charge(witness, generating, lag) == charge


def test_round_trip_second_order_shift():
    lag = second_order_chain()
    wide = lag.chart.at_order(3)
    charge = -wide.coord("q", 3)
    witness, generating = noether_inverse(charge, lag)
    assert dict(witness.components) == {wide.gen("q", 0): SuperExpr.constant(1)}
    assert generating.is_zero()
    assert noether_charge(witness, generating, lag) == charge


def test_inverse_of_zero_charge():
    lag = free_particle()
    witness, generating = noether_inverse(SuperExpr.zero(), lag)
    assert not witness.components
    assert generating.is_zero()


# -- the first-variation identity ------------------------------------------


def assert_charges_satisfy_the_first_variation_identity(text):
    """Every declared symmetry's charge Q satisfies T(Q) = -i_X delta with
    its symmetry X; on a regular system it is also constant along the
    solved dynamics, the certificate the identity replaced."""
    spec = parse_problem(text)
    lag = spec.lagrangian()
    data = cartan_data(lag)
    regular = data.regularity.verdict is Regularity.REGULAR
    for name in sorted(spec.symmetries):
        x = spec.symmetry_field(name)
        charge = noether_charge(x, check_symmetry(x, lag), lag, data, verify=False)
        assert (total_derivative(charge) + interior(x, data.delta).coefficient(())).is_zero()
        if regular:
            assert check_constant_of_motion(charge, data.dynamics)


@settings(max_examples=60)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2), st.integers(1, 2)
)
def test_generated_charges_satisfy_the_first_variation_identity(seed, n_even, n_odd, order):
    system = gen.system(random.Random(seed), n_even, n_odd, order)
    assert_charges_satisfy_the_first_variation_identity(system.text)


SYMMETRIC_PROBLEMS = sorted(
    path
    for path in [*(ROOT / "problems").glob("*.sm"), *(ROOT / "tests" / "data").glob("*.sm")]
    if parse_problem(path.read_text(encoding="utf-8")).symmetries
)


@pytest.mark.parametrize("path", SYMMETRIC_PROBLEMS, ids=[p.stem for p in SYMMETRIC_PROBLEMS])
def test_declared_charges_satisfy_the_first_variation_identity(path):
    assert_charges_satisfy_the_first_variation_identity(path.read_text(encoding="utf-8"))
