"""Command line behavior: report shapes, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from supermech import (
    Chart,
    GradedForm,
    SuperExpr,
    cli,
    format_problem,
    forms,
    jets,
    lagrangian,
    parse_expression,
    parse_problem,
    problems,
)
from supermech.algebra import MAX_TERM_EXPONENT
from supermech.cli import latex_expr, latex_form, main
from supermech.problems import MAX_NESTING

from pinned import pinned_outputs

ROOT = Path(__file__).parent
PROBLEMS = ROOT.parent / "problems"
REFERENCE = ROOT.parent / "perfbench" / "reference"

OSCILLATOR = """
order 1;
even q;
L = 1/2*q[1]^2 - 1/2*q[0]^2;

symmetry time {
    q -> q[1];
}

simulate {
    n = 0;
    dt = 0.001;
    t = 1.0;
    init q[0] = 1.0;
    init q[1] = 0.0;
}
"""

SUPERPARTICLE = """
order 1;
even q;
odd th;
L = 1/2*q[1]^2 + 1/2*th[0]*th[1];

symmetry susy {
    q -> th[0];
    th -> -q[1];
}

simulate {
    n = 2;
    dt = 0.001;
    t = 1.0;
    init q[1] = 1.0;
    init th[0] = 1.0*g[0];
}
"""

DEGENERATE = """
order 1;
even q;
L = q[1];
"""

BAD_SYMMETRY = """
order 1;
even q;
L = 1/2*q[1]^2 - 1/2*q[0]^2;

symmetry scale {
    q -> q[0];
}
"""


@pytest.fixture
def problem_file(tmp_path):
    def write(text, name="problem.sm"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# -- derive ----------------------------------------------------------------

DERIVE_KEYS = {
    "schema",
    "command",
    "order",
    "coordinates",
    "lagrangian",
    "theta",
    "omega",
    "energy",
    "euler_lagrange",
    "regularity",
    "regular",
    "forces",
    "constraints",
}


def test_derive_regular_report(problem_file, capsys):
    code = main(["derive", problem_file(SUPERPARTICLE)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(report) == DERIVE_KEYS
    assert report["schema"] == 1
    assert report["order"] == 1
    assert report["regular"] is True
    assert report["regularity"] == "regular"
    assert report["theta"] == "q[1]*d(q[0]) + 1/2*th[0]*d(th[0])"
    assert report["omega"] == "d(q[0])^d(q[1]) - 1/2*d(th[0])^d(th[0])"
    assert report["energy"] == "1/2*q[1]^2"
    assert report["euler_lagrange"] == {"q": "-q[2]", "th": "-th[1]"}
    assert report["forces"] == {"q[2]": "0", "th[2]": "0"}
    assert report["constraints"] == {"th[1]": "0"}


def test_derive_degenerate_exits_one(problem_file, capsys):
    code = main(["derive", problem_file(DEGENERATE)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["regular"] is False
    assert report["regularity"] == "degenerate"
    assert report["forces"] == {}
    assert report["constraints"] == {}


def test_derive_is_deterministic(problem_file, capsys):
    path = problem_file(SUPERPARTICLE)
    main(["derive", path])
    first = capsys.readouterr().out
    main(["derive", path])
    second = capsys.readouterr().out
    assert first == second


def test_derive_latex(problem_file, capsys):
    code = main(["derive", problem_file(OSCILLATOR), "--emit", "latex"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        r"L = -\tfrac{1}{2} \, q_{0}^{2} + \tfrac{1}{2} \, q_{1}^{2}",
        r"\Theta_L = q_{1} \, \mathrm{d}q_{0}",
        r"\Omega_L = \mathrm{d}q_{0} \wedge \mathrm{d}q_{1}",
        r"E_L = \tfrac{1}{2} \, q_{0}^{2} + \tfrac{1}{2} \, q_{1}^{2}",
        r"\delta L / \delta q = -q_{0} - q_{2}",
        r"\text{regularity: regular}",
    ]


# -- noether ---------------------------------------------------------------


def test_noether_symmetry_report(problem_file, capsys):
    code = main(["noether", problem_file(SUPERPARTICLE), "--symmetry", "susy"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["is_symmetry"] is True
    assert report["F"] == "1/2*q[1]*th[0]"
    assert report["charge"] == "q[1]*th[0]"
    assert report["conserved"] is True


def test_noether_rejection_report(problem_file, capsys):
    code = main(["noether", problem_file(BAD_SYMMETRY), "--symmetry", "scale"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["is_symmetry"] is False
    assert report["certificate"] == {"q": "-2*q[0] - 2*q[2]"}


def test_noether_unknown_name_is_usage_error(problem_file, capsys):
    code = main(["noether", problem_file(OSCILLATOR), "--symmetry", "missing"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "missing" in captured.err


def test_noether_from_charge(problem_file, capsys):
    code = main(
        ["noether", problem_file(SUPERPARTICLE), "--from-charge", "q[1]*th[0]"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["mode"] == "inverse"
    assert report["symmetry"] == {"q": "th[0]", "th": "-q[1]"}
    assert report["F"] == "1/2*q[1]*th[0]"


def test_noether_from_charge_without_witness_fails(problem_file, capsys):
    code = main(["noether", problem_file(OSCILLATOR), "--from-charge", "q[0]"])
    captured = capsys.readouterr()
    assert code == 1
    assert "witness" in captured.err


def test_noether_requires_exactly_one_mode(problem_file, capsys):
    code = main(["noether", problem_file(OSCILLATOR)])
    capsys.readouterr()
    assert code == 2


# -- simulate --------------------------------------------------------------


def test_simulate_report(problem_file, capsys):
    code = main(["simulate", problem_file(OSCILLATOR)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["within_tolerance"] is True
    assert report["t_end"] == 1.0
    assert set(report["drift"]) == {"energy", "time"}
    assert report["drift"]["energy"] < 1e-12


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_simulate_rejects_a_bad_tolerance(problem_file, capsys, tol):
    code = main(["simulate", problem_file(OSCILLATOR), "--tol", tol])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "tolerance must be a finite number >= 0" in captured.err


def test_simulate_tolerance_failure(problem_file, capsys):
    code = main(["simulate", problem_file(OSCILLATOR), "--tol", "1e-18"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["within_tolerance"] is False


def test_simulate_requires_a_block(problem_file, capsys):
    code = main(["simulate", problem_file(DEGENERATE)])
    captured = capsys.readouterr()
    assert code == 2
    assert "simulate block" in captured.err


def test_simulate_degenerate_is_math_failure(problem_file, capsys):
    text = DEGENERATE + "simulate { dt = 0.1; t = 1.0; }\n"
    code = main(["simulate", problem_file(text)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "supermech: Lagrangian is degenerate\n"


def test_simulate_coefficient_out_of_float_range(problem_file, capsys):
    # derive prints the force -2*N*q[0] exactly; simulate cannot turn it
    # into a float
    text = (
        f"order 1; even q; L = 1/2*q[1]^2 - q[0]^2*{'9' * 400};\n"
        "simulate { n = 0; dt = 0.001; t = 1.0; init q[0] = 1.0; init q[1] = 0.0; }\n"
    )
    path = problem_file(text)
    assert main(["derive", path]) == 0
    capsys.readouterr()
    code = main(["simulate", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "supermech: a coefficient of magnitude about 10^400 is out of floating-point range\n"
    )


@pytest.mark.parametrize(
    "span, message",
    [
        ("dt = 0.001; t = 1e300;", "a trajectory of about 10^303 states needs"),
        ("dt = 0.000000001; t = 1000.0;", "a trajectory of about 10^12 states needs"),
        ("dt = 0.0000000001; t = 1e308;", "the span 1e+308 is not a finite number of steps"),
    ],
    ids=["long-time", "tiny-step", "infinitely-many-steps"],
)
def test_simulate_trajectory_too_large_to_store(problem_file, capsys, span, message):
    text = OSCILLATOR.replace("dt = 0.001;\n    t = 1.0;", span)
    code = main(["simulate", problem_file(text)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"supermech: {message}")
    if "trajectory" in message:
        assert "over the limit of 1073741824 bytes" in captured.err


BIG = "1" + "0" * 399


@pytest.mark.parametrize(
    "entries, column",
    [
        (f"dt = {BIG}; t = 1.0;", 10),
        (f"dt = 0.001; t = {BIG}/3;", 21),
        ("dt = 0.001; t = 1.0; init q[0] = 1e400;", 38),
        ("dt = 0.001; t = 1.0; init q[0] = 1e200*1e200;", 44),
        (f"dt = 0.001; t = 1.0; init q[0] = {BIG};", 38),
    ],
    ids=["dt-integer", "t-fraction", "init-literal", "init-product", "init-integer"],
)
def test_simulate_number_out_of_float_range(problem_file, capsys, entries, column):
    text = f"order 1;\neven q;\nL = 1/2*q[1]^2;\nsimulate {{\n    n = 0;\n    {entries}\n}}\n"
    code = main(["simulate", problem_file(text)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"supermech: line 6, column {column}: number out of floating-point range\n"
    )


def run_cli(args, **kwargs) -> subprocess.CompletedProcess:
    """``python -m supermech.cli`` in a child process that imports the
    package from this checkout."""
    source = str(ROOT.parent / "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "supermech.cli", *args],
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
        **kwargs,
    )


@pytest.mark.parametrize("directions", [0, 8], ids=["straight-line", "numpy-step"])
def test_simulate_blowup_prints_one_line(problem_file, directions):
    # the finiteness check reports the overflow; numpy stays silent
    text = OSCILLATOR.replace("n = 0;", f"n = {directions};").replace(
        "init q[0] = 1.0;\n    init q[1] = 0.0;", "init q[0] = 1e308;\n    init q[1] = 1e308;"
    )
    result = run_cli(["simulate", problem_file(text)], capture_output=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "supermech: non-finite value for q[0] at step 1\n"


def test_simulate_overflowing_conserved_quantity_fails(problem_file):
    # the states stay finite, but the energy of q = 1e200 overflows; the
    # report names it instead of measuring a drift of inf - inf
    text = OSCILLATOR.replace("init q[0] = 1.0;", "init q[0] = 1e200;").replace(
        "t = 1.0;", "t = 0.01;"
    )
    result = run_cli(["simulate", problem_file(text)], capture_output=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "supermech: non-finite value of energy at step 0\n"


def test_simulate_trajectory_out(problem_file, tmp_path, capsys):
    out_path = tmp_path / "trajectory.tsv"
    code = main(
        ["simulate", problem_file(OSCILLATOR), "--trajectory-out", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "time\tcoordinate\tmask\tvalue"
    assert len(lines) == 1 + 1001 * 2


# Every pinned output (tests/pinned.py) is checked by exactly one test,
# under a stable test id: a few outputs have tests of their own, the
# problems of OWN_PROBLEMS one test each, and every other output is checked
# by test_simulate_output_is_fixed.
PINNED = pinned_outputs()
OWN_TESTS = (
    "dense-N2-M1-k2.derive.latex",
    "dense-N4-M2-k1.derive",
    "dense-N4-M2-k1.noether_symmetry.time",
    "dense-N4-M2-k1.noether_inverse.time",
    "huge-exponent.derive",
)
OWN_PROBLEMS = ("coprime", "sheared", "dense-N2-M1-k2")


def assert_pinned(stem, capsys) -> str:
    """Run a pinned command and check its exit code and output."""
    argv, expected, code = PINNED[stem]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == expected.read_text(encoding="utf-8")
    return out


def _shared_cases():
    """The pinned outputs of no other test, each id'd by its stem; a
    simulate report, and a derive report that exits 1, by the problem's
    name alone."""
    cases = []
    for stem, (_, _, code) in PINNED.items():
        name, command = stem.split(".")[:2]
        if name not in OWN_PROBLEMS and stem not in OWN_TESTS:
            cases.append(pytest.param(stem, id=name if command == "simulate" or code else stem))
    return cases


def _problem_cases(name):
    """The pinned outputs of ``tests/data/<name>.sm`` without a test of
    their own, each id'd by its command."""
    return [
        pytest.param(stem, id=stem.partition(".")[2].removesuffix(".time"))
        for stem in PINNED
        if stem.startswith(f"{name}.") and stem not in OWN_TESTS
    ]


@pytest.mark.parametrize("stem", _shared_cases())
def test_simulate_output_is_fixed(stem, capsys):
    # the shipped problems, the sparse n=8 system of the seed-1 benchmark,
    # and two systems whose leading matrix is not constant, which exit 1:
    # the simulate reports fix every drift value to the last bit
    assert_pinned(stem, capsys)


@pytest.mark.parametrize("stem", _problem_cases("coprime"))
def test_coprime_denominator_outputs_are_fixed(stem, capsys):
    # a dense mass matrix whose coefficients have pairwise-coprime
    # denominators
    assert_pinned(stem, capsys)


@pytest.mark.parametrize("stem", _problem_cases("sheared"))
def test_polynomial_body_outputs_are_fixed(stem, capsys):
    # a regular system whose body has entries in z[0] and determinant 1:
    # the determinant and adjugate are found over polynomials
    assert_pinned(stem, capsys)


@pytest.mark.parametrize("stem", _problem_cases("dense-N2-M1-k2"))
def test_order_two_odd_sector_outputs_are_fixed(stem, capsys):
    # the dense-symbolic benchmark system N2-M1-k2 of seed 1: order 2, with
    # the odd coordinate th0 solved as a constraint sector (th0[1..3])
    assert_pinned(stem, capsys)


def test_second_order_odd_square_latex_output_is_fixed(capsys):
    # the same system: Omega_L carries the odd square d th0[0] ^ d th0[0],
    # which survives, in the LaTeX printer
    out = assert_pinned("dense-N2-M1-k2.derive.latex", capsys)
    assert r"\mathrm{d}\mathrm{th0}_{0} \wedge \mathrm{d}\mathrm{th0}_{0}" in out


def test_dense_odd_coupled_derive_output_is_fixed(capsys):
    # the dense-symbolic benchmark system N4-M2-k1 of seed 1: a REGULAR
    # system whose x1*th0*th1 coupling gives products with odd words in
    # both factors
    assert_pinned("dense-N4-M2-k1.derive", capsys)


def test_dense_odd_coupled_symmetry_output_is_fixed(capsys):
    # the same system's time symmetry: the rate X^(1)(L) and the homotopy
    # sweeps that give F carry the odd-coupled terms of the Lagrangian
    assert_pinned("dense-N4-M2-k1.noether_symmetry.time", capsys)


def test_dense_witness_output_is_fixed(capsys):
    # the same system's time charge: the witness search solves a 44-column
    # rational system with odd coordinates
    assert_pinned("dense-N4-M2-k1.noether_inverse.time", capsys)


def test_huge_exponent_output_is_fixed(capsys):
    # q[0]^262144 from three nested powers: each exponent adds within the
    # field of its generator in a term key
    assert_pinned("huge-exponent.derive", capsys)


def test_exponent_past_the_field_limit_exits_one(problem_file, capsys):
    # q[0]^(2^31) does not fit the exponent field of a term key
    path = problem_file("order 1; even q; L = 1/2*q[1]^2 - (((((q[0]^64)^64)^64)^64)^64)^2;\n")
    assert main(["derive", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"supermech: an exponent of q[0] exceeds {MAX_TERM_EXPONENT}, the largest a term can hold\n"


def test_calls_in_one_process_share_a_parser_and_leak_nothing(monkeypatch, capsys):
    # each call follows one that sets an option it leaves at its default,
    # or a usage error; every call prints what it prints alone: the stored
    # report, or what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")
    particle = str(PROBLEMS / "superparticle.sm")
    stored = [REFERENCE / f"superparticle.{name}.txt" for name in ("derive.latex", "derive")]
    calls = [
        (["derive", particle, "--emit", "latex"], stored[0]),
        (["derive", particle], stored[1]),
        (["simulate", particle, "--tol", "0"], None),
        (["simulate", particle], ROOT / "data" / "superparticle.simulate.json"),
        (["noether", particle, "--symmetry", "susy", "--from-charge", "q[0]"], None),
        (["derive", str(PROBLEMS / "oscillator.sm")], REFERENCE / "oscillator.derive.txt"),
        (["noether", particle, "--symmetry", "susy"], REFERENCE / "superparticle.noether_symmetry.susy.txt"),
        (["noether", particle, "--from-charge=q[1]*theta[0]"], REFERENCE / "superparticle.noether_inverse.susy.txt"),
    ]
    for argv, expected in calls:
        code = main(argv)
        captured = capsys.readouterr()
        if expected is None:
            alone = run_cli(argv, capture_output=True)
            assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr)
        else:
            assert (code, captured.out, captured.err) == (0, expected.read_text(encoding="utf-8"), "")
    assert cli.build_parser() is cli.build_parser()


def _count_calls(monkeypatch, stages, module=lagrangian) -> Counter:
    """Count the calls of the named functions of ``module``."""
    calls = Counter()
    for stage in stages:
        real = getattr(module, stage)

        def counted(*args, _stage=stage, _real=real, **kwargs):
            calls[_stage] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, stage, counted)
    return calls


@pytest.mark.parametrize(
    "problem, argv, counts",
    [
        ("superparticle.sm", ["derive"], (1, 1, 1, 0, 2, 0, 6)),
        ("superparticle.sm", ["derive", "--emit", "latex"], (1, 1, 0, 0, 2, 0, 0)),
        ("superparticle.sm", ["noether", "--symmetry", "susy"], (1, 1, 0, 0, 2, 0, 0)),
        ("superparticle.sm", ["noether", "--from-charge", "q[1]*theta[0]"], (1, 0, 0, 0, 0, 1, 0)),
        ("superparticle.sm", ["simulate"], (1, 1, 1, 0, 2, 0, 6)),
        ("ostrogradski.sm", ["noether", "--from-charge=-q[3]"], (1, 1, 0, 0, 1, 0, 0)),
    ],
    ids=["derive", "derive-latex", "symmetry", "inverse", "simulate", "inverse-closed-form"],
)
def test_each_command_derives_once(problem, argv, counts, monkeypatch, capsys):
    # theta built, solve plan run, dynamics solved only by the commands
    # that report or integrate it (charges are certified by the
    # first-variation identity, with no dynamics and no conservation check
    # along it), one determinant and adjugate per sector of the plan, one
    # rational system per degree of the witness search (the superparticle's
    # susy charge q[1]*theta[0] is searched from degree 1, the first a
    # witness can have, and its odd constraint sector keeps the search from
    # reading the plan), and one substitution per pass of the on-shell and
    # constraint loops; generating functions of symmetries solve no system.
    # Every field equation of ostrogradski reaches the top jets, so its
    # witness is one solve of the plan's one sector, with no search
    stages = (
        "cartan_operator",
        "_solve_plan",
        "_solve_dynamics",
        "check_constant_of_motion",
        "_det_adjugate",
        "_solve_rational",
        "substitute",
    )
    calls = _count_calls(monkeypatch, stages)
    code = main([argv[0], str(PROBLEMS / problem), *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert tuple(calls[stage] for stage in stages) == counts


@pytest.mark.parametrize(
    "argv, counts",
    [
        (["derive"], (1, 0)),
        (["noether", "--from-charge", "q[1]*theta[0]"], (1, 1)),
    ],
    ids=["derive", "inverse"],
)
def test_each_command_builds_each_field_once(argv, counts, monkeypatch, capsys):
    # one total-derivative field on T^(2k-1) gives the energy and the
    # chain identity; one k-th lift of the witness gives both the
    # generating function and the rate X^(k)(L)
    stages = ("total_derivative_field", "lift_vector_field")
    calls = _count_calls(monkeypatch, stages)
    code = main([argv[0], str(PROBLEMS / "superparticle.sm"), *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert tuple(calls[stage] for stage in stages) == counts


@pytest.mark.parametrize(
    "problem, module, stage, count",
    [
        ("superparticle.sm", lagrangian, "exterior_d", 3),
        ("ostrogradski.sm", forms, "transpose_vertical", 2),
    ],
    ids=["exterior-d", "transpose"],
)
def test_derive_builds_each_form_once(problem, module, stage, count, monkeypatch, capsys):
    # dL, d(theta) and dE, the last kept for the contraction check of the
    # dynamics; at order 2, S* once for S*^1 and once more for S*^2
    calls = _count_calls(monkeypatch, [stage], module)
    code = main(["derive", str(PROBLEMS / problem)])
    capsys.readouterr()
    assert code == 0
    assert calls[stage] == count


@pytest.mark.parametrize(
    "argv, count",
    [(["noether", "--symmetry", "susy"], 0), (["simulate"], 1)],
    ids=["symmetry", "simulate"],
)
def test_each_command_builds_the_dynamics_field_once(argv, count, monkeypatch, capsys):
    # the verification of the dynamics and the integrator both read the
    # one field kept on ``Dynamics``; noether --symmetry solves no dynamics
    # and builds none; no other field is built in ``lagrangian`` on these
    # commands
    calls = _count_calls(monkeypatch, ["VectorFieldAlong"])
    code = main([argv[0], str(PROBLEMS / "superparticle.sm"), *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert calls["VectorFieldAlong"] == count


@pytest.mark.parametrize(
    "argv",
    [
        ["derive"],
        ["noether", "--symmetry", "susy"],
        ["noether", "--from-charge", "q[1]*theta[0]"],
        ["simulate"],
    ],
    ids=["derive", "symmetry", "inverse", "simulate"],
)
def test_each_command_builds_each_symmetry_field_once(argv, monkeypatch, capsys):
    # the parser builds each declared symmetry's field (susy and time) to
    # check its parity and keeps it; the commands read the kept field
    calls = _count_calls(monkeypatch, ["VectorFieldAlong"], module=problems)
    code = main([argv[0], str(PROBLEMS / "superparticle.sm"), *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert calls["VectorFieldAlong"] == 2


def test_derive_takes_each_sector_body_once(monkeypatch, capsys):
    # the superparticle has a 1x1 dynamical and a 1x1 constraint sector;
    # the solve reads the bodies kept on each sector
    real = SuperExpr.body
    calls = Counter()

    def counted(self):
        calls["body"] += 1
        return real(self)

    monkeypatch.setattr(SuperExpr, "body", counted)
    code = main(["derive", str(PROBLEMS / "superparticle.sm")])
    capsys.readouterr()
    assert code == 0
    assert calls["body"] == 2


def test_derive_builds_each_chart_once(monkeypatch, capsys):
    # the order-k chart and every chart ``at_order`` reaches are shared
    # values, so each is built (and its names checked) once; the shared
    # charts are dropped first, so the count does not depend on earlier
    # tests
    real = Chart.__post_init__
    built = Counter()

    def counted(self):
        built[self.base_even, self.base_odd, self.order] += 1
        real(self)

    monkeypatch.setattr(Chart, "__post_init__", counted)
    jets._chart.cache_clear()
    code = main(["derive", str(PROBLEMS / "superparticle.sm")])
    capsys.readouterr()
    assert code == 0
    assert built == {(("q",), ("theta",), 0): 1, (("q",), ("theta",), 1): 1}


def _not_conserved_calls(path, charge, monkeypatch, capsys) -> Counter:
    """Run ``noether --from-charge`` on a charge that is not conserved,
    check its one-line refusal, and return the witness search's calls."""
    calls = _count_calls(monkeypatch, ["_solve_rational", "check_constant_of_motion"])
    code = main(["noether", path, "--from-charge", charge])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "supermech: no witness field of any degree: the quantity is not constant along the dynamics\n"
    )
    return calls


# an odd th whose equation th[1] is of lower order makes a constraint
# sector, which keeps a system's witnesses on the search
WITH_CONSTRAINT = "odd th; L = 1/2*th[0]*th[1] + "
FREE = "order 1; even q; L = 1/2*q[1]^2;"


def test_from_charge_not_conserved_stops_at_its_own_degree(problem_file, monkeypatch, capsys):
    # T(q[0]^2) has degree 2 and the field equation degree 1, so the search
    # starts at degree 1; at degree 2, the charge's own, the dynamics show
    # it is not conserved, so no degree up to 4 is tried
    path = problem_file(OSCILLATOR.replace("L = ", WITH_CONSTRAINT))
    calls = _not_conserved_calls(path, "q[0]^2", monkeypatch, capsys)
    assert calls == {"_solve_rational": 1, "check_constant_of_motion": 1}


def test_from_charge_search_starts_at_the_first_degree_a_witness_can_have(problem_file, monkeypatch, capsys):
    # the free particle's field equation q[2] has degree 1, so no witness
    # of degree below 127 can give T(G), of degree 128: one system is
    # solved, not the 128 of degrees 0..127
    path = problem_file(FREE.replace("L = ", WITH_CONSTRAINT))
    calls = _not_conserved_calls(path, "q[0]^64*q[1]^64", monkeypatch, capsys)
    assert calls == {"_solve_rational": 1, "check_constant_of_motion": 1}


@pytest.mark.parametrize(
    "text, charge", [(OSCILLATOR, "q[0]^2"), (FREE, "q[0]^64*q[1]^64")], ids=["oscillator", "free"]
)
def test_from_charge_not_conserved_is_decided_with_no_search(text, charge, problem_file, monkeypatch, capsys):
    # with no constraint sector, the one witness the closed form finds
    # fails the first-variation identity, and the dynamics tell why: no
    # rational system is solved
    calls = _not_conserved_calls(problem_file(text), charge, monkeypatch, capsys)
    assert calls == Counter(check_constant_of_motion=1)


def _chain(n, k):
    """A Fermi-Pasta-Ulam chain of n unit masses of order k between fixed
    walls: kinetic terms 1/2*x[k]^2 and springs 1/2*d^2 + 1/4*d^4 on each
    stretch d."""
    xs = [f"x{i}" for i in range(n)]
    stretches = [f"{xs[0]}[0]", *(f"({b}[0] - {a}[0])" for a, b in zip(xs, xs[1:])), f"{xs[-1]}[0]"]
    kinetic = " + ".join(f"1/2*{x}[{k}]^2" for x in xs)
    springs = " ".join(f"- 1/2*{d}^2 - 1/4*{d}^4" for d in stretches)
    time = " ".join(f"{x} -> {x}[1];" for x in xs)
    return f"order {k}; even {', '.join(xs)}; L = {kinetic} {springs}; symmetry time {{ {time} }}"


def test_from_charge_of_a_squared_energy_solves_one_sector(problem_file, monkeypatch, capsys):
    # the square of the energy of the order-2 chain of four masses needs a
    # witness of degree 5, which the search reached after seconds; every
    # field equation reaches x[4], so the closed form solves the plan's one
    # sector, with no search and no dynamics, for the witness 2*E*x[1]
    path = problem_file(_chain(4, 2))
    assert main(["noether", path, "--symmetry", "time"]) == 0
    energy = json.loads(capsys.readouterr().out)["charge"]
    calls = _count_calls(monkeypatch, ["_solve_rational", "_solve_dynamics"])
    assert main(["noether", path, f"--from-charge=({energy})^2"]) == 0
    assert calls == Counter()
    symmetry = json.loads(capsys.readouterr().out)["symmetry"]
    chart = Chart.create([f"x{i}" for i in range(4)], [], 3)
    for name, component in symmetry.items():
        expected = 2 * parse_expression(energy, chart, 3) * chart.coord(name, 1)
        assert parse_expression(component, chart, 3) == expected


# -- rendering -------------------------------------------------------------


def test_sums_of_terms_are_written_one_way():
    # the reference outputs hold no coefficient of several terms before a
    # differential and no negative or zero Grassmann coefficient
    chart = Chart.create(["q"], ["th"], 1)
    q0, q1, th0 = chart.coord("q", 0), chart.coord("q", 1), chart.coord("th", 0)
    several = -(q1 * q1 - 2 * q0 + Fraction(1, 2))
    form = (
        GradedForm.term(several, [chart.gen("q", 0)])
        + GradedForm.term(Fraction(-3, 4) * q1, [chart.gen("q", 1)])
        + GradedForm.term(SuperExpr.constant(-1), [chart.gen("th", 0)])
        + GradedForm.term(Fraction(2, 3) * th0, [chart.gen("q", 0), chart.gen("th", 1)])
        + GradedForm.term(SuperExpr.constant(1), [chart.gen("th", 1)])
    )
    assert str(form) == (
        "(-1/2 + 2*q[0] - q[1]^2)*d(q[0]) + 2/3*th[0]*d(q[0])^d(th[1])"
        " - 3/4*q[1]*d(q[1]) - d(th[0]) + d(th[1])"
    )
    assert latex_form(form) == (
        r"\left( -\tfrac{1}{2} + 2 \, q_{0} - q_{1}^{2} \right) \mathrm{d}q_{0}"
        r" + \tfrac{2}{3} \, \theta_{0} \, \mathrm{d}q_{0} \wedge \mathrm{d}\theta_{1}"
        r" - \tfrac{3}{4} \, q_{1} \, \mathrm{d}q_{1} - \mathrm{d}\theta_{0} + \mathrm{d}\theta_{1}"
    )
    zero_form = GradedForm({(): several})
    assert str(zero_form) == "-1/2 + 2*q[0] - q[1]^2"
    assert latex_form(zero_form) == r"-\tfrac{1}{2} + 2 \, q_{0} - q_{1}^{2}"
    expr = Fraction(-3, 4) * q1 * th0 - q0 + Fraction(5, 2) * q1 * q1
    assert str(expr) == "-q[0] - 3/4*q[1]*th[0] + 5/2*q[1]^2"
    assert latex_expr(expr) == (
        r"-q_{0} - \tfrac{3}{4} \, q_{1} \, \theta_{0} + \tfrac{5}{2} \, q_{1}^{2}"
    )
    init = "init q[0] = -0.0;\n    init q[1] = -1.5 - 2.0*g[0]*g[1];"
    problem = parse_problem(
        SUPERPARTICLE.replace("init q[1] = 1.0;", init).replace(
            "init th[0] = 1.0*g[0];", "init th[0] = -0.0*g[1] - 0.25*g[0];"
        )
    )
    assert format_problem(problem).endswith(
        "    init q[0] = 0.0;\n"
        "    init q[1] = -1.5 - 2.0*g[0]*g[1];\n"
        "    init th[0] = -0.25*g[0];\n"
        "}\n"
    )


# -- usage and input errors ------------------------------------------------


def test_missing_file_is_usage_error(capsys):
    code = main(["derive", "/nonexistent/problem.sm"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err


def test_parse_error_is_usage_error(problem_file, capsys):
    code = main(["derive", problem_file("order 1; even q; L = 0.5*q[1];")])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 1" in captured.err


def test_exponent_above_the_limit_is_usage_error(problem_file, capsys):
    text = "order 1;\neven q;\nL = 1/2*q[1]^2 - q[0]^{};\n"
    code = main(["derive", problem_file(text.format(65))])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3, column 23" in err
    assert "64" in err
    assert main(["derive", problem_file(text.format(64))]) == 0
    assert '"q[2]": "-64*q[0]^63"' in capsys.readouterr().out


def test_problem_file_that_is_not_utf8_is_usage_error(problem_file, capsys):
    path = problem_file("")
    Path(path).write_bytes(b"order 1; even q; L = 1/2*q[1]^2; # \xff\n")
    code = main(["derive", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"supermech: {path}: not UTF-8 text: invalid byte at offset 35\n"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_endings_are_read_as_newlines(problem_file, capsys, newline):
    path = problem_file("")
    Path(path).write_bytes(newline.join(["order 1;", "even q;", "L = q[1] $;", ""]).encode())
    assert main(["derive", path]) == 2
    assert capsys.readouterr().err == "supermech: line 3, column 10: unexpected character '$'\n"


@pytest.mark.parametrize(
    "text, position, digit",
    [
        ("order ٢;\neven q;\nL = 1/2*q[1]^2;\n", "line 1, column 7", "٢"),
        ("order 1;\neven q;\nL = 1/2*q[١]^2;\n", "line 3, column 11", "١"),
    ],
    ids=["order", "subscript"],
)
def test_non_ascii_digits_are_unexpected_characters(problem_file, capsys, text, position, digit):
    path = problem_file("")
    Path(path).write_bytes(text.encode("utf-8"))
    assert main(["derive", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"supermech: {position}: unexpected character {digit!r}\n"


def test_a_no_break_space_separates_tokens(problem_file, capsys):
    path = problem_file("")
    Path(path).write_bytes("order 1;\neven q;\nL = 1/2*q[1]^2;\n".encode("utf-8"))
    assert main(["derive", path]) == 0
    assert json.loads(capsys.readouterr().out)["lagrangian"] == "1/2*q[1]^2"


@pytest.mark.parametrize(
    "lagrangian, column",
    [
        ("(" * 1200 + "q[1]" + ")" * 1200 + "^2", 5 + MAX_NESTING),
        ("1/2*q[1]^2 + " + "-" * 3000 + "q[0]", 18 + MAX_NESTING),
    ],
    ids=["parentheses", "signs"],
)
def test_nesting_above_the_limit_is_usage_error(problem_file, capsys, lagrangian, column):
    code = main(["derive", problem_file(f"order 1;\neven q;\nL = {lagrangian};\n")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"supermech: line 3, column {column}: parentheses and signs nested deeper"
        f" than the limit {MAX_NESTING}\n"
    )


def test_charge_nested_above_the_limit_is_usage_error(problem_file, capsys):
    charge = "-(" * 600 + "q[0]" + ")" * 600
    code = main(["noether", problem_file(OSCILLATOR), f"--from-charge={charge}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"supermech: line 1, column {MAX_NESTING + 1}: ")


@pytest.mark.parametrize("emit", ["json", "latex"])
def test_coefficient_too_long_to_print_is_math_failure(problem_file, capsys, emit):
    # the literal is as long as the parser allows; the force -2*N*q[0] is
    # one digit longer than the interpreter prints
    text = f"order 1; even q; L = 1/2*q[1]^2 - q[0]^2*{'9' * 4300};"
    code = main(["derive", "--emit", emit, problem_file(text)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("supermech: ")
    assert "4300 digits" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("emit", ["json", "latex"])
def test_denominator_too_long_to_print_is_math_failure(problem_file, capsys, emit):
    # each literal is as long as the parser allows; their product, the
    # denominator of the potential, is twice as long as the interpreter prints
    text = f"order 1; even q; L = 1/2*q[1]^2 - 1/{'9' * 4300}*1/{'7' * 4300}*q[0]^2;"
    code = main(["derive", "--emit", emit, problem_file(text)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("supermech: ")
    assert captured.err.count("\n") == 1
    assert "4300 digits" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["derive", "superparticle.sm"], ["simulate", "oscillator.sm"]],
    ids=["derive", "simulate"],
)
def test_closed_stdout_is_one_message(argv):
    # the read end of the pipe is closed before the child starts, so its
    # first write to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_cli(
            [argv[0], str(PROBLEMS / argv[1])], stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("supermech: ")
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


def test_unknown_subcommand_is_usage_error(problem_file, capsys):
    code = main(["frobnicate", problem_file(OSCILLATOR)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["simulate", "{path}", "--tol", "nan"], "argument --tol: tolerance must be a finite number >= 0, got 'nan'"),
        (["simulate", "{path}", "--tol"], "argument --tol: expected one argument"),
        (["derive", "{path}", "--emit", "xml"], "argument --emit: invalid choice: 'xml'"),
        (["derive"], "the following arguments are required: problem"),
        (["noether", "{path}"], "one of the arguments --symmetry --from-charge is required"),
        (["derive", "{path}", "extra"], "unrecognized arguments: extra"),
        (["frobnicate", "{path}"], "argument command: invalid choice: 'frobnicate'"),
    ],
)
def test_a_rejected_argument_prints_one_line(problem_file, capsys, args, message):
    # no usage line: the one ``supermech:`` line of every other failure
    path = problem_file(OSCILLATOR)
    code = main([arg.format(path=path) for arg in args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"supermech: {message}")
    assert captured.err.count("\n") == 1


def test_help_prints_usage_and_exits_zero(capsys):
    assert main(["derive", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: supermech derive ")
    assert captured.err == ""
