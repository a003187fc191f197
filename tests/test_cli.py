"""Command line behavior: report shapes, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from supermech import lagrangian
from supermech.cli import main

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
    assert "degenerate" in captured.err


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


@pytest.mark.parametrize("directions", [0, 8], ids=["straight-line", "numpy-step"])
def test_simulate_blowup_prints_one_line(problem_file, directions):
    # the finiteness check reports the overflow; numpy stays silent
    text = OSCILLATOR.replace("n = 0;", f"n = {directions};").replace(
        "init q[0] = 1.0;\n    init q[1] = 0.0;", "init q[0] = 1e308;\n    init q[1] = 1e308;"
    )
    source = str(ROOT.parent / "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "supermech.cli", "simulate", problem_file(text)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "supermech: non-finite value for q[0] at step 1\n"


def test_simulate_overflowing_conserved_quantity_fails(problem_file):
    # the states stay finite, but the energy of q = 1e200 overflows; the
    # report names it instead of measuring a drift of inf - inf
    text = OSCILLATOR.replace("init q[0] = 1.0;", "init q[0] = 1e200;").replace(
        "t = 1.0;", "t = 0.01;"
    )
    source = str(ROOT.parent / "src")
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "supermech.cli", "simulate", problem_file(text)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
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


def _fixed_outputs():
    """Every command on each shipped problem with the output it must print:
    simulate reports in tests/data, derive and noether reports in the
    benchmark's reference outputs.  An inverse command starts from the
    charge its symmetry command printed."""
    cases = []
    for name in ("oscillator", "ostrogradski", "superparticle"):
        problem = str(PROBLEMS / f"{name}.sm")
        cases += [
            pytest.param(["simulate", problem], ROOT / "data" / f"{name}.simulate.json", id=name),
            pytest.param(["derive", problem], REFERENCE / f"{name}.derive.txt", id=f"{name}.derive"),
            pytest.param(
                ["derive", problem, "--emit", "latex"],
                REFERENCE / f"{name}.derive.latex.txt",
                id=f"{name}.derive.latex",
            ),
        ]
        for path in sorted(REFERENCE.glob(f"{name}.noether_symmetry.*.txt")):
            symmetry = path.name.split(".")[2]
            charge = json.loads(path.read_text(encoding="utf-8"))["charge"]
            inverse = REFERENCE / f"{name}.noether_inverse.{symmetry}.txt"
            cases += [
                pytest.param(["noether", problem, "--symmetry", symmetry], path, id=path.stem),
                pytest.param(
                    ["noether", problem, f"--from-charge={charge}"], inverse, id=inverse.stem
                ),
            ]
    return cases


@pytest.mark.parametrize("argv, expected", _fixed_outputs())
def test_simulate_output_is_fixed(argv, expected, capsys):
    # the expected reports fix every drift value to the last bit
    code = main(argv)
    assert code == 0
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")


def _count_calls(monkeypatch, stages) -> Counter:
    """Count the calls of the named ``lagrangian`` functions."""
    calls = Counter()
    for stage in stages:
        real = getattr(lagrangian, stage)

        def counted(*args, _stage=stage, _real=real, **kwargs):
            calls[_stage] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(lagrangian, stage, counted)
    return calls


@pytest.mark.parametrize(
    "argv, counts",
    [
        (["derive"], (1, 1, 1, 0, 2, 0)),
        (["derive", "--emit", "latex"], (1, 1, 0, 0, 2, 0)),
        (["noether", "--symmetry", "susy"], (1, 1, 1, 1, 2, 0)),
        (["noether", "--from-charge", "q[1]*theta[0]"], (1, 0, 0, 0, 0, 2)),
        (["simulate"], (1, 1, 1, 0, 2, 0)),
    ],
    ids=["derive", "derive-latex", "symmetry", "inverse", "simulate"],
)
def test_each_command_derives_once(argv, counts, monkeypatch, capsys):
    # theta built, solve plan run, dynamics solved, conservation checked,
    # one determinant and adjugate per sector of the plan, and one rational
    # system per degree of the witness search; generating functions of
    # symmetries solve no system
    stages = (
        "cartan_operator",
        "_solve_plan",
        "_solve_dynamics",
        "check_constant_of_motion",
        "_det_adjugate",
        "_solve_rational",
    )
    calls = _count_calls(monkeypatch, stages)
    code = main([argv[0], str(PROBLEMS / "superparticle.sm"), *argv[1:]])
    capsys.readouterr()
    assert code == 0
    assert tuple(calls[stage] for stage in stages) == counts


def test_from_charge_not_conserved_stops_at_its_own_degree(problem_file, monkeypatch, capsys):
    # degrees 0 and 1 are searched; at degree 2, the charge's own, the
    # dynamics show it is not conserved, so no degree up to 4 is tried
    calls = _count_calls(monkeypatch, ["_solve_rational", "check_constant_of_motion"])
    code = main(["noether", problem_file(OSCILLATOR), "--from-charge", "q[0]^2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("supermech: ")
    assert "witness" in captured.err
    assert "not constant along the dynamics" in captured.err
    assert calls == {"_solve_rational": 2, "check_constant_of_motion": 1}


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


def test_unknown_subcommand_is_usage_error(problem_file, capsys):
    code = main(["frobnicate", problem_file(OSCILLATOR)])
    capsys.readouterr()
    assert code == 2
