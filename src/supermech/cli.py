"""Command line front end.

Three subcommands work on problem files:

* ``derive``: momentum and symplectic forms, energy, field equations,
  regularity, and (when regular) the solved forces and constraints.
* ``noether``: check a declared symmetry and produce its conserved
  charge, or start from a charge and recover a symmetry.
* ``simulate``: integrate the solved dynamics and report conservation
  drift.

Reports are JSON on stdout (``--emit latex`` switches derive to LaTeX
lines).  Exit code 0 means success, 1 a mathematical failure, 2 bad
usage or input, or a stdout closed before the report is written.  Three
verdicts at exit 1 are reports, printed on stdout with nothing on
stderr: ``derive`` of a system that is not regular, ``noether
--symmetry`` of a field that is not a symmetry, and ``simulate`` with a
drift out of tolerance.  Any other failure prints one ``supermech: ...``
line on stderr and no report, a rejected option value included;
``--help`` prints its text and exits 0.  Output is
deterministic: identical inputs give identical bytes.  Only ``simulate``
loads the numeric layer, and numpy with it.

``main`` may be called any number of times in one process.  The calls
share one argument parser, built on the first call; parsing keeps no
state between calls, so each call prints what it would print alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Mapping

from .algebra import (
    AlgebraError,
    GeneratorSymbol,
    SuperExpr,
    TermKey,
    coefficient_text,
    printed_terms,
    scaled,
    signed_sum,
)
from .forms import FormError, GradedForm, WedgeWord, grouped_coefficient
from .jets import JetError
from .lagrangian import (
    CartanData,
    LagrangianError,
    NotSymmetry,
    Regularity,
    cartan_data,
    certify_symmetry,
    noether_inverse,
)
from .problems import (
    ProblemError,
    ProblemFile,
    parse_expression,
    parse_problem,
)

SCHEMA_VERSION = 1

_GREEK = {
    "th": r"\theta",
    "theta": r"\theta",
    "psi": r"\psi",
    "phi": r"\phi",
    "chi": r"\chi",
    "eta": r"\eta",
    "xi": r"\xi",
}


class _InputFailure(Exception):
    pass


class _NumericFailure(Exception):
    """A ``NumericError`` of ``simulate``, reported with its message
    (exit 1) without loading the numeric layer for the other commands."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are ``_InputFailure``s, so that a
    bad option value prints one ``supermech:`` line like any other bad
    input; ``--help`` prints its text and exits 0 as usual."""

    def error(self, message: str):
        raise _InputFailure(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the command line, built once per process."""
    parser = _Parser(
        prog="supermech",
        description="Symbolic higher-order Lagrangian mechanics with even and odd coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="derive forms, energy, field equations, dynamics")
    derive.add_argument("problem", help="path to a problem file")
    derive.add_argument(
        "--emit", choices=("json", "latex"), default="json", help="output format"
    )

    noether = sub.add_parser("noether", help="relate symmetries and conserved charges")
    noether.add_argument("problem", help="path to a problem file")
    group = noether.add_mutually_exclusive_group(required=True)
    group.add_argument("--symmetry", metavar="NAME", help="check a symmetry declared in the file")
    group.add_argument(
        "--from-charge",
        metavar="EXPR",
        help="recover a symmetry from a conserved quantity",
    )

    simulate = sub.add_parser("simulate", help="integrate the dynamics and report drift")
    simulate.add_argument("problem", help="path to a problem file")
    simulate.add_argument(
        "--tol", type=_tolerance, default=1e-6, help="conservation tolerance (default 1e-6)"
    )
    simulate.add_argument(
        "--trajectory-out", metavar="PATH", help="write the sampled trajectory to a file"
    )
    return parser


def _tolerance(text: str) -> float:
    """A finite, non-negative tolerance; anything else is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        problem = _load_problem(args.problem)
        if args.command == "derive":
            output = run_derive(problem, emit=args.emit)
        elif args.command == "noether":
            output = run_noether(
                problem, symmetry=args.symmetry, from_charge=args.from_charge
            )
        else:
            output = run_simulate(
                problem, tol=args.tol, trajectory_out=args.trajectory_out
            )
        text, code = output if isinstance(output, tuple) else (output, 0)
        print(text)
        sys.stdout.flush()
    except SystemExit as exc:
        # only ``--help`` exits from the parser
        return int(exc.code or 0)
    except BrokenPipeError as exc:
        # the reader closed stdout: send what is still buffered to devnull,
        # so the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"supermech: {exc}", file=sys.stderr)
        return 2
    except (_InputFailure, ProblemError, OSError) as exc:
        print(f"supermech: {exc}", file=sys.stderr)
        return 2
    except (LagrangianError, _NumericFailure, FormError, JetError, AlgebraError) as exc:
        print(f"supermech: {exc}", file=sys.stderr)
        return 1
    return code


def _load_problem(path: str) -> ProblemFile:
    # decoded whole, so that an error's offset counts from the start of
    # the file; the newlines are translated as text mode would
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _InputFailure(f"{path}: not UTF-8 text: invalid byte at offset {exc.start}") from None
    return parse_problem(text.replace("\r\n", "\n").replace("\r", "\n"))


def _render(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False)


# -- derive ----------------------------------------------------------------


def run_derive(problem: ProblemFile, emit: str = "json"):
    lag = problem.lagrangian()
    data = cartan_data(lag)
    regular = data.regularity.verdict is Regularity.REGULAR
    code = 0 if regular else 1

    if emit == "latex":
        return _derive_latex(data), code

    chart = lag.chart
    report = {
        "schema": SCHEMA_VERSION,
        "command": "derive",
        "order": lag.order,
        "coordinates": {
            "even": list(chart.base_even),
            "odd": list(chart.base_odd),
        },
        "lagrangian": str(lag.expr),
        "theta": str(data.theta),
        "omega": str(data.omega),
        "energy": str(data.energy),
        "euler_lagrange": {
            gen.name: str(data.delta_check.component(gen))
            for gen in chart.at_order(0).coordinates()
        },
        "regularity": data.regularity.verdict.value,
        "regular": regular,
        "forces": _by_coordinate(data.dynamics.forces) if regular else {},
        "constraints": _by_coordinate(data.dynamics.constraints) if regular else {},
    }
    return _render(report), code


def _by_coordinate(exprs: Mapping[GeneratorSymbol, SuperExpr]) -> dict[str, str]:
    """Expressions keyed by coordinate, written in coordinate order."""
    return {
        str(gen): str(exprs[gen]) for gen in sorted(exprs, key=lambda gen: gen.sort_key)
    }


def _derive_latex(data: CartanData) -> str:
    chart = data.lagrangian.chart
    lines = [
        f"L = {latex_expr(data.lagrangian.expr)}",
        f"\\Theta_L = {latex_form(data.theta)}",
        f"\\Omega_L = {latex_form(data.omega)}",
        f"E_L = {latex_expr(data.energy)}",
    ]
    for gen in chart.at_order(0).coordinates():
        component = data.delta_check.component(gen)
        lines.append(
            f"\\delta L / \\delta {latex_name(gen.name)} = {latex_expr(component)}"
        )
    lines.append(f"\\text{{regularity: {data.regularity.verdict.value}}}")
    return "\n".join(lines)


# -- noether ---------------------------------------------------------------


def run_noether(problem: ProblemFile, symmetry: str | None, from_charge: str | None):
    lag = problem.lagrangian()
    data = cartan_data(lag)
    if symmetry is not None:
        if symmetry not in problem.symmetries:
            raise _InputFailure(f"no symmetry named {symmetry!r} in the problem file")
        field = problem.symmetry_field(symmetry)
        try:
            certificate = certify_symmetry(field, lag, data)
        except NotSymmetry as exc:
            report = {
                "schema": SCHEMA_VERSION,
                "command": "noether",
                "mode": "symmetry",
                "symmetry": symmetry,
                "is_symmetry": False,
                "certificate": {
                    name: str(expr) for name, expr in sorted(exc.certificate.items())
                },
            }
            return _render(report), 1
        # certify_symmetry has checked the first-variation identity, so the
        # charge is constant along every solution of the field equations;
        # only a regular system is known to have a dynamics, so only there
        # is it reported conserved.  No dynamics is solved here.
        conserved = True if data.regularity.verdict is Regularity.REGULAR else None
        report = {
            "schema": SCHEMA_VERSION,
            "command": "noether",
            "mode": "symmetry",
            "symmetry": symmetry,
            "is_symmetry": True,
            "F": str(certificate.generating),
            "charge": str(certificate.charge),
            "conserved": conserved,
        }
        return _render(report)

    assert from_charge is not None
    chart = lag.chart
    charge_expr = parse_expression(
        from_charge, chart.at_order(2 * lag.order - 1), 2 * lag.order - 1
    )
    witness, generating = noether_inverse(charge_expr, lag, data)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "noether",
        "mode": "inverse",
        "charge": str(charge_expr),
        "symmetry": {
            gen.name: str(witness.component(gen))
            for gen in chart.at_order(0).coordinates()
        },
        "F": str(generating),
    }
    return _render(report)


# -- simulate --------------------------------------------------------------


def run_simulate(problem: ProblemFile, tol: float, trajectory_out: str | None):
    from .numeric import NumericError, conservation_report, integrate

    if problem.simulation is None:
        raise _InputFailure("the problem file has no simulate block")
    lag = problem.lagrangian()
    data = cartan_data(lag)
    dynamics = data.dynamics  # NotRegular -> exit 1

    quantities: dict[str, SuperExpr] = {"energy": data.energy}
    for name in problem.symmetries:
        field = problem.symmetry_field(name)
        # NotSymmetry, or a charge that fails the first-variation identity -> exit 1
        quantities[name] = certify_symmetry(field, lag, data).charge

    sim = problem.simulation
    try:
        trajectory = integrate(
            dynamics, problem.initial_state(), dt=sim.dt, t_end=sim.t_end
        )
        drift = conservation_report(trajectory, quantities)
        constraint_drift = trajectory.constraint_drift()
    except NumericError as exc:
        raise _NumericFailure(exc) from None
    within = all(value <= tol for value in drift.values()) and constraint_drift <= tol

    if trajectory_out is not None:
        with open(trajectory_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(trajectory.export_rows()) + "\n")

    report = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "n": sim.directions,
        "dt": sim.dt,
        "t_end": sim.t_end,
        "drift": {name: drift[name] for name in quantities},
        "constraint_drift": constraint_drift,
        "tolerance": tol,
        "within_tolerance": within,
    }
    return _render(report), 0 if within else 1


# -- LaTeX rendering -------------------------------------------------------


def latex_name(name: str) -> str:
    if name in _GREEK:
        return _GREEK[name]
    if len(name) == 1:
        return name
    return rf"\mathrm{{{name}}}"


def _latex_fraction(numerator: int, denominator: int) -> str:
    """A reduced ratio of ints: ``p``, or a ``tfrac`` with the sign in
    front."""
    if denominator == 1:
        return coefficient_text(numerator)
    sign = "-" if numerator < 0 else ""
    return rf"{sign}\tfrac{{{coefficient_text(abs(numerator))}}}{{{coefficient_text(denominator)}}}"


def _latex_generator(gen: GeneratorSymbol) -> str:
    return rf"{latex_name(gen.name)}_{{{gen.jet_order}}}"


def _latex_monomial(key: TermKey) -> str:
    even, odd = key
    factors = [_latex_generator(g) + (rf"^{{{e}}}" if e > 1 else "") for g, e in even]
    factors.extend(_latex_generator(g) for g in odd)
    return r" \, ".join(factors)


def latex_expr(expr: SuperExpr) -> str:
    return signed_sum(
        scaled(_latex_fraction(n, d), _latex_monomial(key), r" \, ")
        for key, _, n, d in printed_terms(expr)
    )


def latex_form(form: GradedForm) -> str:
    def term(word: WedgeWord, coeff: SuperExpr) -> str:
        differentials = r" \wedge ".join(rf"\mathrm{{d}}{_latex_generator(g)}" for g in word)
        if grouped_coefficient(coeff, word):
            return rf"\left( {latex_expr(coeff)} \right) {differentials}"
        return scaled(latex_expr(coeff), differentials, r" \, ")

    return signed_sum(term(word, coeff) for word, coeff in form.items())


if __name__ == "__main__":
    sys.exit(main())
