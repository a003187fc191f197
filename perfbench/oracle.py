"""Correctness checks on command outputs.

Each check raises ``Wrong`` with a reason.  The checks do not trust the
package: forces are compared against ``numpy.linalg.solve`` on the
generated mass and stiffness matrices, reports of the shipped problems
against stored reference outputs, and recovered symmetries by running
them back through ``noether --symmetry``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class Wrong(Exception):
    pass


def check_code(code: int, expected: int = 0) -> None:
    if code != expected:
        raise Wrong(f"exit code {code}, expected {expected}")


def check_reference(key: str, text: str) -> None:
    path = REFERENCE_DIR / f"{key}.txt"
    if not path.exists():
        raise Wrong(f"no reference output {path.name}")
    if path.read_text(encoding="utf-8") != text:
        raise Wrong(f"output differs from reference {path.name}")


def check_simulate(report: dict) -> None:
    tol = report["tolerance"]
    if report["within_tolerance"] is not True:
        raise Wrong("simulate is not within tolerance")
    worst = max([*report["drift"].values(), report["constraint_drift"]])
    if not worst <= tol:
        raise Wrong(f"drift {worst} above tolerance {tol}")


def check_symmetry(report: dict) -> None:
    if report.get("is_symmetry") is not True or report.get("conserved") is not True:
        raise Wrong(f"symmetry {report.get('symmetry')} not certified as conserved")


def body_value(text: str, values: dict[str, float]) -> float:
    """Evaluate a printed expression with every odd coordinate set to zero:
    terms holding a coordinate missing from ``values`` vanish."""
    total = 0.0
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = -1.0 if chunk.startswith("-") else 1.0
        term = sign
        for factor in chunk.lstrip("-").split("*"):
            if "[" not in factor:
                term *= float(Fraction(factor))
                continue
            base, _, power = factor.partition("^")
            if base not in values:
                term = 0.0
                break
            term *= values[base] ** int(power or 1)
        total += term
    return total


def check_forces(system, report: dict, seed: int, points: int = 3) -> None:
    """At random points with all odd values zero, the body of each solved
    top-order force must equal (-1)^k M^-1 K x, the solution of the
    mass matrix against the gradient of the quadratic potential."""
    if report["regularity"] != "regular":
        raise Wrong(f"generated system reported {report['regularity']}")
    k = system.order
    mass = np.array(system.mass, dtype=float)
    stiffness = np.array(system.stiffness, dtype=float)
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(system.n_even)]
    for _ in range(points):
        values = {
            f"{name}[{j}]": rng.uniform(-1.0, 1.0)
            for name in names
            for j in range(2 * k)
        }
        x = np.array([values[f"{name}[0]"] for name in names])
        expected = (-1) ** k * np.linalg.solve(mass, stiffness @ x)
        for name, want in zip(names, expected):
            got = body_value(report["forces"][f"{name}[{2 * k}]"], values)
            if abs(got - want) > 1e-9 * (1.0 + abs(want)):
                raise Wrong(f"force for {name}[{2 * k}] is {got}, numpy gives {want}")


def roundtrip_text(problem_text: str, inverse_report: dict) -> str:
    """The problem with the recovered symmetry declared, so that
    ``noether --symmetry recovered`` can map it back to a charge."""
    lines = [f"    {name} -> {expr};" for name, expr in inverse_report["symmetry"].items()]
    return problem_text + "\nsymmetry recovered {\n" + "\n".join(lines) + "\n}\n"


def check_roundtrip(charge: str, report: dict) -> None:
    check_symmetry(report)
    if report["charge"] != charge:
        raise Wrong(f"charge {charge!r} came back as {report['charge']!r}")


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise Wrong(f"output is not JSON: {exc}") from None
