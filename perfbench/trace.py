"""Spans around calls into each layer, recorded from outside the package.

The traced run replays each command's pipeline stage by stage, calling
the public functions in the order and with the arguments that
``supermech.cli.run_derive``/``run_noether``/``run_simulate`` use,
duplicated calls included.  Each call sits in a span named after the
module that owns it (``problems``, ``lagrangian``, ``numeric``, ...).
A replay returns the fields of the command's report, so the caller can
check that the replay computed what the command printed.

Micro probes then time single operations of the ``forms``, ``jets``,
``algebra`` and ``numeric`` layers on each case's own data.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from supermech import (
    GradedForm,
    cartan_data,
    cartan_operator,
    check_constant_of_motion,
    check_symmetry,
    conservation_report,
    evaluate,
    exterior_d,
    form_total_derivative,
    integrate,
    interior,
    left_partial,
    lift_vector_field,
    noether_charge,
    noether_inverse,
    parse_expression,
    parse_problem,
    regularity,
    solve_dynamics,
    substitute,
    total_derivative,
)
from supermech.cli import latex_expr
from supermech.jets import total_derivative_field
from supermech.lagrangian import Regularity


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children_s


class Tracer:
    """Spans kept in memory; ``dump`` writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.case)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += span.seconds

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "case": span.case,
                    "self_s": span.self_seconds,
                }
                handle.write(json.dumps(record) + "\n")


class NullTracer:
    """A tracer that records nothing: a replay run through it costs what the
    replay costs without its spans."""

    case = ""
    _none = nullcontext()

    def span(self, name: str):
        return self._none


# -- replays ------------------------------------------------------------------


def _load(tracer: Tracer, path: str):
    with tracer.span("problems.parse"):
        with open(path, "r", encoding="utf-8") as handle:
            return parse_problem(handle.read())


def _sorted_strs(mapping) -> dict[str, str]:
    return {str(g): str(e) for g, e in sorted(mapping.items(), key=lambda it: it[0].sort_key)}


def replay_derive(tracer: Tracer, path: str, emit: str, keep: dict) -> dict:
    problem = _load(tracer, path)
    lag = problem.lagrangian()
    with tracer.span("lagrangian.cartan_data"):
        data = cartan_data(lag)
    with tracer.span("lagrangian.regularity"):
        verdict = regularity(lag)
    regular = verdict.verdict is Regularity.REGULAR
    if emit == "latex":
        return {"regularity": verdict.verdict.value, "E_L": f"E_L = {latex_expr(data.energy)}"}
    forces, constraints = {}, {}
    if regular:
        with tracer.span("lagrangian.solve_dynamics"):
            dynamics = solve_dynamics(lag, data)
        forces, constraints = _sorted_strs(dynamics.forces), _sorted_strs(dynamics.constraints)
        keep["dynamics"] = dynamics
    keep.update(lag=lag, data=data)
    return {
        "theta": str(data.theta),
        "omega": str(data.omega),
        "energy": str(data.energy),
        "regularity": verdict.verdict.value,
        "forces": forces,
        "constraints": constraints,
    }


def replay_symmetry(tracer: Tracer, path: str, name: str, keep: dict) -> dict:
    problem = _load(tracer, path)
    lag = problem.lagrangian()
    with tracer.span("lagrangian.cartan_data"):
        data = cartan_data(lag)
    field = problem.symmetry_field(name)
    with tracer.span("lagrangian.check_symmetry"):
        generating = check_symmetry(field, lag)
    with tracer.span("lagrangian.noether_charge"):
        charge = noether_charge(field, generating, lag, data)
    conserved = None
    with tracer.span("lagrangian.regularity"):
        regular = regularity(lag).verdict is Regularity.REGULAR
    if regular:
        with tracer.span("lagrangian.solve_dynamics"):
            dynamics = solve_dynamics(lag, data)
        with tracer.span("lagrangian.check_constant_of_motion"):
            conserved = check_constant_of_motion(charge, dynamics)
    keep.update(lag=lag, data=data, field=field, charge=charge)
    return {"F": str(generating), "charge": str(charge), "conserved": conserved}


def replay_inverse(tracer: Tracer, path: str, charge_text: str, keep: dict) -> dict:
    problem = _load(tracer, path)
    lag = problem.lagrangian()
    with tracer.span("lagrangian.cartan_data"):
        data = cartan_data(lag)
    top = 2 * lag.order - 1
    with tracer.span("problems.parse_expression"):
        charge = parse_expression(charge_text, lag.chart.at_order(top), top)
    with tracer.span("lagrangian.noether_inverse"):
        witness, generating = noether_inverse(charge, lag, data)
    keep["witness"] = witness
    return {
        "charge": str(charge),
        "symmetry": {
            gen.name: str(witness.component(gen)) for gen in lag.chart.at_order(0).coordinates()
        },
        "F": str(generating),
    }


def replay_simulate(tracer: Tracer, path: str, keep: dict) -> dict:
    problem = _load(tracer, path)
    lag = problem.lagrangian()
    with tracer.span("lagrangian.cartan_data"):
        data = cartan_data(lag)
    with tracer.span("lagrangian.solve_dynamics"):
        dynamics = solve_dynamics(lag, data)
    quantities = {"energy": data.energy}
    for name in problem.symmetries:
        field = problem.symmetry_field(name)
        with tracer.span("lagrangian.check_symmetry"):
            generating = check_symmetry(field, lag)
        with tracer.span("lagrangian.noether_charge"):
            quantities[name] = noether_charge(field, generating, lag, data, verify=False)
    sim = problem.simulation
    with tracer.span("numeric.integrate"):
        trajectory = integrate(dynamics, problem.initial_state(), dt=sim.dt, t_end=sim.t_end)
    with tracer.span("numeric.conservation_report"):
        drift = conservation_report(trajectory, quantities)
    with tracer.span("numeric.constraint_drift"):
        constraint_drift = trajectory.constraint_drift()
    keep.update(dynamics=dynamics, trajectory=trajectory)
    return {"drift": {name: drift[name] for name in quantities}, "constraint_drift": constraint_drift}


def replay(tracer: Tracer, command, keep: dict) -> dict:
    """Replay one command; the result holds the report fields it fixes."""
    path = command.problem.path
    if command.kind == "derive":
        emit = "latex" if command.argv else "json"
        return replay_derive(tracer, path, emit, keep)
    if command.kind == "noether_symmetry":
        return replay_symmetry(tracer, path, command.argv[1], keep)
    if command.kind == "noether_inverse":
        return replay_inverse(tracer, path, command.charge, keep)
    return replay_simulate(tracer, path, keep)


def matches(command, replayed: dict, text: str) -> bool:
    """True when the replay computed the fields the command printed."""
    if command.kind == "derive" and command.argv:
        lines = text.splitlines()
        return (
            lines[-1] == f"\\text{{regularity: {replayed['regularity']}}}"
            and replayed["E_L"] in lines
        )
    report = json.loads(text)
    return all(report[key] == value for key, value in replayed.items())


# -- micro probes -------------------------------------------------------------


def _median_call(fn, repeats: int) -> float:
    """Median seconds of one call over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def term_count(obj) -> int:
    """Terms of an expression, or of all coefficients of a form."""
    if isinstance(obj, GradedForm):
        return sum(len(coeff.items()) for _, coeff in obj.items())
    return len(obj.items())


def probe_symbolic(keep: dict, repeats: int) -> dict:
    """Single-operation timings (seconds per call) and counts on one case's
    derivation: its Lagrangian, theta, omega, energy and field equations."""
    lag, data = keep["lag"], keep["data"]
    k = lag.order
    chart = lag.chart
    d_lag = exterior_d(lag.expr)
    t_field = total_derivative_field(chart, 2 * k - 1)
    out = {
        "forms.exterior_d": _median_call(lambda: exterior_d(lag.expr), repeats),
        "forms.cartan_operator": _median_call(lambda: cartan_operator(d_lag, k), repeats),
        "forms.total_derivative": _median_call(lambda: form_total_derivative(data.theta), repeats),
        "forms.interior": _median_call(lambda: interior(t_field, data.omega), repeats),
    }
    components = [data.delta_check.component(g) for g in chart.at_order(0).coordinates()]
    out["algebra.mul"] = sum(
        _median_call(lambda c=c: data.energy * c, repeats) for c in components
    ) / len(components)
    out["mul_terms"] = sum(term_count(data.energy * c) for c in components)
    out["mul_pairs"] = sum(term_count(data.energy) * term_count(c) for c in components)
    gens = chart.coordinates()
    out["algebra.left_partial"] = sum(
        _median_call(lambda g=g: left_partial(lag.expr, g), repeats) for g in gens
    ) / len(gens)
    dynamics = keep.get("dynamics")
    if dynamics is not None:
        forces = dict(dynamics.forces)
        out["algebra.substitute"] = sum(
            _median_call(lambda c=c: substitute(c, forces), repeats) for c in components
        ) / len(components)
        out["force_terms"] = sum(term_count(e) for e in dynamics.forces.values())
    out.update(
        theta_terms=term_count(data.theta),
        omega_terms=term_count(data.omega),
        energy_terms=term_count(data.energy),
        delta_terms=term_count(data.delta),
        body_matrix_dim=sum(
            1 for c in components if any(g.jet_order == 2 * k for g in c.generators())
        ),
    )
    return out


def probe_symmetry(keep: dict, repeats: int) -> dict:
    """Total derivatives of the energy and the charge, and the lift of the
    symmetry applied to the Lagrangian."""
    lag, data, field, charge = keep["lag"], keep["data"], keep["field"], keep["charge"]
    return {
        "jets.total_derivative": _median_call(lambda: total_derivative(data.energy), repeats)
        + _median_call(lambda: total_derivative(charge), repeats),
        "jets.lift": _median_call(
            lambda: lift_vector_field(field, lag.order).apply(lag.expr), repeats
        ),
        "charge_terms": term_count(charge),
    }


def probe_inverse(keep: dict) -> dict:
    # the search tries degrees 0, 1, ... and stops at the first solvable
    # one, whose solution must use a monomial of that degree
    witness = keep["witness"]
    chart = witness.chart
    degree = max(witness.component(g).total_degree() for g in chart.at_order(0).coordinates())
    return {"witness_degree": degree}


def probe_numeric(keep: dict, repeats: int) -> dict:
    """Evaluating the forces on the initial state, and Grassmann products
    of the final state's values, with the share of the subset pairs they
    visit that are disjoint and so contribute a term."""
    trajectory, dynamics = keep["trajectory"], keep["dynamics"]
    first, last = trajectory.states[0], trajectory.states[-1]
    forces = list(dynamics.forces.values())
    values = [v for v in last.values.values() if np.any(v.coeffs)]
    pairs = [(a, b) for i, a in enumerate(values) for b in values[i:]]
    useful = visited = 0
    for a, b in pairs:
        left, right = np.nonzero(a.coeffs)[0], np.nonzero(b.coeffs)[0]
        visited += len(left) * len(right)
        useful += int(np.count_nonzero((left[:, None] & right[None, :]) == 0))
    return {
        "numeric.evaluate": sum(
            _median_call(lambda e=e: evaluate(e, first), repeats) for e in forces
        ) / len(forces),
        # a dense product costs milliseconds at n=8, so only a few are timed
        "numeric.grassmann_mul": statistics.median(
            _median_call(lambda a=a, b=b: a * b, repeats) for a, b in pairs[:4]
        ),
        "useful_pairs": useful,
        "visited_pairs": visited,
        "steps": len(trajectory.states) - 1,
    }

