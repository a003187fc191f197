"""The three benchmark workloads: which problems, which commands, which
time budgets.

A workload is a list of problems, each with the commands a user would run
on it.  Every command carries a time budget; a command that exceeds it is
recorded as a timeout and never dropped.  Budgets are fixed per size
class, not measured, so the verdict does not depend on the machine's
current load: every decided case runs at least five times under its
budget on the seed code, and each cliff case at least five times over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import gen

# Budget of every decided command.  On the seed code, on a 2-core x86
# machine, the slowest decided commands take about 1.2 s (noether
# --symmetry with N=6) and 0.9 s (simulate with M=3, n=4), also when
# other tenants slow the machine down by half.
DECIDED_BUDGET_S = 10.0
# Budget of the two cliff cases.  On the seed code the 9x9 derive runs
# longer than 100 s (Laplace determinants) and the order-2 N=4, M=2
# noether longer than 100 s (dense witness linear algebra); a
# polynomial-time kernel is expected to decide both well inside 3 s.
CLIFF_BUDGET_S = 3.0

KINDS = ("derive", "noether_symmetry", "noether_inverse", "simulate")

@dataclass
class Problem:
    """One problem text; a cliff problem runs only the command named by
    ``cliff`` ("derive" or "noether"), under the cliff budget.  A shipped problem
    also runs derive --emit latex, and its derive and noether outputs are
    compared with stored reference outputs."""

    name: str
    text: str
    system: gen.System | None = None
    cliff: str | None = None
    shipped: bool = False
    path: str = ""
    sizes: dict = field(default_factory=dict)


@dataclass
class Command:
    """One CLI invocation; ``argv`` holds the arguments after the problem
    path.  An inverse command gets its charge from the warm-up output of
    the symmetry command ``charge_from``."""

    problem: Problem
    kind: str
    argv: list[str]
    budget_s: float = DECIDED_BUDGET_S
    charge_from: "Command | None" = None

    @property
    def cliff(self) -> bool:
        return self.problem.cliff is not None

    @property
    def charge(self) -> str:
        """The charge argument of an inverse command."""
        return self.argv[0].partition("=")[2]

    @property
    def key(self) -> str:
        """Unique name of the command within its workload, e.g.
        ``superparticle.noether_inverse.susy``."""
        source = self.charge_from or self
        tag = source.argv[1] if source.argv else ""
        return ".".join(filter(None, [self.problem.name, self.kind, tag]))

    def full_argv(self) -> list[str]:
        command = "noether" if self.kind.startswith("noether") else self.kind
        return [command, self.problem.path, *self.argv]


@dataclass
class Workload:
    name: str
    problems: list[Problem]
    commands: list[Command] = field(default_factory=list)

    def build_commands(self, parsed: dict) -> None:
        """Every command a user runs on each problem: derive, each declared
        symmetry and the inverse of its charge, and simulate when the
        problem has a simulate block."""
        for problem in self.problems:
            spec = parsed[problem.name]
            problem.sizes = {"N": len(spec.even_names), "M": len(spec.odd_names), "k": spec.order}
            if spec.simulation is not None:
                sim = spec.simulation
                problem.sizes.update(n=sim.directions, steps=round(sim.t_end / sim.dt))
            if problem.cliff == "derive":
                self.commands.append(Command(problem, "derive", [], CLIFF_BUDGET_S))
                continue
            if problem.cliff == "noether":
                self.commands.append(
                    Command(problem, "noether_symmetry", ["--symmetry", "time"], CLIFF_BUDGET_S)
                )
                continue
            self.commands.append(Command(problem, "derive", []))
            if problem.shipped:
                self.commands.append(Command(problem, "derive", ["--emit", "latex"]))
            for name in sorted(spec.symmetries):
                sym = Command(problem, "noether_symmetry", ["--symmetry", name])
                self.commands.append(sym)
                self.commands.append(Command(problem, "noether_inverse", [], charge_from=sym))
            if spec.simulation is not None:
                self.commands.append(Command(problem, "simulate", []))


def _generated(rng: random.Random, specs, cliff=None, **sim) -> list[Problem]:
    problems = []
    for n_even, n_odd, order in specs:
        system = gen.system(rng, n_even, n_odd, order, **sim)
        problems.append(Problem(system.name, system.text, system, cliff))
    return problems


def shipped(seed: int, root: Path) -> Workload:
    problems = [
        Problem(path.stem, path.read_text(encoding="utf-8"), shipped=True)
        for path in sorted((root / "problems").glob("*.sm"))
    ]
    if not problems:
        raise FileNotFoundError(f"no problem files under {root / 'problems'}")
    return Workload("shipped", problems)


def dense_symbolic(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    problems = _generated(rng, [
        (2, 0, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (4, 0, 1), (4, 2, 1),
        (5, 0, 1), (6, 0, 1), (2, 0, 2), (2, 1, 2), (3, 1, 2),
    ])
    # two small systems also simulate, at n=0, so that every command kind
    # is measured on this workload; the numeric layer stays a small share
    problems += _generated(rng, [(2, 2, 1), (3, 0, 1)], directions=0, steps=50)
    problems += _generated(rng, [(9, 0, 1)], cliff="derive")
    problems += _generated(rng, [(4, 2, 2)], cliff="noether")
    return Workload("dense-symbolic", problems)


def grassmann_sim(seed: int, root: Path) -> Workload:
    # M=1..3 odd coordinates over n=4, 6 and 8 directions, 100 steps each:
    # short enough that a run times every case about ten times.  Every
    # system also derives and checks its time symmetry, so that every
    # command kind is measured here too, as a small share of a pass.
    rng = random.Random(seed)
    problems = []
    for n_even, n_odd, directions, steps in [
        (1, 1, 4, 100), (1, 3, 4, 100), (1, 2, 6, 100), (1, 1, 8, 100),
    ]:
        problems += _generated(rng, [(n_even, n_odd, 1)], directions=directions, steps=steps)
    return Workload("grassmann-sim", problems)


BUILDERS = {"shipped": shipped, "dense-symbolic": dense_symbolic, "grassmann-sim": grassmann_sim}
