"""Problem texts for the benchmark workloads, generated from a seed.

Every generated system has the same shape: ``N`` even coordinates with a
dense, diagonally dominant rational mass matrix and a nearest-neighbour
quadratic potential, plus ``M`` odd partners with a first-order kinetic
term ``1/2*th[0]*th[1]`` and couplings ``x*th_a*th_b`` that make the odd
equations algebraic constraints.  The package only ever sees the text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

_OFF_DIAGONAL = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))


@dataclass(frozen=True)
class System:
    """One generated problem together with the data the oracle needs."""

    name: str
    n_even: int
    n_odd: int
    order: int
    mass: tuple[tuple[Fraction, ...], ...]
    stiffness: tuple[tuple[Fraction, ...], ...]
    text: str
    directions: int = 0
    steps: int = 0


def _frac(value: Fraction) -> str:
    return str(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _term(coeff: Fraction, body: str) -> str:
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{_frac(coeff)}*{body}"


def _join(terms: list[str]) -> str:
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def system(
    rng: random.Random,
    n_even: int,
    n_odd: int,
    order: int,
    *,
    directions: int = 0,
    steps: int = 0,
    dt: float = 0.005,
) -> System:
    """A dense coupled system; with ``steps`` it carries a simulate block
    whose initial data satisfies the odd constraints: every coordinate that
    couples to the odd sector starts at zero, so the solved constraints
    demand zero odd velocities at the start."""
    xs = [f"x{i}" for i in range(n_even)]
    ths = [f"th{a}" for a in range(n_odd)]
    mass = [[Fraction(0)] * n_even for _ in range(n_even)]
    for i in range(n_even):
        for j in range(i + 1, n_even):
            mass[i][j] = mass[j][i] = rng.choice(_OFF_DIAGONAL)
    for i in range(n_even):
        mass[i][i] = sum(abs(m) for m in mass[i]) + rng.randint(1, 2)
    stiffness = [[Fraction(0)] * n_even for _ in range(n_even)]
    for i in range(n_even):
        stiffness[i][i] = Fraction(rng.randint(1, 3))
        if i + 1 < n_even:
            stiffness[i][i + 1] = stiffness[i + 1][i] = Fraction(rng.choice((-1, 1)), 2)

    k = order
    terms: list[str] = []
    for i in range(n_even):
        terms.append(_term(mass[i][i] / 2, f"{xs[i]}[{k}]^2"))
        for j in range(i + 1, n_even):
            terms.append(_term(mass[i][j], f"{xs[i]}[{k}]*{xs[j]}[{k}]"))
    for i in range(n_even):
        terms.append(_term(-stiffness[i][i] / 2, f"{xs[i]}[0]^2"))
        if i + 1 < n_even:
            terms.append(_term(-stiffness[i][i + 1], f"{xs[i]}[0]*{xs[i + 1]}[0]"))
    coupled = set()
    for a in range(n_odd):
        terms.append(_term(Fraction(1, 2), f"{ths[a]}[0]*{ths[a]}[1]"))
        for b in range(a + 1, n_odd):
            i = (a + b) % n_even
            coupled.add(i)
            coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2), 2)
            terms.append(_term(coeff, f"{xs[i]}[0]*{ths[a]}[0]*{ths[b]}[0]"))

    lines = [f"order {k};", f"even {', '.join(xs)};"]
    if ths:
        lines.append(f"odd {', '.join(ths)};")
    lines.append(f"L = {_join(terms)};")
    lines.append("symmetry time {")
    lines.extend(f"    {name} -> {name}[1];" for name in xs + ths)
    lines.append("}")
    if steps:
        lines.extend(_simulate_block(rng, xs, ths, k, coupled, directions, dt, steps))
    name = f"N{n_even}-M{n_odd}-k{k}" + (f"-n{directions}-s{steps}" if steps else "")
    return System(
        name=name,
        n_even=n_even,
        n_odd=n_odd,
        order=k,
        mass=tuple(map(tuple, mass)),
        stiffness=tuple(map(tuple, stiffness)),
        text="\n".join(lines) + "\n",
        directions=directions,
        steps=steps,
    )


def _grassmann(rng: random.Random, shape: random.Random, directions: int, odd: bool,
               count: int) -> str:
    """A sum of ``count`` products of distinct directions with the requested
    parity, plus a body for even values.  ``shape`` picks the products and
    ``rng`` the coefficients: how fast products fill the algebra depends on
    which directions meet, so that is kept the same for every seed."""
    terms = [] if odd else [f"{rng.uniform(0.5, 1.0):.3f}"]
    sizes = [s for s in range(1, directions + 1) if s % 2 == (1 if odd else 0)][:2]
    for _ in range(count if sizes else 0):
        picks = sorted(shape.sample(range(directions), shape.choice(sizes)))
        factors = "*".join(f"g[{p}]" for p in picks)
        terms.append(f"{rng.uniform(0.1, 0.5):.3f}*{factors}")
    return " + ".join(terms) or "0.0"


def _simulate_block(rng, xs, ths, k, coupled, directions, dt, steps) -> list[str]:
    shape = random.Random(f"{len(xs)}-{len(ths)}-{k}-{directions}-{steps}")
    lines = ["simulate {", f"    n = {directions};", f"    dt = {dt!r};", f"    t = {dt * steps!r};"]
    for i, name in enumerate(xs):
        if i not in coupled:
            lines.append(f"    init {name}[0] = {_grassmann(rng, shape, directions, False, 1)};")
        lines.append(f"    init {name}[1] = {_grassmann(rng, shape, directions, False, 2)};")
        for j in range(2, 2 * k):
            lines.append(f"    init {name}[{j}] = {rng.uniform(-0.5, 0.5):.3f};")
    if directions:
        for name in ths:
            lines.append(f"    init {name}[0] = {_grassmann(rng, shape, directions, True, 3)};")
    lines.append("}")
    return lines
