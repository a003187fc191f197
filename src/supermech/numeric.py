"""Floating-point evaluation of solved dynamics with nilpotent odd data.

Odd coordinates take values in a finite exterior algebra over float
coefficients: a value with ``n`` directions stores one coefficient per
subset of the directions, indexed by bitmask.  Products merge disjoint
subsets with the usual alternating sign and vanish on overlap, so
symbolic identities evaluate exactly (up to roundoff) without any
re-ordering logic here: canonical ordering happens upstream.

Every product, of two ``GrassmannValue`` objects or of whole batches of
them, goes through one routine: a per-``n`` table of the disjoint subset
pairs ``(left mask, right mask, target mask, sign)``, built on first use
and cached, whose terms are gathered, multiplied and summed into their
targets in the order a double loop over the left and then the right
mask would add them.  Results are therefore the same, bit for bit, as
that loop's.

Polynomials are compiled once against a coordinate order into a plan:
each term is a float coefficient times a chain of factor slots (the
coordinates, their powers, and the unit for constants), with even powers
formed before they multiply in and odd factors in canonical order, just
as ``evaluate`` groups them.  A plan evaluates on a leading batch axis of
states ``(batch, coordinates, 2**n)``; the conservation and constraint
reports evaluate their plans over all stored states, in chunks along
time whose temporaries hold about ``_CHUNK_BYTES`` at once.

Integration is classic fixed-step fourth-order Runge-Kutta, stored as one
``(steps + 1, coordinates, 2**n)`` array, on one of two paths:

* the array path calls the field's plan on one ``(1, coordinates, 2**n)``
  array per stage;
* the compiled step replays the same plan as straight-line Python float
  code over each coordinate's structurally nonzero coefficients, the
  subsets of its parity, and writes blocks of steps into the array.

A field takes the compiled step when every term has its coordinate's
parity and one step needs at most ``_KERNEL_MAX_OPS`` float operations:
the shipped problems and small n=0 systems, while a step at n=6 or 8 is
thousands of operations, which numpy does faster.  Both paths store the
same floats, zero signs included.  Each sum starts from +0.0 and adds
its terms in the plan's order, and a sum that starts from +0.0 never
becomes -0.0; a pair that one path adds and the other leaves out has a
zero factor, so it adds +0.0 or -0.0 and changes no sum while every
value is finite.  A guard
keeps that so: each state and stage is checked against a bound under
which no intermediate can overflow, and a step that fails it is taken
by the array path.

Checks: the initial state's parity is checked when the ``NumericState``
is built and its constraints before the first step; finiteness is
checked after every step (on the compiled step, by the guard of the
next step and a check of the last state); the parity support of every
stored state is checked once, by one mask test over the whole trajectory
array; drift is measured on every stored state.  A blow-up is reported
by the finiteness check alone: numpy's overflow warnings are silenced
while integrating.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .algebra import GeneratorSymbol, Parity, SuperExpr
from .lagrangian import Dynamics

# bound on the bytes that the temporaries of one batched evaluation hold
# at once; it keeps peak memory flat however long the trajectory
_CHUNK_BYTES = 1 << 18
# bound on the bytes of one stored trajectory; the shipped problems store
# under 200 KB and the benchmark's generated ones under 1 MB
_MAX_TRAJECTORY_BYTES = 1 << 30
# bound on the float operations of one compiled RK4 step; a field whose
# step needs more runs the array path (see ``integrate``).  Measured on a
# 2-core x86 VM, an operation costs 20-35 ns per step and 5-13 us to
# compile, and an array step at least about 45 us, so at 400 operations
# the compile is repaid within about 100 steps.  The shipped problems
# need 42-136 operations; the benchmark's n=4 systems 608 and more.
_KERNEL_MAX_OPS = 400
# every intermediate of a compiled step stays below this magnitude while
# the kernel's guard admits its inputs
_KERNEL_BOUND = 1e300


class NumericError(Exception):
    pass


class MissingValue(NumericError):
    pass


class ParityViolation(NumericError):
    pass


class ConstraintViolation(NumericError):
    pass


class IntegrationError(NumericError):
    pass


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _subset_sizes(directions: int) -> np.ndarray:
    """Number of directions in each of the ``2**directions`` subsets."""
    masks = np.arange(1 << directions)
    sizes = np.zeros(1 << directions, dtype=np.intp)
    for i in range(directions):
        sizes += masks >> i & 1
    return _frozen(sizes)


@lru_cache(maxsize=None)
def _odd_subsets(directions: int) -> np.ndarray:
    """Boolean mask over the subsets: odd size."""
    return _frozen(_subset_sizes(directions) % 2 == 1)


@lru_cache(maxsize=None)
def _product_table(directions: int) -> np.ndarray:
    """Rows: left masks, right masks, target masks and signs of all
    disjoint subset pairs, ordered by left mask and then right mask.  The
    sign counts the swaps that interleave the two ordered subsets."""
    masks = np.arange(1 << directions, dtype=np.uint16)
    sizes = _subset_sizes(directions)
    left, right = np.nonzero((masks[:, None] & masks) == 0)
    crossings = np.zeros(len(left), dtype=np.intp)
    for i in range(directions):
        crossings += (right >> i & 1) * sizes[left >> (i + 1)]
    return _frozen(np.stack([left, right, left | right, 1 - 2 * (crossings & 1)]))


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise exterior products of two ``(rows, 2**n)`` arrays.

    Pairs whose left or right coefficient is zero in every row are
    dropped, as a loop over nonzero coefficients skips them.  ``bincount``
    adds its weights to their bins in input order, so each target
    coefficient is summed from zero over its pairs in table order.
    Rows go in blocks whose two gathers and bins fit ``_CHUNK_BYTES``.
    """
    rows, size = left.shape
    table = _product_table(size.bit_length() - 1)
    table = table[:, left.any(axis=0)[table[0]] & right.any(axis=0)[table[1]]]
    block = max(1, _CHUNK_BYTES // max(24 * table.shape[1], 1))
    out = np.empty((rows, size))
    for lo in range(0, rows, block):
        hi = min(rows, lo + block)
        terms = left[lo:hi, table[0]]
        terms *= right[lo:hi, table[1]]
        terms *= table[3]
        bins = table[2]
        if hi - lo > 1:
            bins = (np.arange(0, (hi - lo) * size, size)[:, None] + bins).ravel()
        out[lo:hi] = np.bincount(bins, terms.ravel(), (hi - lo) * size).reshape(-1, size)
    return out


class GrassmannValue:
    """An element of the exterior algebra on ``directions`` generators
    with float coefficients, one per subset bitmask."""

    __slots__ = ("directions", "coeffs")

    def __init__(self, directions: int, coeffs: np.ndarray | None = None):
        if not 0 <= directions <= 8:
            raise NumericError("between 0 and 8 odd directions are supported")
        self.directions = directions
        if coeffs is None:
            coeffs = np.zeros(1 << directions)
        else:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (1 << directions,):
                raise NumericError(
                    f"expected {1 << directions} coefficients, got {coeffs.shape}"
                )
        self.coeffs = coeffs

    @staticmethod
    def scalar(value: float, directions: int) -> "GrassmannValue":
        out = GrassmannValue(directions)
        out.coeffs[0] = float(value)
        return out

    @staticmethod
    def direction(index: int, directions: int) -> "GrassmannValue":
        if not 0 <= index < directions:
            raise NumericError(f"direction index {index} out of range")
        out = GrassmannValue(directions)
        out.coeffs[1 << index] = 1.0
        return out

    @staticmethod
    def from_terms(
        terms: Iterable[tuple[float, Sequence[int]]], directions: int
    ) -> "GrassmannValue":
        """Build from (coefficient, direction indices) pairs; repeated
        indices kill a term and odd permutations flip its sign."""
        out = GrassmannValue(directions)
        for value, indices in terms:
            mask, sign = 0, 1.0
            for index in indices:
                if not 0 <= index < directions:
                    raise NumericError(f"direction index {index} out of range")
                if (mask >> (index + 1)).bit_count() % 2:
                    sign = -sign
                if mask >> index & 1:
                    sign = 0.0
                mask |= 1 << index
            if sign:
                # a sum out of range is left for the caller to check
                with np.errstate(over="ignore", invalid="ignore"):
                    out.coeffs[mask] += sign * float(value)
        return out

    def body(self) -> float:
        return float(self.coeffs[0])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_even_support(self) -> bool:
        return not self.coeffs[_odd_subsets(self.directions)].any()

    def is_odd_support(self) -> bool:
        return not self.coeffs[~_odd_subsets(self.directions)].any()

    def supports_parity(self, parity: Parity) -> bool:
        return self.is_even_support() if parity is Parity.EVEN else self.is_odd_support()

    def __add__(self, other: "GrassmannValue") -> "GrassmannValue":
        self._compatible(other)
        return GrassmannValue(self.directions, self.coeffs + other.coeffs)

    def __sub__(self, other: "GrassmannValue") -> "GrassmannValue":
        self._compatible(other)
        return GrassmannValue(self.directions, self.coeffs - other.coeffs)

    def __neg__(self) -> "GrassmannValue":
        return GrassmannValue(self.directions, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return GrassmannValue(self.directions, self.coeffs * float(other))
        self._compatible(other)
        return GrassmannValue(
            self.directions, _product(self.coeffs[None], other.coeffs[None])[0]
        )

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return GrassmannValue(self.directions, self.coeffs * float(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "GrassmannValue":
        if exponent < 0:
            raise NumericError("negative powers are not defined")
        out = GrassmannValue.scalar(1.0, self.directions)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GrassmannValue)
            and self.directions == other.directions
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __repr__(self) -> str:
        parts = []
        for mask, value in enumerate(self.coeffs):
            if value == 0.0:
                continue
            indices = [i for i in range(self.directions) if mask >> i & 1]
            label = "*".join(f"g[{i}]" for i in indices) or "1"
            parts.append(f"{float(value)!r}*{label}")
        return f"GrassmannValue({' + '.join(parts) or '0.0'})"

    def _compatible(self, other: "GrassmannValue"):
        if not isinstance(other, GrassmannValue):
            raise NumericError(f"cannot combine with {type(other).__name__}")
        if self.directions != other.directions:
            raise NumericError("mismatched numbers of odd directions")


@dataclass(frozen=True)
class NumericState:
    """Coordinate values at one instant.  Even coordinates must have
    even-subset support, odd coordinates odd-subset support."""

    time: float
    values: Mapping[GeneratorSymbol, GrassmannValue]
    directions: int

    def __post_init__(self):
        for gen, value in self.values.items():
            if value.directions != self.directions:
                raise NumericError(f"value for {gen} has the wrong number of directions")
            if not value.supports_parity(gen.parity):
                raise ParityViolation(
                    f"value for {gen} has support of the wrong parity"
                )

    def get(self, gen: GeneratorSymbol) -> GrassmannValue:
        try:
            return self.values[gen]
        except KeyError:
            raise MissingValue(f"no value for coordinate {gen}") from None


def _stack(state: NumericState, coordinates: Sequence[GeneratorSymbol]) -> np.ndarray:
    """The ``(coordinates, 2**n)`` array of the listed values."""
    out = np.empty((len(coordinates), 1 << state.directions))
    for row, gen in enumerate(coordinates):
        out[row] = state.get(gen).coeffs
    return out


class _Plan:
    """Polynomials compiled against a coordinate order.

    Slots hold, per state, the coordinates, then the unit when a
    polynomial has a constant term, then the powers of even coordinates
    above the first, each formed from the one below it.  A term is a
    coefficient times a chain of slots, multiplied left to right in
    lockstep with the other terms: round 0 scales every term's first
    slot, round ``j`` multiplies in the ``j``-th slot of the terms that
    have one, which are kept first.
    """

    def __init__(
        self,
        exprs: Sequence[SuperExpr],
        coordinates: Sequence[GeneratorSymbol],
        directions: int,
    ):
        index = {gen: row for row, gen in enumerate(coordinates)}
        terms = []
        top: dict[int, int] = {}
        for which, expr in enumerate(exprs):
            for (even, odd), coeff in expr.items():
                chain = [(_row(index, gen), exponent) for gen, exponent in even]
                chain += [(_row(index, gen), 1) for gen in odd]
                for row, exponent in chain:
                    top[row] = max(top.get(row, 1), exponent)
                terms.append((which, _float(coeff), chain))

        count = len(coordinates)
        slot = {(row, 1): row for row in range(count)}
        self.unit = None
        if any(not chain for _, _, chain in terms):
            self.unit, count = count, count + 1
        self.powers: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        exponent = 2
        while rows := [row for row in sorted(top) if top[row] >= exponent]:
            for offset, row in enumerate(rows):
                slot[row, exponent] = count + offset
            below = np.array([slot[row, exponent - 1] for row in rows])
            self.powers.append((count, count + len(rows), below, np.array(rows)))
            count += len(rows)
            exponent += 1
        self.slots = count

        chains = [
            [slot[factor] for factor in chain] or [self.unit] for _, _, chain in terms
        ]
        # (output, coefficient, slot chain) of every term, in original order
        self.terms = [(which, coeff, chain) for (which, coeff, _), chain in zip(terms, chains)]
        order = sorted(range(len(terms)), key=lambda t: -len(chains[t]))
        depth = max((len(chain) for chain in chains), default=0)
        self.coeffs = np.array([terms[t][1] for t in order]).reshape(-1, 1)
        self.factors = np.array(
            [chains[t] + [0] * (depth - len(chains[t])) for t in order], dtype=np.intp
        ).reshape(len(terms), depth)
        self.rounds = [sum(len(chain) > j for chain in chains) for j in range(1, depth)]
        # each output sums its terms in their original order
        self.restore = None if order == list(range(len(terms))) else np.argsort(order)
        self.targets = np.array([which for which, _, _ in terms], dtype=np.intp)
        self.outputs = len(exprs)
        self.size = 1 << directions
        self._bins: dict[int, np.ndarray] = {}

        # terms and their sum bins, slots and outputs; products bound
        # their own temporaries
        per_state = (2 * len(terms) + self.slots + self.outputs) * self.size
        self.chunk = max(1, _CHUNK_BYTES // (8 * per_state))

    def __call__(self, states: np.ndarray) -> np.ndarray:
        """Evaluate on ``(batch, coordinates, 2**n)``; returns
        ``(batch, len(exprs), 2**n)``."""
        batch, size = len(states), self.size
        if not len(self.targets):
            return np.zeros((batch, self.outputs, size))
        if self.slots == states.shape[1]:
            slots = states
        else:
            slots = np.zeros((batch, self.slots, size))
            slots[:, : states.shape[1]] = states
            if self.unit is not None:
                slots[:, self.unit, 0] = 1.0
            for lo, hi, below, rows in self.powers:
                slots[:, lo:hi] = _product(
                    slots[:, below].reshape(-1, size), slots[:, rows].reshape(-1, size)
                ).reshape(batch, hi - lo, size)
        terms = self.coeffs * slots[:, self.factors[:, 0]]
        for j, count in enumerate(self.rounds, start=1):
            terms[:, :count] = _product(
                terms[:, :count].reshape(-1, size),
                slots[:, self.factors[:count, j]].reshape(-1, size),
            ).reshape(batch, count, size)
        if self.restore is not None:
            terms = terms[:, self.restore]
        return np.bincount(
            self._sum_bins(batch), terms.ravel(), batch * self.outputs * size
        ).reshape(batch, self.outputs, size)

    def _sum_bins(self, batch: int) -> np.ndarray:
        if batch not in self._bins:
            rows = np.arange(batch)[:, None] * self.outputs + self.targets
            self._bins[batch] = (rows[..., None] * self.size + np.arange(self.size)).ravel()
        return self._bins[batch]

    def chunks(self, states: np.ndarray) -> Iterator[np.ndarray]:
        """Evaluate on every state, a chunk of states at a time."""
        for lo in range(0, len(states), self.chunk):
            yield self(states[lo : lo + self.chunk])


def _magnitude(value: int | Fraction) -> str:
    """``about 10^e`` for a positive number of any size."""
    exponent = math.log10(value.numerator) - math.log10(value.denominator)
    return f"about 10^{math.floor(exponent)}"


def _float(coeff: Fraction) -> float:
    try:
        return float(coeff)
    except OverflowError:
        raise NumericError(
            f"a coefficient of magnitude {_magnitude(abs(coeff))} is out of floating-point range"
        ) from None


def _row(index: Mapping[GeneratorSymbol, int], gen: GeneratorSymbol) -> int:
    try:
        return index[gen]
    except KeyError:
        raise MissingValue(f"no value for coordinate {gen}") from None


def _worst(norms: np.ndarray, axis: int | None = None) -> np.ndarray:
    """The largest norms, at least zero; NaN norms are skipped, as the
    builtin ``max`` skips them when they come after a number."""
    return np.max(norms, axis=axis, initial=0.0, where=~np.isnan(norms))


def evaluate(expr: SuperExpr, state: NumericState) -> GrassmannValue:
    """Evaluate a polynomial expression on a state.  Factors multiply in
    canonical order, so this is an algebra homomorphism."""
    coordinates = tuple(state.values)
    plan = _Plan([expr], coordinates, state.directions)
    return GrassmannValue(state.directions, plan(_stack(state, coordinates)[None])[0, 0])


def _constraint_residuals(dynamics: Dynamics):
    gens = [gen for gen in dynamics.constraints if gen.jet_order <= dynamics.order]
    return gens, [SuperExpr.generator(gen) - dynamics.constraints[gen] for gen in gens]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A fixed-step run: ``values[i, c]`` holds the coefficients of
    ``coordinates[c]`` at ``times[i]``."""

    dynamics: Dynamics
    times: tuple[float, ...]
    coordinates: tuple[GeneratorSymbol, ...]
    values: np.ndarray
    directions: int

    @cached_property
    def states(self) -> tuple[NumericState, ...]:
        """The stored states as ``NumericState`` objects, built on first
        use; their values are read-only views of ``values``."""
        return tuple(
            NumericState(
                time,
                {
                    gen: GrassmannValue(self.directions, row)
                    for gen, row in zip(self.coordinates, rows)
                },
                self.directions,
            )
            for time, rows in zip(self.times, self.values)
        )

    def constraint_drift(self) -> float:
        """Largest constraint residual over the whole run (zero when the
        dynamics has no constraints)."""
        _, residuals = _constraint_residuals(self.dynamics)
        if not residuals:
            return 0.0
        plan = _Plan(residuals, self.coordinates, self.directions)
        return max(
            float(_worst(np.abs(chunk).max(axis=-1))) for chunk in plan.chunks(self.values)
        )

    def export_rows(self) -> list[str]:
        """Tab-separated rows: time, coordinate, subset mask, coefficient."""
        rows = ["time\tcoordinate\tmask\tvalue"]
        for time, values in zip(self.times, self.values.tolist()):
            for gen, coeffs in zip(self.coordinates, values):
                for mask, coeff in enumerate(coeffs):
                    rows.append(f"{time!r}\t{gen}\t{mask}\t{coeff!r}")
        return rows


class _TooLarge(Exception):
    pass


def _sign(left: int, right: int) -> str:
    """The sign of the product of two disjoint subsets, as in
    ``_product_table``."""
    crossings = sum(
        (left >> (i + 1)).bit_count() for i in range(right.bit_length()) if right >> i & 1
    )
    return "-" if crossings & 1 else "+"


def _scaled(name: str, coeff: float, value: str) -> str:
    """``coeff * value``; a factor of one or minus one is exact, so it is
    left out."""
    if coeff == 1.0:
        return value
    if coeff == -1.0:
        return f"-{value}"
    return f"{name}*{value}"


class _StepWriter:
    """Writes the straight-line source of one RK4 step of a plan over the
    listed masks of each coordinate, counting its float operations.

    Each value is a map from mask to the name or expression holding that
    coefficient, for the masks where it can be nonzero.  Every evaluation
    repeats the plan's arithmetic in the plan's order, so it rounds as the
    plan does while all values stay finite.
    """

    def __init__(self, plan: _Plan, support: Sequence[Sequence[int]]):
        self.plan = plan
        self.support = support
        self.lines: list[str] = []
        self.ops = 0
        self.temps = 0

    def spend(self, ops: int):
        self.ops += ops
        if self.ops > _KERNEL_MAX_OPS:
            raise _TooLarge

    def line(self, text: str):
        self.lines.append("        " + text)

    def temp(self, expr: str) -> str:
        name = f"t{self.temps}"
        self.temps += 1
        self.line(f"{name} = {expr}")
        return name

    def variables(self, prefix: str) -> list[dict[int, str]]:
        return [
            {mask: f"{prefix}{row}_{mask}" for mask in masks}
            for row, masks in enumerate(self.support)
        ]

    def product(self, left: dict[int, str], right: dict[int, str]) -> dict[int, str]:
        """Each coefficient of the product summed from zero over its
        disjoint pairs in table order, as ``_product`` sums it."""
        pairs: dict[int, list[str]] = {}
        for lmask, lvalue in left.items():
            for rmask, rvalue in right.items():
                if not lmask & rmask:
                    pairs.setdefault(lmask | rmask, []).append(
                        f" {_sign(lmask, rmask)} {lvalue}*{rvalue}"
                    )
        self.spend(2 * sum(map(len, pairs.values())))
        return {mask: self.temp("0.0" + "".join(pairs[mask])) for mask in sorted(pairs)}

    def rhs(self, inputs: list[dict[int, str]], outputs: list[dict[int, str]]):
        """The plan evaluated on ``inputs`` into the ``outputs`` names."""
        plan = self.plan
        slots: list[dict[int, str]] = inputs + [{}] * (plan.slots - len(inputs))
        if plan.unit is not None:
            slots[plan.unit] = {0: "1.0"}
        for lo, hi, below, rows in plan.powers:
            for offset in range(hi - lo):
                slots[lo + offset] = self.product(slots[below[offset]], slots[rows[offset]])
        sums: list[dict[int, list[str]]] = [{mask: [] for mask in masks} for masks in self.support]
        for index, (which, coeff, chain) in enumerate(plan.terms):
            value = {
                mask: _scaled(f"c{index}", coeff, name) for mask, name in slots[chain[0]].items()
            }
            self.spend(len(value))
            if len(chain) > 1:
                value = {mask: self.temp(expr) for mask, expr in value.items()}
                for slot in chain[1:]:
                    value = self.product(value, slots[slot])
            for mask, expr in value.items():
                sums[which][mask].append(expr)
        for row, masks in enumerate(sums):
            for mask, operands in masks.items():
                self.spend(len(operands))
                self.line(f"{outputs[row][mask]} = " + " + ".join(["0.0", *operands]))

    def guard(self, values: list[dict[int, str]]):
        names = [name for value in values for name in value.values()]
        if names:
            checks = " and ".join(f"floor <= {name} <= limit" for name in names)
            self.line(f"if not ({checks}):")
            self.line("    return taken")


def _compile_kernel(
    plan: _Plan, coordinates: Sequence[GeneratorSymbol], directions: int
) -> tuple[Callable[..., int], np.ndarray] | None:
    """RK4 steps of the field ``plan`` evaluates, compiled into
    straight-line float code, or None when a term's parity is not its
    coordinate's or one step would take more than ``_KERNEL_MAX_OPS``
    operations.

    ``steps(state, count, write, dt / 2, dt, dt / 6)`` takes up to
    ``count`` steps from ``state``, the coefficients at ``index`` of a
    flattened ``(coordinates, 2**n)`` state, passes each new state to
    ``write`` and returns the number of steps taken.  It stops before a
    step whose state or stage has a coefficient out of the range within
    which no intermediate can overflow.
    """
    # powers and the unit are even
    odd = [gen.parity is Parity.ODD for gen in coordinates]
    for which, _, chain in plan.terms:
        if sum(odd[slot] for slot in chain if slot < len(odd)) % 2 != odd[which]:
            return None
    size = 1 << directions
    parity_masks = [[mask for mask in range(size) if mask.bit_count() % 2 == p] for p in (0, 1)]
    support = [parity_masks[gen.parity.value] for gen in coordinates]
    writer = _StepWriter(plan, support)
    try:
        # the stage and update arithmetic, counted before any name is made
        writer.spend(13 * sum(map(len, support)))
        state, stage = writer.variables("y"), writer.variables("z")
        slopes = [writer.variables(f"k{s}_") for s in range(1, 5)]
        for s, (slope, factor) in enumerate(zip(slopes, ("h2", "h2", "h", None))):
            writer.guard(stage if s else state)
            writer.rhs(stage if s else state, slope)
            if factor is not None:
                for row, value in enumerate(state):
                    for mask, name in value.items():
                        writer.line(f"{stage[row][mask]} = {name} + {slope[row][mask]}*{factor}")
    except _TooLarge:
        return None
    names = [name for value in state for name in value.values()]
    for row, value in enumerate(state):
        for mask, name in value.items():
            k1, k2, k3, k4 = (slope[row][mask] for slope in slopes)
            writer.line(f"{name} = {name} + ({k1} + 2.0*{k2} + 2.0*{k3} + {k4})*h6")

    # every slot coefficient is at most m = max(limit, 1) in magnitude,
    # each product coefficient sums at most 2**n pairs, so every
    # intermediate is at most (1 + sum |c|) * (2**n * m)**degree
    degree = {row: 1 for row in range(len(coordinates))}
    for level, (lo, hi, _, _) in enumerate(plan.powers):
        degree.update((slot, level + 2) for slot in range(lo, hi))
    top = max((sum(degree.get(slot, 0) for slot in chain) for _, _, chain in plan.terms), default=0)
    weight = 1.0 + sum(abs(coeff) for _, coeff, _ in plan.terms)
    limit = _KERNEL_BOUND
    if top:
        limit = (_KERNEL_BOUND / weight) ** (1.0 / top) / size
        if limit < 1.0:
            limit = -1.0

    # the limit and the coefficients are bound as default values
    constants = {f"c{index}": coeff for index, (_, coeff, _) in enumerate(plan.terms)}
    namespace = {"limit": limit, **constants}
    defaults = "".join(f", {name}={name}" for name in ["limit", *constants])
    source = "\n".join(
        [
            f"def steps(state, count, write, h2, h, h6{defaults}):",
            f"    ({', '.join(names + [''])}) = state",
            "    floor = -limit",
            "    for taken in range(count):",
            *writer.lines,
            f"        write(({', '.join(names + [''])}))",
            "    return count",
        ]
    )
    exec(compile(source, "<rk4 step>", "exec"), namespace)
    index = np.array(
        [row * size + mask for row, masks in enumerate(support) for mask in masks], dtype=np.intp
    )
    return namespace["steps"], index


def _check_finite(state: np.ndarray, coordinates: Sequence[GeneratorSymbol], step: int):
    """Raise on the first coordinate, in chart order, with a non-finite
    coefficient in ``state``."""
    finite = np.isfinite(state)
    if not finite.all():
        bad = coordinates[int(np.argmin(finite.all(axis=-1)))]
        raise IntegrationError(f"non-finite value for {bad} at step {step}")


def _rk4_array(
    rhs: _Plan,
    values: np.ndarray,
    dt: float,
    coordinates: Sequence[GeneratorSymbol],
    first: int,
    last: int,
):
    """Fill ``values[first + 1 : last + 1]`` with array RK4 steps from
    ``values[first]``, checking each new state for finiteness."""
    current = values[first : first + 1]
    for step in range(first, last):
        k1 = rhs(current)
        k2 = rhs(current + k1 * (dt / 2))
        k3 = rhs(current + k2 * (dt / 2))
        k4 = rhs(current + k3 * dt)
        current = current + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (dt / 6)
        _check_finite(current[0], coordinates, step + 1)
        values[step + 1] = current[0]


def _rk4_kernel(
    kernel: tuple[Callable[..., int], np.ndarray],
    rhs: _Plan,
    values: np.ndarray,
    dt: float,
    coordinates: Sequence[GeneratorSymbol],
):
    """Fill ``values[1:]`` from ``values[0]`` with the compiled steps of
    ``_compile_kernel``, a block of steps at a time.  A step whose state or
    stage fails the kernel's guard is taken by ``_rk4_array``; the guard
    also stands for the finiteness check of the state it admits."""
    function, index = kernel
    steps = len(values) - 1
    flat = values.reshape(steps + 1, -1)
    # a block holds a float object and a list slot, 32 bytes, per value
    block_steps = max(1, _CHUNK_BYTES // (32 * max(1, len(index))))
    step = 0
    while step < steps:
        block: list[float] = []
        count = min(block_steps, steps - step)
        taken = function(
            tuple(flat[step, index].tolist()), count, block.extend, dt / 2, dt, dt / 6
        )
        flat[step + 1 : step + 1 + taken, index] = np.reshape(block, (taken, len(index)))
        step += taken
        if taken < count:
            if step:
                _check_finite(values[step], coordinates, step)
            _rk4_array(rhs, values, dt, coordinates, step, step + 1)
            step += 1
    _check_finite(values[steps], coordinates, steps)


def integrate(
    dynamics: Dynamics,
    initial: NumericState,
    *,
    dt: float,
    t_end: float,
    constraint_tol: float = 1e-9,
) -> Trajectory:
    """Classic fourth-order Runge-Kutta with fixed step from the initial
    time to ``t_end``, which must be a whole number of steps away.

    The initial state must satisfy the solved constraints within
    ``constraint_tol``; the run aborts on non-finite values.  A field
    whose every component is homogeneous of its coordinate's parity, and
    whose compiled step stays under ``_KERNEL_MAX_OPS`` operations, runs
    the compiled step; any other runs the array path.  Both store the
    same floats.
    """
    if dt <= 0:
        raise IntegrationError("dt must be positive")
    span = t_end - initial.time
    if not math.isfinite(span / dt):
        raise IntegrationError(f"the span {span} is not a finite number of steps of {dt}")
    steps = round(span / dt)
    if steps < 1 or abs(steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise IntegrationError(
            f"the span {span} is not a positive whole number of steps of {dt}"
        )
    coordinates = dynamics.lagrangian.chart.at_order(dynamics.order).coordinates()
    directions = initial.directions
    size = 8 * (steps + 1) * len(coordinates) << directions
    if size > _MAX_TRAJECTORY_BYTES:
        raise IntegrationError(
            f"a trajectory of {_magnitude(steps + 1)} states needs {_magnitude(size)} "
            f"bytes, over the limit of {_MAX_TRAJECTORY_BYTES} bytes (1 GiB) on a "
            "stored trajectory"
        )
    start = _stack(initial, coordinates)

    # a blow-up is reported once, by the finiteness check, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        gens, residuals = _constraint_residuals(dynamics)
        if residuals:
            norms = np.abs(_Plan(residuals, coordinates, directions)(start[None])[0]).max(axis=-1)
            for gen, norm in zip(gens, norms):
                if norm > constraint_tol:
                    raise ConstraintViolation(
                        f"initial data violates {gen} constraint by {norm:.3e}"
                    )

        field = dynamics.field()
        rhs = _Plan([field.component(gen) for gen in coordinates], coordinates, directions)
        kernel = _compile_kernel(rhs, coordinates, directions)
        values = np.zeros((steps + 1,) + start.shape)
        values[0] = start
        if kernel is None:
            _rk4_array(rhs, values, dt, coordinates, 0, steps)
        else:
            _rk4_kernel(kernel, rhs, values, dt, coordinates)
    times = (initial.time,) + tuple(initial.time + step * dt for step in range(1, steps + 1))

    odd = _odd_subsets(directions)
    wrong = np.array([odd if gen.parity is Parity.EVEN else ~odd for gen in coordinates])
    misplaced = values != 0
    misplaced &= wrong
    if misplaced.any():
        step, row, _ = np.argwhere(misplaced)[0]
        raise ParityViolation(
            f"value for {coordinates[row]} has support of the wrong parity at step {step}"
        )
    return Trajectory(dynamics, times, coordinates, _frozen(values), directions)


def conservation_report(
    trajectory: Trajectory, quantities: Mapping[str, SuperExpr]
) -> dict[str, float]:
    """Largest deviation of each quantity from its initial value, in the
    coefficient-wise sup norm."""
    names = list(quantities)
    plan = _Plan(
        [quantities[name] for name in names], trajectory.coordinates, trajectory.directions
    )
    start = None
    worst = np.zeros(len(names))
    for chunk in plan.chunks(trajectory.values):
        if start is None:
            start, chunk = chunk[0], chunk[1:]
        norms = np.abs(chunk - start).max(axis=-1)
        worst = np.maximum(worst, _worst(norms, axis=0))
    return {name: float(value) for name, value in zip(names, worst)}
