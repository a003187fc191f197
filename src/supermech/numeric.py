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
``(steps + 1, coordinates, 2**n)`` array.  When every term of the field
has its coordinate's parity, ``integrate`` builds one schedule of the
field's products per run: registers for the structurally nonzero
coefficients (each coordinate's subsets of its parity, the powers, each
term's value after every round) and, per power level and product round,
the pairs ``(left, right, target, sign)`` of ``_product_table`` between
those coefficients, in table order.  Its size gives the float operations
of one step, and that count picks one of two evaluations of it:

* at most ``_KERNEL_MAX_OPS``: straight-line Python float code, one name
  per register, compiled once per run;
* more: a numpy step on one flat register array, two fixed gathers and
  one ``bincount`` per round.

Any other field runs ``_rk4_array``, which calls the plan on one
``(1, coordinates, 2**n)`` array per stage and is the reference for both
evaluations.

One rule keeps their floats equal to its floats, zero signs included.
Each sum starts from +0.0 and adds its terms in the plan's order, and a
sum that starts from +0.0 never becomes -0.0.  The schedule adds pairs
that ``_product`` drops because a factor is zero; while every value is
finite such a pair adds +0.0 or -0.0 and changes no sum.  A non-finite
value cannot vanish: products and sums keep it non-finite, and a register
that nothing reads is added to the first output times 0.0.  So a step
whose new state is finite stores ``_rk4_array``'s floats, and in each
block of steps the first state that is not finite is discarded with the
rest of the block; ``_rk4_array`` retakes that step, raising its usual
error or storing the finite state it finds.

Checks: the initial state's parity is checked when the ``NumericState``
is built and its constraints before the first step; every stored state
is checked for finiteness (a block at a time on the scheduled steps); the
parity support of every stored state is checked once, by one mask test
over the whole trajectory array; drift is measured on every stored state,
and a quantity or residual that is not finite there is an error.  Numeric
failures are reported by these checks alone: numpy's overflow warnings
are silenced while integrating and reporting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .algebra import GeneratorSymbol, Parity, SuperExpr
from .lagrangian import Dynamics

# bound on the bytes that the temporaries of one batched evaluation hold
# at once; it keeps peak memory flat however long the trajectory
_CHUNK_BYTES = 1 << 18
# bound on the bytes of one stored trajectory; the shipped problems store
# under 200 KB and the benchmark's generated ones under 1 MB
_MAX_TRAJECTORY_BYTES = 1 << 30
# bound on the float operations of one RK4 step that runs as straight-line
# Python code; a larger step runs the numpy step (see ``integrate``).
# Measured on a 2-core x86 VM, straight-line code costs 12-30 ns per
# operation per step and 3-8 us per operation to compile, and the numpy
# step 15-70 us per step on the same fields, so at 400 operations the
# compile is repaid within 40-140 steps.  The shipped problems need 42-136
# operations, the benchmark's n=4..8 systems 608 and more.
_KERNEL_MAX_OPS = 400


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


def _finite_norms(values: np.ndarray, first: int, labels: Sequence[str]) -> np.ndarray:
    """The ``(states, quantities)`` sup norms of ``(states, quantities,
    2**n)`` values whose first state is stored at step ``first``; raises
    on the first state, then quantity, whose norm is not finite."""
    norms = np.abs(values).max(axis=-1)
    finite = np.isfinite(norms)
    if not finite.all():
        step, which = np.argwhere(~finite)[0]
        raise NumericError(f"non-finite {labels[which]} at step {first + step}")
    return norms


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
        dynamics has no constraints); raises on a residual that is not
        finite."""
        gens, residuals = _constraint_residuals(self.dynamics)
        if not residuals:
            return 0.0
        plan = _Plan(residuals, self.coordinates, self.directions)
        labels = [f"residual of the {gen} constraint" for gen in gens]
        # overflow is reported by the finiteness check alone
        with np.errstate(over="ignore", invalid="ignore"):
            firsts = range(0, len(self.values), plan.chunk)
            return max(
                float(_finite_norms(chunk, first, labels).max())
                for first, chunk in zip(firsts, plan.chunks(self.values))
            )

    def export_rows(self) -> list[str]:
        """Tab-separated rows: time, coordinate, subset mask, coefficient."""
        rows = ["time\tcoordinate\tmask\tvalue"]
        for time, values in zip(self.times, self.values.tolist()):
            for gen, coeffs in zip(self.coordinates, values):
                for mask, coeff in enumerate(coeffs):
                    rows.append(f"{time!r}\t{gen}\t{mask}\t{coeff!r}")
        return rows


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


class _Round(NamedTuple):
    """Registers ``lo:hi``, each the sum from +0.0 of the signed products
    ``register[left] * register[right] * sign`` of its pairs, in order."""

    lo: int
    hi: int
    left: np.ndarray
    right: np.ndarray
    target: np.ndarray  # of each pair, counted from ``lo``
    sign: np.ndarray


class _Schedule:
    """One evaluation of a plan's field as fixed rounds over registers.

    Registers hold the structurally nonzero coefficients: the state's
    first, each coordinate's subsets of its parity in chart order, then
    the unit, each power and each term's value after every round.  A
    round pairs the coefficients of two values in ``_product_table`` order,
    so its registers sum what ``_product`` sums, plus pairs whose factor
    happens to be zero.  Round 0 scales each term's first slot by its
    coefficient; ``sums`` adds each term's final value into the output
    state in the plan's term order.
    """

    def __init__(self, plan: _Plan, coordinates: Sequence[GeneratorSymbol], directions: int):
        size = self._size = 1 << directions
        self._table = _product_table(directions)
        # the pairs between two mask lists, computed once per build
        pairs: dict[tuple, tuple] = {}
        odd = _odd_subsets(directions)
        support = [tuple(np.flatnonzero(odd == bool(p)).tolist()) for p in (0, 1)]
        self.registers = 0
        # (first register, masks) of each of the plan's slots
        slots = [self._allocate(support[gen.parity.value]) for gen in coordinates]
        self.state = self.registers
        self.index = np.array(
            [row * size + mask for row, (_, masks) in enumerate(slots) for mask in masks],
            dtype=np.intp,
        )
        self.unit = None
        if plan.unit is not None:
            self.unit = self.registers
            slots.append(self._allocate((0,)))
        self.powers: list[_Round] = []
        for _, _, below, rows in plan.powers:
            products = [(slots[b], slots[r]) for b, r in zip(below, rows)]
            slots += self._round(products, self.powers, pairs)

        lo = self.registers
        values, sources, coeffs = [], [], []
        for _, coeff, chain in plan.terms:
            base, masks = slots[chain[0]]
            values.append(self._allocate(masks))
            sources += range(base, base + len(masks))
            coeffs += [coeff] * len(masks)
        self.first = (lo, self.registers, np.array(sources, dtype=np.intp), np.array(coeffs))
        self.rounds: list[_Round] = []
        for j in range(1, max((len(chain) for _, _, chain in plan.terms), default=0)):
            live = [t for t, (_, _, chain) in enumerate(plan.terms) if len(chain) > j]
            products = [(values[t], slots[plan.terms[t][2][j]]) for t in live]
            for t, value in zip(live, self._round(products, self.rounds, pairs)):
                values[t] = value

        # each mask's place among the subsets of its parity
        rank = np.empty(size, dtype=np.intp)
        for masks in support:
            rank[list(masks)] = range(len(masks))
        summed, targets = [], []
        for (which, _, _), (base, masks) in zip(plan.terms, values):
            summed += range(base, base + len(masks))
            targets += (slots[which][0] + rank[list(masks)]).tolist()
        # a register that no pair or sum reads, a coefficient with no
        # disjoint partner, is added to the first output times 0.0: +-0.0
        # while it is finite, so that a non-finite one still reaches the state
        read = np.zeros(self.registers, dtype=bool)
        read[: self.state] = read[sources] = read[summed] = True
        for r in self.powers + self.rounds:
            read[r.left] = read[r.right] = True
        unread = np.flatnonzero(~read).tolist()
        self.sums = (
            np.array(summed + unread, dtype=np.intp),
            np.array(targets + [0] * len(unread), dtype=np.intp),
            np.array([1.0] * len(summed) + [0.0] * len(unread)) if unread else None,
        )
        pairs = sum(len(r.left) for r in self.powers + self.rounds)
        # the float operations of one step: four evaluations, each pair a
        # multiply and an add, then the stage and update arithmetic
        reads = len(sources) + len(summed) + 2 * len(unread)
        self.ops = 4 * (2 * pairs + reads) + 13 * self.state

    def _allocate(self, masks: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        base = self.registers
        self.registers += len(masks)
        return base, masks

    def _round(
        self, products, rounds: list[_Round], pairs: dict[tuple, tuple]
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Append one round of the ``(left value, right value)`` products;
        returns their values."""
        lo = self.registers
        parts, values = [], []
        for (lbase, lmasks), (rbase, rmasks) in products:
            key = (lmasks, rmasks)
            if key not in pairs:
                pairs[key] = self._pair_up(lmasks, rmasks)
            left, right, targets, inverse, sign = pairs[key]
            value = self._allocate(targets)
            parts.append((lbase + left, rbase + right, value[0] - lo + inverse, sign))
            values.append(value)
        if self.registers > lo:
            rounds.append(_Round(lo, self.registers, *map(np.concatenate, zip(*parts))))
        return values

    def _pair_up(self, lmasks: tuple[int, ...], rmasks: tuple[int, ...]):
        """Positions in the two mask lists, target masks, each pair's
        target and sign, for the table's pairs between the two lists."""
        table = self._table
        lpos, rpos = np.full((2, self._size), -1)
        lpos[np.array(lmasks, dtype=np.intp)] = np.arange(len(lmasks))
        rpos[np.array(rmasks, dtype=np.intp)] = np.arange(len(rmasks))
        left, right, target, sign = table[:, (lpos[table[0]] >= 0) & (rpos[table[1]] >= 0)]
        targets, inverse = np.unique(target, return_inverse=True)
        return lpos[left], rpos[right], tuple(targets.tolist()), inverse, sign.astype(float)


def _schedule(
    plan: _Plan, coordinates: Sequence[GeneratorSymbol], directions: int
) -> _Schedule | None:
    """The schedule of the field ``plan`` evaluates, or None when a term's
    parity is not its coordinate's."""
    # powers and the unit are even
    odd = [gen.parity is Parity.ODD for gen in coordinates]
    for which, _, chain in plan.terms:
        if sum(odd[slot] for slot in chain if slot < len(odd)) % 2 != odd[which]:
            return None
    return _Schedule(plan, coordinates, directions)


def _scaled(coeff: float, value: str) -> str:
    """``coeff * value`` with the coefficient as a literal, which ``repr``
    gives exactly; a factor of one or minus one is exact, so it is left
    out."""
    if coeff == 1.0:
        return value
    if coeff == -1.0:
        return f"-{value}"
    return f"{coeff!r}*{value}"


def _straight_line_steps(schedule: _Schedule, dt: float) -> Callable[[np.ndarray], None]:
    """RK4 steps of the schedule as straight-line Python float code: each
    register is one name, each round's register ``0.0 + a*b - c*d ...``
    over its pairs, each output ``0.0 + ...`` over its terms."""
    size, lines = schedule.state, []
    state = [f"y{i}" for i in range(size)]
    stage = [f"z{i}" for i in range(size)]
    slopes = [[f"k{s}_{i}" for i in range(size)] for s in range(1, 5)]
    lo, _, sources, coeffs = schedule.first
    # round 0 registers that no pair reads go straight into their sums
    paired = {register for r in schedule.rounds for register in r.left.tolist()}

    for s, (slope, factor) in enumerate(zip(slopes, ("h2", "h2", "h", None))):
        inputs = stage if s else state

        def name(register: int) -> str:
            if register < size:
                return inputs[register]
            return "1.0" if register == schedule.unit else f"r{register}"

        def write_round(rnd: _Round):
            parts: list[list[str]] = [[] for _ in range(rnd.hi - rnd.lo)]
            for left, right, target, sign in zip(
                rnd.left.tolist(), rnd.right.tolist(), rnd.target.tolist(), rnd.sign.tolist()
            ):
                parts[target].append(f" {'-' if sign < 0 else '+'} {name(left)}*{name(right)}")
            for offset, terms in enumerate(parts):
                lines.append(f"r{rnd.lo + offset} = 0.0" + "".join(terms))

        for rnd in schedule.powers:
            write_round(rnd)
        scaled = {}
        for register, (source, coeff) in enumerate(zip(sources.tolist(), coeffs.tolist()), lo):
            expr = _scaled(coeff, name(source))
            if register in paired:
                lines.append(f"r{register} = {expr}")
            else:
                scaled[register] = expr
        for rnd in schedule.rounds:
            write_round(rnd)
        operands: list[list[str]] = [[] for _ in range(size)]
        summed, targets, weights = schedule.sums
        for register, target, weight in zip(
            summed.tolist(), targets.tolist(), [1.0] * len(summed) if weights is None else weights
        ):
            value = scaled.get(register) or name(register)
            operands[target].append(value if weight else f"0.0*({value})")
        for i, terms in enumerate(operands):
            lines.append(f"{slope[i]} = " + " + ".join(["0.0", *terms]))
        if factor is not None:
            lines += [f"{z} = {y} + {k}*{factor}" for y, z, k in zip(state, stage, slope)]
    for y, k1, k2, k3, k4 in zip(state, *slopes):
        lines.append(f"{y} = {y} + ({k1} + 2.0*{k2} + 2.0*{k3} + {k4})*h6")

    names = ", ".join(state + [""])
    source = "\n".join(
        [
            "def steps(state, count, write, h2, h, h6):",
            f"    ({names}) = state",
            "    for _ in range(count):",
            *("        " + line for line in lines),
            f"        write(({names}))",
        ]
    )
    namespace: dict = {}
    exec(compile(source, "<rk4 step>", "exec"), namespace)
    function = namespace["steps"]

    index = schedule.index

    def advance(rows: np.ndarray):
        block: list[float] = []
        count = len(rows) - 1
        function(tuple(rows[0, index].tolist()), count, block.extend, dt / 2, dt, dt / 6)
        rows[1:, index] = np.reshape(block, (count, size))

    return advance


def _numpy_steps(schedule: _Schedule, dt: float) -> Callable[[np.ndarray], None]:
    """RK4 steps of the schedule on one flat register array: each round is
    two gathers, the products and one ``bincount``."""
    size = schedule.state
    registers = np.zeros(schedule.registers)
    if schedule.unit is not None:
        registers[schedule.unit] = 1.0
    head = registers[:size]
    lo, hi, sources, coeffs = schedule.first
    scaled = registers[lo:hi]
    summed, targets, weights = schedule.sums
    powers, rounds = (
        [(registers[r.lo : r.hi], r.left, r.right, r.sign, r.target, r.hi - r.lo) for r in group]
        for group in (schedule.powers, schedule.rounds)
    )

    def run(group):
        for out, left, right, sign, target, count in group:
            terms = registers[left]
            terms *= registers[right]
            terms *= sign
            out[:] = np.bincount(target, terms, count)

    def evaluate_field() -> np.ndarray:
        run(powers)
        np.multiply(registers[sources], coeffs, out=scaled)
        run(rounds)
        if not len(summed):
            return np.zeros(size)
        terms = registers[summed]
        if weights is not None:
            terms *= weights
        return np.bincount(targets, terms, size)

    h2, h6, index = dt / 2, dt / 6, schedule.index

    def advance(rows: np.ndarray):
        current = rows[0, index]
        for step in range(1, len(rows)):
            head[:] = current
            k1 = evaluate_field()
            np.multiply(k1, h2, out=head)
            np.add(head, current, out=head)
            k2 = evaluate_field()
            np.multiply(k2, h2, out=head)
            np.add(head, current, out=head)
            k3 = evaluate_field()
            np.multiply(k3, dt, out=head)
            np.add(head, current, out=head)
            k4 = evaluate_field()
            # current + (k1 + 2.0*k2 + 2.0*k3 + k4)*(dt/6), sum by sum
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= h6
            k1 += current
            rows[step, index] = current = k1

    return advance


def _rk4_scheduled(
    schedule: _Schedule,
    rhs: _Plan,
    values: np.ndarray,
    dt: float,
    coordinates: Sequence[GeneratorSymbol],
):
    """Fill ``values[1:]`` from ``values[0]`` with the schedule's steps, a
    block at a time, in place: straight-line Python code when a step needs
    at most ``_KERNEL_MAX_OPS`` operations, the numpy step otherwise.  The
    first state of a block that is not finite is retaken by
    ``_rk4_array``, which raises or stores its finite state; the states
    after it are overwritten by the next blocks, which grow again from
    one step."""
    if schedule.ops <= _KERNEL_MAX_OPS:
        advance = _straight_line_steps(schedule, dt)
    else:
        advance = _numpy_steps(schedule, dt)
    steps = len(values) - 1
    flat = values.reshape(steps + 1, -1)
    # a Python block holds a float object and a list slot, 32 bytes, per value
    most = max(1, _CHUNK_BYTES // (32 * max(1, len(schedule.index))))
    step, block = 0, most
    while step < steps:
        count = min(block, steps - step)
        rows = flat[step : step + count + 1]
        advance(rows)
        finite = np.isfinite(rows[1:]).all(axis=1)
        good = count if finite.all() else int(np.argmin(finite))
        step += good
        block = min(2 * block, most)
        if good < count:
            _rk4_array(rhs, values, dt, coordinates, step, step + 1)
            step, block = step + 1, 1


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
    whose every component is homogeneous of its coordinate's parity runs
    its product schedule, as straight-line code when a step needs at most
    ``_KERNEL_MAX_OPS`` operations and as the numpy step otherwise; any
    other runs the array path.  All three store the same floats.
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
        schedule = _schedule(rhs, coordinates, directions)
        values = np.zeros((steps + 1,) + start.shape)
        values[0] = start
        if schedule is None:
            _rk4_array(rhs, values, dt, coordinates, 0, steps)
        else:
            _rk4_scheduled(schedule, rhs, values, dt, coordinates)
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
    coefficient-wise sup norm; raises on a quantity whose value, or
    deviation, is not finite on a stored state."""
    names = list(quantities)
    plan = _Plan(
        [quantities[name] for name in names], trajectory.coordinates, trajectory.directions
    )
    values = trajectory.values
    start = None
    worst = np.zeros(len(names))
    # overflow is reported by the finiteness checks alone
    with np.errstate(over="ignore", invalid="ignore"):
        firsts = range(0, len(values), plan.chunk)
        for first, chunk in zip(firsts, plan.chunks(values)):
            _finite_norms(chunk, first, [f"value of {name}" for name in names])
            if start is None:
                start, chunk, first = chunk[0], chunk[1:], first + 1
            norms = _finite_norms(chunk - start, first, [f"drift of {name}" for name in names])
            worst = np.maximum(worst, norms.max(axis=0, initial=0.0))
    return {name: float(value) for name, value in zip(names, worst)}
