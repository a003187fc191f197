"""Floating-point evaluation of solved dynamics with nilpotent odd data.

Odd coordinates take values in a finite exterior algebra over float
coefficients: a value with ``n`` directions stores one coefficient per
subset of the directions, indexed by bitmask.  Products merge disjoint
subsets with the usual alternating sign and vanish on overlap, so
symbolic identities evaluate exactly (up to roundoff) without any
re-ordering logic here: canonical ordering happens upstream.  One routine,
``_pairs``, pairs subsets: given two ascending mask lists it lists their
disjoint pairs by left mask and then right mask, each with its target
mask and sign, at a cost of one comparison per pair of masks; it caches
its results.

One product rule.  Polynomials are compiled once against a coordinate
order and a support into a product schedule, ``_Schedule``: each term is
a float coefficient times a chain of factors (the coordinates, their even
powers, and the unit for constants), with powers formed before they
multiply in and odd factors in canonical order.  The support is the set
of coordinate coefficients that take part, and each evaluation builds it
once from its data: ``integrate`` closes the initial state's nonzero
coefficients under the field (adding every coefficient a component
produces from the set, until nothing new appears) and runs the RK4 step
and the initial constraint check on that set; a ``Trajectory`` keeps the
coefficients that are nonzero in some stored state, for the reports, and
the residual schedule of the initial check, which the constraint drift
reuses when the two sets agree; ``evaluate`` takes its state's nonzero
coefficients.  A power or a partial product holds whatever the product
reaches from its operands' supports.  A coefficient of a product is the
IEEE sum, from +0.0 in ``_pairs`` order, of the signed pairs between
the two operands' supports, and each output sums its terms in the same
way, in term order.  A ``GrassmannValue`` has no parity, and its products
pair the nonzero coefficients of the two operands.

So a coefficient that the data never makes nonzero takes part in no
product.  While every value is finite this changes no float: each pair
it would join has a factor of +-0.0 and adds +-0.0 to a sum that starts
from +0.0, so every output is, byte for byte, what pairing every
coefficient of each coordinate's parity gives, and a value does not
depend on the other expressions compiled with it: the conservation
report compiles each distinct quantity once (the time charge is the
energy), and every name of it reads that output.  Only an overflowing
run can differ, as the exact algebra does: inf times a coefficient that
is zero for the whole run gives no term, where pairing it would give NaN.

The schedule is evaluated in two ways:

* batched numpy over ``(registers, states)``, register-major, in chunks
  of states whose arrays alive at once hold about ``_CHUNK_BYTES``:
  ``evaluate``, the initial constraint check and the conservation and
  constraint reports.  Each gather copies whole rows, and each output's
  sup norm reduces its ``2**n`` rows of states.
* RK4 steps of the field.  The schedule's size gives the float
  operations of one step, and that count picks the code: at most
  ``_KERNEL_MAX_OPS``, straight-line Python float code, one name per
  register, compiled once per run; more, a numpy step on one flat
  register array, two fixed gathers and one ``bincount`` per round.  Both
  store the same floats.  The straight-line step folds out each still
  register, one that no sum targets: its slope is 0.0 in every stage
  and 0.0 times a finite positive step is +0.0, so its stage input and
  its update are both ``y + 0.0``, computed once per step, with no slope
  or stage arithmetic.

Integration is classic fixed-step fourth-order Runge-Kutta, stored as one
``(steps + 1, coordinates, 2**n)`` array.

Checks: the initial state's parity is checked when the ``NumericState``
is built; a field with a component that is not of its coordinate's parity
is refused before the first step, whether or not the data reaches that
component's terms; every stored state is checked for finiteness, a block
of steps at a time, and the first one that is not finite is an error; a
``Trajectory`` checks the parity of its states' nonzero coefficients when
it is built, by one mask test over the whole array.  The initial
constraint residuals, before the first step, and the reports, on every
stored state, are checked by one rule (``_largest_norms``): the first
state, then output, whose value or drift is not finite is an error.
Numeric failures are reported by these checks alone: numpy's overflow
warnings are silenced while integrating and reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .algebra import GeneratorSymbol, Parity, SuperExpr, has_parity
from .lagrangian import Dynamics

# bound on the bytes that the temporaries of one batched evaluation hold
# at once; it keeps peak memory flat however long the trajectory
_CHUNK_BYTES = 1 << 18
# bound on the bytes of one stored trajectory; the shipped problems store
# under 200 KB and the benchmark's generated ones under 1 MB
_MAX_TRAJECTORY_BYTES = 1 << 30
# bound on the float operations of one RK4 step that runs as straight-line
# Python code, as emitted, still registers folded (``_Schedule.ops``); a
# larger step runs the numpy step (see ``integrate``).  Measured on a
# 2-core x86 VM, straight-line code costs 12-30 ns per operation per step
# and 3-8 us per operation to compile, and the numpy step 15-70 us per
# step on the same fields, so at 400 operations the compile is repaid
# within 40-140 steps.  On the coefficients their data reaches, the
# shipped problems need 27-65 operations and the seed-1 grassmann-sim
# systems (n=4..8) 132-2268.
_KERNEL_MAX_OPS = 400
# largest sup-norm constraint residual ``integrate`` accepts initially
_CONSTRAINT_TOL = 1e-9


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


@lru_cache(maxsize=128)
def _pairs(directions: int, lmasks: tuple[int, ...], rmasks: tuple[int, ...]):
    """The disjoint pairs between two ascending mask lists, by left mask
    and then right mask: their positions in the two lists, the target
    masks, each pair's target and sign.  The sign counts the swaps that
    interleave the two ordered subsets."""
    left, right = np.array(lmasks, dtype=np.intp), np.array(rmasks, dtype=np.intp)
    lpos, rpos = np.nonzero((left[:, None] & right) == 0)
    left, right = left[lpos], right[rpos]
    sizes = _subset_sizes(directions)
    crossings = np.zeros(len(lpos), dtype=np.intp)
    for i in range(directions):
        crossings += (right >> i & 1) * sizes[left >> (i + 1)]
    targets, inverse = np.unique(left | right, return_inverse=True)
    sign = (1 - 2 * (crossings & 1)).astype(float)
    return _frozen(lpos), _frozen(rpos), tuple(targets.tolist()), _frozen(inverse), _frozen(sign)


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

    def supports_parity(self, parity: Parity) -> bool:
        """Whether every nonzero coefficient is on a subset of ``parity``."""
        odd = _odd_subsets(self.directions)
        return not self.coeffs[odd if parity is Parity.EVEN else ~odd].any()

    def __mul__(self, other: "GrassmannValue") -> "GrassmannValue":
        """The exterior product, each target summed from +0.0 in ``_pairs`` order."""
        if not isinstance(other, GrassmannValue):
            return NotImplemented
        if other.directions != self.directions:
            raise NumericError("mismatched numbers of odd directions")
        lmasks, rmasks = np.flatnonzero(self.coeffs), np.flatnonzero(other.coeffs)
        left, right, targets, inverse, sign = _pairs(
            self.directions, tuple(lmasks.tolist()), tuple(rmasks.tolist())
        )
        terms = self.coeffs[lmasks[left]] * other.coeffs[rmasks[right]] * sign
        target = np.array(targets, dtype=np.intp)[inverse]
        return GrassmannValue(self.directions, np.bincount(target, terms, self.coeffs.size))

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


def _chain(index: Mapping[GeneratorSymbol, int], even, odd) -> list[tuple[int, int]]:
    """A term's factors as ``(row, exponent)``, even powers first and odd
    factors in canonical order."""
    chain = [(_row(index, gen), exponent) for gen, exponent in even]
    return chain + [(_row(index, gen), 1) for gen in odd]


def _binned(terms: np.ndarray, bins: np.ndarray, count: int) -> np.ndarray:
    """Sum the ``(pairs, states)`` terms into ``(count, states)`` bins, each
    bin from +0.0 in pair order: ``bincount`` adds its weights in input
    order, and each state goes to bins of its own."""
    states = terms.shape[1]
    bins = ((bins * states)[:, None] + np.arange(states)).ravel()
    return np.bincount(bins, terms.ravel(), count * states).reshape(count, states)


class _Round(NamedTuple):
    """Registers ``lo:hi``, each the sum from +0.0 of the signed products
    ``register[left] * register[right] * sign`` of its pairs, in order."""

    lo: int
    hi: int
    left: np.ndarray
    right: np.ndarray
    target: np.ndarray  # of each pair, counted from ``lo``
    sign: np.ndarray


def _run(rounds: Sequence[_Round], registers: np.ndarray):
    """Compute the rounds' registers of a ``(registers, batch)`` array in
    place, in order."""
    for rnd in rounds:
        terms = registers[rnd.left]
        terms *= registers[rnd.right]
        terms *= rnd.sign[:, None]
        registers[rnd.lo : rnd.hi] = _binned(terms, rnd.target, rnd.hi - rnd.lo)


class _Schedule:
    """Polynomials compiled against a coordinate order into fixed rounds
    over registers.

    Registers hold the coefficients that ``support``, a boolean
    ``(coordinates, 2**n)`` array, marks and what products reach from
    them: the state's registers first, in chart order (``index`` holds
    their ``coordinate * 2**n + mask``), then the unit, each power and
    each term's value after every round.  A term is a coefficient times a
    chain of factors (the coordinates, their even powers, and the unit
    for constants), even powers first and odd factors in canonical order.
    The powers of each exponent form one round, each the power below
    times the coordinate; round 0 scales each term's first factor by its
    coefficient, and round ``j`` multiplies in the ``j``-th factor of the
    terms that have one.  A product pairs the coefficients of its two
    operands in ``_pairs`` order.  ``sums`` lists the registers of
    each term's final value, in term order, and the ``output * 2**n +
    mask`` each one is added to.
    """

    def __init__(
        self,
        exprs: Sequence[SuperExpr],
        coordinates: Sequence[GeneratorSymbol],
        directions: int,
        support: np.ndarray,
    ):
        index = {gen: row for row, gen in enumerate(coordinates)}
        terms = []
        top: dict[int, int] = {}
        for which, expr in enumerate(exprs):
            for (even, odd), coeff in expr.items():
                chain = _chain(index, even, odd)
                for row, exponent in chain:
                    top[row] = max(top.get(row, 1), exponent)
                terms.append((which, _float(coeff), chain))

        self.directions = directions
        self.support = support
        size = 1 << directions
        self.registers = 0
        # (first register, masks) of each factor
        slots = {
            (row, 1): self._allocate(tuple(compress(range(size), masks)))
            for row, masks in enumerate(support.tolist())
        }
        self.state = self.registers
        self.index = np.array(
            [row * size + mask for (row, _), (_, masks) in slots.items() for mask in masks],
            dtype=np.intp,
        )
        self.unit = None
        if any(not chain for _, _, chain in terms):
            self.unit = self.registers
            slots[None] = self._allocate((0,))
        self.powers: list[_Round] = []
        exponent = 2
        while rows := [row for row in sorted(top) if top[row] >= exponent]:
            products = [(slots[row, exponent - 1], slots[row, 1]) for row in rows]
            for row, value in zip(rows, self._round(products, self.powers)):
                slots[row, exponent] = value
            exponent += 1

        chains = [[slots[factor] for factor in chain] or [slots[None]] for _, _, chain in terms]
        lo = self.registers
        values, sources, coeffs = [], [], []
        for (_, coeff, _), chain in zip(terms, chains):
            base, masks = chain[0]
            values.append(self._allocate(masks))
            sources += range(base, base + len(masks))
            coeffs += [coeff] * len(masks)
        self.first = (lo, self.registers, np.array(sources, dtype=np.intp), np.array(coeffs))
        self.rounds: list[_Round] = []
        for j in range(1, max(map(len, chains), default=0)):
            live = [t for t, chain in enumerate(chains) if len(chain) > j]
            products = [(values[t], chains[t][j]) for t in live]
            for t, value in zip(live, self._round(products, self.rounds)):
                values[t] = value

        summed, targets = [], []
        for (which, _, _), (base, masks) in zip(terms, values):
            summed += range(base, base + len(masks))
            targets += [which * size + mask for mask in masks]
        self.sums = (np.array(summed, dtype=np.intp), np.array(targets, dtype=np.intp))
        self.outputs = len(exprs)
        widest = max((len(r.left) for r in self.powers + self.rounds), default=0)
        # the float operations of one RK4 step of a field: four
        # evaluations, each pair a multiply and an add, then the stage and
        # update arithmetic as the straight-line step emits it, 13 for a
        # register that some sum targets and 2 for a still one (a field's
        # sums target state registers, one per distinct target)
        moving = len(set(targets))
        pairs = sum(len(r.left) for r in self.powers + self.rounds)
        self.ops = (4 * (2 * pairs + len(sources) + len(summed))
                    + 13 * moving + 2 * (self.state - moving))
        # states per batch, counting every array of a chunk that is alive
        # at once: the registers with a round's terms, its gathered factors
        # (or bins) and its sums, or with the sums' terms, bins and
        # outputs; then the outputs and one temporary of the report
        per_state = max(
            self.registers + 3 * widest,
            self.registers + 2 * len(summed) + self.outputs * size,
            2 * self.outputs * size,
        )
        self.chunk = max(1, _CHUNK_BYTES // (8 * max(1, per_state)))

    def _allocate(self, masks: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        base = self.registers
        self.registers += len(masks)
        return base, masks

    def _round(self, products, rounds: list[_Round]) -> list[tuple[int, tuple[int, ...]]]:
        """Append one round of the ``(left value, right value)`` products;
        returns their values."""
        lo = self.registers
        parts, values = [], []
        for (lbase, lmasks), (rbase, rmasks) in products:
            left, right, targets, inverse, sign = _pairs(self.directions, lmasks, rmasks)
            value = self._allocate(targets)
            parts.append((lbase + left, rbase + right, value[0] - lo + inverse, sign))
            values.append(value)
        if self.registers > lo:
            rounds.append(_Round(lo, self.registers, *map(np.concatenate, zip(*parts))))
        return values

    def evaluate(self, states: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Evaluate on ``(count, coordinates, 2**n)`` states, ``chunk``
        states at a time, register-major: yields each chunk's first index
        and its ``(outputs, 2**n, chunk)`` values."""
        flat = states.reshape(len(states), -1)
        for first in range(0, len(states), self.chunk):
            yield first, self._evaluate_chunk(flat[first : first + self.chunk])

    def _evaluate_chunk(self, block: np.ndarray) -> np.ndarray:
        """The ``(outputs, 2**n, states)`` values of ``(states, coordinates
        * 2**n)`` flat states; the registers are freed on return."""
        lo, hi, sources, coeffs = self.first
        summed, targets = self.sums
        registers = np.empty((self.registers, len(block)))
        registers[: self.state] = block[:, self.index].T
        if self.unit is not None:
            registers[self.unit] = 1.0
        _run(self.powers, registers)
        registers[lo:hi] = registers[sources] * coeffs[:, None]
        _run(self.rounds, registers)
        size = 1 << self.directions
        values = _binned(registers[summed], targets, self.outputs * size)
        return values.reshape(self.outputs, size, len(block))


def _reached(chains, support: np.ndarray, directions: int) -> Iterator[int]:
    """The ``output * 2**n + mask`` of every coefficient that the terms,
    each an output and a chain of ``(row, exponent)`` factors, reach from
    the boolean ``(coordinates, 2**n)`` support: the masks of the values
    that ``_Schedule`` forms on it, read from the ``_pairs`` targets with
    no schedule built."""
    size = 1 << directions
    rows = [tuple(compress(range(size), masks)) for masks in support.tolist()]
    powers: dict[tuple[int, int], tuple[int, ...]] = {}

    def masks_of(row: int, exponent: int) -> tuple[int, ...]:
        if exponent == 1:
            return rows[row]
        if (row, exponent) not in powers:
            powers[row, exponent] = _pairs(directions, masks_of(row, exponent - 1), rows[row])[2]
        return powers[row, exponent]

    for which, chain in chains:
        masks = masks_of(*chain[0]) if chain else (0,)
        for factor in chain[1:]:
            masks = _pairs(directions, masks, masks_of(*factor))[2]
        for mask in masks:
            yield which * size + mask


def _field_schedule(
    vector_field, coordinates: Sequence[GeneratorSymbol], directions: int, start: np.ndarray
) -> _Schedule:
    """The schedule of the field's components along the coordinates on the
    closure of the nonzero coefficients of the ``(coordinates, 2**n)``
    state ``start``: each pass adds every coefficient that a component
    produces from the set, until nothing new appears, and each sum's
    target is then a state register.  The passes follow only the masks
    each term reaches, read from the ``_pairs`` targets as ``_Schedule``
    forms them, and one schedule is built on the closed support.  Raises
    on a component that is not of its coordinate's parity."""
    components = [vector_field.component(gen) for gen in coordinates]
    for gen, component in zip(coordinates, components):
        if not has_parity(component, gen.parity):
            raise ParityViolation(f"the field's component for {gen} has support of the wrong parity")
    index = {gen: row for row, gen in enumerate(coordinates)}
    chains = [
        (which, _chain(index, even, odd))
        for which, component in enumerate(components)
        for (even, odd), _ in component.items()
    ]
    support = start != 0
    while True:
        reached = np.array(list(_reached(chains, support, directions)), dtype=np.intp)
        if support.flat[reached].all():
            break
        support.flat[reached] = True
    schedule = _Schedule(components, coordinates, directions, support)
    summed, targets = schedule.sums
    register = np.empty(support.size, dtype=np.intp)
    register[schedule.index] = np.arange(schedule.state)
    schedule.sums = (summed, register[targets])
    return schedule


def _largest_norms(schedule: _Schedule, states: np.ndarray, labels, drifts=None) -> np.ndarray:
    """The largest sup norm of each output of ``schedule`` over the
    ``(count, coordinates, 2**n)`` states: of its value or, with ``drifts``,
    of its change from the first state.  Raises on the first state, then
    output, whose value (named by ``labels``) or change (by ``drifts``) is
    not finite."""
    worst, start = np.zeros(schedule.outputs), None
    # overflow is reported by the finiteness check alone
    with np.errstate(over="ignore", invalid="ignore"):
        for first, values in schedule.evaluate(states):
            # (outputs, states): each a reduction over the short mask axis
            magnitudes = np.abs(values)
            norms = magnitudes.max(axis=1)
            finite = np.isfinite(norms)
            if drifts is not None:
                start = values[:, :, :1].copy() if start is None else start
                np.abs(np.subtract(values, start, out=magnitudes), out=magnitudes)
                norms = magnitudes.max(axis=1)
            bad = ~(finite & np.isfinite(norms))
            if bad.any():
                step, which = np.argwhere(bad.T)[0]
                label = (labels if not finite[which, step] else drifts)[which]
                raise NumericError(f"non-finite {label} at step {first + step}")
            worst = np.maximum(worst, norms.max(axis=1))
    return worst


def evaluate(expr: SuperExpr, state: NumericState) -> GrassmannValue:
    """Evaluate a polynomial expression on a state.  Factors multiply in
    canonical order, so this is an algebra homomorphism."""
    coordinates = tuple(state.values)
    stacked = _stack(state, coordinates)
    schedule = _Schedule([expr], coordinates, state.directions, stacked != 0)
    with np.errstate(over="ignore", invalid="ignore"):
        _, values = next(schedule.evaluate(stacked[None]))
    return GrassmannValue(state.directions, values[0, :, 0])


class _Residuals:
    """The solved constraints' residuals ``q - C(q)``, built once, and their
    schedule on the support they were first compiled on (none when there
    is no constraint)."""

    def __init__(self, dynamics: Dynamics, coordinates, directions: int, support: np.ndarray):
        self.gens = [gen for gen in dynamics.constraints if gen.jet_order <= dynamics.order]
        self.exprs = [SuperExpr.generator(gen) - dynamics.constraints[gen] for gen in self.gens]
        self.coordinates, self.directions = coordinates, directions
        self.schedule = _Schedule(self.exprs, coordinates, directions, support) if self.gens else None

    def norms(self, states: np.ndarray, support: np.ndarray) -> dict:
        """Each constraint's largest residual sup norm over the states: on
        the kept schedule when ``support`` is its support, else on one
        compiled on ``support``."""
        if not self.gens:
            return {}
        schedule = self.schedule
        if not np.array_equal(schedule.support, support):
            schedule = _Schedule(self.exprs, self.coordinates, self.directions, support)
        labels = [f"residual of the {gen} constraint" for gen in self.gens]
        return dict(zip(self.gens, _largest_norms(schedule, states, labels).tolist()))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A fixed-step run: ``values[i, c]`` holds the coefficients of
    ``coordinates[c]`` at ``times[i]``.  ``support`` marks the
    ``(coordinate, mask)`` coefficients that are nonzero in some stored
    state, on which the reports evaluate; each must be of its
    coordinate's parity."""

    dynamics: Dynamics
    times: tuple[float, ...]
    coordinates: tuple[GeneratorSymbol, ...]
    values: np.ndarray
    directions: int
    support: np.ndarray = field(init=False, repr=False)
    # the residual schedule of the initial constraint check, if any
    _residuals: _Residuals | None = field(default=None, repr=False)

    def __post_init__(self):
        nonzero = self.values != 0
        support = nonzero.any(axis=0)
        odd = np.array([gen.parity is Parity.ODD for gen in self.coordinates], dtype=bool)
        misplaced = odd[:, None] != _odd_subsets(self.directions)
        if (support & misplaced).any():
            step, row, _ = np.argwhere(nonzero & misplaced)[0]
            raise ParityViolation(
                f"value for {self.coordinates[row]} has support of the wrong parity at step {step}"
            )
        object.__setattr__(self, "support", _frozen(support))

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
        dynamics has no constraints), on the schedule of ``integrate``'s
        initial check when its support is ``support`` and on one compiled
        here otherwise; raises on a residual that is not finite."""
        residuals = self._residuals or _Residuals(
            self.dynamics, self.coordinates, self.directions, self.support
        )
        return max(residuals.norms(self.values, self.support).values(), default=0.0)

    def export_rows(self) -> list[str]:
        """Tab-separated rows: time, coordinate, subset mask, coefficient."""
        rows = ["time\tcoordinate\tmask\tvalue"]
        for time, values in zip(self.times, self.values.tolist()):
            for gen, coeffs in zip(self.coordinates, values):
                for mask, coeff in enumerate(coeffs):
                    rows.append(f"{time!r}\t{gen}\t{mask}\t{coeff!r}")
        return rows


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
    """RK4 steps of a field's schedule as straight-line Python float code:
    each register is one name, each round's register ``0.0 + a*b - c*d
    ...`` over its pairs, each output ``0.0 + ...`` over its terms."""
    size, lines = schedule.state, []
    state = [f"y{i}" for i in range(size)]
    stage = [f"z{i}" for i in range(size)]
    slopes = [[f"k{s}_{i}" for i in range(size)] for s in range(1, 5)]
    lo, _, sources, coeffs = schedule.first
    # round 0 registers that no pair reads go straight into their sums
    paired = {register for r in schedule.rounds for register in r.left.tolist()}
    # a still register is one that no sum targets
    targeted = set(schedule.sums[1].tolist())
    moving = [i for i in range(size) if i in targeted]
    still = [i for i in range(size) if i not in targeted]

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
        for register, target in zip(*(part.tolist() for part in schedule.sums)):
            operands[target].append(scaled.get(register) or name(register))
        for i in moving:
            lines.append(f"{slope[i]} = " + " + ".join(["0.0", *operands[i]]))
        if factor is not None:
            lines += [f"{stage[i]} = {state[i]} + {slope[i]}*{factor}" for i in moving]
        if s == 0:
            # a still register's slope is 0.0 in every stage, and 0.0 times
            # a finite positive step is +0.0: each stage input, and the
            # step's update, is y + 0.0
            lines += [f"{stage[i]} = {state[i]} + 0.0" for i in still]
    for i in moving:
        y, k1, k2, k3, k4 = state[i], *(slope[i] for slope in slopes)
        lines.append(f"{y} = {y} + ({k1} + 2.0*{k2} + 2.0*{k3} + {k4})*h6")
    lines += [f"{state[i]} = {stage[i]}" for i in still]

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
    """RK4 steps of a field's schedule on one flat register array: each
    round is two gathers, the products and one ``bincount``."""
    size = schedule.state
    registers = np.zeros(schedule.registers)
    if schedule.unit is not None:
        registers[schedule.unit] = 1.0
    head = registers[:size]
    lo, hi, sources, coeffs = schedule.first
    scaled = registers[lo:hi]
    summed, targets = schedule.sums
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
        # float even when no sum has a term, which bincount counts as int
        return np.bincount(targets, registers[summed], size).astype(float, copy=False)

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


def _rk4(schedule: _Schedule, values: np.ndarray, dt: float, coordinates: Sequence[GeneratorSymbol]):
    """Fill ``values[1:]`` from ``values[0]`` with RK4 steps of a field's
    schedule, a block at a time, in place: straight-line Python code when a
    step needs at most ``_KERNEL_MAX_OPS`` operations, the numpy step
    otherwise.  Raises on the first stored state that is not finite."""
    if schedule.ops <= _KERNEL_MAX_OPS:
        advance = _straight_line_steps(schedule, dt)
    else:
        advance = _numpy_steps(schedule, dt)
    steps = len(values) - 1
    flat = values.reshape(steps + 1, -1)
    # a Python block holds a float object and a list slot, 32 bytes, per value
    block = max(1, _CHUNK_BYTES // (32 * max(1, len(schedule.index))))
    for step in range(0, steps, block):
        rows = flat[step : step + block + 1]
        advance(rows)
        # the columns no step writes hold the 0.0 of ``np.zeros``
        finite = np.isfinite(rows[1:, schedule.index]).all(axis=1)
        if not finite.all():
            # the first coordinate, in chart order, that is not finite there
            bad = step + 1 + int(np.argmin(finite))
            row = int(np.argmin(np.isfinite(values[bad]).all(axis=-1)))
            raise IntegrationError(f"non-finite value for {coordinates[row]} at step {bad}")


def integrate(dynamics: Dynamics, initial: NumericState, *, dt: float, t_end: float) -> Trajectory:
    """Classic fourth-order Runge-Kutta with fixed step from the initial
    time to ``t_end``, which must be a whole number of steps away.

    The initial state must satisfy the solved constraints within
    ``_CONSTRAINT_TOL``; the run aborts on non-finite values.  The field
    runs its product schedule on the closure of the initial state's nonzero
    coefficients, as straight-line code when a step needs at most
    ``_KERNEL_MAX_OPS`` operations and as the numpy step otherwise; both
    store the same floats.  The trajectory keeps the residual schedule of
    the initial check for ``Trajectory.constraint_drift``.
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
    schedule = _field_schedule(dynamics.field(), coordinates, directions, start)

    residuals = _Residuals(dynamics, coordinates, directions, schedule.support)
    for gen, norm in residuals.norms(start[None], schedule.support).items():
        if norm > _CONSTRAINT_TOL:
            raise ConstraintViolation(f"initial data violates {gen} constraint by {norm:.3e}")

    values = np.zeros((steps + 1,) + start.shape)
    values[0] = start
    # a blow-up is reported once, by the finiteness check, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4(schedule, values, dt, coordinates)
    times = (initial.time, *(initial.time + np.arange(1, steps + 1) * dt).tolist())
    return Trajectory(dynamics, times, coordinates, _frozen(values), directions, residuals)


def conservation_report(
    trajectory: Trajectory, quantities: Mapping[str, SuperExpr]
) -> dict[str, float]:
    """Largest deviation of each quantity from its initial value, in the
    coefficient-wise sup norm; raises on a quantity whose value, or
    deviation, is not finite on a stored state.  Equal quantities share
    one output, named in errors by the first name that gives it."""
    first: dict[SuperExpr, str] = {}
    for name, expr in quantities.items():
        first.setdefault(expr, name)
    schedule = _Schedule(list(first), trajectory.coordinates, trajectory.directions, trajectory.support)
    labels = [f"value of {name}" for name in first.values()]
    drifts = [f"drift of {name}" for name in first.values()]
    worst = dict(zip(first, _largest_norms(schedule, trajectory.values, labels, drifts).tolist()))
    return {name: worst[expr] for name, expr in quantities.items()}
