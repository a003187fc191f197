"""The Lagrangian pipeline: momentum form, energy, field equations,
dynamics, and the symmetry/conserved-quantity correspondence.

For an even Lagrangian of order k the momentum one-form lives on
T^(2k-1), the field equations are the components of a one-form that is
semibasic over the base, and a regular Lagrangian determines a unique
second-order-type field.  Odd coordinates entering the Lagrangian only
below top order produce lower-order equations; these are solved as
constraints and prolonged by total differentiation instead of being
promoted to fake forces.

All checks are symbolic and exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .algebra import (
    AlgebraError,
    GeneratorSymbol,
    Parity,
    SuperExpr,
    divide_by_degree,
    exact_quotient,
    has_parity,
    koszul,
    normalize,
    parity_of,
    parity_product,
    partials,
    substitute,
    sum_of_products,
    times_term,
)
from .forms import (
    CheckForm,
    GradedForm,
    cartan_operator,
    exterior_d,
    interior,
    semibasic_check,
    total_derivative as form_total_derivative,
)
from .jets import (
    Chart,
    OrderExceeded,
    VectorFieldAlong,
    lift_vector_field,
    liouville_field,
    total_derivative as expr_total_derivative,
    total_derivative_field,
    vertical_endomorphism,
)


class LagrangianError(Exception):
    pass


class NotRegular(LagrangianError):
    def __init__(self, report: "RegularityReport"):
        super().__init__(f"Lagrangian is {report.verdict.value}")
        self.report = report


class SingularSystem(LagrangianError):
    pass


class NotSymmetry(LagrangianError):
    def __init__(self, certificate: Mapping[str, SuperExpr]):
        parts = ", ".join(f"{name}: {expr}" for name, expr in sorted(certificate.items()))
        super().__init__(f"not a symmetry; nonvanishing variational data ({parts})")
        self.certificate = dict(certificate)


class NoWitness(LagrangianError):
    pass


# bound on the columns of one degree of the witness search on a system that
# is not regular, where no constancy check ends the search at the quantity's
# degree.  On a 2-core x86 VM one exact elimination took 0.8 s at 5460
# columns and ten times that one degree higher (order 2, three even
# coordinates); the benchmark's searches need at most 78 columns.
_MAX_WITNESS_COLUMNS = 5000


class NotProjectable(LagrangianError):
    pass


@dataclass(frozen=True)
class SuperLagrangian:
    """An even polynomial Lagrangian on an order-k chart (k >= 1)."""

    chart: Chart
    expr: SuperExpr

    def __post_init__(self):
        if self.chart.order < 1:
            raise OrderExceeded("a Lagrangian needs chart order k >= 1")
        self.chart.validate(self.expr)
        if not has_parity(self.expr, Parity.EVEN):
            raise LagrangianError("the Lagrangian must be even")

    @property
    def order(self) -> int:
        return self.chart.order


def variational_derivative(expr: SuperExpr, base_gen: GeneratorSymbol) -> SuperExpr:
    """The alternating-sign combination sum_j (-T)^j d(expr)/du^(j) of
    shifted partials, which vanishes exactly on total time derivatives: the
    last link R_0 of the chain walked by ``_sweep``."""
    if base_gen.jet_order != 0:
        raise ValueError("variational derivatives are taken per base coordinate")
    return _sweep(partials(expr), base_gen)[0]


def _sweep(
    derivs: Mapping[GeneratorSymbol, SuperExpr], base: GeneratorSymbol
) -> tuple[SuperExpr, list[tuple[int, SuperExpr, SuperExpr]]]:
    """Walk the chain R_i = d(expr)/du^(i) - T(R_(i+1)) for one base
    coordinate u, with the left partials ``derivs`` of an expression (its
    ``partials``), from the top order of u in it down to 0.  Return R_0,
    the variational derivative, and the homotopy part
    sum_(i>=1) u^(i-1) R_i as ``sum_of_products`` triples."""
    top = max((g.jet_order for g in derivs if g.name == base.name), default=0)
    zero = SuperExpr.zero()
    remainder = zero
    parts = []
    for i in range(top, 0, -1):
        remainder = derivs.get(base.shifted(i), zero) - expr_total_derivative(remainder)
        parts.append((1, SuperExpr.generator(base.shifted(i - 1)), remainder))
    return derivs.get(base, zero) - expr_total_derivative(remainder), parts


# -- Cartan package --------------------------------------------------------


def _momentum(lag: SuperLagrangian, dl: GradedForm) -> GradedForm:
    """The momentum one-form on T^(2k-1), from ``dl`` the exterior
    derivative of the Lagrangian, certified semibasic at level k-1."""
    theta = cartan_operator(dl, lag.order)
    semibasic_check(theta, lag.order - 1)
    return theta


def cartan_one_form(lag: SuperLagrangian) -> GradedForm:
    """The momentum one-form on T^(2k-1); semibasic at level k-1."""
    return _momentum(lag, exterior_d(lag.expr))


@dataclass(frozen=True)
class CartanData:
    """The derived geometry of one Lagrangian, each piece computed once.

    ``theta`` is certified semibasic at level k-1, and
    ``theta.coefficient((x,))`` is the momentum of the coordinate x.
    ``energy`` is the interior product of the total-derivative field with
    ``theta``, minus the Lagrangian, and ``d_energy`` is dE, read by the
    chain identity and the check of the dynamics.  ``delta`` is the
    variational one-form on T^(2k), dL minus the total derivative of the
    momentum form, whose components (``delta_check``) are the graded field
    equations.  The solve plan with its regularity report, and the solved
    dynamics, are computed on first use and kept.
    """

    lagrangian: SuperLagrangian
    theta: GradedForm
    omega: GradedForm
    energy: SuperExpr
    d_energy: GradedForm
    delta: GradedForm
    delta_check: CheckForm

    @cached_property
    def _plan(self) -> "_SolvePlan":
        return _solve_plan(self.lagrangian, self.delta_check)

    @property
    def regularity(self) -> "RegularityReport":
        return self._plan.report

    @cached_property
    def dynamics(self) -> "Dynamics":
        """The solved dynamics; raises NotRegular unless the report is
        regular."""
        return _solve_dynamics(self)


def cartan_data(lag: SuperLagrangian) -> CartanData:
    """Build the momentum form once and derive the two-form, the energy
    and the variational form from it.  One total-derivative field T on
    T^(2k-1) gives the energy, i_T theta - L, and the alternative route to
    the variational form, i_T omega - dE, which must agree and is checked
    here.  dE is computed once and kept."""
    dl = exterior_d(lag.expr)
    theta = _momentum(lag, dl)
    omega = -exterior_d(theta)
    t_field = total_derivative_field(lag.chart, 2 * lag.order - 1)
    energy = interior(t_field, theta).coefficient(()) - lag.expr
    d_energy = exterior_d(energy)
    delta = dl - form_total_derivative(theta)
    delta_check = semibasic_check(delta, 0)
    if interior(t_field, omega) - d_energy != delta:
        raise LagrangianError("internal identity failure relating the variational form to the two-form")
    return CartanData(lag, theta, omega, energy, d_energy, delta, delta_check)


# -- linear algebra over the superalgebra ----------------------------------


def _det_adjugate(matrix: Sequence[Sequence[SuperExpr]]) -> tuple[SuperExpr, list[list[SuperExpr]] | None]:
    """Determinant and adjugate of a square matrix A whose entries are free
    of odd generators, by fraction-free Gauss-Jordan elimination on
    ``[A | I]`` (Bareiss, Math. Comp. 22, 1968; Nakos, Turner & Williams,
    SIGSAM Bull. 31(3), 1997).  A singular matrix has a determinant of 0
    and no adjugate.

    Step k takes the first row at or below k with a nonzero entry in
    column k as its pivot row (a swap flips the sign) and replaces each
    other row by ``(p_k row_i - a_ik row_k) / p_(k-1)``, with p_k the k-th
    pivot and ``p_(-1) = 1``: an exact division, by Sylvester's identity.
    After step k the rows are p_k times those of Gauss-Jordan with unit
    pivots, so the columns up to k are not read again and not updated, an
    entry p_(k-1) with nothing to subtract becomes p_k, and the run ends
    at ``[d I | M]`` with ``det A = ±d`` and ``adj A = ±M``.  A column
    with no pivot makes the matrix singular.

    A constant matrix is scaled by the least common multiple s of its
    denominators and eliminated on ints, each division checked by
    ``divmod``; then ``det = ±d / s^n`` and ``adj = ±M / s^(n-1)``.  Any
    other matrix is eliminated on its entries, in the integral domain
    Q[even generators], with ``exact_quotient``.
    """
    n = len(matrix)
    constant = all(e.max_jet_order() < 0 for row in matrix for e in row)
    if constant:
        values = [[e.constant_term() for e in row] for row in matrix]
        scale = math.lcm(*(v.denominator for row in values for v in row))
        one, quotient, nonzero = 1, _int_quotient, bool
        rows = [[v.numerator * (scale // v.denominator) for v in row] for row in values]
    else:
        one, quotient, nonzero = SuperExpr.constant(1), exact_quotient, lambda e: not e.is_zero()
        rows = [list(row) for row in matrix]
    zero = one - one
    for i, row in enumerate(rows):
        row += [one if i == j else zero for j in range(n)]
    sign, previous = 1, one
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if nonzero(rows[i][k])), None)
        if pivot_row is None:
            return SuperExpr.zero(), None
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        line = rows[k]
        pivot = line[k]
        for i, row in enumerate(rows):
            if i == k:
                continue
            factor = row[k]
            live = nonzero(factor)
            for j in range(k + 1, 2 * n):
                a = row[j]
                if live and nonzero(line[j]):
                    row[j] = quotient(pivot * a - factor * line[j], previous)
                elif a == previous:
                    row[j] = pivot
                elif nonzero(a):
                    row[j] = quotient(pivot * a, previous)
        previous = pivot
    if not constant:
        return sign * previous, [[sign * e for e in row[n:]] for row in rows]
    return SuperExpr.constant(Fraction(sign * previous, scale**n)), [
        [SuperExpr.constant(Fraction(sign * e, scale ** (n - 1))) for e in row[n:]] for row in rows
    ]


def _int_quotient(dividend: int, divisor: int) -> int:
    quotient, remainder = divmod(dividend, divisor)
    if remainder:
        raise AlgebraError(f"{divisor} does not divide {dividend}")
    return quotient


def _mat_vec(a: Sequence[Sequence[SuperExpr]], v: Sequence[SuperExpr]) -> list[SuperExpr]:
    return [sum_of_products((1, x, y) for x, y in zip(row, v)) for row in a]


# an expression as its part free of the unknowns and the coefficient of each
_Split = tuple[SuperExpr, dict[GeneratorSymbol, SuperExpr]]


def _affine_split(expr: SuperExpr, unknowns: set[GeneratorSymbol]) -> _Split:
    """Write ``expr = rest + sum coeff[u] * u``: the coefficient of each
    unknown is its right partial, the left partial with ``u`` moved back
    past it.  Fails when an unknown is left in a coefficient, that is when
    an unknown appears nonlinearly or two unknowns share a term."""
    coeffs: dict[GeneratorSymbol, SuperExpr] = {}
    derivs = partials(expr)
    for u in sorted(derivs.keys() & unknowns, key=lambda g: g.sort_key):
        coeff = koszul(derivs[u], u.parity.value)
        if coeff.generators() & unknowns:
            raise SingularSystem(
                f"equation is not affine in the unknowns: the coefficient of {u} is {coeff}"
            )
        coeffs[u] = coeff
    terms = ((-1, c, SuperExpr.generator(u)) for u, c in coeffs.items())
    rest = sum_of_products([(1, expr, SuperExpr.constant(1)), *terms])
    return rest, coeffs


# -- regularity and dynamics -----------------------------------------------


class Regularity(Enum):
    REGULAR = "regular"
    DEGENERATE = "degenerate"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RegularityReport:
    verdict: Regularity
    determinants: tuple[SuperExpr, ...]
    note: str = ""


@dataclass(frozen=True)
class Dynamics:
    """A second-order-type field solving the field equations.

    ``forces`` assigns every order-2k coordinate its value along the
    dynamics; ``constraints`` holds solved lower-order relations from the
    degenerate odd sector (empty for strictly regular systems), used to
    reduce on-shell expressions.
    """

    lagrangian: SuperLagrangian
    forces: Mapping[GeneratorSymbol, SuperExpr]
    constraints: Mapping[GeneratorSymbol, SuperExpr]

    @property
    def order(self) -> int:
        return 2 * self.lagrangian.order - 1

    def field(self) -> VectorFieldAlong:
        """The dynamics as a field on T^(2k-1), built once per ``Dynamics``."""
        return self._field

    @cached_property
    def _field(self) -> VectorFieldAlong:
        chart = self.lagrangian.chart
        top = self.order
        comps: dict[GeneratorSymbol, SuperExpr] = {}
        for gen in chart.at_order(top).coordinates():
            if gen.jet_order < top:
                comps[gen] = SuperExpr.generator(gen.shifted())
            else:
                comps[gen] = self.forces[gen.shifted()]
        return VectorFieldAlong(chart, top, top, comps, Parity.EVEN)

    def reduce(self, expr: SuperExpr) -> SuperExpr:
        """Substitute the solved constraints until stable.  No value leads
        back to its own generator, so every chain of substitutions is
        shorter than the assignment and one more pass confirms the
        result."""
        return _until_stable(
            lambda e: substitute(e, self.constraints), expr, len(self.constraints) + 1,
            "constraint substitution did not stabilise",
        )

    def reduce_form(self, form: GradedForm) -> GradedForm:
        return GradedForm({word: self.reduce(coeff) for word, coeff in form.items()})

    def on_shell(self, expr: SuperExpr) -> SuperExpr:
        """Substitute top-order coordinates by forces and the constrained
        ones by their values until stable, with the pass bound of
        ``reduce``; the two key sets are disjoint."""
        assignment = {**self.forces, **self.constraints}
        return _until_stable(
            lambda e: substitute(e, assignment), expr, len(assignment) + 1,
            "on-shell substitution did not stabilise",
        )


def _until_stable(step, value, passes: int, failure: str):
    """Apply ``step`` until the value repeats and return it; raise
    SingularSystem(failure) when ``passes`` applications find no repeat."""
    for _ in range(passes):
        following = step(value)
        if following == value:
            return value
        value = following
    raise SingularSystem(failure)


@dataclass(frozen=True)
class _Sector:
    """A square block of field equations ``matrix u = rhs`` over the
    unknowns, split once by ``_sector``, with the body of the matrix (each
    entry's body taken once) and its determinant, with the adjugate when
    the determinant is nonzero."""

    matrix: tuple[Sequence[SuperExpr], ...] = ()
    rhs: tuple[SuperExpr, ...] = ()
    unknowns: tuple[GeneratorSymbol, ...] = ()
    body: tuple[Sequence[SuperExpr], ...] = ()
    det: SuperExpr = SuperExpr.constant(1)
    adjugate: tuple[Sequence[SuperExpr], ...] = ()


@dataclass(frozen=True)
class _SolvePlan:
    """The field equations split for solving: the dynamical sector over
    the top-order unknowns, and the lower-order (odd) equations over the
    odd coordinates at the highest jet order those equations reach."""

    report: RegularityReport
    dynamical: _Sector = _Sector()
    constraints: _Sector = _Sector()


def _degenerate(note: str, determinants: Sequence[SuperExpr] = ()) -> _SolvePlan:
    return _SolvePlan(RegularityReport(Regularity.DEGENERATE, tuple(determinants), note))


def _sector(rows: Sequence[_Split], unknowns: Sequence[GeneratorSymbol]) -> _Sector:
    """Split the rows ``rest + sum coeffs[u] * u`` once into ``matrix u = -rest``."""
    matrix = tuple([coeffs.get(u, SuperExpr.zero()) for u in unknowns] for _, coeffs in rows)
    body = tuple([e.body() for e in row] for row in matrix)
    det, adjugate = _det_adjugate(body)
    rhs = tuple(-rest for rest, _ in rows)
    return _Sector(matrix, rhs, tuple(unknowns), body, det, tuple(adjugate or ()))


def _solve_plan(lag: SuperLagrangian, delta_check: CheckForm) -> _SolvePlan:
    chart = lag.chart
    k = lag.order
    tops = {g.shifted(2 * k) for g in chart.at_order(0).coordinates()}

    dynamical = []
    lower = []
    dyn_unknowns: set[GeneratorSymbol] = set()
    for base in chart.at_order(0).coordinates():
        eq = delta_check.component(base)
        if eq.is_zero():
            return _degenerate(f"no field equation for {base.name}")
        rest, coeffs = _affine_split(eq, tops)
        if coeffs:
            dynamical.append((rest, coeffs))
            dyn_unknowns.update(coeffs)
        elif base.parity is Parity.EVEN:
            return _degenerate(f"even equation for {base.name} is lower order")
        else:
            lower.append(rest)

    unknown_list = tuple(sorted(dyn_unknowns, key=lambda g: g.sort_key))
    if len(unknown_list) != len(dynamical):
        return _degenerate(f"{len(dynamical)} equations determine {len(unknown_list)} top coordinates")

    dyn_sector = _sector(dynamical, unknown_list) if dynamical else _Sector()
    determinants = [dyn_sector.det] if dynamical else []

    con_sector = _Sector()
    if lower:
        level = max(r.max_jet_order() for r in lower)
        con_unknowns = tuple(sorted(
            {
                g
                for r in lower
                for g in r.generators()
                if g.jet_order == level and g.parity is Parity.ODD
            },
            key=lambda g: g.sort_key,
        ))
        if len(con_unknowns) != len(lower):
            return _degenerate("constraint sector is not square", determinants)
        try:
            con_rows = [_affine_split(r, set(con_unknowns)) for r in lower]
        except SingularSystem:
            return _degenerate("constraint sector is not affine", determinants)
        con_sector = _sector(con_rows, con_unknowns)
        determinants.append(con_sector.det)

    dets = tuple(determinants)
    if any(d.is_zero() for d in dets):
        verdict = Regularity.DEGENERATE
    elif any(d.max_jet_order() >= 0 for d in dets):
        verdict = Regularity.INDETERMINATE
    else:
        verdict = Regularity.REGULAR
    return _SolvePlan(RegularityReport(verdict, dets), dyn_sector, con_sector)


def regularity(lag: SuperLagrangian) -> RegularityReport:
    """Classify the Lagrangian by the leading coefficient matrices of its
    field equations, evaluated with all odd generators set to zero.

    Regular: constant nonzero determinants (unique dynamics).
    Degenerate: a determinant vanishes identically.
    Indeterminate: a determinant is a nonconstant expression, so
    invertibility depends on the point; reported, not decided.
    """
    return cartan_data(lag).regularity


def solve_dynamics(lag: SuperLagrangian, data: CartanData | None = None) -> Dynamics:
    """Solve the field equations of a regular Lagrangian.

    Produces forces for every top-order coordinate; lower-order odd
    equations are solved as constraints and prolonged by total
    differentiation up to top order.  The result is post-verified: the
    field is even, second-order-type, and the contraction identity against
    the two-form and the energy differential reduces to zero.  The
    solution is kept on ``data`` and returned again on later calls.
    """
    return (data or cartan_data(lag)).dynamics


def _solve_affine(sector: _Sector, nilpotency_cap: int, what: str) -> dict[GeneratorSymbol, SuperExpr]:
    """Solve a sector A u = rhs with the kept determinant and adjugate of
    the body B of A; the determinant must be a nonzero constant.  With S
    the nilpotent rest of A, the iteration ``u <- B^-1 (rhs - S u)`` from
    ``u = B^-1 rhs`` runs through the partial sums of the finite geometric
    series and stops when ``u`` does; with S zero, ``B^-1 rhs`` is the
    answer.  The result is verified exactly and each value must have its
    unknown's parity."""
    det = sector.det
    if det.is_zero() or det.max_jet_order() >= 0:
        raise SingularSystem(f"leading matrix has non-invertible body determinant {det}")
    matrix, rhs = sector.matrix, sector.rhs
    inv_body = [[e / det.constant_term() for e in row] for row in sector.adjugate]
    soul = [[e - b for e, b in zip(row, body_row)] for row, body_row in zip(matrix, sector.body)]
    u = _mat_vec(inv_body, rhs)
    if any(not e.is_zero() for row in soul for e in row):
        u = _until_stable(
            lambda v: _mat_vec(inv_body, [r - x for r, x in zip(rhs, _mat_vec(soul, v))]),
            u, nilpotency_cap + 1, "nilpotent correction failed to terminate",
        )
    residual = [r - b for r, b in zip(_mat_vec(matrix, u), rhs)]
    if any(not r.is_zero() for r in residual):
        raise SingularSystem("affine solve verification failed")
    for gen, value in zip(sector.unknowns, u):
        if not has_parity(value, gen.parity):
            raise SingularSystem(f"{what} for {gen} has the wrong parity")
    return dict(zip(sector.unknowns, u))


def _solve_dynamics(data: CartanData) -> Dynamics:
    lag = data.lagrangian
    chart = lag.chart
    k = lag.order
    plan = data._plan
    if plan.report.verdict is not Regularity.REGULAR:
        raise NotRegular(plan.report)

    n_odd_symbols = len(chart.base_odd) * (2 * k + 1)
    forces = _solve_affine(plan.dynamical, n_odd_symbols, "force")
    constraints = _solve_affine(plan.constraints, n_odd_symbols, "constraint value")
    # prolong each solved relation up to top order; the top level
    # supplies the otherwise undetermined odd forces
    for gen in plan.constraints.unknowns:
        value = constraints[gen]
        for j in range(gen.jet_order + 1, 2 * k + 1):
            value = expr_total_derivative(value)
            target = gen.shifted(j - gen.jet_order)
            if target.jet_order == 2 * k:
                forces.setdefault(target, value)
            else:
                constraints.setdefault(target, value)

    missing = [
        g.shifted(2 * k)
        for g in chart.at_order(0).coordinates()
        if g.shifted(2 * k) not in forces
    ]
    if missing:
        raise SingularSystem(f"no force determined for {missing[0]}")

    dyn = Dynamics(lag, forces, constraints)
    gamma = dyn.field()
    if gamma.parity is not Parity.EVEN:
        raise SingularSystem("the dynamics field is not even")
    if not is_sode(gamma):
        raise SingularSystem("the dynamics field is not second-order-type")

    residual = interior(gamma, data.omega) - data.d_energy
    if not dyn.reduce_form(residual).is_zero():
        raise SingularSystem("dynamics verification failed: contraction identity residual")
    for base in chart.at_order(0).coordinates():
        if not dyn.on_shell(data.delta_check.component(base)).is_zero():
            raise SingularSystem("dynamics verification failed: field equations not satisfied")
    return dyn


def is_sode(field: VectorFieldAlong) -> bool:
    """Second-order-type test: every non-top coordinate maps to its
    successor; equivalently the vertical endomorphism sends the field to
    the dilation field.  Both formulations are evaluated and must agree."""
    if field.source_order != field.target_order:
        raise OrderExceeded("second-order-type fields live on a single chart")
    k = field.source_order
    chart = field.chart
    direct = all(
        field.component(gen) == SuperExpr.generator(gen.shifted())
        for gen in chart.at_order(k - 1).coordinates()
    )
    via_endomorphism = vertical_endomorphism(field) == liouville_field(chart, k)
    if direct != via_endomorphism:
        raise LagrangianError("second-order-type formulations disagree")
    return direct


def check_constant_of_motion(g_expr: SuperExpr, dyn: Dynamics) -> bool:
    """True when the dynamics field annihilates the quantity after the
    solved constraints are imposed."""
    value = dyn.field().apply(g_expr)
    return dyn.reduce(value).is_zero()


# -- symmetry and conserved quantity correspondence ------------------------


def _monomials(
    gens: Sequence[GeneratorSymbol], max_degree: int, parity: Parity
) -> list[SuperExpr]:
    """All monomials of bounded total degree and fixed parity, in a
    deterministic order; the constant monomial is included for even
    parity."""
    evens = [g for g in gens if g.parity is Parity.EVEN]
    odds = [g for g in gens if g.parity is Parity.ODD]
    out: list[SuperExpr] = []
    for subset_size in range(len(odds) + 1):
        if subset_size > max_degree or subset_size % 2 != parity.value:
            continue
        for subset in itertools.combinations(odds, subset_size):
            budget = max_degree - subset_size
            for exponents in _exponent_vectors(len(evens), budget):
                factors = [g for g, e in zip(evens, exponents) for _ in range(e)]
                factors.extend(subset)
                out.append(normalize([(1, factors)]))
    return out


def _exponent_vectors(count: int, budget: int):
    if count == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in _exponent_vectors(count - 1, budget - head):
            yield (head,) + tail


def _solve_rational(columns: Sequence[SuperExpr], target: SuperExpr) -> list[Fraction] | None:
    """Find rational coefficients with sum(c_i * columns_i) = target, or
    None when inconsistent.  Free coefficients are set to zero.

    Sparse Gauss-Jordan over integers: one equation per term key, held as
    a ``{column: int}`` row of the columns' numerators with the target's
    in column ``len(columns)``.  Reading each column over its own
    denominator d_c (and the target over d_t) scales the columns and
    keeps the pivot columns; the answer, ``t*d_c / (lead*d_t)`` per pivot
    row, is scaled back at the end.  Each row is reduced by the pivot
    rows found so far (``a*row - f*pivot`` over ``gcd(a, f)``); its first
    remaining column becomes a new pivot, cleared from the earlier pivot
    rows that hold it, which an index from each column to those rows
    finds without a scan of every pivot row.  Every pivot row is kept
    primitive with a positive lead, so the entries stay as small as the
    reduced row-echelon form allows; no ``Fraction`` is built before the
    answer.  The reduced row-echelon form is unique, so the answer does
    not depend on the order of the rows, and the term dicts are read
    unsorted.
    """
    width = len(columns)
    equations: dict = {}
    dens = []
    for c, col in enumerate([*columns, target]):
        nums, den = col.numerators()
        dens.append(den)
        for key, n in nums.items():
            equations.setdefault(key, {})[c] = n
    pivots: dict[int, dict[int, int]] = {}
    # for each column that is no pivot, the leads of the pivot rows that
    # hold it
    holders: dict[int, set[int]] = {}
    for row in equations.values():
        for col in [c for c in row if c in pivots]:
            row = _eliminate(row, pivots[col], col)
        if not row:
            continue
        lead = min(row)
        if lead == width:
            return None
        row = _primitive(row, lead)
        for col in holders.pop(lead, ()):
            other = pivots[col] = _primitive(_eliminate(pivots[col], row, lead), col)
            # the update changes ``other`` only in the columns of ``row``
            for c in row:
                if c in other:
                    holders.setdefault(c, set()).add(col)
                elif c != lead:
                    holders[c].discard(col)
        for c in row:
            if c != lead:
                holders.setdefault(c, set()).add(lead)
        pivots[lead] = row
    solution = [Fraction(0)] * width
    for col, row in pivots.items():
        if width in row:
            solution[col] = Fraction(row[width] * dens[col], row[col] * dens[width])
    return solution


def _eliminate(row: dict[int, int], pivot: Mapping[int, int], col: int) -> dict[int, int]:
    """Clear ``col`` from ``row`` with an integer pivot row: ``a*row -
    f*pivot`` over ``gcd(a, f)``, a and f the two rows' entries at
    ``col``.  The row is changed in place when a divides f."""
    a, f = pivot[col], row[col]
    g = math.gcd(a, f)
    if g != a:
        row = {c: v * (a // g) for c, v in row.items()}
    f //= g
    for c, v in pivot.items():
        acc = row.get(c, 0) - f * v
        if acc:
            row[c] = acc
        else:
            del row[c]
    return row


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """``row`` divided by the gcd of its entries, signed so that the
    entry at ``lead`` is positive."""
    g = math.gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g == 1:
        return row
    return {c: v // g for c, v in row.items()}


def conservation_witness(
    g_expr: SuperExpr,
    lag: SuperLagrangian,
    data: CartanData | None = None,
) -> VectorFieldAlong:
    """Find a field along the projection to the base whose interior
    product with the variational form reproduces the total derivative of
    the quantity (with a minus sign).  Components are sought as
    polynomials of growing degree, from the first degree a witness can
    have up to deg G + 2k; raises NoWitness when that bound is exhausted.

    A witness makes the quantity constant on shell.  So once the search
    reaches the quantity's own degree without a witness, a regular system
    checks that along its dynamics, and a quantity that is not constant
    raises NoWitness at once: no degree would give a witness."""
    data = data or cartan_data(lag)
    chart = lag.chart
    k = lag.order
    if g_expr.is_zero():
        return VectorFieldAlong(chart, 0, 2 * k - 1, {}, Parity.EVEN)
    chart.at_order(2 * k - 1).validate(g_expr)
    g_parity = parity_of(g_expr)
    target = expr_total_derivative(g_expr)
    delta_check = data.delta_check
    g_degree = g_expr.total_degree()
    cap = g_degree + 2 * k

    ambient = chart.at_order(2 * k - 1).coordinates()
    scaled: list[tuple[GeneratorSymbol, SuperExpr, Parity]] = []
    for base in chart.at_order(0).coordinates():
        component = delta_check.component(base)
        if component.is_zero():
            continue
        scaled.append((base, -koszul(component, g_parity.value), parity_product(base.parity, g_parity)))
    # every degree's columns include the lower degrees' ones, each computed
    # once per call
    products: dict[tuple[GeneratorSymbol, SuperExpr], SuperExpr] = {}
    # T(G) = -sum_a koszul(F_a)*W_a, so deg T(G) <= deg W + max_a deg F_a:
    # no witness has a lower degree than the first one searched
    first = max(0, target.total_degree() - max((f.total_degree() for _, f, _ in scaled), default=0))
    for degree in range(first, cap + 1):
        if (
            degree == g_degree
            and data.regularity.verdict is Regularity.REGULAR
            and not check_constant_of_motion(g_expr, data.dynamics)
        ):
            raise NoWitness(
                "no witness field of any degree: the quantity is not constant "
                "along the dynamics"
            )
        monomials = {p: _monomials(ambient, degree, p) for p in {p for _, _, p in scaled}}
        width = sum(len(monomials[p]) for _, _, p in scaled)
        if width > _MAX_WITNESS_COLUMNS and data.regularity.verdict is not Regularity.REGULAR:
            raise NoWitness(
                f"no witness field with polynomial components of degree <= {degree - 1}; degree "
                f"{degree} needs {width} columns, over the budget of {_MAX_WITNESS_COLUMNS} on a "
                "system that is not regular"
            )
        columns: list[SuperExpr] = []
        labels: list[tuple[GeneratorSymbol, SuperExpr]] = []
        for base, column_factor, comp_parity in scaled:
            for mono in monomials[comp_parity]:
                label = (base, mono)
                if label not in products:
                    products[label] = times_term(column_factor, mono)
                columns.append(products[label])
                labels.append(label)
        solution = _solve_rational(columns, target)
        if solution is None:
            continue
        parts: dict[GeneratorSymbol, list[tuple[int, SuperExpr, SuperExpr]]] = {}
        for (base, mono), coeff in zip(labels, solution):
            if coeff:
                parts.setdefault(base, []).append((1, SuperExpr.constant(coeff), mono))
        components = {base: sum_of_products(terms) for base, terms in parts.items()}
        witness = VectorFieldAlong(chart, 0, 2 * k - 1, components, g_parity)
        if target + interior(witness, data.delta).coefficient(()) != SuperExpr.zero():
            raise LagrangianError("witness verification failed")
        return witness
    raise NoWitness(
        f"no witness field with polynomial components of degree <= {cap}"
    )


def _homotopy(target: SuperExpr) -> tuple[dict[GeneratorSymbol, SuperExpr], SuperExpr]:
    """One ``_sweep`` per base coordinate of the target, all reading one
    ``partials`` of it: the variational derivative of each, and the F with
    T(F) = target and zero constant term when the target is exact, by the
    one-dimensional homotopy operator (Olver, Applications of Lie Groups
    to Differential Equations, GTM 107, section 5.4).

    With f_d the part of the target of total degree d (odd factors count
    once) and u_a^(i) the coordinates,

        F_d = (1/d) sum_a sum_(i>=1) sum_(j<i) u_a^(j) (-T)^(i-j-1) df_d/du_a^(i)

    with left partials and u_a^(j) multiplied on the left; T is even, so
    the integration by parts adds no sign.  The inner sums are the sweep's
    homotopy parts, and since the sum over a and i keeps the degree of
    each term, the 1/d is applied term by term to the whole sum
    (``divide_by_degree``).  F is meaningful only when every variational
    derivative and the constant term of the target vanish; nothing here
    checks that."""
    derivatives: dict[GeneratorSymbol, SuperExpr] = {}
    parts = []
    derivs = partials(target)
    for base in sorted({g.shifted(-g.jet_order) for g in derivs}, key=lambda g: g.sort_key):
        derivatives[base], part = _sweep(derivs, base)
        parts += part
    return derivatives, divide_by_degree(sum_of_products(parts))


def check_symmetry(
    x_field: VectorFieldAlong, lag: SuperLagrangian
) -> SuperExpr:
    """Decide whether the k-th lift of the field changes the Lagrangian by
    a total time derivative; return the generating function F (normalised
    to zero constant term) or raise NotSymmetry with the nonvanishing
    variational derivatives as certificate.

    The rate X^(k)(L) is a total derivative exactly when its variational
    derivatives and its constant term vanish.  One top-down sweep per base
    coordinate of the rate (``_homotopy``, Olver GTM 107 section 5.4) gives
    both the certificate and F,

        F = sum_d (1/d) sum_a sum_(i>=1) sum_(j<i) u_a^(j) (-T)^(i-j-1) d(rate_d)/du_a^(i),

    rate_d the part of total degree d, without solving any linear
    system, and T(F) == rate is checked exactly."""
    k = lag.order
    if x_field.source_order != 0 or x_field.target_order != 2 * k - 1:
        raise OrderExceeded("symmetry candidates are fields along the projection to the base")
    rate = lift_vector_field(x_field, k).apply(lag.expr)
    derivatives, generating = _homotopy(rate)
    certificate = {base.name: vd for base, vd in derivatives.items() if not vd.is_zero()}
    constant = rate.constant_term()
    if constant:
        certificate["1"] = SuperExpr.constant(constant)
    if certificate:
        raise NotSymmetry(certificate)
    if expr_total_derivative(generating) != rate:
        raise LagrangianError("generating function verification failed")
    return generating


def noether_charge(
    x_field: VectorFieldAlong,
    generating: SuperExpr,
    lag: SuperLagrangian,
    data: CartanData | None = None,
    verify: bool = True,
) -> SuperExpr:
    """The conserved quantity attached to a symmetry: the interior product
    of the (k-1)-th lift with the momentum form, minus the generating
    function.  The result must only involve coordinates up to order 2k-1;
    for a regular Lagrangian it is checked to be constant along the
    dynamics."""
    data = data or cartan_data(lag)
    k = lag.order
    charge = interior(lift_vector_field(x_field, k - 1), data.theta).coefficient(()) - generating
    if charge.max_jet_order() > 2 * k - 1:
        raise NotProjectable(
            f"charge involves jet order {charge.max_jet_order()}, above {2 * k - 1}"
        )
    regular = data.regularity.verdict is Regularity.REGULAR
    if verify and regular and not check_constant_of_motion(charge, data.dynamics):
        raise LagrangianError("charge verification failed: not constant along the dynamics")
    return charge


@dataclass(frozen=True)
class NoetherCertificate:
    """A symmetry together with its generating function and charge.

    ``x_field`` raises the Lagrangian by the total derivative of
    ``generating`` under the top-order lift, and ``charge`` is constant
    along the dynamics.
    """

    x_field: VectorFieldAlong
    generating: SuperExpr
    charge: SuperExpr


def certify_symmetry(
    x_field: VectorFieldAlong,
    lag: SuperLagrangian,
    data: CartanData | None = None,
) -> NoetherCertificate:
    """Check the candidate field and bundle it with its generating
    function and conserved charge, checked constant along the dynamics
    when the system is regular; raises NotSymmetry when the field is not a
    symmetry."""
    data = data or cartan_data(lag)
    generating = check_symmetry(x_field, lag)
    charge = noether_charge(x_field, generating, lag, data)
    return NoetherCertificate(x_field, generating, charge)


def noether_inverse(
    g_expr: SuperExpr,
    lag: SuperLagrangian,
    data: CartanData | None = None,
) -> tuple[VectorFieldAlong, SuperExpr]:
    """Recover a symmetry from a conserved quantity.

    The witness field for the quantity is itself the symmetry.  Its k-th
    lift gives both the generating function, its interior product with the
    momentum form minus the quantity, and the rate X^(k)(L), so the
    defining identity X^(k)(L) = T(F) is re-verified exactly."""
    data = data or cartan_data(lag)
    witness = conservation_witness(g_expr, lag, data)
    lifted = lift_vector_field(witness, lag.order)
    generating = interior(lifted, data.theta).coefficient(()) - g_expr
    if lifted.apply(lag.expr) != expr_total_derivative(generating):
        raise LagrangianError("recovered symmetry failed the defining identity")
    return witness, generating
