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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .algebra import (
    GeneratorSymbol,
    Parity,
    SuperExpr,
    has_parity,
    koszul,
    left_partial,
    normalize,
    parity_of,
    parity_product,
    substitute,
)
from .forms import (
    CheckForm,
    GradedForm,
    cartan_operator,
    exterior_d,
    interior,
    pair,
    semibasic_check,
    total_derivative as form_total_derivative,
)
from .jets import (
    Chart,
    OrderExceeded,
    VectorFieldAlong,
    iterated_total_derivative,
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
    """The alternating-sign combination of shifted partials that vanishes
    exactly on total time derivatives."""
    if base_gen.jet_order != 0:
        raise ValueError("variational derivatives are taken per base coordinate")
    return SuperExpr.sum(
        (-1) ** j * iterated_total_derivative(left_partial(expr, base_gen.shifted(j)), j)
        for j in range(expr.max_jet_order() + 1)
    )


# -- Cartan package --------------------------------------------------------


def _momentum(lag: SuperLagrangian, dl: GradedForm) -> tuple[GradedForm, CheckForm]:
    """The momentum one-form on T^(2k-1), from ``dl`` the exterior
    derivative of the Lagrangian, and its components, certified semibasic
    at level k-1."""
    theta = cartan_operator(dl, lag.order)
    return theta, semibasic_check(theta, lag.order - 1)


def cartan_one_form(lag: SuperLagrangian) -> GradedForm:
    """The momentum one-form on T^(2k-1); semibasic at level k-1."""
    return _momentum(lag, exterior_d(lag.expr))[0]


@dataclass(frozen=True)
class CartanData:
    """The derived geometry of one Lagrangian, each piece computed once.

    ``energy`` pairs the momentum components against the total-derivative
    field and subtracts the Lagrangian; ``delta`` is the variational
    one-form on T^(2k), dL minus the total derivative of the momentum
    form, whose components (``delta_check``) are the graded field
    equations.  The solve plan with its regularity report, and the solved
    dynamics, are computed on first use and kept.
    """

    lagrangian: SuperLagrangian
    theta: GradedForm
    theta_check: CheckForm
    omega: GradedForm
    energy: SuperExpr
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
    and the variational form from it.  The alternative route to the
    variational form, through the two-form and the energy, must agree and
    is checked here."""
    k = lag.order
    chart = lag.chart
    dl = exterior_d(lag.expr)
    theta, theta_check = _momentum(lag, dl)
    omega = -exterior_d(theta)
    energy = pair(total_derivative_field(chart, k - 1), theta_check) - lag.expr
    delta = dl - form_total_derivative(theta)
    delta_check = semibasic_check(delta, 0)
    chain = interior(total_derivative_field(chart, 2 * k - 1), omega) - exterior_d(energy)
    if chain != delta:
        raise LagrangianError("internal identity failure relating the variational form to the two-form")
    return CartanData(lag, theta, theta_check, omega, energy, delta, delta_check)


# -- linear algebra over the superalgebra ----------------------------------


def _body(expr: SuperExpr) -> SuperExpr:
    """Strip every term containing an odd generator."""
    return SuperExpr({key: c for key, c in expr.items() if not key[1]})


def _det_adjugate(matrix: Sequence[Sequence[SuperExpr]]) -> tuple[SuperExpr, list[list[SuperExpr]]]:
    """Determinant and adjugate of a matrix with commuting (even) entries
    by the Faddeev-LeVerrier recurrence: n matrix products and divisions
    by the integers 1..n only.

    With ``M_0 = 0`` and ``c_0 = 1``, step k sets ``M_k = A M_(k-1) +
    c_(k-1) I`` and ``c_k = -tr(A M_k) / k``; then ``det A = (-1)^n c_n``
    and ``adj A = (-1)^(n+1) M_n``.
    """
    n = len(matrix)
    product = [[SuperExpr.zero()] * n for _ in range(n)]
    coefficient = SuperExpr.constant(1)
    m: list[list[SuperExpr]] = []
    for k in range(1, n + 1):
        m = [
            [e + coefficient if i == j else e for j, e in enumerate(row)]
            for i, row in enumerate(product)
        ]
        product = _mat_mul(matrix, m)
        coefficient = -SuperExpr.sum(product[i][i] for i in range(n)) / k
    if n % 2:
        return -coefficient, m
    return coefficient, [[-e for e in row] for row in m]


def _mat_mul(a: Sequence[Sequence[SuperExpr]], b: Sequence[Sequence[SuperExpr]]) -> list[list[SuperExpr]]:
    return [[SuperExpr.sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _mat_vec(a: Sequence[Sequence[SuperExpr]], v: Sequence[SuperExpr]) -> list[SuperExpr]:
    return [SuperExpr.sum(x * y for x, y in zip(row, v)) for row in a]


# an expression as its part free of the unknowns and the coefficient of each
_Split = tuple[SuperExpr, dict[GeneratorSymbol, SuperExpr]]


def _affine_split(expr: SuperExpr, unknowns: set[GeneratorSymbol]) -> _Split:
    """Write ``expr = rest + sum coeff[u] * u``: the coefficient of each
    unknown is its right partial, the left partial with ``u`` moved back
    past it.  Fails when an unknown is left in a coefficient, that is when
    an unknown appears nonlinearly or two unknowns share a term."""
    coeffs: dict[GeneratorSymbol, SuperExpr] = {}
    for u in sorted(expr.generators() & unknowns, key=lambda g: g.sort_key):
        coeff = koszul(left_partial(expr, u), u.parity.value)
        if coeff.generators() & unknowns:
            raise SingularSystem(
                f"equation is not affine in the unknowns: the coefficient of {u} is {coeff}"
            )
        coeffs[u] = coeff
    rest = expr - SuperExpr.sum(c * SuperExpr.generator(u) for u, c in coeffs.items())
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
        """Substitute the solved constraints until stable."""
        for _ in range(2 * self.lagrangian.order + 2):
            reduced = substitute(expr, dict(self.constraints))
            if reduced == expr:
                return expr
            expr = reduced
        raise SingularSystem("constraint substitution did not stabilise")

    def reduce_form(self, form: GradedForm) -> GradedForm:
        return GradedForm({word: self.reduce(coeff) for word, coeff in form.items()})

    def on_shell(self, expr: SuperExpr) -> SuperExpr:
        """Substitute top-order coordinates by forces, then reduce."""
        for _ in range(2 * self.lagrangian.order + 2):
            replaced = substitute(expr, dict(self.forces))
            replaced = self.reduce(replaced)
            if replaced == expr:
                return expr
            expr = replaced
        raise SingularSystem("on-shell substitution did not stabilise")


@dataclass(frozen=True)
class _Sector:
    """A square block of field equations, each row read as ``rest + sum
    coeffs[u] * u`` over the unknowns, with the determinant and adjugate
    of the body of its coefficient matrix."""

    rows: tuple[_Split, ...] = ()
    unknowns: tuple[GeneratorSymbol, ...] = ()
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


def _matrix(rows: Sequence[_Split], unknowns: Sequence[GeneratorSymbol]) -> list[list[SuperExpr]]:
    return [[coeffs.get(u, SuperExpr.zero()) for u in unknowns] for _, coeffs in rows]


def _sector(rows: Sequence[_Split], unknowns: Sequence[GeneratorSymbol]) -> _Sector:
    body = [[_body(e) for e in row] for row in _matrix(rows, unknowns)]
    det, adjugate = _det_adjugate(body)
    return _Sector(tuple(rows), tuple(unknowns), det, tuple(adjugate))


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
    series and stops when ``u`` does; the result is verified exactly and
    each value must have its unknown's parity."""
    det = sector.det
    if det.is_zero() or det.max_jet_order() >= 0:
        raise SingularSystem(f"leading matrix has non-invertible body determinant {det}")
    matrix = _matrix(sector.rows, sector.unknowns)
    rhs = [-rest for rest, _ in sector.rows]
    inv_body = [[e / det.constant_term() for e in row] for row in sector.adjugate]
    soul = [[e - _body(e) for e in row] for row in matrix]
    u = _mat_vec(inv_body, rhs)
    for _ in range(nilpotency_cap + 1):
        following = _mat_vec(inv_body, [r - x for r, x in zip(rhs, _mat_vec(soul, u))])
        if following == u:
            break
        u = following
    else:
        raise SingularSystem("nilpotent correction failed to terminate")
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

    residual = interior(gamma, data.omega) - exterior_d(data.energy)
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

    Sparse Gauss-Jordan: one equation per term key, held as a
    ``{column: Fraction}`` row with the target in column ``len(columns)``.
    Each row is reduced by the pivot rows found so far; its first
    remaining column becomes a new pivot, cleared from the earlier pivot
    rows.  The pivot rows end as the unique reduced row-echelon form, so
    the answer does not depend on the order of the rows, and the term
    dicts are read unsorted.
    """
    width = len(columns)
    equations: dict = {}
    for c, col in enumerate([*columns, target]):
        for key, coeff in col._terms.items():
            equations.setdefault(key, {})[c] = coeff
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in equations.values():
        for col in [c for c in row if c in pivots]:
            _eliminate(row, pivots[col], col)
        lead = min(row, default=width)
        if lead == width:
            if row:
                return None
            continue
        scale = row[lead]
        row = {c: v / scale for c, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _eliminate(other, row, lead)
        pivots[lead] = row
    solution = [Fraction(0)] * width
    for col, row in pivots.items():
        solution[col] = row.get(width, Fraction(0))
    return solution


def _eliminate(row: dict[int, Fraction], pivot: Mapping[int, Fraction], col: int) -> None:
    """Clear ``col`` from ``row`` in place with a pivot row that has 1 there."""
    factor = row[col]
    for c, v in pivot.items():
        acc = row.get(c, 0) - factor * v
        if acc:
            row[c] = acc
        else:
            row.pop(c, None)


def conservation_witness(
    g_expr: SuperExpr,
    lag: SuperLagrangian,
    data: CartanData | None = None,
    max_degree: int | None = None,
) -> VectorFieldAlong:
    """Find a field along the projection to the base whose pairing with
    the field-equation components reproduces the total derivative of the
    quantity (with a minus sign).  Components are sought as polynomials of
    growing degree; raises NoWitness when the bound is exhausted.

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
    cap = max_degree if max_degree is not None else g_degree + 2 * k

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
    for degree in range(cap + 1):
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
                    products[label] = column_factor * mono
                columns.append(products[label])
                labels.append(label)
        solution = _solve_rational(columns, target)
        if solution is None:
            continue
        components: dict[GeneratorSymbol, SuperExpr] = {}
        for (base, mono), coeff in zip(labels, solution):
            if coeff:
                components[base] = components.get(base, SuperExpr.zero()) + coeff * mono
        witness = VectorFieldAlong(chart, 0, 2 * k - 1, components, g_parity)
        check = pair(witness, delta_check)
        if target + check != SuperExpr.zero():
            raise LagrangianError("witness verification failed")
        return witness
    raise NoWitness(
        f"no witness field with polynomial components of degree <= {cap}"
    )


def _integrate_total_derivative(target: SuperExpr) -> SuperExpr:
    """Invert the total derivative on an exact jet polynomial by the
    one-dimensional homotopy operator (Olver, Applications of Lie Groups
    to Differential Equations, GTM 107, section 5.4): the F with
    T(F) = target and zero constant term.

    With f_d the part of the target of total degree d (odd factors count
    once) and u_a^(i) the coordinates,

        F_d = (1/d) sum_a sum_(i>=1) sum_(j<i) u_a^(j) (-T)^(i-j-1) df_d/du_a^(i)

    with left partials and u_a^(j) multiplied on the left; T is even, so
    the integration by parts adds no sign.  The inner sums are evaluated
    from the top order down, R_(i-1) = df/du^(i) - T(R_i), and since the
    sum over a and i keeps the degree of each term, the 1/d is applied
    term by term to the whole sum.  The target must be exact with no
    constant term; nothing here checks that."""
    top: dict[GeneratorSymbol, int] = {}
    for gen in target.generators():
        base = gen.shifted(-gen.jet_order)
        top[base] = max(top.get(base, 0), gen.jet_order)
    parts = []
    for base, order in top.items():
        remainder = SuperExpr.zero()
        for i in range(order, 0, -1):
            remainder = left_partial(target, base.shifted(i)) - expr_total_derivative(remainder)
            parts.append(SuperExpr.generator(base.shifted(i - 1)) * remainder)
    homotopy = SuperExpr.sum(parts)
    return SuperExpr({
        (even, odd): coeff / (sum(e for _, e in even) + len(odd))
        for (even, odd), coeff in homotopy._terms.items()
    })


def _rate(x_field: VectorFieldAlong, lag: SuperLagrangian) -> SuperExpr:
    """X^(k)(L): the change of the Lagrangian along the k-th lift of the
    field."""
    return lift_vector_field(x_field, lag.order).apply(lag.expr)


def _momentum_pairing(x_field: VectorFieldAlong, data: CartanData) -> SuperExpr:
    """The (k-1)-th lift of the field paired against the momentum
    components; a charge is this minus the generating function."""
    k = data.lagrangian.order
    return pair(lift_vector_field(x_field, k - 1), data.theta_check)


def check_symmetry(
    x_field: VectorFieldAlong, lag: SuperLagrangian
) -> SuperExpr:
    """Decide whether the k-th lift of the field changes the Lagrangian by
    a total time derivative; return the generating function F (normalised
    to zero constant term) or raise NotSymmetry with the nonvanishing
    variational derivatives as certificate.

    The rate X^(k)(L) is a total derivative exactly when its variational
    derivatives and its constant term vanish; that certificate is checked
    first.  F is then read off by the homotopy operator
    (``_integrate_total_derivative``, Olver GTM 107 section 5.4),

        F = sum_d (1/d) sum_a sum_(i>=1) sum_(j<i) u_a^(j) (-T)^(i-j-1) d(rate_d)/du_a^(i),

    rate_d the part of total degree d, without solving any linear
    system, and T(F) == rate is checked exactly."""
    chart = lag.chart
    k = lag.order
    if x_field.source_order != 0 or x_field.target_order != 2 * k - 1:
        raise OrderExceeded("symmetry candidates are fields along the projection to the base")
    rate = _rate(x_field, lag)
    certificate: dict[str, SuperExpr] = {}
    for base in chart.at_order(0).coordinates():
        vd = variational_derivative(rate, base)
        if not vd.is_zero():
            certificate[base.name] = vd
    constant = rate.constant_term()
    if constant:
        certificate["1"] = SuperExpr.constant(constant)
    if certificate:
        raise NotSymmetry(certificate)
    generating = _integrate_total_derivative(rate)
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
    """The conserved quantity attached to a symmetry: pair the (k-1)-th
    lift against the momentum components and subtract the generating
    function.  The result must only involve coordinates up to order 2k-1;
    for a regular Lagrangian it is checked to be constant along the
    dynamics."""
    data = data or cartan_data(lag)
    k = lag.order
    charge = _momentum_pairing(x_field, data) - generating
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
    verify: bool = True,
) -> NoetherCertificate:
    """Check the candidate field and bundle it with its generating
    function and conserved charge; raises NotSymmetry otherwise."""
    data = data or cartan_data(lag)
    generating = check_symmetry(x_field, lag)
    charge = noether_charge(x_field, generating, lag, data, verify=verify)
    return NoetherCertificate(x_field, generating, charge)


def noether_inverse(
    g_expr: SuperExpr,
    lag: SuperLagrangian,
    data: CartanData | None = None,
    max_degree: int | None = None,
) -> tuple[VectorFieldAlong, SuperExpr]:
    """Recover a symmetry from a conserved quantity.

    The witness field for the quantity is itself the symmetry; its
    generating function is the momentum pairing minus the quantity.  The
    defining identity of the symmetry is re-verified exactly."""
    data = data or cartan_data(lag)
    witness = conservation_witness(g_expr, lag, data, max_degree)
    generating = _momentum_pairing(witness, data) - g_expr
    if _rate(witness, lag) != expr_total_derivative(generating):
        raise LagrangianError("recovered symmetry failed the defining identity")
    return witness, generating
