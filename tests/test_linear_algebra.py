"""The exact linear-algebra kernels against their references: the
determinant and adjugate (integer Bareiss elimination on a constant
matrix, Faddeev-LeVerrier on a polynomial one) against Laplace expansion
and sympy; the sparse rational elimination against dense Gauss-Jordan;
and the affine split that reads a field equation as a row of a linear
system."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from supermech import Chart, SingularSystem, SuperExpr, normalize
from supermech.lagrangian import _affine_split, _det_adjugate, _solve_rational

from helpers import dense_solve_rational, laplace_adjugate, laplace_det, random_expr

CHART = Chart.create(["x", "y"], ["th"], 1)
EVENS = CHART.at_order(0).coordinates()[:2]
# a pool of term keys for the rational systems, odd words included
MONOMIALS = [
    normalize([(1, factors)])
    for factors in [
        [], [EVENS[0]], [EVENS[1]], [EVENS[0], EVENS[0]], [EVENS[0], EVENS[1]],
        [CHART.gen("th", 0)], [EVENS[1], CHART.gen("th", 0)],
    ]
]

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def even_polynomials(draw):
    """Zero, a constant, or up to three terms in x[0] and y[0] of degree at
    most two."""
    terms = draw(st.lists(
        st.tuples(small, st.lists(st.sampled_from(EVENS), max_size=2)), max_size=3
    ))
    return normalize(terms)


@st.composite
def matrices(draw, entries):
    """A square matrix of size 0..5; sometimes one row is made a
    combination of two others, so singular matrices are drawn often."""
    n = draw(st.integers(0, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        target = draw(st.integers(0, n - 1))
        a, b = draw(small), draw(small)
        rows[target] = [a * p + b * q for p, q in zip(rows[i], rows[j])]
    return rows


constant_matrices = matrices(small.map(SuperExpr.constant))
polynomial_matrices = matrices(even_polynomials())


def mat_mul(a, b):
    return [[SuperExpr.sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@settings(max_examples=60)
@given(st.one_of(constant_matrices, polynomial_matrices))
def test_det_adjugate_matches_laplace(matrix):
    # a singular matrix leaves a column with no pivot, so it has no adjugate
    det, adjugate = _det_adjugate(matrix)
    assert det == laplace_det(matrix)
    if det.is_zero():
        assert adjugate is None
    else:
        assert adjugate == laplace_adjugate(matrix)


@settings(max_examples=40)
@given(st.one_of(constant_matrices, polynomial_matrices))
def test_adjugate_inverts_up_to_the_determinant(matrix):
    det, adjugate = _det_adjugate(matrix)
    if det.is_zero():
        return
    n = len(matrix)
    scaled_identity = [[det if i == j else SuperExpr.zero() for j in range(n)] for i in range(n)]
    assert mat_mul(matrix, adjugate) == scaled_identity
    assert mat_mul(adjugate, matrix) == scaled_identity


def rational_matrix(rng, n, leading_zeros=0):
    """A dense n x n matrix of nonzero rationals with ``leading_zeros``
    zeros at the start of row 0."""
    rows = [
        [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)) for _ in range(n)]
        for _ in range(n)
    ]
    rows[0][:leading_zeros] = [Fraction(0)] * leading_zeros
    return rows


@pytest.mark.parametrize(
    "n, leading_zeros",
    [(6, 0), (7, 0), (8, 0), (9, 0), (7, 1), (8, 2)],
    ids=["6", "7", "8", "9", "7-one-swap", "8-two-swaps"],
)
def test_constant_det_adjugate_matches_sympy(n, leading_zeros):
    # a zero in row 0, column 0 makes the first step swap rows 0 and 1; a
    # second zero in row 0, column 1 makes the second step swap again, so
    # both parities of the row-swap sign are checked
    values = rational_matrix(random.Random(n), n, leading_zeros)
    det, adjugate = _det_adjugate([[SuperExpr.constant(v) for v in row] for row in values])
    reference = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in values])
    assert det == SuperExpr.constant(Fraction(str(reference.det())))
    assert adjugate == [[SuperExpr.constant(Fraction(str(e))) for e in row] for row in reference.adjugate().tolist()]


def test_constant_det_adjugate_runs_on_integers(monkeypatch):
    # the constant path scales to integer rows and makes no product of
    # expressions; a 12 x 12 matrix would take 12^4 of them otherwise
    calls = []
    real = SuperExpr.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    values = rational_matrix(random.Random(12), 12)
    matrix = [[SuperExpr.constant(v) for v in row] for row in values]
    monkeypatch.setattr(SuperExpr, "__mul__", counted)
    det, adjugate = _det_adjugate(matrix)
    assert not calls
    assert not det.is_zero() and len(adjugate) == 12


def mass_body(n, seed):
    """The body of a mass matrix with one position-dependent mass per row:
    ``c_i + x_(i+1)^2`` on the diagonal, the index taken mod n, and
    symmetric rational couplings off it; the same matrix over sympy
    symbols."""
    rng = random.Random(seed)
    chart = Chart.create([f"x{i}" for i in range(n)], [], 1)
    xs = [chart.coord(f"x{i}", 0) for i in range(n)]
    symbols = sympy.symbols(f"x0:{n}")
    body = [[None] * n for _ in range(n)]
    reference = sympy.zeros(n, n)
    for i in range(n):
        c = rng.randint(1, 5)
        body[i][i] = c + xs[(i + 1) % n] ** 2
        reference[i, i] = c + symbols[(i + 1) % n] ** 2
        for j in range(i + 1, n):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            body[i][j] = body[j][i] = SuperExpr.constant(c)
            reference[i, j] = reference[j, i] = sympy.Rational(c.numerator, c.denominator)
    return body, reference, dict(zip(chart.at_order(0).coordinates(), symbols))


def to_sympy(expr, symbols):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(symbols[g] ** e for g, e in even))
        for (even, _), c in expr.items()
    ))


@pytest.mark.parametrize(
    "n, singular", [(4, False), (5, False), (6, False), (3, True)], ids=["4", "5", "6", "3-singular"]
)
def test_polynomial_det_adjugate_matches_sympy(n, singular):
    body, reference, symbols = mass_body(n, n)
    if singular:
        # the last row becomes x0 times the first plus the second
        x0, s0 = next(iter(symbols.items()))
        body[-1] = [SuperExpr.generator(x0) * a + b for a, b in zip(body[0], body[1])]
        reference[n - 1, :] = s0 * reference[0, :] + reference[1, :]
    det, adjugate = _det_adjugate(body)
    assert sympy.expand(to_sympy(det, symbols) - reference.det(method="berkowitz")) == 0
    if singular:
        assert det.is_zero() and adjugate is None
        return
    expected = reference.adjugate(method="berkowitz")
    for i in range(n):
        for j in range(n):
            assert sympy.expand(to_sympy(adjugate[i][j], symbols) - expected[i, j]) == 0


def test_polynomial_det_adjugate_divides_only_by_one_to_n(monkeypatch):
    # Faddeev-LeVerrier's one division per step, c_k = -tr(A M_k) / k: no
    # division by an expression, as polynomial elimination would need
    divisors = []
    real = SuperExpr.__truediv__

    def counted(self, other):
        divisors.append(other)
        return real(self, other)

    body, _, _ = mass_body(5, 5)
    monkeypatch.setattr(SuperExpr, "__truediv__", counted)
    det, adjugate = _det_adjugate(body)
    assert divisors == [1, 2, 3, 4, 5] and all(type(d) is int for d in divisors)
    assert not det.is_zero() and len(adjugate) == 5


# pairwise coprime column denominators, and one for the target that no
# column shares
DENOMINATORS = (7, 11, 13, 23)
TARGET_DENOMINATOR = 17
# numerators of about 30 digits, either sign
big = st.tuples(st.integers(10**29, 10**30), st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


@st.composite
def rational_systems(draw):
    """Columns and a target over a small pool of term keys.  Repeated and
    combined columns make rank-deficient systems, and a target with a
    term outside the columns' span an inconsistent one.

    Half the systems have small coefficients.  In the other half each
    column lies over its own denominator from ``DENOMINATORS`` with
    numerators of about 30 digits, the target lies over
    ``TARGET_DENOMINATOR``, and each term key carries a factor of either
    sign that its whole row shares, so rows have a common content and
    often a negative lead."""
    wide = draw(st.booleans())
    content = [draw(st.sampled_from((1, -1, 6, -30, 10**6))) if wide else 1 for _ in MONOMIALS]

    def combination(den):
        coefficient = big.map(lambda n: Fraction(n, den)) if wide else small
        picks = draw(st.lists(
            st.tuples(coefficient, st.integers(0, len(MONOMIALS) - 1)), max_size=4
        ))
        return SuperExpr.sum(c * content[i] * MONOMIALS[i] for c, i in picks)

    dens = [draw(st.sampled_from(DENOMINATORS)) for _ in range(draw(st.integers(0, 6)))]
    columns = [combination(den) for den in dens]
    if len(columns) >= 2 and draw(st.booleans()):
        factor = st.integers(-3, 3) if wide else small
        a, b = draw(factor), draw(factor)
        columns.append(a * columns[0] + b * columns[1])
        dens.append(dens[0] * dens[1])
    if columns and draw(st.booleans()):
        # a target in the span of the columns; a wide one keeps the
        # target denominator alone
        if wide:
            weights = [Fraction(draw(big) * den, TARGET_DENOMINATOR) for den in dens]
        else:
            weights = [draw(small) for _ in columns]
        target = SuperExpr.sum(w * col for w, col in zip(weights, columns))
    else:
        target = combination(TARGET_DENOMINATOR)
    return columns, target


@settings(max_examples=200)
@given(rational_systems())
def test_sparse_elimination_matches_dense(system):
    columns, target = system
    solution = _solve_rational(columns, target)
    assert solution == dense_solve_rational(columns, target)
    if solution is not None:
        assert SuperExpr.sum(c * col for c, col in zip(solution, columns)) == target


def test_sparse_elimination_reports_inconsistency():
    x = MONOMIALS[1]
    assert _solve_rational([x], MONOMIALS[2]) is None
    assert _solve_rational([x, 2 * x], 3 * x) == [Fraction(3), Fraction(0)]
    assert _solve_rational([], SuperExpr.zero()) == []


# -- the affine split --------------------------------------------------------

SPLIT_CHART = Chart.create(["q", "r"], ["th", "ps"], 2)
UNKNOWNS = {SPLIT_CHART.gen("q", 2), SPLIT_CHART.gen("th", 2), SPLIT_CHART.gen("ps", 2)}


def test_affine_split_round_trips():
    # each unknown sits between two random factors free of the unknowns,
    # so odd unknowns land in the middle of odd words
    rng = random.Random(417)
    for _ in range(60):
        expr = random_expr(rng, SPLIT_CHART, 1, 3, 3)
        for u in sorted(UNKNOWNS, key=lambda g: g.sort_key):
            for _ in range(rng.randint(0, 2)):
                left = random_expr(rng, SPLIT_CHART, 1, 2, 2)
                right = random_expr(rng, SPLIT_CHART, 1, 2, 2)
                expr = expr + left * SuperExpr.generator(u) * right
        rest, coeffs = _affine_split(expr, UNKNOWNS)
        rebuilt = rest + SuperExpr.sum(c * SuperExpr.generator(u) for u, c in coeffs.items())
        assert rebuilt == expr
        for part in (rest, *coeffs.values()):
            assert not part.generators() & UNKNOWNS


@pytest.mark.parametrize("pair", [("q", "q"), ("q", "th"), ("th", "ps")])
def test_affine_split_rejects_nonlinear_terms(pair):
    # u^2 and u*v for even and odd unknowns
    a, b = (SPLIT_CHART.coord(name, 2) for name in pair)
    expr = SPLIT_CHART.coord("r", 0) + a * b
    with pytest.raises(SingularSystem):
        _affine_split(expr, UNKNOWNS)
