"""Shared test utilities.

Nine kinds of helpers live here: seeded random generators for
expressions, forms, and fields; a small independent polynomial calculator
for the one-even-coordinate case; a reference product and even partial
that spell each term out as a list of factors; a reference reader of
coordinate expressions that applies each operator to ``SuperExpr``
operands as it reads it; the ring operations on plain ``Fraction``
dictionaries, one coefficient per term; a reference variational
derivative and on-shell substitution written as the textbook sum and the
nested loop the package's single passes replace; a reference Grassmann
product, evaluator and Runge-Kutta stepper for the numeric
layer; reference exact linear algebra; and reference printers of
expressions, forms and LaTeX.  The calculator represents
polynomials as plain exponent-tuple dictionaries and knows nothing about
the package internals, so momenta and field equations computed with it
are a second opinion, not an echo.  The factor-list references hand every
term to ``normalize``, so they do not use the merges of canonical words
and monomials that the package's product runs on.  The ``Fraction``
dictionary references sort odd words by counting inversions and build no
``SuperExpr``, so they check the package's integer numerators over shared
denominators from outside.  The numeric references loop over
coefficients one pair at a time instead of using the package's pairing
of subsets.  The linear-algebra references are Laplace expansion and dense
Gauss-Jordan elimination, the textbook routines the package's kernels
replace.  The reference printers write each term from its ``items()``
``Fraction`` and decoded key, not from the package's cached monomial
texts and integer coefficients.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import numpy as np

from supermech import (
    Chart,
    GradedForm,
    GrassmannValue,
    Parity,
    SuperExpr,
    VectorFieldAlong,
    iterated_total_derivative,
    left_partial,
    normalize,
    parity_of,
    parity_product,
    substitute,
)
from supermech.algebra import grassmann_coefficients, koszul, scaled, signed_sum
from supermech.cli import latex_name

# -- independent reference: one even coordinate q[0..n] --------------------
# A polynomial is a dict mapping exponent tuples to Fraction coefficients;
# entry (e0, e1, ...) stands for q[0]^e0 * q[1]^e1 * ...  Keys carry no
# trailing zeros so equal polynomials have equal dicts.

Poly = dict


def _trim(exps):
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for exps, coeff in b.items():
        total = out.get(exps, Fraction(0)) + coeff
        if total:
            out[exps] = total
        else:
            out.pop(exps, None)
    return out


def poly_scale(a: Poly, factor) -> Poly:
    factor = Fraction(factor)
    if not factor:
        return {}
    return {exps: coeff * factor for exps, coeff in a.items()}


def poly_partial(a: Poly, j: int) -> Poly:
    out: Poly = {}
    for exps, coeff in a.items():
        if j >= len(exps) or exps[j] == 0:
            continue
        new = list(exps)
        new[j] -= 1
        key = _trim(new)
        total = out.get(key, Fraction(0)) + coeff * exps[j]
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def poly_total_derivative(a: Poly) -> Poly:
    out: Poly = {}
    for exps, coeff in a.items():
        for j, e in enumerate(exps):
            if e == 0:
                continue
            new = list(exps) + [0] * max(0, j + 2 - len(exps))
            new[j] -= 1
            new[j + 1] += 1
            key = _trim(new)
            total = out.get(key, Fraction(0)) + coeff * e
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


def poly_iterated_total(a: Poly, times: int) -> Poly:
    for _ in range(times):
        a = poly_total_derivative(a)
    return a


def classical_momentum(lagrangian: Poly, k: int, i: int) -> Poly:
    """The i-th Jacobi-Ostrogradski momentum of a one-coordinate order-k
    Lagrangian: sum over l of (-T)^l applied to dL/dq[i+1+l]."""
    out: Poly = {}
    for l in range(k - i):
        piece = poly_iterated_total(poly_partial(lagrangian, i + 1 + l), l)
        out = poly_add(out, poly_scale(piece, (-1) ** l))
    return out


def classical_field_equation(lagrangian: Poly, k: int) -> Poly:
    """sum over j of (-T)^j applied to dL/dq[j]."""
    out: Poly = {}
    for j in range(k + 1):
        piece = poly_iterated_total(poly_partial(lagrangian, j), j)
        out = poly_add(out, poly_scale(piece, (-1) ** j))
    return out


def poly_to_expr(a: Poly, chart: Chart) -> SuperExpr:
    out = SuperExpr.zero()
    name = chart.base_names()[0]
    for exps, coeff in a.items():
        term = SuperExpr.constant(coeff)
        for j, e in enumerate(exps):
            if e:
                term = term * chart.coord(name, j) ** e
        out = out + term
    return out


def random_poly(rng: random.Random, top: int, max_degree: int, terms: int) -> Poly:
    """A random nonzero polynomial in q[0..top] with small exact
    coefficients."""
    while True:
        out: Poly = {}
        for _ in range(terms):
            degree = rng.randint(1, max_degree)
            exps = [0] * (top + 1)
            for _ in range(degree):
                exps[rng.randrange(top + 1)] += 1
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            out = poly_add(out, {_trim(exps): coeff})
        out.pop((), None)
        if out:
            return out


# -- seeded random package objects -----------------------------------------


def random_expr(
    rng: random.Random,
    chart: Chart,
    max_order: int,
    max_degree: int,
    terms: int,
    parity: Parity | None = None,
) -> SuperExpr:
    """A random expression on the order-``max_order`` chart; when a parity
    is requested the other half is dropped (possibly leaving zero)."""
    gens = chart.at_order(max_order).coordinates()
    raw = []
    for _ in range(terms):
        degree = rng.randint(0, max_degree)
        factors = [rng.choice(gens) for _ in range(degree)]
        raw.append((Fraction(rng.randint(-6, 6), rng.randint(1, 3)), factors))
    expr = normalize(raw)
    return expr if parity is None else parity_part(expr, parity)


def parity_part(expr: SuperExpr, parity: Parity) -> SuperExpr:
    """The terms of one parity, from the grade involution k = koszul(e, 1):
    the even part is (e + k)/2 and the odd part (e - k)/2."""
    flipped = koszul(expr, 1)
    return (expr + flipped if parity is Parity.EVEN else expr - flipped) * Fraction(1, 2)


def random_homogeneous(
    rng: random.Random,
    chart: Chart,
    max_order: int,
    max_degree: int,
    terms: int,
    parity: Parity,
    attempts: int = 60,
) -> SuperExpr:
    for _ in range(attempts):
        expr = random_expr(rng, chart, max_order, max_degree, terms, parity)
        if not expr.is_zero():
            return expr
    raise RuntimeError("could not draw a nonzero homogeneous expression")


def random_form(
    rng: random.Random, chart: Chart, max_order: int, words: int, length: int
) -> GradedForm:
    gens = chart.at_order(max_order).coordinates()
    out = GradedForm.zero()
    for _ in range(words):
        word = [rng.choice(gens) for _ in range(length)]
        out = out + GradedForm.term(random_expr(rng, chart, max_order, 2, 2), word)
    return out


def random_homogeneous_form(
    rng: random.Random,
    chart: Chart,
    max_order: int,
    length: int,
    parity: Parity,
    attempts: int = 60,
) -> GradedForm:
    """A single-word form whose coefficient has a definite parity."""
    gens = chart.at_order(max_order).coordinates()
    for _ in range(attempts):
        word = [rng.choice(gens) for _ in range(length)]
        coeff = random_expr(rng, chart, max_order, 2, 3, parity)
        form = GradedForm.term(coeff, word)
        if not form.is_zero():
            return form
    raise RuntimeError("could not draw a nonzero homogeneous form")


def form_degree_parity(form: GradedForm) -> tuple[int, int]:
    """(form degree, total parity bit) of a form with one kind of term."""
    bits = set()
    for word, coeff in form.items():
        word_parity = sum(g.parity.value for g in word) % 2
        bits.add((len(word), (word_parity + parity_of(coeff).value) % 2))
    if len(bits) != 1:
        raise ValueError("form is not homogeneous")
    return next(iter(bits))


def random_field(
    rng: random.Random,
    chart: Chart,
    source: int,
    target: int,
    parity: Parity,
    max_degree: int = 2,
    terms: int = 2,
) -> VectorFieldAlong | None:
    """A random field along T^target -> T^source of the given parity, or
    None when every drawn component collapses to zero."""
    components = {}
    for gen in chart.at_order(source).coordinates():
        comp = random_expr(
            rng, chart, target, max_degree, terms, parity_product(parity, gen.parity)
        )
        if not comp.is_zero():
            components[gen] = comp
    if not components:
        return None
    return VectorFieldAlong(chart, source, target, components, parity)


# -- reference: products and partials through factor lists -----------------
# A term is spelled out as its factors, each even generator repeated by its
# exponent, and normalize sorts them again one swap at a time.


def factor_list(key) -> list:
    even, odd = key
    return [g for g, e in even for _ in range(e)] + list(odd)


def reference_product(left: SuperExpr, right: SuperExpr) -> SuperExpr:
    """The product, one normalized factor list per pair of terms."""
    return normalize(
        (c1 * c2, factor_list(k1) + factor_list(k2))
        for k1, c1 in left.items()
        for k2, c2 in right.items()
    )


def reference_even_partial(expr: SuperExpr, gen) -> SuperExpr:
    """The partial by an even generator: each term loses one factor ``gen``
    and is weighted by how many it had."""
    raw = []
    for key, coeff in expr.items():
        factors = factor_list(key)
        count = factors.count(gen)
        if count:
            factors.remove(gen)
            raw.append((coeff * count, factors))
    return normalize(raw)


# -- reference: expressions one operator at a time ---------------------------
# The grammar of coordinate expressions read by recursive descent, each
# operator applied to ``SuperExpr`` operands as soon as it is read: the
# parser's monomial terms and their one canonical pass are checked against
# sums, products, quotients and powers of the algebra itself.

_EXPRESSION_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z_0-9]*|\S)")


def reference_expression(text: str, chart: Chart) -> SuperExpr:
    """The value of a valid coordinate expression: ``-`` negates, ``*``
    multiplies, ``/`` divides by the constant term of its operand, ``^``
    is a power by repeated products, and sums are left to right."""
    tokens = _EXPRESSION_TOKEN.findall(text) + [""]
    pos = 0

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expression() -> SuperExpr:
        value = term()
        while tokens[pos] in ("+", "-"):
            if take() == "+":
                value = value + term()
            else:
                value = value - term()
        return value

    def term() -> SuperExpr:
        value = factor()
        while tokens[pos] in ("*", "/"):
            if take() == "*":
                value = value * factor()
            else:
                value = value / factor().constant_term()
        return value

    def factor() -> SuperExpr:
        if tokens[pos] in ("+", "-"):
            return -factor() if take() == "-" else factor()
        value = atom()
        if tokens[pos] == "^":
            take()
            value = value ** int(take())
        return value

    def atom() -> SuperExpr:
        token = take()
        if token.isdigit():
            return SuperExpr.constant(int(token))
        if token == "(":
            value = expression()
            assert take() == ")"
            return value
        assert take() == "["
        index = int(take())
        assert take() == "]"
        return chart.coord(token, index)

    value = expression()
    assert tokens[pos] == "", text
    return value


# -- reference: the ring on Fraction dictionaries ----------------------------
# An expression is a plain dict from canonical term key to nonzero Fraction,
# one coefficient per term.  Terms are made canonical here by counting
# inversions of the odd factors, without ``normalize`` or ``reorder``.


def fraction_terms(expr: SuperExpr) -> dict:
    return dict(expr.items())


def fraction_term(coeff: Fraction, factors: list):
    """``(key, coefficient)`` of a product of factors in this order, or None
    when an odd factor repeats."""
    odds = [g for g in factors if g.parity is Parity.ODD]
    if len(set(odds)) < len(odds):
        return None
    inversions = sum(a.sort_key > b.sort_key for i, a in enumerate(odds) for b in odds[i + 1:])
    counts: dict = {}
    for g in factors:
        if g.parity is Parity.EVEN:
            counts[g] = counts.get(g, 0) + 1
    even = tuple(sorted(counts.items(), key=lambda it: it[0].sort_key))
    odd = tuple(sorted(odds, key=lambda g: g.sort_key))
    return (even, odd), coeff * (-1) ** inversions


def fraction_sum(terms) -> dict:
    """Add ``(key, coefficient)`` pairs, dropping what cancels."""
    out: dict = {}
    for key, coeff in terms:
        out[key] = out.get(key, Fraction(0)) + coeff
    return {key: c for key, c in out.items() if c}


def fraction_normalize(raw) -> dict:
    return fraction_sum(filter(None, (fraction_term(Fraction(c), list(f)) for c, f in raw)))


def fraction_product(left: dict, right: dict) -> dict:
    return fraction_sum(filter(None, (
        fraction_term(c1 * c2, factor_list(k1) + factor_list(k2))
        for k1, c1 in left.items()
        for k2, c2 in right.items()
    )))


def fraction_power(base: dict, exponent: int) -> dict:
    out = {((), ()): Fraction(1)}
    for _ in range(exponent):
        out = fraction_product(out, base)
    return out


def fraction_left_partial(terms: dict, gen) -> dict:
    """An even generator loses one factor and weights the term by its
    exponent; an odd one is moved to the front of its word and removed."""
    out = []
    for (even, odd), coeff in terms.items():
        if gen.parity is Parity.EVEN:
            exps = dict(even)
            if gen in exps:
                exps[gen] -= 1
                monomial = tuple((g, e) for g, e in exps.items() if e)
                out.append(((monomial, odd), coeff * dict(even)[gen]))
        elif gen in odd:
            pos = odd.index(gen)
            out.append(((even, odd[:pos] + odd[pos + 1:]), coeff * (-1) ** pos))
    return fraction_sum(out)


def fraction_substitute(terms: dict, values: dict) -> dict:
    """Each term's factors replaced in order by their values (dicts), the
    other factors kept."""
    out = []
    for key, coeff in terms.items():
        product = {((), ()): coeff}
        for g in factor_list(key):
            value = values[g] if g in values else dict([fraction_term(Fraction(1), [g])])
            product = fraction_product(product, value)
        out.extend(product.items())
    return fraction_sum(out)


# -- reference calculus: variational derivative and on-shell values ---------


def reference_variational_derivative(expr: SuperExpr, base) -> SuperExpr:
    """sum_j (-1)^j T^j(d expr / d u^(j)), each T^j taken from scratch."""
    return SuperExpr.sum(
        (-1) ** j * iterated_total_derivative(left_partial(expr, base.shifted(j)), j)
        for j in range(expr.max_jet_order() + 1)
    )


def _fixed_point(step, expr: SuperExpr, passes: int = 50) -> SuperExpr:
    for _ in range(passes):
        following = step(expr)
        if following == expr:
            return expr
        expr = following
    raise RuntimeError("reference substitution did not stabilise")


def reference_on_shell(dynamics, expr: SuperExpr) -> SuperExpr:
    """Substitute the forces, then the constraints to a fixed point, and
    repeat both until stable."""
    def reduce(e):
        return _fixed_point(lambda x: substitute(x, dict(dynamics.constraints)), e)

    return _fixed_point(lambda e: reduce(substitute(e, dict(dynamics.forces))), expr)


# -- independent reference: Grassmann products and RK4 ----------------------
# Values are coefficient arrays indexed by subset bitmask, as in
# GrassmannValue.coeffs; the loops below add terms in the order the
# package's pairing of subsets uses, so results agree bit for bit.


def grassmann_value(terms, directions: int) -> GrassmannValue:
    """A value from ``(coefficient, direction indices)`` terms, read as the
    parser reads a ``simulate`` block's ``init`` values: repeated indices
    kill a term and odd permutations flip its sign."""
    return GrassmannValue(directions, grassmann_coefficients(terms, directions))


def merge_sign(left_mask: int, right_mask: int) -> int:
    """Sign of concatenating two ordered subsets, counting the swaps that
    interleave them into one ordered word."""
    crossings = 0
    for i in range(right_mask.bit_length()):
        if right_mask >> i & 1:
            crossings += (left_mask >> (i + 1)).bit_count()
    return -1 if crossings % 2 else 1


def oracle_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Exterior product by a double loop over the nonzero coefficients."""
    out = np.zeros_like(left)
    for a in np.nonzero(left)[0]:
        for b in np.nonzero(right)[0]:
            if a & b:
                continue
            out[a | b] += merge_sign(int(a), int(b)) * left[a] * right[b]
    return out


def oracle_evaluate(expr: SuperExpr, values: dict, directions: int) -> np.ndarray:
    """Evaluate term by term: each even power is formed first and then
    multiplied in, odd factors follow in canonical order."""
    size = 1 << directions
    unit = np.zeros(size)
    unit[0] = 1.0
    out = np.zeros(size)
    for (even, odd), coeff in expr.items():
        acc = unit * float(coeff)
        for gen, exponent in even:
            power = unit
            for _ in range(exponent):
                power = oracle_product(power, values[gen])
            acc = oracle_product(acc, power)
        for gen in odd:
            acc = oracle_product(acc, values[gen])
        out = out + acc
    return out


def reference_rk4(dynamics, initial: dict, directions: int, dt: float, steps: int) -> list:
    """Classic RK4 on dicts of coefficient arrays; returns every state."""
    field = dynamics.field()
    components = {gen: field.component(gen) for gen in initial}

    def rhs(values):
        return {
            gen: oracle_evaluate(expr, values, directions)
            for gen, expr in components.items()
        }

    def shift(values, slopes, factor):
        return {gen: values[gen] + slopes[gen] * factor for gen in values}

    states = [dict(initial)]
    current = dict(initial)
    for _ in range(steps):
        k1 = rhs(current)
        k2 = rhs(shift(current, k1, dt / 2))
        k3 = rhs(shift(current, k2, dt / 2))
        k4 = rhs(shift(current, k3, dt))
        current = {
            gen: current[gen] + (k1[gen] + 2.0 * k2[gen] + 2.0 * k3[gen] + k4[gen]) * (dt / 6)
            for gen in current
        }
        states.append(current)
    return states


# -- independent reference: exact linear algebra ----------------------------


def laplace_det(matrix: list) -> SuperExpr:
    """Determinant by cofactor expansion along the first row."""
    n = len(matrix)
    if n == 0:
        return SuperExpr.constant(1)
    if n == 1:
        return matrix[0][0]
    return SuperExpr.sum(
        (-1) ** col * entry * laplace_det([[row[c] for c in range(n) if c != col] for row in matrix[1:]])
        for col, entry in enumerate(matrix[0])
        if not entry.is_zero()
    )


def laplace_adjugate(matrix: list) -> list:
    """Adjugate from the n^2 cofactors, each a Laplace determinant."""
    n = len(matrix)
    if n == 1:
        return [[SuperExpr.constant(1)]]
    adj = [[SuperExpr.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[matrix[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * laplace_det(minor)
    return adj


def dense_solve_rational(columns: list, target: SuperExpr) -> list | None:
    """Rational coefficients with sum(c_i * columns_i) = target, free ones
    zero, or None: Gauss-Jordan on dense rows, one per term key in the
    order of the key's text, pivots in column order."""
    keys = sorted(
        {key for col in columns for key, _ in col.items()} | {key for key, _ in target.items()},
        key=str,
    )
    index = {key: i for i, key in enumerate(keys)}
    rows = [[Fraction(0)] * (len(columns) + 1) for _ in keys]
    for c, col in enumerate(columns):
        for key, coeff in col.items():
            rows[index[key]][c] = coeff
    for key, coeff in target.items():
        rows[index[key]][-1] = coeff
    pivot_row = 0
    pivot_cols = []
    for col in range(len(columns)):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        rows[pivot_row] = [x / lead for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
    if any(rows[r][-1] for r in range(pivot_row, len(rows))):
        return None
    solution = [Fraction(0)] * len(columns)
    for i, col in enumerate(pivot_cols):
        solution[col] = rows[i][-1]
    return solution


# -- reference printers ------------------------------------------------------
# Each term is written from its ``items()`` Fraction and its decoded key,
# with ``str`` of the Fraction and of each generator, and summed with
# ``signed_sum`` and ``scaled``: none of the package's packed-term printing.


def reference_text(expr: SuperExpr) -> str:
    def monomial(key) -> str:
        even, odd = key
        return "*".join([*(f"{g}^{e}" if e > 1 else str(g) for g, e in even), *(str(g) for g in odd)])

    return signed_sum(scaled(str(coeff), monomial(key), "*") for key, coeff in expr.items())


def reference_form_text(form: GradedForm) -> str:
    """A coefficient of more than one term is grouped in parentheses when
    differentials follow it."""

    def term(word, coeff) -> str:
        text = reference_text(coeff)
        if word and len(coeff.items()) > 1:
            text = f"({text})"
        return scaled(text, "^".join(f"d({g})" for g in word), "*")

    return signed_sum(term(word, coeff) for word, coeff in form.items())


def _latex_generator(g) -> str:
    return rf"{latex_name(g.name)}_{{{g.jet_order}}}"


def reference_latex(expr: SuperExpr) -> str:
    def fraction(coeff: Fraction) -> str:
        if coeff.denominator == 1:
            return str(coeff.numerator)
        sign = "-" if coeff < 0 else ""
        return rf"{sign}\tfrac{{{abs(coeff.numerator)}}}{{{coeff.denominator}}}"

    def monomial(key) -> str:
        even, odd = key
        factors = [_latex_generator(g) + (rf"^{{{e}}}" if e > 1 else "") for g, e in even]
        return r" \, ".join([*factors, *(_latex_generator(g) for g in odd)])

    return signed_sum(scaled(fraction(coeff), monomial(key), r" \, ") for key, coeff in expr.items())


def reference_latex_form(form: GradedForm) -> str:
    def term(word, coeff) -> str:
        differentials = r" \wedge ".join(rf"\mathrm{{d}}{_latex_generator(g)}" for g in word)
        if word and len(coeff.items()) > 1:
            return rf"\left( {reference_latex(coeff)} \right) {differentials}"
        return scaled(reference_latex(coeff), differentials, r" \, ")

    return signed_sum(term(word, coeff) for word, coeff in form.items())
