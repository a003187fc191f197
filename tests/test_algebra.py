"""Exact arithmetic in the graded polynomial ring."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermech import (
    Chart,
    GeneratorSymbol,
    MixedParity,
    Parity,
    ParityMismatch,
    SuperExpr,
    UndeclaredGenerator,
    ZeroExpression,
    has_parity,
    left_partial,
    normalize,
    parity_of,
    parity_product,
    parse_expression,
    partials,
    substitute,
    total_derivative,
)
from supermech.algebra import (
    MAX_TERM_EXPONENT,
    ExponentTooLarge,
    divide_by_degree,
    from_monomials,
    koszul,
    shift_derivative,
    sum_of_products,
)

from helpers import (
    factor_list,
    fraction_left_partial,
    fraction_normalize,
    fraction_power,
    fraction_product,
    fraction_substitute,
    fraction_sum,
    fraction_term,
    fraction_terms,
    parity_part,
    random_expr,
    reference_even_partial,
    reference_product,
)

CHART = Chart.create(["q", "r"], ["th", "ps"], 3)


def coord(name, j):
    return CHART.coord(name, j)


def gen(name, j):
    return CHART.gen(name, j)


# -- canonical form --------------------------------------------------------


def test_even_generators_commute():
    assert coord("q", 0) * coord("q", 1) == coord("q", 1) * coord("q", 0)
    assert coord("q", 0) * coord("r", 0) == coord("r", 0) * coord("q", 0)


def test_odd_generators_anticommute():
    assert coord("th", 0) * coord("th", 1) == -(coord("th", 1) * coord("th", 0))
    assert coord("th", 0) * coord("ps", 0) == -(coord("ps", 0) * coord("th", 0))


def test_odd_squares_vanish():
    assert (coord("th", 0) * coord("th", 0)).is_zero()
    assert (coord("th", 1) ** 2).is_zero()
    assert ((coord("th", 0) + coord("ps", 0)) ** 3).is_zero()


def test_even_and_odd_factors_commute():
    assert coord("th", 0) * coord("q", 0) == coord("q", 0) * coord("th", 0)


def test_string_form_is_sorted_and_exact():
    expr = Fraction(1, 2) * coord("q", 2) ** 2 - coord("q", 1) * coord("q", 3)
    assert str(expr) == "-q[1]*q[3] + 1/2*q[2]^2"
    assert str(SuperExpr.zero()) == "0"
    assert str(coord("th", 0) * coord("th", 1)) == "th[0]*th[1]"
    assert str(SuperExpr.constant(Fraction(-2, 3))) == "-2/3"


def test_generator_symbol_ordering_and_shift():
    q1 = gen("q", 1)
    assert str(q1) == "q[1]"
    assert q1.shifted() == gen("q", 2)
    assert q1.shifted(2) == gen("q", 3)
    # even coordinates sort before odd ones, then by jet order
    assert gen("q", 3).sort_key < gen("th", 0).sort_key
    assert gen("th", 0).sort_key < gen("th", 1).sort_key


# -- interned generator symbols --------------------------------------------

FIELD_VALUES = [
    st.sampled_from(["q", "r", "th"]), st.sampled_from(list(Parity)), st.integers(0, 3), st.integers(0, 5)
]
FIELDS = st.tuples(*FIELD_VALUES)


@given(FIELDS, st.integers(0, 3), st.data())
def test_generator_symbols_are_values_interned_by_their_fields(fields, which, data):
    a = GeneratorSymbol(*fields)
    b = GeneratorSymbol(*fields)
    assert a is b and a == b and hash(a) == hash(b)
    assert (a.name, a.parity, a.base_index, a.jet_order) == fields
    assert a.sort_key == (fields[1].value, fields[2], fields[3])
    other = list(fields)
    other[which] = data.draw(FIELD_VALUES[which].filter(lambda v: v != fields[which]))
    c = GeneratorSymbol(*other)
    assert c != a and c is not a
    assert len({a, b, c}) == 2


def test_generator_symbols_survive_copies_and_stay_immutable():
    q1 = gen("q", 1)
    assert pickle.loads(pickle.dumps(q1)) is q1
    assert copy.deepcopy(q1) is q1
    assert copy.copy(q1) is q1
    expr = Fraction(1, 2) * coord("q", 1) ** 2 * coord("th", 0) * coord("ps", 2) - coord("r", 0)
    assert pickle.loads(pickle.dumps(expr)) == expr
    assert copy.deepcopy(expr) == expr
    with pytest.raises(AttributeError):
        q1.jet_order = 2
    with pytest.raises(AttributeError):
        del q1.name
    assert repr(q1) == "GeneratorSymbol(name='q', parity=<Parity.EVEN: 0>, base_index=0, jet_order=1)"


def test_shifted_symbols_are_the_charts_generators():
    for g in CHART.at_order(2).coordinates():
        assert g.shifted() is gen(g.name, g.jet_order + 1)
        assert g.shifted(1).shifted(-1) is g


def test_chart_coordinate_order_is_fixed():
    chart = Chart.create(["q", "r"], ["th", "ps"], 1)
    assert [str(g) for g in chart.coordinates()] == [
        "q[0]", "q[1]", "r[0]", "r[1]", "th[0]", "th[1]", "ps[0]", "ps[1]"
    ]


# -- ring operations -------------------------------------------------------


def test_scalar_mixing():
    e = coord("q", 0)
    assert 2 * e + e == 3 * e
    assert e - 1 == e + SuperExpr.constant(-1)
    assert 1 - e == -(e - 1)
    assert e / 2 == Fraction(1, 2) * e
    assert (e ** 0) == SuperExpr.constant(1)


def test_power_requires_nonnegative_exponent():
    with pytest.raises(ValueError):
        coord("q", 0) ** -1


def test_constant_term_and_degrees():
    e = 3 + coord("q", 0) * coord("q", 2) ** 2
    assert e.constant_term() == 3
    assert e.max_jet_order() == 2
    assert e.total_degree() == 3
    assert SuperExpr.zero().max_jet_order() == -1


def test_koszul_is_the_grade_involution():
    rng = random.Random(114)
    for _ in range(40):
        a = random_expr(rng, CHART, 2, 3, 4)
        b = random_expr(rng, CHART, 2, 3, 4)
        terms = a.items()
        even_part = SuperExpr({key: c for key, c in terms if len(key[1]) % 2 == 0})
        odd_part = SuperExpr({key: c for key, c in terms if len(key[1]) % 2})
        assert koszul(a, 0) == a
        assert koszul(a, 1) == even_part - odd_part
        assert koszul(koszul(a, 1), 1) == a
        assert koszul(a * b, 1) == koszul(a, 1) * koszul(b, 1)
        assert koszul(even_part, 1) == even_part


def test_distributivity_randomized():
    rng = random.Random(101)
    for _ in range(30):
        a = random_expr(rng, CHART, 2, 3, 3)
        b = random_expr(rng, CHART, 2, 3, 3)
        c = random_expr(rng, CHART, 2, 3, 3)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_supercommutativity_randomized():
    rng = random.Random(102)
    for _ in range(30):
        a = random_expr(rng, CHART, 2, 2, 3, rng.choice(list(Parity)))
        b = random_expr(rng, CHART, 2, 2, 3, rng.choice(list(Parity)))
        if a.is_zero() or b.is_zero():
            continue
        sign = (-1) ** (parity_of(a).value * parity_of(b).value)
        assert a * b == sign * (b * a)


# Generators interned in reverse sort order, base indices past the chart's:
# each term key holds their bits against the order ``items()`` gives, so
# every sign of putting a word from one order in the other is exercised.
LATE = [
    GeneratorSymbol(name, parity, base, j)
    for name, parity, base in (
        ("late_chi", Parity.ODD, 3), ("late_eta", Parity.ODD, 2), ("late_w", Parity.EVEN, 2)
    )
    for j in (2, 1, 0)
]
# The order-2 chart has six odd generators, so products merge long words.
GENS = (*CHART.at_order(2).coordinates(), *LATE)
COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
EXPRS = st.lists(
    st.tuples(COEFFS, st.lists(st.sampled_from(GENS), max_size=5)), max_size=6
).map(normalize)


@settings(max_examples=200)
@given(EXPRS, EXPRS)
def test_product_matches_the_factor_list_reference(a, b):
    # the reference counts inversions itself: products and ``normalize``
    # both order their words with ``reorder``
    assert fraction_terms(a * b) == fraction_product(fraction_terms(a), fraction_terms(b))


@settings(max_examples=200)
@given(EXPRS, st.sampled_from(GENS))
def test_left_partial_matches_the_factor_list_reference(e, x):
    d = left_partial(e, x)
    assert x not in d.generators() or x.parity is Parity.EVEN
    if x.parity is Parity.EVEN:
        assert d == reference_even_partial(e, x)
    else:
        # e = x*A + B with A and B free of x, and the left partial is A
        with_x = SuperExpr({key: c for key, c in e.items() if x in key[1]})
        assert reference_product(SuperExpr.generator(x), d) == with_x


# Coefficients over pairwise-coprime denominators and with 60-digit
# numerators: sums then meet several denominators and products large ones.
WIDE = 10**59
WIDE_COEFFS = st.one_of(
    COEFFS,
    st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)]),
    st.builds(
        Fraction,
        st.one_of(st.integers(WIDE, 10 * WIDE - 1), st.integers(-10 * WIDE + 1, -WIDE)),
        st.sampled_from([1, 3, 7, 11]),
    ),
)
RAW_TERMS = st.lists(st.tuples(WIDE_COEFFS, st.lists(st.sampled_from(GENS), max_size=5)), max_size=6)
WIDE_EXPRS = st.one_of(EXPRS, RAW_TERMS.map(normalize))


def assert_exact(result, reference):
    """``result`` is in canonical form (integer numerators, none zero, over
    a positive denominator with no factor common to all; zero over 1) and
    has the reference's Fraction coefficients, and the expression built
    from the reference is equal to it and hashes equal."""
    nums, den = result.numerators()
    assert den > 0 and all(type(n) is int and n for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert nums or den == 1
    assert fraction_terms(result) == reference
    rebuilt = SuperExpr(reference)
    assert rebuilt == result and hash(rebuilt) == hash(result)


@settings(max_examples=150)
@given(WIDE_EXPRS, WIDE_EXPRS, WIDE_COEFFS.filter(bool), st.integers(0, 3), st.sampled_from(GENS))
def test_operations_stay_canonical_and_match_the_fraction_reference(a, b, c, k, x):
    fa, fb = fraction_terms(a), fraction_terms(b)
    assert_exact(a + b, fraction_sum([*fa.items(), *fb.items()]))
    assert_exact(a - b, fraction_sum([*fa.items(), *((key, -v) for key, v in fb.items())]))
    assert_exact(-a, {key: -v for key, v in fa.items()})
    assert_exact(a * b, fraction_product(fa, fb))
    assert_exact(c * a, {key: c * v for key, v in fa.items()})
    assert_exact(a / c, {key: v / c for key, v in fa.items()})
    assert_exact(a ** k, fraction_power(fa, k))
    assert_exact(koszul(a, 1), {key: -v if len(key[1]) % 2 else v for key, v in fa.items()})
    assert_exact(left_partial(a, x), fraction_left_partial(fa, x))
    assert_exact(a.body(), {key: v for key, v in fa.items() if not key[1]})
    # a sum that cancels to zero, or to a part with a smaller denominator
    assert_exact((a + b) - b, fa)


# Operands of the kernel: expressions with odd words and pairwise-coprime
# denominators, and one-term constants, which take the scale path.
OPERANDS = st.one_of(WIDE_EXPRS, WIDE_COEFFS.map(SuperExpr.constant))
TRIPLES = st.lists(
    st.tuples(st.one_of(st.sampled_from([1, -1]), st.integers(-5, 5).filter(bool)), OPERANDS, OPERANDS),
    max_size=5,
)


@settings(max_examples=150)
@given(TRIPLES, st.booleans())
def test_sum_of_products_matches_the_fraction_reference(triples, cancel):
    if cancel:
        # every product again with the opposite sign: the sum is zero
        triples = [*triples, *((-w, a, b) for w, a, b in reversed(triples))]
    reference = fraction_sum(
        (key, w * c)
        for w, a, b in triples
        for key, c in fraction_product(fraction_terms(a), fraction_terms(b)).items()
    )
    result = sum_of_products(triples)
    assert_exact(result, reference)
    if cancel:
        assert result.numerators() == ({}, 1)


@settings(max_examples=100)
@given(OPERANDS, OPERANDS, st.sampled_from([1, -1]))
def test_product_and_difference_are_cases_of_the_kernel(a, b, sign):
    one = SuperExpr.constant(1)
    assert a * b == sum_of_products([(1, a, b)]) == sign * sum_of_products([(sign, a, b)])
    assert a - b == sum_of_products([(1, a, one), (-1, one, b)]) == a + (-b)
    assert a * b - b * a == sum_of_products([(1, a, b), (-1, b, a)])
    assert sum_of_products([(sign, a, b), (-sign, a, b)]).numerators() == ({}, 1)


@settings(max_examples=100)
@given(RAW_TERMS)
def test_normalize_is_canonical_and_matches_the_fraction_reference(raw):
    assert_exact(normalize(raw), fraction_normalize(raw))


# Terms as a coefficient and an ordered product of powers ``(generator,
# exponent)``, in which a generator may repeat; an odd power above 1 is zero.
# The parser reads the chart's coordinates only.
POWER_TERMS = st.lists(
    st.tuples(
        WIDE_COEFFS,
        st.lists(st.tuples(st.sampled_from(CHART.at_order(2).coordinates()), st.integers(1, 3)), max_size=5),
    ),
    max_size=6,
)


@settings(max_examples=150)
@given(POWER_TERMS)
def test_every_way_into_an_expression_matches_the_fraction_reference(terms):
    raw = [(c, [g for g, e in powers for _ in range(e)]) for c, powers in terms]
    reference = fraction_normalize(raw)
    # a mapping key holds the even powers, then the odd word: even factors
    # commute with everything, so the product is the same
    mapping = {}
    for c, powers in terms:
        key = (
            tuple((g, e) for g, e in powers if g.parity is Parity.EVEN),
            tuple(g for g, e in powers if g.parity is Parity.ODD for _ in range(e)),
        )
        mapping[key] = mapping.get(key, 0) + c
    text = " + ".join(
        f"{c.numerator}/{c.denominator}" + "".join(f"*{g}^{e}" for g, e in powers) for c, powers in terms
    )
    assert_exact(SuperExpr(mapping), reference)
    assert_exact(normalize(raw), reference)
    assert_exact(parse_expression(text or "0", CHART, 2), reference)


def test_constants_hash_as_the_numbers_they_equal():
    for value in (1, Fraction(1, 2), 0):
        expr = SuperExpr.constant(value)
        assert expr == value and hash(expr) == hash(value)
        assert len({expr, value}) == 1
        assert {value: "number"}[expr] == "number" and {expr: "expression"}[value] == "expression"
    members = {SuperExpr.zero(), 0, SuperExpr.constant(1), 1, Fraction(1, 2), SuperExpr.constant(Fraction(1, 2))}
    assert len(members) == 3


@settings(max_examples=100)
@given(WIDE_EXPRS, WIDE_EXPRS, WIDE_EXPRS, st.sampled_from(GENS), st.sampled_from(GENS))
def test_substitute_is_canonical_and_matches_the_fraction_reference(e, u, v, x, y):
    # each value is the part of its generator's parity
    values = {
        g: parity_part(value, g.parity)
        for g, value in ((x, u), (y, v))
    }
    reference = fraction_substitute(fraction_terms(e), {g: fraction_terms(w) for g, w in values.items()})
    assert_exact(substitute(e, values), reference)


def paired_terms(parity):
    """Terms that hold a generator g of ``parity`` and its successor g' (one
    jet order up), and up to two more factors."""
    pairs = [(g, g.shifted()) for g in GENS if g.parity is parity and g.jet_order < 2]
    return st.tuples(
        COEFFS.filter(bool), st.sampled_from(pairs), st.lists(st.sampled_from(GENS), max_size=2)
    ).map(lambda t: (t[0], [*t[1], *t[2]]))


# Each of these expressions has an odd word and an even monomial that hold
# some g and g': where the total derivative's g' meets a factor already
# there.  The other terms are free.
SHIFT_EXPRS = st.tuples(paired_terms(Parity.ODD), paired_terms(Parity.EVEN), RAW_TERMS).map(
    lambda t: normalize([t[0], t[1], *t[2]])
)


def fraction_total_derivative(terms: dict) -> dict:
    """The sum over the generators g of g' * (left partial by g), built
    from products: the definition that the shift kernel replaces."""
    gens = {g for key in terms for g in factor_list(key)}
    return fraction_sum(
        item
        for g in gens
        for item in fraction_product(
            dict([fraction_term(Fraction(1), [g.shifted()])]), fraction_left_partial(terms, g)
        ).items()
    )


@settings(max_examples=150)
@given(st.one_of(SHIFT_EXPRS, WIDE_EXPRS))
def test_partials_are_every_left_partial_from_one_pass(e):
    fe = fraction_terms(e)
    derivs = partials(e)
    assert derivs.keys() == e.generators()
    for g, d in derivs.items():
        assert_exact(d, fraction_left_partial(fe, g))
        assert left_partial(e, g) == d


@settings(max_examples=150)
@given(st.one_of(SHIFT_EXPRS, WIDE_EXPRS))
def test_total_derivative_shifts_each_factor_as_the_product_reference(e):
    assert_exact(total_derivative(e), fraction_total_derivative(fraction_terms(e)))


@settings(max_examples=100)
@given(WIDE_EXPRS, WIDE_EXPRS, st.sampled_from(GENS), RAW_TERMS)
def test_substitute_keeps_terms_without_an_assigned_factor(u, e, x, free):
    # the terms of ``free`` without x pass through as they are
    value = parity_part(u, x.parity)
    e = e + normalize([(c, f) for c, f in free if x not in f])
    reference = fraction_substitute(fraction_terms(e), {x: fraction_terms(value)})
    assert_exact(substitute(e, {x: value}), reference)


def test_substitute_returns_an_expression_it_does_not_touch():
    e = coord("q", 0) * coord("th", 1) + Fraction(1, 3)
    assert substitute(e, {gen("q", 1): coord("q", 0)}) is e


# -- parity queries --------------------------------------------------------


def test_parity_of_homogeneous_terms():
    assert parity_of(coord("q", 0) ** 2) is Parity.EVEN
    assert parity_of(coord("th", 0)) is Parity.ODD
    assert parity_of(coord("th", 0) * coord("ps", 1)) is Parity.EVEN


def test_parity_of_rejects_mixtures_and_zero():
    with pytest.raises(MixedParity):
        parity_of(coord("q", 0) + coord("th", 0))
    with pytest.raises(ZeroExpression):
        parity_of(SuperExpr.zero())


def test_has_parity():
    assert has_parity(SuperExpr.zero(), Parity.EVEN)
    assert has_parity(SuperExpr.zero(), Parity.ODD)
    assert has_parity(coord("th", 0), Parity.ODD)
    assert not has_parity(coord("th", 0), Parity.EVEN)


def test_parity_product():
    assert parity_product(Parity.ODD, Parity.ODD) is Parity.EVEN
    assert parity_product(Parity.ODD, Parity.EVEN) is Parity.ODD
    assert parity_product() is Parity.EVEN


# -- normalize -------------------------------------------------------------


def test_normalize_merges_and_cancels():
    q0 = gen("q", 0)
    th0 = gen("th", 0)
    th1 = gen("th", 1)
    expr = normalize(
        [
            (1, [q0, th0, th1]),
            (1, [th1, th0, q0]),  # reordering the odd pair flips the sign
        ]
    )
    assert expr.is_zero()
    expr = normalize([(Fraction(1, 2), [q0, q0]), (Fraction(1, 2), [q0, q0])])
    assert expr == coord("q", 0) ** 2


def test_normalize_checks_declared_generators():
    with pytest.raises(UndeclaredGenerator):
        normalize([(1, [gen("q", 0)])], declared=[gen("th", 0)])


# -- left partial derivatives ----------------------------------------------


def test_left_partial_even_examples():
    e = coord("q", 0) ** 2 * coord("q", 1)
    assert left_partial(e, gen("q", 0)) == 2 * coord("q", 0) * coord("q", 1)
    assert left_partial(e, gen("q", 1)) == coord("q", 0) ** 2
    assert left_partial(e, gen("q", 2)).is_zero()


def test_left_partial_moves_odd_factor_to_front():
    e = coord("th", 0) * coord("th", 1)
    assert left_partial(e, gen("th", 0)) == coord("th", 1)
    # th0*th1 = -th1*th0, so the th1 partial picks up the Koszul sign
    assert left_partial(e, gen("th", 1)) == -coord("th", 0)


def test_odd_partials_anticommute_randomized():
    rng = random.Random(103)
    x = gen("th", 0)
    y = gen("ps", 1)
    for _ in range(25):
        e = random_expr(rng, CHART, 2, 3, 4)
        xy = left_partial(left_partial(e, y), x)
        yx = left_partial(left_partial(e, x), y)
        assert xy == -yx
        assert left_partial(left_partial(e, x), x).is_zero()


def test_left_partial_graded_leibniz_randomized():
    rng = random.Random(104)
    gens = CHART.at_order(2).coordinates()
    for _ in range(40):
        x = rng.choice(gens)
        f = random_expr(rng, CHART, 2, 2, 3, rng.choice(list(Parity)))
        g = random_expr(rng, CHART, 2, 2, 3)
        if f.is_zero():
            continue
        sign = (-1) ** (x.parity.value * parity_of(f).value)
        assert left_partial(f * g, x) == left_partial(f, x) * g + sign * (
            f * left_partial(g, x)
        )


# -- substitution ----------------------------------------------------------


def test_substitute_examples():
    e = coord("q", 1) ** 2 + coord("q", 0)
    out = substitute(e, {gen("q", 1): SuperExpr.constant(0)})
    assert out == coord("q", 0)
    out = substitute(e, {gen("q", 0): coord("q", 1) ** 2})
    assert out == 2 * coord("q", 1) ** 2


def test_substitute_odd_for_odd():
    e = coord("th", 0) * coord("th", 1)
    out = substitute(e, {gen("th", 1): coord("ps", 0)})
    assert out == coord("th", 0) * coord("ps", 0)


def test_substitute_rejects_parity_mismatch():
    with pytest.raises(ParityMismatch):
        substitute(coord("th", 0), {gen("th", 0): coord("q", 0)})
    with pytest.raises(ParityMismatch):
        substitute(coord("q", 0), {gen("q", 0): coord("th", 0)})


def test_substitute_is_a_homomorphism_randomized():
    rng = random.Random(105)
    assignment = {
        gen("q", 0): random_expr(rng, CHART, 1, 2, 2, Parity.EVEN),
        gen("th", 0): coord("ps", 0) + coord("th", 1),
    }
    for _ in range(20):
        a = random_expr(rng, CHART, 1, 2, 3)
        b = random_expr(rng, CHART, 1, 2, 3)
        assert substitute(a * b, assignment) == substitute(a, assignment) * substitute(
            b, assignment
        )
        assert substitute(a + b, assignment) == substitute(a, assignment) + substitute(
            b, assignment
        )


# -- packed term keys ----------------------------------------------------------

ODD_GENS = [g for g in GENS if g.parity is Parity.ODD]
# every term has an odd word, of one to three letters, and up to two more
# factors
WORDED = st.lists(
    st.tuples(
        COEFFS.filter(bool),
        st.lists(st.sampled_from(ODD_GENS), min_size=1, max_size=3),
        st.lists(st.sampled_from(GENS), max_size=2),
    ).map(lambda t: (t[0], t[1] + t[2])),
    max_size=4,
).map(normalize)


@settings(max_examples=150)
@given(WORDED, WORDED, st.sampled_from([1, -1]), st.sampled_from(ODD_GENS))
def test_odd_words_in_both_operands_match_the_fraction_reference(a, b, sign, x):
    fa, fb = fraction_terms(a), fraction_terms(b)
    assert_exact(a * b, fraction_product(fa, fb))
    assert_exact(
        sum_of_products([(sign, a, b), (1, b, a)]),
        fraction_sum([
            *((key, sign * c) for key, c in fraction_product(fa, fb).items()),
            *fraction_product(fb, fa).items(),
        ]),
    )
    for key, c in fb.items():
        assert_exact(a * SuperExpr({key: c}), fraction_product(fa, {key: c}))
    for g, d in partials(a).items():
        assert_exact(d, fraction_left_partial(fa, g))
    assert_exact(shift_derivative(a), fraction_total_derivative(fa))
    value = parity_part(b, Parity.ODD)
    assert_exact(substitute(a, {x: value}), fraction_substitute(fa, {x: fraction_terms(value)}))


@settings(max_examples=100)
@given(WIDE_EXPRS)
def test_divide_by_degree_matches_the_fraction_reference(e):
    fe = fraction_terms(e)
    if e.constant_term():
        with pytest.raises(ZeroDivisionError):
            divide_by_degree(e)
    else:
        assert_exact(divide_by_degree(e), {key: c / len(factor_list(key)) for key, c in fe.items()})


def test_exponents_past_a_field_width_add_and_stop_at_the_guard():
    q, q0, q1 = coord("q", 0), gen("q", 0), gen("q", 1)
    assert str(q**64 * q**64) == "q[0]^128"
    assert str((q**64) ** 64) == "q[0]^4096"
    assert str(((q**64) ** 64) ** 64) == "q[0]^262144"
    top = SuperExpr({(((q0, MAX_TERM_EXPONENT),), ()): 1})
    assert top.total_degree() == MAX_TERM_EXPONENT
    assert left_partial(top, q0) == MAX_TERM_EXPONENT * SuperExpr({(((q0, MAX_TERM_EXPONENT - 1),), ()): 1})
    # a carry out of q[0]'s field raises, and never reaches the next field
    with pytest.raises(ExponentTooLarge, match=f"q\\[0\\] exceeds {MAX_TERM_EXPONENT}"):
        top * q
    with pytest.raises(ExponentTooLarge, match=f"q\\[0\\] exceeds {MAX_TERM_EXPONENT}"):
        sum_of_products([(1, q, coord("th", 0)), (1, top, q)])
    with pytest.raises(ExponentTooLarge, match="q\\[1\\]"):
        shift_derivative(SuperExpr({(((q0, 1), (q1, MAX_TERM_EXPONENT)), ()): 1}))
    with pytest.raises(ExponentTooLarge, match=f"{MAX_TERM_EXPONENT + 1} of q\\[0\\]"):
        SuperExpr({(((q0, MAX_TERM_EXPONENT + 1),), ()): 1})
    # exponents of one generator summing past the field, from each way in:
    # three of the largest would carry past the guard bit into the next field
    with pytest.raises(ExponentTooLarge):
        SuperExpr({(((q0, MAX_TERM_EXPONENT), (q0, 1)), ()): 1})
    with pytest.raises(ExponentTooLarge, match="q\\[0\\]"):
        SuperExpr({(((q0, MAX_TERM_EXPONENT),) * 3, ()): 1})
    with pytest.raises(ExponentTooLarge, match="q\\[0\\]"):
        from_monomials([(1, 1, [(q0, MAX_TERM_EXPONENT), (gen("th", 0), 1), (q0, MAX_TERM_EXPONENT), (q1, 1)])])
    # the parser's exponents stop at 64, so its powers reach the field's top
    # through parentheses: 64^5 is 2^30
    power = "((((q[0]^64)^64)^64)^64)^64"
    assert str(parse_expression(power, CHART, 2)) == f"q[0]^{2**30}"
    with pytest.raises(ExponentTooLarge, match="q\\[0\\]"):
        parse_expression(f"q[0]*{power}*q[0]^63*{power}", CHART, 2)


def test_mapping_keys_are_ordered_products_in_any_bit_order():
    chi0, eta0, eta1 = (GeneratorSymbol(n, Parity.ODD, b, j) for n, b, j in (
        ("late_chi", 3, 0), ("late_eta", 2, 0), ("late_eta", 2, 1)
    ))
    w0 = GeneratorSymbol("late_w", Parity.EVEN, 2, 0)
    # interned in reverse: the bits run against the sort order
    assert eta1.offset < eta0.offset and chi0.offset < eta0.offset
    forward = SuperExpr({((), (eta0, eta1)): 1})
    assert forward.items() == [(((), (eta0, eta1)), 1)]
    assert str(forward) == "late_eta[0]*late_eta[1]"
    assert SuperExpr({((), (eta1, eta0)): 1}) == -forward
    assert SuperExpr({((), (eta1, eta0)): 2, ((), (eta0, eta1)): 2}).is_zero()
    assert SuperExpr({((), (eta0, eta0)): 1}).is_zero()
    word = SuperExpr({(((w0, 2),), (chi0, eta1, eta0)): Fraction(3, 2)})
    assert word == normalize([(Fraction(3, 2), [w0, chi0, eta1, w0, eta0])])
    assert word.items() == [((((w0, 2),), (eta0, eta1, chi0)), Fraction(-3, 2))]
    assert str(word) == "-3/2*late_w[0]^2*late_eta[0]*late_eta[1]*late_chi[0]"


def test_generators_that_share_a_sort_key_stay_apart():
    first = Chart.create(["x"], ["th"], 1)
    second = Chart.create(["y"], ["ps"], 1)
    x, th = first.coord("x", 0), first.coord("th", 0)
    y, ps = second.coord("y", 0), second.coord("ps", 0)
    gx, gth, gy, gps = first.gen("x", 0), first.gen("th", 0), second.gen("y", 0), second.gen("ps", 0)
    assert gx.sort_key == gy.sort_key and gth.sort_key == gps.sort_key
    e = x * y + th * ps + x * th
    assert e.generators() == {gx, gy, gth, gps}
    assert (x * y).items() in ([((((gx, 1), (gy, 1)), ()), 1)], [((((gy, 1), (gx, 1)), ()), 1)])
    assert x * y == y * x and x * y != x**2 and x * y != y**2
    assert th * ps == -(ps * th) and not (th * ps).is_zero()
    assert (th * ps * th).is_zero()
    assert partials(x * y + th * ps) == {gx: y, gy: x, gth: ps, gps: -th}
    assert substitute(e, {gx: SuperExpr.constant(2)}) == 2 * y + th * ps + 2 * th
    assert pickle.loads(pickle.dumps(e)) == e


def test_pickling_goes_through_the_public_mapping():
    expr = Fraction(1, 2) * coord("q", 1) ** 3 * coord("th", 0) * coord("ps", 2) - coord("r", 0)
    rebuild, (mapping,) = expr.__reduce__()
    assert rebuild is SuperExpr
    assert mapping == dict(expr.items())
    assert all(isinstance(g, GeneratorSymbol) for key in mapping for g in factor_list(key))
    assert copy.deepcopy(expr) == expr and pickle.loads(pickle.dumps(expr)) == expr
