"""Graded differential forms: wedge, exterior derivative, interior
products, vertical transpose, and the momentum operator."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermech import (
    Chart,
    FormError,
    GradedForm,
    NotSemibasic,
    Parity,
    SuperExpr,
    VectorFieldAlong,
    cartan_operator,
    differential_of_function,
    exterior_d,
    form_total_derivative,
    interior,
    lift_vector_field,
    normalize,
    semibasic_check,
    total_derivative,
    transpose_vertical,
)

from helpers import (
    form_degree_parity,
    random_expr,
    random_field,
    random_form,
    random_homogeneous_form,
)

CHART = Chart.create(["q"], ["th"], 6)


def coord(name, j):
    return CHART.coord(name, j)


def gen(name, j):
    return CHART.gen(name, j)


def d(name, j):
    return GradedForm.differential(gen(name, j))


# -- wedge words -----------------------------------------------------------


def test_repeated_even_differential_vanishes():
    assert d("q", 0).wedge(d("q", 0)).is_zero()
    assert GradedForm.term(SuperExpr.constant(1), [gen("q", 1), gen("q", 1)]).is_zero()


def test_repeated_odd_differential_survives():
    square = d("th", 0).wedge(d("th", 0))
    assert not square.is_zero()
    assert square.coefficient((gen("th", 0), gen("th", 0))) == SuperExpr.constant(1)


def test_word_reordering_signs():
    assert GradedForm.term(SuperExpr.constant(1), [gen("q", 1), gen("q", 0)]) == -(
        d("q", 0).wedge(d("q", 1))
    )
    # swapping two odd differentials costs no sign
    assert GradedForm.term(SuperExpr.constant(1), [gen("th", 1), gen("th", 0)]) == d(
        "th", 0
    ).wedge(d("th", 1))


LETTERS = [gen("q", 0), gen("q", 1), gen("th", 0), gen("th", 1)]


def reordering_sign(word, degree):
    """The sign of sorting a word of form degree ``degree``, by brute
    force: (-1)^(degree + |a||b|) for each inverted pair a, b."""
    sign = 1
    for i, a in enumerate(word):
        for b in word[i + 1:]:
            if a.sort_key > b.sort_key and (degree + a.parity.value * b.parity.value) % 2:
                sign = -sign
    return sign


@settings(max_examples=200)
@given(
    st.lists(st.sampled_from(LETTERS), max_size=4).flatmap(
        lambda word: st.tuples(st.just(word), st.permutations(word))
    )
)
def test_reordering_follows_the_bidegree_rule(words):
    word, permuted = words
    canonical = sorted(word, key=lambda g: g.sort_key)
    repeated = {a for a, b in zip(canonical, canonical[1:]) if a is b}
    # odd generators, form degree 0: a repeated odd generator squares to zero
    product = SuperExpr.constant(reordering_sign(permuted, 0))
    for letter in canonical:
        product = product * SuperExpr.generator(letter)
    odd_generators = normalize([(1, permuted)])
    assert odd_generators == product
    assert odd_generators.is_zero() == any(g.parity is Parity.ODD for g in repeated)
    # differentials, form degree 1: a repeated even differential vanishes
    differentials = GradedForm.term(SuperExpr.constant(1), permuted)
    if any(g.parity is Parity.EVEN for g in repeated):
        assert differentials.is_zero()
    else:
        sign = SuperExpr.constant(reordering_sign(permuted, 1))
        assert differentials == GradedForm({tuple(canonical): sign})


def test_form_accessors():
    form = GradedForm.term(coord("q", 2), [gen("q", 0), gen("q", 1)])
    assert form.degrees() == {2}
    assert not form.is_one_form()
    assert form.differential_order() == 1
    assert form.coefficient_order() == 2
    assert GradedForm({(): coord("q", 0)}).degrees() == {0}
    assert str(d("q", 0).scale(coord("q", 1))) == "q[1]*d(q[0])"


def test_wedge_bigraded_commutation_randomized():
    rng = random.Random(301)
    for _ in range(40):
        a = random_homogeneous_form(rng, CHART, 2, rng.randint(0, 2), rng.choice(list(Parity)))
        b = random_homogeneous_form(rng, CHART, 2, rng.randint(0, 2), rng.choice(list(Parity)))
        p, pa = form_degree_parity(a)
        q, pb = form_degree_parity(b)
        sign = (-1) ** (p * q + pa * pb)
        assert a.wedge(b) == (b.wedge(a) if sign == 1 else -b.wedge(a))


def test_wedge_associativity_randomized():
    rng = random.Random(302)
    for _ in range(20):
        a = random_form(rng, CHART, 2, 2, 1)
        b = random_form(rng, CHART, 2, 2, 1)
        c = random_form(rng, CHART, 2, 2, 1)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


# -- exterior derivative ---------------------------------------------------


def test_differential_of_function_examples():
    f = Fraction(1, 2) * coord("q", 1) ** 2
    assert differential_of_function(f) == d("q", 1).scale(coord("q", 1))
    g = coord("th", 0) * coord("th", 1)
    expected = d("th", 0).scale(-coord("th", 1)) + d("th", 1).scale(coord("th", 0))
    assert differential_of_function(g) == expected


def test_exterior_d_squares_to_zero_randomized():
    rng = random.Random(303)
    for _ in range(40):
        form = random_form(rng, CHART, 2, 3, rng.randint(0, 2))
        assert exterior_d(exterior_d(form)).is_zero()


def test_exterior_d_on_odd_coordinate_one_form():
    # d(th0 d th0) = d th0 ^ d th0, which does not vanish
    form = d("th", 0).scale(coord("th", 0))
    assert exterior_d(form) == d("th", 0).wedge(d("th", 0))


def test_exterior_d_graded_leibniz_randomized():
    rng = random.Random(304)
    for _ in range(30):
        p = rng.randint(0, 2)
        a = random_homogeneous_form(rng, CHART, 2, p, rng.choice(list(Parity)))
        b = random_form(rng, CHART, 2, 2, rng.randint(0, 2))
        sign = (-1) ** p
        assert exterior_d(a.wedge(b)) == exterior_d(a).wedge(b) + (
            a.wedge(exterior_d(b)) if sign == 1 else -a.wedge(exterior_d(b))
        )


# -- total derivative on forms ---------------------------------------------


def test_form_total_derivative_examples():
    form = d("q", 0).scale(coord("q", 1))
    assert form_total_derivative(form) == d("q", 0).scale(coord("q", 2)) + d(
        "q", 1
    ).scale(coord("q", 1))


def test_form_total_derivative_commutes_with_d_randomized():
    rng = random.Random(305)
    for _ in range(30):
        form = random_form(rng, CHART, 2, 3, rng.randint(0, 2))
        assert form_total_derivative(exterior_d(form)) == exterior_d(
            form_total_derivative(form)
        )


def test_form_total_derivative_wedge_leibniz_randomized():
    rng = random.Random(306)
    for _ in range(20):
        a = random_form(rng, CHART, 2, 2, rng.randint(0, 2))
        b = random_form(rng, CHART, 2, 2, rng.randint(0, 2))
        assert form_total_derivative(a.wedge(b)) == form_total_derivative(a).wedge(
            b
        ) + a.wedge(form_total_derivative(b))


def test_form_total_derivative_drops_even_squares_of_shifted_letters():
    # shifting the first letter of d(q[0])^d(q[1]) meets its successor:
    # the even square vanishes, while the odd square d(th[1])^d(th[1]) stays
    even = form_total_derivative(d("q", 0).wedge(d("q", 1)))
    assert (gen("q", 1), gen("q", 1)) not in dict(even.items())
    assert even == d("q", 0).wedge(d("q", 2))
    odd = form_total_derivative(d("th", 0).wedge(d("th", 1)))
    assert odd.coefficient((gen("th", 1), gen("th", 1))) == SuperExpr.constant(1)
    assert odd == d("th", 1).wedge(d("th", 1)) + d("th", 0).wedge(d("th", 2))


def test_form_total_derivative_agrees_on_functions():
    rng = random.Random(307)
    for _ in range(10):
        f = random_expr(rng, CHART, 2, 3, 3)
        assert form_total_derivative(GradedForm({(): f})) == (
            GradedForm({(): total_derivative(f)})
        )


# -- linear operations against a word-by-word reference -------------------

FUNCTION_LETTERS = [gen("q", 0), gen("q", 1), gen("th", 0), gen("th", 1)]
SCALARS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
RAW_TERMS = st.lists(
    st.tuples(SCALARS, st.lists(st.sampled_from(FUNCTION_LETTERS), max_size=3)), max_size=3
)
FUNCTIONS = RAW_TERMS.map(normalize)
# a function with at least one term odd in the generators
ODD_FUNCTIONS = st.tuples(
    RAW_TERMS, SCALARS.filter(bool), st.sampled_from([gen("th", 0), gen("th", 1)]),
    st.lists(st.sampled_from([gen("q", 0), gen("q", 1)]), max_size=2),
).map(lambda t: normalize(t[0] + [(t[1], [t[2], *t[3]])]))


def canonical_word(letters):
    """The sorted word, or None when an even letter repeats."""
    word = tuple(sorted(letters, key=lambda g: g.sort_key))
    if any(a is b and a.parity is Parity.EVEN for a, b in zip(word, word[1:])):
        return None
    return word


WORDS = st.lists(st.sampled_from(LETTERS), max_size=3).map(canonical_word).filter(
    lambda word: word is not None
)
# forms built straight from canonical words, not through the operations tested
FORMS = st.dictionaries(WORDS, FUNCTIONS, max_size=4).map(GradedForm)


def word_by_word(rule, *forms):
    """The form whose coefficient on each word is ``rule`` of the operands'
    coefficients on that word."""
    words = {word for form in forms for word, _ in form.items()}
    return GradedForm({w: rule(*(form.coefficient(w) for form in forms)) for w in words})


@settings(max_examples=100, deadline=None)
@given(FORMS, FORMS, FORMS, ODD_FUNCTIONS)
def test_linear_form_operations_match_the_word_by_word_reference(a, b, c, f):
    assert a + b == word_by_word(lambda x, y: x + y, a, b)
    assert a - b == word_by_word(lambda x, y: x - y, a, b)
    assert -a == word_by_word(lambda x: -x, a)
    assert GradedForm.sum([a, b, c]) == word_by_word(lambda x, y, z: x + y + z, a, b, c)
    assert a.scale(f) == word_by_word(lambda x: f * x, a)
    assert (a - a).items() == []


def two_pass_cartan(form, k):
    """The Cartan combination in two passes, the reference for its one
    accumulator: each level scaled by (-1)^(l+1)/l!, then the levels
    summed, both word by word."""
    pieces = []
    transposed = form
    factorial = 1
    for l in range(1, k + 1):
        factorial *= l
        piece = transposed = transpose_vertical(transposed, k)
        for _ in range(l - 1):
            piece = form_total_derivative(piece)
        weight = SuperExpr.constant(Fraction((-1) ** (l + 1), factorial))
        pieces.append(word_by_word(lambda x: weight * x, piece))
    return word_by_word(lambda *xs: SuperExpr.sum(xs), *pieces)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_cartan_operator_matches_the_two_pass_rule(k, rng):
    lag = random_expr(rng, CHART, k, 3, 4, Parity.EVEN)
    dl = exterior_d(lag)
    assert cartan_operator(dl, k) == two_pass_cartan(dl, k)


# -- interior products -----------------------------------------------------


def field_on(order, components, parity=None):
    chart = CHART.at_order(order)
    return VectorFieldAlong(chart, order, order, components, parity)


def test_interior_on_one_forms():
    x = field_on(1, {gen("q", 0): coord("q", 1)})
    assert interior(x, d("q", 0)).coefficient(()) == coord("q", 1)
    assert interior(x, d("q", 1)).is_zero()
    # odd field against an odd coefficient picks up the Koszul sign
    y = field_on(1, {gen("th", 0): SuperExpr.constant(1)}, Parity.ODD)
    form = d("th", 0).scale(coord("th", 1))
    assert interior(y, form).coefficient(()) == -coord("th", 1)


def test_interior_is_a_graded_derivation_randomized():
    rng = random.Random(308)
    for _ in range(40):
        a = random_homogeneous_form(rng, CHART, 2, rng.randint(1, 2), rng.choice(list(Parity)))
        b = random_homogeneous_form(rng, CHART, 2, rng.randint(1, 2), rng.choice(list(Parity)))
        x = random_field(rng, CHART, 2, 2, rng.choice(list(Parity)), max_degree=1)
        if x is None:
            continue
        p, pa = form_degree_parity(a)
        sign = (-1) ** (p + x.parity.value * pa)
        assert interior(x, a.wedge(b)) == interior(x, a).wedge(b) + (
            a.wedge(interior(x, b)) if sign == 1 else -a.wedge(interior(x, b))
        )


def test_interior_products_anticommute_randomized():
    rng = random.Random(309)
    for _ in range(30):
        form = random_form(rng, CHART, 2, 2, 2)
        x = random_field(rng, CHART, 2, 2, rng.choice(list(Parity)), max_degree=1)
        y = random_field(rng, CHART, 2, 2, rng.choice(list(Parity)), max_degree=1)
        if x is None or y is None:
            continue
        sign = (-1) ** (x.parity.value * y.parity.value)
        lhs = interior(x, interior(y, form))
        rhs = interior(y, interior(x, form))
        assert (lhs + (rhs if sign == 1 else -rhs)).is_zero()


def test_interior_on_repeated_odd_differentials():
    chart = Chart.create(["q"], ["th"], 1)
    q0, th0 = chart.gen("q", 0), chart.gen("th", 0)
    one = SuperExpr.constant(1)
    x = VectorFieldAlong(chart, 1, 1, {th0: one})
    assert str(interior(x, GradedForm.term(one, [th0, th0]))) == "2*d(th[0])"
    form = GradedForm.term(chart.coord("th", 1), [q0, th0, th0])
    odd = VectorFieldAlong(chart, 1, 1, {q0: chart.coord("th", 1), th0: chart.coord("q", 1)})
    assert str(interior(odd, form)) == "2*q[1]*th[1]*d(q[0])^d(th[0])"
    even = VectorFieldAlong(chart, 1, 1, {q0: chart.coord("q", 1), th0: chart.coord("th", 1)})
    assert str(interior(even, form)) == "q[1]*th[1]*d(th[0])^d(th[0])"


def test_interior_of_function_evaluates_the_field():
    rng = random.Random(310)
    x = random_field(rng, CHART, 2, 2, Parity.EVEN)
    f = random_expr(rng, CHART, 2, 2, 3)
    assert interior(x, differential_of_function(f)).coefficient(()) == x.apply(f)


# -- vertical transpose and the momentum operator --------------------------


def test_transpose_vertical_examples():
    assert transpose_vertical(d("q", 0), 2).is_zero()
    assert transpose_vertical(d("q", 1), 2) == d("q", 0)
    assert transpose_vertical(d("q", 2), 2) == d("q", 1).scale(2)
    assert transpose_vertical(d("th", 1), 2) == d("th", 0)
    # coefficients ride along untouched
    form = d("q", 2).scale(coord("q", 1))
    assert transpose_vertical(form, 2) == d("q", 1).scale(2 * coord("q", 1))


def test_cartan_operator_first_order_is_vertical_transpose():
    lag = Fraction(1, 2) * coord("q", 1) ** 2 - Fraction(1, 2) * coord("q", 0) ** 2
    theta = cartan_operator(exterior_d(GradedForm({(): lag})), 1)
    assert theta == d("q", 0).scale(coord("q", 1))


def test_cartan_operator_second_order_example():
    lag = Fraction(1, 2) * coord("q", 2) ** 2
    theta = cartan_operator(exterior_d(GradedForm({(): lag})), 2)
    assert theta == d("q", 0).scale(-coord("q", 3)) + d("q", 1).scale(coord("q", 2))


# -- semibasic one-forms and pairing ---------------------------------------


def test_semibasic_check_components():
    form = d("q", 0).scale(coord("q", 1)) + d("th", 0).scale(coord("th", 1))
    check = semibasic_check(form, 0)
    assert check.component(gen("q", 0)) == coord("q", 1)
    assert check.component(gen("th", 0)) == coord("th", 1)
    assert check.component(gen("q", 1)).is_zero()


def test_semibasic_check_rejects_higher_differentials():
    with pytest.raises(NotSemibasic):
        semibasic_check(d("q", 1), 0)


def test_semibasic_check_rejects_wrong_degree():
    with pytest.raises(FormError):
        semibasic_check(d("q", 0).wedge(d("q", 1)), 0)


def test_pair_agrees_with_interior():
    rng = random.Random(311)
    k = 3
    for _ in range(25):
        l = rng.randint(0, 1)
        r = rng.randint(l, k - l)
        x = random_field(rng, CHART, 0, 0, rng.choice(list(Parity)))
        if x is None:
            continue
        form = GradedForm.zero()
        for g in CHART.at_order(l).coordinates():
            form = form + GradedForm.differential(g).scale(random_expr(rng, CHART, r, 2, 2))
        if form.is_zero():
            continue
        semibasic_check(form, l)
        lhs = interior(lift_vector_field(x, k), form).coefficient(())
        lifted = lift_vector_field(x, l)
        wide = VectorFieldAlong(CHART, lifted.source_order, r + l, lifted.components, lifted.parity)
        rhs = interior(wide, form).coefficient(())
        assert lhs == rhs


def test_pair_koszul_sign():
    x = VectorFieldAlong(
        CHART, 0, 1, {gen("q", 0): coord("th", 0), gen("th", 0): SuperExpr.constant(1)},
        Parity.ODD,
    )
    form = d("q", 0).scale(coord("th", 1))
    # odd coefficient against an odd field: the contraction flips the sign
    assert interior(x, form).coefficient(()) == -(coord("th", 1) * coord("th", 0))
