"""Parsing, validation, and round-tripping of problem files."""

from fractions import Fraction
from pathlib import Path

import math

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from supermech import (
    Chart,
    GrassmannValue,
    IndexOutOfRange,
    Parity,
    ProblemSyntaxError,
    UnknownCoordinate,
    format_problem,
    parse_expression,
    parse_problem,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "problems"

SUPERPARTICLE = """
order 1;
even q;
odd th;
L = 1/2*q[1]^2 + 1/2*th[0]*th[1];

symmetry susy {
    q -> th[0];
    th -> -q[1];
}

simulate {
    n = 2;
    dt = 0.001;
    t = 1.0;
    init q[1] = 1.0;
    init th[0] = 1.0*g[0];
}
"""


# -- happy path ------------------------------------------------------------


def test_parse_superparticle():
    problem = parse_problem(SUPERPARTICLE)
    assert problem.order == 1
    assert problem.even_names == ("q",)
    assert problem.odd_names == ("th",)
    chart = problem.chart
    assert problem.lagrangian_expr == (
        Fraction(1, 2) * chart.coord("q", 1) ** 2
        + Fraction(1, 2) * chart.coord("th", 0) * chart.coord("th", 1)
    )
    lag = problem.lagrangian()
    assert lag.order == 1
    field = problem.symmetry_field("susy")
    assert field.parity is Parity.ODD
    assert field.component(chart.gen("q", 0)) == chart.coord("th", 0)
    sim = problem.simulation
    assert sim is not None
    assert (sim.directions, sim.dt, sim.t_end) == (2, 0.001, 1.0)
    state = problem.initial_state()
    assert state.get(chart.gen("q", 1)) == GrassmannValue.scalar(1.0, 2)
    assert state.get(chart.gen("th", 0)) == GrassmannValue.direction(0, 2)
    # unlisted coordinates default to zero
    assert state.get(chart.gen("q", 0)) == GrassmannValue.scalar(0.0, 2)


def test_declarations_may_precede_the_order():
    problem = parse_problem("even q; order 2; L = 1/2*q[2]^2;")
    assert problem.order == 2
    assert problem.lagrangian().order == 2


def test_comments_and_whitespace_are_ignored():
    text = "# heading\norder 1;  # trailing\neven q;\nL = q[1]^2; # done\n"
    assert parse_problem(text).lagrangian_expr == (
        Chart.create(["q"], [], 1).coord("q", 1) ** 2
    )


def test_expression_grammar():
    chart = Chart.create(["q"], [], 2)
    q0, q1 = chart.coord("q", 0), chart.coord("q", 1)
    assert parse_expression("-(q[0] - q[1])^2/2", chart, 2) == (
        -Fraction(1, 2) * (q0 - q1) ** 2
    )
    assert parse_expression("2/3*q[0]", chart, 2) == Fraction(2, 3) * q0
    assert parse_expression("q[0]*(1 + q[1])", chart, 2) == q0 + q0 * q1


def test_shipped_example_files_parse():
    for path in sorted(EXAMPLES.glob("*.sm")):
        problem = parse_problem(path.read_text())
        assert problem.lagrangian() is not None


def test_format_round_trip():
    for text in (SUPERPARTICLE, "order 2;\neven q;\nL = q[2]^2;"):
        problem = parse_problem(text)
        again = parse_problem(format_problem(problem))
        assert again == problem
    for path in sorted(EXAMPLES.glob("*.sm")):
        problem = parse_problem(path.read_text())
        assert parse_problem(format_problem(problem)) == problem


# -- rejections ------------------------------------------------------------


def error_of(text):
    with pytest.raises(Exception) as info:
        parse_problem(text)
    return info.value


def test_floats_rejected_in_coordinate_expressions():
    err = error_of("order 1; even q; L = 0.5*q[1]^2;")
    assert isinstance(err, ProblemSyntaxError)
    assert "rationals" in str(err)
    assert err.line == 1 and err.column == 22


def test_reserved_words_cannot_name_coordinates():
    err = error_of("order 1; even dt; L = 1;")
    assert isinstance(err, ProblemSyntaxError)
    assert "reserved" in str(err)


def test_unknown_coordinate_and_bad_index():
    err = error_of("order 1; even q; L = x[0];")
    assert isinstance(err, UnknownCoordinate)
    err = error_of("order 1; even q; L = q[2];")
    assert isinstance(err, IndexOutOfRange)
    # the Lagrangian may not look above order k even though the symmetry can
    err = error_of("order 2; even q; L = q[3];")
    assert isinstance(err, IndexOutOfRange)


def test_symmetry_indices_run_to_2k_minus_1():
    text = "order 2; even q; L = 1/2*q[2]^2; symmetry s { q -> q[3]; }"
    problem = parse_problem(text)
    assert problem.symmetry_field("s") is not None
    err = error_of("order 2; even q; L = 1/2*q[2]^2; symmetry s { q -> q[4]; }")
    assert isinstance(err, IndexOutOfRange)


def test_duplicate_statements_rejected():
    assert "duplicate" in str(error_of("order 1; order 2; even q; L = 1;"))
    assert "duplicate" in str(error_of("order 1; even q; L = 1; L = 2;"))
    assert "already declared" in str(error_of("order 1; even q; odd q; L = 1;"))
    assert "duplicate" in str(
        error_of("order 1; even q; L = 1; symmetry s { q -> 1; } symmetry s { q -> 1; }")
    )


def test_missing_pieces_rejected():
    assert "missing order" in str(error_of("even q;"))
    assert "missing Lagrangian" in str(error_of("order 1; even q;"))
    assert "declare the order" in str(error_of("even q; L = q[0];"))
    assert "coordinate first" in str(error_of("order 1; L = 1;"))


def test_division_by_non_constants_rejected():
    err = error_of("order 1; even q; L = q[1]/q[0];")
    assert "nonzero constants" in str(err)
    err = error_of("order 1; even q; L = q[1]/0;")
    assert "nonzero constants" in str(err)


def test_simulate_block_validation():
    base = "order 1; even q; L = 1/2*q[1]^2; simulate { %s }"
    assert "needs dt and t" in str(error_of(base % "n = 0;"))
    assert "at most 8" in str(error_of(base % "n = 9; dt = 0.1; t = 1.0;"))
    assert "dt must be positive" in str(error_of(base % "dt = -0.1; t = 1.0;"))
    assert "t must be positive" in str(error_of(base % "dt = 0.1; t = -1.0;"))
    assert "unknown simulate entry" in str(error_of(base % "steps = 7;"))
    err = error_of(base % "n = 1; dt = 0.1; t = 1.0; init q[0] = 1.0*g[1];")
    assert isinstance(err, IndexOutOfRange)
    err = error_of(base % "n = 2; dt = 0.1; t = 1.0; init q[0] = 1.0*g[0];")
    assert "support" in str(err)


def test_simulate_entries_appear_once():
    base = "order 1; even q; L = 1/2*q[1]^2; simulate { %s }"
    for entries, second in [
        ("n = 2; n = 3; dt = 0.1; t = 1.0;", "n = 3"),
        ("n = 2; dt = 0.1; dt = 0.2; t = 1.0;", "dt = 0.2"),
        ("dt = 0.1; t = 1.0; n = 0; t = 1.0;", "t = 1.0"),
    ]:
        text = base % entries
        err = error_of(text)
        assert isinstance(err, ProblemSyntaxError)
        assert "duplicate simulate entry" in str(err)
        assert (err.line, err.column) == (1, text.rindex(second) + 1)


def test_initial_value_parity_error_points_at_its_entry():
    text = (
        "order 1; even q; L = 1/2*q[1]^2; simulate { n = 1; dt = 0.1; t = 0.1;"
        " init q[0] = 1.0*g[0]; }"
    )
    err = error_of(text)
    assert isinstance(err, ProblemSyntaxError)
    assert "must have even support" in str(err)
    assert (err.line, err.column) == (1, text.index("init") + 1)


def test_symmetry_parity_validation():
    err = error_of(
        "order 1; even q; odd th; L = 1/2*q[1]^2;"
        " symmetry s { q -> q[1]; th -> q[0]; }"
    )
    assert "mixes" in str(err)


def test_syntax_errors_carry_positions():
    err = error_of("order 1;\neven q;\nL = q[1] + ;\n")
    assert isinstance(err, ProblemSyntaxError)
    assert (err.line, err.column) == (3, 12)
    err = error_of("order 1; even q; L = q[1] $;")
    assert "unexpected character" in str(err)


def test_parse_expression_rejects_trailing_input():
    chart = Chart.create(["q"], [], 1)
    with pytest.raises(ProblemSyntaxError):
        parse_expression("q[0] q[1]", chart, 1)


def test_overlong_integer_literals_rejected():
    # longer digit strings would make int() raise instead of a parse error
    digits = "9" * 4301
    for text in (f"order 1; even q; L = q[1]^{digits};", f"order 1; even q; L = {digits}*q[1]^2;"):
        err = error_of(text)
        assert isinstance(err, ProblemSyntaxError)
        assert "4300 digits" in str(err)
    assert parse_problem(f"order 1; even q; L = {'9' * 4300}*q[1]^2;").order == 1


# -- initial values ----------------------------------------------------------

_INIT_PROBLEM = (
    "order 1; even q; odd th; L = 1/2*q[1]^2 + 1/2*th[0]*th[1];"
    " simulate {{ n = {n}; dt = 0.1; t = 1.0; init {gen} = {value}; }}"
)
_COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.sampled_from([1e308, -1e308, 2.0**1023]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _initial_values(draw):
    """A simulate block with one initial value: a sum of terms, each a
    number among directions that may repeat, come in any order (often a
    permutation of one shared list, so that sums cancel or overflow), or
    reach one past the last direction.  Returns the text, the coordinate,
    the directions, the terms and the text offsets of the direction
    indices."""
    directions = draw(st.integers(0, 8))
    gen = draw(st.sampled_from(["q[0]", "q[1]", "th[0]", "th[1]"]))
    top = directions - 1 if draw(st.integers(0, 2)) else directions
    index_lists = st.lists(st.integers(0, top), max_size=4) if top >= 0 else st.just([])
    shared = draw(index_lists)
    if draw(st.booleans()):
        index_lists = st.permutations(shared)
    head = _INIT_PROBLEM.format(n=directions, gen=gen, value="")[: -len("; }")]
    terms, offsets, text = [], [], ""
    for position in range(draw(st.integers(1, 5))):
        coeff = draw(_COEFFICIENTS)
        indices = draw(st.one_of(st.permutations(shared), index_lists))
        sign = "-" if math.copysign(1.0, coeff) < 0 else "+"
        text += sign if position == 0 else f" {sign} "
        place = draw(st.integers(0, len(indices)))
        factors = [f"g[{i}]" for i in indices]
        factors.insert(place, repr(abs(coeff)))
        for factor in factors:
            if factor.startswith("g["):
                offsets.append(len(head) + len(text) + 2)
            text += factor + "*"
        text = text[:-1]
        terms.append((coeff, indices))
    return _INIT_PROBLEM.format(n=directions, gen=gen, value=text), gen, directions, terms, offsets


def _summed_products(terms, directions: int) -> GrassmannValue:
    """Each term as a number times the product of its directions, summed
    in term order by the numeric layer's own arithmetic."""
    out = GrassmannValue(directions)
    with np.errstate(over="ignore", invalid="ignore"):
        for coeff, indices in terms:
            product = GrassmannValue.scalar(1.0, directions)
            for index in indices:
                product = product * GrassmannValue.direction(index, directions)
            out = out + coeff * product
    return out


@given(_initial_values())
def test_parsed_initial_values_match_the_numeric_layer(case):
    text, gen, directions, terms, offsets = case
    out_of_range = [
        (offset, index)
        for offset, index in zip(offsets, [i for _, indices in terms for i in indices])
        if index >= directions
    ]
    column = text.index("init") + 1
    if out_of_range:
        event("a direction out of range")
        offset, index = out_of_range[0]
        err = error_of(text)
        assert isinstance(err, IndexOutOfRange)
        assert str(err) == f"line 1, column {offset + 1}: direction g[{index}] needs directions > {index}"
        return
    expected = GrassmannValue.from_terms(terms, directions)
    assert expected.coeffs.tobytes() == _summed_products(terms, directions).coeffs.tobytes()
    parity = Parity.EVEN if gen.startswith("q") else Parity.ODD
    if not np.isfinite(expected.coeffs).all():
        event("a sum out of range")
        message = "number out of floating-point range"
    elif not expected.supports_parity(parity):
        event("the wrong parity")
        message = f"initial value for {gen} must have {parity} support"
    else:
        event("parsed")
        problem = parse_problem(text)
        state = problem.initial_state()
        chart = problem.chart
        name, index = gen[:-3], int(gen[-2])
        assert state.get(chart.gen(name, index)).coeffs.tobytes() == expected.coeffs.tobytes()
        written = format_problem(problem)
        again = parse_problem(written)
        assert again == problem
        assert format_problem(again) == written
        assert again.initial_state().get(chart.gen(name, index)) == expected
        return
    err = error_of(text)
    assert type(err) is ProblemSyntaxError
    assert str(err) == f"line 1, column {column}: {message}"
