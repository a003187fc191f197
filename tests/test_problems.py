"""Parsing, validation, and round-tripping of problem files."""

from fractions import Fraction
from pathlib import Path

import math
import re

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
from supermech.problems import MAX_NESTING, _kind, _position, _tokens

from helpers import grassmann_value, reference_expression
from test_cli_fuzz import problem_texts

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
    assert state.get(chart.gen("q", 1)) == grassmann_value([(1.0, [])], 2)
    assert state.get(chart.gen("th", 0)) == grassmann_value([(1.0, [0])], 2)
    # unlisted coordinates default to zero
    assert state.get(chart.gen("q", 0)) == GrassmannValue(2)


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


# -- expressions against the operator-by-operator reference -----------------

_REFERENCE_CHART = Chart.create(["q", "r"], ["th", "ps"], 1)
# odd coordinates are half of the draws, so products repeat them and
# put them out of order often
_COORDINATES = st.sampled_from(["q[0]", "q[1]", "r[1]", "th[0]", "th[1]", "ps[0]", "th[0]", "ps[1]"])
_SIGNS = st.sampled_from(["", "", "", "-", "+", "--", "-+"])


@st.composite
def _factor_texts(draw, depth: int):
    """Unary signs, an integer, a coordinate or (while ``depth`` lasts)
    a parenthesised expression, and a power that may be ``^0``."""
    kinds = ["integer", "coordinate", "coordinate"] + ["parenthesis"] * 2 * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "integer":
        atom = str(draw(st.integers(0, 5)))
    elif kind == "coordinate":
        atom = draw(_COORDINATES)
    else:
        atom = "(" + draw(_expression_texts(depth - 1)) + ")"
    power = draw(st.sampled_from(["", "", "", "^0", "^1", "^2"] + ["^3"] * (kind != "parenthesis")))
    return draw(_SIGNS) + atom + power


@st.composite
def _divisor_texts(draw):
    """A factor whose value is a nonzero constant."""
    over, under, plus = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    atom = draw(st.sampled_from([
        str(over),
        f"({over}/{under} + {plus})",
        f"(-{over} - {plus}*{under})",
        draw(_COORDINATES) + "^0",
    ]))
    power = "" if atom.endswith("^0") else draw(st.sampled_from(["", "^0", "^2"]))
    return draw(_SIGNS) + atom + power


@st.composite
def _expression_texts(draw, depth: int = 2):
    """A sum of 1-3 terms, each a product of 1-4 factors, some divided by
    integers or parenthesised constants."""
    text = ""
    for position in range(draw(st.integers(1, 3))):
        if position:
            text += draw(st.sampled_from([" + ", " - ", "+", "-"]))
        text += draw(_factor_texts(depth))
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.integers(0, 3)):
                text += draw(st.sampled_from(["*", " * "])) + draw(_factor_texts(depth))
            else:
                text += "/" + draw(_divisor_texts())
    return text


@given(_expression_texts())
def test_expressions_match_the_operator_by_operator_reference(text):
    expr = parse_expression(text, _REFERENCE_CHART, 1)
    event("zero" if expr.is_zero() else "nonzero")
    assert expr == reference_expression(text, _REFERENCE_CHART)


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
    # the scanner reports the first bad token of the text, before any
    # parse error and whatever follows it
    assert str(error_of("order 1; @ even q; L = q[1] $ @;")) == "line 1, column 10: unexpected character '@'"
    text = f"order 1; even q; L = {'9' * 4301}*q[1] $;"
    assert str(error_of(text)) == "line 1, column 22: integer literal longer than 4300 digits"
    assert str(error_of("order 1; even q; L = $ " + "9" * 4301)) == "line 1, column 22: unexpected character '$'"


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


def test_parentheses_and_signs_share_one_nesting_limit():
    chart = Chart.create(["q"], [], 1)
    half = MAX_NESTING // 2
    at_limit = "-(" * half + "q[0]" + ")" * half
    assert parse_expression(at_limit, chart, 1) == (-1) ** half * chart.coord("q", 0)
    # levels that close before the next opens do not add up
    assert parse_expression(" + ".join([at_limit] * 3), chart, 1) == 3 * (-1) ** half * chart.coord("q", 0)
    for over in ("(" + at_limit + ")", "+" + at_limit, at_limit.replace("q[0]", "-q[0]")):
        with pytest.raises(ProblemSyntaxError) as info:
            parse_expression(over, chart, 1)
        assert str(info.value) == (
            f"line 1, column {2 * half + 1}: parentheses and signs nested deeper"
            f" than the limit {MAX_NESTING}"
        )


# -- tokens ------------------------------------------------------------------

_COMMENTS = st.sampled_from(["", "#", "# note", "# q[1] -> { ; } # again", "#\t1/2*th[0]^2"])


@st.composite
def _commented_texts(draw):
    """A problem text from the command line grammar with indentation, blank
    lines, comment lines and trailing comments interleaved."""
    text = draw(problem_texts())[0]
    lines = []
    for line in text.split("\n"):
        lines += draw(st.lists(_COMMENTS, max_size=2))
        indent = draw(st.sampled_from(["", "  ", "\t"]))
        lines.append(indent + line + draw(st.sampled_from(["", " ", " # trailing"])))
    return "\n".join(lines)


@given(_commented_texts())
def test_every_token_points_at_its_text(text):
    tokens = _tokens(text)
    lines = text.split("\n")
    for token in tokens[:-1]:
        assert _kind(token) in ("INT", "FLOAT", "NAME", "ARROW", token)
    # each position costs a scan, as on an error: check about 40 of them
    for index in range(0, len(tokens) - 1, max(1, len(tokens) // 40)):
        line, column = _position(text, index)
        token = tokens[index]
        assert lines[line - 1][column - 1 : column - 1 + len(token)] == token
    assert tokens[-1] == "" and _kind("") == "EOF"
    assert _position(text, len(tokens) - 1) == (len(lines), len(lines[-1]) + 1)
    # only white space and comments fall between the tokens
    assert "".join(tokens) == "".join(re.sub("#[^\n]*", "", text).split())


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


def _summed_products(terms, directions: int) -> np.ndarray:
    """Each term as a number times the product of its directions, formed
    by the numeric layer's own product, and the terms summed in order."""
    out = np.zeros(1 << directions)
    with np.errstate(over="ignore", invalid="ignore"):
        for coeff, indices in terms:
            product = grassmann_value([(1.0, [])], directions)
            for index in indices:
                product = product * grassmann_value([(1.0, [index])], directions)
            out = out + product.coeffs * float(coeff)
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
    expected = grassmann_value(terms, directions)
    assert expected.coeffs.tobytes() == _summed_products(terms, directions).tobytes()
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
