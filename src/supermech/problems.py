"""Plain-text problem files: coordinates, a Lagrangian, optional symmetry
candidates, and an optional simulation block.

A file looks like::

    # superparticle
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

Coefficients in coordinate expressions are exact rationals (integers and
quotients of integers); floating literals are only meaningful in the
simulate block.  Derivative subscripts are bounded by the declared order:
the Lagrangian may use subscripts up to k, symmetry components and
initial data up to 2k-1.  Every error carries a line and column.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .algebra import (
    GeneratorSymbol,
    MixedParity,
    SuperExpr,
    grassmann_coefficients,
    scaled,
    signed_sum,
)
from .jets import Chart, DomainMismatch, VectorFieldAlong
from .lagrangian import SuperLagrangian

if TYPE_CHECKING:
    from .numeric import NumericState


class ProblemError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ProblemSyntaxError(ProblemError):
    pass


class UnknownCoordinate(ProblemError):
    pass


class IndexOutOfRange(ProblemError):
    pass


# largest power after ``^``; a power expands by repeated multiplication
MAX_EXPONENT = 64
# longest integer literal; Python refuses to convert longer digit strings
_MAX_INT_DIGITS = 4300

_RESERVED = {
    "order", "even", "odd", "L", "symmetry", "simulate",
    "init", "n", "dt", "t", "g",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>\#[^\n]*)
    | (?P<FLOAT>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<INT>\d+)
    | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<ARROW>->)
    | (?P<SYMBOL>[;{}()\[\]+\-*/^=,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    column = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ProblemSyntaxError(f"unexpected character {text[pos]!r}", line, column)
        kind = match.lastgroup or ""
        chunk = match.group()
        if kind == "INT" and len(chunk) > _MAX_INT_DIGITS:
            raise ProblemSyntaxError(
                f"integer literal longer than {_MAX_INT_DIGITS} digits", line, column
            )
        if kind not in ("WS", "COMMENT"):
            token_kind = chunk if kind == "SYMBOL" else kind
            tokens.append(_Token(token_kind, chunk, line, column))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            column = len(chunk) - chunk.rfind("\n")
        else:
            column += len(chunk)
        pos = match.end()
    tokens.append(_Token("EOF", "", line, column))
    return tokens


@dataclass(frozen=True)
class SimulationSpec:
    """A simulate block.  ``init`` maps each coordinate given an initial
    value to its ``2**directions`` float coefficients, indexed by subset
    bitmask as in ``GrassmannValue.coeffs``; the file parses without
    loading the numeric layer, and ``ProblemFile.initial_state`` builds the
    Grassmann values."""

    directions: int
    dt: float
    t_end: float
    init: Mapping[GeneratorSymbol, tuple[float, ...]]


@dataclass(frozen=True)
class ProblemFile:
    order: int
    even_names: tuple[str, ...]
    odd_names: tuple[str, ...]
    lagrangian_expr: SuperExpr
    symmetries: Mapping[str, Mapping[str, SuperExpr]]
    simulation: SimulationSpec | None

    @property
    def chart(self) -> Chart:
        return Chart.create(self.even_names, self.odd_names, self.order)

    def lagrangian(self) -> SuperLagrangian:
        return SuperLagrangian(self.chart, self.lagrangian_expr)

    def symmetry_field(self, name: str) -> VectorFieldAlong:
        return _symmetry_field(self.chart, self.order, self.symmetries[name])

    def initial_state(self) -> NumericState:
        """The state at time 0: every coordinate up to order 2k-1, zero
        where the simulate block gives no value."""
        from .numeric import GrassmannValue, NumericState

        if self.simulation is None:
            raise ValueError("the problem file has no simulate block")
        sim = self.simulation
        values = {
            gen: GrassmannValue(sim.directions, sim.init.get(gen))
            for gen in self.chart.at_order(2 * self.order - 1).coordinates()
        }
        return NumericState(0.0, values, sim.directions)


class _Parser:
    def __init__(self, tokens: Sequence[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            found = token.text or "end of file"
            raise ProblemSyntaxError(
                f"expected {wanted!r}, found {found!r}", token.line, token.column
            )
        return self.advance()

    def fail(self, message: str) -> ProblemError:
        token = self.peek()
        return ProblemSyntaxError(message, token.line, token.column)

    def once(self, seen: set[object], key: object, token: _Token, what: str) -> None:
        """Record ``key`` in ``seen``; a key already there is a duplicate
        ``what``, reported at ``token``."""
        if key in seen:
            raise ProblemSyntaxError(f"duplicate {what}", token.line, token.column)
        seen.add(key)

    # -- coordinate expressions -------------------------------------------

    def parse_expr(self, chart: Chart, max_index: int) -> SuperExpr:
        expr = self.parse_term(chart, max_index)
        while True:
            if self.accept("+"):
                expr = expr + self.parse_term(chart, max_index)
            elif self.accept("-"):
                expr = expr - self.parse_term(chart, max_index)
            else:
                return expr

    def parse_term(self, chart: Chart, max_index: int) -> SuperExpr:
        value = self.parse_factor(chart, max_index)
        while True:
            if self.accept("*"):
                value = value * self.parse_factor(chart, max_index)
            elif (slash := self.accept("/")) is not None:
                divisor = self.parse_factor(chart, max_index)
                if divisor.max_jet_order() >= 0 or divisor.is_zero():
                    raise ProblemSyntaxError(
                        "division is only defined by nonzero constants",
                        slash.line,
                        slash.column,
                    )
                value = value / divisor.constant_term()
            else:
                return value

    def parse_factor(self, chart: Chart, max_index: int) -> SuperExpr:
        if self.accept("+"):
            return self.parse_factor(chart, max_index)
        if self.accept("-"):
            return -self.parse_factor(chart, max_index)
        atom = self.parse_atom(chart, max_index)
        if self.accept("^"):
            exponent = self.expect("INT")
            if int(exponent.text) > MAX_EXPONENT:
                message = f"exponent {exponent.text} exceeds the limit {MAX_EXPONENT}"
                raise ProblemSyntaxError(message, exponent.line, exponent.column)
            return atom ** int(exponent.text)
        return atom

    def parse_atom(self, chart: Chart, max_index: int) -> SuperExpr:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return SuperExpr.constant(int(token.text))
        if token.kind == "FLOAT":
            raise ProblemSyntaxError(
                "floating literals are only allowed in the simulate block; use rationals",
                token.line,
                token.column,
            )
        if token.kind == "NAME":
            return SuperExpr.generator(self.parse_coordinate(chart, max_index))
        if self.accept("("):
            expr = self.parse_expr(chart, max_index)
            self.expect(")")
            return expr
        raise self.fail("expected a coordinate, an integer, or a parenthesis")

    def parse_coordinate(self, chart: Chart, max_index: int) -> GeneratorSymbol:
        name = self.expect("NAME")
        if name.text not in chart.base_names():
            raise UnknownCoordinate(
                f"coordinate {name.text!r} is not declared", name.line, name.column
            )
        self.expect("[")
        index = self.expect("INT")
        self.expect("]")
        subscript = int(index.text)
        if subscript > max_index:
            raise IndexOutOfRange(
                f"{name.text}[{subscript}] exceeds the allowed subscript {max_index}",
                index.line,
                index.column,
            )
        return chart.gen(name.text, subscript)


def parse_problem(text: str) -> ProblemFile:
    parser = _Parser(_tokenize(text))
    order: int | None = None
    even_names: list[str] = []
    odd_names: list[str] = []
    lagrangian: SuperExpr | None = None
    symmetries: dict[str, dict[str, SuperExpr]] = {}
    simulation: SimulationSpec | None = None
    seen: set[object] = set()

    def chart_now(token: _Token) -> Chart:
        if order is None:
            raise ProblemSyntaxError("declare the order first", token.line, token.column)
        if not even_names and not odd_names:
            raise ProblemSyntaxError(
                "declare at least one coordinate first", token.line, token.column
            )
        return Chart.create(even_names, odd_names, order)

    while True:
        token = parser.peek()
        if token.kind == "EOF":
            break
        if token.kind != "NAME":
            raise parser.fail("expected a statement")
        keyword = token.text
        if keyword == "order":
            parser.advance()
            parser.once(seen, "order", token, "order statement")
            value = parser.expect("INT")
            order = int(value.text)
            if order < 1:
                raise ProblemSyntaxError("the order must be at least 1", value.line, value.column)
            parser.expect(";")
        elif keyword in ("even", "odd"):
            parser.advance()
            bucket = even_names if keyword == "even" else odd_names
            while True:
                name = parser.expect("NAME")
                if name.text in _RESERVED:
                    raise ProblemSyntaxError(
                        f"{name.text!r} is reserved", name.line, name.column
                    )
                if name.text in even_names or name.text in odd_names:
                    raise ProblemSyntaxError(
                        f"coordinate {name.text!r} is already declared", name.line, name.column
                    )
                bucket.append(name.text)
                if not parser.accept(","):
                    break
            parser.expect(";")
        elif keyword == "L":
            parser.advance()
            parser.once(seen, "L", token, "Lagrangian")
            chart = chart_now(token)
            parser.expect("=")
            lagrangian = parser.parse_expr(chart.at_order(order), order)
            parser.expect(";")
        elif keyword == "symmetry":
            parser.advance()
            chart = chart_now(token)
            name = parser.expect("NAME")
            parser.once(seen, ("symmetry", name.text), name, f"symmetry {name.text!r}")
            parser.expect("{")
            entries: dict[str, SuperExpr] = {}
            wide = chart.at_order(2 * order - 1)
            while not parser.accept("}"):
                base = parser.expect("NAME")
                if base.text not in chart.base_names():
                    raise UnknownCoordinate(
                        f"coordinate {base.text!r} is not declared", base.line, base.column
                    )
                parser.once(seen, ("component", name.text, base.text), base, f"component for {base.text!r}")
                parser.expect("ARROW")
                entries[base.text] = parser.parse_expr(wide, 2 * order - 1)
                parser.expect(";")
            try:
                _symmetry_field(chart, order, entries)
            except (MixedParity, DomainMismatch) as exc:
                raise ProblemSyntaxError(
                    f"symmetry {name.text!r} mixes parities: {exc}", name.line, name.column
                ) from None
            symmetries[name.text] = entries
        elif keyword == "simulate":
            parser.advance()
            parser.once(seen, "simulate", token, "simulate block")
            chart = chart_now(token)
            simulation = _parse_simulate(parser, chart, order)
        else:
            raise parser.fail(f"unknown statement {keyword!r}")

    last = parser.peek()
    if order is None:
        raise ProblemSyntaxError("missing order statement", last.line, last.column)
    if lagrangian is None:
        raise ProblemSyntaxError("missing Lagrangian", last.line, last.column)
    return ProblemFile(
        order=order,
        even_names=tuple(even_names),
        odd_names=tuple(odd_names),
        lagrangian_expr=lagrangian,
        symmetries=symmetries,
        simulation=simulation,
    )


def _symmetry_field(chart: Chart, order: int, entries: Mapping[str, SuperExpr]) -> VectorFieldAlong:
    """The field along the projection to the base that a symmetry block
    declares; raises ``MixedParity`` or ``DomainMismatch`` when its
    components do not share one parity."""
    components = {chart.gen(coord, 0): expr for coord, expr in entries.items()}
    return VectorFieldAlong(chart, 0, 2 * order - 1, components)


def _finite(value: int | float | str | Fraction, token: _Token) -> float:
    """``value`` as a finite float; anything out of floating-point range
    is a syntax error at ``token``."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ProblemSyntaxError(
            "number out of floating-point range", token.line, token.column
        )
    return number


def _parse_number(parser: _Parser) -> float:
    sign = 1.0
    if parser.accept("-"):
        sign = -1.0
    elif parser.accept("+"):
        pass
    token = parser.peek()
    if token.kind == "FLOAT":
        parser.advance()
        return sign * _finite(token.text, token)
    if token.kind == "INT":
        parser.advance()
        numerator = int(token.text)
        if parser.accept("/"):
            denominator = parser.expect("INT")
            if int(denominator.text) == 0:
                raise ProblemSyntaxError(
                    "division by zero", denominator.line, denominator.column
                )
            return sign * _finite(Fraction(numerator, int(denominator.text)), token)
        return sign * _finite(numerator, token)
    raise parser.fail("expected a number")


def _parse_simulate(parser: _Parser, chart: Chart, order: int) -> SimulationSpec:
    open_brace = parser.expect("{")
    directions: int | None = None
    dt: float | None = None
    t_end: float | None = None
    raw_init: dict[GeneratorSymbol, tuple[_Token, list[tuple[float, list[int]]]]] = {}
    index_positions: list[tuple[int, int, int]] = []
    seen: set[object] = set()

    while not parser.accept("}"):
        key = parser.expect("NAME")
        if key.text == "init":
            gen = parser.parse_coordinate(chart.at_order(2 * order - 1), 2 * order - 1)
            parser.once(seen, gen, key, f"initial value for {gen}")
        elif key.text in ("n", "dt", "t"):
            parser.once(seen, key.text, key, f"simulate entry {key.text!r}")
        else:
            raise ProblemSyntaxError(
                f"unknown simulate entry {key.text!r}", key.line, key.column
            )
        parser.expect("=")
        if key.text == "n":
            value = parser.expect("INT")
            directions = int(value.text)
            if directions > 8:
                raise ProblemSyntaxError(
                    "at most 8 odd directions are supported", value.line, value.column
                )
        elif key.text == "dt":
            dt = _parse_number(parser)
            if dt <= 0:
                raise ProblemSyntaxError("dt must be positive", key.line, key.column)
        elif key.text == "t":
            t_end = _parse_number(parser)
            if t_end <= 0:
                raise ProblemSyntaxError("t must be positive", key.line, key.column)
        else:
            raw_init[gen] = key, _parse_grassmann(parser, index_positions)
        parser.expect(";")

    if dt is None or t_end is None:
        raise ProblemSyntaxError(
            "a simulate block needs dt and t", open_brace.line, open_brace.column
        )
    if directions is None:
        directions = 0
    for index, line, column in index_positions:
        if index >= directions:
            raise IndexOutOfRange(
                f"direction g[{index}] needs directions > {index}", line, column
            )
    init: dict[GeneratorSymbol, tuple[float, ...]] = {}
    for gen, (key, terms) in raw_init.items():
        coeffs = tuple(_finite(coeff, key) for coeff in grassmann_coefficients(terms, directions))
        # the subsets of the other parity must be empty
        if any(coeff for mask, coeff in enumerate(coeffs) if mask.bit_count() % 2 != gen.parity.value):
            raise ProblemSyntaxError(
                f"initial value for {gen} must have {gen.parity} support", key.line, key.column
            )
        init[gen] = coeffs
    return SimulationSpec(directions=directions, dt=dt, t_end=t_end, init=init)


def _parse_grassmann(
    parser: _Parser, index_positions: list[tuple[int, int, int]]
) -> list[tuple[float, list[int]]]:
    """One sum of products of numbers and odd directions ``g[i]``."""
    terms: list[tuple[float, list[int]]] = []
    sign = 1.0
    if parser.accept("-"):
        sign = -1.0
    else:
        parser.accept("+")
    while True:
        coeff = sign
        indices: list[int] = []
        first = True
        while True:
            token = parser.peek()
            if token.kind in ("FLOAT", "INT"):
                parser.advance()
                coeff = _finite(coeff * _finite(token.text, token), token)
            elif token.kind == "NAME" and token.text == "g":
                parser.advance()
                parser.expect("[")
                index = parser.expect("INT")
                parser.expect("]")
                indices.append(int(index.text))
                index_positions.append((int(index.text), index.line, index.column))
            else:
                if first:
                    raise parser.fail("expected a number or an odd direction g[i]")
                raise parser.fail("expected a factor")
            first = False
            if parser.accept("*"):
                continue
            if (slash := parser.accept("/")) is not None:
                divisor = parser.peek()
                if divisor.kind not in ("FLOAT", "INT"):
                    raise ProblemSyntaxError(
                        "division is only defined by numbers", slash.line, slash.column
                    )
                parser.advance()
                value = _finite(divisor.text, divisor)
                if value == 0.0:
                    raise ProblemSyntaxError(
                        "division by zero", divisor.line, divisor.column
                    )
                coeff = _finite(coeff / value, divisor)
                if parser.accept("*"):
                    continue
            break
        terms.append((coeff, indices))
        if parser.accept("+"):
            sign = 1.0
        elif parser.accept("-"):
            sign = -1.0
        else:
            return terms


def parse_expression(text: str, chart: Chart, max_index: int) -> SuperExpr:
    """Parse a standalone coordinate expression, e.g. a conserved quantity
    given on the command line."""
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr(chart, max_index)
    parser.expect("EOF")
    return expr


def format_problem(problem: ProblemFile) -> str:
    """Render a problem back to its text form; parsing the result gives an
    equal structure."""
    lines: list[str] = [f"order {problem.order};"]
    if problem.even_names:
        lines.append(f"even {', '.join(problem.even_names)};")
    if problem.odd_names:
        lines.append(f"odd {', '.join(problem.odd_names)};")
    lines.append(f"L = {problem.lagrangian_expr};")
    for name, entries in problem.symmetries.items():
        lines.append("")
        lines.append(f"symmetry {name} {{")
        for base, expr in entries.items():
            lines.append(f"    {base} -> {expr};")
        lines.append("}")
    if problem.simulation is not None:
        sim = problem.simulation
        lines.append("")
        lines.append("simulate {")
        lines.append(f"    n = {sim.directions};")
        lines.append(f"    dt = {_format_float(sim.dt)};")
        lines.append(f"    t = {_format_float(sim.t_end)};")
        for gen in sorted(sim.init, key=lambda g: g.sort_key):
            lines.append(f"    init {gen} = {_format_grassmann(sim.init[gen], sim.directions)};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _format_float(value: float) -> str:
    text = repr(value)
    return text if ("." in text or "e" in text or "E" in text) else text + ".0"


def _format_grassmann(coeffs: Sequence[float], directions: int) -> str:
    terms = [
        scaled(
            _format_float(coeff),
            "*".join(f"g[{i}]" for i in range(directions) if mask >> i & 1),
            "*",
        )
        for mask, coeff in enumerate(coeffs)
        if coeff != 0.0
    ]
    return signed_sum(terms) if terms else "0.0"
