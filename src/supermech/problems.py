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

The tokens come from one ``findall`` pass as plain strings, each with a
kind read from its first character; an error scans again for its line
and column.  A term of integers, coordinates, powers and divisions by
constants is collected as a coefficient and a list of powers
``(coordinate, exponent)``, and the terms of an expression are made
canonical once, together (``algebra.from_monomials``); only a factor in
parentheses is multiplied out with ``SuperExpr`` arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .algebra import (
    GeneratorSymbol,
    MixedParity,
    SuperExpr,
    from_monomials,
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
# deepest nesting of parentheses and unary signs, counted together; the
# parser descends recursively, so deeper input would exhaust the stack
MAX_NESTING = 100
# longest integer literal; Python refuses to convert longer digit strings
_MAX_INT_DIGITS = 4300

_RESERVED = {
    "order", "even", "odd", "L", "symmetry", "simulate",
    "init", "n", "dt", "t", "g",
}

# One match per token: the white space and comments in front of it, then
# the token itself, the one group.  A character no token starts with is a
# token of its own, and the end of the text an empty one, so every match
# ends on a token and the skip never gives characters back.
_TOKEN_RE = re.compile(
    r"""(?:\s+|\#[^\n]*)*
    ( ->
    | [0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)? | [0-9]+[eE][+-]?[0-9]+ | [0-9]+
    | [A-Za-z_][A-Za-z_0-9]*
    | .
    | \Z )""",
    re.VERBOSE | re.DOTALL,
)

# the kind of a token by its first character; a symbol is its own kind
_FIRST_KIND = {
    "": "EOF",
    **dict.fromkeys("0123456789", "INT"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME"),
    **{symbol: symbol for symbol in ";{}()[]+-*/^=,"},
}


def _tokens(text: str) -> list[str]:
    """The tokens of ``text`` as written, ending with the empty ``EOF``
    token: one ``findall`` pass."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        # after trailing white space the end matches once more, empty
        tokens.pop()
    return tokens


def _kind(token: str) -> str | None:
    """``INT``, ``FLOAT``, ``NAME``, ``ARROW``, ``EOF`` or the symbol
    itself; None for a character that no token starts with."""
    kind = _FIRST_KIND.get(token[:1])
    if kind == "INT" and not token.isdigit():
        return "FLOAT"
    if kind == "-" and token == "->":
        return "ARROW"
    return kind


# the kinds of the tokens every file shares, looked up without a call
_COMMON_KINDS = {
    token: _kind(token)
    for token in (*";{}()[]+-*/^=,", "->", "", *_RESERVED, *"0123456789")
}


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of the token numbered ``index`` in ``text``, found
    by scanning again; only an error needs it."""
    match = next(itertools.islice(_TOKEN_RE.finditer(text), index, None))
    offset = match.start(1)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


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
    """A parsed problem.  ``symmetries`` keeps each symmetry block's
    components as written, and ``symmetry_fields`` the field each one
    declares, built once when the parser checks its parity."""

    order: int
    even_names: tuple[str, ...]
    odd_names: tuple[str, ...]
    lagrangian_expr: SuperExpr
    symmetries: Mapping[str, Mapping[str, SuperExpr]]
    simulation: SimulationSpec | None
    symmetry_fields: Mapping[str, VectorFieldAlong] = field(compare=False, repr=False)

    @property
    def chart(self) -> Chart:
        return Chart.create(self.even_names, self.odd_names, self.order)

    def lagrangian(self) -> SuperLagrangian:
        return SuperLagrangian(self.chart, self.lagrangian_expr)

    def symmetry_field(self, name: str) -> VectorFieldAlong:
        return self.symmetry_fields[name]

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
    """A cursor over the tokens of one text: ``texts`` holds each token as
    written and ``kinds`` its kind, and ``pos`` indexes both.  An error
    finds its line and column from the token's index."""

    __slots__ = ("text", "texts", "kinds", "pos", "depth", "coords")

    def __init__(self, text: str):
        texts = _tokens(text)
        common = _COMMON_KINDS.get
        kind_of = {token: common(token) or _kind(token) for token in set(texts)}
        self.text = text
        bad = [
            token for token, kind in kind_of.items()
            if kind is None or (kind == "INT" and len(token) > _MAX_INT_DIGITS)
        ]
        if bad:
            # the first one in the text, as a scan from the start finds it
            index = min(map(texts.index, bad))
            token = texts[index]
            if kind_of[token] is None:
                raise self.error(f"unexpected character {token!r}", index)
            raise self.error(f"integer literal longer than {_MAX_INT_DIGITS} digits", index)
        self.texts = texts
        self.kinds = list(map(kind_of.__getitem__, texts))
        self.pos = 0
        self.depth = 0
        # (name, subscript as written) -> (generator, subscript)
        self.coords: dict[tuple[str, str], tuple[GeneratorSymbol, int]] = {}

    def error(
        self, message: str, index: int, kind: type[ProblemError] = ProblemSyntaxError
    ) -> ProblemError:
        return kind(message, *_position(self.text, index))

    def accept(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str) -> int:
        """The index of the current token, which must be of ``kind``;
        moves past it."""
        index = self.pos
        if self.kinds[index] != kind:
            found = self.texts[index] or "end of file"
            raise self.error(f"expected {kind!r}, found {found!r}", index)
        self.pos = index + 1
        return index

    def once(self, seen: set[object], key: object, index: int, what: str, *args: object) -> None:
        """Record ``key`` in ``seen``; a key already there is a duplicate
        ``what.format(*args)``, reported at the token ``index``."""
        if key in seen:
            raise self.error("duplicate " + what.format(*args), index)
        seen.add(key)

    def nested(self, depth: int, index: int) -> int:
        """``depth`` plus the level of parentheses or unary signs that the
        token ``index`` opens; the caller restores ``self.depth``."""
        if depth >= MAX_NESTING:
            raise self.error(
                f"parentheses and signs nested deeper than the limit {MAX_NESTING}", index
            )
        return depth + 1

    # -- coordinate expressions -------------------------------------------

    def parse_expr(self, chart: Chart, max_index: int) -> SuperExpr:
        """``term (('+' | '-') term)*``.  A term without parentheses is a
        monomial, and the monomials are made canonical together at the end;
        a term with a factor in parentheses is multiplied out."""
        kinds = self.kinds
        monomials: list[tuple[int, int, list[tuple[GeneratorSymbol, int]]]] = []
        products: list[SuperExpr] = []
        sign = 1
        while True:
            self.parse_term(sign, chart, max_index, monomials, products)
            kind = kinds[self.pos]
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                expr = from_monomials(monomials)
                return SuperExpr.sum([expr, *products]) if products else expr
            self.pos += 1

    def parse_term(
        self,
        sign: int,
        chart: Chart,
        max_index: int,
        monomials: list[tuple[int, int, list[tuple[GeneratorSymbol, int]]]],
        products: list[SuperExpr],
    ) -> None:
        """``factor (('*' | '/') factor)*`` times ``sign``, as a monomial
        ``num / den * factors`` appended to ``monomials``; a term with a
        factor in parentheses goes to ``products`` multiplied out, the
        factors before each parenthesis flushed into the product in order."""
        kinds = self.kinds
        num, den, factors = sign, 1, []
        product: SuperExpr | None = None
        while True:
            coeff, power, sub = self.parse_factor(chart, max_index)
            num *= coeff
            factors += power
            if sub is not None:
                head = from_monomials([(num, den, factors)])
                product = head * sub if product is None else product * head * sub
                num, den, factors = 1, 1, []
            while kinds[self.pos] == "/":
                slash = self.pos
                self.pos += 1
                coeff, power, sub = self.parse_factor(chart, max_index)
                constant = not power and (sub is None or sub.max_jet_order() < 0)
                if not constant or not coeff or (sub is not None and sub.is_zero()):
                    raise self.error("division is only defined by nonzero constants", slash)
                if sub is None:
                    over, under = coeff, 1
                else:
                    divisor = coeff * sub.constant_term()
                    over, under = divisor.numerator, divisor.denominator
                # divide by |over / under| and move the sign of over onto num
                num *= under if over > 0 else -under
                den *= abs(over)
            if kinds[self.pos] != "*":
                break
            self.pos += 1
        if product is None:
            monomials.append((num, den, factors))
        else:
            products.append(product * from_monomials([(num, den, factors)]))

    def parse_factor(
        self, chart: Chart, max_index: int
    ) -> tuple[int, list[tuple[GeneratorSymbol, int]], SuperExpr | None]:
        """``('+' | '-')* atom ('^' INT)?`` as ``(coefficient, powers,
        expression)``: an integer power, a coordinate's power as one
        ``(coordinate, exponent)`` (none at exponent 0), or a power of a
        parenthesised expression (else None), with the signs in the
        coefficient."""
        kinds, texts = self.kinds, self.texts
        pos = self.pos
        outer = depth = self.depth
        coeff = 1
        while kinds[pos] == "-" or kinds[pos] == "+":
            depth = self.nested(depth, pos)
            if kinds[pos] == "-":
                coeff = -coeff
            pos += 1
        kind = kinds[pos]
        value = 1
        power: list[tuple[GeneratorSymbol, int]] = []
        sub = None
        if kind == "INT":
            value = int(texts[pos])
            pos += 1
        elif kind == "NAME":
            self.pos = pos
            power.append((self.parse_coordinate(chart, max_index), 1))
            pos = self.pos
        elif kind == "(":
            self.depth = self.nested(depth, pos)
            self.pos = pos + 1
            sub = self.parse_expr(chart, max_index)
            self.expect(")")
            self.depth = outer
            pos = self.pos
        elif kind == "FLOAT":
            raise self.error(
                "floating literals are only allowed in the simulate block; use rationals", pos
            )
        else:
            raise self.error("expected a coordinate, an integer, or a parenthesis", pos)
        if kinds[pos] == "^":
            self.pos = pos + 1
            index = self.expect("INT")
            exponent = int(texts[index])
            if exponent > MAX_EXPONENT:
                raise self.error(
                    f"exponent {texts[index]} exceeds the limit {MAX_EXPONENT}", index
                )
            pos = index + 1
            if sub is not None:
                sub = sub**exponent
            elif power:
                power = [(power[0][0], exponent)] if exponent else []
            else:
                value **= exponent
        self.pos = pos
        return coeff * value, power, sub

    def parse_coordinate(self, chart: Chart, max_index: int) -> GeneratorSymbol:
        """``NAME '[' INT ']'``: a declared coordinate with a subscript up
        to ``max_index``, looked up in the chart once per parse."""
        kinds, texts = self.kinds, self.texts
        pos = self.pos
        if (
            kinds[pos] == "NAME" and kinds[pos + 1] == "["
            and kinds[pos + 2] == "INT" and kinds[pos + 3] == "]"
        ):
            found = self.coords.get((texts[pos], texts[pos + 2]))
            if found is not None and found[1] <= max_index:
                self.pos = pos + 4
                return found[0]
        name = texts[self.expect("NAME")]
        if name not in chart.base_names():
            raise self.error(f"coordinate {name!r} is not declared", pos, UnknownCoordinate)
        self.expect("[")
        index = self.expect("INT")
        self.expect("]")
        subscript = int(texts[index])
        if subscript > max_index:
            raise self.error(
                f"{name}[{subscript}] exceeds the allowed subscript {max_index}",
                index,
                IndexOutOfRange,
            )
        gen = chart.gen(name, subscript)
        self.coords[name, texts[index]] = gen, subscript
        return gen


def parse_problem(text: str) -> ProblemFile:
    parser = _Parser(text)
    kinds, texts = parser.kinds, parser.texts
    order: int | None = None
    even_names: list[str] = []
    odd_names: list[str] = []
    lagrangian: SuperExpr | None = None
    symmetries: dict[str, dict[str, SuperExpr]] = {}
    fields: dict[str, VectorFieldAlong] = {}
    simulation: SimulationSpec | None = None
    seen: set[object] = set()
    # the chart of order k and the one of order 2k-1, built again only
    # after a declaration
    charts: tuple[Chart, Chart] | None = None

    def charts_now(index: int) -> tuple[Chart, Chart]:
        nonlocal charts
        if charts is None:
            if order is None:
                raise parser.error("declare the order first", index)
            if not even_names and not odd_names:
                raise parser.error("declare at least one coordinate first", index)
            chart = Chart.create(even_names, odd_names, order)
            charts = chart, chart.at_order(2 * order - 1)
        return charts

    while True:
        start = parser.pos
        kind = kinds[start]
        if kind == "EOF":
            break
        if kind != "NAME":
            raise parser.error("expected a statement", start)
        keyword = texts[start]
        parser.pos = start + 1
        if keyword == "order":
            parser.once(seen, "order", start, "order statement")
            index = parser.expect("INT")
            order = int(texts[index])
            charts = None
            if order < 1:
                raise parser.error("the order must be at least 1", index)
            parser.expect(";")
        elif keyword in ("even", "odd"):
            bucket = even_names if keyword == "even" else odd_names
            while True:
                index = parser.expect("NAME")
                name = texts[index]
                if name in _RESERVED:
                    raise parser.error(f"{name!r} is reserved", index)
                if name in even_names or name in odd_names:
                    raise parser.error(f"coordinate {name!r} is already declared", index)
                bucket.append(name)
                charts = None
                if not parser.accept(","):
                    break
            parser.expect(";")
        elif keyword == "L":
            parser.once(seen, "L", start, "Lagrangian")
            chart, _ = charts_now(start)
            parser.expect("=")
            lagrangian = parser.parse_expr(chart, order)
            parser.expect(";")
        elif keyword == "symmetry":
            chart, wide = charts_now(start)
            at = parser.expect("NAME")
            name = texts[at]
            parser.once(seen, ("symmetry", name), at, "symmetry {!r}", name)
            parser.expect("{")
            entries: dict[str, SuperExpr] = {}
            while not parser.accept("}"):
                index = parser.expect("NAME")
                base = texts[index]
                if base not in chart.base_names():
                    raise parser.error(f"coordinate {base!r} is not declared", index, UnknownCoordinate)
                parser.once(seen, ("component", name, base), index, "component for {!r}", base)
                parser.expect("ARROW")
                entries[base] = parser.parse_expr(wide, 2 * order - 1)
                parser.expect(";")
            try:
                fields[name] = _symmetry_field(chart, order, entries)
            except (MixedParity, DomainMismatch) as exc:
                raise parser.error(f"symmetry {name!r} mixes parities: {exc}", at) from None
            symmetries[name] = entries
        elif keyword == "simulate":
            parser.once(seen, "simulate", start, "simulate block")
            simulation = _parse_simulate(parser, charts_now(start)[1])
        else:
            raise parser.error(f"unknown statement {keyword!r}", start)

    if order is None:
        raise parser.error("missing order statement", parser.pos)
    if lagrangian is None:
        raise parser.error("missing Lagrangian", parser.pos)
    return ProblemFile(
        order=order,
        even_names=tuple(even_names),
        odd_names=tuple(odd_names),
        lagrangian_expr=lagrangian,
        symmetries=symmetries,
        simulation=simulation,
        symmetry_fields=fields,
    )


def _symmetry_field(chart: Chart, order: int, entries: Mapping[str, SuperExpr]) -> VectorFieldAlong:
    """The field along the projection to the base that a symmetry block
    declares; raises ``MixedParity`` or ``DomainMismatch`` when its
    components do not share one parity."""
    components = {chart.gen(coord, 0): expr for coord, expr in entries.items()}
    return VectorFieldAlong(chart, 0, 2 * order - 1, components)


def _finite(value: int | float | str | Fraction, parser: _Parser, index: int) -> float:
    """``value`` as a finite float; anything out of floating-point range
    is a syntax error at the token ``index``."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise parser.error("number out of floating-point range", index)
    return number


def _parse_number(parser: _Parser) -> float:
    sign = 1.0
    if parser.accept("-"):
        sign = -1.0
    else:
        parser.accept("+")
    index = parser.pos
    kind = parser.kinds[index]
    if kind == "FLOAT":
        parser.pos += 1
        return sign * _finite(parser.texts[index], parser, index)
    if kind == "INT":
        parser.pos += 1
        numerator = int(parser.texts[index])
        if parser.accept("/"):
            under = parser.expect("INT")
            denominator = int(parser.texts[under])
            if denominator == 0:
                raise parser.error("division by zero", under)
            return sign * _finite(Fraction(numerator, denominator), parser, index)
        return sign * _finite(numerator, parser, index)
    raise parser.error("expected a number", index)


def _parse_simulate(parser: _Parser, wide: Chart) -> SimulationSpec:
    """A simulate block; ``wide`` is the chart of order 2k-1 that initial
    values may use."""
    texts = parser.texts
    open_brace = parser.expect("{")
    directions: int | None = None
    dt: float | None = None
    t_end: float | None = None
    raw_init: dict[GeneratorSymbol, tuple[int, list[tuple[float, list[int]]]]] = {}
    index_positions: list[tuple[int, int]] = []
    seen: set[object] = set()

    while not parser.accept("}"):
        key = parser.expect("NAME")
        entry = texts[key]
        if entry == "init":
            gen = parser.parse_coordinate(wide, wide.order)
            parser.once(seen, gen, key, "initial value for {}", gen)
        elif entry in ("n", "dt", "t"):
            parser.once(seen, entry, key, "simulate entry {!r}", entry)
        else:
            raise parser.error(f"unknown simulate entry {entry!r}", key)
        parser.expect("=")
        if entry == "n":
            index = parser.expect("INT")
            directions = int(texts[index])
            if directions > 8:
                raise parser.error("at most 8 odd directions are supported", index)
        elif entry == "dt":
            dt = _parse_number(parser)
            if dt <= 0:
                raise parser.error("dt must be positive", key)
        elif entry == "t":
            t_end = _parse_number(parser)
            if t_end <= 0:
                raise parser.error("t must be positive", key)
        else:
            raw_init[gen] = key, _parse_grassmann(parser, index_positions)
        parser.expect(";")

    if dt is None or t_end is None:
        raise parser.error("a simulate block needs dt and t", open_brace)
    if directions is None:
        directions = 0
    for direction, index in index_positions:
        if direction >= directions:
            raise parser.error(
                f"direction g[{direction}] needs directions > {direction}", index, IndexOutOfRange
            )
    init: dict[GeneratorSymbol, tuple[float, ...]] = {}
    for gen, (key, terms) in raw_init.items():
        coeffs = tuple(grassmann_coefficients(terms, directions))
        if not all(map(math.isfinite, coeffs)):
            raise parser.error("number out of floating-point range", key)
        # the subsets of the other parity must be empty
        if any(map(coeffs.__getitem__, _masks_of_parity(directions, 1 - gen.sort_key[0]))):
            raise parser.error(f"initial value for {gen} must have {gen.parity} support", key)
        init[gen] = coeffs
    return SimulationSpec(directions=directions, dt=dt, t_end=t_end, init=init)


@functools.cache
def _masks_of_parity(directions: int, parity: int) -> tuple[int, ...]:
    """The subset bitmasks of ``directions`` odd directions with an even
    (``parity`` 0) or odd (1) number of elements."""
    return tuple(mask for mask in range(1 << directions) if mask.bit_count() % 2 == parity)


def _parse_grassmann(
    parser: _Parser, index_positions: list[tuple[int, int]]
) -> list[tuple[float, list[int]]]:
    """One sum of products of numbers and odd directions ``g[i]``; each
    direction is recorded in ``index_positions`` with its token index."""
    kinds, texts = parser.kinds, parser.texts
    terms: list[tuple[float, list[int]]] = []
    pos = parser.pos
    sign = 1.0
    if kinds[pos] == "-" or kinds[pos] == "+":
        sign = -1.0 if kinds[pos] == "-" else 1.0
        pos += 1
    while True:
        coeff = sign
        indices: list[int] = []
        first = True
        while True:
            kind = kinds[pos]
            if kind == "FLOAT" or kind == "INT":
                coeff = _finite(coeff * _finite(texts[pos], parser, pos), parser, pos)
                pos += 1
            elif kind == "NAME" and texts[pos] == "g":
                parser.pos = pos + 1
                parser.expect("[")
                index = parser.expect("INT")
                parser.expect("]")
                pos = parser.pos
                direction = int(texts[index])
                indices.append(direction)
                index_positions.append((direction, index))
            else:
                message = "expected a number or an odd direction g[i]" if first else "expected a factor"
                raise parser.error(message, pos)
            first = False
            kind = kinds[pos]
            if kind == "*":
                pos += 1
                continue
            if kind == "/":
                under = pos + 1
                if kinds[under] != "FLOAT" and kinds[under] != "INT":
                    raise parser.error("division is only defined by numbers", pos)
                value = _finite(texts[under], parser, under)
                if value == 0.0:
                    raise parser.error("division by zero", under)
                coeff = _finite(coeff / value, parser, under)
                pos = under + 1
                if kinds[pos] == "*":
                    pos += 1
                    continue
            break
        terms.append((coeff, indices))
        kind = kinds[pos]
        if kind == "+" or kind == "-":
            sign = 1.0 if kind == "+" else -1.0
            pos += 1
        else:
            parser.pos = pos
            return terms


def parse_expression(text: str, chart: Chart, max_index: int) -> SuperExpr:
    """Parse a standalone coordinate expression, e.g. a conserved quantity
    given on the command line."""
    parser = _Parser(text)
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
