"""Grammar fuzzing of the command line: problem files written from the
grammar, valid and not, run through every command in-process.  Each run
must end with exit code 0, 1 or 2 and either a report on stdout or one
``supermech:`` line on stderr, never an exception.

Sizes stay small so that exact arithmetic keeps each example fast: at most
3 coordinates, order at most 2, exponents at most 3, at most 50 RK4 steps,
and charges of degree at most 2.  Some files carry bytes that are not
UTF-8, and some expressions nest parentheses or unary signs up to and past
the parser's limit.  The option values are drawn too: ``--emit``,
``--tol``, ``--trajectory-out`` (a file, a directory or a path in a
missing directory) and ``--from-charge`` charges that do not parse.  An
option value that argparse rejects prints its usage and then the one
line ``supermech <command>: error: ...``."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from supermech.cli import main
from supermech.problems import MAX_NESTING

EVENS = ("q", "r", "x")
ODDS = ("th", "ps", "chi")


def coefficients():
    return st.one_of(
        st.integers(-3, 3).map(str),
        st.tuples(st.integers(-3, 3), st.integers(1, 4)).map(lambda p: f"{p[0]}/{p[1]}"),
    )


@st.composite
def polynomial(draw, coords, max_index, max_factors, max_exponent):
    """A sum of 1-3 terms, each a coefficient times coordinates with
    subscripts up to ``max_index`` (now and then one past it)."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [draw(coefficients())]
        for _ in range(draw(st.integers(0, max_factors)) if coords else 0):
            name = draw(st.sampled_from(coords))
            index = draw(st.integers(0, max_index + (draw(st.integers(0, 9)) == 9)))
            exponent = draw(st.integers(1, max_exponent))
            factors.append(f"{name}[{index}]" + (f"^{exponent}" if exponent > 1 else ""))
        terms.append("*".join(factors))
    return " + ".join(terms)


@st.composite
def nested(draw, expr):
    """Now and then ``expr`` inside parentheses or unary signs, as deep as
    the parser allows, one level deeper, or deep enough to exhaust the
    stack of a recursive parser."""
    if draw(st.integers(0, 9)) != 9:
        return expr
    depth = draw(st.sampled_from([MAX_NESTING, MAX_NESTING + 1, 3000]))
    if draw(st.booleans()):
        return "(" * depth + expr + ")" * depth
    return "-" * (depth - 1) + "(" + expr + ")"


STEPS = st.sampled_from(["0.1", "0.05", "0.02", "1/10"])
TIMES = st.sampled_from(["0.1", "0.5", "1.0", "1/2"])
MALFORMED = st.sampled_from(["0", "-0.1", "1e999", "1/0", "0.123", "abc", "*", "1.0*g[0]"])
GRASSMANN = st.sampled_from(["1.0", "0.5*g[0]", "1.0*g[0]*g[1]", "0.5 - g[1]", "2*g[1]/4"])
GRASSMANN_MALFORMED = st.sampled_from(["-2*g[3]", "1/0", "1e999*g[0]", "*", "g[0]*", "1e200*1e200"])
CHARGE_MALFORMED = st.sampled_from(["", "*", "q[", "1/0", "zz[0]", "q[0]^99999", "th[0]*", "1e5"])
EMITS = st.sampled_from(["json", "latex", "xml", ""])
TOLERANCES = st.sampled_from(["1e-6", "0", "1e-18", "1/2", "nan", "-1", "inf", "tol"])
TRAJECTORIES = st.sampled_from(["trajectory.txt", ".", "missing/trajectory.txt"])


@st.composite
def simulate_block(draw, coords, order):
    entries = [f"n = {draw(st.integers(0, 3))};", f"dt = {draw(STEPS)};", f"t = {draw(TIMES)};"]
    for _ in range(draw(st.integers(0, 2)) if coords else 0):
        name = draw(st.sampled_from(coords))
        index = draw(st.integers(0, 2 * order))
        entries.append(f"init {name}[{index}] = {draw(GRASSMANN)};")
    if draw(st.booleans()):
        # malformed entries among the others, some dropped, some repeated
        entries += ["n = 9;", f"dt = {draw(MALFORMED)};", f"t = {draw(MALFORMED)};"]
        if coords:
            entries.append(f"init {coords[0]}[0] = {draw(GRASSMANN_MALFORMED)};")
        entries = draw(st.lists(st.sampled_from(entries), max_size=len(entries)))
    return "simulate { " + " ".join(entries) + " }"


@st.composite
def problem_texts(draw):
    """A problem file and the arguments of the commands to run on it."""
    order = draw(st.integers(1, 2))
    n_even = draw(st.integers(0, 3))
    n_odd = draw(st.integers(0, 3 - n_even))
    evens, odds = EVENS[:n_even], ODDS[:n_odd]
    coords = evens + odds
    lines = [f"order {order};"]
    if evens:
        lines.append(f"even {', '.join(evens)};")
    if odds:
        lines.append(f"odd {', '.join(odds)};")
    if draw(st.booleans()):
        lagrangian = draw(polynomial(coords, order, 2, 3))
    else:
        # a kinetic part and a potential: many of these systems are
        # regular, so the dynamics and the simulation run
        kinetic = [f"1/2*{x}[{order}]^2" for x in evens]
        kinetic += [f"1/2*{th}[{order - 1}]*{th}[{order}]" for th in odds]
        lagrangian = " + ".join(kinetic + [draw(polynomial(coords, order - 1, 2, 3))])
    lines.append(f"L = {draw(nested(lagrangian))};")
    names = draw(st.lists(st.sampled_from(["time", "s", "u"]), max_size=2, unique=True))
    for name in names:
        if name == "time":
            comps = [f"{c} -> {c}[1];" for c in coords]
        else:
            chosen = draw(st.lists(st.sampled_from(coords), max_size=len(coords), unique=True)) if coords else []
            comps = [f"{c} -> {draw(polynomial(coords, 2 * order - 1, 2, 2))};" for c in chosen]
        lines.append(f"symmetry {name} {{ {' '.join(comps)} }}")
    if not draw(st.integers(0, 3)) == 3:
        lines.append(draw(simulate_block(coords, order)))
    if draw(st.integers(0, 9)) == 9:
        # a statement repeated, or one left out
        line = draw(st.sampled_from(lines))
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), line)
        else:
            lines.remove(line)
    if draw(st.integers(0, 9)) == 9:
        charge = draw(CHARGE_MALFORMED)
    else:
        charge = draw(nested(draw(polynomial(coords, 2 * order - 1, 2, 1))))
    symmetry = draw(st.sampled_from(names + ["missing"]))
    options = draw(EMITS), draw(TOLERANCES), draw(TRAJECTORIES)
    return "\n".join(lines) + "\n", symmetry, charge, options


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# bytes that no UTF-8 text contains: a lone continuation byte, a sequence
# cut short, an encoded surrogate, an overlong encoding, a byte never used
NOT_UTF8 = st.sampled_from([b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf", b"\xff"])


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(problem_texts(), st.none() | st.tuples(NOT_UTF8, st.integers(min_value=0)))
def test_every_generated_problem_ends_with_a_report_or_one_message(example, damage):
    text, symmetry, charge, (emit, tol, trajectory) = example
    data = text.encode()
    if damage is not None:
        garbage, offset = damage
        offset %= len(data) + 1
        data = data[:offset] + garbage + data[offset:]
    with tempfile.TemporaryDirectory() as folder:
        path = str(Path(folder) / "problem.sm")
        Path(path).write_bytes(data)
        for argv in (
            ["derive", path],
            ["derive", path, "--emit", "latex"],
            ["noether", path, "--symmetry", symmetry],
            ["noether", path, f"--from-charge={charge}"],
            ["simulate", path],
            ["derive", path, f"--emit={emit}"],
            ["simulate", path, f"--tol={tol}", f"--trajectory-out={Path(folder) / trajectory}"],
        ):
            code, out, err = run(argv)
            assert code in (0, 1, 2), (argv, text)
            assert "Traceback" not in err, (argv, text, err)
            if err.startswith("usage: "):
                assert code == 2 and out == "", (argv, err)
                assert err.splitlines()[-1].startswith(f"supermech {argv[0]}: error: argument "), (argv, err)
            elif err:
                # a failure message replaces the report
                assert code != 0 and out == "", (argv, text, err)
                assert err.startswith("supermech: ") and err.count("\n") == 1, (argv, text, err)
            else:
                # a report, with exit 1 when it states a mathematical failure
                assert code in (0, 1) and out.endswith("\n"), (argv, text, out)
