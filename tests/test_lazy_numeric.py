"""The numeric layer, and numpy with it, loads only when it is used: the
symbolic commands run in a fresh interpreter without it, ``simulate``
loads it, and the package still exports every numeric name."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supermech

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
NUMERIC_MODULES = ["numpy", "supermech.numeric"]

# Runs the symbolic work a user can do without simulating, on every shipped
# problem, and after each step prints which numeric modules are loaded.
SYMBOLIC = """
import contextlib, io, json, sys
from pathlib import Path

def step(name):
    loaded = sorted({"numpy", "supermech.numeric"} & set(sys.modules))
    print(json.dumps([name, loaded]))

def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    step(" ".join(argv[:1] + argv[2:]) + " on " + Path(argv[1]).name)
    return code, out.getvalue()

import supermech
step("import supermech")
from supermech.cli import main
step("import supermech.cli")
for path in sorted(Path(sys.argv[1]).glob("*.sm")):
    problem = supermech.parse_problem(path.read_text(encoding="utf-8"))
    supermech.format_problem(problem)
    step("parse_problem and format_problem on " + path.name)
    cli("derive", str(path))
    cli("derive", str(path), "--emit", "latex")
    for name in problem.symmetries:
        code, text = cli("noether", str(path), "--symmetry", name)
        if code == 0:
            cli("noether", str(path), "--from-charge=" + json.loads(text)["charge"])
"""

SIMULATE = """
import sys
from supermech.cli import main
code = main(["simulate", sys.argv[1]])
print(sorted({"numpy", "supermech.numeric"} & set(sys.modules)), code, file=sys.stderr)
"""


def run_child(script: str, *args: str) -> subprocess.CompletedProcess:
    """``script`` in a fresh interpreter that imports the package from this
    checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )


def test_symbolic_work_does_not_load_numpy():
    steps = [json.loads(line) for line in run_child(SYMBOLIC, str(PROBLEMS)).stdout.splitlines()]
    names = [name for name, _ in steps]
    for problem in ("oscillator.sm", "ostrogradski.sm", "superparticle.sm"):
        assert f"derive --emit latex on {problem}" in names
    assert "noether --symmetry susy on superparticle.sm" in names
    assert any(name.startswith("noether --from-charge=") for name in names)
    assert [(name, loaded) for name, loaded in steps if loaded] == []


def test_simulate_loads_numpy_and_prints_the_same_report():
    done = run_child(SIMULATE, str(PROBLEMS / "superparticle.sm"))
    expected = (ROOT / "tests" / "data" / "superparticle.simulate.json").read_text(encoding="utf-8")
    assert done.stdout == expected
    assert done.stderr == f"{NUMERIC_MODULES} 0\n"


# Resolves every exported name in a fresh interpreter, first by ``getattr``
# or first by a star import, and prints the names that ``dir`` misses and
# those that do not resolve to the same object both ways.
EXPORTS = """
import sys
import supermech
missing = sorted(set(supermech.__all__) - set(dir(supermech)))
namespace = {}
if sys.argv[1] == "getattr":
    found = {name: getattr(supermech, name) for name in supermech.__all__}
    exec("from supermech import *", namespace)
else:
    exec("from supermech import *", namespace)
    found = {name: getattr(supermech, name) for name in supermech.__all__}
differ = sorted(name for name in supermech.__all__ if namespace.get(name) is not found[name])
print(missing, differ, supermech.GrassmannValue.__module__)
"""


@pytest.mark.parametrize("first", ["getattr", "star"])
def test_every_exported_name_resolves(first):
    assert run_child(EXPORTS, first).stdout == "[] [] supermech.numeric\n"


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'supermech' has no attribute 'nope'$"):
        supermech.nope  # noqa: B018
