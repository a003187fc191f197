"""The table of pinned outputs, shared by the tests and the console-script
check of CI.

Each file under ``perfbench/reference/`` and each report under
``tests/data/`` is the output of one command, read from its name
``<problem>.<command>[.<argument>].<extension>``:

- ``derive``: ``supermech derive <problem>``, which exits 1 when the
  report says ``"regular": false``;
- ``derive.latex``: the same with ``--emit latex``;
- ``simulate``: ``supermech simulate <problem>``;
- ``noether_symmetry.<name>``: ``supermech noether <problem> --symmetry
  <name>``;
- ``noether_inverse.<name>``: ``supermech noether <problem>
  --from-charge=<charge>``, with the charge the report itself holds.

The problem is ``tests/data/<problem>.sm``, or ``problems/<problem>.sm``
when there is none.  Run as a script, this prints the table one case a
line, tab-separated: the exit code, the expected output's path, then the
arguments.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def pinned_outputs() -> dict[str, tuple[list[str], Path, int]]:
    """``(arguments, expected output, exit code)`` of each pinned output,
    keyed by its file name without the extension."""
    cases = {}
    for expected in sorted([*(ROOT / "perfbench" / "reference").glob("*.txt"), *DATA.glob("*.*.*")]):
        stem = expected.name.rsplit(".", 1)[0]
        name, command, *rest = stem.split(".")
        problem = DATA / f"{name}.sm"
        if not problem.exists():
            problem = ROOT / "problems" / f"{name}.sm"
        report = {} if rest == ["latex"] else json.loads(expected.read_text(encoding="utf-8"))
        if command == "derive":
            argv = ["derive", str(problem), *(["--emit", "latex"] if rest else [])]
        elif command == "simulate":
            argv = ["simulate", str(problem)]
        elif command == "noether_symmetry":
            argv = ["noether", str(problem), "--symmetry", *rest]
        elif command == "noether_inverse":
            argv = ["noether", str(problem), f"--from-charge={report['charge']}"]
        else:
            raise ValueError(f"{expected.name} names no command")
        cases[stem] = argv, expected, 1 if report.get("regular") is False else 0
    return cases


if __name__ == "__main__":
    for argv, expected, code in pinned_outputs().values():
        print("\t".join([str(code), str(expected), *argv]))
