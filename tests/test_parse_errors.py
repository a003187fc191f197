"""A recorded corpus of one-character mutants of real problem files.

Each mutant is a shipped or generated problem text with one character
deleted, doubled or replaced.  ``tests/data/parse_errors.json`` holds, for
each, the exit code, stdout and stderr of ``derive`` as the parser that
preceded the current one printed them; the current parser must reproduce
every entry byte for byte: the same reports, and every syntax error with
the same message, line and column.

Rebuild the corpus (only when a change of output is intended) with::

    PYTHONPATH=src:. python3 tests/test_parse_errors.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from supermech.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "parse_errors.json"
SEED = 19
COUNT = 300
# what a replaced character becomes: the grammar's symbols, digits,
# letters, white space, a comment mark and characters no token starts with
_ALPHABET = ";{}()[]+-*/^=,.#>0123456789qgxLe_ \n\t$é"
# the generated systems small enough to derive in milliseconds
_GENERATED = {
    "dense-symbolic": ("N2-M0-k1", "N2-M2-k1", "N3-M1-k1", "N2-M1-k2", "N3-M0-k1-n0-s50"),
    "grassmann-sim": ("N1-M1-k1-n4-s100", "N1-M3-k1-n4-s100", "N1-M2-k1-n6-s100"),
}


def base_texts() -> list[tuple[str, str]]:
    """The shipped problems and a few seed-1 benchmark systems, by name."""
    from perfbench import workloads

    texts = [(path.stem, path.read_text()) for path in sorted((ROOT / "problems").glob("*.sm"))]
    for workload, names in _GENERATED.items():
        for problem in workloads.BUILDERS[workload](1, ROOT).problems:
            if problem.name in names:
                texts.append((problem.name, problem.text))
    return texts


def mutants() -> list[dict]:
    """``COUNT`` distinct seeded mutants, each one edit of one base text."""
    rng = random.Random(SEED)
    bases = base_texts()
    seen: set[str] = set()
    out: list[dict] = []
    while len(out) < COUNT:
        name, text = rng.choice(bases)
        at = rng.randrange(len(text))
        edit = rng.choice(("delete", "double", "replace"))
        if edit == "delete":
            mutant = text[:at] + text[at + 1:]
        elif edit == "double":
            mutant = text[:at] + text[at] + text[at:]
        else:
            mutant = text[:at] + rng.choice(_ALPHABET) + text[at + 1:]
        if mutant == text or mutant in seen:
            continue
        seen.add(mutant)
        out.append({"base": name, "edit": f"{edit} at {at}", "text": mutant})
    return out


def run_derive(text: str, directory: Path) -> dict:
    """``derive`` on ``text``, in-process: exit code, stdout and stderr."""
    path = directory / "problem.sm"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["derive", str(path)])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_errors_and_reports():
    codes = [entry["code"] for entry in _corpus()]
    assert len(codes) == COUNT
    assert codes.count(2) > COUNT // 2
    assert codes.count(0) > 0


def test_every_mutant_derives_as_recorded(tmp_path):
    for entry in _corpus():
        got = run_derive(entry["text"], tmp_path)
        want = {key: entry[key] for key in ("code", "stdout", "stderr")}
        assert got == want, f"{entry['base']}, {entry['edit']}"


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        entries = [{**m, **run_derive(m["text"], Path(scratch))} for m in mutants()]
    CORPUS.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    codes = [entry["code"] for entry in entries]
    print(f"{len(entries)} mutants: " + ", ".join(f"exit {c}: {codes.count(c)}" for c in sorted(set(codes))),
          file=sys.stderr)


if __name__ == "__main__":
    record()
