"""Two fixed gauges of the machine's speed of the moment.

The benchmark shares a few cores with other tenants, and their load makes
the same call run up to 40% slower or faster for stretches of seconds to
minutes.  No statistic taken inside one run removes a shift that lasts the
whole run, so each timed call is expressed at a reference speed instead:
its wall time times ``REFERENCE_S`` over the kernel's wall time measured
right around it.  Set-up, which is mostly imports in a fresh interpreter,
is gauged the same way by ``import_seconds``.

The kernel multiplies two sparse polynomials with ``Fraction``
coefficients stored in dictionaries keyed by exponent tuples, the same mix
of small-object allocation, hashing and rational arithmetic that
supermech's algebra does, so the two slow down together.  It belongs to
the benchmark and never calls the package, so a change to supermech cannot
move it.  Over 150 s on a 2-core VM the medians of 10-second windows of
the raw wall times of derive, noether and simulate spread 0.15-0.19
(quartile distance over median), those of their ratios to this kernel
0.02-0.05.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time
from fractions import Fraction

# The kernel's wall time at the reference speed: a round figure near its
# fastest times on a 2-core x86 VM (4.5-5 ms; its median over a run was
# 6.5-8.7 ms while other tenants were busy), so times at the reference
# speed read somewhat below the wall times of a busy machine.
REFERENCE_S = 0.005


def _polynomial(rng: random.Random, terms: int) -> dict:
    return {
        tuple(rng.randrange(3) for _ in range(4)): Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
        for _ in range(terms)
    }


_rng = random.Random(20240601)
LEFT, RIGHT = _polynomial(_rng, 42), _polynomial(_rng, 42)


def kernel() -> dict:
    product = {}
    for key_a, a in LEFT.items():
        for key_b, b in RIGHT.items():
            key = tuple(x + y for x, y in zip(key_a, key_b))
            value = product.get(key, 0) + a * b
            if value:
                product[key] = value
            else:
                product.pop(key, None)
    return product


def seconds() -> float:
    """Wall time of one kernel run.  The cyclic garbage collector is off
    meanwhile, so that the number of objects the package keeps alive
    cannot change the kernel's time."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


# Set-up is two thirds numpy's import.  A fresh interpreter that imports
# numpy and a fixed set of standard modules, none of them part of
# supermech, slows down with it: over 150 s on a 2-core VM the medians of
# nine set-up probes spread 0.28 (quartile distance over median) raw and
# 0.04 over this gauge, taken in a fresh interpreter right before each
# probe; gauged with the kernel above, which slows down about twice as
# much as imports do, they still spread 0.21.
IMPORTS = "numpy, json, decimal, argparse, dataclasses, email.parser, xml.dom.minidom, http.client"
# The gauge's wall time at the reference speed: a round figure below its
# median of 0.12 s on a 2-core x86 VM.
IMPORT_REFERENCE_S = 0.1


def import_seconds() -> float:
    """Wall time of the gauge's imports, measured inside a fresh interpreter."""
    code = f"import time\nstart = time.perf_counter()\nimport {IMPORTS}\nprint(time.perf_counter() - start)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout)
