"""Benchmark of supermech: end-to-end command latency and per-layer stage
timings on three workloads.

    python3 perfbench/run.py --workload dense-symbolic --seed 1 --seconds 25 --trace 0

The benchmark drives the public API in-process as a single client in a
closed loop: one process, no threads, each command issued through
``supermech.cli.main`` only after the previous one returned.  A run

1. generates and parses every problem, then runs one untimed warm-up pass
   that checks every output against the oracle (reference outputs, numpy
   forces, conservation, round trips);
2. repeats timed passes for ``--seconds`` seconds, each output compared
   byte for byte with the warm-up output, and between passes times set-up
   (``import supermech`` plus generating and parsing every problem) in
   fresh interpreters; every command's and every set-up probe's time is
   also expressed at a reference machine speed, gauged right around it
   (``calibrate.py``), and the time metrics are made of those;
3. runs the cliff cases once, under their budgets;
4. with ``--trace 1``, follows every command with its stage-by-stage
   replay inside spans and once more without them, probes single
   operations, and reports per-layer metrics instead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (provenance, every
case's samples and verdicts) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
PROBE_REPEATS = 5
# A command that took less than SHORT_CALL_S in the warm-up runs several
# times in a row in each pass, at most MAX_REPEATS: a short call has the
# most to gain from more samples and they cost the least.
SHORT_CALL_S = 0.05
MAX_REPEATS = 5


class Timeout(BaseException):
    """Raised by the budget alarm; a BaseException so that no handler in
    the package can swallow it."""


def _alarm(signum, frame):
    raise Timeout


@contextlib.contextmanager
def budget(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _check_checkout() -> None:
    missing = [p for p in ("src/supermech/__init__.py", "problems") if not (ROOT / p).exists()]
    if missing:
        raise SystemExit(f"perfbench: not a supermech checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def geomean(values) -> float:
    """Geometric mean; 0.0 when nothing was measured, which only happens
    when every case it covers failed, so the run is not correct anyway."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


# -- set-up ------------------------------------------------------------------


def setup_once(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, measured inside the child, and
    the import gauge's time taken right before it."""
    from perfbench import calibrate

    gauge = calibrate.import_seconds()
    probe = ROOT / "perfbench" / "setup_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]), gauge


def prepare(name: str, seed: int):
    """Generate, write and parse every problem; build the command list."""
    from supermech import parse_problem
    from perfbench import workloads

    workload = workloads.BUILDERS[name](seed, ROOT)
    folder = OUT / f"{name}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    parsed = {}
    for problem in workload.problems:
        path = folder / f"{problem.name}.sm"
        path.write_text(problem.text, encoding="utf-8")
        problem.path = str(path)
        parsed[problem.name] = parse_problem(problem.text)
    workload.build_commands(parsed)
    return workload, folder


# -- calling the CLI ---------------------------------------------------------


@dataclass
class Outcome:
    status: str
    code: int | None = None
    text: str = ""
    seconds: float = 0.0
    reason: str = ""


def call(argv: list[str], budget_s: float) -> Outcome:
    """One CLI command under its budget; a timeout costs the whole budget."""
    from supermech.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with budget(budget_s), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Timeout:
        return Outcome("timeout", seconds=budget_s, reason=f"over {budget_s} s")
    except Exception as exc:  # a traceback is a failure of the command, not of the run
        return Outcome("error", seconds=time.perf_counter() - start, reason=repr(exc))
    return Outcome("ok", code, out.getvalue(), time.perf_counter() - start, err.getvalue())


def check(command, outcome: Outcome, folder: Path, seed: int) -> None:
    """The oracle for one warm-up output; raises oracle.Wrong."""
    from perfbench import oracle

    oracle.check_code(outcome.code)
    problem = command.problem
    if problem.shipped and command.kind != "simulate":
        oracle.check_reference(command.key, outcome.text)
    if command.kind == "derive" and command.argv:
        return
    report = oracle.parse_json(outcome.text)
    if command.kind == "derive" and problem.system is not None:
        oracle.check_forces(problem.system, report, seed)
    elif command.kind == "noether_symmetry":
        oracle.check_symmetry(report)
    elif command.kind == "simulate":
        oracle.check_simulate(report)
    elif command.kind == "noether_inverse":
        path = folder / f"{problem.name}.roundtrip.sm"
        path.write_text(oracle.roundtrip_text(problem.text, report), encoding="utf-8")
        back = call(["noether", str(path), "--symmetry", "recovered"], command.budget_s)
        if back.status != "ok":
            raise oracle.Wrong(f"round trip {back.status}: {back.reason}")
        oracle.check_code(back.code)
        oracle.check_roundtrip(command.charge, oracle.parse_json(back.text))


def warm_up(workload, folder: Path, seed: int) -> dict:
    """One untimed pass; fills caches and lazy imports and returns the
    checked output of every decided command (None when it failed)."""
    from perfbench.oracle import Wrong

    reference = {}
    for command in workload.commands:
        if command.cliff:
            continue
        if command.charge_from is not None:
            source = reference.get(command.charge_from.key)
            if source is None:
                reference[command.key] = None
                continue
            # the = form keeps a charge that starts with a minus sign an argument
            command.argv = ["--from-charge=" + json.loads(source.text)["charge"]]
        outcome = call(command.full_argv(), command.budget_s)
        if outcome.status == "ok":
            try:
                check(command, outcome, folder, seed)
            except Wrong as exc:
                outcome.status, outcome.reason = "wrong", str(exc)
        reference[command.key] = outcome if outcome.status == "ok" else None
        if outcome.status != "ok":
            print(f"warm-up {command.key}: {outcome.status} {outcome.reason}", file=sys.stderr)
    return reference


@dataclass
class Record:
    """Per command key, the time of every CLI call at the reference speed,
    its wall time and its status; the wall time of each pass, and every
    time of the calibration kernel."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    wall: dict = field(default_factory=lambda: defaultdict(list))
    kernel: list = field(default_factory=list)
    statuses: dict = field(default_factory=lambda: defaultdict(list))
    pass_times: list = field(default_factory=list)


@dataclass
class Replays:
    """What the traced run's replays measured, per command key: the CLI's
    own time (the command's wall time minus the stage spans of the replay
    right after it), the replay's wall time with its spans and without
    them, its status, and the objects the probes reuse; ``ranges`` holds
    the span indices of each pass."""

    cli_self: dict = field(default_factory=lambda: defaultdict(list))
    with_spans: dict = field(default_factory=lambda: defaultdict(list))
    without_spans: dict = field(default_factory=lambda: defaultdict(list))
    statuses: dict = field(default_factory=lambda: defaultdict(list))
    kept: dict = field(default_factory=dict)
    ranges: list = field(default_factory=list)


def replay_command(command, outcome: Outcome, want: Outcome, tracer, replays: Replays,
                   spans_first: bool) -> None:
    """Replay one command twice, with spans and without, right after it
    ran; the replay must compute what the command printed.  Pairing the
    replays with the command keeps most machine noise out of the
    differences of their timings.  The second replay of a pair runs
    faster, so which one goes first alternates from pass to pass."""
    from perfbench import trace

    tracer.case = command.key
    keep, seconds = {}, {}
    try:
        with budget(command.budget_s):
            for spans in (True, False) if spans_first else (False, True):
                start = time.perf_counter()
                if spans:
                    with tracer.span(f"command.{command.kind}") as root:
                        replayed = trace.replay(tracer, command, keep)
                else:
                    trace.replay(trace.NullTracer(), command, {})
                seconds[spans] = time.perf_counter() - start
        status = "ok" if trace.matches(command, replayed, want.text) else "wrong"
    except Timeout:
        status = "timeout"
    except Exception:  # the replay raised where the command did not
        status = "error"
    else:
        replays.cli_self[command.key].append(outcome.seconds - root.children_s)
        replays.with_spans[command.key].append(seconds[True])
        replays.without_spans[command.key].append(seconds[False])
        replays.kept[command.key] = keep
    replays.statuses[command.key].append(status)


def run_pass(commands, reference: dict, rng: random.Random, untraced: Record,
             tracer=None, replays: Replays | None = None) -> None:
    """One pass over the decided commands in a shuffled order, a short
    command several times in a row; each output must equal the warm-up
    output byte for byte.  The calibration kernel runs before and after
    each command's calls, and their mean gauges the machine's speed for
    them.  With a tracer, every command is followed by its replays."""
    from perfbench import calibrate

    order = commands[:]
    rng.shuffle(order)
    first = len(tracer.spans) if tracer else 0
    pass_start = time.perf_counter()
    before = calibrate.seconds()
    for command in order:
        want = reference[command.key]
        walls = []
        for _ in range(max(1, min(MAX_REPEATS, math.ceil(SHORT_CALL_S / want.seconds)))):
            outcome = call(command.full_argv(), command.budget_s)
            if outcome.status == "ok" and (outcome.code, outcome.text) != (want.code, want.text):
                outcome.status = "wrong"
            walls.append(outcome.seconds)
            untraced.statuses[command.key].append(outcome.status)
        after = calibrate.seconds()
        scale = calibrate.REFERENCE_S / ((before + after) / 2)
        untraced.wall[command.key] += walls
        untraced.samples[command.key] += [wall * scale for wall in walls]
        untraced.kernel.append(after)
        before = after
        if tracer is not None:
            replay_command(command, outcome, want, tracer, replays,
                           spans_first=len(untraced.pass_times) % 2 == 0)
    untraced.pass_times.append(time.perf_counter() - pass_start)
    if tracer is not None:
        replays.ranges.append((first, len(tracer.spans)))


def run_cliffs(workload, folder: Path, seed: int, tracer=None) -> dict:
    """Each cliff case once under its budget: untraced through the CLI and
    the oracle, traced as a replay whose spans show where the time went."""
    from perfbench import trace
    from perfbench.oracle import Wrong

    verdicts = {}
    for command in (c for c in workload.commands if c.cliff):
        if tracer is None:
            outcome = call(command.full_argv(), command.budget_s)
            if outcome.status == "ok":
                try:
                    check(command, outcome, folder, seed)
                except Wrong as exc:
                    outcome.status, outcome.reason = "wrong", str(exc)
            verdicts[command.key] = {"status": outcome.status, "seconds": outcome.seconds,
                                     "budget_s": command.budget_s}
            continue
        tracer.case = f"cliff:{command.key}"
        start = time.perf_counter()
        try:
            with budget(command.budget_s), tracer.span(f"command.{command.kind}"):
                trace.replay(tracer, command, {})
            status = "ok"
        except Timeout:
            status = "timeout"
        except Exception as exc:  # the replay of a failing command
            status = f"error: {exc!r}"
        verdicts[command.key] = {"status": status, "seconds": time.perf_counter() - start,
                                 "budget_s": command.budget_s}
    return verdicts


# -- metrics -----------------------------------------------------------------


def end_to_end(workload, untraced: Record, setup_times, peak_rss_mb: float) -> dict:
    """Per command kind, the geometric mean over cases of each case's
    median call at the reference speed; ``pass_s`` is the sum of every
    case's median call.  A timed-out call counts as its whole budget, and
    so does a case that failed its warm-up check and was never timed.
    ``setup_s`` is the median set-up probe at the reference speed of the
    import gauge taken right before it."""
    from perfbench.calibrate import IMPORT_REFERENCE_S
    from perfbench.workloads import KINDS

    decided = [c for c in workload.commands if not c.cliff]
    typical = {c.key: statistics.median(untraced.samples[c.key] or [c.budget_s]) for c in decided}
    setup_s = statistics.median(wall * IMPORT_REFERENCE_S / gauge for wall, gauge in setup_times)
    metrics = {"setup_s": (setup_s, "s")}
    for kind in KINDS:
        metrics[f"{kind}_ms"] = (
            geomean(typical[c.key] for c in decided if c.kind == kind) * 1e3, "ms")
    metrics["pass_s"] = (sum(typical.values()), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


SPAN_METRICS = {
    "problems.parse_ms": ("problems.parse", "problems.parse_expression"),
    "lagrangian.cartan_data_ms": ("lagrangian.cartan_data",),
    "lagrangian.regularity_ms": ("lagrangian.regularity",),
    "lagrangian.solve_dynamics_ms": ("lagrangian.solve_dynamics",),
    "lagrangian.check_symmetry_ms": ("lagrangian.check_symmetry",),
    "lagrangian.noether_charge_ms": ("lagrangian.noether_charge",),
    "lagrangian.noether_inverse_ms": ("lagrangian.noether_inverse",),
    "numeric.integrate_ms": ("numeric.integrate",),
    "numeric.conservation_report_ms": ("numeric.conservation_report",),
    "numeric.constraint_drift_ms": ("numeric.constraint_drift",),
}


def per_layer(workload, tracer, replays: Replays, failed_ratio) -> dict:
    """Stage times are per-pass sums of span self times (median over
    passes); probe times are per call on each case's own data."""
    from perfbench import trace

    metrics = {}
    for metric, names in SPAN_METRICS.items():
        per_pass = [
            sum(s.self_seconds for s in tracer.spans[a:b] if s.name in names)
            for a, b in replays.ranges
        ]
        metrics[metric] = (statistics.median(per_pass) * 1e3, "ms")

    # per-call times combine as a geometric mean over cases; everything
    # else the probes return (times of one call per case, counts) is summed
    per_call = {name: [] for name in ["algebra.mul", "algebra.left_partial", "algebra.substitute",
                                      "numeric.evaluate", "numeric.grassmann_mul", "rk4_step"]}
    sums = defaultdict(int)
    integrate_s = defaultdict(list)
    for span in tracer.spans:
        if span.name == "numeric.integrate":
            integrate_s[span.case].append(span.seconds)
    for command in workload.commands:
        keep = replays.kept.get(command.key)
        if not keep:
            continue
        if command.kind == "derive" and not command.argv:
            found = trace.probe_symbolic(keep, PROBE_REPEATS)
        elif command.kind == "noether_symmetry":
            found = trace.probe_symmetry(keep, PROBE_REPEATS)
        elif command.kind == "noether_inverse":
            found = trace.probe_inverse(keep)
        elif command.kind == "simulate":
            found = trace.probe_numeric(keep, PROBE_REPEATS)
            found["rk4_step"] = statistics.median(integrate_s[command.key]) / found.pop("steps")
        else:
            continue
        for name, value in found.items():
            if name in per_call:
                per_call[name].append(value)
            else:
                sums[name] += value

    for name in ("forms.exterior_d", "forms.cartan_operator", "forms.total_derivative",
                 "forms.interior", "jets.total_derivative", "jets.lift"):
        metrics[f"{name}_ms"] = (sums[name] * 1e3, "ms")
    for name in ("theta_terms", "omega_terms", "energy_terms", "delta_terms", "force_terms",
                 "charge_terms", "body_matrix_dim", "witness_degree"):
        metrics[f"lagrangian.{name}"] = (sums[name], "count")
    for name in ("algebra.mul", "algebra.left_partial", "algebra.substitute",
                 "numeric.evaluate", "numeric.grassmann_mul"):
        metrics[f"{name}_us"] = (geomean(per_call[name]) * 1e6, "us")
    metrics["numeric.rk4_step_us"] = (geomean(per_call["rk4_step"]) * 1e6, "us")
    metrics["algebra.mul_terms_ratio"] = (ratio(sums["mul_terms"], sums["mul_pairs"]), "ratio")
    metrics["numeric.grassmann_pair_useful_ratio"] = (
        ratio(sums["useful_pairs"], sums["visited_pairs"]), "ratio")
    metrics["cli.self_ms"] = (
        sum(statistics.median(v) for v in replays.cli_self.values()) * 1e3, "ms")
    metrics["failed_ratio"] = (failed_ratio, "ratio")
    # the traced pass_s minus the untraced one, both of the replay:
    # sums over cases of the median replay with spans and without
    metrics["trace_overhead_s"] = (
        sum(statistics.median(v) for v in replays.with_spans.values())
        - sum(statistics.median(v) for v in replays.without_spans.values()), "s")
    return metrics


def layer_shares(workload, tracer) -> dict:
    """Per command kind, the share of replay time spent in each layer's
    spans; ``command`` is the replay's own glue outside every stage."""
    kinds = {c.key: c.kind for c in workload.commands}
    totals = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        if span.case in kinds:
            totals[kinds[span.case]][span.name.split(".")[0]] += span.self_seconds
    return {
        kind: {layer: seconds / sum(by_layer.values()) for layer, seconds in by_layer.items()}
        for kind, by_layer in totals.items()
    }


# -- provenance --------------------------------------------------------------


def provenance(workload, seed: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "why": next(w["why"] for w in json.loads(
            (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
            if w["name"] == workload.name),
        "sizes": {p.name: p.sizes for p in workload.problems},
    }


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("shipped", "dense-symbolic", "grassmann-sim"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_checkout()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the result object of the last line."""
    workload, folder = prepare(name, seed)
    rng = random.Random(seed)
    reference = warm_up(workload, folder, seed)
    decided = [c for c in workload.commands if not c.cliff]
    checked = [c for c in decided if reference[c.key] is not None]

    untraced, replays, tracer = Record(), Replays(), None
    if traced:
        from perfbench.trace import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    setup_times = []
    while not untraced.pass_times or time.perf_counter() - start < seconds:
        run_pass(checked, reference, rng, untraced, tracer, replays)
        # set-up probes spread evenly over the run, so that their median
        # does not hang on the machine's state in one short window
        due = SETUP_REPEATS * (time.perf_counter() - start) / seconds if seconds else 0
        if not tracer and len(setup_times) < min(due, SETUP_REPEATS):
            setup_times.append(setup_once(name, seed))
    while not tracer and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_once(name, seed))
    # before the cliff cases, whose memory depends on how far they get
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cliffs = run_cliffs(workload, folder, seed, tracer)

    statuses = {
        c.key: ["ok" if reference[c.key] else "failed"]
        + untraced.statuses[c.key] + replays.statuses[c.key]
        for c in decided
    }
    attempted = sum(len(values) for values in statuses.values())
    failed = sum(s != "ok" for values in statuses.values() for s in values)
    failed_cases = sum(any(s != "ok" for s in values) for values in statuses.values()) + sum(
        v["status"] != "ok" for v in cliffs.values())
    if failed:
        print(f"{failed} of {attempted} command calls failed", file=sys.stderr)
    for key, verdict in cliffs.items():
        print(f"cliff {key}: {verdict['status']} after {verdict['seconds']:.3f} s "
              f"(budget {verdict['budget_s']} s)")

    if traced:
        metrics = per_layer(workload, tracer, replays, failed_cases / len(workload.commands))
        spans_path = folder.parent / f"spans-{name}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = end_to_end(workload, untraced, setup_times, peak_rss_mb)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "provenance": provenance(workload, seed),
        "seconds": seconds,
        "traced": traced,
        "setup_and_gauge_s": setup_times,
        "kernel_s": untraced.kernel,
        "pass_times_s": untraced.pass_times,
        "commands": {
            key: {"samples_s": untraced.samples[key], "wall_s": untraced.wall[key],
                  "statuses": statuses[key]}
            for key in statuses
        },
        "replays": {
            key: {"cli_self_s": replays.cli_self[key], "with_spans_s": replays.with_spans[key],
                  "without_spans_s": replays.without_spans[key]}
            for key in replays.with_spans
        } if tracer else None,
        "cliffs": cliffs,
        "layer_shares": layer_shares(workload, tracer) if tracer else None,
        "result": result,
    }
    details_path = folder.parent / f"result-{name}-seed{seed}-trace{int(traced)}.json"
    details_path.write_text(json.dumps(details, indent=2), encoding="utf-8")
    print(f"details written to {os.path.relpath(details_path, ROOT)}")
    return result


if __name__ == "__main__":
    sys.exit(main())
