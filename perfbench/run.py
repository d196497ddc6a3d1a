#!/usr/bin/env python3
"""Benchmark of the nilpoisson package in this checkout's ``src/``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdict-ladder --seed 1 \\
        --seconds 38 --trace 0

One process, one thread, a closed loop with one client: each operation of
the workload (see ``workloads.py``) starts when the previous one has ended.
The operations run in passes, each pass in an order shuffled by ``--seed``,
for about ``--seconds`` seconds and at least one pass.  Every output is
checked against the pinned reference; a mismatch, an exception, or a breach
of the memory limit or of the per-operation wall-clock ceiling fails that
operation, and any failure makes the command exit 1.

``--trace 0`` installs nothing in the package and reports the end-to-end
metrics.  The CPU speed of a shared machine drifts by tens of percent within
seconds to minutes, so the timed metrics are wall times scaled to a reference
speed.  A timer interrupts the run every ``SAMPLE_EVERY_S`` and times a
fixed exact-arithmetic scan that does not touch the package (``speed_probe``).
Each operation's wall time, less the sampling inside it, is multiplied by
``REF_PROBE_S`` over the median probe taken within ``SAMPLE_WINDOW_S`` of the
operation; ``setup_s`` is scaled by probes taken around it.  On a machine as
fast as the reference, scaled and wall times agree; the detail line gives
both.

``--trace 1`` installs the tracer of ``tracer.py``, takes no speed samples,
and reports the per-layer metrics as wall times, each the median over passes
of its value in one pass.

The last line of stdout is the result as one JSON object; the line before it
records the environment and details such as per-operation medians.
"""
from __future__ import annotations

import argparse
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
from fractions import Fraction
from pathlib import Path

# sibling modules: the script's own directory is on sys.path
import tracer as tracing
from workloads import WORKLOADS, extract, load_reference, mismatch, run_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Address-space limit of the workload process; a breach fails the operation.
MEMORY_LIMIT_BYTES = 3 << 30
# No operation starts, and any running one is stopped, this long after the
# process started, so that a regressed program still exits in time.
DEADLINE_S = 160.0
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 9
SETUP_PROBE_TIMEOUT_S = 60

# The speed probe scans PROBE_ROWS x PROBE_COLS entries in about REF_PROBE_S
# on the reference machine (Python 3.11 on 2 shared vCPUs).
PROBE_ROWS = 40
PROBE_COLS = 400
REF_PROBE_S = 0.006
SAMPLE_EVERY_S = 0.25
SAMPLE_WINDOW_S = 1.0

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "op_p50_s": "s",
                    "peak_rss_mb": "MiB"}


class CeilingBreach(BaseException):
    """Raised from the timer when an operation exceeds its ceiling.  Not an
    Exception, so that no handler inside the package swallows it."""


class _Gauss:
    """A Gaussian rational as the package stored it when the benchmark was
    written; frozen here so that the probe does not change with the package."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __bool__(self):
        return bool(self.re) or bool(self.im)


def speed_probe() -> float:
    """Wall time of zero tests over rows of mostly-zero exact entries, the
    pattern that dominates dense exact elimination; the package is not used."""
    zero = _Gauss(Fraction(0), Fraction(0))
    rows = []
    for i in range(PROBE_ROWS):
        row = [zero] * PROBE_COLS
        for k in range(4):
            row[(37 * i + 101 * k) % PROBE_COLS] = _Gauss(
                Fraction(i + 1, k + 2), Fraction(0))
        rows.append(row)
    start = time.perf_counter()
    acc = Fraction(0)
    for row in rows:
        for x in row:
            if x:
                acc += x.re * x.re
    return time.perf_counter() - start


class Sampler:
    """A periodic SIGALRM that enforces the current operation's deadline
    and, when ``probing``, records speed samples as (time, probe seconds).
    ``busy_s`` accumulates the time spent in the handler."""

    def __init__(self, probing: bool):
        self.probing = probing
        self.samples: list[tuple[float, float]] = []
        self.busy_s = 0.0
        self.deadline = math.inf
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        entered = time.perf_counter()
        if entered >= self.deadline:
            raise CeilingBreach()
        if self.probing:
            self.samples.append((entered, speed_probe()))
        self.busy_s += time.perf_counter() - entered

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Scale to the reference speed from the samples near [start, end],
        or from all samples when none is near."""
        near = [p for t, p in self.samples
                if start - SAMPLE_WINDOW_S <= t <= end + SAMPLE_WINDOW_S]
        pool = near or [p for _, p in self.samples]
        return REF_PROBE_S / statistics.median(pool) if pool else 1.0


def import_package():
    """Import ``nilpoisson`` from this checkout's ``src/`` and nowhere else."""
    init = SRC / "nilpoisson" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no nilpoisson package at {init.parent}")
    sys.path.insert(0, str(SRC))
    import nilpoisson
    import nilpoisson.cli  # noqa: F401  (not imported by the package itself)
    if Path(nilpoisson.__file__).resolve() != init.resolve():
        raise SystemExit(
            f"perfbench: imported {nilpoisson.__file__}, expected {init}")
    return nilpoisson


def setup(name: str):
    """Everything before the first timed operation: import the package and
    build the workload's inputs."""
    pkg = import_package()
    reference = load_reference()
    ops = list(WORKLOADS[name].ops)
    unpinned = [op.key for op in ops if op.key not in reference["ops"]]
    if unpinned:
        raise SystemExit(f"perfbench: no pinned reference for {unpinned}")
    return pkg, reference, ops


def timed_setup(name: str) -> tuple[float, float]:
    """(wall time of setup, median speed probe around it), in a fresh
    interpreter."""
    probes = [speed_probe() for _ in range(3)]
    start = time.perf_counter()
    setup(name)
    wall = time.perf_counter() - start
    probes += [speed_probe() for _ in range(3)]
    return wall, statistics.median(probes)


def probe_setup(name: str) -> tuple[float, float]:
    """Median (scaled, wall) setup time over fresh interpreters."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=SETUP_PROBE_TIMEOUT_S)
        one_wall, probe = map(float, done.stdout.split()[-2:])
        scaled.append(one_wall * REF_PROBE_S / probe)
        wall.append(one_wall)
    return statistics.median(scaled), statistics.median(wall)


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    # a checkout that is not itself a repository may sit inside another one
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(pkg, seed: int) -> dict:
    rational = pkg.scalars.Rational
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational": f"{rational.__module__}.{rational.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
    }


def limit_memory():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT_BYTES
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def timed_call(op, pkg, reference, sampler: Sampler, ceiling: float, tracer):
    """(start, end, latency, failure text or None) of one operation; the
    latency excludes the time the sampler spent inside it."""
    failure = None
    busy = sampler.busy_s
    start = time.perf_counter()
    sampler.deadline = start + ceiling
    try:
        if tracer is None:
            code, text = run_op(op, pkg)
        else:
            with tracer.root():
                code, text = run_op(op, pkg)
    except CeilingBreach:
        failure = f"{op.key}: ceiling of {ceiling:.1f} s reached"
    except MemoryError:
        failure = f"{op.key}: memory limit reached"
    except Exception as ex:  # noqa: BLE001  (any raise fails the operation)
        failure = f"{op.key}: raised {type(ex).__name__}: {ex}"
    finally:
        sampler.deadline = math.inf
    end = time.perf_counter()
    latency = end - start - (sampler.busy_s - busy)
    if tracer is not None:
        tracer.finish_op()
    if failure is None:
        failure = mismatch(op, extract(op, code, text), reference)
    return start, end, latency, failure


def measure(name: str, seed: int, seconds: float, pkg, reference, ops,
            tracer=None, started: float | None = None) -> dict:
    """Run passes of the workload, at least one, while a pass as slow as the
    slowest so far would end within ``seconds``; return the raw samples."""
    started = time.perf_counter() if started is None else started
    ceiling = WORKLOADS[name].ceiling_s
    rng = random.Random(seed)
    log: list[tuple] = []  # (operation, start, end, wall latency) per run
    passes: list[list[int]] = []  # complete passes, as indices into log
    layers: list[dict] = []
    failures: list[str] = []
    pass_s: list[float] = []  # elapsed time of each pass, checks included
    loop_start = time.perf_counter()
    with Sampler(probing=tracer is None) as sampler:
        while True:
            order = list(ops)
            rng.shuffle(order)
            this_pass = []
            pass_start = time.perf_counter()
            for op in order:
                left = DEADLINE_S - (time.perf_counter() - started)
                if left <= 0:
                    failures.append(f"deadline of {DEADLINE_S:.0f} s reached")
                    break
                start, end, latency, failure = timed_call(
                    op, pkg, reference, sampler, min(ceiling, left), tracer)
                this_pass.append(len(log))
                log.append((op.key, start, end, latency))
                if failure is not None:
                    failures.append(failure)
            else:
                passes.append(this_pass)
                if tracer is not None:
                    layers.append(tracer.take())
                now = time.perf_counter()
                pass_s.append(now - pass_start)
                if now - loop_start + max(pass_s) <= seconds:
                    continue
            break
    scaled = [latency * sampler.factor(start, end)
              for _, start, end, latency in log]
    return {"keys": [entry[0] for entry in log],
            "wall": [entry[3] for entry in log], "scaled": scaled,
            "passes": passes, "layers": layers, "failures": failures,
            "attempted": max(len(log), 1), "samples": len(sampler.samples),
            "run_factor": sampler.factor()}


def _median_or_none(values):
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


def _timings(raw: dict, column: str) -> dict:
    """Sweep and per-operation figures from the ``wall`` or ``scaled``
    latencies."""
    latencies = raw[column]
    by_op: dict[str, list[float]] = {}
    for key, latency in zip(raw["keys"], latencies):
        by_op.setdefault(key, []).append(latency)
    sweeps = [sum(latencies[i] for i in p) for p in raw["passes"]]
    op_medians = {k: statistics.median(v) for k, v in by_op.items()}
    return {
        "sweep_s": _median_or_none(sweeps),
        "sweeps_s": sweeps,
        # the median operation's median latency: the operations differ in
        # cost by orders of magnitude, and pooling their samples would let
        # the figure jump with the number of passes that fit in a run
        "op_p50_s": _median_or_none(list(op_medians.values())),
        # a tail percentile only where at least ten samples lie beyond it
        "op_p90_s": (statistics.quantiles(latencies, n=10)[-1]
                     if len(latencies) >= 100 else None),
        "op_median_s": op_medians,
    }


def summarize(raw: dict, trace: bool,
              setup_times: tuple[float, float] | None = None
              ) -> tuple[dict, dict]:
    """(result object, detail object) from the samples of ``measure``."""
    detail = {
        "passes": len(raw["passes"]),
        "operations": len(raw["wall"]),
        "fail_frac": len(raw["failures"]) / raw["attempted"],
        "failures": raw["failures"][:10],
        "speed_samples": raw["samples"],
        "run_factor": raw["run_factor"],
        "wall": _timings(raw, "wall"),
    }
    if trace:
        units = tracing.layer_units()
        metrics = {}
        for metric, unit in units.items():
            values = [p[metric] for p in raw["layers"]]
            if unit == "count" and values and None not in values:
                # a count repeats exactly from pass to pass; keep it whole
                value = statistics.median_low(values)
            else:
                value = _median_or_none(values)
            metrics[metric] = {"value": value, "unit": unit}
        timed = [(v["value"], k) for k, v in metrics.items()
                 if v["unit"] == "s" and v["value"] is not None]
        detail["top_self_s"] = [[k, v] for v, k in sorted(timed)[::-1][:3]]
    else:
        scaled = _timings(raw, "scaled")
        detail["scaled"] = scaled
        detail["wall"]["setup_s"] = setup_times[1]
        values = {
            "setup_s": setup_times[0],
            "sweep_s": scaled["sweep_s"],
            "op_p50_s": scaled["op_p50_s"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    failed = len(raw["failures"])
    result = {"correct": failed == 0 and bool(raw["passes"]),
              "attempted": raw["attempted"], "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(*timed_setup(args.workload))
        return 0

    pkg, reference, ops = setup(args.workload)
    setup_times = None if args.trace else probe_setup(args.workload)
    env = environment(pkg, args.seed)
    limit_memory()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        raw = measure(args.workload, args.seed, args.seconds, pkg, reference,
                      ops, tracer, started)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result, detail = summarize(raw, bool(args.trace), setup_times)
    detail = {"workload": args.workload, "trace": args.trace, "env": env,
              **detail}
    if tracer is not None:
        detail["missing"] = tracer.missing
    for failure in raw["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
