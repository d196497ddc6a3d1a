#!/usr/bin/env python3
"""Smoke test of the benchmark itself (not of the package).

Run from the root of a checkout; takes a few minutes:

    python3 perfbench/smoke.py

It runs every workload briefly through ``run.py`` with tracing off and on and
checks that each metric of ``BENCHMARK.json`` is printed with its unit and
that the outputs matched the reference.  In process it then checks the
tracer: child spans lie inside their parents, per-layer self times add up to
each operation's wall time, the scalar and call counts repeat exactly across
two traced rounds, module attributes are the originals after an untraced run
and after the tracer is removed, and an altered reference value is caught.
Exits 1 at the first failed check.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
import time

import run
import tracer as tracing
from workloads import (PINNED_LAMBDA, WORKLOADS, Op, extract, mismatch,
                       run_op)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Light operations for the in-process tracer checks: every kind of CLI call,
# both verdict shapes and the library path, each well under a second.
LIGHT_OPS = WORKLOADS["query-mix"].ops + (
    Op(argv=("degeneration", "--algebra", "tower:4", "--lambda",
             PINNED_LAMBDA, "--format", "json")),
    Op(argv=("degeneration", "--algebra", "torus:3", "--theorem2",
             "--format", "json")),
    Op(library="tower:4"),
)


def check(condition: bool, message: str):
    if not condition:
        print(f"smoke: FAIL {message}")
        raise SystemExit(1)
    print(f"smoke: ok   {message}")


def command_runs():
    """Each workload through the real command, tracing off and on."""
    for name in BENCHMARK["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = list(BENCHMARK["command"]) + [
                "--workload", name["name"], "--seed", "7", "--seconds", "1",
                "--trace", str(trace)]
            done = subprocess.run(argv, cwd=run.ROOT, capture_output=True,
                                  text=True, timeout=900)
            where = f"{name['name']} --trace {trace}"
            check(done.returncode == 0, f"{where}: exit code 0")
            result = json.loads(done.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{where}: outputs correct")
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want,
                  f"{where}: every {section} metric with its unit")
            check(all(v["value"] is None
                      or isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{where}: every value is a number (or null for a layer "
                  "whose names are gone)")


def package_attributes(pkg) -> dict:
    """Every attribute of every package module and of the classes defined
    there, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "nilpoisson"
                                  or name.startswith("nilpoisson.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def same_attributes(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(
        before[k] is after[k] for k in before)


def traced_round(pkg) -> dict:
    """Trace LIGHT_OPS once, checking spans per operation; return the round's
    per-layer values."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if tracer.missing:
            print("smoke: note names no longer in the package:",
                  tracer.missing)
        nested = summed = True
        for op in LIGHT_OPS:
            start = time.perf_counter()
            with tracer.root():
                run_op(op, pkg)
            wall = time.perf_counter() - start
            spans, per_layer = tracer.finish_op()
            roots = [s for s in spans if s[3] < 0]
            nested &= len(roots) == 1 and all(
                spans[p][1] <= s[1] and s[2] <= spans[p][2]
                for s in spans for p in [s[3]] if p >= 0)
            total = sum(per_layer.values())
            root_wall = roots[0][2] - roots[0][1]
            summed &= (abs(total - root_wall) <= 1e-9 * max(1, len(spans))
                       and 0 <= wall - total <= 1e-3 + 0.01 * wall)
        check(nested, "child spans lie inside their parents")
        check(summed, "per-layer self times sum to each operation's wall time")
        return tracer.take()
    finally:
        tracer.uninstall()


def in_process_checks():
    pkg, reference, _ = run.setup("query-mix")
    original = package_attributes(pkg)

    raw = run.measure("query-mix", 1, 0.5, pkg, reference,
                      list(WORKLOADS["query-mix"].ops))
    check(not raw["failures"], "untraced in-process run has no failures")
    check(same_attributes(original, package_attributes(pkg)),
          "module attributes are the originals after an untraced run")

    first, second = traced_round(pkg), traced_round(pkg)
    counted = [k for k in first if k.startswith("scalars.")
               or (k.startswith("exact_linalg.") and k.endswith("_calls"))]
    check(all(first[k] == second[k] for k in counted)
          and any(first[k] for k in counted),
          f"counts repeat exactly across two traced rounds: {counted}")
    check(same_attributes(original, package_attributes(pkg)),
          "module attributes are the originals after the tracer is removed")

    gone = tracing.Tracer()
    gone.missing = list(tracing.SPAN_LAYERS["exact_linalg.mat_mul_s"][0])
    check(tracing.resolve("exact_linalg.no_such_name") is None
          and gone.take()["exact_linalg.mat_mul_s"] is None,
          "a name that is gone resolves to nothing and its metric to null")

    op = WORKLOADS["query-mix"].ops[4]
    got = extract(op, *run_op(op, pkg))
    check(mismatch(op, got, reference) is None, f"{op.key} matches")
    altered = copy.deepcopy(reference)
    altered["ops"][op.key]["int_rows"][1][2] += 1
    check(mismatch(op, got, altered) is not None,
          "an altered reference value is reported as a mismatch")


def main() -> int:
    in_process_checks()
    command_runs()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
