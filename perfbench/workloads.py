"""Workloads of the nilpoisson benchmark and the check of their outputs.

Every operation but one is an in-process call to ``nilpoisson.cli.main``
with stdout and stderr captured.  The exception computes H^k_lambda through
the library path the README documents.  Each output is reduced by
``extract`` to the fields a reader relies on and compared with
``reference.json``, which was produced once from the package as it stood when
the benchmark was added.  Nothing in the benchmark rewrites that file: a
legitimate change of output means editing it by hand, in its own change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

PINNED_LAMBDA = "2 v1^v4 - v2^v3"


@dataclass(frozen=True)
class Op:
    """One operation: CLI arguments, or ``library`` naming an algebra whose
    H^k for the theorem-2 bivector is computed through the library."""

    argv: tuple = ()
    library: str | None = None

    @property
    def key(self) -> str:
        if self.library is not None:
            return f"library: poisson_betti {self.library} --theorem2"
        return " ".join(self.argv)


def _cli(*argv) -> Op:
    return Op(argv=argv)


def _degeneration(algebra, *extra) -> Op:
    return _cli("degeneration", "--algebra", algebra, *extra,
                "--format", "json")


@dataclass(frozen=True)
class Workload:
    ops: tuple
    # wall-clock ceiling of one operation; a breach fails that operation
    ceiling_s: float


WORKLOADS = {
    # Spectral pages carry most of the time; both verdict shapes (a failure
    # with a witness, and degeneration) and a torus where D = 0.
    "verdict-ladder": Workload(
        ops=(
            _degeneration("kodaira", "--theorem2"),
            _degeneration("tower:3", "--theorem2"),
            _degeneration("tower:4", "--lambda", PINNED_LAMBDA),
            _degeneration("tower:4", "--theorem2"),
            _degeneration("torus:4", "--theorem2"),
            _degeneration("tower:5", "--theorem2"),
        ),
        ceiling_s=60.0),
    # Assembly, identity checks, dense ranks and kernels at n = 6; no pages.
    "cohomology-n6": Workload(
        ops=(
            _cli("cohomology", "--algebra", "tower:6", "--format", "json"),
            _cli("cohomology", "--algebra", "torus:6", "--format", "json"),
            _cli("crosscheck", "--algebra", "tower:6", "--coef", "2"),
            Op(library="tower:6"),
        ),
        ceiling_s=60.0),
    # Per-call fixed costs: frame, grading, Schouten, parser, rendering.
    "query-mix": Workload(
        ops=(
            _cli("validate", "--algebra", "tower:6"),
            _cli("info", "--algebra", "tower:5"),
            _cli("poisson", "--algebra", "tower:5", "--theorem2",
                 "--format", "json"),
            _cli("poisson", "--algebra", "kodaira"),
            _cli("cohomology", "--algebra", "tower:4", "--format", "csv"),
            _cli("spectral", "--algebra", "kodaira", "--lambda", "v1^v2",
                 "--format", "csv"),
            _cli("spectral", "--algebra", "tower:3", "--theorem2",
                 "--pages", "2"),
            _cli("crosscheck", "--algebra", "tower:4", "--coef", "2"),
            _cli("crosscheck", "--algebra", "torus:4", "--coef", "1"),
            _degeneration("tower:3", "--theorem2"),
            # expected rejections; their exit codes are pinned
            _degeneration("tower:5", "--lambda", PINNED_LAMBDA),
            _cli("spectral", "--algebra", "tower:4", "--lambda", "2 v1^^v4"),
            _cli("info", "--algebra", "tower"),
            _cli("cohomology", "--algebra", "torus:3", "--coef", "5"),
        ),
        ceiling_s=10.0),
}


def run_op(op: Op, pkg) -> tuple[int, str]:
    """Run one operation against the ``nilpoisson`` package ``pkg``;
    return (exit code, captured stdout)."""
    if op.library is not None:
        # names are looked up at call time, so a tracer's wrappers apply
        presentation = pkg.catalog.catalog_load(op.library)
        ctx = pkg.calculus.CalculusContext(presentation)
        lam = pkg.poisson.theorem2_lambda(ctx).bivector
        tc = pkg.homology.TotalComplex(pkg.homology.BigradedComplex(ctx, lam))
        betti = pkg.homology.poisson_betti(tc)
        return 0, json.dumps({str(k): d for k, d in sorted(betti.items())})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(list(op.argv))
    return code, out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_INT_ROW = re.compile(r"^\s*-?\d+(?:[\s,]+-?\d+)*\s*$")


def extract(op: Op, code: int, text: str) -> dict:
    """The checked fields of one output.

    Always the exit code.  For JSON: the verdict, failing cell, witness,
    every page's dimensions and the cohomology dimensions (H^k, or per
    (p,q) cell), plus a digest of the whole document without ``timings``,
    which also pins the canonical representatives.  For CSV and tables: every
    all-integer row (page dimensions, Dolbeault dimensions, crosscheck
    totals) plus a digest of the text.
    """
    got: dict = {"exit": code}
    if code != 0:
        return got
    if op.library is not None:
        got["hk"] = json.loads(text)
        return got
    if "json" in op.argv:
        doc = json.loads(text)
        doc.pop("timings", None)
        got["digest"] = _digest(json.dumps(doc, sort_keys=True))
        for key in ("verdict", "e_pages"):
            if doc.get(key) is not None:
                got[key] = doc[key]
        details = doc.get("details") or {}
        for key in ("failure", "witness_source", "witness_image"):
            if key in details:
                got[key] = details[key]
        cohomology = doc.get("cohomology")
        if cohomology is not None:
            got["cohomology"] = {
                cell: value["dim"] if isinstance(value, dict) else value
                for cell, value in cohomology.items()}
        return got
    got["digest"] = _digest(text)
    got["int_rows"] = [[int(x) for x in re.split(r"[\s,]+", line.strip())]
                       for line in text.splitlines() if _INT_ROW.match(line)]
    return got


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def mismatch(op: Op, got: dict, reference: dict) -> str | None:
    """None when ``got`` equals the pinned fields, else what differs."""
    want = reference["ops"].get(op.key)
    if want is None:
        return f"no pinned reference for {op.key!r}"
    if got == want:
        return None
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return f"{op.key}: not as pinned: {', '.join(keys)}"
