"""Command-line surface: reports on validation, cohomology, Poisson
structures, spectral pages, and degeneration, in table, JSON, or CSV form.

Exit codes: 0 success, 1 algebra or bivector validation failure,
2 parse or usage error, 3 internal invariant violation (always a bug).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable

from .calculus import CalculusContext
from .catalog import catalog_load, load_file
from .errors import (InternalInvariantError, NilpoissonError, UsageError,
                     ValidationError)
from .exact_linalg import LinalgError
from .exterior import MixedElement
from .homology import (BigradedComplex, _check_size, d_bicomplex_crosscheck,
                       degeneration_verdict, dolbeault_column, dolbeault_table)
from .lambda_parser import expr_from_element, parse_lambda
from .lie_structure import validate
from .poisson import (holomorphic_bivector_space, is_holomorphic_poisson,
                      theorem2_lambda)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilpoisson",
        description="Exact invariant cohomology and Poisson spectral "
                    "sequences of nilpotent Lie algebras with complex "
                    "structure.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--algebra", metavar="NAME[:PARAM]",
                         help="catalog entry, e.g. tower:4, torus:2, kodaira")
        cmd.add_argument("--file", metavar="PATH",
                         help="JSON presentation file instead of --algebra")
        # each command takes only the options it reads
        if "lambda" in command.options:
            cmd.add_argument("--lambda", dest="lambda_expr", metavar="EXPR",
                             help="bivector expression, e.g. '2 v1^v4 - v2^v3'")
            cmd.add_argument("--theorem2", action="store_true",
                             help="use the constructed central-wedge bivector")
        if "coef" in command.options:
            cmd.add_argument("--coef", type=int, metavar="L",
                             help="vector-coefficient degree")
        if "pages" in command.options:
            cmd.add_argument("--pages", type=int, metavar="R",
                             help="number of pages to report")
        cmd.add_argument("--format", dest="fmt", default="table",
                         choices=("table", "json", "csv"))
        cmd.add_argument("--out", metavar="PATH",
                         help="write the report to a file instead of stdout")
    return parser


def _load_presentation(args):
    if args.algebra and args.file:
        raise UsageError("give either --algebra or --file, not both")
    if args.algebra:
        return catalog_load(args.algebra)
    if args.file:
        return load_file(args.file)
    raise UsageError("an algebra is required: --algebra or --file")


def _resolve_lambda(args, ctx):
    if args.lambda_expr is not None and args.theorem2:
        raise UsageError("give either --lambda or --theorem2, not both")
    if args.theorem2:
        return theorem2_lambda(ctx).bivector
    if args.lambda_expr is not None:
        return parse_lambda(args.lambda_expr).bind(ctx.n)
    return MixedElement()


def _render_rows(headers, rows) -> str:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[k]) for r in cells) for k in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _blank_report(presentation, report):
    return {
        "algebra": {
            "name": presentation.name,
            "dim": presentation.dim,
            "n": presentation.dim // 2,
            "step": report.step,
            "abelian": report.abelian,
            "valid": report.ok,
        },
        "lambda": None,
        "e_pages": None,
        "verdict": None,
        "cohomology": None,
        "timings": {},
    }


def _page_payload(pages):
    out = {}
    for page in pages:
        dims = {f"{p},{q}": d for (p, q), d in sorted(page.dims.items()) if d}
        out[str(page.r)] = dims
    return out


def _human_verdict(verdict) -> str:
    if verdict.failure is None:
        return "degenerates at the second page"
    r, p, q = verdict.failure
    return f"fails at r={r} (p={p},q={q})"


def _csv_pages(shown) -> list:
    return [("r", "p", "q", "dim")] + [
        (page.r, p, q, d)
        for page in shown for (p, q), d in sorted(page.dims.items())]


def _flags(cand) -> dict:
    return {"dbar_closed": cand.dbar_closed,
            "schouten_square_zero": cand.schouten_square_zero,
            "ad_identically_zero": cand.ad_identically_zero}


def cmd_validate(args):
    presentation = _load_presentation(args)
    report = validate(presentation)
    doc = _blank_report(presentation, report)
    doc["details"] = {
        "dim_even": report.dim_even,
        "indices_ok": report.indices_ok,
        # one bracket is stored per pair, [e_b, e_a] = -[e_a, e_b] is
        # compiled from it, and loading rejects (i, i) and repeated pairs
        "antisymmetry_ok": True,
        "jacobi_ok": report.jacobi_ok,
        "j_square_ok": report.j_square_ok,
        "nilpotent": report.nilpotent,
        "step": report.step,
        "integrable": report.integrable,
        "abelian": report.abelian,
        "errors": list(report.errors),
    }
    text = f"algebra: {presentation.name}\n" + report.summary()
    return doc, text, None, 0 if report.ok else 1


def cmd_info(args):
    presentation = _load_presentation(args)
    t0 = time.perf_counter()
    ctx = CalculusContext(presentation)
    doc = _blank_report(presentation, ctx.frame.report)
    doc["timings"]["context"] = round(time.perf_counter() - t0, 6)
    g = ctx.grading
    frame_lines = []
    for idx, row in enumerate(ctx.frame.v_rows, start=1):
        parts = [f"({row[k]}) e{k + 1}" for k in sorted(row)]
        frame_lines.append(f"v{idx} = " + " + ".join(parts))
    doc["details"] = {
        "frame": frame_lines,
        "step": g.step,
        "center_dim_10": g.c10.dim,
        "complement_dims": {str(k): sub.dim for k, sub in sorted(g.t10.items())},
        "bracket_pairs": len(presentation.brackets),
    }
    rows = [["dim", presentation.dim], ["complex dim", ctx.n],
            ["step", g.step], ["abelian", ctx.abelian],
            ["central (1,0) dim", g.c10.dim],
            ["bracket pairs", len(presentation.brackets)]]
    text = f"algebra: {presentation.name}\n" + _render_rows(
        ["property", "value"], rows)
    text += "\n\nframe:\n  " + "\n  ".join(frame_lines)
    text += "\ngraded complement dims: " + ", ".join(
        f"t{k}={sub.dim}" for k, sub in sorted(g.t10.items()))
    return doc, text, None, 0


def cmd_cohomology(args):
    presentation = _load_presentation(args)
    _check_size(presentation.dim // 2)
    t0 = time.perf_counter()
    ctx = CalculusContext(presentation)
    if args.coef is None:
        table = dolbeault_table(BigradedComplex(ctx))
    elif 0 <= args.coef <= ctx.n:
        table = dolbeault_column(ctx, args.coef)
    else:
        raise UsageError(f"--coef must be within 0..{ctx.n}")
    elapsed = time.perf_counter() - t0
    cells = sorted(table.items())
    # build only what the format prints
    if args.fmt == "csv":
        return None, None, [("p", "q", "dim")] + [
            (p, q, cell.dim) for (p, q), cell in cells], 0
    reps = [cell.representative_texts() for _, cell in cells]
    if args.fmt == "json":
        doc = _blank_report(presentation, ctx.frame.report)
        doc["timings"]["compute"] = round(elapsed, 6)
        doc["cohomology"] = {
            f"{p},{q}": {"dim": cell.dim, "representatives": texts}
            for ((p, q), cell), texts in zip(cells, reps)}
        return doc, None, None, 0
    rows = [[p, q, cell.dim, ", ".join(texts)]
            for ((p, q), cell), texts in zip(cells, reps)]
    text = (f"algebra: {presentation.name}\n"
            + _render_rows(["p", "q", "dim", "representatives"], rows))
    return None, text, None, 0


def cmd_poisson(args):
    presentation = _load_presentation(args)
    t0 = time.perf_counter()
    ctx = CalculusContext(presentation)
    space = holomorphic_bivector_space(ctx)
    doc = _blank_report(presentation, ctx.frame.report)
    texts = [str(expr_from_element(c.bivector)) for c in space.candidates]
    details = {
        "closed_dim": space.dim,
        "basis": texts,
        "candidates": [{"bivector": text, **_flags(c)}
                       for text, c in zip(texts, space.candidates)],
    }
    rows = [[text, *_flags(c).values()]
            for text, c in zip(texts, space.candidates)]
    lam = _resolve_lambda(args, ctx)
    if lam:
        cand = is_holomorphic_poisson(ctx, lam)
        doc["lambda"] = str(expr_from_element(cand.bivector))
        details["given"] = {"bivector": doc["lambda"], **_flags(cand),
                            "holomorphic_poisson": cand.holomorphic_poisson}
        rows.append([doc["lambda"], *_flags(cand).values()])
    doc["details"] = details
    doc["timings"]["compute"] = round(time.perf_counter() - t0, 6)
    text = (f"algebra: {presentation.name}\n"
            f"closed (2,0) bivector space dimension: {space.dim}\n"
            + _render_rows(
                ["bivector", "dbar closed", "[.,.] = 0", "ad = 0"], rows))
    return doc, text, None, 0


def _spectral_common(args):
    if args.pages is not None and args.pages < 1:
        raise UsageError("--pages must be at least 1")
    presentation = _load_presentation(args)
    _check_size(presentation.dim // 2)
    timings = {}
    t0 = time.perf_counter()
    ctx = CalculusContext(presentation)
    # d_r = 0 for r > n, so every page after E_{n+1} repeats it, and the
    # verdict computes exactly those n + 1 pages
    if args.pages is not None and args.pages > ctx.n + 1:
        raise UsageError(f"--pages must be within 1..{ctx.n + 1}")
    lam = _resolve_lambda(args, ctx)
    timings["context"] = round(time.perf_counter() - t0, 6)
    t0 = time.perf_counter()
    bc = BigradedComplex(ctx, lam)
    timings["assemble"] = round(time.perf_counter() - t0, 6)
    t0 = time.perf_counter()
    verdict = degeneration_verdict(bc)
    timings["pages"] = round(time.perf_counter() - t0, 6)
    # the verdict needs every page; --pages only trims the report
    shown = verdict.pages.pages[:args.pages]
    doc = _blank_report(presentation, ctx.frame.report)
    doc["lambda"] = str(expr_from_element(lam)) if lam else "0"
    doc["e_pages"] = _page_payload(shown)
    doc["verdict"] = verdict.verdict
    doc["timings"] = timings
    return presentation, verdict, shown, doc


def cmd_spectral(args):
    presentation, verdict, shown, doc = _spectral_common(args)
    csv_rows = _csv_pages(shown)
    text = (f"algebra: {presentation.name}\n"
            f"lambda: {doc['lambda']}\n"
            + _render_rows(csv_rows[0], [r for r in csv_rows[1:] if r[3]])
            + f"\nverdict: {_human_verdict(verdict)}")
    return doc, text, csv_rows, 0


def cmd_degeneration(args):
    presentation, verdict, shown, doc = _spectral_common(args)
    doc["cohomology"] = {str(k): d for k, d in sorted(verdict.hk_dims.items())}
    details = {}
    if verdict.failure is not None:
        details["failure"] = list(verdict.failure)
        details["witness_source"] = str(verdict.witness_source)
        details["witness_image"] = str(verdict.witness_image)
    doc["details"] = details
    lines = [f"algebra: {presentation.name}",
             f"lambda: {doc['lambda']}",
             f"verdict: {verdict.verdict}"]
    if verdict.failure is not None:
        r, p, q = verdict.failure
        lines.append(f"first nonzero differential: d_{r} at (p={p},q={q})")
        lines.append(f"  source class: {verdict.witness_source}")
        lines.append(f"  image class:  {verdict.witness_image}")
    lines.append("total cohomology dims: "
                 + " ".join(f"H^{k}={d}" for k, d in sorted(verdict.hk_dims.items())))
    return doc, "\n".join(lines), _csv_pages(shown), 0


def cmd_crosscheck(args):
    presentation = _load_presentation(args)
    _check_size(presentation.dim // 2)
    t0 = time.perf_counter()
    ctx = CalculusContext(presentation)
    ell = args.coef if args.coef is not None else 1
    if not (0 <= ell <= ctx.n):
        raise UsageError(f"--coef must be within 0..{ctx.n}")
    report = d_bicomplex_crosscheck(ctx, ell)
    doc = _blank_report(presentation, ctx.frame.report)
    doc["cohomology"] = {str(m): report.direct_dims[m]
                         for m in sorted(report.direct_dims)}
    doc["details"] = {
        "coefficient_degree": report.ell,
        "central_dim": report.c_dim,
        "total_dims": {str(m): d for m, d in sorted(report.total_dims.items())},
        "direct_dims": {str(m): d for m, d in sorted(report.direct_dims.items())},
        # the library raises on a failed identity or a mismatch
        "identities_ok": True,
        "match": True,
    }
    doc["timings"]["compute"] = round(time.perf_counter() - t0, 6)
    rows = [[m, report.total_dims[m], report.direct_dims[m]]
            for m in sorted(report.total_dims)]
    text = (f"algebra: {presentation.name}\n"
            f"coefficient degree: {ell}\n"
            + _render_rows(["m", "total", "direct"], rows)
            + "\nidentities: True  match: True")
    return doc, text, None, 0


class Command:
    __slots__ = ("help", "handler", "options", "csv")

    def __init__(self, help: str, handler: Callable, options: tuple,
                 csv: bool):
        self.help = help
        self.handler = handler
        # beyond the common ones: "lambda", "coef", "pages"
        self.options = options
        self.csv = csv  # whether the report has a CSV form


COMMANDS = {
    "validate": Command("check a presentation and report each property",
                        cmd_validate, (), False),
    "info": Command("dimensions, frame, and grading of an algebra",
                    cmd_info, (), False),
    "cohomology": Command("column cohomology dimensions and representatives",
                          cmd_cohomology, ("coef",), True),
    "poisson": Command("holomorphic Poisson bivectors and their flags",
                       cmd_poisson, ("lambda",), False),
    "spectral": Command("page dimensions and differentials",
                        cmd_spectral, ("lambda", "pages"), True),
    "degeneration": Command("page-two degeneration verdict",
                            cmd_degeneration, ("lambda", "pages"), True),
    "crosscheck": Command("two-path total-cohomology comparison",
                          cmd_crosscheck, ("coef",), False),
}


def _emit(args, doc, text, csv_rows) -> None:
    if args.fmt == "json":
        payload = json.dumps(doc, indent=2, sort_keys=True)
    elif args.fmt == "csv":
        payload = "\n".join(",".join(str(c) for c in row) for row in csv_rows)
    else:
        payload = text
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        # flush here, so that a closed stdout fails inside `main`
        print(payload, flush=True)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    try:
        command = COMMANDS[args.command]
        # refused before any input is read
        if args.fmt == "csv" and not command.csv:
            raise UsageError(f"csv output is not defined for {args.command}")
        doc, text, csv_rows, code = command.handler(args)
        _emit(args, doc, text, csv_rows)
        return code
    except BrokenPipeError:
        # the reader closed stdout; point fd 1 at devnull so that the flush
        # at interpreter shutdown does not fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (InternalInvariantError, LinalgError) as ex:
        print(f"internal invariant violated: {ex}", file=sys.stderr)
        return 3
    except ValidationError as ex:
        print(f"validation failure: {ex}", file=sys.stderr)
        return 1
    except NilpoissonError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
