"""The package's exports against the README's Library section."""

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import nilpoisson

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

EXPORTS = [
    "BigradedComplex", "CalculusContext", "ExactMatrix", "GaussRational",
    "TotalComplex", "catalog_load", "degeneration_verdict", "dolbeault_table",
    "holomorphic_bivector_space", "parse_lambda", "poisson_cohomology",
    "spectral_pages",
    "InternalInvariantError", "LambdaParseError", "LinalgError",
    "NilpoissonError", "NotAbelianError", "UsageError", "ValidationError",
]


def library_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library")
    return text[start:text.index("\n## ", start + 1)]


def test_exports_pinned_and_documented():
    assert nilpoisson.__all__ == EXPORTS
    section = library_section()
    for name in EXPORTS:
        assert hasattr(nilpoisson, name), name
        assert re.search(rf"\b{name}\b", section), name
    # every submodule but the command line loads with the package
    for mod in ("calculus", "catalog", "errors", "exact_linalg", "exterior",
                "homology", "lambda_parser", "lie_structure", "poisson",
                "scalars"):
        assert f"nilpoisson.{mod}" in sys.modules, mod


def test_readme_library_snippet_prints_what_it_documents():
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    imported = re.search(r"from nilpoisson import \((.*?)\)", code, re.S).group(1)
    assert {n.strip() for n in imported.split(",") if n.strip()} <= set(EXPORTS)
    want = [line.split("# ", 1)[1].strip()
            for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
    assert want[:3] == ["fails-at-(2,0,2)", "(1) v3^ow3 + (1) ow2^ow3",
                        "(-2) v3^v4^ow2"]


def test_import_generates_no_code():
    # -S: no site module, whose .pth files may import typing themselves
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import nilpoisson, nilpoisson.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
