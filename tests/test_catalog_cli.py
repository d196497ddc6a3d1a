import csv
import io
import json

import pytest

from nilpoisson.calculus import CalculusContext
from nilpoisson.catalog import catalog_load, load_file, save_file, torus, tower
from nilpoisson.cli import main
from nilpoisson.errors import UsageError
from nilpoisson.homology import BigradedComplex, dolbeault_table
from nilpoisson.lie_structure import grading, validate


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_catalog_load_happy_paths():
    assert catalog_load("tower:4").name == "tower(4)"
    assert catalog_load("TORUS:2").name == "torus(2)"
    assert catalog_load("kodaira").name == "kodaira"
    assert catalog_load(" tower : 3 ".replace(" ", "")).dim == 6


def test_catalog_load_errors():
    with pytest.raises(UsageError):
        catalog_load("tower")
    with pytest.raises(UsageError):
        catalog_load("kodaira:2")
    with pytest.raises(UsageError):
        catalog_load("heisenberg:3")
    with pytest.raises(UsageError):
        catalog_load("tower:x")
    with pytest.raises(UsageError):
        catalog_load("tower:1")
    with pytest.raises(UsageError):
        catalog_load("torus:0")


def test_save_load_round_trip(tmp_path):
    src = tower(3)
    path = tmp_path / "tower3.json"
    save_file(src, str(path))
    back = load_file(str(path))
    assert back.dim == src.dim
    assert back.brackets == src.brackets
    assert back.jmat == src.jmat
    assert validate(back).ok
    g_src, g_back = grading(src), grading(back)
    assert g_src.step == g_back.step
    assert g_src.c10.dim == g_back.c10.dim
    t_src = dolbeault_table(BigradedComplex(CalculusContext(src)))
    t_back = dolbeault_table(BigradedComplex(CalculusContext(back)))
    for pq in t_src:
        assert t_src[pq].dim == t_back[pq].dim


def test_load_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(UsageError):
        load_file(str(path))
    path.write_text(json.dumps({"dim": 4}))
    with pytest.raises(UsageError):
        load_file(str(path))


def test_cli_validate_ok(capsys):
    rc, out, err = run(capsys, "validate", "--algebra", "tower:4")
    assert rc == 0
    assert "valid:               True" in out
    assert "step 4" in out


def test_cli_validate_non_nilpotent_file(capsys, tmp_path):
    data = {
        "dim": 2,
        "brackets": [{"i": 1, "j": 2, "out": {"1": "1"}}],
        "J": [["0", "-1"], ["1", "0"]],
    }
    path = tmp_path / "aff.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "validate", "--file", str(path))
    assert rc == 1
    assert "valid:               False" in out


def test_cli_usage_errors(capsys):
    cases = [
        ("info",),
        ("info", "--algebra", "torus:2", "--file", "/tmp/x.json"),
        ("info", "--algebra", "torus:2", "--format", "csv"),
        ("info", "--file", "/does/not/exist.json"),
        ("cohomology", "--algebra", "torus:2", "--coef", "9"),
        ("poisson", "--algebra", "tower:4", "--lambda", "v1^^v2"),
        ("degeneration", "--algebra", "tower:4", "--lambda", "v1^v9"),
        ("poisson", "--algebra", "tower:4", "--lambda", "v1^v2", "--theorem2"),
        ("info", "--algebra", "nosuch:1"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err.startswith("error:"), argv


def test_cli_validation_failure_exit_code(capsys):
    # a syntactically fine bivector that is not dbar-closed
    rc, out, err = run(
        capsys, "degeneration", "--algebra", "tower:4", "--lambda", "v1^v2"
    )
    assert rc == 1
    assert "validation failure" in err


def test_cli_argparse_exit_codes(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_cli_info_table(capsys):
    rc, out, err = run(capsys, "info", "--algebra", "kodaira")
    assert rc == 0
    assert "complex dim" in out
    assert "v1 = (1/2) e1 + (-1/2i) e2" in out


def test_cli_cohomology_json_matches_table(capsys):
    rc, table_out, _ = run(capsys, "cohomology", "--algebra", "torus:2", "--coef", "1")
    assert rc == 0
    rc, json_out, _ = run(
        capsys, "cohomology", "--algebra", "torus:2", "--coef", "1", "--format", "json"
    )
    assert rc == 0
    doc = json.loads(json_out)
    dims = {key: cell["dim"] for key, cell in doc["cohomology"].items()}
    assert dims == {"1,0": 2, "1,1": 4, "1,2": 2}
    for key, d in dims.items():
        p, q = key.split(",")
        assert f"{p}  {q}  {d}" in table_out.replace("   ", "  ")


def test_cli_cohomology_csv(capsys):
    rc, out, _ = run(
        capsys, "cohomology", "--algebra", "torus:2", "--format", "csv"
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "q", "dim"]
    assert len(rows) == 1 + 9  # full (p,q) grid for n = 2
    assert sum(int(r[2]) for r in rows[1:]) == 16  # torus total is 4^n


def test_cli_spectral_csv_row_count(capsys):
    rc, out, _ = run(
        capsys,
        "spectral", "--algebra", "tower:4",
        "--lambda", "2 v1^v4 - v2^v3",
        "--format", "csv", "--pages", "3",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "p", "q", "dim"]
    assert len(rows) == 1 + 3 * 25  # pages 1..3, 5x5 grid each
    e2 = {(int(p), int(q)): int(d) for r, p, q, d in rows[1:] if r == "2"}
    assert e2[(0, 2)] == 4 and e2[(2, 2)] == 8


def test_cli_spectral_human_verdicts(capsys):
    rc, out, _ = run(
        capsys,
        "spectral", "--algebra", "tower:4", "--lambda", "2 v1^v4 - v2^v3",
    )
    assert rc == 0
    assert "fails at r=2 (p=0,q=2)" in out
    rc, out, _ = run(capsys, "spectral", "--algebra", "tower:4", "--theorem2")
    assert rc == 0
    assert "degenerates at the second page" in out


def test_cli_degeneration_json_keys(capsys):
    rc, out, _ = run(
        capsys,
        "degeneration", "--algebra", "tower:4",
        "--lambda", "2 v1^v4 - v2^v3", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {
        "algebra", "lambda", "e_pages", "verdict", "cohomology", "timings", "details",
    }
    assert doc["verdict"] == "fails-at-(2,0,2)"
    assert doc["lambda"] == "2 v1^v4 - v2^v3"
    assert doc["details"]["witness_source"]
    assert doc["cohomology"] == {
        str(k): d for k, d in zip(range(9), [1, 3, 7, 10, 10, 10, 7, 3, 1])
    }
    assert doc["algebra"]["name"] == "tower(4)"
    assert set(doc["algebra"]) == {"name", "dim", "n", "step", "abelian", "valid"}


def test_cli_degeneration_theorem2(capsys):
    rc, out, _ = run(
        capsys, "degeneration", "--algebra", "tower:4", "--theorem2", "--format", "json"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "degenerates-at-E2"
    assert doc["lambda"] == "-v3^v4"


def test_cli_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out, _ = run(
        capsys,
        "degeneration", "--algebra", "kodaira", "--theorem2",
        "--format", "json", "--out", str(path),
    )
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "degenerates-at-E2"


def test_cli_poisson_listing(capsys):
    rc, out, _ = run(capsys, "poisson", "--algebra", "tower:4")
    assert rc == 0
    assert "bivector space dimension: 2" in out
    rc, json_out, _ = run(capsys, "poisson", "--algebra", "tower:4", "--format", "json")
    doc = json.loads(json_out)
    assert doc["details"]["closed_dim"] == 2
    assert doc["details"]["basis"] == ["v1^v4 - 1/2 v2^v3", "v3^v4"]
    flags = doc["details"]["candidates"][1]
    assert flags["ad_identically_zero"] is True


def test_cli_poisson_given_lambda(capsys):
    rc, json_out, _ = run(
        capsys,
        "poisson", "--algebra", "tower:4",
        "--lambda", "2 v1^v4 - v2^v3", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(json_out)
    given = doc["details"]["given"]
    assert given["bivector"] == "2 v1^v4 - v2^v3"
    assert given["holomorphic_poisson"] is True
    assert given["ad_identically_zero"] is False


def test_cli_crosscheck(capsys):
    rc, out, _ = run(capsys, "crosscheck", "--algebra", "tower:4", "--coef", "2")
    assert rc == 0
    rc, json_out, _ = run(
        capsys, "crosscheck", "--algebra", "tower:4", "--coef", "2", "--format", "json"
    )
    doc = json.loads(json_out)
    assert doc["details"]["match"] is True
    assert doc["details"]["identities_ok"] is True
    assert doc["details"]["total_dims"] == {"0": 2, "1": 8, "2": 12, "3": 8, "4": 2}
    assert doc["cohomology"] == doc["details"]["total_dims"]


def test_cli_crosscheck_validates_once(capsys, monkeypatch):
    # the center-adapted presentation reuses the validation of the original
    import nilpoisson.lie_structure as lie_structure

    real = lie_structure.validate
    calls = []

    def counted(p):
        calls.append(p.name)
        return real(p)

    monkeypatch.setattr(lie_structure, "validate", counted)
    rc, _, _ = run(capsys, "crosscheck", "--algebra", "tower:4", "--coef", "2")
    assert rc == 0
    assert calls == ["tower(4)"]


def test_cli_refuses_oversized_algebra(capsys, monkeypatch):
    # the size guard fires before any monomial basis is built
    import nilpoisson.homology as homology

    def no_basis(*args):
        raise AssertionError("a monomial basis was built")

    monkeypatch.setattr(homology, "cell_monomials", no_basis)
    rc, out, err = run(capsys, "cohomology", "--algebra", "tower:12")
    assert rc == 2
    assert out == ""
    assert err == ("error: complex dimension n = 12 is above the supported "
                   "maximum 8: its bigraded complex would hold 4^12 = "
                   "16777216 monomials\n")


@pytest.mark.parametrize("argv", [
    ("validate", "--algebra", "tower:4"),
    ("info", "--algebra", "tower:4"),
    ("cohomology", "--algebra", "tower:4"),
    ("poisson", "--algebra", "tower:4"),
    ("spectral", "--algebra", "tower:4", "--theorem2"),
    ("degeneration", "--algebra", "tower:4", "--lambda", "2 v1^v4 - v2^v3"),
    ("crosscheck", "--algebra", "tower:4", "--coef", "2"),
])
def test_cli_central_series_runs_once(capsys, monkeypatch, argv):
    # validate keeps the series on its report and the grading reads it there
    import nilpoisson.lie_structure as lie_structure

    real = lie_structure.central_series
    calls = []

    def counted(p, *args):
        calls.append(p.name)
        return real(p, *args)

    monkeypatch.setattr(lie_structure, "central_series", counted)
    rc, _, _ = run(capsys, *argv)
    assert rc == 0
    assert calls == ["tower(4)"]


def test_cli_coef_checked_before_any_complex(capsys, monkeypatch, tmp_path):
    import nilpoisson.cli as cli
    import nilpoisson.homology as homology

    def no_complex(*args):
        raise AssertionError("a bigraded complex was built")

    monkeypatch.setattr(cli, "BigradedComplex", no_complex)
    monkeypatch.setattr(homology, "BigradedComplex", no_complex)
    rc, out, err = run(capsys, "cohomology", "--algebra", "tower:7", "--coef", "9")
    assert (rc, out, err) == (2, "", "error: --coef must be within 0..7\n")
    for coef, n in (("9", 3), ("-1", 3), ("8", 7)):
        rc, out, err = run(capsys, "crosscheck", "--algebra", f"tower:{n}",
                           "--coef", coef)
        assert (rc, out, err) == (2, "", f"error: --coef must be within 0..{n}\n")
    # an invalid algebra is still reported first
    path = tmp_path / "jacobi.json"
    path.write_text(json.dumps({
        "dim": 4,
        "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}},
                     {"i": 1, "j": 3, "out": {"1": "1"}}],
        "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
    }))
    rc, out, err = run(capsys, "cohomology", "--file", str(path), "--coef", "9")
    assert rc == 1
    assert err.startswith("validation failure: jacobi identity fails on (1,2,3)")


def test_cli_out_to_unwritable_path(capsys, tmp_path):
    path = tmp_path / "missing" / "report.txt"
    rc, out, err = run(capsys, "info", "--algebra", "tower:3", "--out", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.exists()


@pytest.mark.parametrize("expr, where", [
    ("1/0 v1^v4", 2),
    ("(1/0+1i) v1^v4", 3),
])
def test_cli_zero_denominator_is_usage_error(capsys, expr, where):
    rc, out, err = run(capsys, "spectral", "--algebra", "tower:4", "--lambda", expr)
    assert (rc, out) == (2, "")
    assert err == f"error: zero denominator at position {where}\n"


@pytest.mark.parametrize("field", ["J", "out"])
def test_cli_numeric_presentation_entries_are_usage_errors(capsys, tmp_path, field):
    data = {
        "dim": 2,
        "brackets": [{"i": 1, "j": 2, "out": {"2": "0"}}],
        "J": [["0", "-1"], ["1", "0"]],
    }
    if field == "J":
        data["J"] = [[0, -1], [1, 0]]
    else:
        data["brackets"][0]["out"] = {"2": 0}
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps(data))
    for cmd in ("validate", "info"):
        rc, out, err = run(capsys, cmd, "--file", str(path))
        assert (rc, out) == (2, ""), cmd
        assert err == "error: bad algebra data: rational literal 0 is not a string\n"


@pytest.mark.parametrize("field, value, message", [
    ("out", ["1"], '"out" of bracket (1,2) must be a JSON object'),
    ("i", 1.7, '"i" must be an integer, not 1.7'),
    ("j", True, '"j" must be an integer, not True'),
    ("dim", 2.0, '"dim" must be an integer, not 2.0'),
])
def test_cli_malformed_presentation_is_usage_error(capsys, tmp_path, field,
                                                   value, message):
    data = {
        "dim": 2,
        "brackets": [{"i": 1, "j": 2, "out": {"2": "0"}}],
        "J": [["0", "-1"], ["1", "0"]],
    }
    if field == "dim":
        data["dim"] = value
    else:
        data["brackets"][0][field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    for cmd in ("validate", "info"):
        rc, out, err = run(capsys, cmd, "--file", str(path))
        assert (rc, out) == (2, ""), cmd
        assert err == f"error: bad algebra data: {message}\n"


def test_cli_integer_string_fields_accepted(capsys, tmp_path):
    data = {
        "dim": "4",
        "brackets": [{"i": "2", "j": "1", "out": {"3": "-1"}}],
        "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
              ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
    }
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(data))
    assert load_file(str(path)).brackets == catalog_load("kodaira").brackets
    rc, out, _ = run(capsys, "validate", "--file", str(path))
    assert rc == 0 and "nilpotent:           True  (step 2)" in out


def test_cli_pages_bounded_before_any_complex(capsys, monkeypatch):
    import nilpoisson.cli as cli
    import nilpoisson.homology as homology

    def no_complex(*args):
        raise AssertionError("a bigraded complex was built")

    monkeypatch.setattr(cli, "BigradedComplex", no_complex)
    monkeypatch.setattr(homology, "BigradedComplex", no_complex)
    for cmd in ("spectral", "degeneration"):
        rc, out, err = run(capsys, cmd, "--algebra", "kodaira", "--lambda",
                           "v1^v2", "--pages", "1000000")
        assert (rc, out, err) == (2, "", "error: --pages must be within 1..3\n")
        rc, out, err = run(capsys, cmd, "--algebra", "tower:4", "--pages", "6")
        assert (rc, out, err) == (2, "", "error: --pages must be within 1..5\n")
        for low in ("0", "-2"):
            rc, out, err = run(capsys, cmd, "--algebra", "kodaira", "--pages", low)
            assert (rc, out, err) == (2, "", "error: --pages must be at least 1\n")


def test_cli_pages_up_to_n_plus_one(capsys):
    # E_{n+1} is the last page asked for, and the limit itself is served
    rc, out, _ = run(capsys, "spectral", "--algebra", "kodaira", "--lambda",
                     "v1^v2", "--pages", "3", "--format", "json")
    assert rc == 0
    assert sorted(json.loads(out)["e_pages"]) == ["1", "2", "3"]
    rc, out, _ = run(capsys, "degeneration", "--algebra", "kodaira", "--pages",
                     "3", "--format", "json")
    assert rc == 0
    assert sorted(json.loads(out)["e_pages"]) == ["1", "2", "3"]


def test_cli_degeneration_pages_trims_report(capsys):
    base = ("degeneration", "--algebra", "kodaira", "--lambda", "v1^v2")
    _, full, _ = run(capsys, *base, "--format", "json")
    rc, out, _ = run(capsys, *base, "--pages", "1", "--format", "json")
    assert rc == 0
    full, doc = json.loads(full), json.loads(out)
    assert sorted(doc["e_pages"]) == ["1"]
    assert doc["e_pages"]["1"] == full["e_pages"]["1"]
    # the verdict, its witness and H^k still come from every page
    for key in ("verdict", "cohomology", "details", "lambda"):
        assert doc[key] == full[key], key
    rc, out, _ = run(capsys, *base, "--pages", "2", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r", "p", "q", "dim"]
    assert sorted({r for r, _, _, _ in rows[1:]}) == ["1", "2"]
    assert len(rows) == 1 + 2 * 9
    # the table shows no pages, so it does not change
    assert run(capsys, *base, "--pages", "1")[1] == run(capsys, *base)[1]
