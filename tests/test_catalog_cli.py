import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from nilpoisson.calculus import CalculusContext
from nilpoisson.catalog import (catalog_load, load_file, presentation_to_dict,
                                save_file, torus, tower)
from nilpoisson.cli import main
from nilpoisson.errors import UsageError
from nilpoisson.homology import BigradedComplex, dolbeault_table
from nilpoisson.lie_structure import validate
from test_homology import CROSSCHECK_BREAKS
from test_lie_structure import conjugated


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
    with pytest.raises(UsageError, match="^kodaira takes no parameter$"):
        catalog_load("kodaira:")
    with pytest.raises(UsageError):
        catalog_load("heisenberg:3")
    with pytest.raises(UsageError):
        catalog_load("tower:x")
    with pytest.raises(UsageError):
        catalog_load("tower:1")
    with pytest.raises(UsageError):
        catalog_load("torus:0")


@pytest.mark.parametrize("spec, param", [
    ("tower:1_0", "1_0"), ("torus:1_2", "1_2"), ("tower:\uff13", "\uff13"),
    ("tower:\u0663", "\u0663"), ("tower:3.0", "3.0"), ("tower:+-3", "+-3"),
])
def test_catalog_parameter_is_a_sign_and_ascii_digits(capsys, spec, param):
    # int() alone reads "1_0" as 10 and a fullwidth or Arabic-Indic digit
    # as 3; the parameter follows the rule of a file's integer fields
    name = spec.partition(":")[0]
    rc, out, err = run(capsys, "info", "--algebra", spec)
    assert (rc, out) == (2, "")
    assert err == f"error: bad parameter {param!r} for {name}\n"


def test_catalog_parameter_allows_a_sign_and_spaces(capsys):
    assert catalog_load("tower: 3 ").name == "tower(3)"
    assert catalog_load("torus:+2").name == "torus(2)"
    rc, out, err = run(capsys, "info", "--algebra", "tower")
    assert (rc, out) == (2, "")
    assert err == "error: tower needs a parameter, e.g. tower:4\n"
    # an empty parameter is still a parameter
    rc, out, err = run(capsys, "info", "--algebra", "kodaira:")
    assert (rc, out, err) == (2, "", "error: kodaira takes no parameter\n")


@pytest.mark.parametrize("argv", [
    ("cohomology", "--algebra", "tower:3", "--coef", "\uff12"),
    ("crosscheck", "--algebra", "tower:3", "--coef", "\u0662"),
    ("spectral", "--algebra", "tower:3", "--pages", "\uff12"),
    ("degeneration", "--algebra", "tower:3", "--pages", "0_2"),
], ids=["fullwidth", "arabic-indic", "pages-fullwidth", "pages-underscore"])
def test_cli_integer_options_are_a_sign_and_ascii_digits(capsys, argv):
    # int() alone reads each of these as 2; the refusal reads as for "abc"
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.endswith(f"error: argument {argv[-2]}: invalid int value: "
                        f"{argv[-1]!r}\n")


def test_cli_integer_options_read_through_scalars(monkeypatch):
    # every option with a type is an integer read by scalars.read_integer,
    # so no option reads its value with int() alone
    import nilpoisson.cli as cli
    import nilpoisson.scalars as scalars

    seen = []

    def spy(value, what):
        seen.append(value)
        return scalars.read_integer(value, what)

    monkeypatch.setattr(cli, "read_integer", spy)
    typed = []
    for sub in cli.build_parser()._subparsers._group_actions:
        for name, cmd in sub.choices.items():
            for action in cmd._actions:
                if action.type is not None:
                    typed.append((name, action.dest))
                    assert action.type(" +3 ") == 3
                    assert seen.pop() == " +3 "
                    with pytest.raises(ValueError):
                        action.type("\uff13")
                    assert seen.pop() == "\uff13"
    assert sorted(typed) == [("cohomology", "coef"), ("crosscheck", "coef"),
                             ("degeneration", "pages"), ("spectral", "pages")]


def test_save_load_round_trip(tmp_path):
    src = tower(3)
    path = tmp_path / "tower3.json"
    save_file(src, str(path))
    back = load_file(str(path))
    assert back.dim == src.dim
    assert back.brackets == src.brackets
    assert back.jmat == src.jmat
    assert validate(back).ok
    g_src = CalculusContext(src).grading
    g_back = CalculusContext(back).grading
    assert g_src.step == g_back.step
    assert g_src.c10.dim == g_back.c10.dim
    t_src = dolbeault_table(BigradedComplex(CalculusContext(src)))
    t_back = dolbeault_table(BigradedComplex(CalculusContext(back)))
    for pq in t_src:
        assert t_src[pq].dim == t_back[pq].dim


# tower(5) in the dense rational frame conjugated(tower(5), Random(1)),
# written once by save_file
DENSE_TOWER5 = Path(__file__).resolve().parent / "data" / "tower5_conjugated_seed1.json"


def test_dense_tower5_file_is_its_generator():
    assert json.loads(DENSE_TOWER5.read_text(encoding="utf-8")) == \
        presentation_to_dict(conjugated(tower(5), random.Random(1)))


@pytest.mark.parametrize("argv", [
    ("cohomology", "--format", "csv"),
    ("degeneration", "--format", "csv"),
    ("crosscheck", "--coef", "2"),
], ids=["cohomology", "degeneration", "crosscheck"])
def test_dense_frame_prints_the_rows_of_tower5(capsys, argv):
    # the invariants do not depend on the frame: only the algebra's name,
    # which the crosscheck table prints, differs
    rows = {}
    for source in (("--algebra", "tower:5"), ("--file", str(DENSE_TOWER5))):
        rc, out, err = run(capsys, *argv, *source)
        assert (rc, err) == (0, ""), source
        rows[source[0]] = [line for line in out.splitlines()
                           if not line.startswith("algebra:")]
    assert rows["--file"] == rows["--algebra"]
    assert len(rows["--file"]) > 6


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


def test_cli_non_holomorphic_lambda_text(capsys):
    rc, out, err = run(
        capsys, "degeneration", "--algebra", "tower:3", "--lambda", "v1^v2"
    )
    assert (rc, out) == (1, "")
    assert err == ("validation failure: lam is not holomorphic: "
                   "dbar(lam) = (1) v1^v3^ow1 != 0\n")


def test_cli_argparse_exit_codes(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("validate", "--algebra", "tower:3", "--lambda", "v1^^v2"),
    ("validate", "--algebra", "tower:3", "--coef", "1"),
    ("info", "--algebra", "kodaira", "--coef", "7"),
    ("info", "--algebra", "kodaira", "--theorem2"),
    ("cohomology", "--algebra", "tower:3", "--theorem2"),
    ("cohomology", "--algebra", "tower:3", "--lambda", "v1^v2"),
    ("cohomology", "--algebra", "tower:3", "--pages", "2"),
    ("poisson", "--algebra", "kodaira", "--coef", "1"),
    ("poisson", "--algebra", "kodaira", "--pages", "2"),
    ("spectral", "--algebra", "kodaira", "--lambda", "v1^v2", "--coef", "9"),
    ("degeneration", "--algebra", "kodaira", "--theorem2", "--coef", "1"),
    ("crosscheck", "--algebra", "tower:3", "--pages", "99"),
    ("crosscheck", "--algebra", "tower:3", "--theorem2"),
])
def test_cli_refuses_options_the_command_does_not_read(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_cli_file_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe\x00{}")
    rc, out, err = run(capsys, "validate", "--file", str(path))
    assert rc == 2
    assert err.startswith("error: ")
    assert str(path) in err


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


def test_cli_degeneration_non_real_lambda(capsys):
    # i times the pinned lambda: ad_lam has non-real entries, so every
    # elimination of D runs over Q(i).  Scaling the (p, q) column by i^p
    # conjugates the two complexes, so their pages agree.
    rc, out, _ = run(
        capsys,
        "degeneration", "--algebra", "tower:4",
        "--lambda", "2i v1^v4 - i v2^v3", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    rc, out, _ = run(
        capsys,
        "degeneration", "--algebra", "tower:4",
        "--lambda", "2 v1^v4 - v2^v3", "--format", "json",
    )
    assert rc == 0
    real = json.loads(out)
    assert doc["verdict"] == "fails-at-(2,0,2)"
    assert doc["details"]["failure"] == [2, 0, 2]
    assert doc["details"]["witness_image"] == "(-2i) v3^v4^ow2"
    assert doc["e_pages"] == real["e_pages"]
    assert doc["cohomology"] == real["cohomology"]


def test_cli_degeneration_tower6_counterexample(capsys):
    # the tower:4 counterexample extended to n = 6, with ad_lam != 0
    rc, out, _ = run(
        capsys,
        "degeneration", "--algebra", "tower:6",
        "--lambda", "2 v1^v6 - v2^v5 + v3^v4", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "fails-at-(2,0,2)"
    assert doc["details"] == {
        "failure": [2, 0, 2],
        "witness_source": "(1) v5^ow3 + (1) ow2^ow3",
        "witness_image": "(-2) v5^v6^ow2",
    }
    hk = [1, 3, 9, 18, 29, 38, 40, 38, 29, 18, 9, 3, 1]
    assert doc["cohomology"] == {str(k): d for k, d in enumerate(hk)}


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


def test_cli_info_on_a_center_that_is_not_j_invariant(capsys, tmp_path):
    # integrable, not abelian; the center span{e2, e5, e6} is odd, and its
    # J-invariant part span{e5, e6} holds the one central (1,0) direction
    j = [["0"] * 6 for _ in range(6)]
    for k in range(3):
        j[2 * k + 1][2 * k], j[2 * k][2 * k + 1] = "1", "-1"
    path = tmp_path / "odd_center.json"
    path.write_text(json.dumps({"dim": 6, "J": j, "brackets": [
        {"i": 1, "j": 3, "out": {"5": "1"}},
        {"i": 1, "j": 4, "out": {"6": "1"}}]}))
    rc, out, err = run(capsys, "validate", "--file", str(path), "--format",
                       "json")
    assert (rc, err) == (0, "")
    details = json.loads(out)["details"]
    assert (details["integrable"], details["abelian"]) == (True, False)
    rc, out, err = run(capsys, "info", "--file", str(path), "--format", "json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["details"]["center_dim_10"] == 1
    for argv, what in ((("poisson", "--theorem2"), "construction"),
                       (("crosscheck",), "bicomplex split")):
        assert run(capsys, *argv, "--file", str(path)) == (
            1, "", f"validation failure: the {what} needs an abelian "
                   "structure\n")


def _forbid(monkeypatch, *names):
    """Make each name raise in every package module that binds it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a monomial basis was built")

    for name in names:
        bound = [module for key, module in sys.modules.items()
                 if key.startswith("nilpoisson.") and hasattr(module, name)]
        assert bound, name
        for module in bound:
            monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("argv", [
    ("cohomology", "--algebra", "tower:12"),
    ("crosscheck", "--algebra", "tower:12", "--coef", "2"),
], ids=["cohomology", "crosscheck"])
def test_cli_refuses_oversized_algebra(capsys, monkeypatch, argv):
    # the size guard fires before any monomial basis is built, or even sized
    _forbid(monkeypatch, "cell_monomials", "CellBasis")
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == ("error: complex dimension n = 12 is above the supported "
                   "maximum 8: its bigraded complex would hold 4^12 = "
                   "16777216 monomials\n")


def _no_decode(self, j):
    raise AssertionError("a basis monomial was decoded")


@pytest.mark.parametrize("argv", [
    ("cohomology", "--algebra", "tower:4"),
    ("cohomology", "--algebra", "tower:4", "--format", "json"),
    ("cohomology", "--algebra", "tower:4", "--format", "csv"),
    ("cohomology", "--algebra", "tower:4", "--coef", "2"),
    ("crosscheck", "--algebra", "tower:4", "--coef", "2"),
], ids=["table", "json", "csv", "coef", "crosscheck"])
def test_cli_builds_no_monomial_tuple(capsys, monkeypatch, argv):
    # bases are sized from the half tables and representatives are written
    # from half texts, so a successful run decodes no basis monomial
    from nilpoisson.exterior import CellBasis

    def outputs():
        rc, out, err = run(capsys, *argv)
        # the JSON report carries timings, which differ from run to run
        return rc, json.loads(out)["cohomology"] if "json" in argv else out, err

    want = outputs()
    _forbid(monkeypatch, "cell_monomials", "graded_monomials")
    monkeypatch.setattr(CellBasis, "__getitem__", _no_decode)
    assert outputs() == want
    assert want[0] == 0


def test_library_betti_builds_no_monomial_tuple(monkeypatch):
    from nilpoisson.exterior import CellBasis
    from nilpoisson.homology import TotalComplex, poisson_betti
    from nilpoisson.poisson import theorem2_lambda

    def betti():
        ctx = CalculusContext(catalog_load("tower:4"))
        lam = theorem2_lambda(ctx).bivector
        return poisson_betti(TotalComplex(BigradedComplex(ctx, lam)))

    want = betti()
    _forbid(monkeypatch, "cell_monomials", "graded_monomials")
    monkeypatch.setattr(CellBasis, "__getitem__", _no_decode)
    assert betti() == want == {0: 1, 1: 5, 2: 12, 3: 19, 4: 22, 5: 19,
                               6: 12, 7: 5, 8: 1}


@pytest.mark.parametrize("argv", [
    ("cohomology", "--algebra", "tower:128"),
    ("spectral", "--algebra", "tower:128", "--theorem2"),
    ("degeneration", "--algebra", "tower:128"),
    ("crosscheck", "--algebra", "tower:128"),
], ids=["cohomology", "spectral", "degeneration", "crosscheck"])
def test_cli_refuses_oversized_algebra_before_its_context(capsys, monkeypatch,
                                                          argv):
    import nilpoisson.cli as cli

    def no_context(*args):
        raise AssertionError("a calculus context was built")

    monkeypatch.setattr(cli, "CalculusContext", no_context)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: complex dimension n = 128 is above the "
                          "supported maximum 8")


def test_cli_invalid_and_oversized_presentation_exits_2(capsys, tmp_path):
    # the size is read off the presentation before it is validated
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 20, "brackets": [], "J": [
        ["0"] * 20 for _ in range(20)]}))
    rc, _, err = run(capsys, "cohomology", "--file", str(path))
    assert rc == 2 and "n = 10" in err
    rc, _, err = run(capsys, "validate", "--file", str(path))
    assert rc == 1


def test_cli_cohomology_csv_renders_no_representatives(capsys, monkeypatch):
    import nilpoisson.homology as homology

    def no_texts(self):
        raise AssertionError("representatives were rendered")

    monkeypatch.setattr(homology.CohomologyCell, "representative_texts",
                        no_texts)
    rc, out, _ = run(capsys, "cohomology", "--algebra", "tower:3",
                     "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "p,q,dim" and len(out.splitlines()) == 17


def test_cli_refuses_oversized_preset_before_building_it(capsys, monkeypatch):
    # a preset above n = 128 is refused before its dense 2n x 2n J exists
    import nilpoisson.catalog as catalog

    def no_j(*args):
        raise AssertionError("the preset's J was built")

    monkeypatch.setattr(catalog, "_paired_j", no_j)
    for family in ("tower", "torus"):
        rc, out, err = run(capsys, "info", "--algebra", f"{family}:129")
        assert rc == 2
        assert out == ""
        assert err == f"error: {family}(n) needs n <= 128, got 129\n"
    rc, _, err = run(capsys, "validate", "--algebra", "tower:100000")
    assert rc == 2 and "n <= 128" in err


def test_catalog_loads_largest_preset():
    p = catalog_load("tower:128")
    assert p.dim == 256 and len(p.brackets) == 1 + 4 * 126
    assert catalog_load("torus:128").dim == 256


def test_cli_poisson_serves_any_n(capsys):
    # the size guard belongs to the bigraded complex, not to the d-bar cells
    rc, out, _ = run(capsys, "poisson", "--algebra", "tower:9", "--format",
                     "json")
    assert rc == 0
    assert json.loads(out)["details"]["closed_dim"] == 4


def test_cli_crosscheck_builds_one_context_and_no_complex(capsys, monkeypatch):
    import nilpoisson.calculus as calculus
    import nilpoisson.homology as homology

    built = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return wrapper

    for owner, attr, name in ((homology.BigradedComplex, "__init__", "complex"),
                              (calculus.CalculusContext, "__init__", "context"),
                              (calculus, "grading", "grading")):
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    rc, _, _ = run(capsys, "crosscheck", "--algebra", "tower:4", "--coef", "2")
    assert rc == 0
    assert built == ["context", "grading"]


def test_cli_crosscheck_checks_dbar_square_in_original_frame(capsys,
                                                             monkeypatch):
    # replace dbar out of the original-frame cell (2, 1) by a single unit
    # entry at the first row that dbar out of (2, 0) reaches, so that
    # dbar^2 out of (2, 0) has an entry; the adapted frame stays intact
    import nilpoisson.cli as cli
    import nilpoisson.homology as homology
    from nilpoisson.exact_linalg import ExactMatrix
    from nilpoisson.scalars import GR_ONE

    contexts = []
    real_context, real_cell = cli.CalculusContext, homology.dbar_cell

    def recorded(presentation):
        contexts.append(real_context(presentation))
        return contexts[-1]

    def corrupted(table, n, p, q):
        basis, mat = real_cell(table, n, p, q)
        if table is contexts[0].dbar_table and (p, q) == (2, 1):
            d0 = real_cell(table, n, 2, 0)[1]
            i = min(i for col in d0.cols for i in col)
            mat = ExactMatrix.zeros(mat.nrows, mat.ncols)
            mat.cols[i][0] = GR_ONE
        return basis, mat

    monkeypatch.setattr(cli, "CalculusContext", recorded)
    monkeypatch.setattr(homology, "dbar_cell", corrupted)
    rc, out, err = run(capsys, "crosscheck", "--algebra", "tower:4", "--coef",
                       "2")
    assert (rc, out) == (3, "")
    assert err == ("internal invariant violated: dbar^2 != 0 on cell "
                   "(p,q)=(2, 0): entry 1 from v1^v2 to v1^v2^ow1^ow2\n")


@pytest.mark.parametrize("corrupt, text", CROSSCHECK_BREAKS,
                         ids=["center-degree", "mismatch"])
def test_cli_crosscheck_invariant_failures_exit_3(capsys, monkeypatch,
                                                  corrupt, text):
    corrupt(monkeypatch)
    assert run(capsys, "crosscheck", "--algebra", "tower:4", "--coef",
               "1") == (3, "", f"internal invariant violated: {text}\n")


def test_cli_crosscheck_on_a_conjugated_file(capsys, tmp_path):
    path = tmp_path / "tower4_conjugated.json"
    save_file(conjugated(tower(4), random.Random(1)), str(path))
    rc, out, err = run(capsys, "crosscheck", "--file", str(path), "--coef",
                       "2", "--format", "json")
    assert (rc, err) == (0, "")
    details = json.loads(out)["details"]
    assert details["total_dims"] == details["direct_dims"] == {
        "0": 2, "1": 8, "2": 12, "3": 8, "4": 2}


@pytest.mark.parametrize("argv, code, builds", [
    (("cohomology", "--algebra", "tower:4"), 0, 0),
    (("cohomology", "--algebra", "tower:4", "--coef", "2", "--format", "csv"), 0, 0),
    (("spectral", "--algebra", "kodaira", "--lambda", "v1^v2"), 0, 0),
    (("degeneration", "--algebra", "tower:4", "--lambda", "2 v1^v4 - v2^v3"), 0, 0),
    (("poisson", "--algebra", "tower:5"), 0, 0),
    (("poisson", "--algebra", "kodaira", "--lambda", "v1^v2"), 0, 0),
    # the benchmark's expected rejections
    (("degeneration", "--algebra", "tower:5", "--lambda", "2 v1^v4 - v2^v3",
      "--format", "json"), 1, 0),
    (("spectral", "--algebra", "tower:4", "--lambda", "2 v1^^v4"), 2, 0),
    (("cohomology", "--algebra", "torus:3", "--coef", "5"), 2, 0),
    (("info", "--algebra", "tower:5"), 0, 1),
    (("info", "--algebra", "torus:3", "--format", "json"), 0, 1),
    (("poisson", "--algebra", "tower:5", "--theorem2", "--format", "json"), 0, 1),
    (("spectral", "--algebra", "tower:3", "--theorem2", "--pages", "2"), 0, 1),
    (("degeneration", "--algebra", "kodaira", "--theorem2"), 0, 1),
    (("crosscheck", "--algebra", "tower:4", "--coef", "2"), 0, 1),
    (("crosscheck", "--algebra", "torus:4"), 0, 1),
])
def test_cli_builds_the_grading_only_where_read(capsys, monkeypatch, argv,
                                                code, builds):
    # the context builds its grading on first read, and only info, the
    # theorem-2 bivector and the crosscheck read it
    import nilpoisson.calculus as calculus
    import nilpoisson.lie_structure as lie_structure

    real, calls = lie_structure.grading, []

    def counted(*args):
        calls.append(args[0].name)
        return real(*args)

    for module in (lie_structure, calculus):
        monkeypatch.setattr(module, "grading", counted)
    rc, _, _ = run(capsys, *argv)
    assert (rc, len(calls)) == (code, builds)


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


def test_cli_non_ascii_digit_is_usage_error(capsys):
    # str.isdigit() takes the superscript two, which int() then refuses
    rc, out, err = run(capsys, "spectral", "--algebra", "kodaira", "--lambda",
                       "v1^v\u00b2")
    assert (rc, out) == (2, "")
    assert err == "error: expected an index at position 4\n"


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
    # int() would read these as 10 and 4
    ("i", "1_0", '"i" must be an integer, not \'1_0\''),
    ("dim", "\uff14", '"dim" must be an integer, not \'\uff14\''),
    # indexing a string row would read it as a row of "0"s
    ("J", ["00", "00"], "J must be a dim x dim matrix"),
])
def test_cli_malformed_presentation_is_usage_error(capsys, tmp_path, field,
                                                   value, message):
    data = {
        "dim": 2,
        "brackets": [{"i": 1, "j": 2, "out": {"2": "0"}}],
        "J": [["0", "-1"], ["1", "0"]],
    }
    if field in ("dim", "J"):
        data[field] = value
    else:
        data["brackets"][0][field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    for cmd in ("validate", "info"):
        rc, out, err = run(capsys, cmd, "--file", str(path))
        assert (rc, out) == (2, ""), cmd
        assert err == f"error: bad algebra data: {message}\n"


KODAIRA_J = ('[["0", "-1", "0", "0"], ["1", "0", "0", "0"], '
             '["0", "0", "0", "-1"], ["0", "0", "1", "0"]]')


@pytest.mark.parametrize("text, message", [
    # "3" and "03" both name e3, and json keeps both keys
    ('{"dim": 4, "brackets": [{"i": 1, "j": 2, "out": {"3": "1", "03": "5"}}], '
     f'"J": {KODAIRA_J}}}',
     """"out" of bracket (1,2) names one index twice: ['03', '3']"""),
    # json alone keeps the last "dim"
    ('{"dim": 6, "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}], '
     f'"J": {KODAIRA_J}, "dim": 4}}',
     'key "dim" given twice'),
], ids=["out-index", "json-key"])
def test_cli_repeated_presentation_key_is_usage_error(capsys, tmp_path, text,
                                                      message):
    # kodaira with one key repeated: no value may silently win
    path = tmp_path / "repeated.json"
    path.write_text(text)
    for cmd in ("validate", "cohomology"):
        rc, out, err = run(capsys, cmd, "--file", str(path))
        assert (rc, out) == (2, ""), cmd
        assert err == f"error: bad algebra data: {message}\n"


def test_cli_out_index_is_ascii_digits(capsys, tmp_path):
    # kodaira with its one bracket out key written "0_3": int() reads e3
    path = tmp_path / "underscore.json"
    path.write_text('{"dim": 4, "brackets": [{"i": 1, "j": 2, "out": '
                    f'{{"0_3": "1"}}}}], "J": {KODAIRA_J}}}')
    for cmd in ("validate", "cohomology"):
        rc, out, err = run(capsys, cmd, "--file", str(path))
        assert (rc, out) == (2, ""), cmd
        assert err == ('error: bad algebra data: an index in "out" of bracket '
                       "(1,2) must be an integer, not '0_3'\n")


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


@pytest.mark.parametrize("source", [
    ("--algebra", "kodaira"), ("--algebra", "tower:3"), ("--algebra", "tower:4"),
    ("--algebra", "tower:5"), ("--algebra", "torus:3"),
    ("--file", str(DENSE_TOWER5)),
], ids=["kodaira", "tower3", "tower4", "tower5", "torus3", "dense-tower5"])
def test_cli_cohomology_coef_builds_only_its_column(capsys, monkeypatch,
                                                    source):
    # every column's cells, dimensions and representatives, are those of
    # the whole table, with no whole complex built
    rc, full, _ = run(capsys, "cohomology", *source, "--format", "json")
    assert rc == 0
    full = json.loads(full)["cohomology"]

    def no_complex(*args):
        raise AssertionError("a whole BigradedComplex was built")

    monkeypatch.setattr(BigradedComplex, "__init__", no_complex)
    n = max(int(key.split(",")[0]) for key in full)
    for ell in range(n + 1):
        rc, out, _ = run(capsys, "cohomology", *source, "--coef", str(ell),
                         "--format", "json")
        assert rc == 0
        want = {key: cell for key, cell in full.items()
                if key.startswith(f"{ell},")}
        assert json.loads(out)["cohomology"] == want, ell
        assert len(want) == n + 1
    assert len(full) == (n + 1) ** 2


def test_cli_cohomology_coef_checks_dbar_square_on_its_column(capsys,
                                                              monkeypatch):
    # replace dbar out of cell (2, 1) by a single unit entry at the first row
    # that dbar out of (2, 0) reaches, so that dbar^2 out of (2, 0) has one
    import nilpoisson.homology as homology
    from nilpoisson.exact_linalg import ExactMatrix
    from nilpoisson.scalars import GR_ONE

    real_cell = homology.dbar_cell

    def corrupted(table, n, p, q):
        basis, mat = real_cell(table, n, p, q)
        if (p, q) == (2, 1):
            d0 = real_cell(table, n, 2, 0)[1]
            i = min(i for col in d0.cols for i in col)
            mat = ExactMatrix.zeros(mat.nrows, mat.ncols)
            mat.cols[i][0] = GR_ONE
        return basis, mat

    monkeypatch.setattr(homology, "dbar_cell", corrupted)
    rc, out, err = run(capsys, "cohomology", "--algebra", "tower:4", "--coef",
                       "2")
    assert (rc, out) == (3, "")
    assert err == ("internal invariant violated: dbar^2 != 0 on cell "
                   "(p,q)=(2, 0): entry 1 from v1^v2 to v1^v2^ow1^ow2\n")


@pytest.mark.parametrize("argv", [
    ("cohomology", "--algebra", "kodaira"),
    ("cohomology", "--algebra", "tower:6", "--format", "json"),
])
def test_cli_closed_stdout_exits_1_without_traceback(argv):
    # stdout is a pipe whose read end is closed before the child starts, so
    # every write to it fails, whatever the size of the output
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "nilpoisson.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert b"Traceback" not in done.stderr
    assert b"Exception ignored" not in done.stderr


@pytest.mark.parametrize("command", ["validate", "info", "poisson",
                                     "crosscheck"])
def test_cli_refuses_csv_before_loading_the_algebra(capsys, monkeypatch,
                                                    command):
    import nilpoisson.cli as cli

    def no_load(name):
        raise AssertionError("the algebra was loaded")

    monkeypatch.setattr(cli, "catalog_load", no_load)
    rc, out, err = run(capsys, command, "--algebra", "tower:128",
                       "--format", "csv")
    assert (rc, out) == (2, "")
    assert err == f"error: csv output is not defined for {command}\n"



@pytest.mark.parametrize("argv, digest", [
    ("info --algebra tower:64",
     "8609d2c3d0054efa0e84eeff01d381a6c8d84a3390261fd96e59b6325bb9c329"),
    ("validate --algebra tower:64",
     "b5774161c7d053631c6c2ae7349211bd2e737c670c5a7fe0b8e97176f2bb96a0"),
    ("poisson --algebra tower:30 --theorem2",
     "e4b9788aaac7b1f0d283db8e68fb83a71f30b223c02cac6dc162fe47fb7ad10b"),
    ("info --algebra torus:128",
     "d2dd3fb1b0aca73d9223df4926161a63b5775d86e3f11965f08139afe383e75e"),
], ids=["info-tower:64", "validate-tower:64", "poisson-tower:30",
        "info-torus:128"])
def test_cli_context_json_pinned_at_large_n(capsys, argv, digest):
    # frame, grading and validation far past the catalog tests' sizes,
    # digested as the benchmark digests JSON
    rc, out, err = run(capsys, *argv.split(), "--format", "json")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    doc.pop("timings")
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("algebra, digest", [
    # 65,536 one-term representatives
    ("torus:8",
     "f6277f34e33eebaaf543b1c50b1d6117cd251f7cc21ab8318336e08bdd0117aa"),
    ("tower:8",
     "16ebce9059e140657e930dc16c250b6c04eca19d82a0ac3609f5fa9590761a36"),
], ids=["torus:8", "tower:8"])
def test_cli_cohomology_json_pinned_at_n8(capsys, algebra, digest):
    # the whole document but its timings, keys sorted, as the benchmark
    # digests it: dimensions and every representative at n = 8
    rc, out, err = run(capsys, "cohomology", "--algebra", algebra,
                       "--format", "json")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    doc.pop("timings")
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
