"""CLI: spec files, reports, exit codes, determinism."""

import copy
import io
import itertools
import json
import os
import tempfile
import textwrap
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zlca import cli, families, gd, ideals, specfile
from zlca.conformal import MAX_PAIRS
from zlca.poly import D, X, ParamPoly


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


VIR_SPEC = textwrap.dedent("""\
    {
      "params": [],
      "generators": [{"name": "L", "grade": 0}],
      "brackets": [
        {"left": "L", "right": "L",
         "terms": [{"target": "L", "poly": "d + 2*x"}]}
      ]
    }
    """)

BROKEN_SPEC = VIR_SPEC.replace("d + 2*x", "d + 3*x")


@pytest.fixture
def vir_path(tmp_path):
    path = tmp_path / "vir.json"
    path.write_text(VIR_SPEC)
    return str(path)


# -- spec files -----------------------------------------------------------------

def test_spec_roundtrip_is_canonical(vir_path):
    spec = specfile.load_path(vir_path)
    emitted = spec.dumps()
    assert specfile.loads(emitted).dumps() == emitted


def test_spec_polynomials_roundtrip():
    spec = specfile.loads(VIR_SPEC)
    alg = spec.algebra()
    (pair,) = alg.pairs()
    (poly,) = alg.entry(*pair).values()
    assert poly == D + 2 * X


def test_spec_undeclared_generator():
    bad = VIR_SPEC.replace('"target": "L"', '"target": "Q"')
    with pytest.raises(specfile.UndeclaredNameError):
        specfile.loads(bad)


def test_spec_undeclared_parameter():
    bad = VIR_SPEC.replace("d + 2*x", "d + s*x")
    with pytest.raises(specfile.UndeclaredNameError):
        specfile.loads(bad)


def test_spec_grade_mismatch(tmp_path):
    # The loader checks the file; the model refuses a target off grade i + j.
    bad = json.loads(VIR_SPEC)
    bad["generators"].append({"name": "A", "grade": 1})
    bad["brackets"].append({"left": "L", "right": "A",
                            "terms": [{"target": "L", "poly": "d"}]})
    spec = specfile.loads(json.dumps(bad))
    with pytest.raises(ValueError, match=r"^bracket \(L, A\) targets L of "
                                         r"grade 0, expected 1$"):
        spec.algebra()
    assert run(["verify", write_json(tmp_path / "bad.json", bad)])[0] == 2


def test_spec_duplicate_row_rejected():
    bad = json.loads(VIR_SPEC)
    bad["brackets"].append(bad["brackets"][0])
    with pytest.raises(specfile.SpecFileError):
        specfile.loads(json.dumps(bad))


def test_spec_poly_syntax_error_carries_position():
    bad = VIR_SPEC.replace("d + 2*x", "d + 2x")
    with pytest.raises(specfile.SpecFileError) as info:
        specfile.loads(bad)
    assert "column 6" in str(info.value)


def test_spec_invalid_json():
    with pytest.raises(specfile.SpecFileError):
        specfile.loads("{nope")


# -- verify ------------------------------------------------------------------------

def test_verify_pass(vir_path):
    code, out, _ = run(["verify", vir_path])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["counts"] == {"checked": 2, "skipped": 0}
    assert report["sections"]["spectral"]["lines"]["0"]["weight"] == "2"


def test_verify_fail_reports_residual(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(BROKEN_SPEC)
    code, out, _ = run(["verify", str(path)])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert any(v["kind"] == "skew" and v["residual"] == "-d"
               for v in report["violations"])


def test_verify_with_bindings(tmp_path):
    code, out, _ = run(["family", "CL2", "--window=-3..3",
                        "-o", str(tmp_path / "cl2.json")])
    assert code == 0
    code, out, _ = run(["verify", str(tmp_path / "cl2.json"),
                        "--bind", "b=1", "--bind", "s=0"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert "lines" in report["sections"]["spectral"]
    assert report["sections"]["support"]["degree1"] == [1, 2, 3]


def test_verify_undecidable_remainder(tmp_path):
    # a lone grade-1 generator: every pair and triple escapes the window
    spec = {"params": [], "generators": [{"name": "A", "grade": 1}],
            "brackets": []}
    path = tmp_path / "lone.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(["verify", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "undecidable-remainder"
    assert report["counts"]["checked"] == 0
    assert report["counts"]["skipped"] > 0


def test_verify_missing_file():
    code, _, err = run(["verify", "/no/such/file.json"])
    assert code == 2
    assert "error" in json.loads(err)


def test_verify_unknown_binding(vir_path):
    code, _, err = run(["verify", vir_path, "--bind", "q=1"])
    assert code == 2


def verify_poly(tmp_path, poly):
    """Exit code and stderr of verify on VIR_SPEC with its entry replaced."""
    path = tmp_path / "hostile.json"
    path.write_text(VIR_SPEC.replace('"d + 2*x"', json.dumps(poly)))
    code, _, err = run(["verify", str(path)])
    return code, err


@pytest.mark.parametrize("poly", ["(" * 3000 + "d" + ")" * 3000,
                                  "-" * 3000 + "d"])
def test_verify_deep_nesting_is_input_error(tmp_path, poly):
    code, err = verify_poly(tmp_path, poly)
    assert code == 2
    assert "nesting deeper than 100" in err


def test_verify_long_literal_is_input_error(tmp_path):
    code, err = verify_poly(tmp_path, "d + " + "7" * 5000 + "*x")
    assert code == 2
    assert "integer literal longer than 1000 digits (column 5)" in err


def test_verify_non_ascii_digit_is_input_error(tmp_path):
    code, err = verify_poly(tmp_path, "d + \uff12*x")
    assert code == 2
    assert "unexpected character" in err


def v_spec_with_entry(tmp_path, poly):
    """A V(s) spec on grades -1..1 whose (L0, L0) entry is ``poly``."""
    path = tmp_path / "v.json"
    assert run(["family", "V", "--window=-1..1", "-o", str(path)])[0] == 0
    spec = json.loads(path.read_text())
    row = next(r for r in spec["brackets"]
               if (r["left"], r["right"]) == ("L0", "L0"))
    row["terms"][0]["poly"] = poly
    text = json.dumps(spec)
    path.write_text(text)
    return str(path), text


def test_spec_degree_budget(tmp_path):
    # MAX_EXPONENT caps each '^', MAX_FORMAL_DEGREE each structure polynomial.
    for poly, message in (("d^99999999999", "exponent larger than 16"),
                          ("(d + x + 1)^16", "formal degree 16 exceeds 12"),
                          ("d^6*x^7 + d", "formal degree 13 exceeds 12")):
        path, text = v_spec_with_entry(tmp_path, poly)
        with pytest.raises(specfile.SpecFileError, match=message):
            specfile.loads(text)
        start = time.perf_counter()
        code, out, err = run(["verify", path])
        assert (code, out) == (2, "")
        assert message in json.loads(err)["error"]
        assert time.perf_counter() - start < 1, poly
    path, text = v_spec_with_entry(tmp_path, "(d + x + 1)^12")
    specfile.loads(text)
    assert run(["verify", path])[0] == 1
    assert specfile.MAX_FORMAL_DEGREE == 12


def test_spec_product_budget(tmp_path):
    # Two factors of 6,188 terms each, formal degree 0: refused before the
    # product is multiplied out.
    poly = "(a+b+c+e+f+1)^12*(a+b+c+e+f+1)^12"
    path, text = v_spec_with_entry(tmp_path, poly)
    spec = json.loads(text)
    spec["params"] = ["a", "b", "c", "e", "f", "s"]
    path = tmp_path / "product.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, err = run(["verify", str(path)])
    assert (code, out) == (2, "")
    assert "term pairs" in json.loads(err)["error"]
    assert time.perf_counter() - start < 1


def test_spec_term_budget(tmp_path):
    # A stored table polynomial has at most MAX_TABLE_TERMS terms.  Each row
    # of this V spec gains 3,003 terms, built by a product under the product
    # cap (63,504 term pairs); verify on such a table runs for minutes.
    cap = specfile.MAX_TABLE_TERMS
    assert cap == 612
    path = tmp_path / "v.json"
    assert run(["family", "V", "--window=-3..3", "-o", str(path)])[0] == 0
    spec = json.loads(path.read_text())
    spec["params"] = ["a", "b", "c", "e", "f", "s"]
    for row in spec["brackets"]:
        row["terms"][0]["poly"] += " + (a+b+c+e+f+1)^5*(a+b+c+e+f+1)^5"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, err = run(["verify", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (f"{path}: brackets[0].terms[0].poly: "
                                        "3006 terms exceed 612")
    assert time.perf_counter() - start < 2

    a, b, c = (ParamPoly.variable(name) for name in "abc")
    monos = [a ** i * b ** j * c ** k
             for i in range(17) for j in range(17) for k in range(17)]
    for size in (cap, cap + 1):
        path, text = v_spec_with_entry(tmp_path, str(sum(monos[:size],
                                                         ParamPoly.zero())))
        text = text.replace('"params": ["s"]', '"params": ["a", "b", "c", "s"]')
        if size == cap:
            assert len(specfile.loads(text).brackets) == 7
        else:
            with pytest.raises(specfile.SpecFileError,
                               match=f"{cap + 1} terms exceed {cap}"):
                specfile.loads(text)


def _monomials(names, limit, top=3):
    """The first ``limit`` monomials in ``names``, exponents up to ``top``,
    as spec text."""
    terms = ("*".join(f"{v}^{e}" for v, e in zip(names, exps) if e) or "1"
             for exps in itertools.product(range(top + 1), repeat=len(names)))
    return " + ".join(itertools.islice(terms, limit))


@pytest.mark.parametrize("params, extra", [
    (["a", "b", "c", "e", "f", "s"], _monomials("abcef", 600)),
    (["a", "s"], " + ".join([f"d^{i}*x^{j}*a^{k}" for k in range(7)
                             for i in range(13) for j in range(13 - i)][:600])),
], ids=["five-params", "formal"])
def test_verify_work_budget(tmp_path, params, extra):
    # Every V(s) -3..3 entry gains about 600 terms, within MAX_TABLE_TERMS:
    # the spec loads at once, but its Jacobi check would run for minutes.
    # It stops once it has spent MAX_PAIRS term pairs, in seconds.
    path = tmp_path / "v.json"
    assert run(["family", "V", "--window=-3..3", "-o", str(path)])[0] == 0
    spec = json.loads(path.read_text())
    spec["params"] = params
    for row in spec["brackets"]:
        row["terms"][0]["poly"] += " + " + extra
    path.write_text(json.dumps(spec))
    specfile.loads(path.read_text())
    start = time.perf_counter()
    code, out, err = run(["verify", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (
        f"the Jacobi check needs more than {MAX_PAIRS} term pairs")
    assert time.perf_counter() - start < 60


def test_gd_work_budget(tmp_path):
    # Six generators whose product and bracket rows each carry one 200-term
    # coefficient in a, b, c: each composite multiplies 40,000 term pairs,
    # and the Novikov laws alone would need 17.3 M of them.  The Novikov
    # check stops once it has spent MAX_PAIRS, in seconds.
    names = [f"L{i}" for i in range(6)]
    rows = [{"left": u, "right": v,
             "terms": [{"target": "L0", "poly": _monomials("abc", 200, 7)}]}
            for u in names for v in names]
    path = tmp_path / "gd.json"
    path.write_text(json.dumps({
        "params": ["a", "b", "c"],
        "generators": [{"name": u, "grade": 0} for u in names],
        "products": rows, "brackets": rows}))
    for command, prefix in (("check", ""), ("to-lca", f"{path}: ")):
        start = time.perf_counter()
        code, out, err = run(["gd", command, str(path)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == (
            f"{prefix}the Novikov check needs more than {MAX_PAIRS} term "
            f"pairs")
        assert time.perf_counter() - start < 60


def test_spec_generator_budget(tmp_path):
    # A spec declares at most as many generators as the widest family window.
    assert specfile.MAX_GENERATORS == cli.MAX_WINDOW_GRADES == 101
    path = tmp_path / "wide.json"
    assert run(["family", "V", "--s=0", "--window=-50..50",
                "-o", str(path)])[0] == 0
    spec = json.loads(path.read_text())
    assert len(spec["generators"]) == specfile.MAX_GENERATORS
    specfile.loads(path.read_text())
    spec["generators"].append({"name": "extra", "grade": 0})
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, err = run(["verify", str(path)])
    assert (code, out) == (2, "")
    assert "at most 101" in json.loads(err)["error"]
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("change, message", [
    ({"params": ["s", "s"]}, "params: duplicate parameter 's'"),
    ({"generators": [{"name": "L", "grade": 0},
                     {"name": "M", "grade": 10000}]},
     "generators[1]: grade of 'M' has more than 4 digits"),
], ids=["parameter-twice", "grade-10000"])
def test_bad_declarations_are_input_errors(tmp_path, change, message):
    path = tmp_path / "declared.json"
    path.write_text(json.dumps({**json.loads(VIR_SPEC), **change}))
    code, out, err = run(["verify", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == f"{path}: {message}"


def test_internal_error_exit_code(vir_path, monkeypatch):
    # An uncaught exception is exit 3 with a JSON error, never exit 1.
    def broken(alg):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "check_jacobi", broken)
    code, out, err = run(["verify", vir_path])
    assert (code, out) == (cli.INTERNAL_ERROR, "") and code == 3
    assert json.loads(err) == {"error": "internal error: KeyError: 'boom'"}


# -- family ------------------------------------------------------------------------

def test_family_emission_verifies(tmp_path):
    for argv in (["family", "V", "--s", "0", "--window=-3..3"],
                 ["family", "CL1", "--top", "5"],
                 ["family", "SCL2", "--b", "1", "--window=-6..6"]):
        path = tmp_path / "out.json"
        code, _, _ = run(argv + ["-o", str(path)])
        assert code == 0
        code, out, _ = run(["verify", str(path)])
        assert code == 0, out


def test_family_v_zero_brackets_are_uniform(tmp_path):
    code, out, _ = run(["family", "V", "--s", "0", "--window=-3..3"])
    assert code == 0
    spec = json.loads(out)
    assert all(term["poly"] == "d + 2*x"
               for row in spec["brackets"] for term in row["terms"])


def test_family_scl2_matches_literal(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["family", "SCL2", "--b", "1", "--window=-6..6",
                "-o", str(a)])[0] == 0
    assert run(["family", "SCL2Literal", "--b", "1", "--window=-6..6",
                "-o", str(b)])[0] == 0
    assert a.read_text() == b.read_text()


def test_family_cl1_window(tmp_path):
    code, out, _ = run(["family", "CL1", "--top", "5"])
    spec = json.loads(out)
    grades = sorted(g["grade"] for g in spec["generators"])
    assert grades == list(range(-1, 6))


def test_family_cl1_top_is_a_signed_bound():
    # --top=-1 is the one-grade window; half_line alone refuses a lower top.
    code, out, err = run(["family", "CL1", "--top=-1"])
    assert (code, err) == (0, "")
    assert out == specfile.from_algebra(families.make_cl1("s", -1)).dumps()
    code, out, err = run(["family", "CL1", "--top=-2"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "window top must be at least -1"}


#: The Lie algebra sl2 as a spec file for ``family Cur --lie``.
SL2_LIE = {
    "params": [],
    "generators": [{"name": "e", "grade": 0}, {"name": "f", "grade": 0},
                   {"name": "h", "grade": 0}],
    "brackets": [
        {"left": "h", "right": "e", "terms": [{"target": "e", "poly": "2"}]},
        {"left": "e", "right": "h", "terms": [{"target": "e", "poly": "-2"}]},
        {"left": "h", "right": "f", "terms": [{"target": "f", "poly": "-2"}]},
        {"left": "f", "right": "h", "terms": [{"target": "f", "poly": "2"}]},
        {"left": "e", "right": "f", "terms": [{"target": "h", "poly": "1"}]},
        {"left": "f", "right": "e", "terms": [{"target": "h", "poly": "-1"}]},
    ],
}


def test_family_cur_from_lie_file(tmp_path):
    lie = copy.deepcopy(SL2_LIE)
    lie_path = tmp_path / "sl2.json"
    lie_path.write_text(json.dumps(lie))
    out_path = tmp_path / "cur.json"
    assert run(["family", "Cur", "--lie", str(lie_path),
                "-o", str(out_path)])[0] == 0
    code, out, _ = run(["verify", str(out_path)])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert "skipped" in report["sections"]["spectral"]

    # broken constants (antisymmetry) are refused at construction
    lie["brackets"][1]["terms"][0]["poly"] = "2"
    lie_path.write_text(json.dumps(lie))
    assert run(["family", "Cur", "--lie", str(lie_path)])[0] == 2


def test_probe_refuses_a_grade_with_two_generators(tmp_path):
    lie_path = tmp_path / "sl2.json"
    lie_path.write_text(json.dumps(SL2_LIE))
    cur_path = tmp_path / "cur.json"
    assert run(["family", "Cur", "--lie", str(lie_path),
                "-o", str(cur_path)])[0] == 0
    code, out, err = run(["probe", str(cur_path), "--core=0..0"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "simplicity probe requires exactly one generator per grade"}


def test_verify_skips_the_spectral_section_by_the_grade_zero_rule(tmp_path):
    lie_path = tmp_path / "sl2.json"
    lie_path.write_text(json.dumps(SL2_LIE))
    cur_path = tmp_path / "cur.json"
    assert run(["family", "Cur", "--lie", str(lie_path),
                "-o", str(cur_path)])[0] == 0
    no_zero = tmp_path / "no_zero.json"
    write_json(no_zero, {"generators": [{"name": "A", "grade": 1},
                                        {"name": "B", "grade": 2}]})
    # three generators at grade 0, and one generator per grade but no grade 0
    for path in (cur_path, no_zero):
        code, out, _ = run(["verify", str(path)])
        assert code == 0
        sections = json.loads(out)["sections"]
        assert sections["spectral"] == {
            "skipped": "requires exactly one generator per grade and a "
                       "grade-0 generator"}
        assert "support" not in sections


def test_commands_refuse_flags_they_do_not_read(tmp_path, vir_path):
    gd_path = tmp_path / "a1.json"
    gd_path.write_text(a1_spec_text())
    out = tmp_path / "out.json"
    for argv, message in (
            (["family", "V", "--b=1/2", "--window=-1..1"],
             "V does not read --b"),
            (["family", "Vir", "--s", "3", "--window=-4..4", "--top", "7"],
             "Vir does not read --s, --window, --top"),
            (["family", "CL1", "--window=-1..9", "--top", "1"],
             "CL1 does not read --window"),
            (["family", "CL2", "--window=-1..1", "--lie", vir_path],
             "CL2 does not read --lie"),
            (["gd", "check", str(gd_path), "-o", str(out)],
             "gd check does not read -o"),
            (["solve-feq", "--ai=1", "--aj=1", "--aij=0", "--top=1",
              "--bi=5", "--bj=7", "--bij=9"],
             "solve-feq --top does not read --bi, --bj, --bij"),
            (["solve-feq", "--tables", "--ai=3"],
             "solve-feq --tables does not read --ai")):
        code, stdout, err = run(argv)
        assert (code, stdout) == (2, ""), argv
        assert json.loads(err) == {"error": message}, argv
    assert not out.exists()


def test_family_input_errors():
    assert run(["family", "SCL2", "--b", "1", "--window=-3..3"])[0] == 2
    assert run(["family", "V", "--window", "3..-3"])[0] == 2
    assert run(["family", "V"])[0] == 2


def test_integer_arguments_are_bounded(tmp_path):
    # Window bounds, --core, --top and --full: ASCII digits, at most
    # MAX_BOUND_DIGITS of them, and at most MAX_WINDOW_GRADES grades.
    cl2 = write_cl2(tmp_path, "1/2", "1", window="-2..2")
    feq = ["solve-feq", "--ai=1", "--aj=1", "--aij=0"]
    for argv in (["family", "CL2", "--window=-5.." + "9" * 5000],
                 ["family", "V", "--s=0", "--window=-3000..3000"],
                 ["family", "V", "--s=0", "--window=-50..51"],
                 ["family", "V", "--s=0", "--window=-\uff11..1"],
                 ["family", "CL1", "--top=\uff11"],
                 ["family", "CL1", "--top=3000"],
                 ["family", "CL1", "--top=-2"],
                 [*feq, "--top=\uff11"],
                 [*feq, "--top=" + "9" * 5000],
                 [*feq, "--top=1e3"],
                 [*feq, "--bi=0", "--bj=0", "--bij=0", "--full=\uff11"],
                 [*feq, "--bi=0", "--bj=0", "--bij=0", "--full=-1"],
                 ["probe", str(cl2), "--core=-1.." + "9" * 5000]):
        start = time.perf_counter()
        code, out, err = run(argv)
        assert code == 2, argv
        assert out == "" and "error" in json.loads(err), argv
        assert time.perf_counter() - start < 1, argv
    assert cli._parse_window("-50..50") == (-50, 50)
    assert cli._parse_window("9999..9999") == (9999, 9999)
    with pytest.raises(cli.InputError):
        cli._parse_window("10000..10000")
    assert run([*feq, "--top=0001"])[0] == 0


# -- solve-feq ---------------------------------------------------------------------

def test_solve_feq_top_json_shape():
    code, out, _ = run(["solve-feq", "--ai", "5/3", "--aj", "5/3",
                        "--aij=-2/3", "--top", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 1
    assert report["basis"] == ["d^3 + 3/2*d^2*x - 3/2*d*x^2 - x^3"]
    assert len(report["echelon_hash"]) == 64


def test_solve_feq_full_shift_mismatch():
    code, out, _ = run(["solve-feq", "--ai", "2", "--bi", "0", "--aj", "2",
                        "--bj", "0", "--aij", "2", "--bij", "1", "--full", "3"])
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_solve_feq_tables_pass():
    code, out, _ = run(["solve-feq", "--tables"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert all(case["passed"] for case in report["cases"])


def test_solve_feq_input_errors():
    assert run(["solve-feq"])[0] == 2
    assert run(["solve-feq", "--ai", "2", "--aj", "2", "--aij", "2",
                "--top", "9"])[0] == 2
    assert run(["solve-feq", "--ai", "x", "--aj", "2", "--aij", "2",
                "--top", "1"])[0] == 2
    # Only ASCII p/q: no exponents, decimals, non-ASCII digits or q = 0,
    # and at most 1000 digits a part.
    for value in ("1e1000000", "1.5", "\uff12", "1/0", " 1", "+1", "1/-2",
                  "1" * 1001, "1/" + "3" * 1001):
        code, _, err = run(["solve-feq", f"--ai={value}", "--aj=1",
                            "--aij=0", "--top=2"])
        assert code == 2, value
        assert "not a rational number" in err or "zero denominator" in err
    assert run(["solve-feq", "--ai=" + "1" * 1000, "--aj=1", "--aij=0",
                "--top=0"])[0] == 0
    # Exactly one mode: two of --full, --top and --tables are an error, not
    # a silent choice of one of them.
    weights = ["--ai=2", "--bi=0", "--aj=2", "--bj=0", "--aij=2", "--bij=0"]
    for modes in (["--full=3", "--top=2"], ["--tables", "--full=3"],
                  ["--tables", "--top=1"], ["--full=1", "--top=1", "--tables"]):
        code, out, err = run(["solve-feq", *weights, *modes])
        assert (code, out) == (2, ""), modes
        message = json.loads(err)["error"]
        assert message.startswith("choose one mode") and "\n" not in message


def test_bind_value_must_be_ascii_fraction(tmp_path):
    path = tmp_path / "cl2.json"
    assert run(["family", "CL2", "--window=-1..1", "-o", str(path)])[0] == 0
    for value in ("1e1000000", "\uff12", "0.5"):
        code, _, err = run(["verify", str(path), "--bind", f"b={value}"])
        assert code == 2, value
        assert "not a rational number" in err


# -- gd ----------------------------------------------------------------------------

def a1_spec_text():
    from zlca import gd as gdmod
    return specfile.from_gd(gdmod.gd_a1("s", 3)).dumps()


def test_gd_check_passes(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(a1_spec_text())
    code, out, _ = run(["gd", "check", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["sections"]["compatibility"]["checked"] > 0


def test_gd_check_catches_breakage(tmp_path):
    spec = json.loads(a1_spec_text())
    for row in spec["products"]:
        if row["left"] == "L0" and row["right"] == "L0":
            row["terms"][0]["poly"] = "2"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(["gd", "check", str(path)])
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_gd_to_lca_matches_family(tmp_path):
    a1 = tmp_path / "a1.json"
    a1.write_text(a1_spec_text())
    lca = tmp_path / "lca.json"
    assert run(["gd", "to-lca", str(a1), "--bind", "s=1",
                "-o", str(lca)])[0] == 0
    family = tmp_path / "cl1.json"
    assert run(["family", "CL1", "--s", "1", "--top", "3",
                "-o", str(family)])[0] == 0
    assert lca.read_text() == family.read_text()


def test_gd_from_lca_roundtrip(tmp_path):
    a1 = tmp_path / "a1.json"
    a1.write_text(a1_spec_text())
    lca = tmp_path / "lca.json"
    run(["gd", "to-lca", str(a1), "-o", str(lca)])
    back = tmp_path / "back.json"
    assert run(["gd", "from-lca", str(lca), "-o", str(back)])[0] == 0
    assert json.loads(back.read_text()) == json.loads(a1.read_text())


def test_gd_from_lca_rejects_nonquadratic(tmp_path):
    scl2 = tmp_path / "scl2.json"
    run(["family", "SCL2", "--b", "1", "--window=-6..6", "-o", str(scl2)])
    code, out, _ = run(["gd", "from-lca", str(scl2)])
    assert code == 1
    assert json.loads(out)["violations"][0]["kind"] == "not-quadratic"


@pytest.mark.parametrize("name", ["d", "zz"])
@pytest.mark.parametrize("subcommand", ["check", "to-lca", "from-lca"])
def test_gd_unknown_binding(tmp_path, subcommand, name):
    # A formal variable or an undeclared name is an input error, as in verify,
    # not a crash (d) or a binding silently ignored (zz).
    path = tmp_path / "in.json"
    if subcommand == "from-lca":
        assert run(["family", "CL2", "--window=-2..2", "-o", str(path)])[0] == 0
    else:
        path.write_text(a1_spec_text())
    code, out, err = run(["gd", subcommand, str(path), "--bind", f"{name}=1"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == f"binding for unknown parameter {name!r}"
    code, _, err = run(["gd", subcommand, str(path), "--bind", "s=1"])
    assert (code, err) == (0, "")


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_gd_to_lca_input_errors(tmp_path):
    # Both structures pass gd check, but neither is a conformal algebra on its
    # basis: the message of the failed conversion is an input error.
    wrong_grade = write_json(tmp_path / "grade.json", {
        "generators": [{"name": "A", "grade": 0}, {"name": "B", "grade": 1}],
        "products": [{"left": u, "right": v,
                      "terms": ([{"target": "B", "poly": "1"}]
                                if (u, v) == ("A", "A") else [])}
                     for u in "AB" for v in "AB"],
        "brackets": [{"left": u, "right": v, "terms": []}
                     for u in "AB" for v in "AB"]})
    empty = write_json(tmp_path / "empty.json", {
        "generators": [{"name": "A", "grade": 0}], "products": [],
        "brackets": []})
    for path, message in (
            (wrong_grade, "bracket (A, A) targets B of grade 1, expected 0"),
            (empty, "pair (A, A) lands in the window but the product or "
                    "bracket is undecidable")):
        assert run(["gd", "check", path])[0] == 0
        code, out, err = run(["gd", "to-lca", path])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"{path}: {message}"}


def test_declared_parameters_bind_in_verify_and_gd(tmp_path):
    # CL2(1, 0) declaring s, which no entry uses: --bind s=1 is accepted by
    # verify and by gd alike, and an undeclared name is refused by both.
    family = run(["family", "CL2", "--b", "1", "--s", "0", "--window=-2..2"])[1]
    spec = json.loads(family)
    spec["params"] = ["s"]
    lca = write_json(tmp_path / "cl2.json", spec)
    gd_path = tmp_path / "gd.json"
    assert run(["gd", "from-lca", lca, "-o", str(gd_path)])[0] == 0
    spec = json.loads(gd_path.read_text())
    assert spec["params"] == []
    spec["params"] = ["s"]
    gd_spec = write_json(gd_path, spec)
    for argv in (["verify", lca], ["gd", "check", gd_spec],
                 ["gd", "to-lca", gd_spec]):
        code, out, err = run([*argv, "--bind", "s=1"])
        assert (code, err) == (0, ""), argv
        code, out, err = run([*argv, "--bind", "zz=1"])
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == "binding for unknown parameter 'zz'"
    assert run(["gd", "to-lca", gd_spec, "--bind", "s=1"])[1] == family


def test_table_rules_reach_the_cli_as_input_errors(tmp_path):
    # Each table type's coefficient rule: no y in a bracket polynomial, no
    # formal variable in a GD structure constant.
    path = tmp_path / "y.json"
    path.write_text(VIR_SPEC.replace("d + 2*x", "d + 2*x + y"))
    code, out, err = run(["verify", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (f"{path}: structure polynomials may "
                                        f"not use y")
    spec = json.loads(a1_spec_text())
    spec["products"][0]["terms"][0]["poly"] = "d"
    path = tmp_path / "d.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["gd", "check", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (f"{path}: structure constants must be "
                                        f"free of d, x, y")


#: Mis-graded rows added to a Virasoro spec with A at grade 1: (left, right,
#: poly) of a row whose one term targets L, at grade 0.
MIS_GRADED = {"in-window": ("L", "A", "d"), "out-of-window": ("A", "A", "d"),
              "zero-coefficient": ("L", "A", "0")}


@pytest.mark.parametrize("command, options", [
    (["verify"], []), (["probe"], ["--core=0..0"]), (["ideal-check"], []),
    (["gd", "from-lca"], [])],
    ids=["verify", "probe", "ideal-check", "gd from-lca"])
@pytest.mark.parametrize("case", sorted(MIS_GRADED))
def test_the_model_refuses_a_target_off_the_sum_grade(tmp_path, case,
                                                      command, options):
    # The loader reads every mis-graded row; building the algebra refuses it,
    # in and out of the window and with a zero coefficient alike.
    left, right, poly = MIS_GRADED[case]
    spec = json.loads(VIR_SPEC)
    spec["generators"].append({"name": "A", "grade": 1})
    spec["brackets"].append({"left": left, "right": right,
                             "terms": [{"target": "L", "poly": poly}]})
    spec["submodule"] = {"0": "full", "1": "full"}
    path = write_json(tmp_path / "graded.json", spec)
    want = 1 + (left == "A")
    code, out, err = run([*command, path, *options])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"{path}: bracket ({left}, {right}) "
                                        f"targets L of grade 0, expected "
                                        f"{want}"}


def write_a2_gd(tmp_path):
    """The GD structure of CL2(1/2, 1) on -4..4, with its SCL2 pattern."""
    path = tmp_path / "a2.json"
    path.write_text(specfile.from_gd(
        gd.gd_a2(Fraction(1, 2), -1, range(-4, 5))).dumps())
    pattern = write_json(tmp_path / "scl2.json", {
        str(g): ("d + 2" if g == -1 else "full") for g in range(-4, 5)})
    return str(path), pattern


@pytest.mark.parametrize("command, options", [
    (["verify"], []), (["probe"], ["--core=-2..2"]),
    (["ideal-check"], ["--pattern"]), (["gd", "from-lca"], []),
    (["family", "Cur", "--lie"], [])],
    ids=["verify", "probe", "ideal-check", "gd from-lca", "family Cur --lie"])
def test_conformal_commands_refuse_a_gd_spec(tmp_path, command, options):
    # A spec with a products table is a GD structure: reading its brackets
    # as a conformal algebra, without its products, would answer another
    # question than the file asks.
    path, pattern = write_a2_gd(tmp_path)
    argv = [*command, path, *options]
    if "--pattern" in options:
        argv.append(pattern)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"{path}: spec file has a products "
                                        f"table (GD mode): only gd check and "
                                        f"gd to-lca read it"}
    assert run(["gd", "check", path])[0] == 0


def test_gd_errors_come_in_the_order_spec_model_bindings(tmp_path):
    # gd check and gd to-lca load as verify does: the spec, then the model,
    # then the bindings, so a spec that is no GD structure is reported before
    # a malformed --bind.
    lca = str(write_cl2(tmp_path, "1", None))
    gd_spec, _ = write_a2_gd(tmp_path)
    missing = str(tmp_path / "missing.json")
    for subcommand in ("check", "to-lca"):
        for path, error in (
                (missing, f"cannot read {missing}"),
                (lca, f"{lca}: spec file has no products table (not GD mode)"),
                (gd_spec, "bindings look like name=p/q, got 's'")):
            code, out, err = run(["gd", subcommand, path, "--bind", "s"])
            assert (code, out) == (2, ""), (subcommand, path)
            assert json.loads(err)["error"].startswith(error)
    code, _, err = run(["verify", gd_spec, "--bind", "s"])
    assert code == 2 and "(GD mode)" in json.loads(err)["error"]


# -- ideal-check and probe -----------------------------------------------------------

def write_cl2(tmp_path, b, s, window="-5..5"):
    path = tmp_path / f"cl2_{b.replace('/', '_')}.json"
    argv = ["family", "CL2", "--b", b, f"--window={window}", "-o", str(path)]
    if s is not None:
        argv += ["--s", s]
    assert run(argv)[0] == 0
    return path


def test_ideal_check_closed(tmp_path):
    cl2 = write_cl2(tmp_path, "1", None)
    pattern = {str(g): ("d + 2*s" if g == -2 else "full") for g in range(-5, 6)}
    pat = tmp_path / "pattern.json"
    pat.write_text(json.dumps(pattern))
    code, out, _ = run(["ideal-check", str(cl2), "--pattern", str(pat)])
    assert code == 0
    assert json.loads(out)["closed"] is True


def scl2_pattern(tmp_path, component, window=range(-4, 5)):
    """A pattern file: ``component`` at grade -1, full at every other grade."""
    return write_json(tmp_path / "pattern.json", {
        str(g): (component if g == -1 else "full") for g in window})


def with_submodule(tmp_path, spec_path, pattern_path):
    """A copy of the spec with the pattern as its own submodule."""
    spec = json.loads(open(spec_path).read())
    spec["submodule"] = json.loads(open(pattern_path).read())
    return write_json(tmp_path / "with_submodule.json", spec)


@pytest.mark.parametrize("component, bind, closed", [
    ("d + 2*s", [], True), ("d + 2*s", ["s=1"], True),
    ("d + 3*s", ["s=1"], False), ("d + 2", ["s=1"], True),
    ("d + 2", ["s=3"], False)])
def test_bind_binds_the_pattern(tmp_path, component, bind, closed):
    # CL2(1/2, s) has the SCL2 ideal, d + 2s at grade -1, for every s.  Bound
    # at s = 1, the algebra's ideal is d + 2 there, and a pattern read at
    # another s than the algebra's would fail a closed pattern.
    cl2 = str(write_cl2(tmp_path, "1/2", None, "-4..4"))
    pattern = scl2_pattern(tmp_path, component)
    options = [arg for value in bind for arg in ("--bind", value)]
    for argv in (["ideal-check", cl2, "--pattern", pattern, *options],
                 ["ideal-check", with_submodule(tmp_path, cl2, pattern),
                  *options]):
        code, out, _ = run(argv)
        assert (code, json.loads(out)["closed"]) == (0 if closed else 1,
                                                    closed), argv


def test_bind_leaves_other_pattern_parameters_free(tmp_path):
    # --bind b=1/2 on CL2(b, s) leaves s free in the algebra and the pattern.
    cl2 = str(tmp_path / "cl2.json")
    assert run(["family", "CL2", "--window=-4..4", "-o", cl2])[0] == 0
    code, out, _ = run(["ideal-check", cl2, "--pattern",
                        scl2_pattern(tmp_path, "d + 2*s"), "--bind", "b=1/2"])
    assert (code, json.loads(out)["closed"]) == (0, True)


AT_THE_CAPS = " + ".join(f"d^{e}" for e in range(
    specfile.MAX_FORMAL_DEGREE,
    specfile.MAX_FORMAL_DEGREE - specfile.MAX_PATTERN_TERMS, -1))


@pytest.mark.parametrize("component, error", [
    (f"d^{specfile.MAX_FORMAL_DEGREE + 1}",
     f"formal degree {specfile.MAX_FORMAL_DEGREE + 1} exceeds "
     f"{specfile.MAX_FORMAL_DEGREE}"),
    (AT_THE_CAPS + " + 1",
     f"{specfile.MAX_PATTERN_TERMS + 1} terms exceed "
     f"{specfile.MAX_PATTERN_TERMS}"),
    (" + ".join(f"a^{i}*b^{j}*d" for i in range(3) for j in range(3)),
     f"9 terms exceed {specfile.MAX_PATTERN_TERMS}"),
    ("*".join(["(d + 1)^16"] * 5),
     f"81 terms exceed {specfile.MAX_PATTERN_TERMS}")],
    ids=["degree", "terms", "parameter-terms", "power"])
def test_pattern_components_are_bounded(tmp_path, component, error):
    # Every bracket of the ideal check is divided by a component, so a
    # component is held to caps, as a table entry is; both loaders share
    # them, and the error names the file and the grade.
    message = f"submodule component at -1: {error}"
    cl2 = str(write_cl2(tmp_path, "1/2", "1", "-4..4"))
    pattern = scl2_pattern(tmp_path, component)
    with pytest.raises(specfile.SpecFileError) as info:
        specfile.load_pattern(pattern)
    assert str(info.value) == f"{pattern}: {message}"
    embedded = with_submodule(tmp_path, cl2, pattern)
    for argv, path in ((["ideal-check", cl2, "--pattern", pattern], pattern),
                       (["ideal-check", embedded], embedded)):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err) == {"error": f"{path}: {message}"}
    code, out, _ = run(["ideal-check", cl2, "--pattern",
                        scl2_pattern(tmp_path, AT_THE_CAPS)])
    assert (code, json.loads(out)["closed"]) == (1, False)



@pytest.mark.parametrize("component, error", [
    (f"d^{specfile.MAX_FORMAL_DEGREE + 1}",
     f"formal degree {specfile.MAX_FORMAL_DEGREE + 1} exceeds "
     f"{specfile.MAX_FORMAL_DEGREE}"),
    ("d + ", "unexpected end of input (column 5)")],
    ids=["over-cap", "unparsable"])
def test_every_command_refuses_a_spec_whose_submodule_breaks_a_rule(
        tmp_path, component, error):
    # The loader checks the spec's own pattern, so the commands that do not
    # read it refuse the file as ideal-check does, naming it and the grade.
    cl2 = write_cl2(tmp_path, "1/2", "1", "-4..4")
    spec = write_json(tmp_path / "spec.json", {
        **json.loads(cl2.read_text()),
        "submodule": {"0": component, "1": "full"}})
    for argv in (["verify", spec], ["probe", spec, "--core=-2..2"],
                 ["gd", "from-lca", spec], ["ideal-check", spec]):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err) == {
            "error": f"{spec}: submodule component at 0: {error}"}


@pytest.mark.parametrize("component, error", [
    ("2", "component generator must be monic in d: 2"),
    ("s", "component generator must be monic in d: s"),
    ("d + x", "component generators live in d and parameters only"),
    ("0", "use absence, not a zero generator, for zero components")],
    ids=["constant", "parameter", "bracket-variable", "zero"])
def test_a_refused_component_names_its_grade(tmp_path, component, error):
    # A component that parses within the caps but is no submodule generator
    # is refused in the form of a parse or cap error, with its grade, by the
    # spec loader and the pattern loader alike.
    cl2 = write_cl2(tmp_path, "1/2", "1", "-4..4")
    spec = write_json(tmp_path / "spec.json", {
        **json.loads(cl2.read_text()),
        "submodule": {"0": component, "1": "full"}})
    pattern = write_json(tmp_path / "pattern.json",
                         {"0": component, "1": "full"})
    for argv, path in ((["verify", spec], spec),
                       (["ideal-check", str(cl2), "--pattern", pattern],
                        pattern)):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err) == {
            "error": f"{path}: submodule component at 0: {error}"}


@pytest.mark.parametrize("text", ['{"0": ' + "1" * 5000 + "}", "[" * 100_000],
                         ids=["long-int", "deep-array"])
def test_ideal_check_pattern_the_decoder_cannot_hold(tmp_path, text):
    # Refused as the same text given as a spec is: an input error.
    cl2 = write_cl2(tmp_path, "1", None)
    pat = tmp_path / "pattern.json"
    pat.write_text(text)
    code, out, err = run(["ideal-check", str(cl2), "--pattern", str(pat)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"{pat}: invalid JSON: ")


def test_ideal_check_names_the_bad_one_of_its_two_files(tmp_path):
    # The spec loads; only the pattern file is wrong, and the error says so.
    # The loader's message follows the path once.
    cl2 = str(write_cl2(tmp_path, "1", None))
    pattern = scl2_pattern(tmp_path, "d + ")
    code, out, err = run(["ideal-check", cl2, "--pattern", pattern])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error.startswith(f"{pattern}: submodule component at -1: ")
    assert error.count(pattern) == 1 and cl2 not in error
    code, out, err = run(["ideal-check", cl2])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (f"{cl2}: spec file has no submodule "
                                        "pattern")


#: Texts with a key repeated in one JSON object, and that key: the decoder
#: alone keeps the last value, so each would load as if written once.
REPEATED_KEYS = {
    "submodule-grade": ('{"submodule": {"0": "zero", "0": "full"}}', "0"),
    "generators": ('{"generators": [{"name": "L", "grade": 0}], '
                   '"generators": [{"name": "M", "grade": 1}]}', "generators"),
    "term-poly": (VIR_SPEC.replace('"poly": "d + 2*x"',
                                   '"poly": "d + 2*x", "poly": "d + 3*x"'),
                  "poly"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_repeated_keys_are_input_errors(tmp_path, case):
    text, key = REPEATED_KEYS[case]
    message = f"invalid JSON: repeated key '{key}' in one object"
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(specfile.SpecFileError) as info:
        specfile.loads(text)
    assert str(info.value) == message
    with pytest.raises(specfile.SpecFileError) as info:
        specfile.load_pattern(str(path))
    assert str(info.value) == f"{path}: {message}"
    cl2 = write_cl2(tmp_path, "1", None)
    for argv in (["verify", str(path)],
                 ["ideal-check", str(cl2), "--pattern", str(path)],
                 ["family", "Cur", "--lie", str(path)]):
        code, out, err = run(argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == f"{path}: {message}"


def _repeat_target(spec: dict, section: str, poly: Optional[str] = None
                   ) -> tuple[str, str]:
    """The spec's text with one more term, at the first term's target (and
    with its polynomial unless ``poly`` is given), in the first nonempty row
    of ``section``; and the error that names it."""
    idx, row = next((k, r) for k, r in enumerate(spec[section]) if r["terms"])
    first = row["terms"][0]
    target = first["target"]
    row["terms"].append({"target": target, "poly": poly or first["poly"]})
    return (json.dumps(spec),
            f"{section}[{idx}].terms[{len(row['terms']) - 1}]: repeated "
            f"target {target!r}")


#: Specs that list one target twice in one row, and the command that loads
#: each.  Keeping the last term would pass off another table as the file's:
#: Vir with [L_x L] = 5x fails skew, A1 with one product term listed twice
#: passes (the writer may have meant their sum), and sl2 with [h, e] = 2e
#: listed after [h, e] = e passes.
REPEATED_TARGETS = {
    "brackets": (lambda: _repeat_target(json.loads(VIR_SPEC), "brackets",
                                        "5*x"), ["verify"]),
    "products": (lambda: _repeat_target(json.loads(a1_spec_text()),
                                        "products"), ["gd", "check"]),
    "lie": (lambda: _repeat_target(
        {"generators": [{"name": n, "grade": 0} for n in "efh"],
         "brackets": [
             {"left": "h", "right": "e",
              "terms": [{"target": "e", "poly": "1"}]},
             {"left": "e", "right": "h",
              "terms": [{"target": "e", "poly": "-2"}]}]},
        "brackets", "2"), ["family", "Cur", "--lie"]),
}


@pytest.mark.parametrize("case", sorted(REPEATED_TARGETS))
def test_repeated_target_in_one_row_is_an_input_error(tmp_path, case):
    make, command = REPEATED_TARGETS[case]
    text, message = make()
    with pytest.raises(specfile.SpecFileError) as info:
        specfile.loads(text)
    assert str(info.value) == message
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out, err = run([*command, str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == f"{path}: {message}"


def test_parameter_bound_twice_is_an_input_error(tmp_path):
    cl2 = str(write_cl2(tmp_path, "1", None))
    a1 = tmp_path / "a1.json"
    a1.write_text(a1_spec_text())
    for argv in (["verify", cl2], ["probe", cl2, "--core=-1..1"],
                 ["gd", "check", str(a1)]):
        assert run([*argv, "--bind", "s=1"])[0] in (0, 1), argv
        code, out, err = run([*argv, "--bind", "s=1", "--bind", "s=2"])
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == "parameter 's' is bound twice"


def test_ideal_check_embedded_pattern_not_closed(tmp_path):
    spec = json.loads((VIR_SPEC))
    spec["generators"] = [{"name": "L", "grade": 0}]
    spec["submodule"] = {"0": "d + 1"}
    path = tmp_path / "vir_sub.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(["ideal-check", str(path)])
    assert code == 1
    report = json.loads(out)
    assert report["closed"] is False
    assert report["violations"]


def test_probe_reports_evidence(tmp_path):
    cl2 = write_cl2(tmp_path, "1/2", "1", window="-6..6")
    code, out, _ = run(["probe", str(cl2), "--core=-2..2"])
    assert code == 1
    report = json.loads(out)
    seeds = {v["seed_grade"] for v in report["violations"]}
    assert 0 in seeds
    finding = next(f for f in report["findings"] if f["seed_grade"] == 0)
    assert finding["components"]["-1"] == "d + 2"


def test_probe_clean(tmp_path):
    v1 = tmp_path / "v1.json"
    run(["family", "V", "--s", "1", "--window=-6..6", "-o", str(v1)])
    code, out, _ = run(["probe", str(v1), "--core=-2..2"])
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_probe_closure_cut_by_the_guard_is_an_error(tmp_path, monkeypatch):
    # A closure stopped by the iteration guard is no finding.
    cl2 = write_cl2(tmp_path, "1/2", "1")
    closure = ideals.ideal_generated_by
    monkeypatch.setattr(ideals, "ideal_generated_by",
                        lambda alg, seed: closure(alg, seed, max_iterations=1))
    code, out, err = run(["probe", str(cl2), "--core=-1..1"])
    assert code == 2
    assert out == ""
    assert "seed at grade -1 did not converge" in json.loads(err)["error"]


# -- determinism -----------------------------------------------------------------------

def test_reports_are_byte_identical_across_runs(tmp_path):
    cl2 = write_cl2(tmp_path, "1/2", "1", window="-6..6")
    battery = [
        ["verify", str(cl2)],
        ["solve-feq", "--tables"],
        ["probe", str(cl2), "--core=-1..1"],
        ["family", "SCL2", "--b", "1", "--window=-6..6"],
    ]
    first = [run(argv) for argv in battery]
    second = [run(argv) for argv in battery]
    assert first == second


def test_main_calls_share_no_state(tmp_path):
    # main reuses one parser; no option, default or --bind list may carry over
    # from one call to the next.
    path = tmp_path / "cl2.json"
    assert run(["family", "CL2", "--window=-2..2", "-o", str(path)])[0] == 0
    unbound = run(["verify", str(path)])
    bound = run(["verify", str(path), "--bind", "b=1/2", "--bind", "s=1"])
    probed = run(["probe", str(path), "--core=-1..1", "--bind", "b=1/3",
                  "--bind", "s=2"])
    assert run(["verify", str(path)]) == unbound
    assert run(["verify", str(path), "--bind", "b=1/2",
                "--bind", "s=1"]) == bound
    assert run(["probe", str(path), "--core=-1..1", "--bind", "b=1/3",
                "--bind", "s=2"]) == probed
    assert "free parameters remain: ['b', 's']" in unbound[1]
    assert "free parameters remain" not in bound[1]
    half = run(["family", "V", "--s=1/2", "--window=-1..1"])[1]
    symbolic = run(["family", "V", "--window=-1..1"])[1]
    assert json.loads(half)["params"] == []
    assert json.loads(symbolic)["params"] == ["s"]
    first = cli._parser().parse_args(["verify", "a.json", "--bind", "s=1"])
    second = cli._parser().parse_args(["verify", "a.json", "--bind", "b=2"])
    third = cli._parser().parse_args(["probe", "a.json", "--core=0..0"])
    assert (first.bind, second.bind, third.bind) == (["s=1"], ["b=2"], None)
    assert cli._parser() is cli._parser()


# -- writing a spec: main alone writes, to -o or to stdout --------------------------

def spec_commands(tmp_path):
    """family, gd from-lca and gd to-lca, each with its input file written."""
    a1 = tmp_path / "a1.json"
    a1.write_text(a1_spec_text())
    cl2 = write_cl2(tmp_path, "1/2", "1", "-4..4")
    return [["family", "CL2", "--b=1/2", "--s=1", "--window=-4..4"],
            ["gd", "from-lca", str(cl2)], ["gd", "to-lca", str(a1)]]


def test_output_file_holds_the_bytes_stdout_prints(tmp_path):
    for argv in spec_commands(tmp_path):
        code, printed, err = run(argv)
        assert (code, err) == (0, ""), argv
        out = tmp_path / "out.json"
        assert run(argv + ["-o", str(out)]) == (0, "", ""), argv
        assert out.read_text(encoding="utf-8") == printed, argv
        out.unlink()


def test_unwritable_output_is_an_input_error(tmp_path):
    # As an unreadable input is: exit 2 naming the path, not an internal
    # error, and nothing written.
    missing = tmp_path / "missing" / "x.json"
    for argv in [["family", "Vir"]] + spec_commands(tmp_path):
        code, out, err = run(argv + ["-o", str(missing)])
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"].startswith(f"cannot write {missing}: ")
        assert not missing.parent.exists()

# -- fuzz: every command on a mutated spec ends in a verdict or an input error ---

def _fuzz_base(spec, submodule=None):
    out = spec.to_json_dict()
    if submodule is not None:
        out["submodule"] = submodule
    return out


#: An SCL2(1/2, s) window with a submodule pattern, and an A2 window in GD form.
FUZZ_BASES = [
    _fuzz_base(specfile.from_algebra(
        families.make_scl2(Fraction(1, 2), "s", range(-3, 4))),
        {"-1": "d + 2*s", "0": "full", "1": "full", "2": "zero"}),
    _fuzz_base(specfile.from_gd(gd.gd_a2("b", "s", range(-2, 3)))),
]
POLY_TEXTS = ["d + 2*x", "0", "", "1/0", "d^16", "(d + x + 1)^12", "x^13",
              "y", "t", "s^16*d^12", "2*d + x + s", "d*y", "((((d))))",
              "-" * 40 + "d", "9" * 30, "d + x + b + s", "s^2*x - d"]
GRADE_VALUES = [True, False, "0", "x", 0.5, 1e300, 10 ** 40, -10 ** 40, None,
                [], 7, -7, 2, 0, -1]
NAME_VALUES = ["L0", "L1", "L-1", "M", "", "L0 ", "L9", 0, None, "ü"]
PARAM_VALUES = [[], ["s"], ["s", "s"], ["d"], ["x"], ["S"], [1], "s",
                ["s", "t"], ["a", "b", "c", "e", "s"]]
PATTERN_KEYS = ["-1", "0", "3", "1.5", "abc", "9" * 30, "-3", "x"]
PATTERN_VALUES = ["full", "zero", "d + 2*s", "d", "2*d", "x", "d^16",
                  "d + 1/0", "", 3, None]


def _mutate_pattern(draw, pattern):
    pattern[draw(st.sampled_from(PATTERN_KEYS))] = draw(
        st.sampled_from(PATTERN_VALUES))


@st.composite
def mutated_specs_and_patterns(draw):
    """A base spec with up to three mutations of its parts, and a pattern
    file: the base's pattern with up to two mutations of its own."""
    spec = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    pattern = dict(spec.get("submodule", FUZZ_BASES[0]["submodule"]))
    for _ in range(draw(st.integers(0, 2))):
        _mutate_pattern(draw, pattern)
    for _ in range(draw(st.integers(0, 3))):
        rows = spec[draw(st.sampled_from(
            [key for key in ("brackets", "products") if key in spec]))]
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["poly", "poly", "grade", "name",
                                     "params", "duplicate", "pattern"]))
        if kind == "poly" and row["terms"]:
            term = draw(st.sampled_from(row["terms"]))
            term["poly"] = draw(st.sampled_from(POLY_TEXTS))
        elif kind == "grade":
            gen = draw(st.sampled_from(spec["generators"]))
            gen["grade"] = draw(st.sampled_from(GRADE_VALUES))
        elif kind == "name":
            name = draw(st.sampled_from(NAME_VALUES))
            field = draw(st.sampled_from(["generator", "left", "right",
                                          "target"]))
            if field == "generator":
                draw(st.sampled_from(spec["generators"]))["name"] = name
            elif field == "target" and row["terms"]:
                draw(st.sampled_from(row["terms"]))["target"] = name
            elif field != "target":
                row[field] = name
        elif kind == "params":
            spec["params"] = draw(st.sampled_from(PARAM_VALUES))
        elif kind == "duplicate":
            rows.append(copy.deepcopy(row))
        else:
            _mutate_pattern(draw, spec.setdefault("submodule", {}))
    return spec, pattern


@settings(max_examples=200, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_specs_and_patterns())
def test_every_command_on_a_mutated_spec_exits_0_1_or_2(case):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        pattern = os.path.join(tmp, "pattern.json")
        for name, payload in zip((path, pattern), case):
            with open(name, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        for argv in (["verify", path],
                     ["probe", path, "--core=-1..1", "--bind", "s=1"],
                     ["ideal-check", path],
                     ["ideal-check", path, "--pattern", pattern],
                     ["gd", "check", path], ["gd", "to-lca", path],
                     ["gd", "from-lca", path]):
            code, out, err = run(argv)
            assert code in (0, 1, 2), (argv[0], err)
            if code == 2:
                assert out == "" and "error" in json.loads(err), argv[0]
            else:
                assert err == "" and json.loads(out), argv[0]
