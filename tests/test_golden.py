"""Golden CLI reports: stored stdout and exit code for a fixed battery.

Criterion 9 compares two runs in one process, so a change that moves every
report the same way passes it.  These cases pin the bytes themselves, across
every path of the arithmetic core: symbolic and bound Jacobi windows, the
all-ordered-triples scan after a skew break, the functional-equation solver,
the ideal closure, both directions of the Gel'fand-Dorfman correspondence and
the family emitter.

The expected reports live in ``tests/golden/<case>.out``.  When a report is
meant to change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from zlca import cli, gd, specfile

GOLDEN = Path(__file__).parent / "golden"

#: case -> (argv with {input} placeholders, expected exit code).
CASES = {
    "verify_cl2_symbolic": (["verify", "{cl2_4}"], 0),
    "verify_scl2_half": (["verify", "{scl2_4}"], 0),
    "verify_cl2_bind": (["verify", "{cl2_3}", "--bind", "b=1/2",
                         "--bind", "s=1/3"], 0),
    "verify_cl2_skew_mutant": (["verify", "{mutant}"], 1),
    "verify_scl2_fraction_mutant": (["verify", "{scl2_mutant}"], 1),
    "solve_feq_full12_zero_out": (["solve-feq", "--ai=3", "--bi=1", "--aj=1",
                                   "--bj=-1", "--aij=0", "--bij=0",
                                   "--full=12"], 0),
    "solve_feq_full12_family": (["solve-feq", "--ai=5", "--bi=-3/2", "--aj=8",
                                 "--bj=-3", "--aij=11", "--bij=-9/2",
                                 "--full=12"], 0),
    "solve_feq_full12_dim2": (["solve-feq", "--ai=1", "--bi=0", "--aj=1",
                               "--bj=0", "--aij=0", "--bij=0", "--full=12"],
                              0),
    "solve_feq_tables": (["solve-feq", "--tables"], 0),
    # CL2(2/3, 3/5) at grades 1, 2 and 3: weights over 1 and 2, shifts over
    # 5 and 10, one solution.
    "solve_feq_full12_cl2_fractional": (["solve-feq", "--ai=7/2",
                                         "--bi=-9/10", "--aj=5",
                                         "--bj=-9/5", "--aij=13/2",
                                         "--bij=-27/10", "--full=12"], 0),
    "solve_feq_top3_fractional": (["solve-feq", "--ai=5/3", "--aj=5/3",
                                   "--aij=-2/3", "--top=3"], 0),
    "probe_cl2_half_one": (["probe", "{cl2_half_one}", "--core=-2..2"], 1),
    "probe_v_bound": (["probe", "{v_5}", "--core=-2..2", "--bind", "s=1"], 0),
    "probe_scl2_half_bound": (["probe", "{scl2_4}", "--core=-2..2",
                               "--bind", "s=1"], 0),
    "probe_cl2_third": (["probe", "{cl2_third_one}", "--core=-2..2"], 0),
    "ideal_check_scl2_pattern": (["ideal-check", "{cl2_half_half}",
                                  "--pattern", "{scl2_pattern}"], 0),
    "ideal_check_scl2_pattern_moved": (["ideal-check", "{cl2_half_half}",
                                        "--pattern", "{scl2_pattern_moved}"],
                                       1),
    "gd_to_lca_a2": (["gd", "to-lca", "{a2}"], 0),
    "gd_to_lca_a2_broken": (["gd", "to-lca", "{a2_broken}"], 1),
    "gd_check_a2_symbolic": (["gd", "check", "{a2}"], 0),
    "gd_check_a1_bind": (["gd", "check", "{a1_8}", "--bind", "s=3/2"], 0),
    "gd_check_a2_broken": (["gd", "check", "{a2_broken}"], 1),
    "gd_from_lca_cl2": (["gd", "from-lca", "{cl2_3}"], 0),
    "family_cl2_window5": (["family", "CL2", "--window=-5..5"], 0),
    "family_cl1_top5": (["family", "CL1", "--top=5"], 0),
    "family_v_half_window4": (["family", "V", "--s=1/2", "--window=-4..4"],
                              0),
    "family_scl2_literal_b1_window4": (["family", "SCL2Literal", "--b=1",
                                        "--window=-4..4"], 0),
    "gd_to_lca_a1": (["gd", "to-lca", "{a1_8}"], 0),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _family(path: Path, *argv: str) -> None:
    code, _, err = run(["family", *argv, "-o", str(path)])
    assert code == 0, err


def write_inputs(root: Path) -> dict[str, str]:
    """Spec and pattern files for the battery, built from fixed arguments."""
    paths = {}

    def family(name, *argv):
        paths[name] = root / f"{name}.json"
        _family(paths[name], *argv)

    family("cl2_4", "CL2", "--window=-4..4")
    family("cl2_3", "CL2", "--window=-3..3")
    family("scl2_4", "SCL2", "--b=1/2", "--window=-4..4")
    family("cl2_half_one", "CL2", "--b=1/2", "--s=1", "--window=-5..5")
    family("cl2_half_half", "CL2", "--b=1/2", "--s=1/2", "--window=-5..5")
    family("cl2_third_one", "CL2", "--b=1/3", "--s=1", "--window=-5..5")
    family("v_5", "V", "--window=-5..5")
    family("cl2_mutant_base", "CL2", "--b=1/2", "--window=-2..2")
    family("scl2_mutant_base", "SCL2", "--b=-1/2", "--window=-3..3")

    # One monomial added to a single off-diagonal entry breaks skew-symmetry.
    spec = json.loads(paths["cl2_mutant_base"].read_text(encoding="utf-8"))
    row = next(r for r in spec["brackets"]
               if (r["left"], r["right"]) == ("L-2", "L1"))
    row["terms"][0]["poly"] += " + (2*d*x)"
    paths["mutant"] = root / "mutant.json"
    paths["mutant"].write_text(json.dumps(spec, indent=2, sort_keys=True),
                               encoding="utf-8")

    # A parametric monomial with a coefficient of denominator 3 on top of
    # the halves of SCL2(-1/2, s): the Jacobi residuals are nonzero and
    # carry fractional coefficients and the parameter s.
    spec = json.loads(paths["scl2_mutant_base"].read_text(encoding="utf-8"))
    row = next(r for r in spec["brackets"]
               if (r["left"], r["right"]) == ("L-1", "L0"))
    assert row["terms"][0]["poly"] == "-3/2*d - 2*x - s"
    row["terms"][0]["poly"] += " + 1/3*s*d*x"
    paths["scl2_mutant"] = root / "scl2_mutant.json"
    paths["scl2_mutant"].write_text(
        json.dumps(spec, indent=2, sort_keys=True), encoding="utf-8")

    # The SCL2 ideal of CL2(1/2, 1/2): d + 2s at grade -2b, full elsewhere;
    # with the constant moved by 1 it is no longer closed.
    for name, constant in (("scl2_pattern", 1), ("scl2_pattern_moved", 2)):
        pattern = {str(g): (f"d + ({constant})" if g == -1 else "full")
                   for g in range(-5, 6)}
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(pattern, sort_keys=True),
                               encoding="utf-8")

    def gd_spec(name, structure):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(specfile.from_gd(structure).dumps(),
                               encoding="utf-8")

    gd_spec("a2", gd.gd_a2("b", "s", range(-3, 4)))
    gd_spec("a1_8", gd.gd_a1("s", 8))
    gd_spec("a2_small", gd.gd_a2("b", "s", range(-2, 3)))

    # One Novikov product changed from (b + 1) to (b + 2) breaks the laws.
    spec = json.loads(paths["a2_small"].read_text(encoding="utf-8"))
    row = next(r for r in spec["products"]
               if (r["left"], r["right"]) == ("L0", "L1"))
    assert row["terms"][0]["poly"] == "b + 1"
    row["terms"][0]["poly"] = "b + 2"
    paths["a2_broken"] = root / "a2_broken.json"
    paths["a2_broken"].write_text(json.dumps(spec, indent=2, sort_keys=True),
                                  encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def _argv(case: str, inputs: dict[str, str]) -> list[str]:
    return [arg.format(**inputs) for arg in CASES[case][0]]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, inputs):
    code, out, err = run(_argv(case, inputs))
    assert err == ""
    assert code == CASES[case][1]
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert out == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for case in sorted(CASES):
            code, out, err = run(_argv(case, paths))
            if err or code != CASES[case][1]:
                raise SystemExit(f"{case}: exit {code}, stderr {err!r}")
            (GOLDEN / f"{case}.out").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
