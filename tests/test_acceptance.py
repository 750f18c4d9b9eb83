"""Acceptance suite: one test per criterion, one printed line each.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
Every check is exact (rational arithmetic, zero residuals); the only
tolerance anywhere is the wall-clock budget of criterion 1.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction as F

from zlca import cli, families, feq, gd, ideals
from zlca.conformal import (ConformalAlgebra, check_jacobi, check_skew,
                            spectral_data, degree_relation_check)
from zlca.poly import D, X, ParamPoly, param


def criterion(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


SCL2_BS = (F(1, 2), F(1), F(3, 2), F(-1))


def theorem_families():
    yield "Vir", families.make_vir()
    yield "V(s)", families.make_v("s", range(-6, 7))
    yield "CL1(s)", families.make_cl1("s", 6)
    yield "CL2(b,s)", families.make_cl2("b", "s", range(-6, 7))
    for b in SCL2_BS:
        yield f"SCL2({b},s)", families.make_scl2(b, "s", range(-6, 7))


def test_criterion_1_family_axioms():
    start = time.monotonic()
    ok = True
    for name, alg in theorem_families():
        skew = check_skew(alg)
        jacobi = check_jacobi(alg)
        ok = ok and skew.ok and jacobi.ok and jacobi.checked > 0
    elapsed = time.monotonic() - start
    criterion(1, f"family skew+jacobi on the -6..6 window, {elapsed:.1f}s",
              ok and elapsed < 60)


def test_criterion_2_solution_tables():
    results = feq.reproduce_tables()
    positives = [r for r in results if r.case.expected is not None]
    ok = (all(r.passed for r in results)
          and len(positives) == 14
          and all(r.dimension == 1 for r in positives))
    criterion(2, "homogeneous solution tables reproduced", ok)


def test_criterion_3_scl2_oracle_equivalence():
    ok = all(families.make_scl2(b, "s", range(-6, 7))
             == families.make_scl2_literal(b, "s", range(-6, 7))
             for b in SCL2_BS)
    criterion(3, "rescaled-generator embedding equals literal table", ok)


def test_criterion_4_gd_round_trip():
    s = param("s")
    a1 = gd.gd_a1("s", 6)
    a2 = gd.gd_a2("b", "s", range(-6, 7))
    ok = gd.check_gd(a1).ok and gd.check_gd(a2).ok
    q1 = gd.quadratic_from_gd(a1)
    q2 = gd.quadratic_from_gd(a2)
    ok = ok and q1 == families.make_cl1("s", 6)
    ok = ok and q2 == families.make_cl2("b", -s, range(-6, 7))
    back1 = gd.gd_from_quadratic(q1)
    back2 = gd.gd_from_quadratic(q2)
    ok = ok and back1.nov == a1.nov and back1.lie == a1.lie
    ok = ok and back2.nov == a2.nov and back2.lie == a2.lie
    criterion(4, "quadratic correspondence round trip with sign map", ok)


def test_criterion_5_degree_relations():
    bindings_per_family = {
        "Vir": [{}],
        "V": [{"s": F(0)}, {"s": F(1)}, {"s": F(-3, 2)}],
        "CL1": [{"s": F(1)}, {"s": F(-1)}, {"s": F(1, 3)}],
        "CL2": [{"b": F(1), "s": F(1)}, {"b": F(1, 2), "s": F(-1)},
                {"b": F(1, 3), "s": F(2, 5)}],
        "SCL2": [{"s": F(1)}, {"s": F(-2)}, {"s": F(1, 3)}],
    }
    algebras = {
        "Vir": families.make_vir(),
        "V": families.make_v("s", range(-5, 6)),
        "CL1": families.make_cl1("s", 5),
        "CL2": families.make_cl2("b", "s", range(-5, 6)),
        "SCL2": families.make_scl2(F(1), "s", range(-5, 6)),
    }
    ok = True
    for name, alg in algebras.items():
        for bindings in bindings_per_family[name]:
            bound = alg.instantiate(bindings)
            data = spectral_data(bound)
            ok = ok and degree_relation_check(bound, data) == []
    criterion(5, "weight and shift relations at rational bindings", ok)


def test_criterion_6_factorization():
    triples = [
        (3, 0, 1, 0, 0, 0),
        (1, 0, 3, 0, 0, 0),
        (3, 1, 1, -1, 0, 0),
        (1, 1, 2, 1, 0, 2),
        (2, 1, 1, 1, 0, 2),
        (2, 0, 0, 1, 0, 1),
        (2, -1, 0, 3, 0, 2),
        (3, 2, 0, -2, 0, 0),
    ]
    ok = len(triples) >= 5
    populated = 0
    for values in triples:
        t = feq.SpectralTriple(*[F(v) for v in values])
        degree = int(t.weight_left + t.weight_right - 1)
        sols = feq.solve_feq(t, degree)
        if sols.dimension:
            populated += 1
        for sol in sols.basis:
            try:
                quotient = sol.exact_divide(D + t.shift_out)
            except ArithmeticError:
                ok = False
                continue
            ok = (ok and not feq.feq_residual(quotient,
                                              replace(t, weight_out=F(1)))
                  and quotient * (D + t.shift_out) == sol)
    criterion(6, f"shift-factor division on {populated} populated triples",
              ok and populated >= 5)


def test_criterion_7_non_simplicity_evidence():
    half = families.make_cl2(F(1, 2), F(1), range(-6, 7))
    report = ideals.simplicity_probe(half, range(-2, 3))
    seed0 = next(f for f in report.findings if f.seed_grade == 0)
    ok = seed0.proper and dict(seed0.components)[-1] == "d + 2"

    clean_v = ideals.simplicity_probe(families.make_v(F(1), range(-6, 7)),
                                      range(-2, 3))
    clean_third = ideals.simplicity_probe(
        families.make_cl2(F(1, 3), F(1), range(-6, 7)), range(-2, 3))
    ok = ok and not any(f.proper for report in (clean_v, clean_third)
                        for f in report.findings)
    criterion(7, "proper closure found for half-integral b only", ok)


def test_criterion_8_mutation_sensitivity():
    rng = random.Random(20240817)
    algebras = [
        ("Vir", families.make_vir()),
        ("V", families.make_v("s", range(-4, 5))),
        ("CL1", families.make_cl1("s", 4)),
        ("CL2", families.make_cl2("b", "s", range(-4, 5))),
        ("SCL2", families.make_scl2(F(1), "s", range(-4, 5))),
    ]
    ok = True
    for name, alg in algebras:
        entries = [(u, v, w, p) for u, v in alg.pairs()
                   for w, p in sorted(alg.entry(u, v).items())]
        for trial in range(20):
            u, v, w, poly = entries[rng.randrange(len(entries))]
            exp_d = rng.randrange(0, 3)
            exp_x = rng.randrange(0, 3 - exp_d)
            coefficient = F(rng.choice([1, -1, 2, -2, 3]),
                            rng.choice([1, 2]))
            delta = (ParamPoly.const(coefficient)
                     * D ** exp_d * X ** exp_x)
            table = {pair: alg.entry(*pair) for pair in alg.pairs()}
            table[(u, v)][w] = poly + delta
            mutated = ConformalAlgebra(alg.generators, table, alg.params)
            assert mutated != alg
            caught = not check_skew(mutated).ok
            if not caught:
                caught = not check_jacobi(mutated).ok
            if not caught:
                ok = False
                print(f"  false accept: {name} trial {trial} "
                      f"({u.name},{v.name}) += {delta}")
    criterion(8, "100 single-entry mutations all rejected", ok)


def test_criterion_9_byte_identical_reports(tmp_path):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    cl2 = tmp_path / "cl2.json"
    assert run(["family", "CL2", "--b", "1/2", "--s", "1", "--window=-6..6",
                "-o", str(cl2)])[0] == 0
    scl2_pattern = tmp_path / "pattern.json"
    scl2_pattern.write_text(json.dumps(
        {str(g): ("d + 2" if g == -1 else "full") for g in range(-6, 7)}))
    battery = [
        ["verify", str(cl2)],
        ["verify", str(cl2), "--bind", "s=1"],
        ["solve-feq", "--tables"],
        ["solve-feq", "--ai", "3", "--bi", "0", "--aj", "1", "--bj", "0",
         "--aij", "0", "--bij", "0", "--full", "3"],
        ["ideal-check", str(cl2), "--pattern", str(scl2_pattern)],
        ["probe", str(cl2), "--core=-2..2"],
        ["family", "SCL2", "--b", "3/2", "--window=-6..6"],
    ]
    first = [run(argv) for argv in battery]
    second = [run(argv) for argv in battery]
    criterion(9, "report battery byte-identical across runs", first == second)
