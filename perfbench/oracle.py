"""Known answers for benchmark jobs, computed without zlca.

Every check takes the report a job printed and returns a list of problems
(empty when the report agrees with the known answer); a report it cannot read
raises.  The answers come from theorems and closed formulas, not from zlca:

* the families V, CL1, CL2 and SCL2 are Lie conformal algebras, so their
  verification passes, and their grade-0 action has closed-form spectral
  lines;
* a single-entry monomial mutant breaks skew-symmetry on the mutated pair;
* for 2b an integer, CL2(b, s) has the graded ideal SCL2(b, s), whose only
  non-full component is (d + 2s) at grade -2b; V(s), SCL2(b, s) and CL2(b, s)
  with 2b not an integer show no proper closure;
* A1 and A2 are Gel'fand-Dorfman algebras, and the quadratic correspondence
  maps them to CL1(s) and CL2(b, -s) in closed form;
* the homogeneous solution tables are the paper's printed solutions;
* functional-equation kernels are recomputed with sympy's exact linear
  algebra, and every reported basis polynomial is substituted back.

sympy is imported lazily, after the timed part of a run.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

_SYMPY = None


def _sympy():
    global _SYMPY
    if _SYMPY is None:
        import sympy
        from sympy.parsing.sympy_parser import parse_expr
        names = {n: sympy.Symbol(n) for n in ("d", "x", "y", "s", "b")}
        _SYMPY = (sympy, parse_expr, names)
    return _SYMPY


def expr(text: str):
    """A canonical polynomial string (or a formula) as an expanded sympy expr."""
    sympy, parse_expr, names = _sympy()
    return sympy.expand(parse_expr(text.replace("^", "**"),
                                   local_dict=dict(names)))


def same(text: str, formula) -> bool:
    sympy, _, _ = _sympy()
    return sympy.expand(expr(text) - formula) == 0


def frac(value) -> Fraction:
    return Fraction(str(value))


# -- structure tables ------------------------------------------------------------

def v_entry(s, i, j):
    d, x = _sym("d"), _sym("x")
    return d + 2 * x + s * (i - j)


def cl1_entry(s, i, j):
    d, x = _sym("d"), _sym("x")
    return (i + 1) * d + (i + j + 2) * x + s * (j - i)


def cl2_entry(b, s, i, j):
    d, x = _sym("d"), _sym("x")
    return (i + b) * d + (i + j + 2 * b) * x + s * (i - j)


def scl2_entry(b, s, i, j):
    """The five printed SCL2 bracket formulas (M is the grade -2b generator)."""
    sympy, _, _ = _sympy()
    d, x = _sym("d"), _sym("x")
    special = -2 * b
    if i == special and j == special:
        return -b * (-x + 2 * s) * (d + x + 2 * s) * (d + 2 * x)
    if j == special:
        if i == 0:
            return b * (d + x + 2 * s)
        return (d + x + 2 * s) * ((i + b) * d + i * x + s * (i + 2 * b))
    if i == special:
        return -scl2_entry(b, s, j, i).subs(x, -d - x)
    if i + j == special:
        return sympy.Rational(i - j, 2)
    return cl2_entry(b, s, i, j)


def _sym(name: str):
    return _sympy()[2][name]


def _q(value):
    """A rational, or a formula string such as "s" or "-s", as a sympy value."""
    sympy, _, _ = _sympy()
    if isinstance(value, str):
        return expr(value)
    value = Fraction(value)
    return sympy.Rational(value.numerator, value.denominator)


def family_table(kind: str, grades, b=None, s="s"):
    """{(i, j): formula} over the window for one family, keyed by grade."""
    sympy, _, _ = _sympy()
    grades = sorted(grades)
    s_, b_ = _q(s), (_q(b) if b is not None else None)
    out = {}
    for i in grades:
        for j in grades:
            if i + j not in grades:
                continue
            if kind == "V":
                out[(i, j)] = v_entry(s_, i, j)
            elif kind == "CL1":
                out[(i, j)] = cl1_entry(s_, i, j)
            elif kind == "CL2":
                out[(i, j)] = cl2_entry(b_, s_, i, j)
            elif kind == "SCL2":
                out[(i, j)] = scl2_entry(b_, s_, i, j)
            else:
                raise ValueError(kind)
    return {k: sympy.expand(v) for k, v in out.items()}


def _grades_by_name(spec: dict) -> dict[str, int]:
    return {g["name"]: g["grade"] for g in spec["generators"]}


def check_table(spec: dict, table: dict, section: str = "brackets",
                explicit: bool = False) -> list[str]:
    """Every row of a spec section equals the closed-form table entry.

    A conformal table may omit zero rows; an explicit-presence (GD) table must
    list every decidable pair, zero ones with no terms.
    """
    sympy, _, _ = _sympy()
    grade = _grades_by_name(spec)
    if sorted(grade.values()) != sorted({i for pair in table for i in pair}):
        return [f"{section}: generators {sorted(grade.values())} do not "
                f"match the window"]
    seen = {}
    for row in spec.get(section, []):
        key = (grade[row["left"]], grade[row["right"]])
        value = 0
        for term in row["terms"]:
            if grade[term["target"]] != key[0] + key[1]:
                return [f"{section}: {key} lands on the wrong grade"]
            value += expr(term["poly"])
        seen[key] = value
    problems = []
    for key, want in table.items():
        if key not in seen and (explicit or want != 0):
            problems.append(f"{section}: row {key} missing")
        elif sympy.expand(seen.get(key, 0) - want) != 0:
            problems.append(f"{section}: row {key} is {seen[key]}, "
                            f"expected {want}")
    extra = set(seen) - set(table)
    if extra:
        problems.append(f"{section}: unexpected rows {sorted(extra)}")
    return problems[:3]


# -- report checks ---------------------------------------------------------------

def verify_passes(text: str, family: str, grades, b=None, s=None) -> list[str]:
    """A family verifies cleanly; with all parameters bound, its spectral
    lines match the closed form of the grade-0 action."""
    rep = json.loads(text)
    problems = []
    if rep.get("status") != "pass" or rep.get("violations"):
        problems.append(f"status {rep.get('status')!r}, "
                        f"{len(rep.get('violations', []))} violations")
    if rep["sections"]["jacobi"]["checked"] <= 0:
        problems.append("no Jacobi triple was checked")
    if s is None:
        return problems
    lines = rep["sections"].get("spectral", {}).get("lines")
    if lines is None:
        return problems + [f"no spectral lines: {rep['sections'].get('spectral')}"]
    if sorted(int(g) for g in lines) != sorted(grades):
        problems.append("spectral lines do not cover the window")
    s = Fraction(s)
    for g in sorted(grades):
        if family == "V":
            want = (Fraction(1), Fraction(2), -s * g)
        elif family == "CL1":
            want = (Fraction(1), Fraction(g + 2), s * g)
        elif family == "SCL2" and g == -2 * b:
            want = (Fraction(b), Fraction(1), 2 * s)
        else:  # CL2, and SCL2 away from the rescaled generator
            want = (Fraction(b), (g + 2 * b) / b, -s * g / b)
        line = lines.get(str(g), {})
        got = tuple(frac(line[k]) if k in line else None
                    for k in ("scale", "weight", "shift"))
        if got != want:
            problems.append(f"spectral line at grade {g} is {got}, "
                            f"expected {want}")
            break
    return problems


def verify_mutant_fails(text: str, pair: tuple[str, str]) -> list[str]:
    rep = json.loads(text)
    if rep.get("status") != "fail":
        return [f"mutant status {rep.get('status')!r}, expected fail"]
    hit = [v for v in rep["violations"] if v["kind"] == "skew"
           and {v["left"], v["right"]} == set(pair)]
    return [] if hit else [f"no skew violation on the mutated pair {pair}"]


def family_spec(text: str, kind: str, grades, b=None, s="s") -> list[str]:
    spec = json.loads(text)
    return check_table(spec, family_table(kind, grades, b, s))


def probe_evidence(text: str, core, ideal_grade, s) -> list[str]:
    """Seeds off the ideal grade close onto the SCL2 ideal (d + 2s at
    ideal_grade, full elsewhere); every other closure is full on the core.

    ``ideal_grade`` is -2b when the algebra has that ideal inside the core,
    None when it has no proper graded ideal to find.
    """
    rep = json.loads(text)
    problems = []
    for finding in rep["findings"]:
        seed = finding["seed_grade"]
        proper = ideal_grade is not None and seed != ideal_grade
        if finding["proper"] != proper:
            problems.append(f"seed {seed}: proper={finding['proper']}, "
                            f"expected {proper}")
            continue
        for g, desc in finding["components"].items():
            if proper and int(g) == ideal_grade:
                if desc in ("full", "zero") or not same(
                        desc, _sym("d") + 2 * _q(s)):
                    problems.append(f"seed {seed}: component {desc!r} at "
                                    f"grade {g}, expected d + 2s")
            elif desc != "full":
                problems.append(f"seed {seed}: component {desc!r} at grade "
                                f"{g}, expected full")
    if sorted(f["seed_grade"] for f in rep["findings"]) != sorted(core):
        problems.append("findings do not cover the core")
    return problems[:3]


def ideal_check(text: str, closed: bool) -> list[str]:
    rep = json.loads(text)
    if rep.get("closed") is not closed:
        return [f"closed={rep.get('closed')}, expected {closed}"]
    if bool(rep["violations"]) == closed:
        return ["witness list disagrees with the closure verdict"]
    return []


def gd_check_passes(text: str) -> list[str]:
    rep = json.loads(text)
    if rep.get("status") != "pass" or rep["violations"]:
        return [f"GD check status {rep.get('status')!r}"]
    if rep["counts"]["checked"] <= 0:
        return ["no law was checked"]
    return []


def gd_table(kind: str, grades, b="b", s="s"):
    """Closed forms of A1 / A2 with the bracket s(i - j): (products, brackets)."""
    b_, s_ = _q(b), _q(s)
    products, brackets = {}, {}
    for i in grades:
        for j in grades:
            if i + j in grades:
                products[(i, j)] = (j + 1) if kind == "A1" else (j + b_)
                brackets[(i, j)] = s_ * (i - j)
    return products, brackets


def gd_spec(text: str, kind: str, grades, b="b", s="s") -> list[str]:
    spec = json.loads(text)
    products, brackets = gd_table(kind, sorted(grades), b, s)
    return (check_table(spec, products, "products", explicit=True)
            + check_table(spec, brackets, "brackets", explicit=True))


# -- functional equation -----------------------------------------------------------

@lru_cache(maxsize=None)
def feq_system(weights: tuple[str, ...], degree: int, top: bool):
    """The residual of every unknown monomial d^a x^c, and the kernel dimension.

    The full equation, with (wl, sl, wr, sr, wo, so):
        (-x - y + wl x + sl) p(d, x+y) - p(d+x, y) (d + wo x + so)
            + (d + y + wr x + sr) p(d, y)
    The top-degree equation, with (wl, wr, wo), drops the shifts and uses
    ((wl - 1) x - y) as the first factor; its unknowns are homogeneous.
    """
    sympy, _, _ = _sympy()
    from sympy.polys.matrices import DomainMatrix
    d, x, y = _sym("d"), _sym("x"), _sym("y")

    def poly(e):
        return sympy.Poly(e, d, x, y, domain=sympy.QQ)

    if top:
        wl, wr, wo = (_q(frac(w)) for w in weights)
        lead, out, right = (wl - 1) * x - y, d + wo * x, d + y + wr * x
    else:
        wl, sl, wr, sr, wo, so = (_q(frac(w)) for w in weights)
        lead, out, right = (-x - y + wl * x + sl, d + wo * x + so,
                            d + y + wr * x + sr)
    lead, out, right = poly(lead), poly(out), poly(right)
    pd, pxy, pdx, py = ([poly(1)] for _ in range(4))
    for _ in range(degree):
        pd.append(pd[-1] * poly(d))
        pxy.append(pxy[-1] * poly(x + y))
        pdx.append(pdx[-1] * poly(d + x))
        py.append(py[-1] * poly(y))
    cols = {}
    for a in range(degree + 1):
        for c in range(degree + 1 - a):
            if top and a + c != degree:
                continue
            res = lead * pd[a] * pxy[c] - pdx[a] * py[c] * out \
                + right * pd[a] * py[c]
            cols[(a, c)] = res.as_dict()
    rows = sorted({m for col in cols.values() for m in col})
    if not rows:
        return cols, len(cols)
    matrix = DomainMatrix.from_list_sympy(
        len(rows), len(cols), [[col.get(r, 0) for col in cols.values()]
                               for r in rows])
    return cols, len(cols) - matrix.convert_to(sympy.QQ).rank()


def feq_solution(text: str, weights: tuple, degree: int, top: bool) -> list[str]:
    """The reported basis solves the equation, is independent, and its size
    is the kernel dimension sympy finds."""
    sympy, _, _ = _sympy()
    from sympy.polys.matrices import DomainMatrix
    rep = json.loads(text)
    if rep["dimension"] != len(rep["basis"]):
        return ["dimension disagrees with the basis length"]
    cols, nullity = feq_system(tuple(str(w) for w in weights), degree, top)
    if len(rep["basis"]) != nullity:
        return [f"kernel dimension {len(rep['basis'])}, sympy finds {nullity}"]
    vectors = []
    for text_p in rep["basis"]:
        coeffs = sympy.Poly(expr(text_p), _sym("d"), _sym("x")).as_dict()
        if not set(coeffs) <= set(cols):
            return [f"basis polynomial {text_p} is outside the unknowns"]
        residual: dict = {}
        for mono, coef in coeffs.items():
            for m, v in cols[mono].items():
                residual[m] = residual.get(m, 0) + coef * v
        if any(residual.values()):
            return [f"basis polynomial {text_p} does not solve the equation"]
        vectors.append([coeffs.get(m, 0) for m in cols])
    if vectors:
        matrix = DomainMatrix.from_list_sympy(len(vectors), len(cols), vectors)
        if matrix.convert_to(sympy.QQ).rank() != len(vectors):
            return ["basis polynomials are linearly dependent"]
    return []


#: The paper's two tables of homogeneous top solutions, with the off-table
#: probes whose solution space is empty: label -> (wl, wr, degree, solution).
PRINTED_TABLES = {
    "generic/deg0": (3, 0, 0, "1"),
    "generic/deg1": (2, 2, 1, "d + 2*x"),
    "generic/deg2": (3, 1, 2, "d^2 + 3/2*d*x + 1/2*x^2"),
    "generic/deg3": ("5/3", "5/3", 3, "d^3 + 3/2*d^2*x - 3/2*d*x^2 - x^3"),
    "weight1/deg0": (1, 3, 0, "1"),
    "weight1/deg1": (1, 2, 1, "x"),
    "weight1/deg2": (1, 5, 2, "d*x - 3*x^2"),
    "weight1/deg3": (1, 1, 3, "d^2*x + 3*d*x^2 + 2*x^3"),
    "off-table/deg2": (3, 2, 2, None),
    "off-table/deg3": (2, 3, 3, None),
    "off-table/weight1-deg3": (1, 2, 3, None),
    "off-table/deg4": (3, 3, 4, None),
    "zero-out/deg0": (3, -2, 0, "1"),
    "zero-out/deg1": (3, -1, 1, "d"),
    "zero-out/deg2": (3, 0, 2, "d^2 + 1/2*d*x"),
    "zero-out/weight1-deg2": (1, 2, 2, "d*x"),
    "zero-out/weight1-deg3": (1, 3, 3, "d^2*x - d*x^2"),
    "zero-out/weight3-deg3": (3, 1, 3, "d^3 + 3/2*d^2*x + 1/2*d*x^2"),
    "zero-out/off-table-deg3": (2, 2, 3, None),
    "zero-out/off-table-deg4": ("5/2", "5/2", 4, None),
}


def feq_tables(text: str) -> list[str]:
    rep = json.loads(text)
    cases = {c["label"]: c for c in rep["cases"]}
    if set(cases) != set(PRINTED_TABLES) or rep["violations"]:
        return ["table cases differ from the printed tables"]
    problems = []
    for label, (wl, wr, degree, solution) in PRINTED_TABLES.items():
        case = cases[label]
        wo = Fraction(wl) + Fraction(wr) - degree - 1
        if [frac(w) for w in case["weights"]] != [Fraction(wl), Fraction(wr), wo]:
            problems.append(f"{label}: weights {case['weights']}")
        elif solution is None:
            if case["dimension"] != 0:
                problems.append(f"{label}: off-table case has solutions")
        elif case["dimension"] != 1 or not _proportional(case["basis"][0],
                                                         solution):
            problems.append(f"{label}: {case['basis']} is not {solution}")
    return problems[:3]


def _proportional(text: str, solution: str) -> bool:
    sympy, _, _ = _sympy()
    ratio = sympy.cancel(expr(text) / expr(solution))
    return ratio.is_number and ratio != 0
