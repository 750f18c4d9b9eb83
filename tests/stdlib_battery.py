"""zlca's commands with only the standard library, under ``python -I -S
tests/stdlib_battery.py`` (no site directories, no PYTHONPATH).  Exits 1 if
a row of ROWS fails, and names each.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

# -I leaves the script's directory off sys.path; src goes on it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from zlca import grammar, specfile  # noqa: E402
from zlca.cli import main  # noqa: E402

#: (expected exit, command[, the file whose bytes it prints]), run in this
#: order through zlca.cli.main in one temporary directory.  A fixture file is
#: written, by plain json code, before the first row that names it; those made
#: from a spec read the file an earlier row emitted.
ROWS = [
    (0, "family CL2 --b=1/2 --s=1 --window=-4..4 -o cl2.json"),
    (0, "family CL2 --b=1/2 --s=1 --window=-4..4", "cl2.json"),  # as -o wrote
    (2, "family Vir -o missing/x.json"),  # an -o in a missing directory
    (2, "verify overcap.json"),  # its submodule (unread) breaks the degree cap
    (0, "gd from-lca cl2.json -o a2.json"),
    (0, "gd check a2.json"),
    (0, "gd to-lca a2.json"),
    (1, "gd check a2-mutant.json"),  # failing laws are split and unpacked
    (1, "gd to-lca a2-mutant.json"),  # not-gd: the Novikov laws fail
    (2, "gd check hostile.json"),  # an input error past its pair budget
    (0, "verify cl2.json"),
    # with every polynomial's terms reversed, the same report
    (0, "verify cl2-flipped.json", "cl2.out"),
    (1, "verify cl2-mutant.json"),  # failing triples are split and unpacked
    (1, "verify cl2-mutant-flipped.json", "cl2-mutant.out"),
    (0, "solve-feq --tables"),
    (1, "probe cl2.json --core=-2..2"),  # CL2(1/2, 1) has the SCL2 ideal
    (0, "ideal-check cl2.json --pattern scl2.json"),
    (1, "ideal-check cl2.json --pattern scl2-d3.json"),
    (1, "ideal-check cl2.json --pattern scl2-zero.json"),  # zero at -1
    (2, "verify a2.json"),  # a GD spec: it has a products table
    (2, "probe a2.json --core=-2..2"),
    (2, "ideal-check a2.json --pattern scl2-zero.json"),
    (2, "family Cur --lie a2.json"),
    (0, "family CL2 --b=1/2 --window=-4..4 -o cl2s.json"),
    # --bind binds the pattern too
    (0, "ideal-check cl2s.json --pattern scl2-s.json --bind s=1"),
    # a component of 81 terms, over the pattern caps
    (2, "ideal-check cl2.json --pattern scl2-81-terms.json"),
    (0, "family CL2 --b=1/2 --s=1 --window=-20..20 -o cl2w.json"),
    # at both caps, in seconds: each division visits a term once
    (1, "ideal-check cl2w.json --pattern wide.json"),
    (2, "verify repeated-key.json"),
    (2, "verify repeated-target.json"),
    (2, "verify repeated-param.json"),
    (2, "verify grade-10000.json"),  # over the 4 grade digits
    (0, "family V --window=-2..2 -o v.json"),
    (0, "verify v.json --bind s=1"),
    (2, "verify v.json --bind s=1 --bind s=2"),  # a valid binding, bound twice
    (2, "verify zero-term.json"),  # the algebra, not the loader, refuses it
    (2, "family CL1 --top=1 --window=-1..9"),  # CL1 takes --top, not --window
    (2, "solve-feq --top=2 --ai=1 --aj=1 --aij=0 --bi=5"),  # reads no shift
    (2, "solve-feq --tables --ai=3"),  # --tables reads no weight
    (0, "family CL1 --top=-1"),  # the one-grade window
    (2, "family CL1 --top=-2"),
    (0, "family Cur --lie sl2.json -o cur.json"),
    (2, "family Cur --lie sl2-broken.json"),  # [e, f] stored without [f, e]
    # three generators at grade 0; probe and ideal-check read one per grade
    (2, "probe cur.json --core=0..0"),
    (2, "ideal-check cur.json --pattern grade0-full.json"),
]

#: solve-feq arguments by golden report: linalg's peel and elimination give
#: the golden solutions.
FEQ = {"zero_out": "--ai=3 --bi=1 --aj=1 --bj=-1 --aij=0 --bij=0",
       "family": "--ai=5 --bi=-3/2 --aj=8 --bj=-3 --aij=11 --bij=-9/2",
       "dim2": "--ai=1 --bi=0 --aj=1 --bj=0 --aij=0 --bij=0",
       "cl2_fractional":
           "--ai=7/2 --bi=-9/10 --aj=5 --bj=-9/5 --aij=13/2 --bij=-27/10"}
ROWS += [(0, f"solve-feq {args} --full=12", str(Path(__file__).resolve().parent
          / f"golden/solve_feq_full12_{n}.out")) for n, args in FEQ.items()]


def _spec(generators, terms, **extra):
    """{name: grade} generators; "left right target poly" terms, by row."""
    rows = {}
    for u, v, w, p in (term.split(" ", 3) for term in terms):
        rows.setdefault((u, v), []).append({"target": w, "poly": p})
    return {**extra, "generators": [{"name": n, "grade": g} for n, g in
                                    generators.items()], "brackets": [
        {"left": u, "right": v, "terms": t} for (u, v), t in rows.items()]}


def _mutant(path, table, suffix):
    spec = json.loads(Path(path).read_text())
    spec[table][0]["terms"][0]["poly"] += suffix
    return spec


def _reversed(path):
    """Terms reversed; the flat route reads them, and to the same spec."""
    text = Path(path).read_text()
    spec = json.loads(text)
    polys = [term for row in spec["brackets"] for term in row["terms"]]
    for term in polys:
        terms = term["poly"].replace(" - ", " + -").split(" + ")[::-1]
        term["poly"] = " + ".join(terms).replace(" + -", " - ")
    assert sum(" " in term["poly"] for term in polys) > 50, "too few terms"
    with mock.patch.object(grammar, "_Parser", side_effect=AssertionError(
            "a reversed polynomial left the flat route")):
        assert specfile.loads(json.dumps(spec)) == specfile.loads(text)
    return spec


def _hostile():
    """Six generators, each row one 200-term coefficient."""
    # the first 200 monomials a^i*b^j*c^k, by the octal digits ijk of n
    poly = " + ".join("*".join(f"{v}^{e}" for v, e in zip("abc", f"{n:03o}")
                               if e != "0") or "1" for n in range(200))
    names = dict.fromkeys([f"L{i}" for i in range(6)], 0)
    spec = _spec(names, [f"{u} {v} L0 {poly}" for u in names for v in names],
                 params=["a", "b", "c"])
    return {**spec, "products": spec["brackets"]}


def _scl2(component):  # the SCL2 pattern on -4..4 has component at -1
    return {str(g): component if g == -1 else "full" for g in range(-4, 5)}


SL2 = ["h e e 2", "e h e -2", "h f f -2", "f h f 2", "e f h 1", "f e h -1"]

#: The fixture files: name -> its JSON text or object, or a function that
#: returns one from the files earlier rows wrote.
FIXTURES = {
    "overcap.json": lambda: {**json.loads(Path("cl2.json").read_text()),
                             "submodule": {"0": "d^13", "1": "full"}},
    "a2-mutant.json": lambda: _mutant("a2.json", "products", " + 1"),
    "hostile.json": _hostile,
    "cl2-mutant.json": lambda: _mutant("cl2.json", "brackets", " + x"),
    "cl2-flipped.json": lambda: _reversed("cl2.json"),
    "cl2-mutant-flipped.json": lambda: _reversed("cl2-mutant.json"),
    "cl2.out": lambda: zlca("verify cl2.json")[1],
    "cl2-mutant.out": lambda: zlca("verify cl2-mutant.json")[1],
    "scl2.json": _scl2("d + 2"),
    "scl2-d3.json": _scl2("d + 3"),
    "scl2-zero.json": _scl2("zero"),
    "scl2-s.json": _scl2("d + 2*s"),
    "scl2-81-terms.json": _scl2("*".join(["(d + 1)^16"] * 5)),
    "wide.json": dict.fromkeys(map(str, range(-20, 21)),
                               " + ".join(f"d^{e}" for e in range(12, 4, -1))),
    "repeated-key.json": '{"generators": [{"name": "L", "grade": 0}], '
                         '"generators": []}',
    "repeated-target.json": _spec({"L": 0}, ["L L L d + 2*x", "L L L 5*x"]),
    "repeated-param.json": _spec({"L": 0}, [], params=["s", "s"]),
    "grade-10000.json": _spec({"L": 10000}, []),
    # one bracket term targets grade 0 from grades 0 and 1, coefficient zero
    "zero-term.json": _spec({"L": 0, "A": 1}, ["L A L 0"]),
    "sl2.json": _spec(dict.fromkeys("efh", 0), SL2),
    "sl2-broken.json": _spec(dict.fromkeys("efh", 0), SL2[:-1]),
    "grade0-full.json": {"0": "full"},
}


def zlca(command, *files):
    """Exit code and stdout of ``zlca COMMAND``, once its fixtures exist."""
    argv = command.split()
    for name in [*argv, *files]:
        if name in FIXTURES and not os.path.exists(name):
            content = FIXTURES[name]
            content = content() if callable(content) else content
            Path(name).write_text(content if isinstance(content, str)
                                  else json.dumps(content))
    with contextlib.redirect_stdout(io.StringIO()) as out:  # not stderr
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code
    return code, out.getvalue()


def run(rows=ROWS):
    """Check the rows in a fresh temporary directory: 1 if any failed."""
    failed, cwd = 0, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for want, command, *files in rows:
            try:
                code, out = zlca(command, *files)
                same = all(out.encode() == Path(f).read_bytes() for f in files)
                bad = "" if code == want else f" (exit {code}, not {want})"
                bad += "" if same else " (other bytes)"
            except Exception as exc:  # a fixture's assertion among them
                bad = f" ({type(exc).__name__}: {exc})"
            print(f"{'FAIL' if bad else 'ok'}: zlca {command}{bad}")
            failed += bool(bad)
        os.chdir(cwd)
    print(f"{len(rows) - failed} of {len(rows)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
