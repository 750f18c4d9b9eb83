"""JSON spec files for algebras, Gel'fand-Dorfman structures and submodules.

The on-disk format is a single JSON object:

    {
      "params": ["s"],
      "generators": [{"name": "L0", "grade": 0}, ...],
      "brackets": [{"left": "L0", "right": "L0",
                    "terms": [{"target": "L0", "poly": "d + 2*x"}]}, ...],
      "products": [...],          # optional: Novikov table (GD mode)
      "submodule": {"-2": "d + 2*s", "0": "full", "1": "zero"}   # optional
    }

Polynomial payloads are strings in the canonical grammar.  Both modes load
into ``conformal.StructureTable``, which keeps every row it is given and
whose ``params`` are the declared ones together with those the entries use.
In conformal mode ``ConformalAlgebra`` drops the empty rows, and a missing
bracket row is the zero bracket when its target grade is in the window and
undecidable otherwise; in GD mode (``products`` present) rows are
explicit-presence, so a row with an empty term list is a decidable zero and a
missing row is undecidable.  A spec declares at most MAX_GENERATORS
generators, and a bracket or product polynomial has formal degree at most
MAX_FORMAL_DEGREE.  Serialization is canonical: generators sorted by (grade,
name), rows sorted by (left, right), polynomials printed in canonical form,
keys emitted in sorted order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from . import grammar
from .conformal import ConformalAlgebra, GeneratorId, StructureTable
from .gd import GDAlgebra, LieStructure, NovikovAlgebra
from .ideals import GradedSubmodule
from .poly import FORMAL_VARS, ParamPoly


class SpecFileError(ValueError):
    """Malformed spec file (structure, names, grading or polynomial syntax)."""


class UndeclaredNameError(SpecFileError):
    """A generator or parameter is used without being declared."""


class GradeMismatchError(SpecFileError):
    """A bracket term targets a generator of the wrong grade."""


#: The highest formal (d, x, y) degree of a bracket or product polynomial; the
#: functional-equation solver looks for structure polynomials up to this degree
#: (``feq.MAX_FULL_DEGREE``), and the paper's families stay within degree 2.
MAX_FORMAL_DEGREE = 12

#: The most terms a bracket or product polynomial may have once expanded: 4
#: times the largest entry in any golden, test or workload spec, the 153 terms
#: of ``(d + x + 1)^16``; the paper's families have at most 7.  It bounds the
#: size of every table entry that verification multiplies.
MAX_TABLE_TERMS = 612

#: The most generators a spec may declare: the widest window ``zlca family``
#: emits (``cli.MAX_WINDOW_GRADES``), one generator per grade.
MAX_GENERATORS = 101

TableRows = tuple[tuple[str, str, tuple[tuple[str, ParamPoly], ...]], ...]


@dataclass(frozen=True)
class SpecFile:
    params: tuple[str, ...]
    generators: tuple[GeneratorId, ...]
    brackets: TableRows
    products: Optional[TableRows] = None
    submodule: Optional[tuple[tuple[int, str], ...]] = None

    # -- model construction -------------------------------------------------

    def _by_name(self) -> dict[str, GeneratorId]:
        return {g.name: g for g in self.generators}

    def _as_table(self, rows: TableRows):
        names = self._by_name()
        return {(names[left], names[right]):
                {names[target]: poly for target, poly in terms}
                for left, right, terms in rows}

    def algebra(self) -> ConformalAlgebra:
        return ConformalAlgebra(self.generators, self._as_table(self.brackets),
                                self.params)

    def gd_algebra(self) -> GDAlgebra:
        if self.products is None:
            raise SpecFileError("spec file has no products table (not GD mode)")
        nov = NovikovAlgebra(self.generators, self._as_table(self.products),
                             self.params)
        lie = LieStructure(self.generators, self._as_table(self.brackets),
                           self.params)
        return GDAlgebra(nov, lie)

    def submodule_pattern(self) -> GradedSubmodule:
        if self.submodule is None:
            raise SpecFileError("spec file has no submodule pattern")
        return parse_pattern(dict(self.submodule))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        def rows_out(rows: TableRows) -> list[dict[str, Any]]:
            names = self._by_name()
            ordered = sorted(rows, key=lambda r: (names[r[0]], names[r[1]]))
            return [{"left": left, "right": right,
                     "terms": [{"target": target, "poly": str(poly)}
                               for target, poly in sorted(
                                   terms, key=lambda t: names[t[0]])]}
                    for left, right, terms in ordered]

        out: dict[str, Any] = {
            "params": sorted(self.params),
            "generators": [{"name": g.name, "grade": g.grade}
                           for g in sorted(self.generators)],
            "brackets": rows_out(self.brackets),
        }
        if self.products is not None:
            out["products"] = rows_out(self.products)
        if self.submodule is not None:
            out["submodule"] = {str(grade): pattern
                                for grade, pattern in self.submodule}
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def parse_pattern(pattern: Mapping[Any, str]) -> GradedSubmodule:
    """A {grade: "full" | "zero" | polynomial} map as a graded submodule."""
    components: dict[int, ParamPoly] = {}
    for key, value in pattern.items():
        try:
            grade = int(key)
        except (TypeError, ValueError):
            raise SpecFileError(f"submodule grade {key!r} is not an integer")
        if not isinstance(value, str):
            raise SpecFileError(f"submodule component at {grade} must be a string")
        if value == "zero":
            continue
        if value == "full":
            components[grade] = ParamPoly.const(1)
            continue
        try:
            components[grade] = grammar.parse(value)
        except grammar.ParseError as exc:
            raise SpecFileError(f"submodule component at {grade}: {exc}")
    try:
        return GradedSubmodule(components)
    except ValueError as exc:
        raise SpecFileError(str(exc))


# -- loading ------------------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecFileError(message)


def _degree_and_stray(poly: ParamPoly, params: set[str]) -> tuple[int, bool]:
    """Formal degree (0 for zero) and whether an undeclared parameter occurs.

    One walk over the terms serves both load checks.
    """
    degree = 0
    stray = False
    for mono, _ in poly.items():
        mono_degree = 0
        for var, exp in mono:
            if var in FORMAL_VARS:
                mono_degree += exp
            elif var not in params:
                stray = True
        if mono_degree > degree:
            degree = mono_degree
    return degree, stray


def _load_rows(raw: Any, where: str, generators: dict[str, GeneratorId],
               params: set[str], graded: bool) -> TableRows:
    # Every message is formatted only on the way to its raise: a CL2 window
    # has thousands of terms, and loading is a large part of a short job.
    if not isinstance(raw, list):
        raise SpecFileError(f"{where} must be a list")
    rows = []
    seen: set[tuple[str, str]] = set()
    for idx, row in enumerate(raw):
        if not isinstance(row, dict):
            raise SpecFileError(f"{where}[{idx}] must be an object")
        left, right = row.get("left"), row.get("right")
        if not (isinstance(left, str) and isinstance(right, str)):
            raise SpecFileError(f"{where}[{idx}] needs string 'left' and "
                                f"'right'")
        for name in (left, right):
            if name not in generators:
                raise UndeclaredNameError(f"{where}[{idx}]: undeclared "
                                          f"generator {name!r}")
        if (left, right) in seen:
            raise SpecFileError(f"{where}[{idx}]: duplicate row for "
                                f"({left}, {right})")
        seen.add((left, right))
        terms_raw = row.get("terms", [])
        if not isinstance(terms_raw, list):
            raise SpecFileError(f"{where}[{idx}].terms must be a list")
        want = generators[left].grade + generators[right].grade
        terms = []
        for tdx, term in enumerate(terms_raw):
            if not isinstance(term, dict):
                raise SpecFileError(f"{where}[{idx}].terms[{tdx}] must be an "
                                    f"object")
            target = term.get("target")
            poly_text = term.get("poly")
            if not (isinstance(target, str) and isinstance(poly_text, str)):
                raise SpecFileError(f"{where}[{idx}].terms[{tdx}] needs string "
                                    f"'target' and 'poly'")
            if target not in generators:
                raise UndeclaredNameError(f"{where}[{idx}].terms[{tdx}]: "
                                          f"undeclared generator {target!r}")
            try:
                poly = grammar.parse(poly_text)
            except grammar.ParseError as exc:
                raise SpecFileError(f"{where}[{idx}].terms[{tdx}].poly: {exc}")
            if len(poly) > MAX_TABLE_TERMS:
                raise SpecFileError(f"{where}[{idx}].terms[{tdx}].poly: "
                                    f"{len(poly)} terms exceed "
                                    f"{MAX_TABLE_TERMS}")
            degree, stray = _degree_and_stray(poly, params)
            if degree > MAX_FORMAL_DEGREE:
                raise SpecFileError(f"{where}[{idx}].terms[{tdx}].poly: "
                                    f"formal degree {degree} exceeds "
                                    f"{MAX_FORMAL_DEGREE}")
            if stray:
                raise UndeclaredNameError(
                    f"{where}[{idx}].terms[{tdx}].poly: undeclared parameter "
                    f"{sorted(poly.params() - params)[0]!r}")
            if graded and generators[target].grade != want:
                raise GradeMismatchError(
                    f"{where}[{idx}].terms[{tdx}]: target {target!r} has grade "
                    f"{generators[target].grade}, expected {want}")
            terms.append((target, poly))
        rows.append((left, right, tuple(terms)))
    return tuple(rows)


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # A decode error, an integer literal over the interpreter's digit
        # limit, or arrays and objects nested deeper than the recursion limit.
        raise SpecFileError(f"invalid JSON: {exc}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}")


def loads(text: str) -> SpecFile:
    """Parse and validate a spec file; raises SpecFileError subclasses."""
    raw = _decode(text)
    _require(isinstance(raw, dict), "spec file must be a JSON object")

    params_raw = raw.get("params", [])
    _require(isinstance(params_raw, list)
             and all(isinstance(p, str) for p in params_raw),
             "params must be a list of strings")
    for p in params_raw:
        try:
            ParamPoly.variable(p)
        except ValueError as exc:
            raise SpecFileError(f"params: {exc}")
        if p in ("d", "x", "y"):
            raise SpecFileError(f"params: {p!r} is a reserved formal variable")
    params = set(params_raw)

    gens_raw = raw.get("generators")
    _require(isinstance(gens_raw, list) and gens_raw,
             "generators must be a nonempty list")
    _require(len(gens_raw) <= MAX_GENERATORS,
             f"generators: {len(gens_raw)} declared, at most "
             f"{MAX_GENERATORS} allowed")
    generators: dict[str, GeneratorId] = {}
    for idx, g in enumerate(gens_raw):
        ctx = f"generators[{idx}]"
        _require(isinstance(g, dict), f"{ctx} must be an object")
        name, grade = g.get("name"), g.get("grade")
        _require(isinstance(name, str) and name, f"{ctx} needs a string name")
        _require(isinstance(grade, int) and not isinstance(grade, bool),
                 f"{ctx} needs an integer grade")
        _require(name not in generators, f"{ctx}: duplicate generator {name!r}")
        generators[name] = GeneratorId(grade, name)

    graded = "products" not in raw
    brackets = _load_rows(raw.get("brackets", []), "brackets", generators,
                          params, graded)
    products = None
    if "products" in raw:
        products = _load_rows(raw["products"], "products", generators,
                              params, graded=False)

    submodule = None
    if "submodule" in raw:
        sub_raw = raw["submodule"]
        _require(isinstance(sub_raw, dict), "submodule must be an object")
        entries = []
        for key, value in sub_raw.items():
            try:
                grade = int(key)
            except (TypeError, ValueError):
                raise SpecFileError(f"submodule grade {key!r} is not an integer")
            _require(isinstance(value, str),
                     f"submodule component at {grade} must be a string")
            entries.append((grade, value))
        submodule = tuple(sorted(entries))

    return SpecFile(tuple(sorted(params)), tuple(sorted(generators.values())),
                    brackets, products, submodule)


def load_path(path: str) -> SpecFile:
    return loads(_read(path))


def load_pattern(path: str) -> GradedSubmodule:
    """A pattern file: a {grade: component} object, bare or as "submodule"."""
    raw = _decode(_read(path))
    if isinstance(raw, dict) and isinstance(raw.get("submodule"), dict):
        raw = raw["submodule"]
    _require(isinstance(raw, dict), "pattern file must be a JSON object")
    return parse_pattern(raw)


# -- writers --------------------------------------------------------------------

def _rows(table: StructureTable) -> TableRows:
    return tuple((u.name, v.name, tuple((w.name, poly) for w, poly
                                        in sorted(table.entry(u, v).items())))
                 for u, v in table.pairs())


def from_algebra(alg: ConformalAlgebra) -> SpecFile:
    return SpecFile(tuple(sorted(alg.params)), alg.generators, _rows(alg))


def from_gd(g: GDAlgebra) -> SpecFile:
    params = sorted(g.nov.params | g.lie.params)
    return SpecFile(tuple(params), g.basis, _rows(g.lie), _rows(g.nov))
