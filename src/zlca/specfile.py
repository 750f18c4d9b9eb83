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

Polynomial payloads are strings in the canonical grammar.  A load reads each
distinct term text once: ``loads`` hands one term memo to every
``grammar.parse`` of the file, and drops it when the load ends.  The rows of
both modes load alike, by one loader, as ``conformal.Table``s keyed by
generator with one term per target.  The loader checks only the file: JSON
shape, names, polynomial syntax, the caps (MAX_GENERATORS generators, each
grade of at most MAX_GRADE_DIGITS digits, and per polynomial MAX_FORMAL_DEGREE
and MAX_TABLE_TERMS), declared parameters, and repeated parameters, rows or
targets.  A ``submodule`` pattern is checked by ``parse_pattern``, as
``load_pattern`` checks a pattern file, and kept as its raw entries.  The
model checks the grading when the spec is built: ``ConformalAlgebra`` refuses
a bracket target off grade i + j.
``load_path`` and ``load_pattern`` start every error message with the path of
the file, so a command that reads two files names the one at fault.  Both modes
build a ``conformal.StructureTable``, whose ``params`` are the declared ones
together with those the entries use.  In conformal mode a missing bracket row
is the zero bracket when its target grade is in the window and undecidable
otherwise (``ConformalAlgebra`` stores exactly the in-window rows, and
``from_algebra`` writes only the nonzero ones); in GD mode (``products``
present) rows are explicit-presence, so a row with an empty term list is a
decidable zero and a missing row is undecidable.  A GD-mode spec is read only
as a GD structure: ``algebra`` refuses it.  Serialization is canonical:
generators sorted by (grade, name), rows sorted by their (left, right)
generators and terms by target, polynomials printed in canonical form, keys
emitted in sorted order.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from . import feq, grammar
from .conformal import ConformalAlgebra, GeneratorId, StructureTable, Table
from .gd import GDAlgebra, LieStructure, NovikovAlgebra
from .ideals import GradedSubmodule
from .poly import FORMAL_VARS, ParamPoly


class SpecFileError(ValueError):
    """Malformed spec file (structure, names or polynomial syntax)."""


class UndeclaredNameError(SpecFileError):
    """A generator or parameter is used without being declared."""


#: The highest formal (d, x, y) degree of a bracket or product polynomial: the
#: degree up to which the functional-equation solver looks for structure
#: polynomials; the paper's families stay within degree 2.
MAX_FORMAL_DEGREE = feq.MAX_FULL_DEGREE

#: The most terms a bracket or product polynomial may have once expanded: 4
#: times the largest entry in any golden, test or workload spec, the 153 terms
#: of ``(d + x + 1)^16``; the paper's families have at most 7.  It bounds the
#: size of every table entry that verification multiplies.
MAX_TABLE_TERMS = 612

#: The most terms a submodule component may have: 4 times the largest one in
#: any golden, test, workload or CI pattern, the 2 terms of ``d + 2*s``.
#: Components are also held to MAX_FORMAL_DEGREE; every bracket of the ideal
#: check is divided by them.
MAX_PATTERN_TERMS = 8

#: The most generators a spec may declare: the widest window ``zlca family``
#: emits (``cli.MAX_WINDOW_GRADES``), one generator per grade.
MAX_GENERATORS = 101


@dataclass(frozen=True)
class SpecFile:
    params: tuple[str, ...]
    generators: tuple[GeneratorId, ...]
    brackets: Table
    products: Optional[Table] = None
    submodule: Optional[tuple[tuple[int, str], ...]] = None

    # -- model construction -------------------------------------------------

    def conformal_brackets(self) -> Table:
        """The bracket rows, or SpecFileError on a GD-mode spec."""
        if self.products is not None:
            raise SpecFileError("spec file has a products table (GD mode): "
                                "only gd check and gd to-lca read it")
        return self.brackets

    def algebra(self) -> ConformalAlgebra:
        return ConformalAlgebra(self.generators, self.conformal_brackets(),
                                self.params)

    def gd_algebra(self) -> GDAlgebra:
        if self.products is None:
            raise SpecFileError("spec file has no products table (not GD mode)")
        nov = NovikovAlgebra(self.generators, self.products, self.params)
        lie = LieStructure(self.generators, self.brackets, self.params)
        return GDAlgebra(nov, lie)

    def submodule_pattern(self) -> GradedSubmodule:
        if self.submodule is None:
            raise SpecFileError("spec file has no submodule pattern")
        return parse_pattern(self.submodule)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        def rows_out(table: Table) -> list[dict[str, Any]]:
            return [{"left": u.name, "right": v.name,
                     "terms": [{"target": w.name, "poly": str(poly)}
                               for w, poly in sorted(table[u, v].items())]}
                    for u, v in sorted(table)]

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


#: A generator grade and a submodule grade key have at most this many digits,
#: as a window bound on the command line has.
MAX_GRADE_DIGITS = 4

_GRADE_KEY = re.compile(f"-?[0-9]{{1,{MAX_GRADE_DIGITS}}}")


def _pattern_entries(raw: Mapping[Any, Any]) -> tuple[tuple[int, str], ...]:
    """The (grade, component) pairs of a {grade: component} object, by grade.

    A key is an ASCII integer of at most MAX_GRADE_DIGITS digits, with an
    optional minus sign; two keys that name one grade, such as "1" and "01",
    are an error, and so is a component that is not a string.
    """
    entries: dict[int, str] = {}
    for key, value in raw.items():
        if not (isinstance(key, str) and _GRADE_KEY.fullmatch(key)):
            raise SpecFileError(f"submodule grade {key!r} is not an integer "
                                f"of at most {MAX_GRADE_DIGITS} digits")
        grade = int(key)
        if grade in entries:
            raise SpecFileError(f"submodule grade {key!r} repeats grade "
                                f"{grade}")
        if not isinstance(value, str):
            raise SpecFileError(f"submodule component at {grade} must be a string")
        entries[grade] = value
    return tuple(sorted(entries.items()))


def parse_pattern(entries: tuple[tuple[int, str], ...]) -> GradedSubmodule:
    """``_pattern_entries``, each "full", "zero" or a polynomial within the
    caps (MAX_FORMAL_DEGREE, MAX_PATTERN_TERMS), as a graded submodule.

    Every refusal reads "submodule component at <grade>: <reason>": a parse
    or cap error here, and a component ``GradedSubmodule`` refuses, checked
    there once, in the same form.
    """
    components: dict[int, ParamPoly] = {}
    for grade, value in entries:
        if value == "zero":
            continue
        if value == "full":
            components[grade] = ParamPoly.const(1)
            continue
        try:
            poly = grammar.parse(value)
        except grammar.ParseError as exc:
            raise SpecFileError(f"submodule component at {grade}: {exc}")
        if len(poly) > MAX_PATTERN_TERMS:
            raise SpecFileError(f"submodule component at {grade}: {len(poly)} "
                                f"terms exceed {MAX_PATTERN_TERMS}")
        if poly.formal_degree() > MAX_FORMAL_DEGREE:
            raise SpecFileError(f"submodule component at {grade}: formal "
                                f"degree {poly.formal_degree()} exceeds "
                                f"{MAX_FORMAL_DEGREE}")
        components[grade] = poly
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
               params: set[str], memo: grammar.Memo) -> Table:
    # Every message is formatted only on the way to its raise: a CL2 window
    # has thousands of terms, and loading is a large part of a short job.
    if not isinstance(raw, list):
        raise SpecFileError(f"{where} must be a list")
    rows: dict[tuple[GeneratorId, GeneratorId], dict[GeneratorId, ParamPoly]] = {}
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
        pair = (generators[left], generators[right])
        if pair in rows:
            raise SpecFileError(f"{where}[{idx}]: duplicate row for "
                                f"({left}, {right})")
        terms_raw = row.get("terms", [])
        if not isinstance(terms_raw, list):
            raise SpecFileError(f"{where}[{idx}].terms must be a list")
        terms: dict[GeneratorId, ParamPoly] = {}
        for tdx, term in enumerate(terms_raw):
            if not isinstance(term, dict):
                raise SpecFileError(f"{where}[{idx}].terms[{tdx}] must be an "
                                    f"object")
            target = term.get("target")
            poly_text = term.get("poly")
            if not (isinstance(target, str) and isinstance(poly_text, str)):
                raise SpecFileError(f"{where}[{idx}].terms[{tdx}] needs string "
                                    f"'target' and 'poly'")
            gen = generators.get(target)
            if gen is None:
                raise UndeclaredNameError(f"{where}[{idx}].terms[{tdx}]: "
                                          f"undeclared generator {target!r}")
            if gen in terms:
                raise SpecFileError(f"{where}[{idx}].terms[{tdx}]: repeated "
                                    f"target {target!r}")
            try:
                poly = grammar.parse(poly_text, memo)
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
            terms[gen] = poly
        rows[pair] = terms
    return rows


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object; a repeated key is an error, not its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = Counter(key for key, _ in pairs).most_common(1)[0][0]
        raise SpecFileError(f"repeated key {key!r} in one object")
    return obj


def _decode(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_object)
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
    params: set[str] = set()
    for p in params_raw:
        try:
            ParamPoly.variable(p)
        except ValueError as exc:
            raise SpecFileError(f"params: {exc}")
        if p in ("d", "x", "y"):
            raise SpecFileError(f"params: {p!r} is a reserved formal variable")
        if p in params:
            raise SpecFileError(f"params: duplicate parameter {p!r}")
        params.add(p)

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
        if abs(grade) >= 10 ** MAX_GRADE_DIGITS:
            raise SpecFileError(f"{ctx}: grade of {name!r} has more than "
                                f"{MAX_GRADE_DIGITS} digits")
        generators[name] = GeneratorId(grade, name)

    # One term memo for the load: a family's rows repeat a few term texts.
    memo: grammar.Memo = {}
    tables = {key: _load_rows(raw[key], key, generators, params, memo)
              for key in ("brackets", "products") if key in raw}

    submodule = None
    if "submodule" in raw:
        sub_raw = raw["submodule"]
        _require(isinstance(sub_raw, dict), "submodule must be an object")
        submodule = _pattern_entries(sub_raw)
        parse_pattern(submodule)

    return SpecFile(tuple(sorted(params)), tuple(sorted(generators.values())),
                    tables.get("brackets", {}), tables.get("products"),
                    submodule)


def load_path(path: str) -> SpecFile:
    """``loads`` of the file at path; an error message starts with the path."""
    text = _read(path)
    try:
        return loads(text)
    except SpecFileError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_pattern(path: str) -> GradedSubmodule:
    """A pattern file: a {grade: component} object, bare or as "submodule".
    An error message starts with the path."""
    text = _read(path)
    try:
        raw = _decode(text)
        if isinstance(raw, dict) and isinstance(raw.get("submodule"), dict):
            raw = raw["submodule"]
        _require(isinstance(raw, dict), "pattern file must be a JSON object")
        return parse_pattern(_pattern_entries(raw))
    except SpecFileError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# -- writers --------------------------------------------------------------------

def _rows(table: StructureTable) -> Table:
    return {pair: table.entry(*pair) for pair in table.pairs()}


def from_algebra(alg: ConformalAlgebra) -> SpecFile:
    """The nonzero rows: inside the window a missing row is the zero bracket."""
    rows = {pair: row for pair, row in _rows(alg).items() if row}
    return SpecFile(tuple(sorted(alg.params)), alg.generators, rows)


def from_gd(g: GDAlgebra) -> SpecFile:
    return SpecFile(tuple(sorted(g.params)), g.basis, _rows(g.lie),
                    _rows(g.nov))
