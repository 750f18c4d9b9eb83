"""Command-line front end: verification commands with deterministic reports.

Commands
    verify SPEC          axiom checks plus spectral diagnostics
    family KIND          emit a family spec file
    solve-feq            solve the grade-action functional equation
    gd check|to-lca|from-lca   Gel'fand-Dorfman structures
    ideal-check SPEC     graded-submodule closure check
    probe SPEC           simplicity probe (closure of every seed)

Each command returns a report or a spec file, and ``main`` alone writes it:
a report as JSON on stdout with sorted keys and canonical polynomial strings,
a spec to ``-o`` or to stdout.  Identical inputs produce byte-identical
output.  Exit codes: 0 = pass or a spec written, 1 = violations found, 2 =
input error (an unwritable ``-o`` among them, and a probe closure cut off by
its iteration guard, which would otherwise pass for a finding), 3 = internal
error (an uncaught exception, reported on stderr, never a verdict).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence, Union

from . import __version__, families, feq, gd, grammar, ideals, specfile
from .conformal import (LawReport, NotAffineError, PairBudgetError,
                        ZeroActionError, check_jacobi, classify_support,
                        degree_relation_check, spectral_data)

PASS, VIOLATIONS, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3

#: Integer arguments (window bounds, ``--top``, ``--full``) have at most this
#: many ASCII digits, and a window holds at most MAX_WINDOW_GRADES grades, so
#: hostile sizes end in an input error instead of a crash or a long run.  A
#: spec file is held to the same number of generators and grade digits.
MAX_BOUND_DIGITS = specfile.MAX_GRADE_DIGITS
MAX_WINDOW_GRADES = specfile.MAX_GENERATORS


#: What a command returns: a report, or the spec file it emits.
Result = Union[dict[str, Any], specfile.SpecFile]


class InputError(ValueError):
    pass


def _emit(payload: dict[str, Any], stream=None) -> None:
    (stream or sys.stdout).write(specfile.canonical_json(payload))


def _built(path: str, build: Callable[[], Any]) -> Any:
    """``build()``, with a model error turned into an input error that
    starts with the path of the file at fault."""
    try:
        return build()
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _report(command: str, checked: int, skipped: int,
            violations: list[dict[str, Any]], **extra: Any) -> dict[str, Any]:
    if violations:
        status = "fail"
    elif checked == 0 and skipped > 0:
        status = "undecidable-remainder"
    else:
        status = "pass"
    report = {
        "command": command,
        "version": __version__,
        "status": status,
        "counts": {"checked": checked, "skipped": skipped},
        "violations": violations,
    }
    report.update(extra)
    return report


_FRACTION = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")


def _parse_fraction(text: str) -> Fraction:
    """An ASCII integer or p/q, each part at most MAX_LITERAL_DIGITS long."""
    match = _FRACTION.fullmatch(text)
    if not match or max(len(match[1]), len(match[2] or "")) \
            > grammar.MAX_LITERAL_DIGITS:
        raise InputError(f"not a rational number p/q: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"zero denominator: {text!r}")


def _parse_bindings(pairs: Optional[Sequence[str]]) -> dict[str, Fraction]:
    bindings: dict[str, Fraction] = {}
    for pair in pairs or ():
        name, eq, value = pair.partition("=")
        if not eq or not name:
            raise InputError(f"bindings look like name=p/q, got {pair!r}")
        if name in bindings:
            raise InputError(f"parameter {name!r} is bound twice")
        bindings[name] = _parse_fraction(value)
    return bindings


_COUNT = re.compile(f"[0-9]{{1,{MAX_BOUND_DIGITS}}}")
_BOUND = re.compile(f"-?{_COUNT.pattern}")
_WINDOW = re.compile(f"({_BOUND.pattern})\\.\\.({_BOUND.pattern})")


def _parse_count(text: Optional[str], flag: str, signed: bool = False
                 ) -> Optional[int]:
    """An ASCII natural number (an integer when ``signed``) of at most
    MAX_BOUND_DIGITS digits, or None."""
    if text is None:
        return None
    if not (_BOUND if signed else _COUNT).fullmatch(text):
        kind = "an integer" if signed else "a natural number"
        raise InputError(f"{flag} must be {kind} of at most "
                         f"{MAX_BOUND_DIGITS} digits, got {text!r}")
    return int(text)


def _check_width(low: int, high: int) -> None:
    if high - low >= MAX_WINDOW_GRADES:
        raise InputError(f"window {low}..{high} has more than "
                         f"{MAX_WINDOW_GRADES} grades")


def _parse_window(text: str) -> tuple[int, int]:
    match = _WINDOW.fullmatch(text)
    if not match:
        raise InputError(f"window must look like a..b with at most "
                         f"{MAX_BOUND_DIGITS} digits a bound, got {text!r}")
    low, high = int(match.group(1)), int(match.group(2))
    if low > high:
        raise InputError(f"empty window {text!r}")
    _check_width(low, high)
    return low, high


def _load_algebra(path: str, bind: Optional[Sequence[str]],
                  spec: Optional[specfile.SpecFile] = None, *,
                  gd_mode: bool = False):
    """The spec's ConformalAlgebra, or its GDAlgebra when ``gd_mode``, with
    ``--bind`` applied.  Errors come in the order spec, model, bindings."""
    spec = spec or specfile.load_path(path)
    model = _built(path, spec.gd_algebra if gd_mode else spec.algebra)
    bindings = _parse_bindings(bind)
    unknown = set(bindings) - model.params
    if unknown:
        raise InputError(f"binding for unknown parameter {sorted(unknown)[0]!r}")
    return model.instantiate(bindings) if bindings else model


def _law_report(command: str, laws: dict[str, LawReport],
                violations: list[dict[str, Any]], **sections: Any
                ) -> dict[str, Any]:
    """``_report`` of law checks: counts summed, one section per check."""
    for name, law in laws.items():
        sections[name] = {"checked": law.checked, "skipped": law.skipped}
    return _report(command, sum(law.checked for law in laws.values()),
                   sum(law.skipped for law in laws.values()), violations,
                   sections=sections)


def _axiom_violations(report: LawReport) -> list[dict[str, Any]]:
    """One entry per target of each skew or Jacobi violation."""
    entries = []
    for v in report.violations:
        names = [g.name for g in v.elements]
        where = ({"left": names[0], "right": names[1]} if v.law == "skew"
                 else {"triple": names})
        entries += ({"kind": v.law, **where, "target": w.name,
                     "residual": str(p)} for w, p in v.residual)
    return entries


def _law_violation(section: str, v) -> dict[str, Any]:
    return {"kind": section, "law": v.law,
            "elements": [g.name for g in v.elements],
            "residual": {g.name: str(p) for g, p in v.residual}}


# -- commands -------------------------------------------------------------------

def cmd_verify(args) -> Result:
    alg = _load_algebra(args.spec, args.bind)
    jacobi = check_jacobi(alg)
    violations = _axiom_violations(jacobi.skew) + _axiom_violations(jacobi)
    sections: dict[str, Any] = {}
    if not alg.has_grade_zero:
        sections["spectral"] = {
            "skipped": "requires exactly one generator per grade and a "
                       "grade-0 generator"}
    elif alg.params:
        sections["spectral"] = {
            "skipped": f"free parameters remain: {sorted(alg.params)}"}
    else:
        try:
            spectral = spectral_data(alg)
            sections["spectral"] = {
                "uniform_scale": spectral.uniform_scale,
                "lines": {str(g): {"scale": str(line.scale),
                                   "weight": str(line.weight),
                                   "shift": str(line.shift)}
                          for g, line in sorted(spectral.lines.items())},
            }
            for v in degree_relation_check(alg, spectral):
                violations.append({"kind": "degree-relation",
                                   "left_grade": v.left_grade,
                                   "right_grade": v.right_grade,
                                   "relation": v.relation,
                                   "detail": v.detail})
            support = classify_support(alg)
            sections["support"] = {
                "degree0": sorted(support.degree0),
                "degree1": sorted(support.degree1),
                "degree2": sorted(support.degree2),
                "unclassified": sorted(support.unclassified),
            }
        except (NotAffineError, ZeroActionError) as exc:
            sections["spectral"] = {"error": str(exc)}
    return _law_report("verify", {"skew": jacobi.skew, "jacobi": jacobi},
                       violations, **sections)


def cmd_family(args) -> Result:
    lie = None
    if args.lie:
        lie_spec = specfile.load_path(args.lie)
        rows = _built(args.lie, lie_spec.conformal_brackets)
        names = [g.name for g in lie_spec.generators]
        constants = {(u.name, v.name): {w.name: p for w, p in row.items()}
                     for (u, v), row in rows.items()}
        build = functools.partial(families.make_current, names, constants)
        lie = functools.partial(_built, args.lie, build)
    window = _parse_window(args.window) if args.window else None
    # A signed bound: conformal.half_line alone refuses a top below -1.
    top = _parse_count(args.top, "--top", signed=True)
    if top is not None:
        _check_width(-1, top)
    try:
        alg = families.make_family(
            args.kind,
            s=_parse_fraction(args.s) if args.s is not None else None,
            b=_parse_fraction(args.b) if args.b is not None else None,
            window=window, top=top, lie=lie)
    except (ValueError, ArithmeticError) as exc:
        raise InputError(str(exc))
    return specfile.from_algebra(alg)


#: The weight and shift flags each ``solve-feq`` mode reads (``--full`` reads
#: all six, in the order the parser lists them); it refuses the others.
FEQ_MODE_ARGS = {"--full": ("ai", "bi", "aj", "bj", "aij", "bij"),
                 "--top": ("ai", "aj", "aij"),
                 "--tables": ()}


def cmd_solve_feq(args) -> Result:
    modes = [flag for flag, given in (("--full", args.full is not None),
                                      ("--top", args.top is not None),
                                      ("--tables", args.tables)) if given]
    if len(modes) != 1:
        raise InputError(f"choose one mode: --full D, --top K or --tables "
                         f"(got {' '.join(modes) or 'none'})")
    mode = modes[0]
    refused = [f"--{name}" for name in FEQ_MODE_ARGS["--full"]
               if getattr(args, name) is not None
               and name not in FEQ_MODE_ARGS[mode]]
    if refused:
        raise InputError(f"solve-feq {mode} does not read "
                         f"{', '.join(refused)}")
    if args.tables:
        cases = [{
            "label": r.case.label,
            "weights": [str(r.case.weight_left), str(r.case.weight_right),
                        str(r.case.weight_out)],
            "degree": r.case.degree,
            "expected": r.case.expected,
            "dimension": r.dimension,
            "basis": list(r.basis),
            "passed": r.passed,
        } for r in feq.reproduce_tables()]
        failures = [{"kind": "table-case", "label": c["label"]}
                    for c in cases if not c["passed"]]
        return _report("solve-feq", len(cases) - len(failures), 0, failures,
                       cases=cases)

    def need(name: str) -> Fraction:
        value = getattr(args, name)
        if value is None:
            raise InputError(f"--{name} is required for this mode")
        return _parse_fraction(value)

    top = _parse_count(args.top, "--top")
    full = _parse_count(args.full, "--full")
    values = [need(name) for name in FEQ_MODE_ARGS[mode]]
    try:
        basis = (feq.solve_feq_top(*values, top) if top is not None
                 else feq.solve_feq(feq.SpectralTriple(*values), full))
    except feq.DegreeGuardError as exc:
        raise InputError(str(exc))
    return _report("solve-feq", 1, 0, [],
                   dimension=basis.dimension,
                   basis=[str(p) for p in basis.basis],
                   echelon_hash=basis.echelon_hash())


def cmd_gd(args) -> Result:
    if args.subcommand == "from-lca":
        alg = _load_algebra(args.spec, args.bind)
        try:
            structure = gd.gd_from_quadratic(alg)
        except (gd.NotQuadraticError, gd.InconsistentStarError) as exc:
            return _report("gd from-lca", 0, 0,
                           [{"kind": "not-quadratic", "detail": str(exc)}])
        return specfile.from_gd(structure)

    if args.subcommand == "check" and args.output:
        raise InputError("gd check does not read -o")
    structure = _load_algebra(args.spec, args.bind, gd_mode=True)
    if args.subcommand == "to-lca":
        def to_lca() -> Result:
            # A broken law is a verdict.  Any other model error is a lawful
            # structure that is no conformal algebra on this basis: a
            # product target at the wrong grade, or an undecidable pair.
            try:
                return specfile.from_algebra(gd.quadratic_from_gd(structure))
            except gd.NotGDError as exc:
                return _report("gd to-lca", 0, 0,
                               [{"kind": "not-gd", "detail": str(exc)}])
        return _built(args.spec, to_lca)

    laws = {"novikov": gd.check_novikov(structure.nov),
            "lie": gd.check_lie(structure.lie),
            "compatibility": gd.check_gd(structure)}
    violations = [_law_violation(kind, v)
                  for kind, law in zip(("novikov", "lie", "gd"), laws.values())
                  for v in law.violations]
    return _law_report("gd check", laws, violations)


def cmd_ideal_check(args) -> Result:
    spec = specfile.load_path(args.spec)
    alg = _load_algebra(args.spec, args.bind, spec)
    if args.pattern:
        sub = specfile.load_pattern(args.pattern)
    else:
        sub = _built(args.spec, spec.submodule_pattern)
    bindings = _parse_bindings(args.bind)
    if bindings:  # as the algebra is; a parameter not named stays free
        sub = ideals.GradedSubmodule({grade: q.substitute(bindings)
                                      for grade, q in sub.components.items()})
    try:
        result = ideals.is_graded_ideal(alg, sub)
    except ValueError as exc:
        raise InputError(str(exc))
    violations = [{"kind": v.law, "ambient": v.elements[0].name,
                   "submodule_grade": v.elements[1].grade,
                   "target_grade": target.grade, "residual": str(residual)}
                  for v in result.violations
                  for target, residual in v.residual]
    return _report("ideal-check", result.checked, result.skipped, violations,
                   closed=result.ok)


def cmd_probe(args) -> Result:
    alg = _load_algebra(args.spec, args.bind)
    low, high = _parse_window(args.core)
    try:
        probe = ideals.simplicity_probe(alg, range(low, high + 1))
    except ValueError as exc:
        raise InputError(str(exc))
    for f in probe.findings:
        if not f.converged:
            raise InputError(f"closure of the seed at grade {f.seed_grade} "
                             "did not converge within the iteration guard")
    violations = [{"kind": "proper-ideal-evidence",
                   "seed_grade": f.seed_grade,
                   "components": {str(g): desc for g, desc in f.components}}
                  for f in probe.findings if f.proper]
    findings = [{
        "seed_grade": f.seed_grade,
        "proper": f.proper,
        "components": {str(g): desc for g, desc in f.components},
        "window_truncated": f.window_truncated,
    } for f in probe.findings]
    return _report("probe", len(probe.findings), 0, violations,
                   findings=findings, note=probe.note)


# -- argument wiring --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zlca",
        description="Exact verification for Z-graded Lie conformal algebras")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check axioms and diagnostics of a spec")
    p.add_argument("spec")
    p.add_argument("--bind", action="append", metavar="name=p/q")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("family", help="emit a family spec file")
    p.add_argument("kind", choices=families.FAMILY_ARGS)
    p.add_argument("--s", help="rational value for s (default: symbolic)")
    p.add_argument("--b", help="rational value for b (default: symbolic)")
    p.add_argument("--window", help="grade window a..b")
    p.add_argument("--top", help="top grade for CL1")
    p.add_argument("--lie", help="Lie structure-constants spec file (Cur)")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("solve-feq", help="solve the grade-action equation")
    p.add_argument("--ai", help="left weight")
    p.add_argument("--bi", help="left shift")
    p.add_argument("--aj", help="right weight")
    p.add_argument("--bj", help="right shift")
    p.add_argument("--aij", help="target weight")
    p.add_argument("--bij", help="target shift")
    p.add_argument("--full", metavar="D",
                   help="all solutions of degree <= D")
    p.add_argument("--top", metavar="K",
                   help="homogeneous degree-K top solutions")
    p.add_argument("--tables", action="store_true",
                   help="reproduce the homogeneous solution tables")
    p.set_defaults(fn=cmd_solve_feq)

    p = sub.add_parser("gd", help="Gel'fand-Dorfman structures")
    p.add_argument("subcommand", choices=["check", "to-lca", "from-lca"])
    p.add_argument("spec")
    p.add_argument("--bind", action="append", metavar="name=p/q")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_gd)

    p = sub.add_parser("ideal-check", help="graded submodule closure check")
    p.add_argument("spec")
    p.add_argument("--pattern", help="submodule pattern file")
    p.add_argument("--bind", action="append", metavar="name=p/q")
    p.set_defaults(fn=cmd_ideal_check)

    p = sub.add_parser("probe", help="simplicity probe over a core of grades")
    p.add_argument("spec")
    p.add_argument("--core", required=True, help="core grades a..b")
    p.add_argument("--bind", action="append", metavar="name=p/q")
    p.set_defaults(fn=cmd_probe)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process shares.

    Building the seven subcommands costs more than a small job; a parse
    writes only to the namespace it returns, so reuse carries no state.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and write its result: a report to stdout, exit 1 when
    it fails and 0 otherwise; a spec to ``-o`` or to stdout, exit 0."""
    args = _parser().parse_args(argv)
    try:
        result = args.fn(args)
        if isinstance(result, dict):
            _emit(result)
            return VIOLATIONS if result["status"] == "fail" else PASS
        text = result.dumps()
        if not args.output:
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.output}: {exc}")
        return PASS
    except (InputError, specfile.SpecFileError, PairBudgetError) as exc:
        _emit({"error": str(exc)}, sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        _emit({"error": f"internal error: {type(exc).__name__}: {exc}"},
              sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
