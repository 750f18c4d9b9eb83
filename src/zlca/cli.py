"""Command-line front end: verification commands with deterministic reports.

Commands
    verify SPEC          axiom checks plus spectral diagnostics
    family KIND          emit a family spec file
    solve-feq            solve the grade-action functional equation
    gd check|to-lca|from-lca   Gel'fand-Dorfman structures
    ideal-check SPEC     graded-submodule closure check
    probe SPEC           simplicity probe (closure of every seed)

All reports are JSON on stdout with sorted keys and canonical polynomial
strings; identical inputs produce byte-identical output.  Exit codes:
0 = pass, 1 = violations found, 2 = input error (or a probe closure cut off
by its iteration guard, which would otherwise pass for a finding), 3 =
internal error (an uncaught exception, reported on stderr, never a verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import __version__, families, feq, gd, grammar, ideals, specfile
from .conformal import (ConformalAlgebra, JacobiBudgetError, NotAffineError,
                        ZeroActionError, check_jacobi, classify_support,
                        degree_relation_check, spectral_data)

PASS, VIOLATIONS, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3

#: Integer arguments (window bounds, ``--top``, ``--full``) have at most this
#: many ASCII digits, and a window holds at most MAX_WINDOW_GRADES grades, so
#: hostile sizes end in an input error instead of a crash or a long run.  A
#: spec file is held to the same number of generators.
MAX_BOUND_DIGITS = 4
MAX_WINDOW_GRADES = specfile.MAX_GENERATORS


class InputError(ValueError):
    pass


def _emit(payload: dict[str, Any], stream=None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (stream or sys.stdout).write(text)


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


def _exit_code(report: dict[str, Any]) -> int:
    return VIOLATIONS if report["status"] == "fail" else PASS


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
        bindings[name] = _parse_fraction(value)
    return bindings


_COUNT = re.compile(f"[0-9]{{1,{MAX_BOUND_DIGITS}}}")
_WINDOW = re.compile(f"(-?{_COUNT.pattern})\\.\\.(-?{_COUNT.pattern})")


def _parse_count(text: Optional[str], flag: str) -> Optional[int]:
    """An ASCII natural number of at most MAX_BOUND_DIGITS digits, or None."""
    if text is None:
        return None
    if not _COUNT.fullmatch(text):
        raise InputError(f"{flag} must be a natural number of at most "
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


def _check_bindings(bindings: dict[str, Fraction], params) -> None:
    unknown = set(bindings) - set(params)
    if unknown:
        raise InputError(f"binding for unknown parameter {sorted(unknown)[0]!r}")


def _load_algebra(path: str, bind: Optional[Sequence[str]]) -> ConformalAlgebra:
    spec = specfile.load_path(path)
    try:
        alg = spec.algebra()
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    bindings = _parse_bindings(bind)
    _check_bindings(bindings, alg.params)
    return alg.instantiate(bindings) if bindings else alg


def _skew_violation(v) -> dict[str, Any]:
    return {"kind": "skew", "left": v.left.name, "right": v.right.name,
            "target": v.target.name, "residual": str(v.residual)}


def _jacobi_violation(v) -> dict[str, Any]:
    return {"kind": "jacobi", "triple": [g.name for g in v.triple],
            "target": v.target.name, "residual": str(v.residual)}


def _law_violation(section: str, v) -> dict[str, Any]:
    return {"kind": section, "law": v.law,
            "elements": [g.name for g in v.elements],
            "residual": {g.name: str(p) for g, p in v.residual}}


# -- commands -------------------------------------------------------------------

def cmd_verify(args) -> int:
    alg = _load_algebra(args.spec, args.bind)
    try:
        jacobi = check_jacobi(alg)
    except JacobiBudgetError as exc:
        raise InputError(str(exc))
    skew = jacobi.skew
    violations = [_skew_violation(v) for v in skew.violations]
    violations += [_jacobi_violation(v) for v in jacobi.violations]
    sections: dict[str, Any] = {
        "skew": {"checked": skew.checked, "skipped": skew.skipped},
        "jacobi": {"checked": jacobi.checked, "skipped": jacobi.skipped},
    }
    if not alg.one_generator_per_grade() or 0 not in alg.window:
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
    report = _report("verify", skew.checked + jacobi.checked,
                     skew.skipped + jacobi.skipped, violations,
                     sections=sections)
    _emit(report)
    return _exit_code(report)


def _emit_spec(spec: specfile.SpecFile, out: Optional[str]) -> None:
    text = spec.dumps()
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_family(args) -> int:
    lie_names = lie_constants = None
    if args.lie:
        lie_spec = specfile.load_path(args.lie)
        lie_names = tuple(g.name for g in lie_spec.generators)
        lie_constants = {(left, right): dict(terms)
                         for left, right, terms in lie_spec.brackets}
    window = _parse_window(args.window) if args.window else None
    top = _parse_count(args.top, "--top")
    if top is not None:
        _check_width(-1, top)
    try:
        alg = families.make_family(
            args.kind,
            s=_parse_fraction(args.s) if args.s is not None else None,
            b=_parse_fraction(args.b) if args.b is not None else None,
            window=window, top=top, lie_names=lie_names,
            lie_constants=lie_constants)
    except (ValueError, ArithmeticError) as exc:
        raise InputError(str(exc))
    _emit_spec(specfile.from_algebra(alg), args.output)
    return PASS


def cmd_solve_feq(args) -> int:
    modes = [flag for flag, given in (("--full", args.full is not None),
                                      ("--top", args.top is not None),
                                      ("--tables", args.tables)) if given]
    if len(modes) != 1:
        raise InputError(f"choose one mode: --full D, --top K or --tables "
                         f"(got {' '.join(modes) or 'none'})")
    if args.tables:
        report_obj = feq.reproduce_tables()
        cases = [{
            "label": c.label,
            "weights": [str(c.weight_left), str(c.weight_right),
                        str(c.weight_out)],
            "degree": c.degree,
            "expected": c.expected,
            "dimension": c.dimension,
            "basis": list(c.basis),
            "passed": c.passed,
        } for c in report_obj.cases]
        failures = [{"kind": "table-case", "label": c["label"]}
                    for c in cases if not c["passed"]]
        report = _report("solve-feq", len(cases) - len(failures),
                         0, failures, cases=cases)
        _emit(report)
        return _exit_code(report)

    def need(name: str) -> Fraction:
        value = getattr(args, name)
        if value is None:
            raise InputError(f"--{name} is required for this mode")
        return _parse_fraction(value)

    top = _parse_count(args.top, "--top")
    full = _parse_count(args.full, "--full")
    if top is not None:
        try:
            basis = feq.solve_feq_top(need("ai"), need("aj"), need("aij"), top)
        except feq.DegreeGuardError as exc:
            raise InputError(str(exc))
    else:
        triple = feq.SpectralTriple(need("ai"), need("bi"), need("aj"),
                                    need("bj"), need("aij"), need("bij"))
        try:
            basis = feq.solve_feq(triple, full)
        except feq.DegreeGuardError as exc:
            raise InputError(str(exc))
    report = _report("solve-feq", 1, 0, [],
                     dimension=basis.dimension,
                     basis=[str(p) for p in basis.basis],
                     echelon_hash=basis.echelon_hash())
    _emit(report)
    return _exit_code(report)


def cmd_gd(args) -> int:
    if args.subcommand == "from-lca":
        alg = _load_algebra(args.spec, args.bind)
        try:
            structure = gd.gd_from_quadratic(alg)
        except (gd.NotQuadraticError, gd.InconsistentStarError) as exc:
            report = _report("gd from-lca", 0, 0,
                             [{"kind": "not-quadratic", "detail": str(exc)}])
            _emit(report)
            return _exit_code(report)
        _emit_spec(specfile.from_gd(structure), args.output)
        return PASS

    spec = specfile.load_path(args.spec)
    bindings = _parse_bindings(args.bind)
    try:
        structure = spec.gd_algebra()
    except ValueError as exc:
        raise InputError(f"{args.spec}: {exc}")
    _check_bindings(bindings, structure.nov.params | structure.lie.params)
    if bindings:
        structure = gd.GDAlgebra(structure.nov.instantiate(bindings),
                                 structure.lie.instantiate(bindings))

    if args.subcommand == "to-lca":
        try:
            alg = gd.quadratic_from_gd(structure)
        except gd.NotGDError as exc:
            report = _report("gd to-lca", 0, 0,
                             [{"kind": "not-gd", "detail": str(exc)}])
            _emit(report)
            return _exit_code(report)
        except ValueError as exc:
            # A lawful structure that is no conformal algebra on this basis:
            # a product target at the wrong grade, or an undecidable pair.
            raise InputError(f"{args.spec}: {exc}")
        _emit_spec(specfile.from_algebra(alg), args.output)
        return PASS

    novikov = gd.check_novikov(structure.nov)
    lie = gd.check_lie(structure.lie)
    compat = gd.check_gd(structure)
    violations = ([_law_violation("novikov", v) for v in novikov.violations]
                  + [_law_violation("lie", v) for v in lie.violations]
                  + [_law_violation("gd", v) for v in compat.violations])
    report = _report(
        "gd check",
        novikov.checked + lie.checked + compat.checked,
        novikov.skipped + lie.skipped + compat.skipped,
        violations,
        sections={
            "novikov": {"checked": novikov.checked, "skipped": novikov.skipped},
            "lie": {"checked": lie.checked, "skipped": lie.skipped},
            "compatibility": {"checked": compat.checked,
                              "skipped": compat.skipped},
        })
    _emit(report)
    return _exit_code(report)


def cmd_ideal_check(args) -> int:
    alg = _load_algebra(args.spec, args.bind)
    if args.pattern:
        sub = specfile.load_pattern(args.pattern)
    else:
        sub = specfile.load_path(args.spec).submodule_pattern()
    try:
        result = ideals.is_graded_ideal(alg, sub)
    except ValueError as exc:
        raise InputError(str(exc))
    violations = [{"kind": "ideal", "ambient": w.ambient.name,
                   "submodule_grade": w.submodule_grade,
                   "target_grade": w.target_grade,
                   "residual": str(w.residual)} for w in result.witnesses]
    report = _report("ideal-check", result.checked, result.skipped, violations,
                     closed=result.closed)
    _emit(report)
    return _exit_code(report)


def cmd_probe(args) -> int:
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
    report = _report("probe", len(probe.findings), 0, violations,
                     findings=findings, note=probe.note)
    _emit(report)
    return _exit_code(report)


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
    p.add_argument("kind", choices=["Vir", "Cur", "V", "CL1", "CL2", "SCL2",
                                    "SCL2Literal"])
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
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, specfile.SpecFileError) as exc:
        _emit({"error": str(exc)}, sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        _emit({"error": f"internal error: {type(exc).__name__}: {exc}"},
              sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
