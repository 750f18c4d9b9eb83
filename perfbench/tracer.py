"""Per-module tracing of zlca from outside its source tree.

``Tracer.install`` wraps the public functions of each module by patching
module and class attributes, including the names other zlca modules imported
(``cli.check_jacobi``, ``ideals.bracket``).  Coarse calls record a span
(name, start, end, parent, job id).  The hot ``ParamPoly`` operators record
only a call count and cumulative time, to keep the overhead bounded; their
time is the ``poly`` module's self time and is taken out of the self time of
the span that called them.  ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

#: module -> [(span name, attribute path, also patched as)].
SPANS = {
    "cli": [("main", "main", ())],
    "grammar": [("parse", "parse", ())],
    "specfile": [("loads", "loads", ()), ("algebra", "SpecFile.algebra", ()),
                 ("gd_algebra", "SpecFile.gd_algebra", ()),
                 ("dumps", "SpecFile.dumps", ())],
    "families": [("build", "make_family", ())],
    "conformal": [
        ("skew", "check_skew", ("cli",)),
        ("jacobi", "check_jacobi", ("cli",)),
        ("residual", "jacobi_residual", ()),
        ("spectral", "spectral_data", ("cli",)),
        ("degree", "degree_relation_check", ("cli",)),
        ("support", "classify_support", ("cli",)),
        ("bracket", "bracket", ("ideals",)),
    ],
    "feq": [("solve", "solve_feq", ()), ("solve_top", "solve_feq_top", ()),
            ("tables", "reproduce_tables", ()),
            ("residual", "feq_residual", ()), ("top_residual", "top_residual", ())],
    "linalg": [("nullspace", "nullspace", ()), ("rref", "rref", ())],
    "ideals": [("closure", "ideal_generated_by", ()),
               ("probe", "simplicity_probe", ()),
               ("ideal_check", "is_graded_ideal", ())],
    "gd": [("novikov", "check_novikov", ()), ("lie", "check_lie", ()),
           ("compat", "check_gd", ()), ("to_lca", "quadratic_from_gd", ()),
           ("from_lca", "gd_from_quadratic", ())],
}

#: ParamPoly operators counted as hot calls: counter name -> methods.
HOT = {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__"),
       "substitute": ("substitute",), "divide": ("exact_divide",),
       "print": ("__str__",)}

MODULES = ("poly", "grammar", "specfile", "families", "conformal", "feq",
           "linalg", "ideals", "gd", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, job, poly_s)
        self.count: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.peak: dict[str, int] = defaultdict(int)
        self.job = 0
        self._stack: list[int] = []
        self._depth = 0                # nesting of hot ParamPoly calls
        self._poly_s = 0.0             # time in outermost ParamPoly calls
        self._patched: list = []

    # -- patching -------------------------------------------------------------

    def install(self, modules: dict) -> None:
        for module, entries in SPANS.items():
            for short, path, also in entries:
                owner, attr = _resolve(modules[module], path)
                original = getattr(owner, attr)
                wrapped = self._span(f"{module}.{short}", original)
                self._patch(owner, attr, wrapped)
                for other in also:
                    if getattr(modules[other], attr, None) is original:
                        self._patch(modules[other], attr, wrapped)
        poly_cls = modules["poly"].ParamPoly
        for name, methods in HOT.items():
            for method in methods:
                self._patch(poly_cls, method,
                            self._hot(name, getattr(poly_cls, method)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name: str, fn):
        spans, stack, after = self.spans, self._stack, _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            poly0 = self._poly_s
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job,
                                self._poly_s - poly0)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def _hot(self, name: str, fn):
        count, secs = self.count, self.secs
        calls_key, secs_key = f"poly.{name}_calls", f"poly.{name}_s"
        is_mul = name == "mul"

        @functools.wraps(fn)
        def wrapper(*args):
            self._depth += 1
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                elapsed = perf_counter() - start
                self._depth -= 1
                if not self._depth:
                    self._poly_s += elapsed
                count[calls_key] += 1
                secs[secs_key] += elapsed
            if is_mul:
                other = args[1]
                count["poly.mul_term_pairs"] += len(args[0]) * (
                    len(other) if isinstance(other, type(args[0])) else 1)
                if len(result) > self.peak["poly.peak_terms"]:
                    self.peak["poly.peak_terms"] = len(result)
            return result
        return wrapper

    # -- results ----------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.count.clear()
        self.secs.clear()
        self.peak.clear()
        self._poly_s = 0.0

    def span_totals(self) -> tuple[dict, dict, dict, dict]:
        """Calls, inclusive and self seconds per span name; self per module.

        A span's self time is its duration minus its child spans and minus
        the ParamPoly time spent directly inside it.
        """
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        child_poly = [0.0] * len(self.spans)
        for name, start, end, parent, _, poly in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
                child_poly[parent] += poly
        self_s: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _, poly) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            direct_poly = poly - child_poly[index]
            self_s[name] += end - start - child_s[index] - direct_poly
        module_self = defaultdict(float)
        for name, seconds in self_s.items():
            module_self[name.split(".")[0]] += seconds
        module_self["poly"] = self._poly_s
        return calls, inclusive, self_s, module_self


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


# -- counters read off results ------------------------------------------------------

def _after_jacobi(tr, args, report):
    tr.count["conformal.triples_checked"] += report.checked
    tr.count["conformal.triples_skipped"] += report.skipped


def _after_loads(tr, args, spec):
    tr.count["specfile.rows"] += len(spec.brackets) + len(spec.products or ())


def _after_solve(tr, args, basis):
    tr.count["feq.kernel_dim"] += basis.dimension


def _after_nullspace(tr, args, kernel):
    matrix, ncols = args[0], args[1]
    tr.peak["linalg.matrix_rows"] = max(tr.peak["linalg.matrix_rows"],
                                        len(matrix))
    tr.peak["linalg.matrix_cols"] = max(tr.peak["linalg.matrix_cols"], ncols)


def _after_closure(tr, args, result):
    tr.count["ideals.closure_iterations"] += result.iterations
    tr.count["ideals.boundary_skips"] += result.boundary_skips
    tr.count["ideals.converged"] += int(result.converged)


def _after_laws(tr, args, report):
    tr.count["gd.laws_checked"] += report.checked
    tr.count["gd.laws_skipped"] += report.skipped


_AFTER = {
    "conformal.jacobi": _after_jacobi,
    "specfile.loads": _after_loads,
    "feq.solve": _after_solve,
    "feq.solve_top": _after_solve,
    "linalg.nullspace": _after_nullspace,
    "ideals.closure": _after_closure,
    "gd.novikov": _after_laws,
    "gd.lie": _after_laws,
    "gd.compat": _after_laws,
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round: name -> (value, unit)."""
    calls, inc, span_self, module_self = tr.span_totals()
    c, s, p = tr.count, tr.secs, tr.peak
    closures = calls["ideals.closure"]
    checked, skipped = c["conformal.triples_checked"], c["conformal.triples_skipped"]
    out = {
        "poly.mul_calls": (c["poly.mul_calls"], "count"),
        "poly.mul_term_pairs": (c["poly.mul_term_pairs"], "count"),
        "poly.mul_s": (s["poly.mul_s"], "s"),
        "poly.peak_terms": (p["poly.peak_terms"], "count"),
        "poly.substitute_calls": (c["poly.substitute_calls"], "count"),
        "poly.substitute_s": (s["poly.substitute_s"], "s"),
        "poly.add_calls": (c["poly.add_calls"], "count"),
        "poly.add_s": (s["poly.add_s"], "s"),
        "poly.divide_calls": (c["poly.divide_calls"], "count"),
        "poly.divide_s": (s["poly.divide_s"], "s"),
        "poly.print_calls": (c["poly.print_calls"], "count"),
        "poly.print_s": (s["poly.print_s"], "s"),
        "grammar.parse_calls": (calls["grammar.parse"], "count"),
        "grammar.parse_s": (inc["grammar.parse"], "s"),
        "specfile.load_calls": (calls["specfile.loads"]
                                + calls["specfile.algebra"], "count"),
        "specfile.load_s": (inc["specfile.loads"] + inc["specfile.algebra"], "s"),
        "specfile.rows": (c["specfile.rows"], "count"),
        "specfile.dump_s": (inc["specfile.dumps"], "s"),
        "families.build_calls": (calls["families.build"], "count"),
        "families.build_s": (inc["families.build"], "s"),
        "conformal.skew_calls": (calls["conformal.skew"], "count"),
        "conformal.skew_s": (inc["conformal.skew"], "s"),
        "conformal.jacobi_s": (inc["conformal.jacobi"], "s"),
        "conformal.residual_calls": (calls["conformal.residual"], "count"),
        "conformal.residual_s": (inc["conformal.residual"], "s"),
        "conformal.residual_self_s": (span_self["conformal.residual"], "s"),
        "conformal.residual_ms_per_triple": (
            1e3 * _ratio(inc["conformal.residual"], calls["conformal.residual"]),
            "ms"),
        "conformal.triples_checked": (checked, "count"),
        "conformal.triples_skipped": (skipped, "count"),
        "conformal.triples_decided_ratio": (_ratio(checked, checked + skipped),
                                            "ratio"),
        "conformal.diagnostics_s": (inc["conformal.spectral"]
                                    + inc["conformal.degree"]
                                    + inc["conformal.support"], "s"),
        "conformal.bracket_calls": (calls["conformal.bracket"], "count"),
        "conformal.bracket_s": (inc["conformal.bracket"], "s"),
        "feq.solve_calls": (calls["feq.solve"] + calls["feq.solve_top"], "count"),
        "feq.solve_s": (inc["feq.solve"] + inc["feq.solve_top"], "s"),
        "feq.residual_calls": (calls["feq.residual"] + calls["feq.top_residual"],
                               "count"),
        "feq.residual_s": (inc["feq.residual"] + inc["feq.top_residual"], "s"),
        "feq.kernel_dim": (c["feq.kernel_dim"], "count"),
        "linalg.nullspace_calls": (calls["linalg.nullspace"], "count"),
        "linalg.nullspace_s": (inc["linalg.nullspace"], "s"),
        "linalg.nullspace_s_max": (max(
            (end - start for name, start, end, *_ in tr.spans
             if name == "linalg.nullspace"), default=0.0), "s"),
        "linalg.rref_s": (inc["linalg.rref"], "s"),
        "linalg.matrix_rows": (p["linalg.matrix_rows"], "count"),
        "linalg.matrix_cols": (p["linalg.matrix_cols"], "count"),
        "ideals.closure_calls": (closures, "count"),
        "ideals.closure_s": (inc["ideals.closure"], "s"),
        "ideals.closure_iterations": (c["ideals.closure_iterations"], "count"),
        "ideals.iteration_ms": (1e3 * _ratio(inc["ideals.closure"],
                                             c["ideals.closure_iterations"]),
                                "ms"),
        "ideals.boundary_skips": (c["ideals.boundary_skips"], "count"),
        "ideals.converged_ratio": (_ratio(c["ideals.converged"], closures),
                                   "ratio"),
        "ideals.brackets_per_iteration": (
            _ratio(calls["conformal.bracket"], c["ideals.closure_iterations"]),
            "count"),
        "ideals.probe_s": (inc["ideals.probe"], "s"),
        "ideals.ideal_check_s": (inc["ideals.ideal_check"], "s"),
        "gd.novikov_s": (inc["gd.novikov"], "s"),
        "gd.lie_s": (inc["gd.lie"], "s"),
        "gd.compat_s": (inc["gd.compat"], "s"),
        "gd.laws_checked": (c["gd.laws_checked"], "count"),
        "gd.laws_skipped": (c["gd.laws_skipped"], "count"),
        "gd.to_lca_s": (inc["gd.to_lca"], "s"),
        "gd.from_lca_s": (inc["gd.from_lca"], "s"),
        "cli.report_bytes": (c["cli.report_bytes"], "bytes"),
        "trace.spans": (len(tr.spans), "count"),
        "trace.job_s": (inc["cli.main"], "s"),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = (module_self[module], "s")
    return out


def work_counts(metrics: dict) -> dict:
    """The metrics that count work: these must repeat exactly."""
    return {name: value for name, (value, unit, *_) in metrics.items()
            if unit in ("count", "bytes")}
