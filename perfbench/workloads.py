"""The four seeded workloads: job mix, spec files and known verdicts.

A workload is a fixed list of job shapes (command, family, window size).  The
seed draws every parameter a shape leaves open (b, s, spectral triples,
window offsets, the mutated table entry and its monomial) and the order of the
round.  The run repeats the round in a closed loop with one client, so every
job recurs several times per run.

zlca sees only argv and the spec files written during set-up.  Each job
carries its expected exit code and a known-answer check from ``oracle``.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

F = Fraction

#: b with 2b an integer and |4b| <= 4, so SCL2 fits windows from -4..4 up.
B_HALF = (F(1, 2), F(-1, 2), F(1), F(-1))
#: b with 2b not an integer: CL2(b, s) has no SCL2 ideal.
B_OTHER = (F(1, 3), F(2, 3), F(-1, 3), F(1, 4), F(-3, 4), F(2, 5))
S_VALUES = (F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(1, 3), F(-2, 3), F(3, 2))
SMALL = (F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2),
         F(5, 2), F(3))
#: weight_out = 0 triples (wl, sl, wr, sr, wo, so) with nonzero kernels.
ZERO_OUT = ((3, 0, 1, 0, 0, 0), (1, 0, 3, 0, 0, 0), (3, 1, 1, -1, 0, 0),
            (1, 1, 2, 1, 0, 2), (2, 1, 1, 1, 0, 2), (2, 0, 0, 1, 0, 1),
            (2, -1, 0, 3, 0, 2), (3, 2, 0, -2, 0, 0))

@dataclass(frozen=True)
class Job:
    key: str                            # names the job; contains no path
    argv: tuple[str, ...]
    exit_code: int                      # the known verdict
    check: Callable[[str], list[str]]   # known-answer check of the report


@dataclass
class Round:
    jobs: list[Job]
    files: dict[str, Callable]          # file name -> writer(path, zlca)
    warmup: Job


def call(main, argv) -> tuple[int, str, str]:
    """One CLI job: exit code, stdout and stderr.  Never raises."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a verdict
            err.write(f"{type(exc).__name__}: {exc}")
            code = -1
    return code, out.getvalue(), err.getvalue()


# -- spec file writers -------------------------------------------------------------

def _family_writer(argv, path, zlca):
    code, _, err = call(zlca.cli.main, ["family", *argv, "-o", path])
    if code or err:
        raise RuntimeError(f"zlca family {' '.join(argv)} failed: {err}")


def _gd_writer(kind, grades, b, s, path, zlca):
    g = (zlca.gd.gd_a1(s, max(grades)) if kind == "A1"
         else zlca.gd.gd_a2(b, s, grades))
    Path(path).write_text(zlca.specfile.from_gd(g).dumps(), encoding="utf-8")


def _mutant_writer(base, pair, delta, path, zlca):
    """The family spec with one monomial added to the (left, right) entry."""
    spec = json.loads((Path(path).parent / base).read_text(encoding="utf-8"))
    row = next(r for r in spec["brackets"]
               if (r["left"], r["right"]) == pair)
    term = row["terms"][0]
    term["poly"] = f"{term['poly']} + ({delta})"
    Path(path).write_text(json.dumps(spec, indent=2, sort_keys=True),
                          encoding="utf-8")


def _pattern_writer(pattern, path, zlca):
    Path(path).write_text(json.dumps(pattern, sort_keys=True), encoding="utf-8")


def _fname(*parts) -> str:
    text = "_".join(str(p) for p in parts)
    return text.replace("/", "q").replace("-", "m") + ".json"


class _RoundMaker:
    """Collects jobs and the files they name, for one seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.jobs: list[Job] = []
        self.files: dict[str, Callable] = {}

    def pick(self, options):
        return options[self.rng.randrange(len(options))]

    def file(self, name: str, writer) -> str:
        self.files.setdefault(name, writer)
        return str(self.workdir / name)

    def family(self, kind: str, low: int, high: int, b=None, s=None) -> str:
        argv = [kind, f"--window={low}..{high}"] if kind != "CL1" \
            else [kind, f"--top={high}"]
        if b is not None:
            argv.append(f"--b={b}")
        if s is not None:
            argv.append(f"--s={s}")
        return self.file(_fname(kind, low, high, b, s),
                         partial(_family_writer, argv))

    def job(self, key, argv, exit_code, check) -> None:
        self.jobs.append(Job(key, tuple(argv), exit_code, check))

    def done(self) -> Round:
        warmup = self.jobs[0]
        self.rng.shuffle(self.jobs)
        return Round(self.jobs, self.files, warmup)


def _window(kind: str, size: int) -> tuple[int, int]:
    return (-1, size) if kind == "CL1" else (-size, size)


def _name(kind: str, grade: int, b) -> str:
    return "M" if kind == "SCL2" and grade == -2 * b else f"L{grade}"


# -- verify-window -------------------------------------------------------------------

def verify_window(seed: int, workdir: Path) -> Round:
    """Axiom checks of the families: symbolic, bound, mutated and emitted.

    b is drawn from a class of values that cost the same (CL2), or fixed per
    shape where the grading depends on it (SCL2), so that the seed moves the
    inputs without moving the amount of work.
    """
    w = _RoundMaker("verify-window", seed, workdir)
    half, whole = B_HALF[:2], B_HALF[2:]
    symbolic = [("CL1", 7, None), ("V", 4, None), ("CL2", 4, half),
                ("SCL2", 4, (F(1, 2),)), ("CL1", 10, None), ("V", 5, None),
                ("CL2", 5, whole), ("SCL2", 5, (F(-1, 2),))]
    for kind, size, bs in symbolic:
        low, high = _window(kind, size)
        b = w.pick(bs) if bs else None
        spec = w.family(kind, low, high, b)
        w.job(f"verify {kind} b={b} {low}..{high}", ["verify", spec], 0,
              partial(oracle.verify_passes, family=kind,
                      grades=range(low, high + 1)))
    bound = [("V", 3, None), ("CL1", 5, None), ("CL2", 3, half),
             ("SCL2", 4, (F(1),)), ("CL2", 5, half)]
    for kind, size, bs in bound:
        low, high = _window(kind, size)
        b = w.pick(bs) if bs else None
        s = w.pick(S_VALUES)
        spec = w.family(kind, low, high, b)
        w.job(f"verify {kind} b={b} {low}..{high} bind s={s}",
              ["verify", spec, "--bind", f"s={s}"], 0,
              partial(oracle.verify_passes, family=kind,
                      grades=range(low, high + 1), b=b, s=s))
    for kind, size in [("V", 2), ("CL1", 3), ("CL2", 2), ("SCL2", 2)]:
        low, high = _window(kind, size)
        b = {"CL2": w.pick(half), "SCL2": F(-1, 2)}.get(kind)
        base = w.family(kind, low, high, b)
        i = w.rng.randint(low, high)
        j = w.pick([g for g in range(low, high + 1) if low <= i + g <= high])
        pair = (_name(kind, i, b), _name(kind, j, b))
        exp_d = w.rng.randrange(3)
        exp_x = w.rng.randrange(3 - exp_d)
        coef = F(w.pick((1, -1, 2, -2, 3)), w.pick((1, 2)))
        delta = f"{coef}*d^{exp_d}*x^{exp_x}"
        spec = w.file(_fname("mutant", kind, b, *pair, delta.replace("*", "")
                             .replace("^", "")),
                      partial(_mutant_writer, Path(base).name, pair, delta))
        w.job(f"verify mutant {kind} b={b} {low}..{high} {pair} += {delta}",
              ["verify", spec], 1,
              partial(oracle.verify_mutant_fails, pair=pair))
    for kind in ("CL2", "SCL2"):
        b = w.pick(B_HALF)
        s = w.pick(S_VALUES) if kind == "CL2" else "s"
        argv = ["family", kind, f"--b={b}", "--window=-5..5"]
        if kind == "CL2":
            argv.append(f"--s={s}")
        w.job(f"family {kind} b={b} s={s} -5..5", argv, 0,
              partial(oracle.family_spec, kind=kind, grades=range(-5, 6),
                      b=b, s=s))
    return w.done()


# -- feq-solve -------------------------------------------------------------------------

def _family_triple(w: _RoundMaker) -> tuple[F, ...]:
    """The spectral triple of a family pair (i, j): its bracket solves it."""
    kind = w.pick(("V", "CL1", "CL2"))
    s = w.pick(S_VALUES)
    lo = -1 if kind == "CL1" else -3
    i, j = w.rng.randint(lo, 3), w.rng.randint(lo, 3)
    if kind == "V":
        line = lambda g: (F(2), -s * g)                          # noqa: E731
    elif kind == "CL1":
        line = lambda g: (F(g + 2), s * g)                       # noqa: E731
    else:
        b = w.pick(B_HALF + B_OTHER)
        line = lambda g: ((g + 2 * b) / b, -s * g / b)           # noqa: E731
    return (*line(i), *line(j), *line(i + j))


def feq_solve(seed: int, workdir: Path) -> Round:
    """Functional-equation solves: full, homogeneous top, and the tables."""
    w = _RoundMaker("feq-solve", seed, workdir)
    shapes = [(8, "generic"), (9, "family"), (10, "zero"), (11, "generic"),
              (12, "zero"), (12, "family"), (12, "zero"), (12, "family")]
    for degree, kind in shapes:
        if kind == "zero":
            triple = tuple(F(v) for v in w.pick(ZERO_OUT))
        elif kind == "family":
            triple = _family_triple(w)
        else:
            triple = tuple(w.pick(SMALL) for _ in range(6))
        flags = [f"--{name}={value}" for name, value in
                 zip(("ai", "bi", "aj", "bj", "aij", "bij"), triple)]
        w.job(f"solve-feq {kind} {','.join(map(str, triple))} full {degree}",
              ["solve-feq", *flags, f"--full={degree}"], 0,
              partial(oracle.feq_solution, weights=triple, degree=degree,
                      top=False))
    for degree in range(2, 7):
        for kind in ("table", "generic"):
            wl, wr = w.pick(SMALL), w.pick(SMALL)
            wo = wl + wr - degree - 1 if kind == "table" else w.pick(SMALL)
            w.job(f"solve-feq top {wl},{wr},{wo} degree {degree}",
                  ["solve-feq", f"--ai={wl}", f"--aj={wr}", f"--aij={wo}",
                   f"--top={degree}"], 0,
                  partial(oracle.feq_solution, weights=(wl, wr, wo),
                          degree=degree, top=True))
    for _ in range(6):
        w.job("solve-feq tables", ["solve-feq", "--tables"], 0,
              oracle.feq_tables)
    return w.done()


# -- closure-probe ------------------------------------------------------------------------

def closure_probe(seed: int, workdir: Path) -> Round:
    """Simplicity probes and graded-ideal checks on instantiated families."""
    w = _RoundMaker("closure-probe", seed, workdir)

    def probe(kind, size, core, b, s, bind=False):
        low, high = -size, size
        spec = (w.family(kind, low, high) if bind
                else w.family(kind, low, high, b, s))
        argv = ["probe", spec, f"--core={-core}..{core}"]
        if bind:
            argv += ["--bind", f"b={b}", "--bind", f"s={s}"]
        grades = range(-core, core + 1)
        ideal = -2 * b if kind == "CL2" and (2 * b).denominator == 1 \
            and -2 * b in grades else None
        w.job(f"probe {kind} b={b} s={s} {low}..{high} core {core}"
              f"{' bind' if bind else ''}", argv, 0 if ideal is None else 1,
              partial(oracle.probe_evidence, core=grades, ideal_grade=ideal,
                      s=s))

    probe("CL2", 5, 2, w.pick(B_HALF), w.pick(S_VALUES))
    probe("CL2", 5, 2, w.pick(B_HALF), w.pick(S_VALUES), bind=True)
    probe("CL2", 4, 1, w.pick(B_HALF[:2]), w.pick(S_VALUES))
    probe("CL2", 5, 2, w.pick(B_OTHER), w.pick(S_VALUES))
    probe("V", 5, 2, None, w.pick(S_VALUES))
    probe("SCL2", 5, 2, w.pick(B_HALF), w.pick(S_VALUES))

    # b, s and the moved constant come from classes that cost the same.
    for _ in range(5):
        b = w.pick(B_HALF[:2])
        s = w.pick((F(1, 2), F(-1, 2), F(3, 2), F(-3, 2)))
        spec = w.family("CL2", -5, 5, b, s)
        for closed in (True, False):
            shift = 2 * s if closed else 2 * s + w.pick((1, -1))
            pattern = {str(g): (f"d + ({shift})" if g == -2 * b else "full")
                       for g in range(-5, 6)}
            path = w.file(_fname("pattern", b, s, shift),
                          partial(_pattern_writer, pattern))
            w.job(f"ideal-check CL2 b={b} s={s} -5..5 component d + {shift}",
                  ["ideal-check", spec, "--pattern", path],
                  0 if closed else 1,
                  partial(oracle.ideal_check, closed=closed))
    return w.done()


# -- gd-roundtrip ---------------------------------------------------------------------------

def gd_roundtrip(seed: int, workdir: Path) -> Round:
    """Gel'fand-Dorfman law checks and both directions of the correspondence."""
    w = _RoundMaker("gd-roundtrip", seed, workdir)
    a2 = range(-3, 4)

    def gd_file(kind, grades, b="b"):
        return w.file(_fname(kind, grades[0], grades[-1], b),
                      partial(_gd_writer, kind, grades, b, "s"))

    def check(kind, grades, binds=()):
        argv = ["gd", "check", gd_file(kind, grades)]
        for name, value in binds:
            argv += ["--bind", f"{name}={value}"]
        bound = " ".join(f"{name}={value}" for name, value in binds)
        w.job(f"gd check {kind} {grades[0]}..{grades[-1]} {bound}", argv, 0,
              oracle.gd_check_passes)

    def to_lca(kind, grades, b="b", s=None):
        argv = ["gd", "to-lca", gd_file(kind, grades, b)]
        if s is not None:
            argv += ["--bind", f"s={s}"]
        # [a_x b] = d (b o a) + [b, a] + x (a o b + b o a): A1 -> CL1(s),
        # A2(b) -> CL2(b, -s).
        family = "CL1" if kind == "A1" else "CL2"
        s_value = "s" if s is None else s
        if kind == "A2":
            s_value = "-s" if s is None else -s
        w.job(f"gd to-lca {kind} b={b} {grades[0]}..{grades[-1]} s={s}",
              argv, 0,
              partial(oracle.family_spec, kind=family, grades=grades,
                      b=None if kind == "A1" else b, s=s_value))

    def from_lca(kind, low, high, b=None, s=None):
        spec = w.family(kind, low, high, b, s)
        s_value = "s" if s is None else s
        # CL1(s) -> A1 with s(i - j); CL2(b, s) -> A2(b) with -s(i - j).
        if kind == "CL2":
            s_value = "-s" if s is None else -s
        w.job(f"gd from-lca {kind} b={b} s={s} {low}..{high}",
              ["gd", "from-lca", spec], 0,
              partial(oracle.gd_spec, kind="A1" if kind == "CL1" else "A2",
                      grades=range(low, high + 1),
                      b="b" if b is None else b, s=s_value))

    b_values = B_HALF + B_OTHER
    for _ in range(2):
        from_lca("CL2", -5, 5, w.pick(b_values), w.pick(S_VALUES))
        check("A2", a2, (("b", w.pick(b_values)), ("s", w.pick(S_VALUES))))
        to_lca("A2", a2, b=w.pick(b_values))
    from_lca("CL2", -4, 4)
    from_lca("CL1", -1, 8, s=w.pick(S_VALUES))
    check("A1", range(-1, 7))
    to_lca("A1", range(-1, 7))
    check("A2", a2)
    to_lca("A2", a2)
    to_lca("A2", a2, s=w.pick(S_VALUES))
    check("A1", range(-1, 9), (("s", w.pick(S_VALUES)),))
    to_lca("A1", range(-1, 9), s=w.pick(S_VALUES))
    return w.done()


ROUND_MAKERS = {
    "verify-window": verify_window,
    "feq-solve": feq_solve,
    "closure-probe": closure_probe,
    "gd-roundtrip": gd_roundtrip,
}
