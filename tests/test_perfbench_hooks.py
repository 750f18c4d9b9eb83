"""The benchmark's hooks into zlca still resolve.

``perfbench/tracer.py`` patches module and class attributes by name, and the
workloads call a few zlca functions and table attributes directly.  A rename
or deletion in ``src/`` would break only a traced benchmark run; these tests
make it fail the suite instead.  The tracer is read as source text and run in
a fresh namespace, so nothing is written under ``perfbench/``.
"""

import importlib
import types
from pathlib import Path

import pytest

from zlca import gd, specfile

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


TRACER_MODULE = load_tracer()
MODULES = {name: importlib.import_module(f"zlca.{name}")
           for name in TRACER_MODULE.MODULES}


@pytest.mark.parametrize("module", sorted(TRACER_MODULE.SPANS))
def test_every_span_path_resolves(module):
    for _, path, also in TRACER_MODULE.SPANS[module]:
        owner, attr = TRACER_MODULE._resolve(MODULES[module], path)
        original = getattr(owner, attr)
        assert callable(original), f"{module}.{path}"
        for other in also:
            # The tracer patches an imported name only when it is the same
            # object, and skips a module that does not import it.
            assert getattr(MODULES[other], attr, original) is original, \
                f"{other}.{attr}"


def test_every_hot_method_resolves():
    poly_cls = MODULES["poly"].ParamPoly
    for methods in TRACER_MODULE.HOT.values():
        for method in methods:
            assert callable(getattr(poly_cls, method)), method


def test_the_names_the_workloads_use_resolve():
    for g in (gd.gd_a1("s", 2), gd.gd_a2(1, "s", range(-2, 3))):
        for table in (g.nov, g.lie):
            assert table.basis == g.basis and table.params <= {"s"}
            for pair in table.pairs():
                assert table.entry(*pair) is not None
        assert specfile.from_gd(g).gd_algebra() == g
