"""Every name the benchmark tracer looks up must exist in the package.

perfbench/tracing.py wraps (module, function) pairs of `cellassoc` by
name, so deleting or renaming one of them breaks the benchmark.  This test
reads the tracer's tables without installing it.
"""

import importlib
import os
import types

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def load_tracing():
    """The tracer module, executed from source so nothing is written under perfbench/."""
    module = types.ModuleType("perfbench_tracing")
    with open(TRACING, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACING, "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    for layer in tracing.LAYERS:
        importlib.import_module(f"cellassoc.{layer}")
    for mod, fn in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"cellassoc.{mod}"), fn)), (mod, fn)
        assert mod in tracing.LAYERS, mod
    pure = importlib.import_module("cellassoc._kernels._pure")
    for _name, fn in tracing.ORACLES:
        assert callable(getattr(pure, fn)), fn
