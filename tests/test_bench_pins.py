"""The library names that the benchmark harness pins, checked in Tier-1.

perfbench/spans.py wraps one function per layer, found by module and
attribute name, and perfbench/run.py imports coclass from this checkout and
reads numpy's line of `python -X importtime -c "import coclass.cli"`.  A
change that moves a span target or stops the CLI import from loading numpy
fails the benchmark's traced run; these tests fail first.  The harness
files are loaded read-only, from the perfbench/ next to this directory.
"""

import importlib.util
import sys
from pathlib import Path

from coclass import _kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_and_binds():
    spans = _load("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises when a target has no binding to wrap
        for _, targets, _, _, _ in spans.LAYERS:
            for module, attr in targets:
                assert hasattr(spans._resolve(module, attr)[2],
                               "__wrapped__"), (module, attr)
    finally:
        tracer.uninstall()
    for _, targets, _, _, _ in spans.LAYERS:
        for module, attr in targets:
            assert not hasattr(spans._resolve(module, attr)[2],
                               "__wrapped__"), (module, attr)


def test_run_imports_coclass_from_this_checkout(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_coclass adds src/
    run = _load("run")
    assert run.import_coclass() == _kernels.BACKEND


def test_run_reads_the_three_import_figures():
    figures = _load("run").import_figures()
    assert sorted(figures) == ["cli.import_ms", "cli.import_numpy_ms",
                               "python.startup_ms"]
    assert all(value > 0 for value in figures.values())
