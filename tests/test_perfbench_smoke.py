"""One pass of every benchmark workload, checked by the workload's own checks.

perfbench/workloads.py drives the CLI and the soundness sweep as the
benchmark does, and checks each result against pinned values and the
re-verification of its witnesses, decoding orders and certificates.  A
change that breaks what the benchmark calls or reads fails here, not only
in a benchmark run.  The benchmark modules are executed from source, so
nothing is written under perfbench/.
"""

import argparse
import importlib
import os
import sys
import types
from types import SimpleNamespace
from unittest import mock

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def load_source(name, monkeypatch):
    """perfbench/<name>.py as a module; it is registered while it runs for its dataclasses."""
    path = os.path.join(PERFBENCH, f"{name}.py")
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = path
    monkeypatch.setitem(sys.modules, module.__name__, module)
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def load_program(monkeypatch):
    """The workloads module and the program namespace the benchmark hands it."""
    tracing = load_source("tracing", monkeypatch)
    workloads = load_source("workloads", monkeypatch)
    program = SimpleNamespace(
        pkg=importlib.import_module("cellassoc"),
        **{
            tracing.metric_prefix(layer): importlib.import_module(f"cellassoc.{layer}")
            for layer in tracing.LAYERS
        },
    )
    return workloads, program


def test_one_pass_of_every_workload_checks_clean(tmp_path, monkeypatch):
    workloads, program = load_program(monkeypatch)
    assert set(workloads.WORKLOADS) == {"scheme", "eval", "search"}
    for name, make_calls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for call in make_calls(program, str(workdir), 1, workloads.load_pinned()):
            outcome = call.check(call.run())
            assert not outcome.problems, (name, call.label, outcome.problems)


def test_every_benchmark_argv_is_read_without_argparse(tmp_path, monkeypatch):
    # cli.main reads plain argv from the parser's actions; argparse's own
    # interpreter costs about 0.1 ms a call.  Every call and warm-up the
    # benchmark makes must still run, and check clean, with it broken.
    workloads, program = load_program(monkeypatch)
    refuse = mock.Mock(side_effect=AssertionError("argparse parsed a benchmark argv"))
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for name, make_calls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workloads.warm_up(name, program, str(workdir))
        for call in make_calls(program, str(workdir), 1, workloads.load_pinned()):
            outcome = call.check(call.run())
            assert not outcome.problems, (name, call.label, outcome.problems)
    assert not refuse.called
