"""The package surface that the benchmark harness in ``perfbench/`` relies on.

The harness calls public charclass functions by name and wraps layer
boundaries from outside; a renamed function or boundary crashes a run or
drops metrics.  These tests read ``perfbench/`` and change nothing there.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import charclass
from charclass.qring import verify_key

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str) -> types.ModuleType:
    """Execute perfbench/<name>.py as a module, leaving no bytecode behind."""
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look the module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


layers = _load("layers")
workloads = _load("workloads")


@pytest.mark.parametrize("boundary", layers.BOUNDARIES, ids=lambda b: b.attr)
def test_every_boundary_resolves(boundary):
    assert boundary.module.startswith("charclass.")
    assert layers._resolve(boundary) is not None, (
        f"{boundary.module}.{boundary.attr} is gone; the traced run would "
        f"drop {boundary.name}"
    )


def test_benchmark_declares_only_emitted_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = layers.layer_metrics()
    for metric in declared["per_layer"]:
        assert metric["name"] in emitted, metric["name"]
        assert emitted[metric["name"]][0] == metric["unit"], metric["name"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_tasks_pass_their_checks(name):
    workload = workloads.build(name, 7, tiny=True)
    assert workload.tasks
    for task in workload.tasks:
        assert task.check(task.call()), task.label


# Read from `python -X importtime` or timed around the traced pass, not by
# a count function of a wrapped boundary.
_UNTRACED = ("cli.import.", "trace.overhead_frac")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_tiny_pass_emits_every_per_layer_metric(name):
    # a count function that breaks on a changed return type fails here, in
    # the traced call, before a benchmark run would
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tasks = workloads.build(name, 7, tiny=True).tasks
    tracer = layers.Tracer()
    with layers.Instrumentation(tracer) as inst:
        outputs = [task.call() for task in tasks]
    for task, output in zip(tasks, outputs, strict=True):
        assert task.check(output), task.label
    metrics = tracer.metrics(inst.present)
    missing = [
        m["name"] for m in declared
        if not m["name"].startswith(_UNTRACED) and m["name"] not in metrics
    ]
    assert missing == []


def test_verify_key_accepts_the_workers_keyword():
    assert verify_key(2, workers=1) == verify_key(2)
    assert charclass.verify_key is verify_key
