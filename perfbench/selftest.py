"""Self-test of the benchmark on tiny inputs (a few seconds, not a measurement).

Run from the root of a charclass checkout:

    python3 perfbench/selftest.py

It checks that

* every metric named in BENCHMARK.json is emitted, with its unit, by a
  tiny run of every workload (end-to-end metrics untraced, per-layer
  metrics traced);
* two traced runs on one seed give identical work counts;
* traced and untraced passes return identical task outputs;
* a layer boundary that no longer exists is reported as absent, without a
  crash.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# Metrics that are times or depend on timing, not work counts.
TIMED = (".self_s", "trace.overhead_frac", "cli.import.")


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def tiny_run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0, f"{workload}: tiny run failed: {proc.stdout}")
    return result["metrics"]


def check_emitted(spec: dict) -> dict[str, dict]:
    traced_runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = tiny_run(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            check(set(metrics) == set(expected),
                  f"{workload} trace={trace}: missing {sorted(set(expected) - set(metrics))}, "
                  f"extra {sorted(set(metrics) - set(expected))}")
            for name, m in metrics.items():
                check(m["unit"] == expected[name], f"{workload}: {name} unit {m['unit']}")
                check(isinstance(m["value"], (int, float)), f"{workload}: {name} is not a number")
            if trace:
                traced_runs[workload] = metrics
        print(f"ok   {workload}: every metric emitted with its unit")
    return traced_runs


def check_counts_repeat(first: dict[str, dict]) -> None:
    for workload, metrics in first.items():
        again = tiny_run(workload, 1)
        for name, m in metrics.items():
            if not any(t in name for t in TIMED):
                check(m["value"] == again[name]["value"],
                      f"{workload}: {name} was {m['value']}, then {again[name]['value']}")
        print(f"ok   {workload}: work counts identical across two traced runs")


def check_outputs_and_absence() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import charclass.dold
    import hostspeed
    import layers
    import run
    import workloads

    host = hostspeed.HostSpeed()
    for name in workloads.NAMES:
        tasks = workloads.build(name, 7, tiny=True).tasks
        plain, traced = run.Outcome(len(tasks)), run.Outcome(len(tasks))
        caches = run.package_caches()
        run.run_pass(tasks, plain, caches, host)
        tracer = layers.Tracer()
        with layers.Instrumentation(tracer):
            run.run_pass(tasks, traced, caches, host, tracer)
        check(plain.failed == traced.failed == 0, f"{name}: {plain.errors + traced.errors}")
        check(plain.output == traced.output, f"{name}: outputs differ when traced")
        print(f"ok   {name}: traced and untraced outputs identical")

    original = charclass.dold._mul_grids
    del charclass.dold._mul_grids
    try:
        tracer = layers.Tracer()
        tasks = workloads.build("bott-verdict", 7, tiny=True).tasks
        with layers.Instrumentation(tracer) as inst:
            run.run_pass(tasks, run.Outcome(len(tasks)), [], host, tracer)
        metrics = tracer.metrics(inst.present)
    finally:
        charclass.dold._mul_grids = original
    check(inst.absent == {"dold.mul_grids"}, f"absent boundaries {inst.absent}")
    check(not any(k.startswith("dold.mul_grids.") for k in metrics), "absent layer emitted metrics")
    print("ok   a missing boundary is reported absent")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = check_emitted(spec)
    check_counts_repeat(traced)
    check_outputs_and_absence()
    print("self-test passed")


if __name__ == "__main__":
    main()
