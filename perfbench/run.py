"""Benchmark for charclass: one workload per run, closed loop, single client.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload bott-verdict --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process issues one task after another; a task is one public charclass
call plus a check of its output outside the timed region.  The run repeats
the workload's task batch (ordered by ``--seed``) in passes until
``--seconds`` have gone by.  Every timed call is divided by the host's
slowdown around it (hostspeed.py), and each task's cost is the median of
those normalized times over the passes.  The run is pinned to one core.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced passes; the traced passes give
the per-layer metrics (spans and work counts, see layers.py) and the pair
gives the tracing overhead.  Spans of the last traced pass are written to
``.perfbench/`` when the run ends.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it are a readable
report and the run record.  Exit code 2 means the checkout holds no
``src/charclass`` package to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# BLAS/OpenMP pools are pinned to one thread before NumPy is imported, here
# and in every interpreter the run spawns.  That is why numpy, charclass and
# the sibling modules (layers, workloads) are imported inside functions,
# after main() has set the environment and put src/ on the path.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "CHARCLASS_THREADS": "1",
}

MIN_PASSES = 3  # untraced passes in an untraced run, even past --seconds
SETUP_SPAWNS = 3  # interpreter starts after each of the first MIN_PASSES passes
IMPORT_SPAWNS = 7  # `-X importtime` starts in a traced run

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SetupTimer:
    """Times fresh interpreters from start to ``import charclass.cli`` done.

    The runner spawns a few after each of the first passes, so the samples
    spread over the run.  One unmeasured start first writes the bytecode
    cache, as an installed package would have it.  The host's speed is read
    just before and just after each start.
    """

    def __init__(self, host) -> None:
        self.spans: list[tuple[float, float]] = []
        self._host = host
        self._cmd = [sys.executable, "-c", "import charclass.cli"]
        self._env = _child_env()
        subprocess.run(self._cmd, cwd=ROOT, env=self._env, check=True)

    def spawn(self, count: int) -> None:
        for _ in range(count):
            self._host.read()
            start = time.perf_counter()
            subprocess.run(self._cmd, cwd=ROOT, env=self._env, check=True)
            self.spans.append((start, time.perf_counter()))
            self._host.read()

    def raw(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def normalized(self) -> float:
        """Median start time at reference host speed."""
        return statistics.median(
            (end - start) / self._host.around(start, end) for start, end in self.spans
        )


def measure_imports() -> dict[str, float]:
    """Import cost of numpy, click and charclass's own modules, in microseconds.

    Read from ``python -X importtime``: numpy and click as their cumulative
    time, charclass as the summed self time of its modules; medians over the
    spawns.
    """
    import layers

    cmd = [sys.executable, "-X", "importtime", "-c", "import charclass.cli"]
    env = _child_env()
    samples: dict[str, list[int]] = {module: [] for module in layers.IMPORTS}
    line_re = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)$")
    for _ in range(IMPORT_SPAWNS):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        own = 0
        cumulative: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            match = line_re.match(line)
            if not match:
                continue
            self_us, cum_us, _, module = match.groups()
            cumulative.setdefault(module, int(cum_us))
            if module == "charclass" or module.startswith("charclass."):
                own += int(self_us)
        for module in samples:
            samples[module].append(own if module == "charclass" else cumulative.get(module, 0))
    return {f"cli.import.{m}_us": statistics.median(v) for m, v in samples.items()}


def run_record(args, workload) -> dict:
    import numpy

    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without git metadata; the source digest identifies it
    source = hashlib.sha256()
    for path in sorted((SRC / "charclass").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": workload.digest,
        "tasks": len(workload.tasks),
        "git_commit": commit,
        "source_digest": source.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


class Outcome:
    """Timed spans, output digests and failures of every task over the passes."""

    def __init__(self, n_tasks: int) -> None:
        self.spans: list[list[tuple[float, float]]] = [[] for _ in range(n_tasks)]
        self.output: list[str | None] = [None] * n_tasks
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, i: int, task, start: float, end: float, out,
               error: str | None) -> None:
        """Log one task run.  The first run of a task checks its output in
        full; later runs must return the same output, since every task is
        deterministic."""
        self.attempted += 1
        self.spans[i].append((start, end))
        if error is None:
            digest = hashlib.sha256(task.render(out).encode()).hexdigest()
            if self.output[i] is None:
                if task.check(out):
                    self.output[i] = digest
                else:
                    error = f"{task.label}: output check failed"
            elif digest != self.output[i]:
                error = f"{task.label}: output differs between passes"
        if error is not None:
            self.failed += 1
            self.errors.append(error)

    @property
    def latency(self) -> list[list[float]]:
        return [[end - start for start, end in spans] for spans in self.spans]

    def costs(self, host) -> list[float]:
        """Each task's cost: the median over passes of its latency divided by
        the host's slowdown around it (hostspeed.py)."""
        return [
            statistics.median((end - start) / host.around(start, end) for start, end in spans)
            for spans in self.spans
        ]

    def fastest(self) -> list[float]:
        """Each task's fastest latency as measured, not normalized."""
        return [min(v) for v in self.latency]


def package_caches() -> list:
    """The functools caches of charclass's modules (``dold._degree_grid``, ...).

    Collected before any wrapper is installed, since a wrapper hides
    ``cache_clear``.
    """
    caches = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "charclass" or name.startswith("charclass.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    return list(caches.values())


def run_pass(tasks, outcome: Outcome, caches: list, host, tracer=None,
             deadline: float | None = None) -> float:
    """Run every task once and record it; return the pass's summed task latency.

    With a ``deadline``, the pass stops before the first task whose last
    latency would carry it past the deadline.

    Before each task the package's caches are emptied, so every task in every
    pass pays the cold cost a command-line call pays, and the garbage
    collector runs, so no task pays for the garbage of the one before.  The
    host's slowdown is read just before and just after the timed call.
    Outputs are checked, with tracing paused, and dropped before the next
    task, as a command-line run would.
    """
    total = 0.0
    for i, task in enumerate(tasks):
        if deadline is not None:
            start, end = outcome.spans[i][-1]
            if time.perf_counter() + end - start > deadline:
                break
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        host.read()
        if tracer is not None:
            tracer.task = i
            tracer.enter("task")
        start = time.perf_counter()
        try:
            out = task.call()
            error = None
        except Exception as exc:  # a raising or refused task is a failure, not a crash
            out, error = None, f"{task.label}: {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.exit()
            tracer.paused = True
        host.read()
        outcome.record(i, task, start, end, out, error)
        if tracer is not None:
            tracer.paused = False
        total += end - start
    return total


def latency_metrics(outcome: Outcome, host) -> tuple[dict[str, float], str]:
    """wall_s, task_p50_ms and task_tail_ms from per-task costs.

    The tail is the highest percentile with at least ten tasks beyond it:
    the (N-10)-th smallest of N task latencies.
    """
    latencies = sorted(outcome.costs(host))
    n = len(latencies)
    tail_rank = n - 10 if n > 10 else n  # tiny runs: the slowest task
    label = f"p{100 * tail_rank / n:.1f} of {n} tasks"
    return {
        "wall_s": sum(latencies),
        "task_p50_ms": 1e3 * statistics.median(latencies),
        "task_tail_ms": 1e3 * latencies[tail_rank - 1],
    }, label


def measure(workload, seconds: float, trace: bool, started: float, host,
            setup: SetupTimer | None = None):
    """Passes until ``seconds`` have gone by since ``started``.

    The clock counts everything the run does: building the inputs, tasks,
    output checks and set-up starts.  Traced runs alternate plain and traced
    passes.  After the minimum (MIN_PASSES untraced passes; one of each kind
    when traced), a pass starts only if it would end within ``seconds``,
    judged by how long the last pass of its kind took.  An untraced run then
    fills the time left with the tasks of a partial pass.
    """
    import layers

    tasks = workload.tasks
    caches = package_caches()
    plain, traced = Outcome(len(tasks)), Outcome(len(tasks))
    passes: list[dict[str, float]] = []
    walls = {False: [], True: []}
    lengths = {}  # last pass of each kind, with its checks and set-up starts
    tracer = None
    absent: set[str] = set()
    while True:
        use_trace = trace and len(walls[False]) > len(walls[True])
        done = walls[True] if trace else len(walls[False]) >= MIN_PASSES
        now = time.perf_counter()
        if done and now - started + lengths[use_trace] > seconds:
            if not trace:
                run_pass(tasks, plain, caches, host, deadline=started + seconds)
            break
        if use_trace:
            tracer = layers.Tracer()
            with layers.Instrumentation(tracer) as inst:
                walls[True].append(run_pass(tasks, traced, caches, host, tracer))
            absent = inst.absent
            passes.append(tracer.metrics(inst.present))
        else:
            walls[False].append(run_pass(tasks, plain, caches, host))
            if setup is not None and len(walls[False]) <= MIN_PASSES:
                setup.spawn(SETUP_SPAWNS)
        lengths[use_trace] = time.perf_counter() - now
    return plain, traced, passes, walls, tracer, absent


def layer_values(passes: list[dict[str, float]], traced_walls: list[float],
                 plain: Outcome, traced: Outcome, host):
    """Per-layer metrics of the fastest traced pass, its length, and whether
    the work counts repeat across traced passes."""
    fastest = min(range(len(passes)), key=traced_walls.__getitem__)
    values = dict(passes[fastest])
    steady = all(
        p[k] == values[k] for p in passes for k in p if not k.endswith("self_s")
    )
    values["trace.overhead_frac"] = sum(traced.costs(host)) / sum(plain.costs(host)) - 1
    return values, steady, traced_walls[fastest]


def write_spans(tracer, workload, seed: int) -> Path:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with path.open("w") as f:
        for name, begin, end, parent, task in tracer.spans:
            f.write(json.dumps({
                "name": name, "start": begin - origin, "end": end - origin,
                "parent": parent, "task": task,
            }) + "\n")
    return path


def write_samples(plain: Outcome, setup: SetupTimer, host, workload, seed: int) -> Path:
    """Every untraced task span, set-up start and host-speed reading, for a
    look at how steady a run was."""
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"samples-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "tasks": [t.label for t in workload.tasks],
        "task_spans": plain.spans,
        "setup_spans": setup.spans,
        "reading_times": host.times,
        "reading_values": host.values,
    }))
    return path


def run_one(args, started: float) -> dict:
    import hostspeed
    import layers
    import workloads

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    print("record " + json.dumps(run_record(args, workload), sort_keys=True))
    # Imports and inputs stay alive for the whole run; keep the collector
    # from rescanning them in every task.
    gc.freeze()
    host = hostspeed.HostSpeed()
    setup = None if args.trace else SetupTimer(host)
    plain, traced, passes, walls, tracer, absent = measure(
        workload, args.seconds, args.trace, started, host, setup
    )
    failed = plain.failed + traced.failed
    attempted = plain.attempted + traced.attempted
    errors = plain.errors + traced.errors
    if args.trace:
        values, steady, traced_wall = layer_values(passes, walls[True], plain, traced, host)
        if plain.output != traced.output:
            failed += 1
            errors.append("traced and untraced passes returned different outputs")
        values.update(measure_imports())
        units = layers.layer_metrics()
        metrics = {k: {"value": v, "unit": units[k][0]} for k, v in values.items()}
        print(f"passes: {len(walls[False])} untraced, {len(walls[True])} traced; "
              f"counts repeat across traced passes: {steady}")
        print(f"absent boundaries: {sorted(absent) or 'none'}")
        print(f"spans: {len(tracer.spans)} in the last traced pass, "
              f"written to {write_spans(tracer, workload, args.seed).relative_to(ROOT)}")
        print("self-time share of the fastest traced pass:")
        shares = layers.self_time_shares(values, traced_wall)
        shares.append(("(task code outside these layers)", 1 - sum(v for _, v in shares)))
        for name, share in shares:
            print(f"  {name:32s} {100 * share:6.2f} %")
    else:
        values, tail_label = latency_metrics(plain, host)
        values["setup_s"] = setup.normalized()
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        extra = sum(map(len, plain.latency)) - len(walls[False]) * len(workload.tasks)
        print(f"passes: {len(walls[False])} and {extra} tasks of a partial one; "
              f"tasks per pass: {len(workload.tasks)}; "
              f"host slowdown min {min(host.values):.3f} median {statistics.median(host.values):.3f}")
        print(f"as measured: sum of fastest latencies {sum(plain.fastest()):.4f} s, "
              f"set-up median {statistics.median(setup.raw()):.4f} s")
        path = write_samples(plain, setup, host, workload, args.seed)
        print(f"samples written to {path.relative_to(ROOT)}")
        print("at reference host speed:")
        for k, m in metrics.items():
            note = f"  ({tail_label})" if k == "task_tail_ms" else ""
            print(f"  {k:12s} {m['value']:12.4f} {m['unit']}{note}")
        print(f"  {'fail_frac':12s} {failed / attempted:12.4f} ratio"
              f"  ({failed} of {attempted} tasks)")
    for error in errors[:20]:
        print(f"failure: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in its own process (peak memory is per process)."""
    import workloads

    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {name}")
        print("\n".join(proc.stdout.strip().splitlines()[1:-1]))
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bott-verdict", "bott-table", "steenrod-generic", "witness", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test; not a measurement")
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "charclass" / "__init__.py").is_file():
        print(f"error: no src/charclass package under {ROOT}; "
              "run from the root of a charclass checkout", file=sys.stderr)
        sys.exit(2)
    os.environ.update(THREAD_ENV)
    # One core for the whole run, set-up starts included, so the host-speed
    # readings come from the core that ran the timed call.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import charclass

    if Path(charclass.__file__).resolve().parent != (SRC / "charclass").resolve():
        sys.exit(f"error: imported charclass from {charclass.__file__}, not from {SRC}")
    result = run_all(args) if args.workload == "all" else run_one(args, started)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
