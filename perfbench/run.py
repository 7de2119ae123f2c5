"""graphmix benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cli_readme_sequence --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--workload all`` runs every workload in its own child process, one
after another, and prints a table with each workload's ``fail_frac``.

The benchmark imports graphmix from ``src/`` next to this directory and
exits with an error, printing no result, when that source tree is
missing.  Everything runs in one process: no worker pools, and numpy's
thread pools are capped at the number of usable cores before numpy is
imported.  Files the program writes go to a temporary directory under
``.perfbench_tmp/`` at the repository root, removed at exit; a traced
run also leaves its spans in ``.perfbench_trace/``.

One run:

1. set-up: seven times start a fresh interpreter that imports numpy
   and graphmix and wait for it; then three times make the workload's
   inputs from the seed and warm up in this process.  ``setup_s`` is
   the median CPU time (user plus system) of the import plus the median
   time of the rest.
2. timed passes over the same work until ``--seconds`` of pass time is
   spent (at least two passes).  Each pass's outputs are checked after
   its timer stops.  ``peak_rss_mb`` is read after the first pass,
   before its outputs are checked.
3. with ``--trace 0`` print every end-to-end metric; with ``--trace 1``
   alternate untraced and traced passes of the same work and print the
   per-layer metrics and the tracing overhead instead.

Every timed item (a CLI call, a replicate, a forest, a temporal call)
sits between two runs of a fixed host-speed probe, and its time is
scaled by the probes' mean (``speed.py``); the shared machines this was
tuned on change speed by up to 1.5x for tens of seconds at a time.
Every pass repeats the same items, and each item's time is its median
over the passes.  ``wall_s`` is the sum of the items' times (one
pass), ``items_per_s`` the pass's items over ``wall_s``, and
``item_p50_ms``/``item_p90_ms`` percentiles of the items' times.
The in-process part of ``setup_s`` is scaled the same way.  The import
runs in a child interpreter, which the probe does not track: scaled by
it, the import's wall time spread two to three times wider across runs
than unscaled, and in three batches of runs on a 2-core x86-64 VM its
median wall time ranged over 0.27-0.36 s where its CPU time ranged over
0.40-0.45 s, so ``setup_s`` counts CPU time.  The report lines print the raw
(unscaled) medians beside the scaled values.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the workload's ``fail_frac``.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
TRACE_DIR = os.path.join(ROOT, ".perfbench_trace")
WORKLOAD_NAMES = ("cli_readme_sequence", "reference_suites", "linegraph_roundtrip", "temporal_forecast")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
IMPORT_REPEATS = 7
SETUP_REPEATS = 3
MIN_PASSES = 2


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_threads(limit: int) -> None:
    """Set every thread-pool variable to at most ``limit`` (before numpy loads)."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, limit))
        except ValueError:
            current = limit
        os.environ[var] = str(max(1, min(current, limit)))


def import_program() -> None:
    """Import graphmix from ``src/``, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "graphmix", "__init__.py")):
        raise SystemExit(f"error: no graphmix sources under {SRC}")
    sys.path.insert(0, SRC)
    import graphmix

    if not os.path.abspath(graphmix.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: graphmix was imported from {graphmix.__file__}, not {SRC}")


class _Discard(io.TextIOBase):
    """A text sink: log records are still formatted, then dropped."""

    def write(self, s):
        return len(s)


def _median(values):
    return statistics.median(values) if values else 0.0


def _import_probe() -> None:
    """Import numpy and graphmix in a fresh interpreter and wait for it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import numpy, graphmix"], env=env, check=True)


def _setup(cls, seed, tmp, tiny, timer):
    """Run IMPORT_REPEATS fresh-interpreter imports of numpy and graphmix,
    then set the workload up SETUP_REPEATS times (inputs and warm-up in
    this process); return the last workload and the median import CPU
    time plus the median in-process set-up, raw and scaled, in seconds."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        _import_probe()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        imports.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    for _ in range(SETUP_REPEATS):
        timer.start()
        workload = cls(seed, tmp, tiny)
        workload.make_inputs()
        workload.warm_up()
        timer.stop()
    raw, scaled = timer.take()
    return workload, _median(imports) + _median(raw), _median(imports) + _median(scaled)


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: str, tiny=False):
    """One benchmark run; returns (result dict, report lines, spans)."""
    import numpy as np

    import speed
    import tracing
    import workloads

    meta = load_meta()
    timer = speed.ItemTimer()
    workload, setup_raw, setup_scaled = _setup(workloads.WORKLOADS[name], seed, tmp, tiny, timer)
    tally = workloads.Tally()
    walls, traced_walls, raw_passes, scaled_passes, traced_scaled = [], [], [], [], []
    tracer = tracing.Tracer()
    k = 0
    while True:
        start = time.perf_counter()
        out = workload.run_pass(k, timer)
        walls.append(time.perf_counter() - start)
        if k == 0:
            # set-up and one pass, before a check allocates anything
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw, scaled = timer.take()
        raw_passes.append(raw)
        scaled_passes.append(scaled)
        items = workload.items(out)
        workload.check(k, out, tally)
        if trace:
            with tracing.instrument(tracer):
                start = time.perf_counter()
                out = workload.run_pass(k, timer)
                traced_walls.append(time.perf_counter() - start)
            traced_scaled.append(sum(timer.take()[1]))
            workload.check(k, out, tally)
        k += 1
        spent = sum(walls) + sum(traced_walls)
        if k >= MIN_PASSES and spent + 0.5 * (spent / k) >= seconds:
            break

    raw = _e2e(np.median(raw_passes, axis=0), items, setup_raw, rss)
    scaled = _e2e(np.median(scaled_passes, axis=0), items, setup_scaled, rss)
    if trace:
        overhead_s = _median(traced_scaled) - _median([sum(p) for p in scaled_passes])
        metrics = layer_metrics(tracer, workload, k, overhead_s, meta)
    else:
        metrics = scaled
    units = {m["name"]: m["unit"] for m in meta["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    report = [
        f"workload {name}  seed {seed}  trace {int(trace)}  passes {k}  "
        f"timed items/pass {len(raw_passes[0])}  items/pass {items}",
    ]
    if trace:
        report.append("  per-layer times are raw seconds per pass (the overhead is scaled), counts are per pass")
    else:
        report.append(f"  {'metric':<40} {'scaled':>14} {'raw':>14}")
    report += [
        f"  {key:<40} {m['value']:>14.6g} {'' if trace else format(raw[key], '14.6g'):>14} {m['unit']}"
        for key, m in result["metrics"].items()
    ]
    report.append(f"  {'fail_frac':<40} {tally.failed / max(1, tally.attempted):>14.6g} ({tally.failed}/{tally.attempted})")
    report += [f"  FAILED: {note}" for note in tally.notes[:20]]
    return result, report, tracer.spans


def _e2e(item_s, items, setup_s, rss_mb) -> dict:
    import numpy as np

    return {
        "wall_s": float(item_s.sum()),
        "items_per_s": items / float(item_s.sum()),
        "item_p50_ms": 1e3 * float(np.percentile(item_s, 50)),
        "item_p90_ms": 1e3 * float(np.percentile(item_s, 90)),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(tracer, workload, passes, overhead_s, meta):
    """Per-pass means of span times and counts, named as in BENCHMARK.json."""
    ops = tracer.op_times()
    layers = tracer.layer_self_times()
    counts = {key: value / passes for key, value in tracer.counts.items()}
    if hasattr(workload, "layer_counts"):
        counts.update(workload.layer_counts())
    values = {}
    for metric in meta["per_layer"]:
        key = metric["name"]
        if key == "trace.overhead_s":
            values[key] = overhead_s
        elif key.endswith(".self_s"):
            values[key] = layers.get(key[: -len(".self_s")], 0.0) / passes
        elif key.endswith("_s"):
            values[key] = ops.get(key[: -len("_s")], 0.0) / passes
        else:
            values[key] = counts.get(key, 0.0)
    return values


def load_meta():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def write_spans(name, seed, spans):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{name}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump({"columns": ["name", "start", "end", "parent"], "spans": spans}, f)
    return path


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    cap_threads(usable_cores())
    import_program()
    logging.basicConfig(level=logging.WARNING, stream=_Discard(), format="%(levelname)s %(message)s")
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        result, report, spans = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still has its directory there
    if args.trace:
        report.append(f"  spans written to {write_spans(args.workload, args.seed, spans)}")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
