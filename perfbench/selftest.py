"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload, at a tiny size, untraced and traced, prints every
   metric of BENCHMARK.json with its unit and passes its own checks.
2. A deliberately corrupted output (one edge, one event, one replicate
   row, one inverse graph) is counted as a failed check.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when every case holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile

import run


def check_metrics(failures: list[str]) -> None:
    meta = run.load_meta()
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            tmp = tempfile.mkdtemp(dir=run.TMP_ROOT)
            try:
                result, _, spans = run.measure(name, 0, 0.5, trace, tmp, tiny=True)
            finally:
                shutil.rmtree(tmp)
            want = {m["name"]: m["unit"] for m in meta["per_layer" if trace else "end_to_end"]}
            got = {key: m["unit"] for key, m in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if got != want:
                failures.append(f"{label}: metrics {sorted(got)} != BENCHMARK.json {sorted(want)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: checks failed on an uncorrupted run: {result}")
            if trace and not spans:
                failures.append(f"{label}: traced run recorded no spans")
            print(f"{label}: {len(got)} metrics, {result['failed']}/{result['attempted']} checks failed")


def _corrupt_cli(w, out):
    path = w._edges_path(0)
    with open(path) as f:
        lines = f.readlines()
    u, v = lines[-1].split()
    lines[-1] = f"{u} {int(v) - 1}\n"  # one edge moved to another endpoint
    with open(path, "w") as f:
        f.writelines(lines)
    return out


def _corrupt_reference(w, out):
    out[0]["rows"][0]["k_hat"] = 0
    return out


def _corrupt_linegraph(w, out):
    import graphmix

    stars, iso, g, hubs, h, back, mix = out[0]
    back = graphmix.Graph(back.node_count, back.edges[1:])  # one edge dropped
    return [(stars, iso, g, hubs, h, back, mix)] + out[1:]


def _corrupt_temporal(w, out):
    tel, text, snaps, evals = out
    edge_t = tel.edge_t.copy()
    edge_t[len(edge_t) // 2] += 1  # one event moved in time
    return dataclasses.replace(tel, edge_t=edge_t), text, snaps, evals


CORRUPT = {
    "cli_readme_sequence": _corrupt_cli,
    "reference_suites": _corrupt_reference,
    "linegraph_roundtrip": _corrupt_linegraph,
    "temporal_forecast": _corrupt_temporal,
}


def check_corruption(failures: list[str]) -> None:
    import speed
    import workloads

    for name, corrupt in CORRUPT.items():
        tmp = tempfile.mkdtemp(dir=run.TMP_ROOT)
        try:
            w = workloads.WORKLOADS[name](1, tmp, tiny=True)
            w.make_inputs()
            out = corrupt(w, w.run_pass(0, speed.ItemTimer()))
            tally = workloads.Tally()
            w.check(0, out, tally)
        finally:
            shutil.rmtree(tmp)
        if tally.failed < 1:
            failures.append(f"{name}: corrupted output passed every check")
        print(f"{name} with one corrupted output: {tally.failed}/{tally.attempted} checks failed")


def check_bare_directory(failures: list[str]) -> None:
    bare = tempfile.mkdtemp(dir=run.TMP_ROOT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", "cli_readme_sequence"]
        argv += ["--seed", "0", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    run.cap_threads(run.usable_cores())
    run.import_program()
    logging.basicConfig(level=logging.WARNING, stream=io.StringIO())
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    failures: list[str] = []
    try:
        check_metrics(failures)
        check_corruption(failures)
        check_bare_directory(failures)
    finally:
        try:
            os.rmdir(run.TMP_ROOT)
        except OSError:
            pass  # a benchmark run still has its directory there
    for line in failures:
        print("FAIL", line)
    print(json.dumps({"selftest": "fail" if failures else "pass", "failures": len(failures)}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
