"""Command-line front end.

Commands
--------
generate    sample a growing mixture sequence from a JSON config
estimate    recover the sparse partition from one edge-list file
predict     top-k degree forecasting over a temporal edge list
experiment  run a named reference suite (table1:topk, table1:finiteU,
            table1:infiniteU)
ingest      clean a temporal edge list and materialize snapshots

Every command is deterministic under --seed: reruns produce
byte-identical output files.  Exit codes: 0 success, 2 usage or config
error, 3 data error or output that cannot be written.

Global flags (--seed, --out, --scale, --format) go before the command.
generate and ingest write into --out (default: the working directory);
estimate, predict and experiment write files only when --out is given.

Examples
--------
  graphmix --out runs/seq1 generate --config mixture.json
  graphmix estimate --input g.edges --mode auto
  graphmix --out runs/t1 experiment --suite table1:finiteU --replicates 10
  graphmix predict --data hep.events --train-times 80,85 --horizons 6,8 --k 10
  graphmix --out snaps ingest --data raw.events --snapshot-times 100,200
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys

import numpy as np

from .estimators import SegmentFit, estimate_partition, mape, retained_log_points
from .graph import (
    GraphFormatError,
    degree_spectrum,
    edge_density,
    read_edge_list,
    write_edge_list,
)
from .graphon import parse_graphon
from .masspartition import parse_mass_partition
from .mixture import CapacityError, JoinConfig, MixtureSequence, RatioSchedule
from .experiments import build_temporal_fixture, run_suite
from .temporal import evaluation_run, parse_edge_events, snapshot_at

log = logging.getLogger("graphmix")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class ConfigError(ValueError):
    """Bad flags or config content: exit code 2.  Any other ValueError
    means the input parsed but cannot be processed: exit code 3."""


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")
    return values


def _write_rows(rows: list[dict], stem: str, fmt: str) -> None:
    """Write rows to stem.csv or stem.json."""
    path = f"{stem}.{fmt}"
    if fmt == "csv":
        with open(path, "w", newline="") as f:
            if rows:
                writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
    else:
        with open(path, "w") as f:
            json.dump(rows, f, indent=2)
            f.write("\n")


def _load_lines(path: str):
    try:
        with open(path) as f:
            return f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


# top-level generate config keys; schedule keys are RatioSchedule's fields
_GENERATE_KEYS = {"partition_u", "graphon_w", "schedule", "steps", "join", "seed"}


def _config_int(cfg: dict, key: str, default: int, low: int) -> int:
    value = cfg.get(key, default)
    if type(value) is not int or value < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def cmd_generate(args) -> int:
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("bad generate config: expected a JSON object")
    try:
        join_cfg = dict(cfg.get("join", {}))
        unknown = set(cfg) - _GENERATE_KEYS | {f"join.{key}" for key in set(join_cfg) - {"c"}}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        u = parse_mass_partition(cfg["partition_u"])
        w = parse_graphon(cfg["graphon_w"])
        schedule = RatioSchedule(**cfg.get("schedule", {}))
        join = JoinConfig(*join_cfg.values())
        steps = _config_int(cfg, "steps", 1, low=1)
        seed = args.seed if args.seed is not None else _config_int(cfg, "seed", 0, low=0)
        sizes = schedule.sizes_for(u, steps)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad generate config: {exc}") from None
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    seq = MixtureSequence(u, w, sizes, cfg=join, seed=seed)
    density_rows = []
    for i in range(steps):
        mix = seq.member(i)
        with open(os.path.join(out, f"graph_{i + 1:04d}.edges"), "w") as f:
            write_edge_list(mix.graph, f)
        origin = mix.node_origin
        starts = np.flatnonzero(np.diff(origin, prepend=-1))
        lengths = np.diff(starts, append=origin.size)
        rle = [[int(v), int(n)] for v, n in zip(origin[starts], lengths)]
        prov = {
            "index": i + 1,
            "n_dense": mix.n_dense,
            "n_sparse": mix.n_sparse,
            "m_dense": mix.m_dense,
            "m_sparse": mix.m_sparse,
            "m_new": mix.m_new,
            "hubs": {str(j): int(v) for j, v in sorted(mix.hubs.items())},
            "origin_rle": rle,
        }
        with open(os.path.join(out, f"provenance_{i + 1:04d}.json"), "w") as f:
            json.dump(prov, f, indent=2)
            f.write("\n")
        density_rows.append(
            {
                "index": i + 1,
                "node_count": mix.graph.node_count,
                "edge_count": mix.graph.edge_count,
                "density": edge_density(mix.graph),
            }
        )
    _write_rows(density_rows, os.path.join(out, "densities"), args.format)
    print(f"wrote {steps} graphs to {out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    if not 0.0 <= args.percentile <= 100.0:
        raise ConfigError(f"--percentile must be in 0..100, got {args.percentile}")
    if args.sparse_edges is not None and args.sparse_edges < 1:
        raise ConfigError(f"--sparse-edges must be >= 1, got {args.sparse_edges}")
    truth = None
    if args.truth:
        try:
            truth = parse_mass_partition(args.truth)
        except ValueError as exc:
            raise ConfigError(f"bad --truth: {exc}") from None
    try:
        g = read_edge_list(_load_lines(args.input))
    except GraphFormatError as exc:
        raise ConfigError(f"bad graph file {args.input}: {exc}") from None
    spec = degree_spectrum(g)
    try:
        est = estimate_partition(spec, mode=args.mode, percentile=args.percentile)
    except ValueError as exc:
        raise ValueError(f"estimation failed: {exc}") from None
    result = {
        "input": args.input,
        "mode": est.mode,
        "k_hat": est.k_hat,
        "p_hat": [float(x) for x in est.weights],
    }
    diag = est.diagnostics
    if isinstance(diag, SegmentFit):
        result["diagnostics"] = {
            "cutoff": diag.cutoff,
            "slope1": diag.slope1,
            "intercept1": diag.intercept1,
            "slope2": diag.slope2,
            "intercept2": diag.intercept2,
            "total_loss": diag.total_loss,
        }
    else:
        result["diagnostics"] = {"log_gaps": [float(x) for x in diag]}
    if truth is not None:
        k_eval = min(est.k_hat, len(truth))
        result["mape_vs_truth"] = mape(truth.weights[:k_eval], est.weights[:k_eval])
    if args.plot_data:
        ranks, logvals = retained_log_points(spec, args.percentile)
        series = {
            "observed": [[float(r), float(v)] for r, v in zip(ranks, logvals)],
        }
        if isinstance(diag, SegmentFit):
            series["segment1"] = [
                [float(r), diag.slope1 * r + diag.intercept1]
                for r in ranks[: diag.cutoff]
            ]
            series["segment2"] = [
                [float(r), diag.slope2 * r + diag.intercept2]
                for r in ranks[diag.cutoff :]
            ]
        if args.sparse_edges is not None:
            series["reference"] = [
                [float(r), float(math.log(args.sparse_edges / r))] for r in ranks
            ]
        result["plot_data"] = series
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "estimate.json"), "w") as f:
            f.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_predict(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    train_times, horizons = _int_list(args.train_times), _int_list(args.horizons)
    if min(horizons) < 0:
        raise ConfigError(f"--horizons must be >= 0, got {args.horizons!r}")
    tel = parse_edge_events(_load_lines(args.data), fmt=args.data_format)
    summary, detail = evaluation_run(tel, train_times, horizons, args.k)
    if not summary:
        raise ValueError("no evaluable train/horizon pairs in range")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_rows(summary, os.path.join(args.out, "prediction_summary"), args.format)
        _write_rows(detail, os.path.join(args.out, "prediction_detail"), args.format)
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        result = run_suite(
            args.suite,
            replicates=args.replicates,
            seed=args.seed if args.seed is not None else 0,
            scale=args.scale,
            workers=args.workers,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = os.path.join(args.out, args.suite.replace(":", "_"))
        _write_rows(result["aggregates"], f"{stem}_aggregates", args.format)
        _write_rows(result["rows"], f"{stem}_rows", args.format)
    sys.stdout.write(json.dumps(result["aggregates"], indent=2) + "\n")
    return EXIT_OK


def cmd_ingest(args) -> int:
    out = args.out or "."
    if args.make_fixture:
        events = build_temporal_fixture(seed=args.seed if args.seed is not None else 0)
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "synthetic_growth.events")
        with open(path, "w") as f:
            for u, v, t in events:
                f.write(f"{u} {v} {t}\n")
        print(f"wrote fixture {path}")
        return EXIT_OK
    if not args.data:
        raise ConfigError("ingest needs --data (or --make-fixture)")
    tel = parse_edge_events(_load_lines(args.data), fmt=args.data_format)
    os.makedirs(out, exist_ok=True)
    report = {
        "events": tel.edge_t.size,
        "nodes": len(tel.node_ids),
        "t_min": tel.t_min,
        "t_max": tel.t_max,
        "rejected": len(tel.rejects),
        "reject_lines": [[ln, reason] for ln, reason in tel.rejects],
    }
    snaps = _int_list(args.snapshot_times) if args.snapshot_times else []
    for t in snaps:
        g = snapshot_at(tel, t)
        with open(os.path.join(out, f"snapshot_{t}.edges"), "w") as f:
            write_edge_list(g, f)
    report["snapshots"] = snaps
    with open(os.path.join(out, "ingest_report.json"), "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmix",
        description="Generate sparse/dense mixture graphs and estimate their sparse part.",
    )
    parser.add_argument("--seed", type=int, default=None, help="global RNG seed")
    parser.add_argument("--out", default=None, help="output directory (generate/ingest: '.')")
    parser.add_argument("--scale", type=float, default=1.0, help="size multiplier for suites")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a mixture sequence from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("estimate", help="estimate the sparse partition of one graph")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("auto", "finite", "infinite"), default="auto")
    p.add_argument("--percentile", type=float, default=50.0)
    p.add_argument("--truth", default=None, help="partition literal for MAPE reporting")
    p.add_argument("--plot-data", action="store_true", help="emit segment-fit series")
    p.add_argument("--sparse-edges", type=int, default=None,
                   help="sparse edge count for the log(m/j) reference series")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("predict", help="forecast top-k degrees over a temporal edge list")
    p.add_argument("--data", required=True)
    p.add_argument("--data-format", choices=("whitespace3col", "csv3col"),
                   default="whitespace3col")
    p.add_argument("--train-times", required=True)
    p.add_argument("--horizons", required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("experiment", help="run a named reference suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--replicates", type=int, default=None,
                   help="default: the suite's own count")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("ingest", help="clean a temporal edge list, write snapshots")
    p.add_argument("--data", default=None)
    p.add_argument("--data-format", choices=("whitespace3col", "csv3col"),
                   default="whitespace3col")
    p.add_argument("--snapshot-times", default=None)
    p.add_argument("--make-fixture", action="store_true",
                   help="write the bundled synthetic growth fixture instead")
    p.set_defaults(fn=cmd_ingest)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
