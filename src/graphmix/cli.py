"""Command-line front end.

Commands
--------
generate    sample a growing mixture sequence from a JSON config
estimate    recover the sparse partition from one edge-list file
predict     top-k degree forecasting over a temporal edge list
experiment  run a named reference suite (table1:topk, table1:finiteU,
            table1:infiniteU)
ingest      clean a temporal edge list and materialize snapshots
fixture     write the bundled synthetic temporal fixture

Every command is deterministic under --seed: reruns produce
byte-identical output files.  Exit codes: 0 success, 2 usage or config
error, 3 data error, exhausted memory, or output that cannot be written.
Every failure prints one "error: ..." line on stderr.  The parser checks
every flag value, so a usage error (unknown command or flag, bad value,
a global flag that the chosen command ignores) writes no files.

Global flags (--seed, --out, --scale, --format) go before the command;
--scale, --format (json or csv tables) and --seed apply only to the
commands that _FLAG_SCOPE lists for them.  generate, ingest and fixture
write into --out (default: the working directory); estimate, predict
and experiment write files only when --out is given.  A command that
writes several files writes all of them or, on failure, none.
Temporal files are whitespace "u v t" rows or CSV under a "u,v,t"
header; the first row tells which.

Examples
--------
  graphmix --out runs/seq1 generate --config mixture.json
  graphmix estimate --input g.edges --mode auto
  graphmix --out runs/t1 experiment --suite table1:finiteU --replicates 10
  graphmix predict --data hep.events --train-times 80,85 --horizons 6,8 --k 10
  graphmix --out snaps ingest --data raw.events --snapshot-times 100,200
  graphmix --seed 0 --out fixtures fixture
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import logging
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from .estimators import SegmentFit, estimate_partition, mape, retained_log_points
from .graph import (
    GraphFormatError, _count, degree_spectrum, edge_density, read_edge_list, write_edge_list,
)
from .graphon import parse_graphon
from .masspartition import parse_mass_partition
from .mixture import CapacityError, JoinConfig, MixtureSequence, RatioSchedule
from .experiments import SUITE_NAMES, build_temporal_fixture, run_suite
from .temporal import evaluation_run, parse_edge_events, serialize_edge_events, snapshot_at

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class ConfigError(ValueError):
    """Bad flags or config content: exit code 2.  Any other ValueError
    means the input parsed but cannot be processed: exit code 3."""


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so main reports them in one line."""

    def error(self, message):
        raise ConfigError(message)


def _checked(convert, ok, expected: str):
    """An argparse type: convert(text) must succeed and satisfy ok."""

    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def _ints(text: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected distinct values, got {text!r}")
    return values


_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _checked(int, lambda v: v >= 1, "an integer >= 1")
_PERCENTILE = _checked(float, lambda v: 0.0 <= v <= 100.0, "a number in 0..100")
_SCALE = _checked(float, lambda v: math.isfinite(v) and v > 0, "a positive finite number")
_INT_LIST = _checked(_ints, bool, "comma-separated integers")
_HORIZONS = _checked(_ints, lambda v: v and min(v) >= 0, "comma-separated integers >= 0")


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _create(out: str, name: str):
    """Open out/name for writing, creating out first."""
    os.makedirs(out, exist_ok=True)
    return open(os.path.join(out, name), "w", encoding="utf-8", newline="")


def _save(out: str, name: str, text: str) -> None:
    with _create(out, name) as f:
        f.write(text)


def _save_rows(out: str, stem: str, rows: list[dict], fmt: str | None) -> None:
    """Save rows as out/stem.json or out/stem.csv (fmt None: json)."""
    fmt = fmt or "json"
    buf = io.StringIO()
    if fmt == "csv" and rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _save(out, f"{stem}.{fmt}", _json(rows) if fmt == "json" else buf.getvalue())


def _load_lines(path: str):
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


@contextlib.contextmanager
def _staged(out: str):
    """Yield a fresh directory inside out; once the block succeeds and no
    target is a directory, its files move into out.  On any failure they,
    and the directories made for out, are removed: out stays as it was."""
    made = []  # out and the parents it lacks, deepest first
    path = os.path.abspath(out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(out, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".graphmix-", dir=out)
    try:
        yield stage
        moves = {os.path.join(out, f): os.path.join(stage, f) for f in os.listdir(stage)}
        if blocked := sorted(target for target in moves if os.path.isdir(target)):
            raise IsADirectoryError(f"{blocked[0]} is a directory")
        for target, source in moves.items():
            os.replace(source, target)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    os.rmdir(stage)


# top-level generate config keys
_GENERATE_KEYS = {"partition_u", "graphon_w", "schedule", "steps", "join", "seed"}


def cmd_generate(args) -> int:
    try:
        with open(args.config, encoding="utf-8-sig") as f:
            cfg = json.load(f)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("bad generate config: expected a JSON object")
    try:
        unknown = set(cfg) - _GENERATE_KEYS
        for name, keys in (("schedule", {"kind", "a", "base_n_d"}), ("join", {"c"})):
            if not isinstance(obj := cfg.get(name, {}), dict):
                raise ValueError(f"{name} must be a JSON object")
            unknown |= {f"{name}.{key}" for key in set(obj) - keys}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        u = parse_mass_partition(cfg["partition_u"])
        w = parse_graphon(cfg["graphon_w"])
        schedule = RatioSchedule(**cfg.get("schedule", {}))
        join = JoinConfig(*cfg.get("join", {}).values())
        steps = _count(cfg.get("steps", 1), "steps", 1)
        seed = args.seed if args.seed is not None else _count(cfg.get("seed", 0), "seed")
        sizes = schedule.sizes_for(u, steps)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad generate config: {exc}") from None
    out = args.out or "."
    seq = MixtureSequence(u, w, sizes, cfg=join, seed=seed)
    density_rows = []
    with _staged(out) as stage:  # a failing step leaves out as it was
        for i in range(steps):
            mix = seq.member(i)
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
            graph = mix.graph
            del mix  # the graph drops the blocks once writing builds its rows
            with _create(stage, f"graph_{i + 1:04d}.edges") as f:
                write_edge_list(graph, f)
            _save(stage, f"provenance_{i + 1:04d}.json", _json(prov))
            density_rows.append(
                {
                    "index": i + 1,
                    "node_count": graph.node_count,
                    "edge_count": graph.edge_count,
                    "density": edge_density(graph),
                }
            )
        _save_rows(stage, "densities", density_rows, args.format)
    print(f"wrote {steps} graphs to {out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    truth = None
    if args.truth:
        try:
            truth = parse_mass_partition(args.truth)
        except ValueError as exc:
            raise ConfigError(f"bad --truth: {exc}") from None
    try:
        with open(args.input, encoding="utf-8-sig") as f:
            g = read_edge_list(f)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.input}: {exc}") from None
    except (GraphFormatError, UnicodeDecodeError) as exc:
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
        keys = ("cutoff", "slope1", "intercept1", "slope2", "intercept2", "total_loss")
        result["diagnostics"] = {key: getattr(diag, key) for key in keys}
    else:
        result["diagnostics"] = {"log_gaps": [float(x) for x in diag]}
    if truth is not None:
        k_eval = min(est.k_hat, len(truth))
        result["mape_vs_truth"] = mape(truth.weights[:k_eval], est.weights[:k_eval])
    if args.plot_data or args.sparse_edges is not None:
        ranks, logvals = retained_log_points(spec, args.percentile)
        series = {"observed": [[float(r), float(v)] for r, v in zip(ranks, logvals)]}
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
    text = _json(result)
    if args.out:
        _save(args.out, "estimate.json", text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_predict(args) -> int:
    tel = parse_edge_events(_load_lines(args.data))
    summary, detail = evaluation_run(tel, args.train_times, args.horizons, args.k)
    if not summary:
        raise ValueError("no evaluable train/horizon pairs in range")
    if args.out:
        with _staged(args.out) as stage:
            _save_rows(stage, "prediction_summary", summary, args.format)
            _save_rows(stage, "prediction_detail", detail, args.format)
    sys.stdout.write(_json(summary))
    return EXIT_OK


def cmd_experiment(args) -> int:
    result = run_suite(args.suite, replicates=args.replicates, seed=args.seed or 0,
                       scale=args.scale or 1.0, workers=args.workers)
    if args.out:
        stem = args.suite.replace(":", "_")
        with _staged(args.out) as stage:
            _save_rows(stage, f"{stem}_aggregates", result["aggregates"], args.format)
            _save_rows(stage, f"{stem}_rows", result["rows"], args.format)
    sys.stdout.write(_json(result["aggregates"]))
    return EXIT_OK


def cmd_ingest(args) -> int:
    tel = parse_edge_events(_load_lines(args.data))
    report = {
        "events": tel.edge_t.size,
        "nodes": len(tel.node_ids),
        "t_min": tel.t_min,
        "t_max": tel.t_max,
        "rejected": len(tel.rejects),
        "reject_lines": [[ln, reason] for ln, reason in tel.rejects],
        "snapshots": args.snapshot_times,
    }
    text = _json(report)
    with _staged(args.out or ".") as stage:
        for t in report["snapshots"]:
            with _create(stage, f"snapshot_{t}.edges") as f:
                write_edge_list(snapshot_at(tel, t), f)
        _save(stage, "ingest_report.json", text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_fixture(args) -> int:
    out = args.out or "."
    tel = build_temporal_fixture(seed=args.seed or 0)
    with _staged(out) as stage, _create(stage, "synthetic_growth.events") as f:
        serialize_edge_events(tel, f)
    print(f"wrote fixture {os.path.join(out, 'synthetic_growth.events')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphmix",
        description="Generate sparse/dense mixture graphs and estimate their sparse part.",
    )
    parser.add_argument("--seed", type=_NON_NEGATIVE, default=None, help="global RNG seed")
    parser.add_argument("--out", default=None, help="output dir (generate/ingest/fixture: '.')")
    parser.add_argument("--scale", type=_SCALE, default=None,
                        help="size multiplier for experiment suites (default: 1)")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="table format of generate, predict and experiment (default: json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a mixture sequence from a JSON config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("estimate", help="estimate the sparse partition of one graph")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("auto", "finite", "infinite"), default="auto")
    p.add_argument("--percentile", type=_PERCENTILE, default=50.0)
    p.add_argument("--truth", default=None, help="partition literal for MAPE reporting")
    p.add_argument("--plot-data", action="store_true", help="emit segment-fit series")
    p.add_argument("--sparse-edges", type=_POSITIVE, default=None,
                   help="sparse edge count for the log(m/j) reference series "
                   "(implies --plot-data)")

    p = sub.add_parser("predict", help="forecast top-k degrees over a temporal edge list")
    p.add_argument("--data", required=True)
    p.add_argument("--train-times", type=_INT_LIST, required=True)
    p.add_argument("--horizons", type=_HORIZONS, required=True)
    p.add_argument("--k", type=_POSITIVE, default=10)

    p = sub.add_parser("experiment", help="run a named reference suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--replicates", type=_POSITIVE, default=None,
                   help="default: the suite's own count")
    p.add_argument("--workers", type=_POSITIVE, default=1)

    p = sub.add_parser("ingest", help="clean a temporal edge list, write snapshots")
    p.add_argument("--data", required=True)
    p.add_argument("--snapshot-times", type=_INT_LIST, default=())

    sub.add_parser("fixture", help="write the bundled synthetic growth fixture")
    return parser


_parser = functools.cache(build_parser)  # one parser for every main call: never change it


# global flag dest -> the commands that read it; main rejects the flag
# with any other command before that command runs
_FLAG_SCOPE = {
    "scale": ("experiment",),
    "format": ("generate", "predict", "experiment"),
    "seed": ("generate", "experiment", "fixture"),
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        args = _parser().parse_args(argv)
        for flag, commands in _FLAG_SCOPE.items():
            if getattr(args, flag) is not None and args.command not in commands:
                *rest, last = commands
                where = f"{', '.join(rest)} and {last}" if rest else last
                raise ConfigError(f"--{flag} applies only to {where}")
        return globals()[f"cmd_{args.command}"](args)  # looked up on each call
    except SystemExit:  # only --help exits the parser
        return EXIT_OK
    except ConfigError as exc:
        message, code = str(exc), EXIT_USAGE
    except (ValueError, CapacityError) as exc:
        message, code = str(exc), EXIT_DATA
    except MemoryError as exc:
        message, code = f"out of memory: {exc}", EXIT_DATA
    except OSError as exc:
        message, code = f"cannot write output: {exc}", EXIT_DATA
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
