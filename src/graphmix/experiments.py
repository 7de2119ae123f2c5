"""Reference experiment suites and the synthetic temporal fixture.

Three suites mirror the headline comparison tables; run_suite runs any
of them from one table (_SUITES, whose names SUITE_NAMES lists) of
per-experiment plans and replicate functions:

* topk      degree forecasting between a train and a larger test
            mixture (linear node-ratio scaling vs the sqrt baseline);
* finiteU   hub-count and partition recovery for finite partitions via
            the largest log-gap;
* infiniteU breakpoint recovery for power-like partitions via the
            two-segment fit, reported with the covered tail mass.

The topk and finiteU suites default to the tables' node budget
(11000-node train graphs, 13200-node test graphs); --scale shrinks
everything proportionally for smoke runs.  The dense/sparse split
inside a graph is not pinned by the tables, so each suite fixes its
own split, chosen so hub degrees clear the dense bulk at default
scale.  The infiniteU suite additionally sizes every experiment on its
own (see INFINITE_U_EXPERIMENTS).  Train/test pairs come from one
coupled growing sequence, matching how cumulative real snapshots
relate; with independently resampled pairs the forecasting noise floor
alone would sit near 4% MAPE.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .estimators import baseline_partition, estimate_partition, forecast_top_k, mape
from .graph import _count, _real, degree_spectrum
from .graphon import parse_graphon
from .masspartition import parse_mass_partition
from .mixture import (
    CapacityError, JoinConfig, MixtureSequence, _round_half_up, _sparse_edge_count,
    generate_mixture,
)

__all__ = ["SUITE_NAMES", "run_suite", "build_temporal_fixture"]

PAPER_N_TRAIN = 11000
PAPER_N_TEST = 13200

# dense node counts per suite; the remainder of the node budget goes to
# the sparse part (m_s from mixture._sparse_edge_count)
TOPK_DENSE = 600
FINITE_DENSE = 500

# dense kernel of the finiteU and infiniteU suites
GRAPHON_W = "exp_sum"

TOPK_EXPERIMENTS = {
    1: ("exp_sum", "power:1.2:2:50"),
    2: ("exp_sum", "geom:1.2:2:50"),
    3: ("const:0.1", "power:1.2:2:50"),
    4: ("const:0.1", "geom:1.2:2:50"),
}

FINITE_U_EXPERIMENTS = {
    1: "mass:[0.5,0.3333333333333333,0.16666666666666666]",
    2: "mass:[0.27,0.26,0.24,0.23]",
    3: "mass:[0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1]",
    4: "power:1:2:6",
}

# partition, dense node count, total node count.  Each experiment gets
# its own sizes: the breakpoint fit can only place the cutoff where hub
# degrees cross the dense bulk, and the flatter the tail of the
# partition, the larger the sparse part must be before that crossing
# happens past the last retained hub.  geom and factorial resolve at
# the shared 11000-node budget; power and loglaw need bigger graphs.
INFINITE_U_EXPERIMENTS = {
    1: ("power:1.2:2:50", 342, 65391),
    2: ("geom:1.2:2:50", 28, 11000),
    3: ("loglaw:50", 617, 217666),
    4: ("factorial:50", 100, 11000),
}

# retain unique degrees above this percentile for the two-segment fit;
# the default median cut trims too much of the bulk anchor at the
# infiniteU sizes above
INFINITE_PERCENTILE = 10.0


def _replicate_seeds(seed: int, replicates: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(replicates, dtype=np.uint64)
    return [int(s) for s in state]


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _aggregate(rows: list[dict], keys: tuple[str, ...]) -> dict:
    out = {"replicates": len(rows)}
    for key in keys:
        vals = np.asarray([r[key] for r in rows], dtype=np.float64)
        out[f"{key}_mean"] = float(vals.mean())
        out[f"{key}_sd"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return out


def _topk_plan(exp: int, scale: float) -> tuple[tuple, dict]:
    w_text, u_text = TOPK_EXPERIMENTS[exp]
    u = parse_mass_partition(u_text)
    n_train = _scaled(PAPER_N_TRAIN, scale, 200)
    n_test = _scaled(PAPER_N_TEST, scale, 240)
    n_d_tr = _scaled(TOPK_DENSE, scale, 20)
    n_d_te = _round_half_up(n_d_tr * n_test / n_train)
    sizes = tuple(
        (n_d, _sparse_edge_count(u, n - n_d, f"{n}-node graph"))
        for n, n_d in ((n_train, n_d_tr), (n_test, n_d_te))
    )
    return (w_text, u_text, sizes), {"graphon": w_text, "partition": u_text}


def _topk_replicate(args: tuple) -> dict:
    w_text, u_text, sizes, seed = args
    seq = MixtureSequence(parse_mass_partition(u_text), parse_graphon(w_text), sizes, seed=seed)
    spec_tr = degree_spectrum(seq.member(0).graph)
    spec_te = degree_spectrum(seq.member(1).graph)
    k_hat = estimate_partition(spec_tr, "infinite").k_hat
    k = min(k_hat, spec_tr.node_count, spec_te.node_count)
    actual, prop, base = forecast_top_k(spec_tr, spec_te, k)
    return {
        "k_hat": k_hat,
        "n_train": spec_tr.node_count,
        "n_test": spec_te.node_count,
        "mape_proposed": mape(actual, prop),
        "mape_baseline": mape(actual, base),
    }


def _partition_plan(
    u_text: str, n_dense: int, n_total: int, scale: float, mode: str, percentile: float
) -> tuple[tuple, dict]:
    n_d, n = _scaled(n_dense, scale, 20), _scaled(n_total, scale, 200)
    m_s = _sparse_edge_count(parse_mass_partition(u_text), n - n_d, f"{n}-node graph")
    return (mode, percentile, u_text, n_d, m_s), {"partition": u_text}


def _partition_replicate(args: tuple) -> dict:
    mode, percentile, u_text, n_d, m_s, seed = args
    u = parse_mass_partition(u_text)
    mix = generate_mixture(u, parse_graphon(GRAPHON_W), n_d, m_s, rng=np.random.default_rng(seed))
    spec = degree_spectrum(mix.graph)
    del mix  # estimation needs only the degrees
    est = estimate_partition(spec, mode, percentile)
    truth = u.weights[: min(est.k_hat, len(u))]
    head = (
        {"k_hat": est.k_hat, "covered_mass": float(truth.sum())}
        if mode == "infinite"
        else {"k_true": len(u), "k_hat": est.k_hat}
    )
    return {
        **head,
        "mape_proposed": mape(truth, est.weights[: truth.size]),
        "mape_baseline": mape(truth, baseline_partition(spec, est.k_hat)[: truth.size]),
    }


class _Suite(NamedTuple):
    plan: Callable[[int, float], tuple[tuple, dict]]  # -> (replicate args, label)
    replicate: Callable[[tuple], dict]
    replicates: int
    keys: tuple[str, ...]


_KEYS = ("k_hat", "mape_proposed", "mape_baseline")

# every suite's experiments, the keys of its *_EXPERIMENTS table
_EXPERIMENT_IDS = (1, 2, 3, 4)

_SUITES = {
    "table1:topk": _Suite(_topk_plan, _topk_replicate, 10, _KEYS),
    "table1:finiteU": _Suite(
        lambda exp, scale: _partition_plan(
            FINITE_U_EXPERIMENTS[exp], FINITE_DENSE, PAPER_N_TRAIN, scale, "finite", 50.0
        ),
        _partition_replicate,
        10,
        _KEYS,
    ),
    "table1:infiniteU": _Suite(
        lambda exp, scale: _partition_plan(
            *INFINITE_U_EXPERIMENTS[exp], scale, "infinite", INFINITE_PERCENTILE
        ),
        _partition_replicate,
        5,
        ("k_hat", "covered_mass", "mape_proposed", "mape_baseline"),
    ),
}
SUITE_NAMES = tuple(_SUITES)


def _run_replicate(job: tuple) -> dict:
    """One replicate of a suite; a failure names the suite, experiment,
    replicate index and seed."""
    name, exp, rep, args = job
    where = f"{name} experiment {exp} replicate {rep} (seed {args[-1]})"
    try:
        return _SUITES[name].replicate(args)
    except CapacityError as exc:
        raise CapacityError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def run_suite(
    name: str,
    replicates: int | None = None,
    seed: int = 0,
    scale: float = 1.0,
    experiments=_EXPERIMENT_IDS,
    workers: int = 1,
) -> dict:
    """Run the named suite; replicates defaults to 10 (5 for infiniteU).

    Replicate r of experiment e is seeded from SeedSequence(seed + e),
    so results do not depend on workers or on which experiments run.
    All replicates of all experiments share one process pool.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = _SUITES[name]
    if replicates is None:
        replicates = suite.replicates
    replicates, workers = _count(replicates, "replicates", 1), _count(workers, "workers", 1)
    scale = _real(scale, "scale", 0, low_open=True)
    unknown = [exp for exp in experiments if exp not in _EXPERIMENT_IDS]
    if unknown:
        raise ValueError(
            f"unknown experiment ids {unknown}; choose from {', '.join(map(str, _EXPERIMENT_IDS))}"
        )
    plans = [suite.plan(exp, scale) for exp in experiments]
    jobs = [
        (name, exp, rep, (*args, s))
        for exp, (args, _) in zip(experiments, plans)
        for rep, s in enumerate(_replicate_seeds(seed + exp, replicates))
    ]
    workers = min(workers, len(jobs))
    if workers <= 1:
        results = list(map(_run_replicate, jobs))
    else:
        from concurrent.futures import ProcessPoolExecutor  # slow import; pools only
        with ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_run_replicate, jobs))
    rows, aggregates = [], []
    for i, (exp, (_, label)) in enumerate(zip(experiments, plans)):
        mine = results[i * replicates : (i + 1) * replicates]
        rows.extend({"experiment": exp, "replicate": rep, **res} for rep, res in enumerate(mine))
        aggregates.append({"experiment": exp, **label, **_aggregate(mine, suite.keys)})
    return {"suite": name, "rows": rows, "aggregates": aggregates}


def build_temporal_fixture(seed: int = 0) -> list[tuple[str, str, int]]:
    """Events of the bundled synthetic growth fixture at this seed.

    The MixtureSequence.events() of partition power:1.2:2:50 and graphon
    exp_sum over 12 steps, step i of 15 i dense nodes and int(90 i^1.5)
    sparse edges, joined with c = 0.3.
    """
    sizes = [(15 * i, int(90 * i ** 1.5)) for i in range(1, 13)]
    u, w = parse_mass_partition("power:1.2:2:50"), parse_graphon("exp_sum")
    return MixtureSequence(u, w, sizes, JoinConfig(0.3), seed).events()
