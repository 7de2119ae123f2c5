"""Acceptance gate.

Each criterion is one test that prints a single PASS/FAIL line (visible
under pytest -s) before asserting, so a red run still reports every
criterion it reached.  Monte Carlo criteria use fixed seed bases; the
reference-suite criteria also enforce their wall-clock budgets.
"""

import os
import time

import numpy as np
import pytest

from graphmix import (
    JoinConfig,
    RatioSchedule,
    decompose_disjoint_cliques,
    degree_spectrum,
    density_trajectory,
    estimate_partition_finite,
    evaluation_run,
    expected_hub_degree,
    fit_two_segments,
    generate_mixture,
    inverse_line_graph_disjoint,
    line_graph,
    parse_edge_events,
    parse_graphon,
    parse_mass_partition,
    star_forest,
)
from graphmix.experiments import run_suite

W = parse_graphon("exp_sum")
U23 = parse_mass_partition("mass:[0.6666666666666666,0.3333333333333333]")
U3 = parse_mass_partition("mass:[0.5,0.3333333333333333,0.16666666666666666]")
FIXTURE = os.path.join(os.path.dirname(__file__), "data", "synthetic_growth.events")

# informational real-data runs (criterion 9); not bundled, no gate
REAL_DATA = {
    "hepph": os.environ.get("GRAPHMIX_HEPPH_EVENTS", "data/hepph.events"),
    "social": os.environ.get("GRAPHMIX_SOCIAL_EVENTS", "data/social.events"),
}


def report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_topk_forecast():
    t0 = time.perf_counter()
    result = run_suite("table1:topk", replicates=10, seed=0, experiments=(1,))
    elapsed = time.perf_counter() - t0
    agg = result["aggregates"][0]
    prop, base = agg["mape_proposed_mean"], agg["mape_baseline_mean"]
    ok = prop < 1.5 and 7.5 <= base <= 10.5 and elapsed < 300
    report(
        1,
        ok,
        f"topk exp1 proposed={prop:.3f} (<1.5) baseline={base:.3f} "
        f"(in [7.5,10.5]) elapsed={elapsed:.1f}s (<300)",
    )


def test_criterion_2_finite_partition_recovery():
    t0 = time.perf_counter()
    result = run_suite("table1:finiteU", replicates=10, seed=0)
    elapsed = time.perf_counter() - t0
    props = [a["mape_proposed_mean"] for a in result["aggregates"]]
    bases = [a["mape_baseline_mean"] for a in result["aggregates"]]
    ok = (
        all(p < 5.0 for p in props)
        and all(b > 90.0 for b in bases)
        and elapsed < 300
    )
    report(
        2,
        ok,
        "finiteU proposed=[" + ", ".join(f"{p:.2f}" for p in props) + "] (<5) "
        "baseline=[" + ", ".join(f"{b:.0f}" for b in bases) + "] (>90) "
        f"elapsed={elapsed:.1f}s (<300)",
    )


def test_criterion_3_infinite_partition_recovery():
    targets_k = {1: 30.0, 2: 23.0, 3: 30.0, 4: 4.0}
    targets_mass = {1: 0.902, 2: 0.985, 3: 0.941, 4: 0.998}
    t0 = time.perf_counter()
    result = run_suite("table1:infiniteU", replicates=5, seed=0)
    elapsed = time.perf_counter() - t0
    details, ok = [], elapsed < 600
    for agg in result["aggregates"]:
        exp = agg["experiment"]
        dk = agg["k_hat_mean"] - targets_k[exp]
        dm = agg["covered_mass_mean"] - targets_mass[exp]
        ok &= abs(dk) <= 5.0 and abs(dm) <= 0.05
        details.append(f"exp{exp} k={agg['k_hat_mean']:.1f}({dk:+.1f}) "
                       f"mass={agg['covered_mass_mean']:.3f}({dm:+.3f})")
    report(3, ok, " ".join(details) + f" elapsed={elapsed:.1f}s (<600)")


def test_criterion_4_hub_degree_means():
    samples = {0: [], 1: []}
    theory = {0: [], 1: []}
    for s in range(500):
        mix = generate_mixture(
            U23, W, 300, 30000,
            JoinConfig(edge_multiplier_c=1.0), np.random.default_rng(40000 + s),
        )
        deg = mix.graph.degrees()
        for j in (0, 1):
            samples[j].append(deg[mix.hubs[j]])
            theory[j].append(
                expected_hub_degree(U23[j], 30000, mix.m_new, mix.n_sparse)[0]
            )
    ok, details = True, []
    for j in (0, 1):
        arr = np.asarray(samples[j], dtype=np.float64)
        se = arr.std(ddof=1) / np.sqrt(arr.size)
        diff = abs(arr.mean() - np.mean(theory[j]))
        ok &= diff < 4 * se
        details.append(f"hub{j} |mean-theory|={diff:.2f} vs 4SE={4 * se:.2f}")
    report(4, ok, " ".join(details))


def test_criterion_5_hubs_are_top_degrees():
    hits = 0
    for s in range(200):
        mix = generate_mixture(
            U3, W, 200, 20000,
            JoinConfig(edge_multiplier_c=1.0), np.random.default_rng(50000 + s),
        )
        deg = mix.graph.degrees()
        h = [mix.hubs[j] for j in (0, 1, 2)]
        rest = np.delete(deg, h)
        if deg[h[0]] > deg[h[1]] > deg[h[2]] > rest.max():
            hits += 1
    ok = hits >= 190
    report(5, ok, f"hubs are the ordered top-3 degrees in {hits}/200 runs (>=190)")


def _forest_signature(g):
    """Sorted (nodes, edges) per component, from a plain list union-find."""
    parent = list(range(g.node_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges.tolist():
        parent[find(u)] = find(v)
    roots = [find(x) for x in range(g.node_count)]
    sizes: dict[int, list[int]] = {}
    for r in roots:
        sizes.setdefault(r, [0, 0])[0] += 1
    for u in g.edges[:, 0].tolist():
        sizes[roots[u]][1] += 1
    return sorted(map(tuple, sizes.values()))


def test_criterion_6_inverse_line_graph_round_trip():
    rng = np.random.default_rng(66)
    hits = 0
    for _ in range(1000):
        stars = rng.integers(1, 101, rng.integers(1, 51)).tolist()
        iso = int(rng.integers(0, 5))
        g, _ = star_forest(stars, isolated_edges=iso)
        h = line_graph(g)
        back = inverse_line_graph_disjoint(h)
        hits += _forest_signature(back) == _forest_signature(g)
    ok = hits == 1000
    report(6, ok, f"inverse(line(G)) isomorphic to G for {hits}/1000 star forests")


def test_criterion_7_density_trends():
    ok, margins = True, []
    for seed in range(5):
        rows = density_trajectory(
            U23, W, RatioSchedule("constant", a=1.0, base_n_d=30), 20, seed=seed
        )
        dens = [r[2] for r in rows]
        margin = min(dens[10:]) / np.mean(dens[:10])
        margins.append(margin)
        ok &= margin >= 0.5
        rows = density_trajectory(
            U23, W, RatioSchedule("linear", a=1.0, base_n_d=30), 20, seed=seed
        )
        dens = [r[2] for r in rows]
        ok &= dens[19] < dens[1]
    report(
        7,
        ok,
        "constant-ratio last-half/first-half margins=["
        + ", ".join(f"{m:.2f}" for m in margins)
        + "] (>=0.5); linear-ratio density falls by step 20 on all 5 seeds",
    )


def _reference_two_segments(x, y, min_seg=3):
    """Independent re-derivation via per-segment normal equations."""
    best_r, best_losses, best_total = None, None, None
    for r in range(min_seg, x.size - min_seg + 1):
        losses, total = [], 0.0
        for xs, ys in ((x[:r], y[:r]), (x[r:], y[r:])):
            a = np.array([[xs.size, xs.sum()], [xs.sum(), float((xs * xs).sum())]])
            b = np.array([ys.sum(), float((xs * ys).sum())])
            c0, c1 = np.linalg.solve(a, b)
            resid = ys - (c0 + c1 * xs)
            loss = float(resid @ resid)
            losses.append(loss)
            total += loss
        if best_total is None or total < best_total:
            best_r, best_losses, best_total = r, losses, total
    return best_r, best_losses


def test_criterion_8_segment_fit_cross_check():
    rng = np.random.default_rng(8)
    cases, r_bad, worst = 0, 0, 0.0
    inputs = []
    for n in range(6, 13):
        for _ in range(40):
            x = np.sort(rng.random(n)) * 10.0
            inputs.append((x, rng.normal(size=n)))
    x = np.arange(10.0)
    inputs.append((x, np.where(x < 5, 10.0 - 2.0 * x, 3.0 - 0.1 * x)))
    inputs.append((x, 3.0 * x - 1.0))
    for x, y in inputs:
        fit = fit_two_segments(x, y)
        r, losses = _reference_two_segments(x, y)
        cases += 1
        r_bad += fit.cutoff != r
        worst = max(worst, abs(fit.loss1 - losses[0]), abs(fit.loss2 - losses[1]))
    ok = r_bad == 0 and worst <= 1e-9
    report(
        8,
        ok,
        f"segment fit agrees with normal-equations reference on {cases} inputs: "
        f"{r_bad} cutoff mismatches, max loss diff {worst:.2e} (<=1e-9)",
    )


def test_criterion_9_temporal_fixture_forecast():
    with open(FIXTURE) as f:
        tel = parse_edge_events(f.readlines())
    summary, _ = evaluation_run(tel, [6, 8], [0, 2, 4], k=10)
    zero_rows = [r for r in summary if r["horizon"] == 0]
    pos_rows = [r for r in summary if r["horizon"] > 0]
    prop = float(np.mean([r["mape_proposed"] for r in pos_rows]))
    base = float(np.mean([r["mape_baseline"] for r in pos_rows]))
    ok = (
        len(zero_rows) == 2
        and all(r["mape_proposed"] == 0.0 for r in zero_rows)
        and prop < base
    )
    report(
        9,
        ok,
        f"fixture horizon-0 MAPE=0 on both train times; positive horizons "
        f"proposed={prop:.2f} < baseline={base:.2f}",
    )
    for name, path in REAL_DATA.items():
        if not os.path.exists(path):
            print(f"  informational: {name} data not found at {path}, skipped")
            continue
        with open(path) as f:
            tel = parse_edge_events(f.readlines())
        span = tel.t_max - tel.t_min
        times = [tel.t_min + span // 2, tel.t_min + 2 * span // 3]
        summary, _ = evaluation_run(tel, times, [0, span // 10], k=10)
        for row in summary:
            print(f"  informational {name}: {row}")


def test_criterion_10_leading_weight_consistency():
    gaps = {}
    for base, m_s in ((11000, 1000), (13000, 100000)):
        p1s = []
        for s in range(200):
            mix = generate_mixture(
                U23, W, 100, m_s, rng=np.random.default_rng(base + s)
            )
            est = estimate_partition_finite(degree_spectrum(mix.graph))
            p1s.append(est.weights[0])
        gaps[m_s] = abs(float(np.mean(p1s)) - 2.0 / 3.0)
    ok = gaps[100000] < 0.005 and gaps[100000] < gaps[1000]
    report(
        10,
        ok,
        f"|mean p1 - 2/3| = {gaps[100000]:.2e} at m_s=1e5 (<0.005) vs "
        f"{gaps[1000]:.2e} at m_s=1e3",
    )
