"""The four benchmark workloads.

Each workload builds its inputs from the seed (``make_inputs``), warms
up, then runs timed passes (``run_pass``) and checks every pass's outputs
(``check``).  A pass brackets each timed item with ``timer.start()`` and
``timer.stop()``, in the same order every pass.  The first pass of a run
is checked against independent expectations; later passes of the same
inputs must reproduce its digest.
Library calls go through module attributes (``gm.line_graph``), never
through names bound at import time, so the tracer's wrappers see them.

``tiny=True`` shrinks every input so the self-test finishes in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import graphmix as gm
import graphmix.cli  # noqa: F401  (gm.cli is not imported by the package)

import eventgen

DEFAULT_SEED = 0
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _golden(workload: str) -> dict:
    with open(BASELINE_PATH) as f:
        return json.load(f)["golden"][workload]


class Tally:
    """Checked outputs: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return bool(ok)


# ---------------------------------------------------------------------------
# cli_readme_sequence


README_CONFIG = {
    "partition_u": "power:1.2:2:50",
    "graphon_w": "exp_sum",
    "schedule": {"kind": "constant", "a": 2.0, "base_n_d": 100},
    # 4 of the README's 12 steps.  On a 2-core x86-64 VM a pass takes
    # about 0.5 s, so a run repeats it about 20 times, where one 12-step
    # generate alone takes about 15 s.  Text IO is about 40% of a pass at
    # any step count; the cross-pair sampler's share grows only slowly
    # (11% at 4 steps, 18% at 8, where a pass takes about 5 s)
    "steps": 4,
    "join": {"c": 1.0},
}
TINY_CONFIG = dict(README_CONFIG, steps=2, schedule={"kind": "constant", "a": 2.0, "base_n_d": 50})


class CliReadmeSequence:
    """`graphmix generate` on the README config, then `estimate --mode auto`
    on every graph it wrote, all through ``graphmix.cli.main`` in process.
    An item is an output edge; a latency sample is one CLI call."""

    name = "cli_readme_sequence"

    def __init__(self, seed: int, tmp: str, tiny: bool = False):
        self.seed = seed
        self.tmp = tmp
        self.config = dict(TINY_CONFIG if tiny else README_CONFIG, seed=seed)
        self.golden = seed == DEFAULT_SEED and not tiny
        self.cfg_path = os.path.join(tmp, "mixture.json")
        self.gen_dir = os.path.join(tmp, "generate")
        self.reference = None

    def make_inputs(self):
        with open(self.cfg_path, "w") as f:
            json.dump(self.config, f)

    def warm_up(self):
        path = os.path.join(self.tmp, "warm.json")
        with open(path, "w") as f:
            json.dump(dict(TINY_CONFIG, steps=1, seed=self.seed), f)
        out = os.path.join(self.tmp, "warm")
        self._call(["--seed", str(self.seed), "--out", out, "generate", "--config", path])
        self._call(["--out", out, "estimate", "--input", os.path.join(out, "graph_0001.edges")])

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gm.cli.main(argv)
        return code, out.getvalue()

    def _edges_path(self, i):
        return os.path.join(self.gen_dir, f"graph_{i + 1:04d}.edges")

    def _est_dir(self, i):
        return os.path.join(self.tmp, f"estimate_{i + 1:04d}")

    def run_pass(self, k, timer):
        calls = []
        argv = ["--seed", str(self.seed), "--out", self.gen_dir, "generate", "--config", self.cfg_path]
        timer.start()
        calls.append(self._call(argv))
        timer.stop()
        for i in range(self.config["steps"]):
            argv = ["--out", self._est_dir(i), "estimate", "--input", self._edges_path(i), "--mode", "auto"]
            timer.start()
            calls.append(self._call(argv))
            timer.stop()
        return calls

    def items(self, calls) -> int:
        if calls[0][0] != 0:
            return 0  # generate failed; check() counts it
        with open(os.path.join(self.gen_dir, "densities.json")) as f:
            return sum(row["edge_count"] for row in json.load(f))

    @staticmethod
    def _normal_estimate(text: str) -> str:
        """Estimate JSON with the temporary input path cut to its file name."""
        doc = json.loads(text)
        doc["input"] = os.path.basename(doc["input"])
        return json.dumps(doc, indent=2) + "\n"

    def digest(self, calls) -> dict:
        files = {}
        for name in sorted(os.listdir(self.gen_dir)):
            with open(os.path.join(self.gen_dir, name), "rb") as f:
                files[name] = _sha(f.read())
        for i, (_, stdout) in enumerate(calls[1:]):
            files[f"estimate_{i + 1:04d}.json"] = _sha(self._normal_estimate(stdout))
        return files

    def check(self, k, calls, tally: Tally):
        for i, (code, _) in enumerate(calls):
            tally.expect(code == 0, f"CLI call {i} exited {code}")
        if any(code != 0 for code, _ in calls):
            return  # a failed call leaves no output to compare
        for i, (_, stdout) in enumerate(calls[1:]):
            with open(os.path.join(self._est_dir(i), "estimate.json")) as f:
                tally.expect(f.read() == stdout, f"estimate {i + 1}: file differs from stdout")
        digest = self.digest(calls)
        if self.reference is None:
            self._check_against_library(calls, tally)
            if self.golden:
                want = _golden(self.name)
                for name, sha in sorted(digest.items()):
                    tally.expect(want.get(name) == sha, f"{name}: SHA-256 differs from baseline.json")
            self.reference = digest
        else:
            for name, sha in sorted(self.reference.items()):
                tally.expect(digest.get(name) == sha, f"{name}: differs from the first pass")

    def _check_against_library(self, calls, tally: Tally):
        cfg = self.config
        u = gm.parse_mass_partition(cfg["partition_u"])
        w = gm.parse_graphon(cfg["graphon_w"])
        sched = gm.RatioSchedule(**cfg["schedule"])
        c = cfg["join"]["c"]
        seq = gm.MixtureSequence(
            u, w, sched.sizes_for(u, cfg["steps"]), cfg=gm.JoinConfig(edge_multiplier_c=c), seed=self.seed
        )
        with open(os.path.join(self.gen_dir, "densities.json")) as f:
            densities = json.load(f)
        for i in range(cfg["steps"]):
            mix = seq.member(i)
            with open(self._edges_path(i)) as f:
                header = f.readline().split()
                rows = np.loadtxt(f, dtype=np.int64, ndmin=2)
            n = int(header[1])
            tally.expect(
                header[0] == "n" and n == mix.graph.node_count and np.array_equal(rows, mix.graph.edges),
                f"graph {i + 1}: edge file differs from the library-built member",
            )
            with open(os.path.join(self.gen_dir, f"provenance_{i + 1:04d}.json")) as f:
                prov = json.load(f)
            rle = np.asarray(prov["origin_rle"], dtype=np.int64).reshape(-1, 2)
            tally.expect(
                prov["m_dense"] + prov["m_sparse"] + prov["m_new"] == rows.shape[0]
                and prov["n_dense"] + prov["n_sparse"] == n
                and prov["m_new"] == math.floor(c * prov["m_dense"] + 0.5)
                and int(rle[:, 1].sum()) == n
                and np.array_equal(np.repeat(rle[:, 0], rle[:, 1]), mix.node_origin)
                and prov["hubs"] == {str(j): v for j, v in sorted(mix.hubs.items())}
                and (prov["n_dense"], prov["m_sparse"], prov["m_new"]) == (mix.n_dense, mix.m_sparse, mix.m_new),
                f"graph {i + 1}: provenance accounting",
            )
            row = densities[i]
            tally.expect(
                row["node_count"] == n
                and row["edge_count"] == rows.shape[0]
                and row["density"] == 2.0 * rows.shape[0] / float(n) ** 2,
                f"graph {i + 1}: densities row",
            )
            est = gm.estimate_partition(gm.degree_spectrum(mix.graph), mode="auto")
            got = json.loads(calls[i + 1][1])
            diag = est.diagnostics
            want_diag = (
                {"cutoff": diag.cutoff, "total_loss": diag.total_loss}
                if isinstance(diag, gm.SegmentFit)
                else {"log_gaps": [float(x) for x in diag]}
            )
            got_diag = {key: got.get("diagnostics", {}).get(key) for key in want_diag}
            tally.expect(
                got["mode"] == est.mode
                and got["k_hat"] == est.k_hat
                and got["p_hat"] == [float(x) for x in est.weights]
                and got_diag == want_diag,
                f"graph {i + 1}: CLI estimate differs from estimate_partition",
            )


# ---------------------------------------------------------------------------
# reference_suites

SUITES = ("table1:topk", "table1:finiteU", "table1:infiniteU")
EXPERIMENTS = (1, 2, 3, 4)


class ReferenceSuites:
    """`run_suite` for the three table-1 suites at scale 1.0, one replicate
    of one experiment per call.  An item, and a latency sample, is one
    replicate."""

    name = "reference_suites"

    def __init__(self, seed: int, tmp: str, tiny: bool = False):
        self.seed = seed
        self.scale = 0.05 if tiny else 1.0
        self.golden = seed == DEFAULT_SEED and not tiny
        self.reference = None

    def make_inputs(self):
        self.plan = [(suite, exp) for suite in SUITES for exp in EXPERIMENTS]

    def warm_up(self):
        for suite in SUITES:
            gm.run_suite(suite, replicates=1, seed=self.seed, scale=0.05, experiments=(1,), workers=1)

    def run_pass(self, k, timer):
        results = []
        for suite, exp in self.plan:
            timer.start()
            results.append(
                gm.run_suite(suite, replicates=1, seed=self.seed, scale=self.scale, experiments=(exp,), workers=1)
            )
            timer.stop()
        return results

    def items(self, results) -> int:
        return len(results)

    def digest(self, results) -> str:
        return _sha(json.dumps([r["aggregates"] for r in results], sort_keys=True))

    def check(self, k, results, tally: Tally):
        for (suite, exp), res in zip(self.plan, results):
            tally.expect(self._valid(suite, exp, res), f"{suite} experiment {exp}: malformed result")
        digest = self.digest(results)
        if self.reference is None:
            if self.golden:
                want = _golden(self.name)["aggregates_sha256"]
                tally.expect(digest == want, "aggregate rows: digest differs from baseline.json")
            self.reference = digest
        else:
            tally.expect(digest == self.reference, "aggregate rows differ from the first pass")

    @staticmethod
    def _valid(suite, exp, res) -> bool:
        if res["suite"] != suite or len(res["rows"]) != 1 or len(res["aggregates"]) != 1:
            return False
        row, agg = res["rows"][0], res["aggregates"][0]
        mapes = [row["mape_proposed"], row["mape_baseline"]]
        ok = (
            row["experiment"] == exp
            and agg["replicates"] == 1
            and row["k_hat"] >= 1
            and agg["k_hat_mean"] == row["k_hat"]
            and all(math.isfinite(x) and x >= 0 for x in mapes)
            and agg["mape_proposed_mean"] == row["mape_proposed"]
        )
        if suite == "table1:topk":
            ok = ok and 0 < row["n_train"] < row["n_test"]
        elif suite == "table1:finiteU":
            u = gm.parse_mass_partition(gm.experiments.FINITE_U_EXPERIMENTS[exp])
            ok = ok and row["k_true"] == len(u)
        else:
            ok = ok and 0 < row["covered_mass"] <= 1 + 1e-12
        return bool(ok)


# ---------------------------------------------------------------------------
# linegraph_roundtrip


def star_signature(g) -> list | None:
    """Sorted star sizes of a star forest (an isolated edge is K_{1,1}),
    or None when some component is not a star.  Uses its own union-find
    so the check does not depend on the code under test."""
    n = g.node_count
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = g.edges.tolist()
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    deg = np.bincount(g.edges.ravel(), minlength=n).tolist() if edges else [0] * n
    nodes, size, top = {}, {}, {}
    for x in range(n):
        r = find(x)
        nodes[r] = nodes.get(r, 0) + 1
        top[r] = max(top.get(r, 0), deg[x])
    for a, _ in edges:
        r = find(a)
        size[r] = size.get(r, 0) + 1
    sig = []
    for r, e in size.items():
        if e != nodes[r] - 1 or top[r] != e:
            return None
        sig.append(e)
    return sorted(sig)


def _latin(rng, count: int, high: int) -> np.ndarray:
    """``count`` integers, each uniform on 1..high, drawn one from each of
    ``count`` equal slices of the range and returned in random order
    (Latin hypercube sampling), so their spread hardly varies by seed."""
    return 1 + ((rng.permutation(count) + rng.random(count)) * (high / count)).astype(np.int64)


MAX_ISOLATED = 4


def draw_forests(rng, count: int, max_stars: int = 50, max_size: int = 100):
    """(star sizes, isolated edges) for ``count`` star forests with
    acceptance criterion 6's size law: star count uniform on
    1..max_stars, star sizes uniform on 1..max_size, isolated edges
    uniform on 0..MAX_ISOLATED.  Star counts and star sizes are Latin
    hypercube samples, so the per-forest work, and with it the latency
    percentiles, stay steady across seeds."""
    return [
        (_latin(rng, int(k), max_size).tolist(), int(rng.integers(0, MAX_ISOLATED + 1)))
        for k in _latin(rng, count, max_stars)
    ]


class LinegraphRoundtrip:
    """star_forest -> line_graph -> inverse_line_graph_disjoint on star
    forests, plus a bare join_graphs call (no sparse_meta) per forest so
    the derived-provenance path runs.  An item, and a latency sample, is
    one forest."""

    name = "linegraph_roundtrip"
    FORESTS = 12
    DENSE_NODES = 30

    def __init__(self, seed: int, tmp: str, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        # c = 0.1 keeps m_new (about 22) well inside the 30 x 2 cross pairs
        # of the smallest possible forest, a single K_{1,1}
        self.join_cfg = gm.JoinConfig(edge_multiplier_c=0.1)
        self.reference = None
        self.mismatch = []  # derived-vs-exact provenance differences per pass

    def make_inputs(self):
        shape = dict(count=6, max_stars=10, max_size=20) if self.tiny else dict(count=self.FORESTS)
        rng = np.random.default_rng(self.seed)
        self.forests = draw_forests(rng, **shape)
        a, b = np.triu_indices(self.DENSE_NODES, k=1)
        keep = rng.random(a.size) < 0.5
        self.dense = gm.Graph(self.DENSE_NODES, np.column_stack([a[keep], b[keep]]))

    def warm_up(self):
        g, _ = gm.star_forest([3, 2, 1], isolated_edges=1)
        gm.inverse_line_graph_disjoint(gm.line_graph(g))
        gm.join_graphs(self.dense, g, self.join_cfg, np.random.default_rng(0))

    def run_pass(self, k, timer):
        out = []
        for f, (stars, iso) in enumerate(self.forests):
            rng = np.random.default_rng([self.seed, f])
            timer.start()
            g, hubs = gm.star_forest(stars, isolated_edges=iso)
            h = gm.line_graph(g)
            back = gm.inverse_line_graph_disjoint(h)
            mix = gm.join_graphs(self.dense, g, self.join_cfg, rng)
            timer.stop()
            out.append((stars, iso, g, hubs, h, back, mix))
        return out

    def items(self, out) -> int:
        return len(out)

    def digest(self, out) -> str:
        parts = []
        for _, _, g, _, h, back, mix in out:
            parts += [g.edges.tobytes(), h.edges.tobytes(), back.edges.tobytes()]
            parts += [mix.graph.edges.tobytes(), mix.node_origin.tobytes(), json.dumps(sorted(mix.hubs.items()))]
        return _sha(*parts)

    def check(self, k, out, tally: Tally):
        n_d, m_d = self.dense.node_count, self.dense.edge_count
        origin = gm.NodeOrigin
        mismatch = 0
        for f, (stars, iso, g, hubs, h, back, mix) in enumerate(out):
            sig = star_signature(g)
            tally.expect(
                sig == sorted(stars + [1] * iso) and star_signature(back) == sig,
                f"forest {f}: inverse(line(G)) is not isomorphic to G",
            )
            deg = np.bincount(g.edges.ravel(), minlength=g.node_count)
            tally.expect(
                h.node_count == g.edge_count and h.edge_count == int((deg * (deg - 1) // 2).sum()),
                f"forest {f}: line graph size",
            )
            e = mix.graph.edges
            dense_rows = e[e[:, 1] < n_d]
            sparse_rows = e[e[:, 0] >= n_d] - n_d
            cross = (e[:, 0] < n_d) & (e[:, 1] >= n_d)
            tally.expect(
                mix.graph.node_count == n_d + g.node_count
                and mix.m_new == math.floor(self.join_cfg.edge_multiplier_c * m_d + 0.5)
                and np.array_equal(dense_rows, self.dense.edges)
                and np.array_equal(sparse_rows, g.edges)
                and int(cross.sum()) == mix.m_new,
                f"forest {f}: join node and edge conservation",
            )
            exact = np.full(g.node_count, origin.SPARSE_LEAF, dtype=np.int8)
            exact[hubs] = origin.SPARSE_HUB
            exact[sum(stars) + len(stars) :] = origin.SPARSE_ISOLATED
            mismatch += int(np.count_nonzero(mix.node_origin[n_d:] != exact))
        self.mismatch.append(mismatch)
        digest = self.digest(out)
        if self.reference is not None:
            tally.expect(digest == self.reference, "outputs differ from the first pass")
        self.reference = digest

    def layer_counts(self) -> dict:
        return {"mixture.derived_origin_mismatch": float(np.mean(self.mismatch)) if self.mismatch else 0.0}


# ---------------------------------------------------------------------------
# temporal_forecast

# every snapshot, train time and train time + horizon lies inside the
# stream's 1..T_MAX, so each forecast has a test graph to compare with
SNAP_TIMES = (40, 70, eventgen.T_MAX)
TRAIN_TIMES = (60, 80)
HORIZONS = (5, 10, 20)
assert max(TRAIN_TIMES) + max(HORIZONS) <= eventgen.T_MAX
TOP_K = 10


class TemporalForecast:
    """parse_edge_events -> serialize_edge_events -> snapshot_at on a
    bench-generated event stream, then evaluation_run for each (train
    time, horizon) pair.  An item is an input event; a latency sample is
    one public call."""

    name = "temporal_forecast"

    def __init__(self, seed: int, tmp: str, tiny: bool = False):
        self.seed = seed
        self.size = dict(n_events=5_000, n_nodes=1_000, n_hubs=10) if tiny else {}
        self.reference = None

    def make_inputs(self):
        self.stream = eventgen.make_stream(self.seed, **self.size)

    def warm_up(self):
        tel = gm.parse_edge_events(eventgen.make_stream(self.seed, 2_000, 500, n_hubs=5).lines)
        gm.serialize_edge_events(tel, io.StringIO())
        gm.evaluation_run(tel, [50], [10], 3)

    def run_pass(self, k, timer):
        timer.start()
        tel = gm.parse_edge_events(self.stream.lines)
        timer.stop()
        buf = io.StringIO()
        timer.start()
        gm.serialize_edge_events(tel, buf)
        timer.stop()
        snaps = []
        for t in SNAP_TIMES:
            timer.start()
            g = gm.snapshot_at(tel, t)
            timer.stop()
            snaps.append(g)
        evals = []
        for tt in TRAIN_TIMES:
            for h in HORIZONS:
                timer.start()
                evals.append(gm.evaluation_run(tel, [tt], [h], TOP_K))
                timer.stop()
        return tel, buf.getvalue(), snaps, evals

    def items(self, out) -> int:
        return len(self.stream.lines)

    def digest(self, out) -> str:
        tel, text, snaps, evals = out
        parts = [text, "\n".join(tel.node_ids), tel.edge_t.tobytes(), tel.node_first_t.tobytes()]
        parts += [repr(tel.rejects), json.dumps(evals)]
        parts += [g.edges.tobytes() for g in snaps]
        return _sha(*parts)

    def check(self, k, out, tally: Tally):
        digest = self.digest(out)
        if self.reference is None:
            self._check_against_truth(out, tally)
            self.reference = digest
        else:
            tally.expect(digest == self.reference, "outputs differ from the first pass")

    def _check_against_truth(self, out, tally: Tally):
        tel, text, snaps, evals = out
        truth = self.stream
        reasons = {key: sum(r.startswith(key) for _, r in tel.rejects) for key in truth.rejects}
        tally.expect(
            reasons == truth.rejects and len(tel.rejects) == sum(truth.rejects.values()),
            f"rejects {reasons} != generated {truth.rejects}",
        )
        tally.expect(
            len(tel.events) == truth.kept_t.size
            and _sha(text) == truth.kept_sha256
            and tel.node_ids == truth.node_ids
            and np.array_equal(tel.edge_t, truth.kept_t)
            and np.array_equal(tel.node_first_t, truth.node_first_t),
            "parsed events differ from the generator's ground truth",
        )
        back = gm.parse_edge_events(text.splitlines())
        tally.expect(
            back.events == tel.events and back.node_ids == tel.node_ids and not back.rejects,
            "serialize -> parse does not round-trip",
        )
        for t, g in zip(SNAP_TIMES, snaps):
            tally.expect(
                g.node_count == truth.nodes_at(t) and g.edge_count == truth.edges_at(t),
                f"snapshot at t={t}: size differs from the ground truth",
            )
        pairs = [(tt, h) for tt in TRAIN_TIMES for h in HORIZONS]
        for (tt, h), (summary, detail) in zip(pairs, evals):
            n_tr, n_te = truth.nodes_at(tt), truth.nodes_at(tt + h)
            train, actual = truth.top_degrees(tt, TOP_K), truth.top_degrees(tt + h, TOP_K)
            predicted = train * (n_te / n_tr)
            ok = len(summary) == 1 and len(detail) == TOP_K
            if ok:
                row = summary[0]
                want_mape = 100.0 * np.mean(np.abs((predicted - actual) / actual))
                ok = (
                    (row["n_train"], row["n_test"]) == (n_tr, n_te)
                    and [d["actual"] for d in detail] == actual.tolist()
                    and np.allclose([d["predicted_proposed"] for d in detail], predicted, rtol=1e-12, atol=0)
                    and math.isclose(row["mape_proposed"], want_mape, rel_tol=1e-9)
                    and math.isfinite(row["mape_baseline"])
                )
            tally.expect(ok, f"forecast train_t={tt} horizon={h}: differs from the node-ratio law")


WORKLOADS = {
    w.name: w for w in (CliReadmeSequence, ReferenceSuites, LinegraphRoundtrip, TemporalForecast)
}
