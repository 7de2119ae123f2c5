"""Reference suites and the synthetic temporal fixture."""

import hashlib
import io
import json
import os
from unittest import mock

import numpy as np
import pytest

from graphmix import (
    CapacityError,
    JoinConfig,
    MixtureSequence,
    build_temporal_fixture,
    parse_edge_events,
    parse_graphon,
    parse_mass_partition,
    run_suite,
    serialize_edge_events,
    snapshot_at,
)
from graphmix import experiments as experiments_module

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "synthetic_growth.events")

# SHA-256 of json.dumps(run_suite(name, replicates=2, seed=0, scale=0.05),
# sort_keys=True); any change to seeding, sizing, sampling or estimation
# in a suite shows up here.
GOLDEN = {
    "table1:topk": "bf5fe04eecbad432f87b4599e4a26a3a11eb5f8e79868a48b1db00d5f92fb7c1",
    "table1:finiteU": "a7d0782416f0c108f33ae15c96ae937477042b3ef808c29e8c8b21ebb069aa69",
    "table1:infiniteU": "9df9a1a84f81fa377b2eb676929869af4be1c150f7f66a76a2c51730db729e94",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_suite_output_is_pinned(name):
    result = run_suite(name, replicates=2, seed=0, scale=0.05)
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN[name]


def test_suite_defaults_and_shape():
    result = run_suite("table1:infiniteU", scale=0.02, experiments=(2,))
    assert result["suite"] == "table1:infiniteU"
    assert [r["replicate"] for r in result["rows"]] == [0, 1, 2, 3, 4]
    (agg,) = result["aggregates"]
    assert list(agg)[:3] == ["experiment", "partition", "replicates"]
    assert agg["replicates"] == 5
    assert "covered_mass_mean" in agg


@pytest.mark.parametrize("replicates", [0, -1])
def test_suite_rejects_fewer_than_one_replicate(replicates):
    with pytest.raises(ValueError, match=rf"^replicates must be an integer >= 1, got {replicates}$"):
        run_suite("table1:topk", replicates=replicates, scale=0.05)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(scale=float("nan")), "scale must be a finite number > 0, got nan"),
        (dict(scale=float("inf")), "scale must be a finite number > 0, got inf"),
        (dict(workers=0), "workers must be an integer >= 1, got 0"),
    ],
    ids=["scale-nan", "scale-inf", "workers-0"],
)
def test_suite_rejects_bad_scale_and_workers(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_suite("table1:topk", replicates=1, **{"scale": 0.02, **kwargs})


@pytest.mark.parametrize("experiments", [(5,), (1, 0), (2, "3")])
def test_suite_rejects_unknown_experiment_ids(experiments):
    # checked before any replicate is seeded, so experiment 1 never runs
    with mock.patch.object(experiments_module, "_replicate_seeds", side_effect=AssertionError):
        with pytest.raises(ValueError, match=r"unknown experiment ids .*; choose from 1, 2, 3, 4$"):
            run_suite("table1:topk", replicates=1, scale=0.02, experiments=experiments)


def test_suite_replicates_do_not_depend_on_selection():
    both = run_suite("table1:finiteU", replicates=2, seed=4, scale=0.03, experiments=(1, 2))
    second = run_suite("table1:finiteU", replicates=2, seed=4, scale=0.03, experiments=(2,))
    assert both["rows"][2:] == second["rows"]
    assert both["aggregates"][1:] == second["aggregates"]


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_replicate_names_where_it_failed(workers):
    # at this scale a topk train graph keeps too few unique degrees to fit
    with pytest.raises(ValueError) as info:
        run_suite("table1:topk", replicates=1, scale=0.01, experiments=(3,), workers=workers)
    seed = experiments_module._replicate_seeds(3, 1)[0]
    assert str(info.value) == (
        f"table1:topk experiment 3 replicate 0 (seed {seed}): "
        "only 5 unique degrees above the percentile cutoff, need 6"
    )


def test_suite_workers_do_not_change_results():
    # workers > 1 runs replicates in a process pool
    kwargs = dict(replicates=2, seed=0, scale=0.02, experiments=(1, 2))
    assert run_suite("table1:finiteU", workers=2, **kwargs) == run_suite(
        "table1:finiteU", workers=1, **kwargs
    )


def growth(u_text, sizes, c, seed):
    return MixtureSequence(
        parse_mass_partition(u_text), parse_graphon("exp_sum"), sizes, JoinConfig(c), seed
    )


def test_fixture_raises_when_joins_cannot_fit():
    # 12 dense x 1 sparse node give 12 cross pairs; c=1 asks for 30
    seq = growth("power:1.2:2:50", [(12, 1)], 1.0, 0)
    with pytest.raises(CapacityError, match="cannot place 30 distinct cross edges between 12 x 1"):
        seq.events()


def test_fixture_refuses_an_overflowing_join_count_like_a_member():
    # c * m_dense is inf: events() and member() raise the same CapacityError
    seq = growth("mass:[0.5]", [(10, 20), (20, 40)], 1e308, 0)
    with pytest.raises(CapacityError, match=r"^cannot place inf distinct cross edges between 10 x "):
        seq.member(0)
    with pytest.raises(CapacityError, match=r"^cannot place inf distinct cross edges between 10 x 20 "):
        seq.events()


# the second case has no dense edges at all, so it places no joins
@pytest.mark.parametrize("sizes", [[(10, 20), (10, 30), (25, 60), (40, 60)], [(1, 5), (1, 10)]])
def test_fixture_joins_accumulate_to_target(sizes):
    c = 0.7
    tel = growth("mass:[0.5,0.3]", sizes, c, 5).events()
    kind = np.array([x[0] for x in tel.node_ids])  # d, h or s
    u_kind, v_kind = kind[tel.edge_u], kind[tel.edge_v]
    dense = tel.edge_t[(u_kind == "d") & (v_kind == "d")]
    joins = (u_kind == "d") & (v_kind != "d")
    for step, (n_d, m_s) in enumerate(sizes, start=1):
        m_dense = np.count_nonzero(dense <= step)
        at = joins & (tel.edge_t <= step)
        placed = [
            (int(tel.node_ids[a][1:]), tel.node_ids[b])
            for a, b in zip(tel.edge_u[at].tolist(), tel.edge_v[at].tolist())
        ]
        assert len(placed) == int(np.floor(c * m_dense + 0.5))
        assert len(set(placed)) == len(placed)
        for a, b in placed:
            # only leaves s<i> of the current step, never hubs or s<i>b
            assert b[0] == "s" and b[1:].isdigit() and int(b[1:]) < m_s
            assert a < n_d


def test_fixture_shares_latents_with_sequence():
    sizes = [(10, 40), (20, 80), (30, 120)]
    seq = growth("mass:[0.5,0.3]", sizes, 0.5, 9)
    tel = seq.events()
    index = {name: i for i, name in enumerate(tel.node_ids)}
    # the snapshot at step t holds member t - 1's dense edges and stars
    for t, mix in enumerate(seq, start=1):
        snap = snapshot_at(tel, t)
        n_d = mix.n_dense

        names = [(tel.node_ids[a], tel.node_ids[b]) for a, b in snap.edges.tolist()]
        dense = sorted(
            tuple(sorted((int(a[1:]), int(b[1:])))) for a, b in names if a[0] == b[0] == "d"
        )
        e = mix.graph.edges
        assert dense == [tuple(r) for r in e[(e < n_d).all(axis=1)].tolist()]

        sparse_deg = np.bincount(e[(e >= n_d).all(axis=1)].ravel(), minlength=mix.graph.node_count)
        spokes = snap.degrees()  # joins never touch a hub
        for j, hub in mix.hubs.items():
            assert spokes[index[f"h{j}"]] == sparse_deg[hub]


@pytest.mark.parametrize(
    "u_text, sizes, c",
    [
        ("mass:[0.5,0.3]", [(10, 40), (20, 80), (30, 120)], 0.5),
        ("mass:[0.5,0.3]", [(1, 5), (1, 10)], 0.7),  # no dense edge
        ("mass:[0.2]", [(10, 40), (30, 80)], 1.0),  # most vertices are leftover: s<i> s<i>b
    ],
)
def test_event_stream_keeps_every_generated_row(u_text, sizes, c):
    # one row per dense edge, per sparse vertex and per cross pair of the
    # last step, which holds them all; no two rows share a pair
    seq = growth(u_text, sizes, c, 3)
    tel, last = seq.events(), seq.member(len(sizes) - 1)
    assert tel.edge_t.size == last.m_dense + last.m_sparse + last.m_new
    assert tel.rejects == ()


def test_fixture_is_the_parse_of_the_bundled_file():
    with open(FIXTURE, encoding="utf-8") as f:
        assert build_temporal_fixture(0) == parse_edge_events(f.read().splitlines())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fixture_serializes_and_parses_back(seed):
    tel = build_temporal_fixture(seed)
    buf = io.StringIO()
    serialize_edge_events(tel, buf)
    assert parse_edge_events(buf.getvalue().splitlines()) == tel
