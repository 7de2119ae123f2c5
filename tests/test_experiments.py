"""Reference suites and the synthetic temporal fixture."""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest

from graphmix import (
    CapacityError,
    JoinConfig,
    MixtureSequence,
    parse_graphon,
    parse_mass_partition,
    run_suite,
)
from graphmix import experiments as experiments_module

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
        (dict(scale=float("nan")), "scale must be a positive finite number, got nan"),
        (dict(scale=float("inf")), "scale must be a positive finite number, got inf"),
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


# the second case has no dense edges at all, so it places no joins
@pytest.mark.parametrize("sizes", [[(10, 20), (10, 30), (25, 60), (40, 60)], [(1, 5), (1, 10)]])
def test_fixture_joins_accumulate_to_target(sizes):
    c = 0.7
    events = growth("mass:[0.5,0.3]", sizes, c, 5).events()
    dense = [t for a, b, t in events if a[0] == b[0] == "d"]
    joins = [(a, b, t) for a, b, t in events if a[0] == "d" and b[0] != "d"]
    for step, (n_d, m_s) in enumerate(sizes, start=1):
        m_dense = sum(t <= step for t in dense)
        placed = [(int(a[1:]), b) for a, b, t in joins if t <= step]
        assert len(placed) == int(np.floor(c * m_dense + 0.5))
        assert len(set(placed)) == len(placed)
        for a, b in placed:
            # only leaves s<i> of the current step, never hubs or s<i>b
            assert b[0] == "s" and b[1:].isdigit() and int(b[1:]) < m_s
            assert a < n_d


def test_fixture_shares_latents_with_sequence():
    sizes = [(10, 40), (20, 80), (30, 120)]
    seq = growth("mass:[0.5,0.3]", sizes, 0.5, 9)
    events = seq.events()
    mix = seq.member(len(sizes) - 1)
    n_d = mix.n_dense

    dense = sorted(
        (int(a[1:]), int(b[1:])) for a, b, _ in events if a[0] == b[0] == "d"
    )
    e = mix.graph.edges
    assert dense == [tuple(r) for r in e[(e < n_d).all(axis=1)].tolist()]

    sparse_deg = np.bincount(e[(e >= n_d).all(axis=1)].ravel(), minlength=mix.graph.node_count)
    for j, hub in mix.hubs.items():
        spokes = sum(1 for a, _, _ in events if a == f"h{j}")
        assert spokes == sparse_deg[hub]
