"""End-to-end CLI behavior: exit codes, files written, determinism."""

import argparse
import codecs
import io
import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest

from graphmix import (
    JoinConfig,
    MixtureSequence,
    RatioSchedule,
    evaluation_run,
    generate_mixture,
    join_graphs,
    parse_edge_events,
    parse_graphon,
    parse_mass_partition,
    read_edge_list,
    snapshot_at,
    star_forest,
    write_edge_list,
)
from graphmix import SUITE_NAMES, cli
from graphmix.cli import main
from graphmix.graphon import sample_w_random_graph

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "synthetic_growth.events")


def write_graph_file(path, g):
    with open(path, "w") as f:
        write_edge_list(g, f)


def three_star_mixture():
    g_d = sample_w_random_graph(parse_graphon("const:0.05"), 40, np.random.default_rng(3))
    g_s, _ = star_forest([300, 200, 100])
    return join_graphs(g_d, g_s, JoinConfig(edge_multiplier_c=1.0), np.random.default_rng(4))


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out
    assert main(["experiment", "--help"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in SUITE_NAMES)


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert [line[:7] for line in capsys.readouterr().err.splitlines()] == ["error: "] * 2


def test_unknown_suite_is_usage_error(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "o"), "experiment", "--suite", "table9:nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --suite: invalid choice: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_generate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 2

    cfg.write_text(json.dumps({"partition_u": "mass:[1.0]", "graphon_w": "bogus"}))
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 2

    assert main(["generate", "--config", str(tmp_path / "missing.json")]) == 2

    cfg.write_text("[1, 2]")
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4
    assert err.endswith("error: bad generate config: expected a JSON object\n")
    assert not (tmp_path / "o").exists()


_GOOD_CONFIG = (
    '"partition_u": "mass:[0.5,0.3]", "graphon_w": "const:0.1", '
    '"schedule": {"kind": "constant", "a": 1.0, "base_n_d": 20}'
)


@pytest.mark.parametrize(
    "extra",
    [
        '"join": {"c": Infinity}',
        '"join": {"c": NaN}',
        '"join": {"c": -1}',
        '"join": {"d": 1.0}',
        '"join": {"c": true}',
        '"schedule": {"a": true}',
        '"schedule": {"base_n_d": true}',
        '"join": [1]',
        '"join": [["c", 0.5]]',
        '"join": []',
        '"schedule": {"a": Infinity}',
        '"schedule": {"a": NaN}',
        '"schedule": {"base_n_d": 20.7}',
        '"schedule": {"base_nd": 20}',
        '"schedule": {"a": 1e308}',
        '"steps": 1.9',
        '"steps": 0',
        '"stepz": 3',
        '"seed": "7"',
        '"seed": -1',
        '"partition_u": "power:1.2:0:5"',
        '"partition_u": "geom:0:2:5"',
        '"partition_u": "mass:[true]"',
        '"partition_u": "mass:[0.2, false]"',
        '"partition_u": "mass:[\\"0.5\\"]"',
    ],
    ids=lambda extra: extra.replace('"', ""),
)
def test_generate_rejects_bad_config_values(extra, tmp_path, capsys):
    # a later duplicate key overrides the good value
    cfg = tmp_path / "c.json"
    cfg.write_text("{" + _GOOD_CONFIG + ", " + extra + "}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and caught == []
    assert err.startswith("error: bad generate config: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_generate_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "partition_u": "mass:[0.6666666666666666,0.3333333333333333]",
                "graphon_w": "exp_sum",
                "schedule": {"kind": "constant", "a": 1.5, "base_n_d": 25},
                "steps": 2,
                "join": {"c": 1.0},
            }
        )
    )
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--seed", "5", "--out", str(d1), "generate", "--config", str(cfg)]) == 0
    assert main(["--seed", "5", "--out", str(d2), "generate", "--config", str(cfg)]) == 0
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    assert "graph_0001.edges" in names and "densities.json" in names
    assert "provenance_0002.json" in names
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    prov = json.loads((d1 / "provenance_0001.json").read_text())
    g = read_edge_list(io.StringIO((d1 / "graph_0001.edges").read_text()))
    assert g.node_count == prov["n_dense"] + prov["n_sparse"]
    assert g.edge_count == prov["m_dense"] + prov["m_sparse"] + prov["m_new"]
    assert sum(run for _, run in prov["origin_rle"]) == g.node_count
    u = parse_mass_partition("mass:[0.6666666666666666,0.3333333333333333]")
    seq = MixtureSequence(
        u,
        parse_graphon("exp_sum"),
        RatioSchedule("constant", a=1.5, base_n_d=25).sizes_for(u, 2),
        cfg=JoinConfig(edge_multiplier_c=1.0),
        seed=5,
    )
    for i in range(2):
        prov = json.loads((d1 / f"provenance_{i + 1:04d}.json").read_text())
        values, runs = zip(*prov["origin_rle"])
        assert all(a != b for a, b in zip(values, values[1:]))  # maximal runs
        decoded = np.repeat(values, runs)
        np.testing.assert_array_equal(decoded, seq.member(i).node_origin)
    capsys.readouterr()


def test_generate_names_the_schedule_step_whose_target_overflows(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    schedule = '"schedule": {"kind": "quadratic", "a": 1e306, "base_n_d": 10}, "steps": 3'
    cfg.write_text("{" + _GOOD_CONFIG + ", " + schedule + "}")
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: bad generate config: sparse node target inf is not finite "
        "(schedule a=1e+306, step 3)\n"
    )
    assert not (tmp_path / "o").exists()


def test_generate_names_a_base_n_d_too_large_for_a_float(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{" + _GOOD_CONFIG + ', "schedule": {"base_n_d": 1' + "0" * 400 + "}}")
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: bad generate config: sparse node target inf is not finite "
        "(schedule base_n_d too large, step 1)\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ('"schedule": []', "schedule must be a JSON object"),
        ('"join": []', "join must be a JSON object"),
        ('"schedule": {"foo": 1}', "unknown keys ['schedule.foo']"),
        ('"join": {"foo": 1}', "unknown keys ['join.foo']"),
        ('"join": {"foo": 1}, "schedule": {"bar": 2}', "unknown keys ['join.foo', 'schedule.bar']"),
    ],
    ids=lambda value: value.replace('"', ""),
)
def test_generate_checks_schedule_and_join_alike(extra, message, tmp_path, capsys):
    # a later duplicate key overrides the good value
    cfg = tmp_path / "c.json"
    cfg.write_text("{" + _GOOD_CONFIG + ", " + extra + "}")
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad generate config: {message}\n"
    assert not (tmp_path / "o").exists()


def test_huge_join_multiplier_is_capacity_error(tmp_path, capsys):
    # c * m_dense overflows to inf; the join must refuse it before rounding
    cfg = tmp_path / "c.json"
    cfg.write_text("{" + _GOOD_CONFIG + ', "join": {"c": 1e308}}')
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot place inf distinct cross edges") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_allocation_failures_are_one_line(tmp_path, capsys):
    # 2**59 nodes ask numpy for 4 EiB, which fails at once on any 64-bit machine
    huge = 2**59
    graph = tmp_path / "huge.edges"
    graph.write_text(f"n {huge}\n0 1\n1 2\n")
    cfg = tmp_path / "c.json"
    cfg.write_text("{" + _GOOD_CONFIG + f', "schedule": {{"base_n_d": {huge}}}}}')
    assert main(["estimate", "--input", str(graph)]) == 3
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: out of memory: ") for line in lines)
    assert "Traceback" not in err


def test_estimate_input_errors(tmp_path, capsys):
    assert main(["estimate", "--input", str(tmp_path / "missing.edges")]) == 2
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    assert main(["estimate", "--input", str(empty)]) == 2
    capsys.readouterr()


def test_estimate_too_small_is_data_error(tmp_path, capsys):
    path = tmp_path / "k2.edges"
    path.write_text("n 2\n0 1\n")
    assert main(["estimate", "--input", str(path)]) == 3
    assert "estimation failed" in capsys.readouterr().err


def test_estimate_auto_failure_is_one_line(tmp_path, capsys, caplog):
    # no unique degree survives --percentile 100: both rules fail, and the
    # auto-mode fallback warning must not precede the error
    path = tmp_path / "mix.edges"
    write_graph_file(path, three_star_mixture().graph)
    assert main(["estimate", "--input", str(path), "--percentile", "100"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: estimation failed: ") and err.count("\n") == 1
    assert caplog.records == []


def test_estimate_bad_truth_is_usage_error(tmp_path, capsys):
    path = tmp_path / "three_star.edges"
    write_graph_file(path, three_star_mixture().graph)
    assert main(["estimate", "--input", str(path), "--truth", "bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: bad --truth: ")
    assert err.count("\n") == 1
    assert main(["estimate", "--input", str(path), "--truth", "power:1:2"]) == 2
    assert capsys.readouterr().err == (
        "error: bad --truth: bad partition literal 'power:1:2': "
        "not enough values to unpack (expected 3, got 2)\n"
    )
    assert main(["estimate", "--input", str(path), "--truth", "mass:[0.5, true]"]) == 2
    assert capsys.readouterr().err == (
        "error: bad --truth: bad partition literal 'mass:[0.5, true]': "
        "mass literal must be a JSON list of numbers\n"
    )


def test_estimate_three_star_file(tmp_path, capsys):
    mix = three_star_mixture()
    path = tmp_path / "mix.edges"
    write_graph_file(path, mix.graph)
    out = tmp_path / "est"
    truth = "mass:[0.5,0.3333333333333333,0.16666666666666666]"
    code = main(
        ["--out", str(out), "estimate", "--input", str(path), "--truth", truth]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["mode"] == "finite"
    assert result["k_hat"] == 3
    np.testing.assert_allclose(result["p_hat"], [0.5, 1 / 3, 1 / 6], atol=0.02)
    assert result["mape_vs_truth"] < 5.0
    assert "log_gaps" in result["diagnostics"]
    on_disk = json.loads((out / "estimate.json").read_text())
    assert on_disk == result


def write_power_mixture(path):
    u = parse_mass_partition("power:1.2:2:50")
    mix = generate_mixture(u, parse_graphon("exp_sum"), 120, 20000,
                           rng=np.random.default_rng(7))
    write_graph_file(path, mix.graph)


def test_estimate_plot_data_series(tmp_path, capsys):
    path = tmp_path / "pow.edges"
    write_power_mixture(path)
    code = main(
        [
            "--out", str(tmp_path / "est"),
            "estimate", "--input", str(path), "--mode", "infinite",
            "--plot-data", "--sparse-edges", "20000",
        ]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["mode"] == "infinite"
    series = result["plot_data"]
    assert set(series) == {"observed", "segment1", "segment2", "reference"}
    assert len(series["segment1"]) == result["diagnostics"]["cutoff"] == result["k_hat"]
    assert len(series["segment1"]) + len(series["segment2"]) == len(series["observed"])
    assert len(series["reference"]) == len(series["observed"])


def test_estimate_sparse_edges_alone_turns_on_plot_data(tmp_path, capsys):
    path = tmp_path / "pow.edges"
    write_power_mixture(path)
    argv = ["estimate", "--input", str(path), "--mode", "infinite", "--sparse-edges", "20000"]
    assert main(argv) == 0
    alone = json.loads(capsys.readouterr().out)
    assert main(argv + ["--plot-data"]) == 0
    assert alone == json.loads(capsys.readouterr().out)
    assert "plot_data" in alone


def test_predict_writes_tables(tmp_path, capsys):
    out = tmp_path / "pred"
    code = main(
        [
            "--out", str(out), "--format", "csv",
            "predict", "--data", FIXTURE,
            "--train-times", "6,8", "--horizons", "0,2", "--k", "5",
        ]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    for row in rows:
        if row["horizon"] == 0:
            assert row["mape_proposed"] == 0.0
    summary_csv = (out / "prediction_summary.csv").read_text().splitlines()
    assert summary_csv[0].startswith("train_t,horizon,")
    assert len(summary_csv) == 5
    detail_csv = (out / "prediction_detail.csv").read_text().splitlines()
    assert len(detail_csv) == 1 + 4 * 5

    out2 = tmp_path / "pred_json"
    assert main(
        [
            "--out", str(out2),
            "predict", "--data", FIXTURE,
            "--train-times", "6", "--horizons", "2", "--k", "5",
        ]
    ) == 0
    capsys.readouterr()
    assert json.loads((out2 / "prediction_summary.json").read_text())


def test_commands_without_out_write_no_files(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "inputs" / "mix.edges"
    graph.parent.mkdir()
    write_graph_file(graph, three_star_mixture().graph)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["estimate", "--input", str(graph)]) == 0
    assert main(
        ["predict", "--data", FIXTURE, "--train-times", "6", "--horizons", "2", "--k", "5"]
    ) == 0
    assert main(
        ["--scale", "0.02", "experiment", "--suite", "table1:finiteU",
         "--replicates", "1"]
    ) == 0
    capsys.readouterr()
    assert os.listdir(work) == []


def test_unusable_out_is_data_error(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "mix.edges"
    write_graph_file(graph, three_star_mixture().graph)
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    monkeypatch.chdir(tmp_path)
    bad_out = str(blocker / "sub")
    assert main(["--out", bad_out, "estimate", "--input", str(graph)]) == 3
    assert main(["--out", bad_out, "fixture"]) == 3
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("error: ") for line in lines)
    assert "Traceback" not in err


def test_predict_out_of_range_is_data_error(capsys):
    code = main(
        ["predict", "--data", FIXTURE, "--train-times", "99", "--horizons", "0"]
    )
    assert code == 3
    assert "no evaluable" in capsys.readouterr().err


def test_integers_beyond_int64_are_input_errors(tmp_path, capsys):
    big = "99999999999999999999"
    files = (
        ("endpoint.edges", f"n 3\n0 1\n1 {big}\n"),
        ("count.edges", f"n {big}\n0 1\n"),
        ("uint64.edges", f"n 5\n0 1\n1 {2**63}\n"),  # beyond int64, inside uint64
    )
    for name, text in files:
        path = tmp_path / name
        path.write_text(text)
        assert main(["estimate", "--input", str(path)]) == 2
    events = tmp_path / "big.events"
    events.write_text(f"a b 1\nb c {big}\na c 2\n")  # 1 of 3 rows rejected: above 10%
    argv = ["predict", "--data", str(events), "--train-times", "1", "--horizons", "1", "--k", "1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("error: ") for line in lines)
    assert all("out of range" in line for line in lines[:3])
    assert "Traceback" not in err


def test_predict_bad_times_flag(capsys):
    code = main(
        ["predict", "--data", FIXTURE, "--train-times", "six", "--horizons", "0"]
    )
    assert code == 2
    capsys.readouterr()


def test_experiment_suite_files_and_determinism(tmp_path, capsys):
    argv_tail = [
        "experiment", "--suite", "table1:finiteU", "--replicates", "2",
    ]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "0", "--scale", "0.05", "--out", str(d1)] + argv_tail) == 0
    first_stdout = capsys.readouterr().out
    assert main(["--seed", "0", "--scale", "0.05", "--out", str(d2)] + argv_tail) == 0
    capsys.readouterr()
    agg = "table1_finiteU_aggregates.json"
    rows = "table1_finiteU_rows.json"
    assert (d1 / agg).read_bytes() == (d2 / agg).read_bytes()
    assert (d1 / rows).read_bytes() == (d2 / rows).read_bytes()
    aggregates = json.loads(first_stdout)
    assert [a["experiment"] for a in aggregates] == [1, 2, 3, 4]
    assert all(a["replicates"] == 2 for a in aggregates)


def test_experiment_replicates_default_to_the_suite(capsys):
    assert main(["--scale", "0.02", "experiment", "--suite", "table1:infiniteU"]) == 0
    aggregates = json.loads(capsys.readouterr().out)
    assert [a["replicates"] for a in aggregates] == [5, 5, 5, 5]


def test_experiment_estimation_failure_is_data_error(tmp_path, capsys):
    # at this scale a topk train graph keeps too few unique degrees to fit
    argv = ["--scale", "0.01", "--out", str(tmp_path / "o"),
            "experiment", "--suite", "table1:topk", "--replicates", "1"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: table1:topk experiment 3 replicate 0 (seed 12467808127879573787): "
        "only 5 unique degrees above the percentile cutoff, need 6\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("replicates", ["0", "-1"])
def test_experiment_rejects_fewer_than_one_replicate(replicates, capsys):
    argv = ["--scale", "0.05", "experiment", "--suite", "table1:topk", "--replicates", replicates]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: argument --replicates: expected an integer >= 1, got '{replicates}'\n"


_GRAPH = "{graph}"
_CONFIG = "{config}"
_PREDICT = ["predict", "--data", FIXTURE, "--train-times", "6", "--horizons", "2"]
_FINITE_U = ["experiment", "--suite", "table1:finiteU", "--replicates", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--input", _GRAPH, "--percentile", "150"],
        ["estimate", "--input", _GRAPH, "--percentile", "-1"],
        ["estimate", "--input", _GRAPH, "--percentile", "nan"],
        ["estimate", "--input", _GRAPH, "--plot-data", "--sparse-edges", "0"],
        ["estimate", "--input", _GRAPH, "--plot-data", "--sparse-edges", "-5"],
        _PREDICT + ["--k", "0"],
        _PREDICT + ["--k", "-2"],
        ["predict", "--data", FIXTURE, "--train-times", "6", "--horizons", "-3"],
        ["predict", "--data", FIXTURE, "--train-times", "", "--horizons", "2"],
        ["predict", "--data", FIXTURE, "--train-times", "6", "--horizons", ""],
        ["--scale", "-1"] + _FINITE_U,
        ["--scale", "0"] + _FINITE_U,
        ["--scale", "nan"] + _FINITE_U,
        ["--scale", "inf"] + _FINITE_U,
        ["--scale", "0.02"] + _FINITE_U + ["--workers", "0"],
        ["--scale", "0.02"] + _FINITE_U + ["--workers", "-1"],
        ["--scale", "0.02"] + _FINITE_U + ["--workers", "two"],
        ["--scale", "0.02"] + _FINITE_U[:-1] + ["0"],
        ["--scale", "0.02"] + _FINITE_U[:-1] + ["1.5"],
        ["--scale", "-3", "generate", "--config", _CONFIG],
        ["--scale", "2", "generate", "--config", _CONFIG],
        ["--scale", "1", "estimate", "--input", _GRAPH],
        ["--scale", "0.5"] + _PREDICT,
        ["--scale", "0.5", "fixture"],
        ["--format", "csv", "estimate", "--input", _GRAPH],
        ["--format", "json", "estimate", "--input", _GRAPH],
        ["--format", "csv", "fixture"],
        ["--format", "json", "ingest", "--data", FIXTURE, "--snapshot-times", "2"],
        ["--seed", "-1", "generate", "--config", _CONFIG],
        ["--seed", "5", "estimate", "--input", _GRAPH],
        ["--seed", "5"] + _PREDICT,
        ["--seed", "5", "ingest", "--data", FIXTURE],
        ["ingest", "--data", FIXTURE, "--snapshot-times", "six"],
        ["ingest", "--data", FIXTURE, "--snapshot-times", "1,1"],
        ["predict", "--data", FIXTURE, "--train-times", "6,6", "--horizons", "2"],
        ["predict", "--data", FIXTURE, "--train-times", "6", "--horizons", "2,0,2"],
        ["fixture", "--snapshot-times", "2,4"],
        ["fixture", "--data", FIXTURE],
        # the ingest --make-fixture form, replaced by the fixture command
        ["--scale", "0.5", "ingest", "--make-fixture"],
        ["--format", "csv", "ingest", "--make-fixture"],
        ["ingest", "--data", FIXTURE, "--make-fixture"],
        ["ingest", "--make-fixture", "--snapshot-times", "2,4"],
        ["ingest", "--make-fixture", "--data-format", "csv3col"],
        ["ingest", "--data", FIXTURE, "--data-format", "csv3col"],
        _PREDICT + ["--data-format", "whitespace3col"],
        ["estimate", "--input", _GRAPH, "--percentile", "abc"],
        ["frobnicate"],
    ],
    ids=lambda argv: " ".join(a for a in argv if a not in (_GRAPH, _CONFIG, FIXTURE)),
)
def test_bad_flag_values_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    graph = tmp_path / "mix.edges"
    write_graph_file(graph, three_star_mixture().graph)
    config = tmp_path / "c.json"
    config.write_text("{" + _GOOD_CONFIG + "}")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [{_GRAPH: str(graph), _CONFIG: str(config)}.get(a, a) for a in argv]
    assert main(["--out", str(tmp_path / "out")] + argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert os.listdir(work) == []


@pytest.mark.parametrize(
    "flag",
    [["--min-seg", "3"], ["--max-unique", "64"], ["--gap-threshold", "2"]],
    ids=lambda flag: flag[0],
)
def test_removed_estimate_flags_are_usage_errors(flag, tmp_path, capsys):
    graph = tmp_path / "mix.edges"
    write_graph_file(graph, three_star_mixture().graph)
    assert main(["estimate", "--input", str(graph)] + flag) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ingest_requires_data(capsys):
    assert main(["ingest"]) == 2
    capsys.readouterr()


def test_fixture_matches_bundled(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["--seed", "0", "--out", str(out), "fixture"]) == 0
    capsys.readouterr()
    generated = (out / "synthetic_growth.events").read_bytes()
    with open(FIXTURE, "rb") as f:
        assert generated == f.read()


def test_fixture_write_failure_leaves_out_as_it_was(tmp_path, capsys):
    # the writer fails after its first rows: an older fixture stays, and an
    # --out the command had to make is removed again
    def fail(tel, f):
        f.write("d0 d1 1\n")
        raise OSError("disk full")

    kept, made = tmp_path / "kept", tmp_path / "made" / "fx"
    kept.mkdir()
    (kept / "synthetic_growth.events").write_text("older\n")
    with mock.patch.object(cli, "serialize_edge_events", side_effect=fail):
        for out in (kept, made):
            assert main(["--out", str(out), "fixture"]) == 3
            stdout, err = capsys.readouterr()
            assert stdout == "" and err == "error: cannot write output: disk full\n"
    assert os.listdir(kept) == ["synthetic_growth.events"]
    assert (kept / "synthetic_growth.events").read_text() == "older\n"
    assert os.listdir(tmp_path) == ["kept"]


def test_ingest_snapshots_and_report(tmp_path, capsys):
    data = tmp_path / "ev.txt"
    data.write_text("a b 1\nb c 2\nc d 3\n")
    out = tmp_path / "snaps"
    code = main(
        ["--out", str(out), "ingest", "--data", str(data), "--snapshot-times", "2,3"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["events"] == 3 and report["nodes"] == 4
    assert report["t_min"] == 1 and report["t_max"] == 3
    assert report["snapshots"] == [2, 3]
    g2 = read_edge_list(io.StringIO((out / "snapshot_2.edges").read_text()))
    assert g2.node_count == 3 and g2.edge_count == 2
    g3 = read_edge_list(io.StringIO((out / "snapshot_3.edges").read_text()))
    assert g3.edge_count == 3
    assert json.loads((out / "ingest_report.json").read_text()) == report


def _parser_dests(parser):
    for action in parser._actions:
        yield action.dest
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_dests(sub)


def test_flag_scope_names_parser_flags():
    # the scope table cannot drift from the flags and commands the parser defines
    parser = cli.build_parser()
    assert set(cli._FLAG_SCOPE) <= set(_parser_dests(parser))
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for commands in cli._FLAG_SCOPE.values():
        assert type(commands) is tuple and set(commands) <= set(sub.choices)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--scale", "1", "estimate", "--input", "g.edges"], "--scale applies only to experiment"),
        (
            ["--format", "csv", "fixture"],
            "--format applies only to generate, predict and experiment",
        ),
        (
            ["--seed", "5", "ingest", "--data", FIXTURE],
            "--seed applies only to generate, experiment and fixture",
        ),
    ],
    ids=["scale", "format", "seed"],
)
def test_flag_scope_errors_come_before_any_command(argv, message, monkeypatch, capsys):
    for name in ("generate", "estimate", "predict", "experiment", "ingest", "fixture"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args, name=name: pytest.fail(f"{name} ran"))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_missing_temporal_data_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.events")
    assert main(["predict", "--data", missing, "--train-times", "1", "--horizons", "1"]) == 2
    assert main(["--out", str(tmp_path / "o"), "ingest", "--data", missing]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith(f"error: cannot read {missing}: ") for line in lines)
    assert not (tmp_path / "o").exists()


def test_predict_and_ingest_read_a_headed_csv_file(tmp_path, capsys):
    # no flag names the format: the 'u,v,t' header tells predict and ingest
    with open(FIXTURE) as f:
        lines = f.readlines()
    csv_lines = ["U, V, T\n"] + [",".join(line.split()) + "\n" for line in lines]
    data = tmp_path / "fixture.csv"
    data.write_text("".join(csv_lines))
    tel = parse_edge_events(csv_lines)
    assert tel.events == parse_edge_events(lines).events

    assert main(["predict", "--data", str(data), "--train-times", "6", "--horizons", "2"]) == 0
    summary, _ = evaluation_run(tel, [6], [2], 10)
    assert json.loads(capsys.readouterr().out) == summary

    out = tmp_path / "snaps"
    argv = ["--out", str(out), "ingest", "--data", str(data), "--snapshot-times", "7"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["events"], report["nodes"]) == (tel.edge_t.size, len(tel.node_ids))
    assert (report["t_min"], report["t_max"], report["rejected"]) == (tel.t_min, tel.t_max, 0)
    buf = io.StringIO()
    write_edge_list(snapshot_at(tel, 7), buf)
    assert (out / "snapshot_7.edges").read_text() == buf.getvalue()


# one value of each JSON type, and the types each generate config key accepts
_JSON_VALUES = {
    "string": "x", "integer": 2, "float": 1.5, "null": None,
    "boolean": True, "array": [0.5], "object": {},
}
_CONFIG_KEY_TYPES = {
    "partition_u": {"string"},
    "graphon_w": {"string"},
    "schedule": {"object"},
    "schedule.kind": {"string"},
    "schedule.a": {"integer", "float"},
    "schedule.base_n_d": {"integer"},
    "steps": {"integer"},
    "join": {"object"},
    "join.c": {"integer", "float"},
    "seed": {"integer"},
}


@pytest.mark.parametrize(
    "key, kind",
    [
        (key, kind)
        for key, accepted in _CONFIG_KEY_TYPES.items()
        for kind in _JSON_VALUES
        if kind not in accepted
    ],
)
def test_generate_rejects_wrong_typed_config_values(key, kind, tmp_path, capsys):
    cfg = json.loads("{" + _GOOD_CONFIG + ', "join": {"c": 0.5}}')
    *parents, leaf = key.split(".")
    node = cfg
    for name in parents:
        node = node[name]
    node[leaf] = _JSON_VALUES[kind]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["--out", str(out), "generate", "--config", str(path)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# fails at step 3, after two steps that fit
_LATE_FAILING_CONFIG = {
    "partition_u": "mass:[0.5]",
    "graphon_w": "const:1",
    "schedule": {"kind": "inverse_sqrt", "a": 0.5, "base_n_d": 20},
    "steps": 8,
    "join": {"c": 0.7},
}


def test_late_generate_failure_leaves_out_as_it_was(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_LATE_FAILING_CONFIG))
    out = tmp_path / "o"
    out.mkdir()
    (out / "unrelated.txt").write_text("kept\n")
    assert main(["--out", str(out), "generate", "--config", str(cfg)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: cannot place ") and err.count("\n") == 1
    assert os.listdir(out) == ["unrelated.txt"]
    assert (out / "unrelated.txt").read_text() == "kept\n"


def test_late_generate_failure_keeps_an_older_run(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text("{" + _GOOD_CONFIG + ', "steps": 2}')
    bad.write_text(json.dumps(_LATE_FAILING_CONFIG))
    out = tmp_path / "o"
    assert main(["--out", str(out), "generate", "--config", str(good)]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert main(["--out", str(out), "generate", "--config", str(bad)]) == 3
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
    capsys.readouterr()


def test_late_generate_failure_removes_the_out_it_made(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_LATE_FAILING_CONFIG))
    out = tmp_path / "new" / "o"
    assert main(["--out", str(out), "generate", "--config", str(cfg)]) == 3
    assert sorted(os.listdir(tmp_path)) == ["c.json"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--input"], "error: bad graph file {}: "),
        (["predict", "--train-times", "6", "--horizons", "2", "--data"], "error: cannot read {}: "),
        (["--out", "{out}", "ingest", "--data"], "error: cannot read {}: "),
        (["--out", "{out}", "generate", "--config"], "error: cannot read config {}: "),
    ],
    ids=["estimate", "predict", "ingest", "generate"],
)
def test_undecodable_input_names_the_file(argv, message, tmp_path, capsys):
    data = tmp_path / "utf16.txt"
    data.write_bytes("n 3\n0 1\n".encode("utf-16"))  # starts ff fe
    out = tmp_path / "o"
    argv = [arg.replace("{out}", str(out)) for arg in argv] + [str(data)]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "Traceback" not in err
    assert err.startswith(message.format(data)) and err.count("\n") == 1
    assert not out.exists()


def _edge_text():
    buf = io.StringIO()
    write_edge_list(three_star_mixture().graph, buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "argv, text",
    [
        (["ingest", "--data", "in", "--snapshot-times", "2,3"], "a b 1\nb c 2\nc a 3\n"),
        (["ingest", "--data", "in", "--snapshot-times", "2"], "u,v,t\na,b,1\nb,c,2\n"),
        (["estimate", "--input", "in"], _edge_text()),
        (["generate", "--config", "in"], "{" + _GOOD_CONFIG + "}"),
    ],
    ids=["events", "csv-events", "edge-list", "generate-config"],
)
def test_byte_order_mark_reads_as_the_unmarked_file(argv, text, tmp_path, monkeypatch, capsys):
    # a file saved with a UTF-8 byte order mark gives the same files and
    # stdout: the mark is neither part of the first id nor of the header
    runs = []
    for mark in (b"", codecs.BOM_UTF8):
        run = tmp_path / ("marked" if mark else "plain")
        run.mkdir()
        (run / "in").write_bytes(mark + text.encode())
        monkeypatch.chdir(run)
        assert main(["--out", "o", *argv]) == 0
        files = {path.name: path.read_bytes() for path in (run / "o").iterdir()}
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]
    assert runs[0][1]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["generate", "--config", "{config}"], "graph_0002.edges"),
        (["ingest", "--data", FIXTURE, "--snapshot-times", "6,9"], "snapshot_9.edges"),
        (["predict", "--data", FIXTURE, "--train-times", "6", "--horizons", "2"],
         "prediction_detail.json"),
        (["--scale", "0.02", "experiment", "--suite", "table1:finiteU", "--replicates", "1"],
         "table1_finiteU_rows.json"),
    ],
    ids=["generate", "ingest", "predict", "experiment"],
)
def test_output_collision_leaves_out_as_it_was(argv, name, tmp_path, capsys):
    # every command that writes several files checks all targets before moving any
    config = tmp_path / "c.json"
    config.write_text("{" + _GOOD_CONFIG + ', "steps": 2}')
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    (out / "unrelated.txt").write_text("kept\n")
    argv = ["--out", str(out)] + [arg.replace("{config}", str(config)) for arg in argv]
    assert main(argv) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and "Traceback" not in err
    assert err == f"error: cannot write output: {out / name} is a directory\n"
    assert sorted(os.listdir(out)) == [name, "unrelated.txt"]
    assert os.listdir(out / name) == []
    assert (out / "unrelated.txt").read_text() == "kept\n"


def test_main_builds_one_parser(capsys):
    cli._parser.cache_clear()
    assert main(["fixture", "--help"]) == 0
    assert main(["ingest"]) == 2
    assert cli._parser.cache_info().misses == 1
    assert cli.build_parser() is not cli._parser()  # build_parser still builds a new one
    capsys.readouterr()
