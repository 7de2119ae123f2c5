"""End-to-end CLI behavior: exit codes, files written, determinism."""

import json
import os
import warnings

import numpy as np
import pytest

from graphmix import (
    JoinConfig,
    MixtureSequence,
    RatioSchedule,
    generate_mixture,
    join_graphs,
    parse_graphon,
    parse_mass_partition,
    read_edge_list,
    star_forest,
    write_edge_list,
)
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


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert [line[:7] for line in capsys.readouterr().err.splitlines()] == ["error: "] * 2


def test_unknown_suite_is_usage_error(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "experiment", "--suite", "table9:nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 2

    cfg.write_text(json.dumps({"partition_u": "mass:[1.0]", "graphon_w": "bogus"}))
    assert main(["--out", str(tmp_path / "o"), "generate", "--config", str(cfg)]) == 2

    assert main(["generate", "--config", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.count("error:") == 3


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
        '"join": [1]',
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
    g = read_edge_list((d1 / "graph_0001.edges").read_text().splitlines())
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


def test_estimate_plot_data_series(tmp_path, capsys):
    u = parse_mass_partition("power:1.2:2:50")
    mix = generate_mixture(u, parse_graphon("exp_sum"), 120, 20000,
                           rng=np.random.default_rng(7))
    path = tmp_path / "pow.edges"
    write_graph_file(path, mix.graph)
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
    assert main(["--out", bad_out, "ingest", "--make-fixture"]) == 3
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


@pytest.mark.parametrize("replicates", ["0", "-1"])
def test_experiment_rejects_fewer_than_one_replicate(replicates, capsys):
    argv = ["--scale", "0.05", "experiment", "--suite", "table1:topk", "--replicates", replicates]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: replicates must be >= 1\n"


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
        ["--seed", "-1", "generate", "--config", _CONFIG],
        ["ingest", "--data", FIXTURE, "--snapshot-times", "six"],
        ["ingest", "--data", FIXTURE, "--make-fixture"],
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


def test_ingest_make_fixture_matches_bundled(tmp_path, capsys):
    out = tmp_path / "fx"
    assert main(["--seed", "0", "--out", str(out), "ingest", "--make-fixture"]) == 0
    capsys.readouterr()
    generated = (out / "synthetic_growth.events").read_bytes()
    with open(FIXTURE, "rb") as f:
        assert generated == f.read()


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
    g2 = read_edge_list((out / "snapshot_2.edges").read_text().splitlines())
    assert g2.node_count == 3 and g2.edge_count == 2
    g3 = read_edge_list((out / "snapshot_3.edges").read_text().splitlines())
    assert g3.edge_count == 3
    assert json.loads((out / "ingest_report.json").read_text()) == report
