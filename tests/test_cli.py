import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hypertraffic
from hypertraffic import cli, generators, traffic
from hypertraffic.analysis import classify_transition
from hypertraffic.cli import main
from hypertraffic.errors import DisconnectedGraph, MalformedEdge, SizeOverflow
from hypertraffic.generators import load_edge_list
from hypertraffic.graphs import GRAPH_FORMAT, graph_from_json_dict, graph_to_json_dict
from hypertraffic.serialize import dumps

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run(*argv):
    return main(list(argv))


def exit_code(*argv):
    """Return code of the CLI, with argparse's SystemExit turned into a code."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


class TestGenerate:
    def test_tree_node_count(self, tmp_path):
        out = tmp_path / "t.json"
        assert run("generate", "--family", "tree", "--k", "3", "--depth", "6",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["node_count"] == 1093  # sum of 3^t, t = 0..6
        assert doc["format"] == "hypertraffic-graph-v1"
        assert doc["family"]["variant"] == "tree"

    def test_round_trip_canonical(self, tmp_path):
        out = tmp_path / "g.json"
        run("generate", "--family", "tess", "--p", "5", "--q", "4",
            "--depth", "3", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["family"] == {"variant": "tessellation", "p": 5, "q": 4, "depth": 3}
        g = graph_from_json_dict(doc)
        assert dumps(graph_to_json_dict(g, family=doc["family"])) + "\n" == out.read_text()

    def test_root_degree(self, tmp_path):
        out = tmp_path / "t.json"
        assert run("generate", "--family", "tree", "--k", "2", "--depth", "3",
                   "--root-degree", "3", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["node_count"] == 1 + 3 + 6 + 12
        assert doc["family"]["root_degree"] == 3
        g = graph_from_json_dict(doc)
        adj = g.adjacency
        assert len(adj[g.root]) == 3
        assert [len(adj[v]) for v in g.layers[1]] == [3, 3, 3]

    def test_grid(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("generate", "--family", "grid", "--side", "5", "--out", str(out)) == 0
        assert json.loads(out.read_text())["node_count"] == 25

    def test_edges_family(self, tmp_path):
        src = tmp_path / "e.txt"
        src.write_text("# root 1\n0 1\n1 2\n")
        out = tmp_path / "g.json"
        assert run("generate", "--family", "edges", "--path", str(src),
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["root"] == 1

    def test_not_hyperbolic_is_exit_3(self, tmp_path):
        code = run("generate", "--family", "tess", "--p", "3", "--q", "3",
                   "--depth", "2", "--out", str(tmp_path / "x.json"))
        assert code == 3

    def test_missing_flags_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("generate", "--family", "tree")
        assert err.value.code == 2

    @pytest.mark.parametrize("flags,message", [
        (("--family", "tree", "--k", "2"), "tree family needs --depth"),
        (("--family", "tess", "--p", "5", "--q", "4"), "tess family needs --depth"),
        (("--family", "tree", "--depth", "2"), "tree family needs --k"),
        (("--family", "tess", "--p", "5", "--depth", "2"), "tess family needs --p and --q"),
        (("--family", "tess", "--q", "4", "--depth", "2"), "tess family needs --p and --q"),
        (("--family", "grid"), "grid family needs --side"),
        (("--family", "edges"), "edges family needs --path"),
    ])
    def test_missing_family_flag_exit_3(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.json"
        assert run("generate", *flags, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,message", [
        ("generate", ("--family", "tess", "--p", "5", "--q", "4", "--depth", "3",
                      "--root-degree", "2"), "tess family does not take --root-degree"),
        ("generate", ("--family", "grid", "--side", "3", "--depth", "99"),
         "grid family does not take --depth"),
        ("generate", ("--family", "edges", "--path", "f", "--k", "3"),
         "edges family does not take --k"),
        ("generate", ("--family", "tree", "--k", "2", "--depth", "2", "--side", "5"),
         "tree family does not take --side"),
        ("sweep", ("--family", "tree", "--k", "2", "--p", "7"), "tree family does not take --p"),
        ("sweep", ("--family", "tess", "--p", "5", "--q", "4", "--path", "f"),
         "tess family does not take --path"),
        ("sweep", ("--family", "tree", "--k", "2", "--depth", "9"),
         "sweep of the tree family takes --depths, not --depth"),
        ("sweep", ("--family", "tess", "--p", "5", "--q", "4", "--depth", "9"),
         "sweep of the tess family takes --depths, not --depth"),
    ])
    def test_flag_the_family_does_not_take_exit_3(self, tmp_path, capsys, command, flags,
                                                   message):
        out, summ = tmp_path / "x.out", tmp_path / "s.json"
        if command == "sweep":
            flags += ("--beta-min", "1.2", "--beta-max", "2.0", "--steps", "2",
                      "--depths", "3,4", "--r", "0", "--summary-out", str(summ))
        assert run(command, *flags, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not summ.exists()

    def test_node_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "100")
        code = run("generate", "--family", "tree", "--k", "3", "--depth", "6",
                   "--out", str(tmp_path / "x.json"))
        assert code == 3

    def test_grid_node_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "10")
        out = tmp_path / "x.json"
        assert run("generate", "--family", "grid", "--side", "5", "--out", str(out)) == 3
        assert not out.exists()
        assert run("sweep", "--family", "grid", "--side", "5", "--beta-min", "1.1",
                   "--beta-max", "2.0", "--steps", "2", "--depths", "1,2,3",
                   "--r", "0", "--out", str(tmp_path / "s.csv")) == 3


class TestAnalyze:
    def test_tree_analysis(self, tmp_path):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "3", "--depth", "4",
            "--out", str(gfile))
        out = tmp_path / "a.json"
        assert run("analyze", "--graph", str(gfile), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["spheres"] == [1, 3, 9, 27, 81]
        assert doc["e_ratio"] == pytest.approx(1.0986122886681098)
        assert doc["beta_c_pred"] == pytest.approx(3.0**0.5, rel=1e-12)
        assert doc["delta_four_point"] == 0.0

    def test_four_point_skipped_over_cap(self, tmp_path):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "3", "--depth", "6",
            "--out", str(gfile))
        out = tmp_path / "a.json"
        run("analyze", "--graph", str(gfile), "--out", str(out))
        assert json.loads(out.read_text())["delta_four_point"] is None

    @pytest.mark.parametrize("cap,delta", [("8", None), ("9", 2.0), ("0", None)])
    def test_four_point_cap_flag(self, tmp_path, cap, delta):
        gfile = tmp_path / "g.json"
        run("generate", "--family", "grid", "--side", "3", "--out", str(gfile))
        out = tmp_path / "a.json"
        assert run("analyze", "--graph", str(gfile), "--four-point-cap", cap,
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["delta_four_point"] == delta

    @pytest.mark.parametrize("cap", ["-5", "-1"])
    def test_negative_four_point_cap_exit_3(self, tmp_path, capsys, cap):
        # a negative cap is refused, not read as cap 0 (never scan)
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "2", "--depth", "3",
            "--out", str(gfile))
        capsys.readouterr()
        out = tmp_path / "a.json"
        assert run("analyze", "--graph", str(gfile), f"--four-point-cap={cap}",
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: four-point cap must be >= 0, got {cap}\n"
        assert not out.exists()

    def test_negative_four_point_cap_refused_before_reading(self, tmp_path, capsys):
        # the cap is checked before the graph file is opened
        out = tmp_path / "a.json"
        assert run("analyze", "--graph", str(tmp_path / "missing.json"),
                   "--four-point-cap=-5", "--out", str(out)) == 3
        assert capsys.readouterr().err == "error: four-point cap must be >= 0, got -5\n"
        assert not out.exists()

    def test_single_node_graph_is_total(self, tmp_path):
        gfile = tmp_path / "g.json"
        run("generate", "--family", "grid", "--side", "1", "--out", str(gfile))
        out = tmp_path / "a.json"
        assert run("analyze", "--graph", str(gfile), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["e_ratio"] == 0.0 and doc["beta_c_pred"] == 1.0
        rep = tmp_path / "r.json"
        assert run("traffic", "--graph", str(gfile), "--beta", "2.0",
                   "--out", str(rep)) == 0
        assert json.loads(rep.read_text())["T"] == 1.0

    @pytest.mark.parametrize("window", ["0", "1"])
    def test_window_below_two_exit_3(self, tmp_path, capsys, window):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "3", "--depth", "4",
            "--out", str(gfile))
        out = tmp_path / "a.json"
        assert run("analyze", "--graph", str(gfile), "--window", window,
                   "--out", str(out)) == 3
        assert f"window {window} not in [2, 4]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("window", ["-5", "1", "2"])
    def test_window_checked_on_few_spheres(self, tmp_path, capsys, window):
        # a depth-1 tree has 2 spheres, so no window fits its one ratio
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "3", "--depth", "1",
            "--out", str(gfile))
        out = tmp_path / "a.json"
        assert run("analyze", "--graph", str(gfile), "--window", window,
                   "--out", str(out)) == 3
        assert f"window {window} not in [2, 1]" in capsys.readouterr().err
        assert not out.exists()


class TestTraffic:
    def test_report_and_loads(self, tmp_path, capsys):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "2", "--depth", "5",
            "--out", str(gfile))
        out = tmp_path / "r.json"
        loads = tmp_path / "l.csv"
        code = run("traffic", "--graph", str(gfile), "--beta", "1.2",
                   "--epsilon", "0.1", "--r", "1", "--threads", "1",
                   "--out", str(out), "--loads-out", str(loads))
        assert code == 0
        doc = json.loads(out.read_text())
        ratios = [t / doc["T"] for t in doc["T_r"]]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert doc["core"]["epsilon"] == 0.1
        assert "core radius" in capsys.readouterr().out
        lines = loads.read_text().splitlines()
        assert lines[0] == "node,depth,load"
        assert len(lines) == 1 + doc_node_count(gfile)

    def test_n_flag(self, tmp_path, capsys):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "2", "--depth", "4",
            "--out", str(gfile))
        out = tmp_path / "r.json"
        loads = tmp_path / "l.csv"
        assert run("traffic", "--graph", str(gfile), "--beta", "1.5", "--n", "2",
                   "--out", str(out), "--loads-out", str(loads)) == 0
        g = graph_from_json_dict(json.loads(gfile.read_text()))
        rate = traffic.ExponentialRate(1.5)
        rep = traffic.traffic_totals(traffic.pair_census(g, 2), rate)
        doc = json.loads(out.read_text())
        assert (doc["n"], doc["T"], doc["T_r"]) == (2, rep.T, list(rep.T_r))
        assert read_loads(loads) == list(traffic.node_loads(g, rate, 2))
        capsys.readouterr()
        assert run("traffic", "--graph", str(gfile), "--beta", "1.5", "--n", "5",
                   "--out", str(out)) == 3
        assert "no nodes at depth 5" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["-1", "3"])
    def test_r_outside_zero_to_n_exit_3(self, tmp_path, capsys, r):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "2", "--depth", "2",
            "--out", str(gfile))
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run("traffic", "--graph", str(gfile), "--beta", "1.5", f"--r={r}",
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: --r must be in [0, 2], got {r}\n"
        assert not out.exists()

    def test_include_endpoints(self, tmp_path):
        gfile = tmp_path / "g.json"
        run("generate", "--family", "tess", "--p", "5", "--q", "4", "--depth", "3",
            "--out", str(gfile))
        plain, ends = tmp_path / "plain.csv", tmp_path / "ends.csv"
        for flags, loads in (((), plain), (("--include-endpoints",), ends)):
            assert run("traffic", "--graph", str(gfile), "--beta", "1.3", *flags,
                       "--out", str(tmp_path / "r.json"), "--loads-out", str(loads)) == 0
        g = graph_from_json_dict(json.loads(gfile.read_text()))
        rate = traffic.ExponentialRate(1.3)
        assert read_loads(ends) == list(traffic.node_loads(g, rate, 3, include_endpoints=True))
        assert read_loads(ends) != read_loads(plain)

    def test_include_endpoints_without_loads_exit_3(self, tmp_path, capsys):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "2", "--depth", "3",
            "--out", str(gfile))
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run("traffic", "--graph", str(gfile), "--beta", "1.5", "--include-endpoints",
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "error: --include-endpoints needs --loads-out: it changes only the loads\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("table", ["4e307,4e307,4e307", "1e308,1e308"])
    def test_overflowing_table_exit_3(self, tmp_path, capsys, table):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "2", "--depth", "2",
            "--out", str(gfile))
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run("traffic", "--graph", str(gfile), "--table", table,
                   "--out", str(out), "--loads-out", str(tmp_path / "l.csv")) == 3
        assert "T at depth 2 overflows float64" in capsys.readouterr().err
        assert not out.exists()

    def test_loads_past_2_53_exit_0(self, tmp_path):
        # binom(60, 30) > 2^53 geodesics join opposite boundary nodes at n = 30
        gfile = tmp_path / "grid.json"
        run("generate", "--family", "grid", "--side", "41", "--out", str(gfile))
        loads = tmp_path / "l.csv"
        assert run("traffic", "--graph", str(gfile), "--beta", "1.5", "--n", "30",
                   "--out", str(tmp_path / "r.json"), "--loads-out", str(loads)) == 0
        g = graph_from_json_dict(json.loads(gfile.read_text()))
        assert read_loads(loads) == list(traffic.node_loads(g, traffic.ExponentialRate(1.5), 30))

    def test_exactly_one_rate(self, tmp_path):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "2", "--depth", "3",
            "--out", str(gfile))
        code = run("traffic", "--graph", str(gfile),
                   "--out", str(tmp_path / "r.json"))
        assert code == 3
        code = run("traffic", "--graph", str(gfile), "--beta", "1.5",
                   "--alpha", "2.0", "--out", str(tmp_path / "r.json"))
        assert code == 3

    def test_invalid_beta_exit_3(self, tmp_path):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "2", "--depth", "3",
            "--out", str(gfile))
        assert run("traffic", "--graph", str(gfile), "--beta", "0.9",
                   "--out", str(tmp_path / "r.json")) == 3

    def test_table_rate(self, tmp_path):
        gfile = tmp_path / "t.json"
        run("generate", "--family", "tree", "--k", "2", "--depth", "2",
            "--out", str(gfile))
        out = tmp_path / "r.json"
        assert run("traffic", "--graph", str(gfile), "--table", "1.0,0.5,0.25,0.1,0.05",
                   "--out", str(out)) == 0
        assert json.loads(out.read_text())["rate"]["variant"] == "table"

    @pytest.mark.parametrize("flag,message", [
        ("--table=0", "table rate R(0) must be > 0, got 0.0"),
        ("--table=0,0,0", "table rate R(0) must be > 0, got 0.0"),
        ("--table=inf", "table rates must be finite, got inf"),
        ("--table=1,nan", "table rates must be finite, got nan"),
        ("--beta=inf", "beta must be finite and > 1, got inf"),
        ("--alpha=inf", "alpha must be finite and > 0, got inf"),
        ("--table=", "--table takes comma-separated floats, got ''"),
        ("--table=1,x", "--table takes comma-separated floats, got '1,x'"),
        ("--beta=0.5", "beta must be finite and > 1, got 0.5"),
        ("--epsilon=2", "epsilon must be in (0,1), got 2.0"),
        ("--epsilon=0", "epsilon must be in (0,1), got 0.0"),
        ("--epsilon=1", "epsilon must be in (0,1), got 1.0"),
        ("--epsilon=-0.5", "epsilon must be in (0,1), got -0.5"),
        ("--epsilon=nan", "epsilon must be in (0,1), got nan"),
        ("--epsilon=inf", "epsilon must be in (0,1), got inf"),
    ])
    def test_bad_rate_flag_exit_3(self, tmp_path, capsys, monkeypatch, flag, message):
        """Rate flags and --epsilon are checked before the graph is read."""

        def refuse(path):
            raise AssertionError(f"{path} read before the flags were checked")

        monkeypatch.setattr(cli, "_load_graph", refuse)
        rate = ["--beta=1.5"] if flag.startswith("--epsilon") else []
        out = tmp_path / "r.json"
        assert run("traffic", "--graph", str(tmp_path / "t.json"), *rate, flag,
                   "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def doc_node_count(gfile):
    return json.loads(gfile.read_text())["node_count"]


def read_loads(path):
    """The load column of a loads CSV, in node order."""
    return [float(line.split(",")[2]) for line in path.read_text().splitlines()[1:]]


class TestSweep:
    def test_csv_shape_and_summary(self, tmp_path):
        out = tmp_path / "s.csv"
        summ = tmp_path / "s.json"
        code = run("sweep", "--family", "tree", "--k", "2",
                   "--beta-min", "1.2", "--beta-max", "2.0", "--steps", "3",
                   "--depths", "3,4,5", "--r", "0", "--threads", "1",
                   "--out", str(out), "--summary-out", str(summ))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,p_or_k,q,beta,n,r,T,T_r,ratio,label"
        assert len(lines) == 1 + 3 * 3
        doc = json.loads(summ.read_text())
        assert doc["beta_c_pred"] == pytest.approx(2.0**0.5, rel=1e-12)
        assert set(doc["labels"].values()) <= {"GLOBAL", "LOCAL", "UNDECIDED"}

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        files = {}
        for threads in ("1", "3"):
            out = tmp_path / f"s{threads}.csv"
            summ = tmp_path / f"s{threads}.json"
            run("sweep", "--family", "tess", "--p", "5", "--q", "4",
                "--beta-min", "1.2", "--beta-max", "2.2", "--steps", "5",
                "--depths", "3,4,5", "--r", "1", "--threads", threads,
                "--out", str(out), "--summary-out", str(summ))
            files[threads] = out.read_bytes() + summ.read_bytes()
        assert files["1"] == files["3"]

    @pytest.mark.parametrize("flag,value", [("--r", "-1"), ("--tail", "0"), ("--tail", "-2")])
    def test_negative_r_or_tail_below_one_exit_3(self, tmp_path, capsys, flag, value):
        args = {"--r": "0", "--tail": "3", flag: value}
        out = tmp_path / "s.csv"
        code = run("sweep", "--family", "tree", "--k", "2",
                   "--beta-min", "1.2", "--beta-max", "2.0", "--steps", "3",
                   "--depths", "3,4,5", "--r", args["--r"], "--tail", args["--tail"],
                   "--out", str(out))
        assert code == 3
        assert f"{flag[2:]} must be >= " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,name", [
        ("--tau-global", "nan", "tau_g"), ("--tau-global", "inf", "tau_g"),
        ("--tau-local", "nan", "tau_l"), ("--tau-local", "-inf", "tau_l"),
    ])
    def test_non_finite_tau_exit_3(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "s.csv"
        assert run("sweep", "--family", "tree", "--k", "2",
                   "--beta-min", "1.2", "--beta-max", "2.0", "--steps", "3",
                   "--depths", "3,4,5", "--r", "0", f"{flag}={value}",
                   "--out", str(out)) == 3
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("depths", ["3,x", "", "3,,4"])
    def test_bad_depths_exit_3(self, tmp_path, capsys, depths):
        out = tmp_path / "s.csv"
        assert run("sweep", "--family", "tree", "--k", "2",
                   "--beta-min", "1.2", "--beta-max", "2.0", "--steps", "3",
                   f"--depths={depths}", "--r", "0", "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            f"error: --depths takes comma-separated ints, got {depths!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("tau_g,tau_l,labels", [
        ("0.25", "0.05", ["UNDECIDED", "UNDECIDED", "LOCAL"]),
        ("0.01", "0.99", ["LOCAL", "LOCAL", "LOCAL"]),
        ("0.01", "0.0", ["UNDECIDED", "UNDECIDED", "UNDECIDED"]),
    ])
    def test_tau_flags(self, tmp_path, tau_g, tau_l, labels):
        out = tmp_path / "s.csv"
        summ = tmp_path / "s.json"
        assert run("sweep", "--family", "tree", "--k", "2",
                   "--beta-min", "1.2", "--beta-max", "2.0", "--steps", "3",
                   "--depths", "3,4,5", "--r", "0",
                   "--tau-global", tau_g, "--tau-local", tau_l,
                   "--out", str(out), "--summary-out", str(summ)) == 0
        doc = json.loads(summ.read_text())
        assert (doc["tau_global"], doc["tau_local"]) == (float(tau_g), float(tau_l))
        assert list(doc["labels"].values()) == labels
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for beta, label in doc["labels"].items():
            ratios = [float(row[8]) for row in rows if row[3] == beta]
            assert [row[9] for row in rows if row[3] == beta] == [label] * 3
            assert classify_transition(ratios, tail=doc["tail"], tau_g=float(tau_g),
                                       tau_l=float(tau_l)) == label

    @pytest.mark.parametrize("beta_max,steps", [("1.1", "3"), ("2.0", "0")])
    def test_bad_beta_grid_exit_3(self, tmp_path, capsys, beta_max, steps):
        out = tmp_path / "s.csv"
        assert run("sweep", "--family", "tree", "--k", "2",
                   "--beta-min", "1.2", "--beta-max", beta_max, "--steps", steps,
                   "--depths", "3,4", "--r", "0", "--out", str(out)) == 3
        assert capsys.readouterr().err == "error: bad beta grid\n"
        assert not out.exists()

    def test_one_step_sweeps_beta_min(self, tmp_path):
        out = tmp_path / "s.csv"
        summ = tmp_path / "s.json"
        assert run("sweep", "--family", "tree", "--k", "2",
                   "--beta-min", "1.2", "--beta-max", "2.0", "--steps", "1",
                   "--depths", "3,4", "--r", "0",
                   "--out", str(out), "--summary-out", str(summ)) == 0
        assert json.loads(summ.read_text())["betas"] == [1.2]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(row[3], row[4]) for row in rows] == [("1.2", "3"), ("1.2", "4")]

    def test_depth_past_the_rim_leaves_empty_cells(self, tmp_path):
        out = tmp_path / "s.csv"
        summ = tmp_path / "s.json"
        assert run("sweep", "--family", "grid", "--side", "5",
                   "--beta-min", "1.5", "--beta-max", "1.5", "--steps", "1",
                   "--depths", "3,4,5", "--r", "0",
                   "--out", str(out), "--summary-out", str(summ)) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows[2] == "grid,5,,1.5,5,0,,,,UNDECIDED"
        assert all(cell for cell in rows[1].split(",")[6:9])
        assert json.loads(summ.read_text())["errors"] == {
            "5": "no nodes at depth 5; graph has max depth 4"
        }

    @pytest.mark.parametrize("flags,cap,message", [
        (("--family", "tess", "--p", "3", "--q", "3"), None, "(3-2)(3-2) = 1 is not > 4"),
        (("--family", "grid", "--side", "4"), None, "side must be odd, got 4"),
        (("--family", "edges", "--path", "{bad}"), None, "line 1: odd token count in '0 1 2'"),
        (("--family", "tree", "--k", "2"), "abc",
         "HYPERTRAFFIC_NODE_CAP must be an integer, got 'abc'"),
    ])
    def test_depth_free_error_named_once(self, tmp_path, monkeypatch, capsys,
                                         flags, cap, message):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 2\n")
        if cap is not None:
            monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", cap)
        out = tmp_path / "s.csv"
        assert run("sweep", *(f.format(bad=bad) for f in flags),
                   "--beta-min", "1.2", "--beta-max", "2.0", "--steps", "3",
                   "--depths", "2,3,4", "--r", "0", "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("family", ["tree", "star"])
    def test_two_sphere_sweep_matches_analyze(self, tmp_path, family):
        # a depth-1 ball has no ratio window: both commands report rate 0
        gfile = tmp_path / "g.json"
        if family == "tree":
            run("generate", "--family", "tree", "--k", "2", "--depth", "1",
                "--out", str(gfile))
            flags = ("--family", "tree", "--k", "2")
        else:
            efile = tmp_path / "star.txt"
            efile.write_text("0 1\n0 2\n")
            gfile.write_text(json.dumps(
                {"format": GRAPH_FORMAT, "root": 0, "node_count": 3, "edges": [[0, 1], [0, 2]]}
            ))
            flags = ("--family", "edges", "--path", str(efile))
        summ = tmp_path / "s.json"
        assert run("sweep", *flags, "--beta-min", "1.2", "--beta-max", "2.0",
                   "--steps", "3", "--depths", "1", "--r", "0",
                   "--out", str(tmp_path / "s.csv"), "--summary-out", str(summ)) == 0
        analyzed = tmp_path / "a.json"
        assert run("analyze", "--graph", str(gfile), "--out", str(analyzed)) == 0
        swept, analyzed = json.loads(summ.read_text()), json.loads(analyzed.read_text())
        keys = ("spheres", "window", "e_ratio", "e_slope", "beta_c_pred")
        assert {k: swept[k] for k in keys} == {k: analyzed[k] for k in keys}
        assert swept["window"] == 0 and swept["errors"] == {}


class TestTreeOracle:
    def test_table(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("tree-oracle", "--k", "2", "--beta", "1.5", "--n-max", "5",
                   "--threads", "1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,T_closed,T_engine")
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[5]) < 1e-9  # rel_err_T
            assert float(fields[6]) < 1e-9  # rel_err_P

    def test_just_off_beta_squared_equals_k(self, tmp_path):
        # a geometric closed form read rel_err_T 5.73e-9 at n = 10 here
        out = tmp_path / "o.csv"
        assert run("tree-oracle", "--k", "2", "--beta", "1.4142135612524063",
                   "--n-max", "10", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[5]) <= 1e-12  # rel_err_T
            assert float(fields[6]) <= 1e-12  # rel_err_P

    @pytest.mark.parametrize("beta", ["1e200", "inf"])
    def test_underflowing_root_share_exit_3(self, tmp_path, capsys, beta):
        # beta^-2 is 0.0 in float64, so the relative error has no base
        assert run("tree-oracle", "--k", "2", "--beta", beta, "--n-max", "2",
                   "--out", str(tmp_path / "o.csv")) == 3
        assert "underflows" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_exit_3(self, tmp_path, capsys, n_max):
        # checked before any rate, so a bad beta cannot pass unseen either
        out = tmp_path / "o.csv"
        assert run("tree-oracle", "--k", "2", "--beta", "0.5", f"--n-max={n_max}",
                   "--out", str(out)) == 3
        assert f"--n-max must be >= 1, got {n_max}" in capsys.readouterr().err
        assert not out.exists()

    def test_n_max_past_the_cap_exits_before_any_walk(self, tmp_path, capsys, monkeypatch):
        # k=3 trees fit a cap of 50 up to depth 3, so a shallow-first loop
        # would census three trees before depth 4 failed
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "50")
        calls = []
        census = traffic.pair_census
        monkeypatch.setattr(traffic, "pair_census", lambda *a: calls.append(a) or census(*a))
        out = tmp_path / "o.csv"
        assert run("tree-oracle", "--k", "3", "--beta", "2.0", "--n-max", "10",
                   "--out", str(out)) == 3
        assert calls == [] and not out.exists()
        assert "tree k=3 depth=10 exceeds node cap 50" in capsys.readouterr().err

    def test_bytes_match_the_unreduced_engine(self, tmp_path):
        # recorded before node loads were orbit-reduced, when every leaf of
        # every tree was walked
        out = tmp_path / "o.csv"
        assert run("tree-oracle", "--k", "3", "--beta", "2.0", "--n-max", "6",
                   "--out", str(out)) == 0
        assert out.read_bytes() == (FIXTURES / "tree-oracle-k3-beta2-n6.csv").read_bytes()


PATH_DOC = {"format": GRAPH_FORMAT, "root": 0, "node_count": 2, "edges": [[0, 1]]}

MALFORMED_DOCS = {
    "not-an-object": [1, 2],
    "missing-edges": {k: v for k, v in PATH_DOC.items() if k != "edges"},
    "missing-root": {k: v for k, v in PATH_DOC.items() if k != "root"},
    "missing-format": {k: v for k, v in PATH_DOC.items() if k != "format"},
    "missing-node-count": {k: v for k, v in PATH_DOC.items() if k != "node_count"},
    "float-endpoint": {**PATH_DOC, "edges": [[0, 1.5]]},
    "bool-endpoint": {**PATH_DOC, "edges": [[0, True]]},
    "string-endpoint": {**PATH_DOC, "edges": [[0, "1"]]},
    "float-root": {**PATH_DOC, "root": 0.0},
    "bool-root": {**PATH_DOC, "root": False},
    "float-node-count": {**PATH_DOC, "node_count": 2.0},
    "edge-not-a-pair": {**PATH_DOC, "edges": [[0, 1, 1]]},
    "edges-not-a-list": {**PATH_DOC, "edges": {"0": 1}},
}


class TestGraphSchema:
    @pytest.mark.parametrize("doc", MALFORMED_DOCS.values(), ids=MALFORMED_DOCS.keys())
    def test_malformed_graph_exit_3(self, tmp_path, capsys, doc):
        with pytest.raises(MalformedEdge):
            graph_from_json_dict(doc)
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps(doc))
        assert run("traffic", "--graph", str(gfile), "--beta", "1.5",
                   "--out", str(tmp_path / "r.json")) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_json_exit_3(self, tmp_path):
        gfile = tmp_path / "g.json"
        gfile.write_text("[" * 100000)
        assert run("traffic", "--graph", str(gfile), "--beta", "1.5",
                   "--out", str(tmp_path / "r.json")) == 3

    def test_valid_graph_exit_0(self, tmp_path):
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps(PATH_DOC))
        assert run("traffic", "--graph", str(gfile), "--beta", "1.5",
                   "--out", str(tmp_path / "r.json")) == 0


class TestLoadedNodeCap:
    HUGE = 10**9

    @staticmethod
    def refused(error, message, call, *args):
        """call(*args) raises `error` with exactly `message`, and its traced
        peak stays under 1 MiB: the ids are refused before the graph is
        allocated."""
        tracemalloc.start()
        try:
            with pytest.raises(error) as info:
                call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 1 << 20

    def test_library_loaders(self, monkeypatch):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "100")
        message = f"node id {self.HUGE} exceeds node cap 100"
        self.refused(SizeOverflow, message, load_edge_list, f"0 {self.HUGE}")
        self.refused(SizeOverflow, message, load_edge_list, f"# root {self.HUGE}")
        self.refused(SizeOverflow, message, graph_from_json_dict,
                     {**PATH_DOC, "edges": [[0, self.HUGE]]})
        self.refused(SizeOverflow, message, graph_from_json_dict,
                     {**PATH_DOC, "root": self.HUGE})

    def test_cli_reads_cap_from_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "100")
        gfile = tmp_path / "g.json"
        gfile.write_text(json.dumps({**PATH_DOC, "edges": [[0, self.HUGE]]}))
        efile = tmp_path / "e.txt"
        efile.write_text(f"0 {self.HUGE}\n")
        commands = [
            ("traffic", "--graph", str(gfile), "--beta", "1.5", "--out", str(tmp_path / "r.json")),
            ("sweep", "--family", "edges", "--path", str(efile), "--beta-min", "1.1",
             "--beta-max", "1.5", "--steps", "2", "--depths", "1", "--r", "0",
             "--out", str(tmp_path / "s.csv")),
        ]
        for argv in commands:
            tracemalloc.start()
            try:
                code = run(*argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 3
            assert capsys.readouterr().err == f"error: node id {self.HUGE} exceeds node cap 100\n"
            assert peak < 1 << 20

    def test_cap_is_a_node_count(self, monkeypatch):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "100")
        with pytest.raises(DisconnectedGraph):  # id 99 passes the cap of 100
            load_edge_list("0 99")
        with pytest.raises(SizeOverflow):
            load_edge_list("0 100")

    def test_sparse_ids_refused_before_allocating(self):
        """An id no edge names leaves a gap no graph can fill, so both
        loaders refuse it before build_graph allocates one set per id."""
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraph, match="e.g. node 1$"):
                load_edge_list("0 1000000")
            with pytest.raises(DisconnectedGraph, match="e.g. node 1$"):
                graph_from_json_dict({**PATH_DOC, "edges": [[0, 1000000]]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_node_count_must_match_the_built_graph(self):
        with pytest.raises(MalformedEdge, match="claims 3 nodes but edges imply 2"):
            graph_from_json_dict({**PATH_DOC, "node_count": 3})
        with pytest.raises(MalformedEdge, match="claims 1 nodes but edges imply 2"):
            graph_from_json_dict({**PATH_DOC, "node_count": 1})

    # an unparsable cap fails every command, whatever its input would build
    BAD_CAP_COMMANDS = {
        "generate": ("generate", "--family", "tree", "--k", "2", "--depth", "2"),
        "analyze": ("analyze", "--graph", "{graph}"),
        "traffic": ("traffic", "--graph", "{graph}", "--beta", "1.5"),
        "sweep": ("sweep", "--family", "tree", "--k", "2", "--beta-min", "1.1",
                  "--beta-max", "1.5", "--steps", "2", "--depths", "1,2", "--r", "0"),
        "tree-oracle": ("tree-oracle", "--k", "2", "--beta", "2.0", "--n-max", "2"),
    }

    @pytest.mark.parametrize("command", BAD_CAP_COMMANDS)
    def test_bad_node_cap_env_is_named(self, tmp_path, monkeypatch, capsys, command):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(PATH_DOC))
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "abc")
        out = tmp_path / "out"
        argv = [a.format(graph=graph) for a in self.BAD_CAP_COMMANDS[command]]
        assert run(*argv, "--out", str(out)) == 3
        assert "HYPERTRAFFIC_NODE_CAP" in capsys.readouterr().err
        assert not out.exists()

    # each would write or read a 1-node graph, which a cap below 1 refuses too
    ONE_NODE_COMMANDS = {
        "tree": ("generate", "--family", "tree", "--k", "2", "--depth", "0"),
        "tess": ("generate", "--family", "tess", "--p", "5", "--q", "4", "--depth", "0"),
        "grid": ("generate", "--family", "grid", "--side", "1"),
        "edges": ("generate", "--family", "edges", "--path", "{edges}"),
        "json": ("analyze", "--graph", "{graph}"),
    }

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("command", ONE_NODE_COMMANDS)
    def test_node_cap_below_one_is_named(self, tmp_path, monkeypatch, capsys, command, cap):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({**PATH_DOC, "node_count": 1, "edges": []}))
        edges = tmp_path / "g.txt"
        edges.write_text("# root 0\n")
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", cap)
        out = tmp_path / "out"
        argv = [a.format(graph=graph, edges=edges) for a in self.ONE_NODE_COMMANDS[command]]
        assert run(*argv, "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            f"error: HYPERTRAFFIC_NODE_CAP must be at least 1, got {cap}\n"
        )
        assert not out.exists()


# ids stay mostly small so that valid graphs turn up; the node cap set in the
# fuzz test refuses the large ones before any allocation
NODE_IDS = st.integers(-2, 10) | st.integers(-(10**12), 10**12)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
GRAPH_DOCS = st.fixed_dictionaries({}, optional={
    "format": st.just(GRAPH_FORMAT) | ANY_JSON,
    "root": NODE_IDS | ANY_JSON,
    "node_count": NODE_IDS | ANY_JSON,
    "edges": st.lists(st.lists(NODE_IDS, max_size=3) | ANY_JSON, max_size=10) | ANY_JSON,
    "family": ANY_JSON,
})
# connected graphs on nodes 0..8: a spanning path plus random chords
VALID_DOCS = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12).map(
    lambda chords: {
        "format": GRAPH_FORMAT, "root": 0, "node_count": 9,
        "edges": [[i, i + 1] for i in range(8)] + [[u, v] for u, v in chords if u != v],
    }
)
# any float a rate flag can carry, nan, infinities and zeros included, and
# tables of one to four of them
RATE_FLAGS = st.tuples(st.sampled_from(["--beta", "--alpha"]), st.floats().map(repr)) | st.tuples(
    st.just("--table"),
    st.lists(st.floats(), min_size=1, max_size=4).map(lambda vs: ",".join(map(repr, vs))),
)
EDGE_LINES = st.lists(
    st.tuples(NODE_IDS, NODE_IDS).map(lambda e: f"{e[0]} {e[1]}")
    | NODE_IDS.map(lambda r: f"# root {r}")
    | st.text(max_size=8),
    max_size=12,
).map("\n".join) | VALID_DOCS.map(
    lambda doc: "\n".join(f"{u} {v}" for u, v in doc["edges"])
)


class TestExitCodeContract:
    """Whatever the input file holds, the CLI exits 0, 2 or 3 and never raises."""

    SETTINGS = settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )

    @SETTINGS
    @given(doc=ANY_JSON | GRAPH_DOCS | VALID_DOCS)
    def test_traffic_on_any_json(self, monkeypatch, doc):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "64")
        with tempfile.TemporaryDirectory() as tmp:
            gfile = Path(tmp) / "g.json"
            gfile.write_text(json.dumps(doc))
            code = exit_code("traffic", "--graph", str(gfile), "--beta", "1.5",
                             "--out", str(Path(tmp) / "r.json"),
                             "--loads-out", str(Path(tmp) / "l.csv"))
        assert code in (0, 2, 3)

    @SETTINGS
    @given(data=EDGE_LINES.map(lambda t: t.encode("utf-8", "replace")) | st.binary(max_size=40))
    def test_sweep_on_any_edge_list(self, monkeypatch, data):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "64")
        with tempfile.TemporaryDirectory() as tmp:
            efile = Path(tmp) / "e.txt"
            efile.write_bytes(data)
            code = exit_code("sweep", "--family", "edges", "--path", str(efile),
                             "--beta-min", "1.1", "--beta-max", "1.5", "--steps", "2",
                             "--depths", "1,2", "--r", "0",
                             "--out", str(Path(tmp) / "s.csv"),
                             "--summary-out", str(Path(tmp) / "s.json"))
        assert code in (0, 2, 3)

    @SETTINGS
    @given(rate=RATE_FLAGS)
    @example(rate=("--table", "0.0"))
    @example(rate=("--beta", repr(math.inf)))
    @example(rate=("--table", "4e307,4e307,4e307"))
    @example(rate=("--table", "1e308,1e308"))
    def test_traffic_on_any_rate(self, rate):
        flag, value = rate
        with tempfile.TemporaryDirectory() as tmp:
            gfile = Path(tmp) / "g.json"
            gfile.write_text(json.dumps(graph_to_json_dict(generators.gen_kary_tree(2, 2))))
            code = exit_code("traffic", "--graph", str(gfile), f"{flag}={value}",
                             "--out", str(Path(tmp) / "r.json"),
                             "--loads-out", str(Path(tmp) / "l.csv"))
        assert code in (0, 3)

    # small k and n-max give trees under the node cap, and the bounded beta
    # range reaches the betas whose closed-form root share underflows
    @SETTINGS
    @given(k=st.integers(-1, 9) | st.integers(), n_max=st.integers(-1, 6) | st.integers(),
           beta=st.floats(1.0, 1e300) | st.floats())
    def test_tree_oracle_on_any_flags(self, monkeypatch, k, n_max, beta):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "64")
        with tempfile.TemporaryDirectory() as tmp:
            code = exit_code("tree-oracle", f"--k={k}", f"--n-max={n_max}", f"--beta={beta!r}",
                             "--out", str(Path(tmp) / "o.csv"))
        assert code in (0, 2, 3)


def test_cli_import_leaves_fractions_unloaded(tmp_path):
    """No command loads fractions, or the decimal module it pulls in: not
    the import of the CLI, and not analyze, whose four-point delta is an
    exact half-integer held in a float."""
    edges = tmp_path / "c5.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    gfile, out = tmp_path / "g.json", tmp_path / "a.json"
    assert run("generate", "--family", "edges", "--path", str(edges), "--out", str(gfile)) == 0
    src = str(Path(hypertraffic.__file__).resolve().parents[1])
    code = (
        "import sys, hypertraffic.cli\n"
        f"code = hypertraffic.cli.main(['analyze', '--graph', {str(gfile)!r}, '--out', {str(out)!r}])\n"
        "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    stdout = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert stdout.splitlines()[-1] == "0 []"
    assert json.loads(out.read_text())["delta_four_point"] == 0.5


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    """generate, analyze, traffic with loads, sweep and tree-oracle, run in
    one child process, never import numpy.ma: a plain np.unique or
    np.union1d would, about 10 ms of the start-up that dominates a small
    run."""
    edges = tmp_path / "c5.txt"
    edges.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    out = {name: str(tmp_path / name) for name in ("t.json", "e.json", "a.json", "r.json",
                                                   "l.json", "s.csv", "o.csv")}
    commands = [
        ["generate", "--family", "tess", "--p", "5", "--q", "4", "--depth", "2",
         "--out", out["t.json"]],
        ["generate", "--family", "edges", "--path", str(edges), "--out", out["e.json"]],
        ["analyze", "--graph", out["t.json"], "--out", out["a.json"]],
        ["traffic", "--graph", out["e.json"], "--beta", "1.5", "--out", out["r.json"],
         "--loads-out", out["l.json"]],
        ["sweep", "--family", "tess", "--p", "5", "--q", "4", "--beta-min", "1.1",
         "--beta-max", "1.5", "--steps", "2", "--depths", "1,2", "--r", "0",
         "--out", out["s.csv"]],
        ["tree-oracle", "--k", "2", "--beta", "2.0", "--n-max", "2", "--out", out["o.csv"]],
    ]
    src = str(Path(hypertraffic.__file__).resolve().parents[1])
    code = (
        "import sys, hypertraffic.cli\n"
        f"codes = [hypertraffic.cli.main(argv) for argv in {commands!r}]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    stdout = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert stdout.splitlines()[-1] == f"{[0] * len(commands)} False"
    assert all(Path(path).stat().st_size for path in out.values())
