"""The three benchmark workloads: their inputs, CLI commands and output checks.

Each workload's ``setup`` prepares a run directory with everything the CLI
reads and everything the output check needs, using the package's generators
in process; the benchmark times it as ``setup_s``. ``argv`` is the command the
timed child runs; ``check`` returns a list of problems with the outputs it
wrote (empty when they are correct).

Why these three workloads is written up in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import os
import random
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

LOADS_REL_TOL = 1e-12
ORACLE_REL_TOL = 1e-9


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class SweepTess54:
    """Criterion-7 sweep over the (5,4) tessellation, graph generation included."""

    name = "sweep-tess54"
    depths = (5, 6, 7, 8)
    base_argv = (
        "sweep", "--family", "tess", "--p", "5", "--q", "4",
        "--beta-min", "1.1", "--beta-max", "2.3", "--steps", "13",
        "--depths", "5,6,7,8", "--r", "2",
    )
    # spans the traced CLI run must record: 13 betas x 4 depths of totals,
    # each on a census taken once per depth
    expected_spans = {
        "traffic.pair_census": 4,
        "traffic.traffic_totals": 52,
        "traffic.node_loads": 0,
        "generators.family_graph": 4,
    }

    def setup(self, ht, workdir: Path, seed: int) -> dict:
        spec = ht.generators.FamilySpec(variant="tessellation", p=5, q=4)
        pairs = 0
        for d in self.depths:
            g = ht.generators.family_graph(spec, depth=d)
            pairs += len(g.layers[d]) ** 2
        return {
            "pairs": pairs,
            "reference": (
                _read(REFERENCE / "sweep-tess54.csv"),
                _read(REFERENCE / "sweep-tess54.summary.json"),
            ),
        }

    @staticmethod
    def _outputs(workdir: Path, threads: int | None = None) -> tuple:
        tag = "" if threads is None else f"-t{threads}"
        return workdir / f"sweep{tag}.csv", workdir / f"summary{tag}.json"

    def argv(self, ctx, workdir: Path, threads: int | None = None) -> list:
        out, summary = self._outputs(workdir, threads)
        return [
            *self.base_argv,
            "--threads", str(nproc() if threads is None else threads),
            "--out", str(out), "--summary-out", str(summary),
        ]

    def check(self, ctx, workdir: Path, threads: int | None = None) -> list:
        return [
            f"{path.name} bytes differ from the reference"
            for path, want in zip(self._outputs(workdir, threads), ctx["reference"])
            if _read(path) != want
        ]

    def single_thread_check(self, ctx, workdir: Path) -> list:
        """Criterion 7: --threads 1 writes the same bytes as the timed run."""
        problems = self.check(ctx, workdir, threads=1)
        for timed, single in zip(self._outputs(workdir), self._outputs(workdir, 1)):
            if _read(timed) != _read(single):
                problems.append(f"{timed.name} differs between --threads {nproc()} and 1")
        return problems


class LoadsTess54D7:
    """traffic + node loads on a relabelled (5,4) depth-7 ball read from JSON."""

    name = "loads-tess54-d7"
    depth = 7
    expected_spans = {
        "traffic.pair_census": 1,
        "traffic.traffic_totals": 1,
        "traffic.node_loads": 1,
        "graphs.graph_from_json": 1,
    }

    def setup(self, ht, workdir: Path, seed: int) -> dict:
        spec = ht.generators.FamilySpec(variant="tessellation", p=5, q=4, depth=self.depth)
        g = ht.generators.family_graph(spec)
        n = g.node_count
        # seed 0 keeps generator order; any other seed relabels every node
        perm = list(range(n))
        if seed != 0:
            random.Random(seed).shuffle(perm)
        edges = sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edge_list()
        )
        doc = {
            "format": "hypertraffic-graph-v1",
            "root": perm[g.root],
            "node_count": n,
            "edges": [list(e) for e in edges],
            "family": spec.descriptor(),
        }
        with open(workdir / "graph.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        reference = {}
        with open(REFERENCE / "loads-tess54-d7.loads.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                reference[int(row["node"])] = (int(row["depth"]), float(row["load"]))
        return {
            "pairs": len(g.layers[self.depth]) ** 2,
            "perm": perm,
            "report": _read(REFERENCE / "loads-tess54-d7.report.json"),
            "loads": reference,
        }

    def argv(self, ctx, workdir: Path) -> list:
        return [
            "traffic", "--graph", str(workdir / "graph.json"), "--beta", "1.2",
            "--threads", "1",
            "--out", str(workdir / "report.json"),
            "--loads-out", str(workdir / "loads.csv"),
        ]

    def check(self, ctx, workdir: Path) -> list:
        problems = []
        if _read(workdir / "report.json") != ctx["report"]:
            problems.append("traffic report bytes differ from the reference")
        perm, reference = ctx["perm"], ctx["loads"]
        inverse = [0] * len(perm)
        for old, new in enumerate(perm):
            inverse[new] = old
        with open(workdir / "loads.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["node"]) for r in rows] != list(range(len(perm))):
            return problems + ["loads CSV does not list every node once, in order"]
        worst = 0.0
        for r in rows:
            want_depth, want = reference[inverse[int(r["node"])]]
            got = float(r["load"])
            if int(r["depth"]) != want_depth:
                problems.append(f"node {r['node']}: depth {r['depth']} != {want_depth}")
            elif want == 0.0:
                if got != 0.0:
                    problems.append(f"node {r['node']}: load {got} where the reference is 0")
            else:
                worst = max(worst, _rel_err(got, want))
        if worst > LOADS_REL_TOL:
            problems.append(f"loads differ from the reference by {worst:.3g} relative")
        return problems[:5]


class OracleTreeK3:
    """tree-oracle on k=3 trees against exact closed forms, depths 1..6."""

    name = "oracle-tree-k3"
    k = 3
    beta = 2
    n_max = 6
    expected_spans = {
        "traffic.pair_census": 6,
        "traffic.traffic_totals": 6,
        "traffic.node_loads": 6,
        "generators.gen_kary_tree": 6,
    }

    def _exact(self, n: int):
        """T and root share P from leaf-pair distances: a leaf has
        (k-1)k^(r-1) leaves at distance 2r, and only pairs in different root
        subtrees (distance 2n) cross the root."""
        k, inv_b = self.k, Fraction(1, self.beta)
        per_leaf = 1 + sum((k - 1) * k ** (r - 1) * inv_b ** (2 * r) for r in range(1, n + 1))
        through_root = (k - 1) * k ** (n - 1) * inv_b ** (2 * n)
        return k**n * per_leaf, through_root / per_leaf

    def setup(self, ht, workdir: Path, seed: int) -> dict:
        pairs = 0
        for n in range(1, self.n_max + 1):
            g = ht.generators.gen_kary_tree(self.k, n)
            pairs += len(g.layers[n]) ** 2
        exact = {n: tuple(float(x) for x in self._exact(n)) for n in range(1, self.n_max + 1)}
        return {"pairs": pairs, "exact": exact}

    def argv(self, ctx, workdir: Path) -> list:
        return [
            "tree-oracle", "--k", str(self.k), "--beta", f"{self.beta:.1f}",
            "--n-max", str(self.n_max), "--threads", "1",
            "--out", str(workdir / "oracle.csv"),
        ]

    def check(self, ctx, workdir: Path) -> list:
        with open(workdir / "oracle.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["n"]) for r in rows] != list(range(1, self.n_max + 1)):
            return ["oracle CSV does not have one row per depth 1..n_max"]
        problems = []
        for r in rows:
            n = int(r["n"])
            t_exact, p_exact = ctx["exact"][n]
            errs = {
                "rel_err_T": float(r["rel_err_T"]),
                "rel_err_P": float(r["rel_err_P"]),
                "T_engine vs exact": _rel_err(float(r["T_engine"]), t_exact),
                "root share vs exact": _rel_err(float(r["root_share_engine"]), p_exact),
            }
            for label, err in errs.items():
                if not err <= ORACLE_REL_TOL:
                    problems.append(f"n={n}: {label} {err:.3g} > {ORACLE_REL_TOL}")
        return problems


WORKLOADS = {w.name: w for w in (SweepTess54(), LoadsTess54D7(), OracleTreeK3())}
