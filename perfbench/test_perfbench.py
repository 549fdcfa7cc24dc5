"""Self-test of the benchmark's tracing: span arithmetic and span counts.

    python3 -m pytest perfbench/test_perfbench.py

The span-count cases run each workload's CLI command once in process with
tracing on (about 30 s in all).
"""

from __future__ import annotations

import pytest

import run
import tracing
import workloads


def _span(run_id, span_id, parent, name, start, end):
    return {"run": run_id, "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end, "counts": {}}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("r", 0, None, "cli.main", 0.0, 10.0),
        _span("r", 1, 0, "generators.family_graph", 1.0, 4.0),
        _span("r", 2, 1, "generators.gen_kary_tree", 2.0, 3.0),
        # overlapping children cover [5, 8] once
        _span("r", 3, 0, "traffic.pair_census", 5.0, 7.0),
        _span("r", 4, 0, "traffic.pair_census", 6.0, 8.0),
        # same ids in another run are separate spans
        _span("s", 1, None, "generators.family_graph", 0.0, 0.5),
    ]
    names, layers = tracing.summarize(spans)
    assert names["cli.main"]["self_s"] == pytest.approx(10.0 - 3.0 - 3.0)
    assert names["generators.family_graph"]["calls"] == 2
    assert names["generators.family_graph"]["self_s"] == pytest.approx(2.0 + 0.5)
    assert names["traffic.pair_census"]["total_s"] == pytest.approx(4.0)
    # the nested generator call is counted once in the layer's time
    assert layers["generators"] == pytest.approx(3.5)
    assert layers["traffic"] == pytest.approx(4.0)


# span counts of one traced CLI run: (census, totals, loads)
EXPECTED = {
    "sweep-tess54": (4, 52, 0),
    "loads-tess54-d7": (1, 1, 1),
    "oracle-tree-k3": (6, 6, 6),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_run_sees_every_call(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    bench = run.Bench(workloads.WORKLOADS[name], 1, 1.0, run.import_package())
    bench.setup()
    tracer = tracing.Tracer()
    tracer.run_id = "test"
    bench.in_process(tracer)
    names, _ = tracing.summarize(tracer.spans)
    calls = tuple(
        names.get(f"traffic.{f}", {}).get("calls", 0)
        for f in ("pair_census", "traffic_totals", "node_loads")
    )
    assert calls == EXPECTED[name]
    assert bench.problems == []
    assert (bench.attempted, bench.failed) == (1, 0)
