"""hypertraffic benchmark: a closed loop of CLI runs, one workload per call.

    python3 perfbench/run.py --workload sweep-tess54 --seed 1 --seconds 32 --trace 0

Run from the repository root. One client starts the ``hypertraffic`` CLI as a
child process (``python3 -m hypertraffic.cli`` on ``src/``) and starts the next
run only after the previous one has exited, until ``--seconds`` of runs are
done. Every run's outputs are checked. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics of untraced child runs;
- ``--trace 1``: per-layer metrics from in-process ``cli.main(argv)`` runs with
  spans around the package's public functions (see tracing.py).

Lines before it give each metric with its unit, the sample counts, the
machine facts, and where the full record was written (``.perfbench-out/``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

IMPORT_REPEATS = 3
# the whole run, with set-up and checks, must end well inside 180 s
DEADLINE_S = 170.0


def machine_facts() -> dict:
    import numpy

    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": workloads.nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Child:
    """Runs a Python child on src/ and reports wall, CPU and peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, args: list, log: Path) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark deadline passed before a child run")
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env,
                stdout=out, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }

    def cli(self, argv: list, log: Path) -> dict:
        return self.run(["-m", "hypertraffic.cli", *argv], log)


class Bench:
    def __init__(self, workload, seed: int, seconds: float, ht):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.ht = ht
        self.start = time.monotonic()
        self.child = Child(self.start + DEADLINE_S)
        self.workdir = OUT / f"run-{workload.name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_times = []
        self.workdir.mkdir(parents=True, exist_ok=True)

    def record(self, code: int, problems: list):
        """Count one CLI run; it fails on a non-zero exit or a failed check."""
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}", *problems]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)

    def check(self, *args) -> list:
        try:
            return self.w.check(self.ctx, self.workdir, *args)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]

    def setup(self):
        """Prepare the workload's inputs once more and time it."""
        t0 = time.perf_counter()
        self.ctx = self.w.setup(self.ht, self.workdir, self.seed)
        self.setup_times.append(time.perf_counter() - t0)

    def time_left(self, elapsed: float, durations: list) -> bool:
        """Start another run only if it should end inside --seconds."""
        if elapsed >= self.seconds:
            return False
        return elapsed + statistics.median(durations) <= self.seconds

    def child_run(self) -> dict:
        sample = self.child.cli(self.w.argv(self.ctx, self.workdir), self.workdir / "cli.log")
        self.record(sample["code"], self.check() if sample["code"] == 0 else [])
        return sample

    def untraced(self) -> list:
        """Timed child runs, each after one more set-up, so that set-up is
        sampled across the whole window rather than in one burst."""
        samples = []
        t0 = time.perf_counter()
        while True:
            self.setup()
            samples.append(self.child_run())
            if not self.time_left(time.perf_counter() - t0, [s["wall_s"] for s in samples]):
                return samples

    def single_thread(self):
        """The sweep's criterion-7 check, made once per run outside the timing."""
        if not hasattr(self.w, "single_thread_check"):
            return
        log = self.workdir / "cli-t1.log"
        sample = self.child.cli(self.w.argv(self.ctx, self.workdir, threads=1), log)
        problems = []
        if sample["code"] == 0:
            try:
                problems = self.w.single_thread_check(self.ctx, self.workdir)
            except OSError as exc:
                problems = [f"unreadable output: {exc!r}"]
        self.record(sample["code"], problems)

    def in_process(self, tracer: tracing.Tracer | None) -> float:
        """One cli.main(argv) run in this process, traced when a tracer is
        given; returns its wall time."""
        from hypertraffic import cli

        argv = self.w.argv(self.ctx, self.workdir)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.patched(), tracer.span("cli.main"):
                        code = cli.main(argv)
        except Exception:  # a crash is a failed run, not a crashed benchmark
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - t0
        problems = self.check() if code == 0 else []
        if tracer is not None:
            problems += self.check_spans(tracer.spans)
        self.record(code, problems)
        return wall

    def traced(self) -> dict:
        tracer = tracing.Tracer()
        tracer.run_id = "setup"
        with tracer.patched(), tracer.span("bench.setup"):
            self.w.setup(self.ht, self.workdir, self.seed)
        setup_spans = list(tracer.spans)

        imports = [
            self.child.run(["-c", "import hypertraffic.cli"], self.workdir / "import.log")
            for _ in range(IMPORT_REPEATS)
        ]
        child = self.child_run()

        traced_walls, plain_walls, per_run, all_spans = [], [], [], list(setup_spans)
        t0 = time.perf_counter()
        while True:
            tracer.spans = []
            tracer.run_id = f"cli-{len(per_run)}"
            traced_walls.append(self.in_process(tracer))
            all_spans += tracer.spans
            per_run.append(layer_metrics(setup_spans + tracer.spans))
            plain_walls.append(self.in_process(None))
            durations = [a + b for a, b in zip(traced_walls, plain_walls)]
            if not self.time_left(time.perf_counter() - t0 + child["wall_s"], durations):
                break
        self.write_spans(all_spans)

        # median_low keeps counts whole when there is an even number of runs
        metrics = {
            name: statistics.median_low(run[name] for run in per_run)
            for name in per_run[0]
        }
        metrics["cli.import_s"] = statistics.median(s["wall_s"] for s in imports)
        metrics["cli.cpu_s"] = child["cpu_s"]
        metrics["cli.cpu_per_wall"] = child["cpu_s"] / child["wall_s"]
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(plain_walls)
        )
        self.trace_samples = len(traced_walls)
        return metrics

    def check_spans(self, spans) -> list:
        """Every census sums to |S_n|^2 and every traced call was seen."""
        problems = []
        for s in spans:
            got, want = s["counts"].get("pairs"), s["counts"].get("expected_pairs")
            if s["name"] == "traffic.pair_census" and got != want:
                problems.append(f"census sums to {got}, not |S_n|^2 = {want}")
        names, _ = tracing.summarize(spans)
        for name, want in self.w.expected_spans.items():
            got = names.get(name, {}).get("calls", 0)
            if got != want:
                problems.append(f"{got} {name} spans, expected {want}")
        return problems

    def write_spans(self, spans):
        path = OUT / f"spans-{self.w.name}-{self.seed}-{os.getpid()}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(spans) -> dict:
    """Every per-layer figure one traced run gives; times in seconds."""
    names, layers = tracing.summarize(spans)

    def get(name, field="total_s"):
        return names.get(name, {}).get(field, 0 if field == "calls" else 0.0)

    def count(name, key):
        return names.get(name, {}).get("counts", {}).get(key, 0)

    census_s = get("traffic.pair_census")
    census_sources = count("traffic.pair_census", "sources")
    loads_s = get("traffic.node_loads")
    loads_sources = count("traffic.node_loads", "sources")
    m = {
        "traffic.pair_census_s": census_s,
        "traffic.census_sources": census_sources,
        "traffic.census_us_per_source": 1e6 * census_s / census_sources if census_sources else 0.0,
        "traffic.node_loads_s": loads_s,
        "traffic.loads_sources": loads_sources,
        "traffic.loads_us_per_source": 1e6 * loads_s / loads_sources if loads_sources else 0.0,
        "traffic.bfs_s": census_s + loads_s,
        "traffic.traffic_totals_self_s": get("traffic.traffic_totals", "self_s"),
        "tessellation.build_ball_s": get("tessellation.build_ball"),
        "generators.family_graph_s": get("generators.family_graph"),
        "generators.gen_kary_tree_s": get("generators.gen_kary_tree"),
        "generators.total_s": layers.get("generators", 0.0),
        "graphs.graph_from_json_s": get("graphs.graph_from_json"),
        "graphs.build_graph_self_s": get("graphs.build_graph", "self_s"),
        "graphs.nodes": count("graphs.build_graph", "nodes"),
        "graphs.edges": count("graphs.build_graph", "edges"),
        "analysis.sweep_self_s": get("analysis.sweep", "self_s"),
        "serialize.write_text_s": get("serialize.write_text"),
        "serialize.bytes_written": count("serialize.write_text", "bytes"),
        "cli.self_s": get("cli.main", "self_s"),
    }
    for _, _, name in tracing.TRACED:
        m[f"{name}_calls"] = get(name, "calls")
    return m


def load_spec() -> dict:
    """Metric names and units, from the BENCHMARK.json beside this directory."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def unit_of(name: str, spec: dict) -> str:
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    # per-layer times that are 0 on a workload that never calls the function
    # are printed, not reported (see README.md)
    return "us" if name.endswith("_us_per_source") else "s"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import hypertraffic from this checkout's src/, never from elsewhere."""
    if not (SRC / "hypertraffic" / "cli.py").is_file():
        raise SystemExit(f"error: no hypertraffic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypertraffic
    import hypertraffic.cli  # noqa: F401  (loads every module the CLI uses)

    if Path(hypertraffic.__file__).resolve().parent != SRC / "hypertraffic":
        raise SystemExit(f"error: hypertraffic imported from {hypertraffic.__file__}")
    return hypertraffic


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    ht = import_package()
    bench = Bench(workloads.WORKLOADS[args.workload], args.seed, args.seconds, ht)
    facts = machine_facts()
    load_before = os.getloadavg()

    bench.setup()
    if args.trace:
        metrics = bench.traced()
        bench.single_thread()
        samples = None
    else:
        samples = bench.untraced()
        bench.single_thread()
        wall = statistics.median(s["wall_s"] for s in samples)
        metrics = {
            "wall_s": wall,
            "pairs_per_s": bench.ctx["pairs"] / wall,
            "setup_s": statistics.median(bench.setup_times),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
    facts["loadavg_before"] = list(load_before)
    facts["loadavg_after"] = list(os.getloadavg())
    shutil.rmtree(bench.workdir, ignore_errors=True)

    correct = bench.failed == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "pairs_per_run": bench.ctx["pairs"],
        "setup_s_samples": bench.setup_times,
        "cli_samples": samples,
        "problems": bench.problems,
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    path = OUT / f"result-{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(facts))
    if samples is not None:
        walls = ", ".join(f"{x['wall_s']:.3f}" for x in samples)
        print(f"samples {len(samples)} CLI runs (closed loop, one client): {walls} s; "
              f"setup repeated {len(bench.setup_times)} times")
    else:
        print(f"samples {bench.trace_samples} traced and untraced in-process runs")
    for name, val in metrics.items():
        print(f"{name} {val!r} {unit_of(name, spec)}")
    print(f"error_rate {bench.failed / bench.attempted!r} "
          f"({bench.failed} failed of {bench.attempted} attempted)")
    print(f"record {path.relative_to(ROOT)}")
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
