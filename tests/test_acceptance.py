"""Acceptance suite: one test per criterion clause, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to watch them stream).

Three clauses are KNOWN RED and intentionally left failing:
  - criterion 3, tessellation growth target: the stated constant belongs to
    the (4, 5) tessellation, not (5, 4); the (5, 4) exponent converges to
    ln 2.2966..., 13.6% below the target, so no trailing-window estimate can
    land within 5%.
  - criterion 4, non-decreasing ratio tail at beta = 1.2: finite-depth
    T_r/T approaches its subcritical limit from above (provably so on trees
    via the closed forms; measured on the tessellation), so the tail is
    decreasing.
  - criterion 5, LOCAL at beta = 1.2: the depth-12 ratio is 0.0503, a hair
    over the 0.05 threshold the classification rule uses.
"""

import math
import time

from hypertraffic.analysis import (
    LOCAL,
    beta_c,
    classify_transition,
    default_window,
    growth_exponent,
    tree_closed_forms,
)
from hypertraffic.cli import main as cli_main
from hypertraffic.generators import gen_grid, gen_kary_tree, gen_tessellation
from hypertraffic.graphs import build_graph, four_point_delta
from hypertraffic.tessellation import build_ball
from hypertraffic.traffic import (
    ExponentialRate,
    node_loads,
    pair_census,
    traffic_totals,
)
from oracles import bfs_dist, brute_traffic, geodesic_field, pair_h, slim_delta_exact

PHI2 = (3.0 + math.sqrt(5.0)) / 2.0

_tess_cache = {}


def tess54(depth):
    if depth not in _tess_cache:
        g = gen_tessellation(5, 4, depth)
        _tess_cache[depth] = (g, pair_census(g, depth))
    return _tess_cache[depth]


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_tree_oracle_equivalence():
    t0 = time.time()
    worst_t = worst_p = 0.0
    for k, depths in ((2, range(2, 9)), (3, range(2, 7))):
        for beta in (1.2, 2.0):
            rate = ExponentialRate(beta)
            for n in depths:
                g = gen_kary_tree(k, n)
                rep = traffic_totals(pair_census(g, n), rate)
                loads = node_loads(g, rate, n)
                closed = tree_closed_forms(k, beta, n)
                worst_t = max(worst_t, abs(rep.T - closed["T"]) / closed["T"])
                share = loads[g.root] / rep.T
                worst_p = max(worst_p, abs(share - closed["P"]) / closed["P"])
    elapsed = time.time() - t0
    report(
        1,
        worst_t < 1e-9 and worst_p < 1e-9 and elapsed < 60.0,
        f"max rel err T {worst_t:.2e}, P {worst_p:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_tree_limits():
    t0 = time.time()
    p40 = tree_closed_forms(4, 1.5, 40)["P"]
    p12 = tree_closed_forms(4, 2.5, 12)["P"]
    elapsed = time.time() - t0
    report(
        2,
        abs(p40 - 0.4375) < 1e-3 and p12 < 0.01 and elapsed < 1.0,
        f"P(40)@k4,b1.5 = {p40:.6f}, P(12)@k4,b2.5 = {p12:.6f}, {elapsed:.2f}s",
    )


def test_criterion_3_beta_c_anchors():
    ok = beta_c(math.log(9.0)) == 3.0 and beta_c(0.0) == 1.0
    report("3/anchors", ok, f"beta_c(ln 9) = {beta_c(math.log(9.0))!r}, beta_c(0) = {beta_c(0.0)!r}")


def test_criterion_3_tessellation_growth_target():
    # KNOWN RED: the (5,4) ball's growth exponent is ln 2.2966... (Salem
    # root of x^4 - 2x^3 - 2x + 1); the stated target is the (4,5) value.
    t0 = time.time()
    g, _ = tess54(8)
    spheres = [len(layer) for layer in g.layers]
    est = growth_exponent(spheres, default_window(spheres))
    pred = beta_c(est.e_ratio)
    elapsed = time.time() - t0

    g45 = gen_tessellation(4, 5, 8)
    s45 = [len(layer) for layer in g45.layers]
    est45 = growth_exponent(s45, default_window(s45))
    print(
        f"[criterion 3] diagnostic: (5,4) e_ratio {est.e_ratio:.6f} vs target "
        f"{math.log(PHI2):.6f}; the (4,5) ball gives {est45.e_ratio:.6f} "
        f"(off by {abs(est45.e_ratio / math.log(PHI2) - 1):.2%})"
    )
    ok = (
        abs(est.e_ratio - math.log(PHI2)) / math.log(PHI2) < 0.05
        and abs(pred - math.sqrt(PHI2)) / math.sqrt(PHI2) < 0.03
        and elapsed < 120.0
    )
    report(
        "3/tessellation",
        ok,
        f"(5,4) e_ratio {est.e_ratio:.6f} (target {math.log(PHI2):.6f} within 5%), "
        f"beta_c_pred {pred:.6f} (target {math.sqrt(PHI2):.6f} within 3%), {elapsed:.1f}s",
    )


def _ratio_series(beta, depths, r):
    out = []
    for n in depths:
        _, census = tess54(n)
        rep = traffic_totals(census, ExponentialRate(beta))
        out.append(rep.T_r[r] / rep.T)
    return out


def test_criterion_4_separation_and_beta_monotonicity():
    t0 = time.time()
    depths = (5, 6, 7, 8)
    low = _ratio_series(1.2, depths, 2)
    high = _ratio_series(2.2, depths, 2)
    high_tail = high[-3:]
    high_tail_ok = all(b <= a + 1e-9 for a, b in zip(high_tail, high_tail[1:]))
    separation_ok = low[-1] > 5.0 * high[-1]

    _, census7 = tess54(7)
    betas = [1.1 + i * (2.3 - 1.1) / 12 for i in range(13)]
    grid = [
        traffic_totals(census7, ExponentialRate(b)).ratio(2)
        for b in betas
    ]
    grid_ok = all(b <= a + 1e-12 for a, b in zip(grid, grid[1:]))
    elapsed = time.time() - t0
    report(
        "4/separation",
        high_tail_ok and separation_ok and grid_ok and elapsed < 600.0,
        f"final ratios {low[-1]:.4f} vs {high[-1]:.4f} (>5x), beta=2.2 tail "
        f"non-increasing {high_tail_ok}, 13-point grid monotone {grid_ok}, {elapsed:.1f}s",
    )


def test_criterion_4_global_tail_shape():
    # KNOWN RED: the subcritical trajectory approaches its limit from above.
    depths = (5, 6, 7, 8)
    low = _ratio_series(1.2, depths, 2)
    tail = low[-3:]
    non_decreasing = all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))
    report(
        "4/global-tail",
        non_decreasing,
        f"beta=1.2 ratios over depths {depths}: {[round(x, 5) for x in low]} "
        "(tail required non-decreasing)",
    )


_grid_cache = {}


def _grid_control():
    if not _grid_cache:
        t0 = time.time()
        g = gen_grid(51)
        spheres = [len(layer) for layer in g.layers]
        est = growth_exponent(spheres, default_window(spheres))
        censuses = {n: pair_census(g, n) for n in (8, 10, 12)}
        labels = {}
        finals = {}
        for beta in (1.2, 1.5, 2.0):
            series = [
                traffic_totals(censuses[n], ExponentialRate(beta)).ratio(2)
                for n in (8, 10, 12)
            ]
            labels[beta] = classify_transition(series)
            finals[beta] = series[-1]
        _grid_cache.update(
            est=est, labels=labels, finals=finals, elapsed=time.time() - t0
        )
    return _grid_cache


def test_criterion_5_grid_growth_and_high_betas():
    c = _grid_control()
    ok = (
        c["est"].e_ratio <= 0.05
        and c["labels"][1.5] == LOCAL
        and c["labels"][2.0] == LOCAL
        and c["elapsed"] < 600.0
    )
    report(
        "5/growth-and-high-betas",
        ok,
        f"e_ratio {c['est'].e_ratio:.4f}, labels {c['labels']}, {c['elapsed']:.1f}s",
    )


def test_criterion_5_grid_beta_1_2_local():
    # KNOWN RED: beta = 1.2 finishes at 0.0503, a hair above the 0.05 cutoff
    c = _grid_control()
    report(
        "5/beta-1.2-local",
        c["labels"][1.2] == LOCAL,
        f"beta=1.2 label {c['labels'][1.2]} (final ratio {c['finals'][1.2]:.5f} vs tau_l 0.05)",
    )


SMALL_GRAPHS = [
    ("tree-2-3", lambda: gen_kary_tree(2, 3), 3),
    ("tree-3-2", lambda: gen_kary_tree(3, 2), 2),
    ("tree-2-2-rd3", lambda: gen_kary_tree(2, 2, root_degree=3), 2),
    ("diamond", lambda: build_graph([(0, 1), (0, 2), (1, 3), (2, 3)], 0), 1),
    ("c4", lambda: build_graph([(i, (i + 1) % 4) for i in range(4)], 0), 2),
    ("c5", lambda: build_graph([(i, (i + 1) % 5) for i in range(5)], 0), 2),
    ("c6", lambda: build_graph([(i, (i + 1) % 6) for i in range(6)], 0), 3),
    ("c7", lambda: build_graph([(i, (i + 1) % 7) for i in range(7)], 0), 3),
    ("c8", lambda: build_graph([(i, (i + 1) % 8) for i in range(8)], 0), 4),
    ("tess-5-4-d2", lambda: gen_tessellation(5, 4, 2), 2),
    ("tess-4-5-d2", lambda: gen_tessellation(4, 5, 2), 2),
    ("tess-7-3-d3", lambda: gen_tessellation(7, 3, 3), 3),
    ("grid-5", lambda: gen_grid(5), 3),
]


def test_criterion_6_small_graph_oracles():
    t0 = time.time()
    rate = ExponentialRate(1.7)
    worst = 0.0
    for name, make, n in SMALL_GRAPHS:
        g = make()
        assert g.node_count <= 40, name
        want_t, want_tr, want_loads = brute_traffic(g, rate, n)
        rep = traffic_totals(pair_census(g, n), rate)
        loads = node_loads(g, rate, n)
        worst = max(worst, abs(rep.T - want_t) / want_t)
        for got, want in zip(rep.T_r, want_tr):
            if want:
                worst = max(worst, abs(got - want) / want)
        for got, want in zip(loads, want_loads):
            if want:
                worst = max(worst, abs(got - want) / want)
            else:
                assert got == 0.0

    for k, depth in ((2, 3), (3, 2), (4, 2)):
        assert four_point_delta(gen_kary_tree(k, depth)) == 0

    sandwich_ok = True
    for name, make, n in SMALL_GRAPHS:
        g = make()
        delta8 = int(8 * slim_delta_exact(g))
        root_dist = bfs_dist(g, g.root)
        for x in g.layers[n]:
            fld = geodesic_field(g, x)
            for y in g.layers[n]:
                d = fld.dist.dist[y]
                twice_h = 2 * pair_h(fld, y)
                twice_product = root_dist[x] + root_dist[y] - d
                if not (2 * n - d <= twice_h <= 2 * n - d + delta8):
                    sandwich_ok = False
                if not (twice_h - delta8 <= twice_product <= twice_h):
                    sandwich_ok = False
    elapsed = time.time() - t0
    report(
        6,
        worst < 1e-12 and sandwich_ok and elapsed < 600.0,
        f"max rel err vs exhaustive oracle {worst:.2e}, sandwiches hold "
        f"on {len(SMALL_GRAPHS)} graphs, {elapsed:.1f}s",
    )


def test_criterion_7_thread_determinism(tmp_path):
    t0 = time.time()
    outputs = {}
    for threads in ("1", "8"):
        csv = tmp_path / f"sweep-{threads}.csv"
        summary = tmp_path / f"summary-{threads}.json"
        code = cli_main([
            "sweep", "--family", "tess", "--p", "5", "--q", "4",
            "--beta-min", "1.1", "--beta-max", "2.3", "--steps", "13",
            "--depths", "5,6,7,8", "--r", "2", "--threads", threads,
            "--out", str(csv), "--summary-out", str(summary),
        ])
        assert code == 0
        outputs[threads] = csv.read_bytes() + summary.read_bytes()
    elapsed = time.time() - t0
    report(
        7,
        outputs["1"] == outputs["8"],
        f"sweep outputs byte-identical across --threads 1 vs 8, {elapsed:.1f}s",
    )


def test_criterion_8_tessellation_structural_audit():
    t0 = time.time()
    ok = True
    details = []
    for p, q in ((5, 4), (4, 5), (7, 3)):
        build_ball(p, q, 6)  # audits face sizes, rim, rotations, Euler
        g = gen_tessellation(p, q, 6)
        for d, nbrs in zip(g.depth.tolist(), g.adjacency):
            if d <= 4 and len(nbrs) != q:
                ok = False
        if len(g.layers[1]) != q:
            ok = False
        details.append(f"({p},{q}): |S_1|={len(g.layers[1])}")
    elapsed = time.time() - t0
    report(8, ok and elapsed < 600.0, f"{'; '.join(details)}, {elapsed:.1f}s")
