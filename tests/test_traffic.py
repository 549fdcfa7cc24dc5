import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import random
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertraffic import traffic
from hypertraffic.analysis import tree_closed_forms
from hypertraffic.errors import (
    EmptyBoundary,
    InvalidRate,
    NotAutomorphism,
    TrafficOverflow,
    WorkerFailed,
)
from hypertraffic.generators import _odometer, gen_grid, gen_kary_tree, gen_tessellation
from hypertraffic.graphs import (
    _orbit_labels,
    build_graph,
    graph_from_json_dict,
    graph_to_json_dict,
)
from hypertraffic.traffic import (
    ExponentialRate,
    PolynomialRate,
    TableRate,
    core_radius,
    node_loads,
    pair_census,
    rate_table,
    traffic_totals,
)
from oracles import (
    bfs_dist,
    brute_pair_h,
    brute_traffic,
    exact_loads,
    geodesic_field,
    gromov_product,
    pair_h,
    same_graph,
    slim_delta_exact,
)

DIAMOND = build_graph([(0, 1), (0, 2), (1, 3), (2, 3)], 0)

# a pass splits only where os.sched_getaffinity exists; elsewhere it walks serially
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
SERIAL = 1 << 62  # a _FORK_WORK no pass reaches, so every pass walks in-process


def counted(forks, spread, fn, *args, **kwargs):
    """fn(*args, **kwargs), after checking that it started at most one
    process per CPU beside this one; the count goes on the list `spread`."""
    forks.clear()
    out = fn(*args, **kwargs)
    assert len(forks) <= CPUS - 1
    spread.append(len(forks))
    return out


def cycle(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], 0)


def diamond_chain(arms=27):
    """Root in the middle of two arms of stacked diamonds; the geodesic
    between the two far leaves multiplies 2 per diamond: sigma = 2^(2*arms)."""
    edges = []
    fresh = [1]

    def diamond(top):
        a, b, bottom = fresh[0], fresh[0] + 1, fresh[0] + 2
        fresh[0] += 3
        edges.extend([(top, a), (top, b), (a, bottom), (b, bottom)])
        return bottom

    left = 0
    for _ in range(arms):
        left = diamond(left)
    right = 0
    for _ in range(arms):
        right = diamond(right)
    return build_graph(edges, 0)


class TestRates:
    def test_exponential(self):
        table = rate_table(ExponentialRate(2.0), 4)
        assert table[4] == 0.0625 and table[0] == 1.0
        assert rate_table(PolynomialRate(1.5), 0).tolist() == [1.0]

    def test_table_out_of_range(self):
        assert rate_table(TableRate((1.0, 0.5)), 5).tolist() == [1.0, 0.5, 0.0, 0.0, 0.0, 0.0]

    def test_invalid(self):
        with pytest.raises(InvalidRate):
            ExponentialRate(1.0)
        with pytest.raises(InvalidRate):
            PolynomialRate(0.0)
        with pytest.raises(InvalidRate):
            TableRate((1.0, -0.5))
        with pytest.raises(InvalidRate):
            TableRate((0.5, 1.0))  # increasing

    @pytest.mark.parametrize("make,value,message", [
        (ExponentialRate, math.inf, "beta must be finite and > 1, got inf"),
        (ExponentialRate, math.nan, "beta must be finite and > 1, got nan"),
        (PolynomialRate, math.inf, "alpha must be finite and > 0, got inf"),
        (TableRate, (math.inf,), "table rates must be finite, got inf"),
        (TableRate, (1.0, math.nan), "table rates must be finite, got nan"),
        (TableRate, (0.0,), r"table rate R\(0\) must be > 0, got 0.0"),
        (TableRate, (0.0, 0.0), r"table rate R\(0\) must be > 0, got 0.0"),
        (TableRate, (), r"table rate R\(0\) must be > 0, got none"),
    ])
    def test_invalid_names_the_value(self, make, value, message):
        with pytest.raises(InvalidRate, match=message):
            make(value)
        assert issubclass(InvalidRate, ValueError)

    def test_non_increasing(self):
        f = PolynomialRate(2.0)
        vals = rate_table(f, 9).tolist()
        assert vals == sorted(vals, reverse=True)

    def test_descriptors(self):
        assert ExponentialRate(1.5).descriptor() == {"variant": "exponential", "beta": 1.5}
        assert TableRate((1.0,)).descriptor()["variant"] == "table"


class TestGeodesicField:
    def test_four_cycle_sigma(self):
        fld = geodesic_field(cycle(4), 0)
        assert fld.sigma == (1, 1, 2, 1)

    def test_binary_tree_leftmost(self):
        g = gen_kary_tree(2, 2)
        fld = geodesic_field(g, 3)
        assert fld.sigma[4] == 1 and fld.mindepth[4] == 1  # sibling via node 1
        assert fld.mindepth[5] == 0 and fld.mindepth[6] == 0  # across the root

    @pytest.mark.parametrize("k,depth", [(2, 3), (3, 2)])
    def test_tree_sigma_all_one(self, k, depth):
        g = gen_kary_tree(k, depth)
        for source in (0, g.node_count - 1):
            assert set(geodesic_field(g, source).sigma) == {1}

    def test_exact_big_counts(self):
        g = diamond_chain(27)
        left_leaf = g.layers[g.max_depth][0]
        fld = geodesic_field(g, left_leaf)
        assert max(fld.sigma) == 2**54  # exact, beyond float64 integer range

    def test_fast_path_past_2_53_matches_exact_oracle(self):
        """Float64 path counts past 2^53 still give the exact Brandes loads:
        exactly on the diamond chain, whose counts are powers of two, and to
        1e-12 relative on a side-41 grid, where binom(60, 30) > 2^53."""
        rate = ExponentialRate(1.5)
        g = diamond_chain(27)
        want = exact_loads(g, rate, g.max_depth)
        assert node_loads(g, rate, g.max_depth) == tuple(float(w) for w in want)
        grid = gen_grid(41)
        for n in (30, 36):
            fields = (geodesic_field(grid, x).sigma for x in grid.layers[n])
            assert max(sigma[y] for sigma in fields for y in grid.layers[n]) > 2**53
            want = exact_loads(grid, rate, n)
            got = node_loads(grid, rate, n)
            assert [w == 0 for w in want] == [v == 0.0 for v in got]
            for v, w in zip(got, want):
                if w:
                    assert abs(Fraction(v) - w) <= Fraction(1, 10**12) * w

    def test_counts_past_float64_are_named(self):
        g = diamond_chain(520)  # sigma = 2^1040 between the far leaves
        with pytest.raises(TrafficOverflow, match="node loads at depth 1040 overflow float64"):
            node_loads(g, ExponentialRate(1.5), g.max_depth)

    def test_census_does_not_need_sigma(self):
        g = diamond_chain(27)
        census = pair_census(g, g.max_depth)
        assert census.sum() == 4  # two leaves, ordered pairs with diagonal


class TestPairH:
    def test_tree_bifurcation(self):
        g = gen_kary_tree(2, 3)
        fld = geodesic_field(g, 7)
        assert pair_h(fld, 8) == 2
        assert pair_h(fld, 10) == 1
        assert pair_h(fld, 14) == 0

    def test_diamond_via_root(self):
        fld = geodesic_field(DIAMOND, 1)
        assert pair_h(fld, 2) == 0

    def test_source_is_own_depth(self):
        g = gen_kary_tree(2, 3)
        fld = geodesic_field(g, 9)
        assert pair_h(fld, 9) == 3

    def test_tree_h_equals_gromov_product(self):
        g = gen_kary_tree(3, 3)
        leaves = g.layers[3]
        for x in leaves[:6]:
            fld = geodesic_field(g, x)
            for y in leaves[:6]:
                assert pair_h(fld, y) == gromov_product(g, x, y, g.root)

    @pytest.mark.parametrize("g", [cycle(5), cycle(6), DIAMOND, gen_tessellation(5, 4, 2)])
    def test_matches_brute_enumeration(self, g):
        for x in range(g.node_count):
            fld = geodesic_field(g, x)
            for y in range(g.node_count):
                assert pair_h(fld, y) == brute_pair_h(g, x, y)


class TestTrafficTotals:
    def test_binary_tree_depth2(self):
        g = gen_kary_tree(2, 2)
        rep = traffic_totals(pair_census(g, 2), ExponentialRate(2.0))
        assert rep.T == 5.5
        assert rep.T_r == (0.5, 1.5, 5.5)
        assert rep.T_r[rep.n] == rep.T

    @pytest.mark.parametrize("r", [-1, 3])
    def test_ratio_outside_zero_to_n(self, r):
        # T_r[-1] would read T, and T_r[3] is past the depth-2 vector
        rep = traffic_totals(pair_census(gen_kary_tree(2, 2), 2), ExponentialRate(2.0))
        assert (rep.ratio(0), rep.ratio(2)) == (0.5 / 5.5, 1.0)
        with pytest.raises(ValueError, match=rf"r must be in \[0, 2\], got {r}"):
            rep.ratio(r)

    def test_single_node(self):
        rep = traffic_totals(pair_census(build_graph([], 0), 0), ExponentialRate(2.0))
        assert rep.T == 1.0 and rep.T_r == (1.0,)

    def test_diamond(self):
        rep = traffic_totals(pair_census(DIAMOND, 1), ExponentialRate(2.0))
        assert rep.T == 2.5
        assert rep.T_r[0] == 0.5

    def test_empty_boundary(self):
        with pytest.raises(EmptyBoundary):
            traffic_totals(pair_census(DIAMOND, 7), ExponentialRate(2.0))

    @pytest.mark.parametrize("values", [(4e307,) * 3, (1e308,) * 2])
    def test_overflow_is_named(self, values):
        # finite terms whose sum passes float64's range, and a term past it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrafficOverflow, match="overflows float64"):
                traffic_totals(pair_census(gen_kary_tree(2, 2), 2), TableRate(values))

    def test_histogram_consistent(self):
        g = gen_tessellation(5, 4, 3)
        rate = ExponentialRate(1.5)
        census = pair_census(g, 3)
        rep = traffic_totals(census, rate)
        boundary = len(g.layers[3])
        assert census.sum() == boundary * boundary
        rows, cols = census.shape
        mass = [math.fsum(census[d, h] * rate.eval(d) for d in range(rows)) for h in range(cols)]
        assert rep.T == pytest.approx(math.fsum(mass), rel=1e-15)

    @pytest.mark.parametrize(
        "g,n",
        [
            (gen_kary_tree(2, 3), 3),
            (gen_tessellation(4, 5, 3), 3),
            (gen_grid(7), 4),
        ],
    )
    def test_t_r_monotone(self, g, n):
        rep = traffic_totals(pair_census(g, n), ExponentialRate(1.3))
        for a, b in zip(rep.T_r, rep.T_r[1:]):
            assert b >= a


BRUTE_CASES = [
    ("tree-2-3", gen_kary_tree(2, 3), 3),
    ("tree-3-2", gen_kary_tree(3, 2), 2),
    ("tree-2-3-rd3", gen_kary_tree(2, 3, root_degree=3), 3),
    ("diamond", DIAMOND, 1),
    ("c4", cycle(4), 2),
    ("c5", cycle(5), 2),
    ("c6", cycle(6), 3),
    ("c7", cycle(7), 3),
    ("c8", cycle(8), 4),
    ("tess-5-4", gen_tessellation(5, 4, 2), 2),
    ("tess-4-5", gen_tessellation(4, 5, 2), 2),
    ("tess-7-3", gen_tessellation(7, 3, 3), 3),
    ("grid-5", gen_grid(5), 3),
]


class TestBruteEquivalence:
    @pytest.mark.parametrize("name,g,n", BRUTE_CASES, ids=[c[0] for c in BRUTE_CASES])
    def test_totals_and_loads(self, name, g, n):
        rate = ExponentialRate(1.7)
        want_t, want_tr, want_loads = brute_traffic(g, rate, n)
        rep = traffic_totals(pair_census(g, n), rate)
        loads = node_loads(g, rate, n)
        assert rep.T == pytest.approx(want_t, rel=1e-12)
        for got, want in zip(rep.T_r, want_tr):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        for got, want in zip(loads, want_loads):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def relabelled(g, seed):
    """g with its node ids shuffled by a seeded permutation, read back
    through the JSON loader."""
    perm = list(range(g.node_count))
    random.Random(seed).shuffle(perm)
    doc = graph_to_json_dict(g)
    doc["root"] = perm[g.root]
    doc["edges"] = sorted(sorted((perm[u], perm[v])) for u, v in g.edge_list())
    return graph_from_json_dict(doc)


# name -> the graphs of the total-load identity, built when a case runs
IDENTITY_GRAPHS = {
    "tess-5-4": lambda: [gen_tessellation(5, 4, d) for d in range(7)],
    "tess-7-3": lambda: [gen_tessellation(7, 3, d) for d in range(7)],
    "tess-4-5": lambda: [gen_tessellation(4, 5, d) for d in range(6)],
    "grid-9": lambda: [gen_grid(9)],
    "diamond": lambda: [DIAMOND],
    "loaded-5-4-7": lambda: [relabelled(gen_tessellation(5, 4, 7), 7)],
    "tree-2-3": lambda: [gen_kary_tree(2, 3)],
    "tree-3-2": lambda: [gen_kary_tree(3, 2)],
}


class TestNodeLoads:
    def test_depth1_binary(self):
        g = gen_kary_tree(2, 1)
        loads = node_loads(g, ExponentialRate(2.0), 1)
        assert loads == (0.5, 0.0, 0.0)

    def test_diamond_equal_split(self):
        loads = node_loads(DIAMOND, ExponentialRate(2.0), 1)
        assert loads[0] == 0.25 and loads[3] == 0.25

    @pytest.mark.parametrize("beta", [1.2, 2.0])
    @pytest.mark.parametrize("name", list(IDENTITY_GRAPHS))
    def test_total_load_identity(self, name, beta):
        """Each ordered pair at distance d >= 1 shares its rate out over the
        d - 1 interior nodes of its geodesics, so sum_v load(v) = sum_d R(d)
        (d - 1) sum_h C[d, h] over the census C; endpoints add R(d) at both
        ends, making the factor d + 1. This ties the pass's two consumers
        together on tied geodesics, walked per orbit and per source."""
        rate = ExponentialRate(beta)
        for g in IDENTITY_GRAPHS[name]():
            for n in range(g.max_depth + 1):
                pairs = pair_census(g, n).sum(axis=1).tolist()
                for ends, extra in ((False, -1), (True, 1)):
                    want = math.fsum(rate.eval(d) * (d + extra) * pairs[d]
                                     for d in range(1, len(pairs)))
                    for walked in (g, dataclasses.replace(g, symmetries=())):
                        got = math.fsum(node_loads(walked, rate, n, include_endpoints=ends))
                        assert got == pytest.approx(want, rel=1e-12), (g.node_count, n, ends)

    def test_tree_root_load_is_t0(self):
        g = gen_kary_tree(3, 3)
        rate = ExponentialRate(1.4)
        rep = traffic_totals(pair_census(g, 3), rate)
        loads = node_loads(g, rate, 3)
        assert loads[0] == pytest.approx(rep.T_r[0], rel=1e-12)

    def test_include_endpoints_adds_boundary_term(self):
        g = gen_kary_tree(2, 2)
        rate = ExponentialRate(2.0)
        bare = node_loads(g, rate, 2)
        full = node_loads(g, rate, 2, include_endpoints=True)
        rep = traffic_totals(pair_census(g, 2), rate)
        # each ordered pair (x != y) adds its rate at both endpoints
        diagonal = len(g.layers[2])  # rate 1 each
        off_diag_mass = rep.T - diagonal
        assert math.fsum(full) - math.fsum(bare) == pytest.approx(
            2 * off_diag_mass, rel=1e-12
        )

    @pytest.mark.parametrize("depth,ends", [(2, False), (3, True)])
    def test_huge_table_rates_overflow_is_named(self, depth, ends):
        # the sums pass float64's range inside the walk, and on the depth-3
        # tree in the endpoint row sums too
        rate = TableRate((1e308,) * (2 * depth + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrafficOverflow, match="overflow"):
                node_loads(gen_kary_tree(2, depth), rate, depth, include_endpoints=ends)


class TestScaleEquivariance:
    def test_power_of_two_exact(self):
        g = gen_tessellation(5, 4, 2)
        base = TableRate((1.0, 0.75, 0.5, 0.25, 0.125))
        for c in (0.5, 2.0, 1024.0):
            scaled = TableRate(tuple(c * v for v in base.values))
            rep1 = traffic_totals(pair_census(g, 2), base)
            rep2 = traffic_totals(pair_census(g, 2), scaled)
            assert rep2.T == c * rep1.T
            assert all(b == c * a for a, b in zip(rep1.T_r, rep2.T_r))
            l1 = node_loads(g, base, 2)
            l2 = node_loads(g, scaled, 2)
            assert all(b == c * a for a, b in zip(l1, l2))
            assert core_radius(rep1, 0.4) == core_radius(rep2, 0.4)

    @given(st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_general_scale_close(self, c):
        g = gen_kary_tree(2, 3)
        base = TableRate((1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.01))
        scaled = TableRate(tuple(c * v for v in base.values))
        rep1 = traffic_totals(pair_census(g, 3), base)
        rep2 = traffic_totals(pair_census(g, 3), scaled)
        assert rep2.T == pytest.approx(c * rep1.T, rel=1e-12)
        for a, b in zip(rep1.T_r, rep2.T_r):
            assert b / rep2.T == pytest.approx(a / rep1.T, rel=1e-12, abs=1e-15)


class TestCoreRadius:
    def test_binary_tree(self):
        rep = traffic_totals(pair_census(gen_kary_tree(2, 2), 2), ExponentialRate(2.0))
        assert core_radius(rep, 0.8) == 1

    def test_tiny_epsilon_returns_n(self):
        rep = traffic_totals(pair_census(gen_kary_tree(2, 2), 2), ExponentialRate(2.0))
        assert core_radius(rep, 1e-12) == 2

    def test_diamond(self):
        rep = traffic_totals(pair_census(DIAMOND, 1), ExponentialRate(2.0))
        assert core_radius(rep, 0.8) == 0

    def test_bad_epsilon(self):
        rep = traffic_totals(pair_census(DIAMOND, 1), ExponentialRate(2.0))
        with pytest.raises(ValueError):
            core_radius(rep, 0.0)

    def test_core_radius_for_map(self):
        rep = traffic_totals(pair_census(gen_kary_tree(2, 2), 2), ExponentialRate(2.0))
        assert {eps: core_radius(rep, eps) for eps in (0.8, 1e-12)} == {0.8: 1, 1e-12: 2}


class TestSandwiches:
    """Exact half-integer inequalities between h, the Gromov product, and
    slim delta, checked on every graph small enough to enumerate."""

    GRAPHS = [
        cycle(4),
        cycle(5),
        cycle(6),
        cycle(7),
        cycle(8),
        DIAMOND,
        gen_kary_tree(2, 3),
        gen_tessellation(5, 4, 2),
        gen_tessellation(4, 5, 2),
        gen_tessellation(7, 3, 3),
    ]

    @pytest.mark.parametrize("g", GRAPHS)
    def test_product_between_h_minus_4delta_and_h(self, g):
        delta8 = int(8 * slim_delta_exact(g))  # 8*delta, exact twice-units
        root_dist = bfs_dist(g, g.root)
        for x in range(g.node_count):
            fld = geodesic_field(g, x)
            for y in range(g.node_count):
                twice_product = root_dist[x] + root_dist[y] - fld.dist.dist[y]
                twice_h = 2 * pair_h(fld, y)
                assert twice_h - delta8 <= twice_product <= twice_h

    @pytest.mark.parametrize("g", GRAPHS)
    def test_boundary_h_sandwich(self, g):
        delta8 = int(8 * slim_delta_exact(g))
        n = g.max_depth
        for x in g.layers[n]:
            fld = geodesic_field(g, x)
            for y in g.layers[n]:
                d = fld.dist.dist[y]
                twice_h = 2 * pair_h(fld, y)
                assert 2 * n - d <= twice_h <= 2 * n - d + delta8


class TestDeterminism:
    @pytest.mark.parametrize("name,g,n_max", BRUTE_CASES, ids=[c[0] for c in BRUTE_CASES])
    def test_batch_sizes_bit_identical(self, name, g, n_max, monkeypatch, forks):
        """One source per batch, an uneven split, and the whole boundary in one
        batch give the same bits, walked in this process or split across
        worker processes, with and without endpoint loads; on trees,
        tessellations, grids and the longer cycles an n < max_depth stops the
        walk at distance 2n with nodes of the graph still unreached."""
        rate = ExponentialRate(1.7)
        spread = []
        for n in range(1, g.max_depth + 1):
            size = len(g.layers[n])
            uneven = next(k for k in itertools.count(3) if size % k)
            results = []
            for batch in (1, uneven, size):
                monkeypatch.setattr(traffic, "_BATCH_SLOTS", batch * g.node_count)
                for fork_work in (SERIAL, 1):
                    monkeypatch.setattr(traffic, "_FORK_WORK", fork_work)
                    census = counted(forks, spread, pair_census, g, n)
                    rep = traffic_totals(census, rate)
                    loads = counted(forks, spread, node_loads, g, rate, n)
                    ends = counted(forks, spread, node_loads, g, rate, n, include_endpoints=True)
                    results.append((census, rep, loads, ends))
            (census, rep, loads, ends), *rest = results
            for other_census, other_rep, other_loads, other_ends in rest:
                assert np.array_equal(census, other_census)
                assert rep.T == other_rep.T and rep.T_r == other_rep.T_r
                assert loads == other_loads and ends == other_ends
            want_t, want_tr, want_loads = brute_traffic(g, rate, n)
            assert rep.T == pytest.approx(want_t, rel=1e-12)
            for got, want in zip(rep.T_r, want_tr):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
            for got, want in zip(loads, want_loads):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


# a worker's whole payload: two items and no exception
WHOLE = pickle.dumps(([np.arange(2), np.arange(2, 4)], None))


class TestSplitPass:
    """A census or load pass with enough work splits its walked sources into
    contiguous parts, walks all but the first in forked workers, and gives
    the bytes of the serial walk."""

    @pytest.mark.parametrize("group", [1, 2, 3])
    def test_split_loads_fold_the_serial_groups(self, group, monkeypatch, forks):
        """Groups small enough that every boundary of more than one source
        splits: the worker groups folded in boundary order equal the serial
        fold bit for bit."""
        monkeypatch.setattr(traffic, "_KAHAN_GROUP", group)
        rate = ExponentialRate(1.7)
        spread = []
        for name, g, _ in BRUTE_CASES:
            plain = dataclasses.replace(g, symmetries=())
            for n, ends in itertools.product(range(1, g.max_depth + 1), (False, True)):
                got = []
                for fork_work in (SERIAL, 1):
                    monkeypatch.setattr(traffic, "_FORK_WORK", fork_work)
                    got.append(counted(forks, spread, node_loads, plain, rate, n,
                                       include_endpoints=ends))
                assert np.array(got[0]).tobytes() == np.array(got[1]).tobytes(), (name, n, ends)
        assert max(spread) >= min(CPUS, 2) - 1  # some call split

    def test_threshold_splits_the_d8_sweep_ball_and_keeps_d7_serial(self, monkeypatch, forks):
        """At the default _FORK_WORK the (5,4) d=8 census and loads split
        onto every CPU (up to the 7 processes its work affords; the loads'
        225 sources make 4 groups of 64), while d=7, the loads benchmark's
        ball, and every tree stay in one process."""
        rate = ExponentialRate(1.3)
        default = traffic._FORK_WORK
        for d, census_procs, loads_procs in ((7, 1, 1), (8, min(CPUS, 7), min(CPUS, 4))):
            g = gen_tessellation(5, 4, d)
            spread = []
            census = counted(forks, spread, pair_census, g, d)
            loads = counted(forks, spread, node_loads, g, rate, d)
            assert spread == [census_procs - 1, loads_procs - 1]
            monkeypatch.setattr(traffic, "_FORK_WORK", SERIAL)
            assert np.array_equal(census, pair_census(g, d))
            assert loads == node_loads(g, rate, d)
            monkeypatch.setattr(traffic, "_FORK_WORK", default)
        tree = gen_kary_tree(3, 6)
        forks.clear()
        pair_census(tree, 6)
        node_loads(tree, rate, 6)
        assert forks == []

    def test_a_live_thread_keeps_the_pass_serial(self, monkeypatch, forks):
        """A forked child holds only the forking thread, so no pass forks
        while another thread runs; once it ends, the same call splits."""
        monkeypatch.setattr(traffic, "_FORK_WORK", 1)
        g = dataclasses.replace(gen_tessellation(5, 4, 3), symmetries=())
        rate = ExponentialRate(1.3)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            forks.clear()
            census, loads = pair_census(g, 3), node_loads(g, rate, 3)
            assert forks == []
        finally:
            stop.set()
            thread.join()
        assert np.array_equal(pair_census(g, 3), census)
        assert node_loads(g, rate, 3) == loads
        # the census splits onto every CPU; its boundary is one group of loads
        assert len(forks) == min(CPUS, len(g.layers[3])) - 1 and len(g.layers[3]) <= 64

    def test_a_worker_overflow_is_relayed_by_name(self, monkeypatch, forks):
        """A TrafficOverflow in a worker is raised in the caller with its
        message, and huge rates overflow with the serial message."""
        monkeypatch.setattr(traffic, "_FORK_WORK", 1)
        monkeypatch.setattr(traffic, "_KAHAN_GROUP", 1)
        parent, walk = os.getpid(), traffic._walk

        def overflow_in_workers(*args):
            if os.getpid() != parent:
                raise TrafficOverflow("injected overflow")
            return walk(*args)

        g = dataclasses.replace(gen_kary_tree(2, 3), symmetries=())
        with monkeypatch.context() as m:
            m.setattr(traffic, "_walk", overflow_in_workers)
            for call in (lambda: pair_census(g, 3), lambda: node_loads(g, ExponentialRate(2), 3)):
                forks.clear()
                with pytest.raises(TrafficOverflow, match="^injected overflow$"):
                    call()
                assert forks
        rate = TableRate((1e308,) * 7)
        messages = []
        for fork_work in (SERIAL, 1):
            monkeypatch.setattr(traffic, "_FORK_WORK", fork_work)
            with pytest.raises(TrafficOverflow) as info:
                node_loads(g, rate, 3, include_endpoints=True)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_items_arrive_in_part_order_and_before_a_relayed_error(self, forks):
        """_fan_out hands over every part's items in the order of the parts,
        and a worker's items before its TrafficOverflow. It never reads the
        CPU count, so dealing more parts than CPUs checks the order of
        several workers on any machine."""

        def walk(part, take):
            for x in part:
                take(np.array([x]))
            if part[-1] == stop:
                raise TrafficOverflow(f"stopped at {stop}")

        count = CPUS + 3
        parts = np.array_split(np.arange(3 * count), count)
        for stop in (-1, parts[-1][-1]):
            got = []
            try:
                traffic._fan_out(parts, walk, got.append)
            except TrafficOverflow as exc:
                assert str(exc) == f"stopped at {stop}"
            else:
                assert stop == -1
            assert [int(x[0]) for x in got] == list(range(3 * count))
        assert len(forks) == 2 * (count - 1)

    def test_without_the_affinity_call_the_pass_walks_serially(self, monkeypatch, forks):
        """Where os.sched_getaffinity is missing (macOS, Windows), os.fork is
        missing or unsafe once numpy is loaded: no pass forks, however small
        _FORK_WORK is, and the census and loads are the serial ones."""
        g = dataclasses.replace(gen_tessellation(5, 4, 3), symmetries=())
        rate = ExponentialRate(1.3)
        monkeypatch.setattr(traffic, "_FORK_WORK", SERIAL)
        census, loads = pair_census(g, 3), node_loads(g, rate, 3, include_endpoints=True)
        monkeypatch.setattr(traffic, "_FORK_WORK", 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        forks.clear()
        assert np.array_equal(pair_census(g, 3), census)
        assert node_loads(g, rate, 3, include_endpoints=True) == loads
        assert forks == []

    @pytest.mark.parametrize("payload,status", [
        (b"", 0),  # nothing sent
        (WHOLE[:-1], 0),  # a truncated pickle
        (WHOLE, 1 << 8),  # exit status 1 after a whole pickle
        (WHOLE, 9),  # killed by SIGKILL after a whole pickle
    ], ids=["empty", "truncated", "status-1", "killed"])
    def test_a_bad_payload_is_a_named_failure(self, payload, status):
        with pytest.raises(WorkerFailed, match="^worker failed: the process walking part 2 of 2"):
            traffic._received(payload, status, "2 of 2")

    def test_no_prefix_of_a_whole_payload_is_taken(self):
        """A worker that dies while writing leaves a prefix of its pickle:
        every cut is refused, none unpickles to fewer items."""
        for cut in range(len(WHOLE)):
            with pytest.raises(WorkerFailed, match=f"after sending {cut} bytes$"):
                traffic._received(WHOLE[:cut], 0, "2 of 2")

    def test_a_whole_payload_gives_its_items(self):
        """The items and the exception come back as pickled; bytes past the
        pickle are ignored, since only the worker writes its pipe."""
        items, error = traffic._received(WHOLE, 0, "2 of 2")
        assert [x.tolist() for x in items] == [[0, 1], [2, 3]] and error is None
        payload = pickle.dumps((items, TrafficOverflow("too big"))) + b"more"
        items, error = traffic._received(payload, 0, "2 of 2")
        assert [x.tolist() for x in items] == [[0, 1], [2, 3]]
        assert type(error) is TrafficOverflow and str(error) == "too big"

    @pytest.mark.skipif(CPUS < 2, reason="a split needs a second CPU")
    def test_a_worker_floating_point_error_is_named_as_serial(self, monkeypatch, forks):
        """A FloatingPointError raised only in the workers, under the error
        scope they inherit, is named in the caller as a serial run names
        it."""
        monkeypatch.setattr(traffic, "_KAHAN_GROUP", 1)
        parent, walk = os.getpid(), traffic._walk
        g = dataclasses.replace(gen_kary_tree(2, 3), symmetries=())
        messages = []
        for fork_work, where in ((1, "workers"), (SERIAL, "everywhere")):

            def overflow(*args):
                if where == "everywhere" or os.getpid() != parent:
                    np.float64(1e308) * 10.0
                return walk(*args)

            monkeypatch.setattr(traffic, "_FORK_WORK", fork_work)
            monkeypatch.setattr(traffic, "_walk", overflow)
            forks.clear()
            with pytest.raises(TrafficOverflow) as info:
                node_loads(g, ExponentialRate(2), 3)
            messages.append(str(info.value))
            assert bool(forks) == (where == "workers")
        assert messages == 2 * [
            "node loads at depth 3 overflow float64 (overflow encountered in scalar multiply); "
            "the geodesic counts or the rates are too large"
        ]


# (p, q, deepest ball): every ball up to that depth is checked at every n
ORBIT_BALLS = [(5, 4, 8), (7, 3, 9), (4, 5, 6), (3, 7, 8)]


class TestOrbitCensus:
    @pytest.mark.parametrize("p,q,d_max", ORBIT_BALLS)
    def test_reduced_census_equals_full(self, p, q, d_max, monkeypatch, forks):
        """Walking one source per orbit gives the census of every source, and
        splitting the walked sources across worker processes changes no
        bit: the full census, split wherever it has two sources, equals the
        reduced census walked in one process and split."""
        spread = []
        for d in range(d_max + 1):
            g = gen_tessellation(p, q, d)
            assert len(g.symmetries) == 2
            plain = dataclasses.replace(g, symmetries=())
            for n in range(d + 1):
                monkeypatch.setattr(traffic, "_FORK_WORK", 1)
                full = counted(forks, spread, pair_census, plain, n)
                split = counted(forks, spread, pair_census, g, n)
                monkeypatch.setattr(traffic, "_FORK_WORK", SERIAL)
                assert np.array_equal(pair_census(g, n), full), (d, n)
                assert np.array_equal(split, full), (d, n)
        assert max(spread) >= min(CPUS, 2) - 1  # some call split

    def test_sources_walked_on_the_sweep_balls(self):
        # the dihedral group of order 8 about the (5,4) root leaves this many
        # boundary orbits at the criterion-7 sweep depths
        walked = []
        for d in (5, 6, 7, 8):
            g = gen_tessellation(5, 4, d)
            labels = _orbit_labels(g.node_count, g.symmetries)[list(g.layers[d])]
            walked.append(len(set(labels.tolist())))
        assert walked == [19, 43, 98, 225]

    def test_trees_and_grids_walk_one_source_per_orbit(self):
        for g, walked in ((gen_kary_tree(3, 3), [1, 1, 1, 1]), (gen_grid(5), [1, 1, 2, 1, 1])):
            labels = _orbit_labels(g.node_count, g.symmetries)
            assert [len(set(labels[list(layer)].tolist())) for layer in g.layers] == walked

    def test_loaded_ball_walks_as_few_sources_as_generated(self):
        """A ball read from JSON carries the symmetries the loader finds, so
        each layer walks as few sources as the generated ball; a graph built
        directly carries none and walks every source."""
        ball = gen_tessellation(5, 4, 3)
        loaded = graph_from_json_dict(graph_to_json_dict(ball))
        assert same_graph(loaded, ball) and loaded.symmetries

        def walked(g):
            labels = _orbit_labels(g.node_count, g.symmetries)
            return [len(set(labels[list(layer)].tolist())) for layer in g.layers]

        assert walked(loaded) == walked(ball) == [1, 1, 2, 4]
        assert DIAMOND.symmetries == ()
        assert walked(DIAMOND) == [1, 2, 1]


def _load_graphs(family):
    if family == "trees":
        return [gen_kary_tree(k, d, m) for k in (2, 3) for m in (1, k, k + 2) for d in range(6)]
    if family == "grids":
        return [gen_grid(5), gen_grid(9)]
    p, q, d_max = family
    return [gen_tessellation(p, q, d) for d in range(d_max + 1)]


# loads of graphs without symmetries, as sha256 prefixes of their float64
# bytes at beta 1.3, recorded from the kernel that walked every source before
# loads were orbit-reduced: (graph, n, include_endpoints) -> digest
PLAIN_LOAD_DIGESTS = {
    ("tree-3-4", 4, False): "df440abaed285fe5",
    ("tree-3-4", 4, True): "a08c04c8d146f6ba",
    ("tess-5-4-5", 5, False): "cd42a83dd7cd2a24",
    ("tess-5-4-5", 5, True): "3c16d1cc8c144a03",
    ("tess-7-3-6", 4, False): "143dc93af9035e4a",
    ("tess-7-3-6", 4, True): "20860e53d7eaa006",
    ("grid-9", 6, False): "015165433c066b16",
    ("grid-9", 6, True): "3732d6f5a8f200da",
}


class TestOrbitLoads:
    @pytest.mark.parametrize("family", ["trees", (5, 4, 7), (7, 3, 7), (4, 5, 5), "grids"],
                             ids=["trees", "tess-5-4", "tess-7-3", "tess-4-5", "grids"])
    def test_reduced_loads_equal_plain(self, family):
        """Scaling each walked row by its orbit size and averaging over node
        orbits gives the loads of every source."""
        rate = ExponentialRate(1.3)
        for g in _load_graphs(family):
            plain = dataclasses.replace(g, symmetries=())
            for n in range(g.max_depth + 1):
                for ends in (False, True):
                    got = np.array(node_loads(g, rate, n, include_endpoints=ends))
                    want = np.array(node_loads(plain, rate, n, include_endpoints=ends))
                    assert np.array_equal(got == 0, want == 0), (g.node_count, n, ends)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_loads_without_symmetries_are_bit_identical(self):
        graphs = {
            "tree-3-4": gen_kary_tree(3, 4),
            "tess-5-4-5": gen_tessellation(5, 4, 5),
            "tess-7-3-6": gen_tessellation(7, 3, 6),
            "grid-9": gen_grid(9),
        }
        for (name, n, ends), digest in PLAIN_LOAD_DIGESTS.items():
            plain = dataclasses.replace(graphs[name], symmetries=())
            loads = np.array(node_loads(plain, ExponentialRate(1.3), n, include_endpoints=ends))
            assert hashlib.sha256(loads.tobytes()).hexdigest()[:16] == digest, (name, n, ends)

    @pytest.mark.parametrize("k,depth,root_degree", [(2, 6, 2), (3, 4, 1), (3, 4, 5), (4, 3, 2)])
    def test_odometer_has_one_orbit_per_layer(self, k, depth, root_degree):
        g = gen_kary_tree(k, depth, root_degree)
        (odometer,) = g.symmetries
        labels = _orbit_labels(g.node_count, g.symmetries)
        for layer in g.layers:
            assert set(labels[list(layer)].tolist()) == {layer[0]}
            # one cycle: the layer's first node returns after |layer| steps
            v, steps = odometer[layer[0]], 1
            while v != layer[0]:
                v, steps = odometer[v], steps + 1
            assert steps == len(layer)

    def test_depth_zero_tree_has_no_symmetries(self):
        assert gen_kary_tree(3, 0).symmetries == ()

    def test_swapped_leaf_images_are_rejected(self):
        # the first and the last leaf sit under different root children, so
        # swapping their images breaks the parent relation
        g = gen_kary_tree(2, 3)
        perm = _odometer(2, 3, 2).copy()
        first, last = g.layers[3][0], g.layers[3][-1]
        perm[[first, last]] = perm[[last, first]]
        with pytest.raises(NotAutomorphism):
            build_graph(g.edge_list(), 0, [perm])


class TestDeepTree:
    def test_k3_depth8_census_and_closed_forms(self):
        """The census of the 3-ary tree at depth 8 is one BFS: a leaf has
        (k-1)k^(r-1) leaves at distance 2r, whose geodesics turn at depth
        8-r, and only itself at distance 0."""
        k, n = 3, 8
        g = gen_kary_tree(k, n)
        census = pair_census(g, n)
        want = np.zeros_like(census)
        want[0, n] = k**n
        for r in range(1, n + 1):
            want[2 * r, n - r] = k**n * (k - 1) * k ** (r - 1)
        assert np.array_equal(census, want)
        rate = ExponentialRate(2.0)
        rep = traffic_totals(census, rate)
        share = node_loads(g, rate, n)[g.root] / rep.T
        closed = tree_closed_forms(k, 2.0, n)
        assert rep.T == pytest.approx(closed["T"], rel=1e-9)
        assert share == pytest.approx(closed["P"], rel=1e-9)
