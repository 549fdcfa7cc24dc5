import dataclasses
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertraffic.errors import (
    DisconnectedGraph,
    GraphTooLarge,
    MalformedEdge,
    NotAutomorphism,
)
from hypertraffic.generators import gen_grid, gen_kary_tree, gen_tessellation, load_edge_list
from hypertraffic.graphs import (
    Graph,
    _bfs,
    build_graph,
    distances_from,
    four_point_delta,
    graph_from_json_dict,
    graph_to_json_dict,
    gromov_product,
    slim_delta_exact,
)
from hypertraffic.traffic import pair_census
from oracles import floyd_warshall

PATH3 = [(0, 1), (1, 2)]
CYCLE4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]


def cycle(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], 0)


def random_connected_graph(seed, max_nodes=12):
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return build_graph(edges, 0)


class TestBuildGraph:
    def test_path(self):
        g = build_graph(PATH3, 0)
        assert g.depth == (0, 1, 2)
        assert g.layers == ((0,), (1,), (2,))

    def test_four_cycle(self):
        g = build_graph(CYCLE4, 0)
        assert g.depth == (0, 1, 2, 1)

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            build_graph([(0, 1), (2, 3)], 0)

    def test_self_loop(self):
        with pytest.raises(MalformedEdge):
            build_graph([(0, 0)], 0)

    def test_negative_index(self):
        with pytest.raises(MalformedEdge):
            build_graph([(0, -1)], 0)

    def test_single_node(self):
        g = build_graph([], 0)
        assert g.node_count == 1
        assert g.layers == ((0,),)

    def test_duplicate_edges_collapse(self):
        g = build_graph([(0, 1), (1, 0), (0, 1)], 0)
        assert g.adjacency == ((1,), (0,))

    def test_depth_gap_at_most_one(self):
        for seed in range(20):
            g = random_connected_graph(seed)
            for u in range(g.node_count):
                for v in g.adjacency[u]:
                    assert abs(g.depth[u] - g.depth[v]) <= 1
                if u != g.root:
                    assert any(g.depth[w] == g.depth[u] - 1 for w in g.adjacency[u])


class TestSymmetries:
    # the 4-cycle 0-1-2-3 rooted at 0: swapping 1 and 3 is its one
    # non-trivial root-fixing automorphism
    MIRROR = (0, 3, 2, 1)

    def test_checked_symmetry_is_kept(self):
        g = build_graph(CYCLE4, 0, [self.MIRROR])
        assert len(g.symmetries) == 1
        assert g.symmetries[0].tolist() == list(self.MIRROR)
        assert not g.symmetries[0].flags.writeable

    def test_symmetries_do_not_affect_equality(self):
        assert build_graph(CYCLE4, 0, [self.MIRROR]) == build_graph(CYCLE4, 0)

    def test_duplicate_edges_allowed(self):
        g = build_graph(CYCLE4 + [(1, 0)], 0, [self.MIRROR])
        assert len(g.symmetries) == 1

    @pytest.mark.parametrize("perm", [
        (0, 3, 3, 1),      # repeats a node
        (0, 3, 2),         # too short
        (0, 3, 2, 4),      # out of range
        (0, -1, 2, 1),     # negative
        (0.0, 3.0, 2.0, 1.0),  # not integers
    ])
    def test_non_permutation_rejected(self, perm):
        with pytest.raises(NotAutomorphism):
            build_graph(CYCLE4, 0, [perm])

    def test_root_mover_rejected(self):
        # rotating the cycle is an automorphism, but it moves the root
        with pytest.raises(NotAutomorphism, match="root"):
            build_graph(CYCLE4, 0, [(1, 2, 3, 0)])

    def test_non_automorphism_rejected(self):
        # fixes the root but sends edge 0-1 to the non-edge 0-2
        with pytest.raises(NotAutomorphism, match="edges"):
            build_graph(CYCLE4, 0, [(0, 2, 1, 3)])

    def test_loaded_graphs_carry_found_symmetries(self):
        # the loader finds the mirror; a graph built directly carries none
        g, _ = graph_from_json_dict(graph_to_json_dict(build_graph(CYCLE4, 0)))
        assert [s.tolist() for s in g.symmetries] == [list(self.MIRROR)]
        assert not g.symmetries[0].flags.writeable
        assert build_graph(CYCLE4, 0).symmetries == ()

    def test_loaders_build_the_csr_once(self, monkeypatch):
        # the symmetry search builds the CSR and the loaded graph keeps it
        builds = []
        real = Graph.csr.func

        def counted(g):
            builds.append(g.node_count)
            return real(g)

        prop = functools.cached_property(counted)
        prop.__set_name__(Graph, "csr")
        monkeypatch.setattr(Graph, "csr", prop)
        ball = gen_tessellation(5, 4, 5)
        doc = graph_to_json_dict(ball)
        text = "\n".join(f"{u} {v}" for u, v in ball.edge_list())
        for load in (lambda: graph_from_json_dict(doc)[0], lambda: load_edge_list(text)):
            builds.clear()
            g = load()
            assert g.symmetries
            pair_census(g, g.max_depth)
            assert builds == [ball.node_count]


class TestDistances:
    def test_four_cycle(self):
        g = build_graph(CYCLE4, 0)
        assert distances_from(g, 0).dist == (0, 1, 2, 1)

    def test_path_reverse(self):
        g = build_graph(PATH3, 0)
        assert distances_from(g, 2).dist == (2, 1, 0)

    def test_binary_tree_leftmost_leaf(self):
        # hand BFS on the 7-node tree: nodes 0; 1,2; 3,4,5,6
        g = gen_kary_tree(2, 2)
        assert distances_from(g, 3).dist == (2, 1, 3, 0, 2, 4, 4)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_floyd_warshall(self, seed):
        g = random_connected_graph(seed)
        oracle = floyd_warshall(g)
        for s in range(g.node_count):
            assert list(distances_from(g, s).dist) == oracle[s]

    def test_source_out_of_range(self):
        g = build_graph(PATH3, 0)
        with pytest.raises(IndexError):
            distances_from(g, 99)

    @pytest.mark.parametrize("seed", range(12))
    def test_bfs_order(self, seed):
        # raw neighbour lists, unsorted and with nodes the source cannot reach
        rng = random.Random(seed)
        n = rng.randint(1, 15)
        adjacency = [[] for _ in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adjacency[u].append(v)
                adjacency[v].append(u)
        source = rng.randrange(n)
        dist, order = _bfs(adjacency, source, n)
        assert order[0] == source and dist[source] == 0
        assert sorted(order) == [v for v in range(n) if dist[v] >= 0]
        steps = [dist[w] - dist[v] for v, w in zip(order, order[1:])]
        assert set(steps) <= {0, 1}
        for v in order[1:]:  # one hop further than some neighbour
            assert min(dist[w] for w in adjacency[v] if dist[w] >= 0) == dist[v] - 1
        for v in range(n):  # unreached nodes read -1 and have no reached neighbour
            if dist[v] < 0:
                assert dist[v] == -1
                assert all(dist[w] == -1 for w in adjacency[v])


class TestGromovProduct:
    def test_self_product_is_distance(self):
        g = build_graph(PATH3 + [(2, 3), (3, 4), (4, 5)], 0)
        assert gromov_product(g, 5, 5, 0) == 5

    def test_four_cycle_opposite(self):
        g = build_graph(CYCLE4, 0)
        assert gromov_product(g, 1, 3, 0) == 0

    def test_tree_bifurcation_depth(self):
        g = gen_kary_tree(2, 3)
        # leaves 7 and 8 share the depth-2 parent 3; 7 and 10 split at depth 1
        assert gromov_product(g, 7, 8, 0) == 2
        assert gromov_product(g, 7, 10, 0) == 1
        assert gromov_product(g, 7, 14, 0) == 0

    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_nonneg_bounded(self, seed):
        g = random_connected_graph(seed)
        rng = random.Random(seed + 1)
        base = rng.randrange(g.node_count)
        y = rng.randrange(g.node_count)
        z = rng.randrange(g.node_count)
        p = gromov_product(g, y, z, base)
        assert p == gromov_product(g, z, y, base)
        assert p >= 0
        d_base = distances_from(g, base).dist
        assert p <= min(d_base[y], d_base[z])


class TestFourPointDelta:
    @pytest.mark.parametrize("k,depth", [(2, 3), (3, 2), (2, 4)])
    def test_trees_are_zero(self, k, depth):
        assert four_point_delta(gen_kary_tree(k, depth)) == 0

    def test_four_cycle(self):
        assert four_point_delta(build_graph(CYCLE4, 0)) == 1

    def test_single_node(self):
        assert four_point_delta(build_graph([], 0)) == 0

    def test_cap(self):
        g = gen_grid(5)
        with pytest.raises(GraphTooLarge):
            four_point_delta(g, cap=10)

    def test_orbit_scan_equals_plain_scan(self):
        """Taking x over orbit representatives gives the full scan's delta on
        the graphs the tests hand to four_point_delta, generated or loaded.
        test_four_point_delta_bounded pins the (5,4) ball at depth 5 to the
        full scan's value."""

        def loaded(g):
            return graph_from_json_dict(graph_to_json_dict(g))[0]

        cases = [gen_kary_tree(k, d) for k, d in ((2, 3), (3, 2), (2, 4), (4, 2))]
        cases += [loaded(gen_kary_tree(3, 4)), gen_grid(5), loaded(build_graph(DIAMOND, 0))]
        cases += [loaded(cycle(n)) for n in range(4, 9)]
        cases += [gen_tessellation(5, 4, d) for d in (3, 4)]
        cases += [loaded(gen_tessellation(4, 5, 3))]
        for g in cases:
            assert g.symmetries
            plain = dataclasses.replace(g, symmetries=())
            assert four_point_delta(g) == four_point_delta(plain), g.node_count


class TestSlimDelta:
    def test_path_is_zero(self):
        assert slim_delta_exact(build_graph(PATH3, 0)) == 0.0

    def test_cycles(self):
        # exhaustive triangle enumeration, frozen
        assert slim_delta_exact(cycle(4)) == 1.0
        assert slim_delta_exact(cycle(6)) == 1.0
        assert slim_delta_exact(cycle(8)) == 2.0

    def test_cap(self):
        with pytest.raises(GraphTooLarge):
            slim_delta_exact(gen_grid(9), cap=64)

    def test_at_least_four_point_on_small_graphs(self):
        # slim delta dominates the four-point gap on every graph we enumerate
        for g in [cycle(4), cycle(5), cycle(6), build_graph(DIAMOND, 0)]:
            assert slim_delta_exact(g) >= float(four_point_delta(g)) / 2.0


class TestHalfInteger:
    """Gromov products and the four-point delta are exact half-integers."""

    def test_exact_representation(self):
        p = gromov_product(cycle(5), 2, 3, 0)  # (2 + 2 - 1) / 2
        assert p == Fraction(3, 2)
        assert float(p) == 1.5
        assert p == 1.5
        assert p < 2
        assert four_point_delta(cycle(5)) == Fraction(1, 2)

    def test_repr(self):
        p = gromov_product(cycle(5), 2, 3, 0)
        assert repr(p) == "Fraction(3, 2)"
        assert str(p) == "3/2"
        assert str(four_point_delta(cycle(4))) == "1"


class TestJson:
    def test_round_trip(self):
        g = gen_kary_tree(3, 3)
        doc = graph_to_json_dict(g, family={"variant": "tree", "k": 3, "depth": 3})
        g2, family = graph_from_json_dict(doc)
        assert g2 == g
        assert family["k"] == 3
        assert doc["edges"] == sorted(doc["edges"])

    def test_depths_recomputed_not_trusted(self):
        doc = graph_to_json_dict(build_graph(CYCLE4, 0))
        doc["node_count"] = 9
        with pytest.raises(MalformedEdge):
            graph_from_json_dict(doc)

    def test_bad_format(self):
        with pytest.raises(MalformedEdge):
            graph_from_json_dict({"format": "nope", "edges": [], "root": 0, "node_count": 1})
