import dataclasses
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertraffic import graphs
from hypertraffic.errors import (
    DisconnectedGraph,
    GraphTooLarge,
    MalformedEdge,
    NotAutomorphism,
    SizeOverflow,
)
from hypertraffic.generators import gen_grid, gen_kary_tree, gen_tessellation, load_edge_list
from hypertraffic.graphs import (
    _walk,
    build_graph,
    four_point_delta,
    graph_from_json_dict,
    graph_to_json_dict,
    with_found_symmetries,
)
from hypertraffic.tessellation import _bfs
from hypertraffic.traffic import pair_census
from oracles import (
    bfs_dist,
    csr_walk,
    floyd_warshall,
    four_point_brute,
    gromov_product,
    same_graph,
    slim_delta_exact,
)
from test_traffic import diamond_chain

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
        assert g.depth.tolist() == [0, 1, 2]
        assert [layer.tolist() for layer in g.layers] == [[0], [1], [2]]

    def test_four_cycle(self):
        g = build_graph(CYCLE4, 0)
        assert g.depth.tolist() == [0, 1, 2, 1]

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
        assert [layer.tolist() for layer in g.layers] == [[0]]

    def test_duplicate_edges_collapse(self):
        g = build_graph([(0, 1), (1, 0), (0, 1)], 0)
        assert g.adjacency == [[1], [0]]

    def test_depth_gap_at_most_one(self):
        for seed in range(20):
            g = random_connected_graph(seed)
            depth = g.depth.tolist()
            for u, nbrs in enumerate(g.adjacency):
                for v in nbrs:
                    assert abs(depth[u] - depth[v]) <= 1
                if u != g.root:
                    assert any(depth[w] == depth[u] - 1 for w in nbrs)

    @pytest.mark.parametrize("seed", range(20))
    def test_layers_match_the_oracle_bfs(self, seed):
        # duplicate and reversed edges, listed in random order, and a random root
        rng = random.Random(seed)
        n = rng.randint(1, 15)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        edges += [(v, u) for u, v in rng.sample(edges, len(edges) // 2)]
        rng.shuffle(edges)
        root = rng.randrange(n)
        g = graphs.with_found_symmetries(build_graph(edges, root))
        dist = bfs_dist(g, root)
        assert g.depth.tolist() == dist
        assert [layer.tolist() for layer in g.layers] == [
            [v for v in range(n) if dist[v] == t] for t in range(max(dist) + 1)
        ]
        # the Graph is its arrays, all int64 and read-only
        for arr in (g.depth, *g.layers, *g.csr, *g.pages, *g.symmetries):
            assert arr.dtype == np.int64
            with pytest.raises(ValueError):
                arr[...] = 0
        assert np.array_equal(np.sort(np.concatenate(g.layers)), np.arange(n))
        for t, layer in enumerate(g.layers):
            assert (g.depth[layer] == t).all()
        # n..n+2 form a second component: the walk's message counts all
        # three and names the smallest
        with pytest.raises(DisconnectedGraph) as info:
            build_graph(edges + [(n, n + 1), (n + 2, n)], root)
        assert str(info.value) == f"3 node(s) unreachable from root {root}, e.g. node {n}"
        # node n is in no edge, a gap below n+3 the ids show before the walk
        with pytest.raises(DisconnectedGraph) as info:
            build_graph(edges + [(n + 1, n + 2), (n + 3, n + 1)], root)
        assert str(info.value) == (
            f"1 node(s) below id {n + 3} are in no edge, so unreachable from root {root}, "
            f"e.g. node {n}"
        )


@st.composite
def edge_inputs(draw):
    """(pairs, root): the edges of a connected graph on up to 14 nodes with
    duplicate and reversed pairs, in shuffled order, and a random root."""
    n = draw(st.integers(1, 14))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    node = st.integers(0, n - 1)
    pairs += draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=2 * n))
    if pairs:
        pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=n))]
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return draw(st.permutations(pairs)), draw(node)


# a refusal of each kind, made from a valid input: (pairs, root) -> (pairs, root)
REFUSALS = {
    "negative id": lambda pairs, root: (pairs + [(0, -3)], root),
    "self-loop": lambda pairs, root: ([(root, root)] + pairs, root),
    "float endpoint": lambda pairs, root: (pairs + [(root, root + 0.5)], root),
    "integral float endpoint": lambda pairs, root: ([(float(root), root + 1)] + pairs, root),
    "str endpoint": lambda pairs, root: (pairs + [(root, str(root + 1))], root),
    "triples": lambda pairs, root: ([(u, v, v) for u, v in pairs + [(root, root + 1)]], root),
    "flat ids": lambda pairs, root: ([root, root + 1], root),
    "negative root": lambda pairs, root: (pairs, -1 - root),
    "float root": lambda pairs, root: (pairs, float(root)),
}


class TestEdgeInputs:
    """build_graph reads a pair list and an integer array through one path:
    both give the same Graph, CSR and symmetries, and the same refusal."""

    @given(edge_inputs(), st.sampled_from([np.int64, np.int32, np.uint16]))
    @settings(max_examples=150)
    def test_pair_list_and_array_build_the_same_graph(self, inputs, dtype):
        pairs, root = inputs
        symmetries = graphs.find_symmetries(build_graph(pairs, root))[0]
        from_list = build_graph(pairs, root, symmetries)
        from_array = build_graph(np.array(pairs, dtype=dtype).reshape(-1, 2), root, symmetries)
        assert same_graph(from_list, from_array)
        for a, b in zip(from_list.csr, from_array.csr):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)
        assert [s.tolist() for s in from_list.symmetries] == [
            s.tolist() for s in from_array.symmetries
        ]
        assert from_list.edge_list() == sorted({tuple(sorted(e)) for e in pairs})

    @given(edge_inputs(), st.sampled_from(sorted(REFUSALS)))
    @settings(max_examples=150)
    def test_both_inputs_are_refused_alike(self, inputs, kind):
        pairs, root = REFUSALS[kind](*inputs)
        messages = []
        for edges in (pairs, np.asarray(pairs)):
            with pytest.raises(MalformedEdge) as info:
                build_graph(edges, root)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        if kind.endswith("root"):
            assert messages[0].startswith(f"root {root!r} ")
        elif kind in ("negative id", "self-loop"):
            assert kind.split()[0] in messages[0]
        else:
            assert re.search("not (a pair of integers|integer pairs)", messages[0])

    def test_the_first_bad_edge_is_named(self):
        with pytest.raises(MalformedEdge, match=r"^edge 1 \[1.0, 2.5\] is not a pair of integers; "
                           r"numpy reads them as float64 of shape \(2, 2\)$"):
            build_graph([(0, 1), (1, 2.5)], 0)
        with pytest.raises(MalformedEdge, match=r"^edges are not integer pairs; "
                           r"numpy reads them as float64 of shape \(2, 2\)$"):
            build_graph([(0, 1), (1, 2.0)], 0)
        with pytest.raises(MalformedEdge, match=r"^edge 1 \(1, 2, 3\) is not a pair of integers; "
                           r"they are ragged$"):
            build_graph([(0, 1), (1, 2, 3)], 0)
        with pytest.raises(MalformedEdge, match=r"^edge 2 \[0, -1\] has a negative endpoint$"):
            build_graph(np.array([(0, 1), (1, 2), (0, -1)]), 0)
        with pytest.raises(MalformedEdge, match=r"^edge 0 \[0, 1180591620717411303424\] is not a "
                           r"pair of integers; numpy reads them as object of shape \(1, 2\)$"):
            build_graph([(0, 1 << 70)], 0)
        # a uint64 id past int64 is refused like the list holding it, not wrapped
        with pytest.raises(MalformedEdge, match=r"^edge 0 \[0, 9223372036854775808\] is not a "
                           r"pair of integers; numpy reads them as uint64 of shape \(1, 2\)$"):
            build_graph(np.array([(0, 1 << 63)], dtype=np.uint64), 0)

    @pytest.mark.parametrize("as_array", [False, True], ids=["pairs", "int64"])
    @pytest.mark.parametrize("edges,root,cap,error,message", [
        ([(0, 2_000_000)], 0, None, DisconnectedGraph,
         "1999999 node(s) below id 2000000 are in no edge, so unreachable from root 0, "
         "e.g. node 1"),
        ([(3, 1), (1, 5)], 1, None, DisconnectedGraph,
         "3 node(s) below id 5 are in no edge, so unreachable from root 1, e.g. node 0"),
        ([(0, 1)], 4, None, DisconnectedGraph,
         "2 node(s) below id 4 are in no edge, so unreachable from root 4, e.g. node 2"),
        ([(0, 10**9)], 0, "100", SizeOverflow, "node id 1000000000 exceeds node cap 100"),
        ([], 10**9, "100", SizeOverflow, "node id 1000000000 exceeds node cap 100"),
        ([(0, 1)], 100, "100", SizeOverflow, "node id 100 exceeds node cap 100"),
    ], ids=["far-id", "gaps", "root-above", "cap-edge", "cap-root", "cap-exact"])
    def test_ids_refused_before_allocating(self, monkeypatch, as_array, edges, root, cap,
                                           error, message):
        """Every caller meets the node cap and the id-gap check: build_graph
        makes them on the edge array, before any per-node array."""
        if cap is not None:
            monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", cap)
        if as_array:
            edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        tracemalloc.start()
        try:
            with pytest.raises(error) as info:
                build_graph(edges, root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 1 << 20

    def test_a_bool_endpoint_is_refused(self):
        """numpy reads a bool beside ints as 0 or 1; build_graph refuses it,
        naming the first edge that holds one, as it refuses a pair of
        bools."""
        for edges, named in (
            ([(True, 2), (0, 2)], "edge 0 (True, 2)"),
            ([(0, 2), (np.int64(1), np.True_)], "edge 1 (np.int64(1), np.True_)"),
            ([(0, 1), [2, False]], "edge 1 [2, False]"),
        ):
            with pytest.raises(MalformedEdge) as info:
                build_graph(edges, 0)
            assert str(info.value) == f"{named} is not a pair of integers; a bool is not a node id"
        with pytest.raises(MalformedEdge, match=r"^edge 0 \[True, False\] is not a pair of "
                           r"integers; numpy reads them as bool of shape \(1, 2\)$"):
            build_graph([(True, False)], 0)

    def test_any_iterable_of_pairs(self):
        assert same_graph(build_graph(iter(PATH3), 0), build_graph(PATH3, 0))
        path = np.array([(0, 1), (1, 2), (2, 3)])
        assert same_graph(build_graph(zip(range(3), range(1, 4)), 0), build_graph(path, 0))


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
        assert same_graph(build_graph(CYCLE4, 0, [self.MIRROR]), build_graph(CYCLE4, 0))

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
        g = graph_from_json_dict(graph_to_json_dict(build_graph(CYCLE4, 0)))
        assert [s.tolist() for s in g.symmetries] == [list(self.MIRROR)]
        assert not g.symmetries[0].flags.writeable
        assert build_graph(CYCLE4, 0).symmetries == ()

    def test_loaders_build_the_csr_once(self, monkeypatch):
        # build_graph builds the CSR; the symmetry search and the census reuse it
        builds = []
        real = graphs._csr

        def counted(keys, n):
            builds.append(n)
            return real(keys, n)

        monkeypatch.setattr(graphs, "_csr", counted)
        ball = gen_tessellation(5, 4, 5)
        doc = graph_to_json_dict(ball)
        text = "\n".join(f"{u} {v}" for u, v in ball.edge_list())
        for load in (lambda: graph_from_json_dict(doc), lambda: load_edge_list(text)):
            builds.clear()
            g = load()
            assert g.symmetries
            pair_census(g, g.max_depth)
            assert builds == [ball.node_count]


def engine_dist(g, source):
    """Distances from graphs._walk, the package's one BFS over a Graph."""
    return _walk(g.pages, np.array([source]), g.node_count)[0].tolist()


class TestDistances:
    def test_four_cycle(self):
        g = build_graph(CYCLE4, 0)
        assert engine_dist(g, 0) == [0, 1, 2, 1]

    def test_path_reverse(self):
        g = build_graph(PATH3, 0)
        assert engine_dist(g, 2) == [2, 1, 0]

    def test_binary_tree_leftmost_leaf(self):
        # hand BFS on the 7-node tree: nodes 0; 1,2; 3,4,5,6
        g = gen_kary_tree(2, 2)
        assert engine_dist(g, 3) == [2, 1, 3, 0, 2, 4, 4]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_floyd_warshall(self, seed):
        g = random_connected_graph(seed)
        oracle = floyd_warshall(g)
        for s in range(g.node_count):
            assert engine_dist(g, s) == oracle[s]

    def test_source_out_of_range(self):
        g = build_graph(PATH3, 0)
        with pytest.raises(IndexError):
            engine_dist(g, 99)

    @pytest.mark.parametrize("seed", range(12))
    def test_bfs_order(self, seed):
        # the half-edge map's own BFS, on raw neighbour lists, unsorted and
        # with nodes the source cannot reach
        rng = random.Random(seed)
        n = rng.randint(1, 15)
        adjacency = [[] for _ in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adjacency[u].append(v)
                adjacency[v].append(u)
        source = rng.randrange(n)
        dist, order = _bfs(adjacency, source, len(adjacency))  # no path is that long
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
        for bound in range(max(dist) + 2):  # a bounded walk is the full one cut at the bound
            near, prefix = _bfs(adjacency, source, bound)
            assert near == [d if d <= bound else -1 for d in dist]
            assert prefix == [v for v in order if dist[v] <= bound]
            assert prefix == order[: len(prefix)]
            # it reads no neighbour list of a node at or past the bound
            lists = [adjacency[v] if 0 <= dist[v] < bound else None for v in range(n)]
            assert _bfs(lists, source, bound) == (near, prefix)


def hub_graph(seed, n=240):
    """A random tree plus random chords, one node of which joins a third of
    the others."""
    rng = random.Random(seed)
    hub = rng.randrange(n)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(hub, v) for v in rng.sample(range(n), n // 3) if v != hub]
    edges += [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n)) for _ in range(n)) if u != v]
    return build_graph(edges, rng.randrange(n))


# (graph, whether it has overflow pages)
WALK_GRAPHS = {
    "star": (lambda: build_graph([(0, v) for v in range(1, 20001)], 0), True),
    "diamond_chain": (diamond_chain, False),
    **{f"hub-{seed}": (lambda seed=seed: hub_graph(seed), True) for seed in range(6)},
    "tree-3-4": (lambda: gen_kary_tree(3, 4), False),
    "tree-2-6": (lambda: gen_kary_tree(2, 6), False),
    "grid-9": (lambda: gen_grid(9), False),
    "ball-5-4-5": (lambda: gen_tessellation(5, 4, 5), False),
    "ball-3-7-4": (lambda: gen_tessellation(3, 7, 4), False),
}


class TestPagedWalk:
    @pytest.mark.parametrize("name", WALK_GRAPHS)
    def test_walk_equals_csr_walk(self, name):
        # the paged walk lists the same levels, edge for edge, as the CSR
        # range expansion, for one source, an uneven split and all sources
        build, overflow = WALK_GRAPHS[name]
        g = build()
        n = g.node_count
        page, more = g.pages
        assert not (page.flags.writeable or more.flags.writeable)
        # a graph without hubs has one page per node, as wide as its largest degree
        assert (page.shape != (n, g.csr[0].max())) == overflow
        every = np.arange(n)[:: max(1, n * n >> 18)]  # at most 2^18 slots a batch
        batches = [np.array([g.root]), np.array([n - 1]), *np.split(every, [1, 1 + every.size // 3])]
        expanded = 0  # frontier nodes read past their first page
        for sources in batches:
            dist, levels = _walk(g.pages, sources, n)
            want_dist, want_levels = csr_walk(g.csr, sources, n)
            assert np.array_equal(dist, want_dist)
            assert len(levels) == len(want_levels)
            for got, want in zip(levels, want_levels):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
                node = got[0] % n
                expanded += np.count_nonzero(more[node + 1] > more[node])
        assert (expanded > 0) == overflow

    def test_star_pages_are_linear(self):
        # one 20,000-neighbour hub: a table as wide as the largest degree
        # would hold 20,001 x 20,000 entries. First pages take under
        # 4 (m + n) + n entries and overflow pages at most m, for m directed
        # edges, and `more` n + 1
        g = WALK_GRAPHS["star"][0]()
        page, more = g.pages
        entries = g.csr[2].size + 2 * g.node_count
        assert page.shape[1] == 12 and page.size + more.size <= 6 * entries


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
        d_base = engine_dist(g, base)
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

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_brute_scan(self, seed):
        """The scan with z, w above y equals the scan over every 4-subset,
        with and without the symmetries a loaded graph finds."""
        g = random_connected_graph(seed)
        expected = four_point_brute(g)
        assert four_point_delta(g) == expected
        assert four_point_delta(with_found_symmetries(g)) == expected

    def test_orbit_scan_equals_plain_scan(self):
        """Taking x over orbit representatives gives the full scan's delta on
        the graphs the tests hand to four_point_delta, generated or loaded.
        test_four_point_delta_bounded pins the (5,4) ball at depth 5 to the
        full scan's value."""

        def loaded(g):
            return graph_from_json_dict(graph_to_json_dict(g))

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
    """The four-point delta is an exact half-integer, and so are the Gromov
    products of the oracle."""

    def test_exact_representation(self):
        p = four_point_delta(cycle(5))
        assert p == Fraction(1, 2)
        assert float(p) == 0.5
        assert p == 0.5
        assert p < 1
        assert gromov_product(cycle(5), 2, 3, 0) == Fraction(3, 2)  # (2 + 2 - 1) / 2

    def test_repr(self):
        # a float holds every half-integer below 2^52 exactly
        p = four_point_delta(cycle(5))
        assert type(p) is float
        assert (2 * p).is_integer()
        assert str(p) == "0.5"
        assert four_point_delta(cycle(4)) == 1.0


class TestJson:
    def test_round_trip(self):
        g = gen_kary_tree(3, 3)
        doc = graph_to_json_dict(g, family={"variant": "tree", "k": 3, "depth": 3})
        assert same_graph(graph_from_json_dict(doc), g)
        assert doc["family"] == {"variant": "tree", "k": 3, "depth": 3}
        assert doc["edges"] == sorted(doc["edges"])

    def test_depths_recomputed_not_trusted(self):
        doc = graph_to_json_dict(build_graph(CYCLE4, 0))
        doc["node_count"] = 9
        with pytest.raises(MalformedEdge):
            graph_from_json_dict(doc)

    def test_bad_format(self):
        with pytest.raises(MalformedEdge):
            graph_from_json_dict({"format": "nope", "edges": [], "root": 0, "node_count": 1})
