"""The loaders' search for root-fixing symmetries: every symmetry it returns
is a checked automorphism, the engine gives the plain path's census and
loads on the graphs it returns, on small graphs its orbits are those of the
whole root-fixing group, and its work stays within the budget."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertraffic import graphs
from hypertraffic.errors import NotAutomorphism
from hypertraffic.generators import gen_grid, gen_kary_tree, gen_tessellation, load_edge_list
from hypertraffic.graphs import _orbit_labels, build_graph, find_symmetries
from hypertraffic.traffic import ExponentialRate, node_loads, pair_census
from oracles import is_root_automorphism, root_automorphism_orbits
from test_traffic import diamond_chain, relabelled


def random_edge_list(seed, max_nodes=16):
    """A connected graph as edge-list text: a random tree plus extra edges."""
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return f"# root {rng.randrange(n)}\n" + "\n".join(f"{u} {v}" for u, v in edges)


def orbit_count(g) -> int:
    return np.unique(_orbit_labels(g.node_count, g.symmetries)).size


def assert_sound_and_exact(g):
    """build_graph's check accepts every symmetry, and the reduced census
    and loads equal the plain path's at every depth."""
    build_graph(g.edge_list(), g.root, g.symmetries)
    plain = dataclasses.replace(g, symmetries=())
    rate = ExponentialRate(1.3)
    for n in range(g.max_depth + 1):
        assert np.array_equal(pair_census(g, n), pair_census(plain, n)), n
        got = np.array(node_loads(g, rate, n))
        want = np.array(node_loads(plain, rate, n))
        assert np.array_equal(got == 0, want == 0), n
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


FAMILIES = {
    "tess-5-4-4": gen_tessellation(5, 4, 4),
    "tess-7-3-5": gen_tessellation(7, 3, 5),
    "tess-4-5-3": gen_tessellation(4, 5, 3),
    "tess-3-7-4": gen_tessellation(3, 7, 4),
    "tree-2-4": gen_kary_tree(2, 4),
    "tree-3-3-rd2": gen_kary_tree(3, 3, root_degree=2),
    "grid-7": gen_grid(7),
}


class TestSoundness:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_random_graphs(self, seed):
        assert_sound_and_exact(load_edge_list(random_edge_list(seed)))

    @settings(max_examples=30)
    @given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32 - 1))
    def test_relabelled_families(self, name, seed):
        """A relabelled generated graph gets back at least the orbits of the
        symmetries its generator knows."""
        g = relabelled(FAMILIES[name], seed)
        assert orbit_count(g) <= orbit_count(FAMILIES[name])
        assert_sound_and_exact(g)

    def test_loaded_balls_walk_one_source_per_orbit(self):
        # boundary orbits of the dihedral group about the root, as generated
        for (p, q, d), walked in {(5, 4, 7): 98, (7, 3, 8): 19, (3, 7, 6): 73}.items():
            g = relabelled(gen_tessellation(p, q, d), seed=7)
            labels = _orbit_labels(g.node_count, g.symmetries)
            assert np.unique(labels[list(g.layers[d])]).size == walked

    def test_truncation_adds_symmetries(self):
        """The (4,5) ball of depth 5 has root-fixing automorphisms that the
        tessellation's dihedral group does not give: the search finds 42
        node orbits against the generator's 48, and the census stays exact."""
        ball = gen_tessellation(4, 5, 5)
        g = relabelled(ball, seed=3)
        assert (orbit_count(g), orbit_count(ball)) == (42, 48)
        build_graph(g.edge_list(), g.root, g.symmetries)
        plain = dataclasses.replace(g, symmetries=())
        assert np.array_equal(pair_census(g, 5), pair_census(plain, 5))

    def test_deeper_individualization(self, monkeypatch):
        """On a relabelled hypercube Q4 one individualized node per copy
        leaves cells that _match cannot pair, so both copies individualize
        again: the refiner is handed an already individualized colouring
        (9 cells against the equitable 5) four times. The search still ends
        with one orbit per layer and the plain path's census."""
        perm = list(range(16))
        random.Random(1).shuffle(perm)
        text = f"# root {perm[0]}\n" + "\n".join(
            f"{perm[u]} {perm[u ^ bit]}" for u in range(16) for bit in (1, 2, 4, 8) if u < u ^ bit
        )
        cells = []
        real = graphs._Refiner.individualize

        def counted(self, colour, node):
            cells.append(int(colour.max()) + 1)
            return real(self, colour, node)

        monkeypatch.setattr(graphs._Refiner, "individualize", counted)
        g = load_edge_list(text)
        assert set(cells) == {5, 9} and cells.count(9) == 4
        assert orbit_count(g) == 5 == len(g.layers)
        plain = dataclasses.replace(g, symmetries=())
        for n in range(g.max_depth + 1):
            assert np.array_equal(pair_census(g, n), pair_census(plain, n)), n

    def test_edge_list_loader_finds_symmetries(self):
        g = load_edge_list("0 1\n1 2\n2 3\n3 0")
        assert [s.tolist() for s in g.symmetries] == [[0, 3, 2, 1]]

    def test_hash_collision_stops_the_search(self, monkeypatch):
        # with every signature hashed alike, the exact check in each
        # refinement round refuses the partition and the search gives up
        monkeypatch.setattr(graphs, "_mix64", lambda x: np.zeros(x.shape, dtype=np.uint64))
        symmetries, _ = find_symmetries(gen_tessellation(5, 4, 3))
        assert symmetries == ()


CHECKED = {
    "cycle-4": build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 0),
    "diamond-chain": diamond_chain(3),
    "tree-2-4": gen_kary_tree(2, 4),
    "tree-3-3": gen_kary_tree(3, 3),
    "grid-5": gen_grid(5),
    **{f"tess-5-4-{d}": gen_tessellation(5, 4, d) for d in range(1, 5)},
    "json-ball": relabelled(gen_tessellation(5, 4, 3), seed=11),
}


def candidates(g, rng):
    """Sequences to offer _check_symmetry: real automorphisms, each also
    with two non-root nodes swapped; random permutations with and without
    the root fixed; a repeated, an out-of-range and a negative id; the wrong
    lengths. Each comes as a list, a tuple and int32, float and bool arrays."""
    n, root = g.node_count, g.root
    others = [v for v in range(n) if v != root]
    autos = [s.tolist() for s in g.symmetries or find_symmetries(g)[0]]
    perms = [list(range(n))] + autos
    for auto in list(perms):
        x, y = rng.sample(others, 2)
        swapped = list(auto)
        swapped[x], swapped[y] = auto[y], auto[x]
        perms.append(swapped)
    fixing = list(range(n))
    shuffled = rng.sample(others, len(others))
    for v, w in zip(others, shuffled):
        fixing[v] = w
    moving = rng.sample(range(n), n)
    perms += [fixing, moving]
    for bad in (root, n, -1):
        broken = list(fixing)
        broken[rng.choice(others)] = bad
        perms.append(broken)
    perms += [fixing[:-1], fixing + [n]]
    for perm in perms:
        yield perm
        yield tuple(perm)
        yield np.array(perm, dtype=np.int32)
        yield np.array(perm, dtype=np.float64)
        yield np.array(perm, dtype=bool)


class TestCheckSymmetry:
    @settings(max_examples=120)
    @given(st.sampled_from(sorted(CHECKED)), st.randoms(use_true_random=False))
    def test_csr_check_agrees_with_set_lookup(self, name, rng):
        g = CHECKED[name]
        for perm in candidates(g, rng):
            try:
                arr = graphs._check_symmetry(perm, g)
            except NotAutomorphism:
                assert not is_root_automorphism(perm, g), perm
                continue
            assert is_root_automorphism(perm, g), perm
            assert arr.dtype == np.int64 and not arr.flags.writeable
            assert arr.tolist() == [int(x) for x in perm]


def union_find_labels(n, maps):
    """Smallest id in each component of the graph joining v to m[v]."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for m in maps:
        for v, w in enumerate(m):
            a, b = root(v), root(int(w))
            parent[max(a, b)] = min(a, b)
    return [root(v) for v in range(n)]


class TestOrbitLabels:
    @settings(max_examples=200)
    @given(st.integers(1, 40).flatmap(lambda n: st.lists(
        st.permutations(range(n)) | st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        max_size=3)))
    def test_match_union_find(self, maps):
        """Permutations and the label maps the search passes both count as
        edges, whatever the order of the ids along a cycle."""
        n = len(maps[0]) if maps else 5
        maps = [np.array(m, dtype=np.int64) for m in maps]
        assert _orbit_labels(n, maps).tolist() == union_find_labels(n, maps)

    def test_long_ascending_cycle(self):
        # one cycle 1 -> 2 -> ... -> n-1 -> 1, as a star's generator turns
        n = 20001
        cycle = np.r_[0, np.arange(2, n), 1]
        assert _orbit_labels(n, [cycle]).tolist() == [0] + [1] * (n - 1)


def star(leaves):
    return build_graph([(0, v) for v in range(1, leaves + 1)], 0)


def rooted_cycle(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], 0)


def complete_bipartite(m):
    return build_graph([(u, m + v) for u in range(m) for v in range(m)], 0)


SMALL_BUDGET = 1 << 16


class TestBudget:
    @pytest.mark.parametrize("g", [star(5000), rooted_cycle(2001), complete_bipartite(60)],
                             ids=["star", "cycle", "K60,60"])
    def test_hostile_graphs_stop_within_budget(self, g, monkeypatch):
        """The search stops before its work passes the budget and keeps
        only checked automorphisms, down to none."""
        monkeypatch.setattr(graphs, "_SEARCH_BUDGET", SMALL_BUDGET)
        symmetries, work = find_symmetries(g)
        assert 0 < work <= SMALL_BUDGET
        build_graph(g.edge_list(), g.root, symmetries)

    def test_cycle_too_long_for_the_budget_keeps_no_symmetry(self, monkeypatch):
        # telling the two arcs apart takes one refinement round per node
        # pair, so the reflection is out of reach and the group is trivial
        monkeypatch.setattr(graphs, "_SEARCH_BUDGET", SMALL_BUDGET)
        assert find_symmetries(rooted_cycle(2001)) == ((), SMALL_BUDGET // 4002 * 4002)

    def test_large_star_turns_in_one_match(self):
        # the cyclic tie-break pairs the leaves as one long cycle, so a
        # single generator joins them all
        symmetries, work = find_symmetries(star(20000))
        assert len(symmetries) == 1 and work <= graphs._SEARCH_BUDGET
        assert orbit_count(dataclasses.replace(star(20000), symmetries=symmetries)) == 2

    @pytest.mark.parametrize("g,orbits", [
        (star(40), 2), (rooted_cycle(41), 21), (complete_bipartite(6), 3),
    ], ids=["star", "cycle", "K6,6"])
    def test_small_versions_reach_every_orbit(self, g, orbits):
        symmetries, work = find_symmetries(g)
        assert work <= graphs._SEARCH_BUDGET
        assert orbit_count(dataclasses.replace(g, symmetries=symmetries)) == orbits


def circulant(n, jumps):
    return build_graph(sorted({tuple(sorted((i, (i + j) % n))) for i in range(n)
                               for j in jumps}), 0)


# every connected circulant on 3..12 nodes, by its jump set in 1..n/2
CIRCULANTS = [
    (n, jumps)
    for n in range(3, 13)
    for size in range(1, n // 2 + 1)
    for jumps in itertools.combinations(range(1, n // 2 + 1), size)
    if math.gcd(n, *jumps) == 1
]


def hung_copies(copies, seed):
    """`copies` copies of one random connected piece, each joined to the
    root by the same random non-empty set of its nodes; at most 12 nodes."""
    rng = random.Random(seed)
    m = rng.randint(1, 11 // copies)
    piece = [(rng.randrange(v), v) for v in range(1, m)]
    piece += [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < 0.3]
    hooks = rng.sample(range(m), rng.randint(1, m))
    edges = []
    for c in range(copies):
        base = 1 + c * m
        edges += [(base + u, base + v) for u, v in piece]
        edges += [(0, base + h) for h in hooks]
    return build_graph(sorted(set(edges)), 0)


def hung_cubic(seed):
    """A random cubic graph on 8 or 10 nodes, each node joined to a new root
    0, so one cell by depth can hold two or more orbits."""
    rng = random.Random(seed)
    m = rng.choice((8, 10))
    while True:
        stubs = [v for v in range(1, m + 1) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, 3 * m, 2)}
        if len(pairs) == 3 * m // 2 and all(u != v for u, v in pairs):
            return build_graph(sorted(pairs) + [(0, v) for v in range(1, m + 1)], 0)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(outer + spokes + inner, 0)


def hypercube(dim):
    return build_graph([(u, u ^ (1 << b)) for u in range(1 << dim)
                        for b in range(dim) if u < u ^ (1 << b)], 0)


SYMMETRIC = {
    **{f"circulant-{n}-{'-'.join(map(str, jumps))}": circulant(n, jumps)
       for n, jumps in CIRCULANTS},
    **{f"hung-{copies}x-{seed}": hung_copies(copies, seed)
       for copies in (2, 3) for seed in range(40)},
    "Q2": hypercube(2),
    "Q3": hypercube(3),
    "petersen": petersen(),
}


def search_orbits(g):
    return _orbit_labels(g.node_count, g.symmetries).tolist()


class TestCompleteness:
    """The loaders' symmetries generate the whole root-fixing group's
    orbits on graphs small enough to enumerate it, not only a subgroup's."""

    @pytest.mark.parametrize("name,g,orbits", [
        ("petersen", petersen(), 3), ("Q3", hypercube(3), 4),
        ("C6", rooted_cycle(6), 4), ("K12", circulant(12, range(1, 7)), 2),
        ("path", build_graph([(0, 1), (1, 2), (2, 3)], 0), 4),
        ("broom", build_graph([(0, 1), (0, 2), (0, 3), (1, 4)], 0), 4),
    ])
    def test_oracle_orbit_counts(self, name, g, orbits):
        assert len(set(root_automorphism_orbits(g))) == orbits

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1))
    def test_random_graphs(self, seed):
        g = load_edge_list(random_edge_list(seed, max_nodes=10))
        assert search_orbits(g) == root_automorphism_orbits(g)

    @pytest.mark.parametrize("seed,name", enumerate(sorted(SYMMETRIC)),
                             ids=sorted(SYMMETRIC))
    def test_symmetric_graphs(self, seed, name):
        g = relabelled(SYMMETRIC[name], seed)
        assert search_orbits(g) == root_automorphism_orbits(g)

    @pytest.mark.parametrize("seed", range(40))
    def test_hung_cubic_graphs(self, seed):
        # the search completes every orbit of a cell, not only its smallest id's
        g = graphs.with_found_symmetries(hung_cubic(seed))
        assert search_orbits(g) == root_automorphism_orbits(g)
