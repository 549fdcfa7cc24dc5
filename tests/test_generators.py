import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypertraffic import generators, tessellation
from hypertraffic.cli import main
from hypertraffic.errors import (
    CorruptMap,
    EvenSide,
    HypertrafficError,
    MalformedEdge,
    NotAutomorphism,
    NotHyperbolic,
    ParseError,
    SizeOverflow,
)
from hypertraffic.generators import (
    FamilySpec,
    family_graph,
    gen_grid,
    gen_kary_tree,
    gen_tessellation,
    load_edge_list,
)
from hypertraffic.graphs import (
    DEFAULT_NODE_CAP,
    build_graph,
    four_point_delta,
    graph_from_json_dict,
    graph_to_json_dict,
    node_cap,
)
from hypertraffic.serialize import dumps
from hypertraffic.tessellation import TessellationMap, _bfs, build_ball

# growth rate of the (5,4) ball construction, largest root of
# x^4 - 2x^3 - 2x + 1; frozen from the audited face expansion and
# cross-checked by hand-counted layers 1, 4, 12, 28
GROWTH_54 = 2.296630262886537
# (4,5) spheres are 5*Fibonacci(2t), ratio (3+sqrt(5))/2
GROWTH_45 = (3.0 + math.sqrt(5.0)) / 2.0

# sha256 of a generated ball's graph JSON bytes followed by its symmetry
# lists: any change to the builder's labels, edges or symmetries shows here
BALL_DIGESTS = [
    ((5, 4, 0), "73e1fbdd53d7ad1925d947809d8db506056341eb456d7718ff5a0b9e2354fa02"),
    ((5, 4, 1), "11ac9f744c554eb568c0059a1380bc536eb0ae7151196f38b3532da9ad1b387f"),
    ((5, 4, 8), "10fc041359c63a2cac68b12584ddf521a5f61291cfaa368357b7c1cb390cc413"),
    ((7, 3, 0), "73e1fbdd53d7ad1925d947809d8db506056341eb456d7718ff5a0b9e2354fa02"),
    ((7, 3, 1), "112c0085c6db3169005c734efe2ec445351f3bd1fecbc71cb711284afb062eda"),
    ((7, 3, 9), "62ddec93febf92a3b31fdb0225f4cba434244c016a9afc5ac4ef13d0b6a38f13"),
    ((4, 5, 0), "73e1fbdd53d7ad1925d947809d8db506056341eb456d7718ff5a0b9e2354fa02"),
    ((4, 5, 1), "8af955352c67c0d489de2977c7c24b6d44d5fd5aa8bb274d67eedaeb4b8dfece"),
    ((4, 5, 6), "71d759d366fb55213e9c55370cef46f14ca2eb23201c23cf985e4a6d1b2a3b91"),
    ((3, 7, 0), "73e1fbdd53d7ad1925d947809d8db506056341eb456d7718ff5a0b9e2354fa02"),
    ((3, 7, 1), "2e26666e021efe4b56022a7c6a72f7bc3bd744ce886f2bf08ea01a9565c993a5"),
    ((3, 7, 7), "02f638b146a5ff219748de161ac5dbdf602776f8da63b5b859a004f1ee5fc546"),
    # even p, q > p, q = 3 and the smallest depths a radius bound cuts
    ((6, 4, 5), "92a63f96db0abc15c0583ef591db030ec4cb99b9d84b21f2004430ca0b571b5e"),
    ((4, 6, 5), "889ef2f89685eae63e9500b110266d4b75be4ecc183562686433a0ef74a5dbe5"),
    ((3, 8, 6), "3ba1a719c23da00f8cfc1f0474cedeb39479cac66b56c52c75275b180236c936"),
    ((8, 3, 8), "ebd178282b99f1c68a27381739a93930391abd892285a33c66175ffa47e70c4d"),
    ((5, 5, 4), "fd2b1cfd8737be750fa8a2fadf9fedce32177ab92783a83e2010ff8f4fc47eab"),
    ((5, 4, 2), "e257a6ff1504d7948562f6c40b468da9257e3aef92f59d4bbdb7c03e52b66b89"),
    ((7, 3, 2), "beb045a719bd7064d74d6fff2b5d137370b2502be9cf93f8da0b88cabb87211e"),
]


class TestKaryTree:
    def test_depth2_binary(self):
        g = gen_kary_tree(2, 2, root_degree=2)
        assert g.node_count == 7
        leaves = [v for v, nbrs in enumerate(g.adjacency) if len(nbrs) == 1]
        assert len(leaves) == 4

    def test_regular_variant_boundary_count(self):
        # root_degree k+1 gives the (k+1)-regular tree: (k+1)k^(n-1) leaves
        g = gen_kary_tree(3, 2, root_degree=4)
        assert g.node_count == 17
        assert len(g.layers[2]) == 12

    def test_depth_zero(self):
        assert gen_kary_tree(2, 0).node_count == 1

    @pytest.mark.parametrize("k,depth,root_degree", [(2, 5, None), (3, 3, None), (2, 4, 3)])
    def test_sphere_sizes(self, k, depth, root_degree):
        g = gen_kary_tree(k, depth, root_degree)
        rd = root_degree or k
        for t in range(1, depth + 1):
            assert len(g.layers[t]) == rd * k ** (t - 1)

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "1000")
        with pytest.raises(SizeOverflow):
            gen_kary_tree(2, 30)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_kary_tree(1, 3)
        with pytest.raises(ValueError):
            gen_kary_tree(2, -1)


class TestTessellation:
    def test_depth1_is_root_plus_q_neighbors(self):
        g = gen_tessellation(5, 4, 1)
        assert g.node_count == 5
        assert len(g.adjacency[0]) == 4

    def test_not_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            gen_tessellation(3, 3, 2)
        with pytest.raises(NotHyperbolic):
            gen_tessellation(4, 4, 2)  # Euclidean boundary case

    def test_depth_zero(self):
        assert gen_tessellation(5, 4, 0).node_count == 1

    @pytest.mark.parametrize("p,q", [(5, 4), (4, 5), (7, 3)])
    def test_interior_saturation(self, p, q):
        depth = 4
        g = gen_tessellation(p, q, depth)
        for d, nbrs in zip(g.depth.tolist(), g.adjacency):
            if d <= depth - 2:
                assert len(nbrs) == q
            else:
                assert len(nbrs) <= q

    def test_half_edge_audit_runs(self):
        # the builder's own structural audit: faces are p-cycles, the rim is
        # one cycle, rotations close, Euler characteristic of a disk
        for p, q in [(5, 4), (4, 5), (7, 3), (3, 7)]:
            build_ball(p, q, 3)

    def test_known_layer_counts(self):
        # hand-counted small layers
        g54 = gen_tessellation(5, 4, 3)
        assert [len(l) for l in g54.layers] == [1, 4, 12, 28]
        g45 = gen_tessellation(4, 5, 3)
        assert [len(l) for l in g45.layers] == [1, 5, 15, 40]
        g37 = gen_tessellation(3, 7, 3)
        assert [len(l) for l in g37.layers] == [1, 7, 21, 56]
        # deeper, exact integer recurrences of the sphere sizes for k >= 1
        s = [len(l) for l in gen_tessellation(5, 4, 9).layers]
        assert s[-3:] == [780, 1792, 4116]
        for k in range(1, len(s) - 4):
            assert s[k + 4] == 2 * s[k + 3] + 2 * s[k + 1] - s[k]
        for p, q in [(4, 5), (3, 7)]:
            s = [len(l) for l in gen_tessellation(p, q, 7).layers]
            for k in range(1, len(s) - 2):
                assert s[k + 2] == 3 * s[k + 1] - s[k]

    def test_growth_ratio_convergence(self):
        g = gen_tessellation(5, 4, 8)
        sizes = [len(l) for l in g.layers]
        assert abs(sizes[8] / sizes[7] - GROWTH_54) / GROWTH_54 < 0.005
        g = gen_tessellation(4, 5, 7)
        sizes = [len(l) for l in g.layers]
        assert abs(sizes[7] / sizes[6] - GROWTH_45) / GROWTH_45 < 0.005

    def test_four_point_delta_bounded(self):
        # delta grows with the first layers, then stabilizes on tested sizes
        deltas = [
            float(four_point_delta(gen_tessellation(5, 4, d))) for d in (3, 4, 5)
        ]
        assert deltas == [1.5, 2.0, 2.0]
        assert deltas[-1] <= deltas[-2]

    def test_deterministic(self):
        a = dumps(graph_to_json_dict(gen_tessellation(5, 4, 4)))
        b = dumps(graph_to_json_dict(gen_tessellation(5, 4, 4)))
        assert a == b

    @pytest.mark.parametrize(
        "pqd,digest", BALL_DIGESTS, ids=[f"{p}-{q}-d{d}" for (p, q, d), _ in BALL_DIGESTS]
    )
    def test_output_pinned(self, pqd, digest):
        g = gen_tessellation(*pqd)
        text = dumps(graph_to_json_dict(g)) + dumps([s.tolist() for s in g.symmetries])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "500")
        with pytest.raises(SizeOverflow):
            gen_tessellation(5, 4, 8)

    def test_map_stops_at_the_cap(self, monkeypatch):
        """The map refuses the vertex past the cap, bootstrap included: the
        (20000,3) depth-1 map would hold 59,995 vertices."""
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "100")
        created = []
        real = TessellationMap._new_vertex

        def counted(self):
            created.append(self.vertex_count)
            return real(self)

        tracemalloc.start()
        try:
            with monkeypatch.context() as m:
                m.setattr(TessellationMap, "_new_vertex", counted)
                with pytest.raises(SizeOverflow, match="node cap 100"):
                    gen_tessellation(20000, 3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(created) == 100  # the 101st call raised
        assert peak < 1 << 20

    def test_cap_of_the_whole_map_is_exact(self, monkeypatch):
        # (5,4) d=3: the map holds 81 vertices, the ball 45
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "81")
        assert gen_tessellation(5, 4, 3).node_count == 45
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "80")
        with pytest.raises(SizeOverflow):
            gen_tessellation(5, 4, 3)

    @pytest.mark.parametrize("p,q", [(5, 4), (4, 5), (7, 3), (3, 7)])
    def test_symmetries_generate_the_dihedral_group(self, p, q):
        # build_graph has checked both as root-fixing automorphisms
        g = gen_tessellation(p, q, 4)
        rot, ref = g.symmetries
        ident = np.arange(g.node_count)
        power = rot
        for _ in range(q - 1):
            assert not np.array_equal(power, ident)
            power = rot[power]
        assert np.array_equal(power, ident)
        assert not np.array_equal(ref, ident)
        assert np.array_equal(ref[ref], ident)
        assert np.array_equal(ref[rot[ref]], np.argsort(rot))  # s r s = r^-1

    def test_walk_that_does_not_close_raises(self):
        # saturating only the first face's corners leaves the map without
        # the rotation symmetry at depth 2: root_symmetry checks nothing, and
        # build_graph refuses its vertex map, relabelled as build_ball does
        tmap = TessellationMap(5, 4)
        tmap.bootstrap()
        for v in range(5):
            tmap.saturate(v)

        def ball_with_symmetry(image, depth):
            depths, ball = _bfs(tmap.adj, 0, depth)
            label = np.full(tmap.vertex_count + 1, -1)  # label[-1] is -1
            label[ball] = np.arange(len(ball))
            ends = label[np.array(tmap.org).reshape(-1, 2)]
            vmap = np.array(tmap.root_symmetry(image, False, depths, depth))
            return build_graph(ends[(ends >= 0).all(axis=1)], 0, [label[vmap[ball]]])

        rotation = tmap.nxt[1] ^ 1
        assert ball_with_symmetry(rotation, 1).symmetries[0][0] == 0
        with pytest.raises(NotAutomorphism):
            ball_with_symmetry(rotation, 2)
        with pytest.raises(NotAutomorphism, match="permutation"):
            ball_with_symmetry(0, 1)  # dart 0 points away from the root

    def test_bootstrap_invariants(self):
        tmap = TessellationMap(5, 4)
        tmap.bootstrap()
        tmap.audit()
        assert tmap.vertex_count == 5
        assert tmap.bnd_in == [1, 3, 5, 7, 9]


# a (5,4) map grown by saturating its first twelve vertices, as a script so
# that a python -O child can run it too
GROW_MAP = """
from hypertraffic.tessellation import TessellationMap
tmap = TessellationMap(5, 4)
tmap.bootstrap()
for v in range(12):
    tmap.saturate(v)
"""


def _grown_map():
    scope = {}
    exec(GROW_MAP, scope)
    return scope["tmap"]


def _corrupt(tmap, table_name, seed):
    """Set one seeded entry of a map table to another in-range value."""
    rng = random.Random(seed)
    half_edges = range(len(tmap.org))
    table, values = {
        "nxt": (tmap.nxt, half_edges),
        "org": (tmap.org, range(tmap.vertex_count)),
        "adj": (tmap.adj[rng.randrange(tmap.vertex_count)], range(tmap.vertex_count)),
        "bnd_in": (tmap.bnd_in, range(-1, len(tmap.org))),
    }[table_name]
    i = rng.randrange(len(table))
    table[i] = rng.choice([x for x in values if x != table[i]])


def _rim_vertices(tmap):
    return [v for v, h in enumerate(tmap.bnd_in) if h >= 0]


def _merge(tmap, gone, kept):
    """Let every half-edge out of vertex `gone` start at `kept` instead,
    leaving the neighbour lists alone; the map stays consistent along its
    faces."""
    tmap.org[:] = [kept if v == gone else v for v in tmap.org]


def _append(tmap, other):
    """Append the tables of map `other` to tmap's, as a second component."""
    vertices, half = tmap.vertex_count, len(tmap.org)
    tmap.org += [v + vertices for v in other.org]
    tmap.nxt += [h + half for h in other.nxt]
    tmap.adj += [[w + vertices for w in a] for a in other.adj]
    tmap.bnd_in += [h + half if h >= 0 else -1 for h in other.bnd_in]


def _disk_beside_a_sphere():
    """A (5,3) disk, one pentagon saturated about vertex 0, beside a closed
    dodecahedron: every local invariant holds, but V - E + F is 1 + 2."""
    sphere = TessellationMap(5, 3)
    sphere.bootstrap()
    for v in range(20):
        sphere.saturate(v)
    tmap = TessellationMap(5, 3)
    tmap.bootstrap()
    tmap.saturate(0)
    _append(tmap, sphere)
    return tmap


def _targeted(invariant):
    """A grown map with one invariant broken, and the message the audit must
    give."""
    tmap = _grown_map()
    half, vertices = len(tmap.org), tmap.vertex_count
    rim = _rim_vertices(tmap)
    marked = set(tmap.bnd_in) - {-1}
    inner_into = {tmap.org[h ^ 1]: h for h in range(half) if h not in marked}
    if invariant == "odd count":
        tmap.org.append(0)
        return tmap, f"odd half-edge count {half + 1}"
    if invariant == "table size":
        tmap.nxt.pop()
        return tmap, f"nxt has {half - 1} entries, not {half}"
    if invariant == "range":
        tmap.nxt[3] = half
        return tmap, f"nxt[3] = {half} is not an int in [0, {half})"
    if invariant == "permutation":
        lost, tmap.nxt[3] = tmap.nxt[3], tmap.nxt[5]
        return tmap, f"nxt is not a permutation: no half-edge has nxt {lost}"
    if invariant == "origins":
        h = 7
        tmap.org[h] = next(v for v in range(vertices) if v != tmap.org[h])
        first = min(tmap.nxt.index(h), h ^ 1)
        return tmap, f"half-edge {tmap.nxt[first]} does not start where {first} ends"
    if invariant == "rim half-edge":
        tmap.bnd_in[rim[0]] ^= 1
        return tmap, f"bnd_in of vertex {rim[0]} is not a half-edge into it"
    if invariant == "rim closed":
        tmap.bnd_in[rim[0]] = inner_into[rim[0]]
        marked = set(tmap.bnd_in) - {-1}
        first = min(h for h in marked if tmap.nxt[h] not in marked)
        return tmap, f"rim half-edge {first} is followed by unmarked half-edge {tmap.nxt[first]}"
    if invariant == "one rim":  # a second, separate pentagon
        other = TessellationMap(5, 4)
        other.bootstrap()
        _append(tmap, other)
        return tmap, "the rim is 2 cycles, not one"
    if invariant == "sides":
        tmap.p = 6
        return tmap, "the face of half-edge 0 has 5 sides"
    if invariant == "degree":
        tmap.adj[0].append(rim[0])
        return tmap, "vertex 0 has degree 5"
    if invariant == "interior mark":  # vertices 0..11 are interior
        tmap.adj[0].pop()
        return tmap, "vertex 0 is marked interior but has degree 3"
    if invariant == "one rotation":
        far = next(v for v in range(12) if v not in tmap.adj[0] and v != 0)
        _merge(tmap, far, 0)
        return tmap, "the half-edges into vertex 0 form 2 rotations"
    if invariant == "into every vertex":
        far = next(v for v in range(12) if v not in tmap.adj[0] and v != 0)
        _merge(tmap, 0, far)
        return tmap, "the half-edges into vertex 0 form 0 rotations"
    if invariant == "neighbour ids":
        tmap.adj[5][0] = vertices
        return tmap, f"adj[5][0] = {vertices} is not an int in [0, {vertices})"
    if invariant == "neighbour lists":
        tmap.adj[0][0] = next(v for v in range(vertices) if v not in tmap.adj[0])
        return tmap, "the rotation about vertex 0 disagrees with its neighbour list"
    if invariant == "disk":
        return _disk_beside_a_sphere(), "the map is not a disk: V - E + F != 1"
    raise ValueError(invariant)


INVARIANTS = [
    "odd count", "table size", "range", "permutation", "origins", "rim half-edge",
    "rim closed", "one rim", "sides", "degree", "interior mark", "one rotation",
    "into every vertex", "neighbour ids", "neighbour lists", "disk",
]


class TestMapAudit:
    def test_grown_map_passes(self):
        tmap = _grown_map()
        tmap.audit()
        assert tmap.vertex_count > 50

    @pytest.mark.parametrize("invariant", INVARIANTS)
    def test_each_invariant_has_its_message(self, invariant):
        tmap, message = _targeted(invariant)
        with pytest.raises(CorruptMap) as info:
            tmap.audit()
        assert str(info.value) == message

    @pytest.mark.parametrize("seed", range(32))
    @pytest.mark.parametrize("table", ["nxt", "org", "adj", "bnd_in"])
    def test_one_corrupted_entry_raises(self, table, seed):
        tmap = _grown_map()
        _corrupt(tmap, table, seed)
        with pytest.raises(CorruptMap):
            tmap.audit()

    @pytest.mark.parametrize("table,value", [
        ("nxt", 1 << 40), ("org", None), ("bnd_in", "x"), ("org", "2"), ("nxt", 2.0),
        ("adj", None), ("adj", 1.0), ("adj-row", None), ("adj-row", 5),
    ])
    def test_entry_that_does_not_convert_is_named(self, table, value):
        # numpy would read 1 << 40 as int64, "2" and 2.0 as 2, and raise its
        # own error on None and "x"; len() raises on a row that is not a
        # list; the audit names each entry instead
        tmap = _grown_map()
        if table == "adj-row":
            tmap.adj[3] = value
            message = f"adj[3] = {value!r} is not a list of neighbours"
        else:
            row, where = (tmap.adj[1], "adj[1]") if table == "adj" else (getattr(tmap, table), table)
            row[0] = value
            message = f"{where}[0] = {value!r} is not an int in ["
        with pytest.raises(CorruptMap) as info:
            tmap.audit()
        assert str(info.value).startswith(message)

    def test_audit_raises_under_python_O(self):
        # python -O strips assert statements, so the audit must not use them
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = GROW_MAP + textwrap.dedent("""
            tmap.nxt[0] = tmap.nxt[1]  # two half-edges have one successor
            tmap.audit()
        """)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "CorruptMap" in proc.stderr

    def test_corrupt_map_exits_3(self, tmp_path, monkeypatch, capsys):
        bootstrap = TessellationMap.bootstrap

        def corrupted(tmap):
            bootstrap(tmap)
            tmap.nxt[0] = 0  # inside the first face, which saturation never reads

        monkeypatch.setattr(tessellation.TessellationMap, "bootstrap", corrupted)
        assert main(["generate", "--family", "tess", "--p", "5", "--q", "4",
                     "--depth", "2", "--out", str(tmp_path / "g.json")]) == 3
        assert "nxt is not a permutation: no half-edge has nxt 2" in capsys.readouterr().err


class TestGrid:
    def test_single(self):
        assert gen_grid(1).node_count == 1

    def test_three(self):
        g = gen_grid(3)
        assert g.node_count == 9
        assert len(g.adjacency[g.root]) == 4

    def test_sphere_sizes_side5(self):
        g = gen_grid(5)
        assert [len(l) for l in g.layers] == [1, 4, 8, 8, 4]

    def test_even_side(self):
        with pytest.raises(EvenSide):
            gen_grid(4)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            gen_grid(0)

    def test_node_cap(self, monkeypatch):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "25")
        assert gen_grid(5).node_count == 25
        monkeypatch.setattr(generators, "build_graph", None)  # never reached
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "24")
        with pytest.raises(SizeOverflow):
            gen_grid(5)
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "10")
        with pytest.raises(SizeOverflow):
            family_graph(FamilySpec(variant="grid", side=5))

    @pytest.mark.parametrize("side", [3, 5, 9])
    def test_symmetries_generate_d4(self, side):
        # build_graph has checked both as root-fixing automorphisms
        rot, ref = gen_grid(side).symmetries
        ident = np.arange(side * side)
        assert not np.array_equal(rot[rot], ident)
        assert np.array_equal(rot[rot[rot[rot]]], ident)
        assert not np.array_equal(ref, ident)
        assert np.array_equal(ref[ref], ident)
        assert np.array_equal(ref[rot[ref]], np.argsort(rot))  # s r s = r^-1
        assert gen_grid(1).symmetries == ()


class TestEdgeList:
    def test_path(self):
        g = load_edge_list("0 1\n1 2")
        assert g.depth.tolist() == [0, 1, 2]
        assert g.root == 0

    def test_root_directive(self):
        g = load_edge_list("# root 2\n0 1\n1 2")
        assert g.root == 2
        assert g.depth.tolist() == [2, 1, 0]

    def test_self_loop(self):
        with pytest.raises(MalformedEdge):
            load_edge_list("0 0")

    def test_odd_tokens(self):
        with pytest.raises(ParseError) as err:
            load_edge_list("0 1\n1 2 3")
        assert err.value.line == 2

    def test_non_integer(self):
        with pytest.raises(ParseError):
            load_edge_list("0 x")

    def test_trailing_comment(self):
        g = load_edge_list("0 1  # an edge\n1 2")
        assert g.node_count == 3


class TestFamilySpec:
    def test_descriptor(self):
        spec = FamilySpec(variant="tessellation", depth=6, p=5, q=4)
        assert spec.descriptor() == {"variant": "tessellation", "p": 5, "q": 4, "depth": 6}

    def test_family_graph_depth_override(self):
        spec = FamilySpec(variant="tree", depth=2, k=2)
        assert family_graph(spec, depth=3).node_count == 15

    def test_grid_ignores_depth_override(self):
        spec = FamilySpec(variant="grid", side=5)
        assert family_graph(spec, depth=3).node_count == 25

    def test_edge_list_source(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        spec = FamilySpec(variant="edge_list", source=str(path))
        assert family_graph(spec).node_count == 3

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            family_graph(FamilySpec(variant="mystery"))


class TestNodeCap:
    # each builds a 1-node graph, which a cap below 1 must refuse too
    ONE_NODE = {
        "tree": lambda: gen_kary_tree(2, 0),
        "tess": lambda: gen_tessellation(5, 4, 0),
        "grid": lambda: gen_grid(1),
        "edges": lambda: load_edge_list("# root 0\n"),
        "json": lambda: graph_from_json_dict(graph_to_json_dict(gen_grid(1))),
    }

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("build", sorted(ONE_NODE))
    def test_cap_below_one_is_refused(self, monkeypatch, cap, build):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", cap)
        message = f"HYPERTRAFFIC_NODE_CAP must be at least 1, got {cap}"
        with pytest.raises(HypertrafficError) as info:
            node_cap()
        assert str(info.value) == message
        with pytest.raises(HypertrafficError) as info:
            self.ONE_NODE[build]()
        assert str(info.value) == message

    def test_cap_of_one_admits_one_node(self, monkeypatch):
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "1")
        assert [self.ONE_NODE[b]().node_count for b in sorted(self.ONE_NODE)] == [1] * 5

    def test_default_cap_fits_in_2_gib(self):
        # the peak bytes per node of a build, measured on small graphs: the
        # default cap times the dearer of the two must stay under 2 GiB
        worst = max(_peak_per_node(lambda: gen_grid(101)),
                    _peak_per_node(lambda: gen_tessellation(5, 4, 8)))
        assert DEFAULT_NODE_CAP * worst <= 2 << 30

    def test_tessellation_map_stores_each_fact_once(self):
        # with org, nxt, adj and bnd_in only, the (5,4) d=8 build peaks near
        # 780 B per ball node; predecessor and face-id tables took it to 920
        assert _peak_per_node(lambda: gen_tessellation(5, 4, 8)) < 850

    @pytest.mark.parametrize("build", [lambda: gen_grid(101), lambda: gen_tessellation(5, 4, 8)],
                             ids=["grid-101", "tessellation-5-4-8"])
    def test_graph_keeps_only_its_arrays(self, build):
        # a Graph of int64 arrays (CSR, pages, depth, layers, symmetries)
        # keeps 120-130 B per node; tuples of neighbours, depths and layers
        # beside them kept 250-360
        assert _retained_per_node(build) < 160


def _peak_per_node(build):
    """Peak traced bytes while `build()` runs, per node of the graph it returns."""
    tracemalloc.start()
    try:
        g = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / g.node_count


def _retained_per_node(build):
    """Traced bytes still held once `build()` returns, per node of the
    graph it returns, which is alive: what the graph keeps."""
    tracemalloc.start()
    try:
        g = build()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / g.node_count
