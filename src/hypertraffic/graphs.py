"""Immutable rooted graphs with BFS layering, root-fixing symmetries, the
four-point delta and the graph JSON format.

Distances are exact integers and the four-point delta an exact half-integer
held as fractions.Fraction, so the metric layer involves no floating point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain

import numpy as np

from .errors import (
    DisconnectedGraph,
    GraphTooLarge,
    HypertrafficError,
    MalformedEdge,
    NotAutomorphism,
    SizeOverflow,
)

DEFAULT_NODE_CAP = 1 << 24
FOUR_POINT_CAP = 300
_SEARCH_BUDGET = 1 << 25  # node+edge visits a symmetry search may spend
_MATCH_PASSES = 16  # a match and its check, in Python, priced as refinement rounds


@dataclass(frozen=True)
class Graph:
    """Simple connected graph rooted at `root`, layered by BFS depth.

    adjacency[v] is sorted ascending; csr = (degree, indptr, indices) holds
    it as read-only int64 arrays. layers[t] lists the nodes at depth t,
    ascending. symmetries holds read-only int64 permutations of the node
    ids, each checked by _check_symmetry to be an automorphism fixing the
    root: generators supply those they know, the loaders those
    find_symmetries verifies, and graphs built directly carry none.
    Instances are immutable.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]
    root: int
    depth: tuple[int, ...]
    layers: tuple[tuple[int, ...], ...]
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] = field(compare=False, repr=False)
    symmetries: tuple[np.ndarray, ...] = field(default=(), compare=False)

    @property
    def max_depth(self) -> int:
        return len(self.layers) - 1

    def edge_list(self) -> list[tuple[int, int]]:
        """Sorted list of (u, v) with u < v."""
        return [(u, v) for u in range(self.node_count) for v in self.adjacency[u] if u < v]


def _bfs(adjacency, source):
    """(dist, order): hop distances from `source` to each node, -1 where
    unreached, and the reached nodes in visiting order, so dist never
    decreases along order. Neighbours are visited in adjacency order."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    order = [source]
    for u in order:  # the loop also visits the nodes appended while it runs
        du = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du
                order.append(w)
    return dist, order


def node_cap() -> int:
    """Most nodes a generator or loader may allocate: HYPERTRAFFIC_NODE_CAP,
    or DEFAULT_NODE_CAP when it is unset or empty. This is the only reader
    of the variable; an unparsable value raises HypertrafficError."""
    env = os.environ.get("HYPERTRAFFIC_NODE_CAP")
    if not env:
        return DEFAULT_NODE_CAP
    try:
        return int(env)
    except ValueError:
        raise HypertrafficError(
            f"HYPERTRAFFIC_NODE_CAP must be an integer, got {env!r}"
        ) from None


def check_node_ids(edges, root) -> int:
    """The node count the ids imply, largest id + 1. Raises SizeOverflow when
    it passes node_cap(), and DisconnectedGraph when an id below the largest
    is neither an edge endpoint nor the root, as nothing joins it to the root.

    Loaders call this before build_graph, which allocates one neighbor set
    per id up to the largest; a negative id is left to build_graph to name.
    """
    cap = node_cap()
    ids = set(chain.from_iterable(edges))
    ids.add(root)
    top = max(ids)
    if top >= cap:
        raise SizeOverflow(f"node id {top} exceeds node cap {cap}")
    present = sorted(v for v in ids if v >= 0)
    if len(present) <= top:
        gap = next(i for i, v in enumerate(present) if i != v)
        raise DisconnectedGraph(
            f"{top + 1 - len(present)} node(s) below id {top} are in no edge, "
            f"so unreachable from root {root}, e.g. node {gap}"
        )
    return top + 1


def _csr(adjacency) -> tuple:
    """(degree, indptr, indices) of `adjacency` as read-only int64 arrays."""
    offsets = accumulate(map(len, adjacency), initial=0)
    indptr = np.fromiter(offsets, dtype=np.int64, count=len(adjacency) + 1)
    indices = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64, count=indptr[-1])
    arrays = (indptr[1:] - indptr[:-1], indptr, indices)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _check_symmetry(perm, g: Graph) -> np.ndarray:
    """perm as a read-only int64 array, if it is an automorphism of g fixing
    g.root.

    A bijection of the nodes maps the edge set onto itself exactly when the
    sorted keys perm[u] * n + perm[v] over the CSR's directed edges (u, v)
    equal the keys u * n + v, which the CSR lists ascending.
    """
    n, root = g.node_count, g.root
    arr = np.asarray(perm)
    if arr.shape != (n,) or arr.dtype.kind not in "iu":
        raise NotAutomorphism(f"symmetry is not a sequence of {n} integers")
    arr = arr.astype(np.int64)  # a private copy, so the caller cannot mutate it
    if arr.min() < 0 or arr.max() >= n or np.bincount(arr, minlength=n).max() > 1:
        raise NotAutomorphism("symmetry is not a permutation of the node ids")
    if arr[root] != root:
        raise NotAutomorphism(f"symmetry moves the root {root} to {arr[root]}")
    degree, _, indices = g.csr
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    if not (np.sort(arr[src] * n + arr[indices]) == src * n + indices).all():
        raise NotAutomorphism("symmetry does not map edges onto edges")
    arr.flags.writeable = False
    return arr


def build_graph(edges, root, symmetries=()) -> Graph:
    """Assemble a Graph from an iterable of index pairs.

    Duplicate edges collapse; self-loops and negative indices raise
    MalformedEdge, unreachable nodes raise DisconnectedGraph. Each of
    `symmetries` must be a permutation of the node ids that fixes the root
    and maps edges onto edges, else NotAutomorphism is raised.
    """
    edges = list(edges)
    if not isinstance(root, int) or root < 0:
        raise MalformedEdge(f"root {root!r} is not a non-negative integer")
    top = root
    for e in edges:
        u, v = e
        if not isinstance(u, int) or not isinstance(v, int) or u < 0 or v < 0:
            raise MalformedEdge(f"edge {e!r} has a non-integer or negative endpoint")
        if u == v:
            raise MalformedEdge(f"self-loop at node {u}")
        if u > top:
            top = u
        if v > top:
            top = v
    n = top + 1
    neighbor_sets = [set() for _ in range(n)]
    for u, v in edges:
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)

    dist, _ = _bfs(adjacency, root)
    if -1 in dist:
        missing = [v for v in range(n) if dist[v] < 0]
        raise DisconnectedGraph(
            f"{len(missing)} node(s) unreachable from root {root}, e.g. node {missing[0]}"
        )
    layers = [[] for _ in range(max(dist) + 1)]
    for v in range(n):
        layers[dist[v]].append(v)
    g = Graph(
        node_count=n,
        adjacency=adjacency,
        root=root,
        depth=tuple(dist),
        layers=tuple(tuple(layer) for layer in layers),
        csr=_csr(adjacency),
    )
    return replace(g, symmetries=tuple(_check_symmetry(s, g) for s in symmetries))


def _orbit_labels(n: int, symmetries) -> np.ndarray:
    """Smallest node id in each node's orbit under the group `symmetries`
    generate: the components of the graph joining each node to its images,
    found by hooking each component's root onto the smaller root across an
    edge, then pointer jumping until every label is a root. Any maps of the
    nodes into themselves work, as edges, not only permutations."""
    label = np.arange(n)
    if not symmetries:
        return label
    src = np.tile(label, len(symmetries))
    dst = np.concatenate(symmetries)
    while True:
        a, b = label[src], label[dst]
        if np.array_equal(a, b):
            return label
        np.minimum.at(label, a, b)
        np.minimum.at(label, b, a)
        while not np.array_equal(jumped := label[label], label):
            label = jumped


class _SearchStopped(Exception):
    """The symmetry search ran out of budget or met a hash collision."""


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a fixed, well-spread 64-bit hash."""
    x = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class _Refiner:
    """Colour refinement of one graph, counting its work in node+edge visits.

    Colourings are int64 arrays of dense ranks 0..k-1. Each round recolours
    a node by the rank of its signature, its colour and the multiset of its
    neighbours' colours, keyed by a 64-bit sum of hashes. Ranks depend only
    on the set of signatures present, so two copies refined in lockstep
    keep comparable colour names. Every round checks that the nodes it
    gives one colour had one colour and have equal sorted neighbour
    colours, and stops the search on a hash collision, so the partitions
    are exact.
    """

    def __init__(self, g: Graph):
        n = g.node_count
        self.n = n
        self.degree, self.indptr, self.dst = g.csr
        self.src = np.repeat(np.arange(n, dtype=np.int64), self.degree)
        self.offset = np.arange(self.src.size) - self.indptr[self.src]
        # colours never exceed n: hashes of neighbour colours, then of own colours
        self.hash = _mix64(np.arange(2 * n + 2))
        self.cost = n + self.src.size // 2
        self.work = 0

    def spend(self, passes=1):
        """Count passes over the graph, or stop the search if they would
        take the work past _SEARCH_BUDGET."""
        if self.work + passes * self.cost > _SEARCH_BUDGET:
            raise _SearchStopped
        self.work += passes * self.cost

    def _round(self, colour):
        nbr = colour[self.dst]
        key = np.add.reduceat(self.hash[nbr], self.indptr[:-1]) + self.hash[self.n + 1 + colour]
        _, first, new = np.unique(key, return_index=True, return_inverse=True)
        rep = first[new]
        # a class must share its old colour and its sorted neighbour colours
        base = self.src * (self.n + 1)
        seq = np.sort(base + nbr) - base
        if not (
            np.array_equal(colour[rep], colour)
            and np.array_equal(self.degree[rep], self.degree)
            and np.array_equal(seq[self.indptr[rep][self.src] + self.offset], seq)
        ):
            raise _SearchStopped
        return new

    def refine(self, colour):
        """The coarsest equitable refinement of `colour`."""
        k = int(colour.max()) + 1
        while True:
            self.spend()
            new = self._round(colour)
            new_k = int(new.max()) + 1
            if new_k == k:
                return new
            colour, k = new, new_k

    def individualize(self, colour, node):
        """Give `node` a colour of its own, then refine."""
        colour = colour.copy()
        colour[node] = colour.max() + 1
        return self.refine(colour)


def _match(g: Graph, a, b, start: int):
    """A bijection that sends each node of colour c under colouring `a` to a
    node of colour c under `b`, built by BFS from the root: the unmatched
    neighbours of a matched pair are paired in colour order, ties broken by
    id in `a` and by id counted cyclically from `start` in `b`. None if some
    pair's unmatched neighbours differ in colours.

    Where every colour is one node this is the only such bijection; on a
    tree refined to equitable colourings it is an automorphism whenever one
    exists, without a discrete partition. The cyclic tie-break makes one
    match on a star turn all the leaves at once rather than swap two.
    """
    adj = g.adjacency
    n = g.node_count
    a = a.tolist()
    b = b.tolist()
    perm = [-1] * n
    used = [False] * n
    perm[g.root] = g.root
    used[g.root] = True
    queue = [g.root]
    for u in queue:  # the loop also visits the nodes appended while it runs
        ours = sorted((a[x], x) for x in adj[u] if perm[x] < 0)
        theirs = sorted((b[y], (y - start) % n, y) for y in adj[perm[u]] if not used[y])
        if [c for c, _ in ours] != [c for c, _, _ in theirs]:
            return None
        for (_, x), (_, _, y) in zip(ours, theirs):
            perm[x] = y
            used[y] = True
            queue.append(x)
    return perm


def find_symmetries(g: Graph) -> tuple:
    """(symmetries, work): root-fixing automorphisms of g found by
    individualization-refinement, and the node+edge visits spent.

    Nodes are coloured by root depth and refined to an equitable partition.
    An automorphism fixing the root keeps each of its cells, so the orbits
    are never coarser than the cells. For each cell that is not yet one
    orbit, its smallest id v0 is individualized in one copy and each
    candidate w outside v0's orbit in another, and both are refined. Where
    _match then gives no automorphism, both copies individualize the
    smallest id of their first cell with more than one node and try again,
    down to a discrete partition. Each candidate goes through
    _check_symmetry and is dropped if it fails, so the result never rests on
    the search. The search stops when the orbits equal the cells, or when
    the next pass over the graph would take the work past _SEARCH_BUDGET;
    it returns the verified generators found so far, possibly none.
    """
    n = g.node_count
    if n < 3:  # a root-fixing permutation of at most two nodes fixes both
        return (), 0
    refiner = _Refiner(g)
    found = []

    def automorphism(a, b, start):
        """A checked automorphism sending colour classes of a onto those of
        b, or None once the copies' cell sizes differ or a discrete pairing
        fails the check."""
        while np.array_equal(sizes := np.bincount(a), np.bincount(b)):
            refiner.spend(_MATCH_PASSES)
            if sizes.size == n:
                perm = np.empty(n, dtype=np.int64)
                perm[b] = np.arange(n)
                perm = perm[a]
            else:
                perm = _match(g, a, b, start)
            if perm is not None:
                try:
                    return _check_symmetry(perm, g)
                except NotAutomorphism:
                    pass
            if sizes.size == n:
                return None
            cell = np.argmax(sizes > 1)
            a = refiner.individualize(a, np.flatnonzero(a == cell)[0])
            b = refiner.individualize(b, np.flatnonzero(b == cell)[0])
        return None

    try:
        colour = refiner.refine(np.array(g.depth, dtype=np.int64))
        cells = int(colour.max()) + 1
        labels = np.arange(n)
        sizes = np.bincount(colour)
        by_cell = np.lexsort((np.arange(n), colour, -sizes[colour]))
        ends = np.cumsum(np.sort(sizes)[::-1]).tolist()
        for lo, hi in zip([0] + ends[:-1], ends):
            members = by_cell[lo:hi].tolist()
            if all(labels[w] == labels[members[0]] for w in members):
                continue
            fixed = refiner.individualize(colour, members[0])
            for w in members[1:]:
                if labels[w] == labels[members[0]]:
                    continue
                perm = automorphism(fixed, refiner.individualize(colour, w), w)
                if perm is None:
                    continue
                found.append(perm)
                # joining each node to its label keeps the orbits found so far
                labels = _orbit_labels(n, (labels, perm))
                if np.count_nonzero(labels == np.arange(n)) == cells:
                    return tuple(found), refiner.work
    except _SearchStopped:
        pass
    return tuple(found), refiner.work


def with_found_symmetries(g: Graph) -> Graph:
    """g carrying the root-fixing automorphisms that find_symmetries verifies."""
    return replace(g, symmetries=find_symmetries(g)[0])


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs distances as an int32 matrix (one BFS per node)."""
    n = g.node_count
    out = np.empty((n, n), dtype=np.int32)
    for s in range(n):
        out[s] = _bfs(g.adjacency, s)[0]
    return out


def four_point_delta(g: Graph, cap: int = FOUR_POINT_CAP) -> Fraction:
    """Max over quadruples of (largest pair-sum - second largest) / 2.

    O(n^2) distance table plus an O(n^4) scan, so refuses graphs above `cap`.
    The quantity is symmetric in its four points and invariant under
    automorphisms, so x ranges over the smallest id of each orbit of
    g.symmetries and y over every other node.
    """
    from fractions import Fraction  # on first use: it loads decimal, which nothing else needs

    if cap < 0:
        raise ValueError(f"four-point cap must be >= 0, got {cap}")
    n = g.node_count
    if n > cap:
        raise GraphTooLarge(f"{n} nodes exceeds four-point cap {cap}")
    if n < 4:
        return Fraction(0)
    d = distance_matrix(g)
    reps = np.flatnonzero(_orbit_labels(n, g.symmetries) == np.arange(n)).tolist()
    best = 0
    for x in reps:
        dx = d[x]
        for y in range(n):
            if y == x:
                continue
            dy = d[y]
            s1 = dx[y] + d          # d(x,y) + d(z,w)
            s2 = dx[:, None] + dy[None, :]  # d(x,z) + d(y,w)
            s3 = dy[:, None] + dx[None, :]  # d(y,z) + d(x,w)
            m1 = np.maximum(np.maximum(s1, s2), s3)
            m3 = np.minimum(np.minimum(s1, s2), s3)
            gap = 2 * m1 - (s1 + s2 + s3 - m3)  # m1 - median
            top = int(gap.max())
            if top > best:
                best = top
    return Fraction(best, 2)


GRAPH_FORMAT = "hypertraffic-graph-v1"


def graph_to_json_dict(g: Graph, family=None) -> dict:
    doc = {
        "format": GRAPH_FORMAT,
        "root": g.root,
        "node_count": g.node_count,
        "edges": [[u, v] for u, v in g.edge_list()],
    }
    if family is not None:
        doc["family"] = family
    return doc


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise MalformedEdge(f"{what} must be an integer, got {value!r}")
    return value


def graph_from_json_dict(doc) -> Graph:
    """Rebuild a Graph from its JSON form; depths and layers are recomputed,
    and the graph carries the root-fixing automorphisms find_symmetries
    verifies.

    The document must be an object with integer root, node_count and edge
    endpoints, and node_count must be the largest id + 1; anything else
    raises MalformedEdge. check_node_ids refuses ids past node_cap() or with
    gaps before any per-node allocation.
    """
    if not isinstance(doc, dict):
        raise MalformedEdge(f"graph JSON must be an object, got {type(doc).__name__}")
    missing = [k for k in ("format", "root", "node_count", "edges") if k not in doc]
    if missing:
        raise MalformedEdge(f"graph JSON lacks {', '.join(missing)}")
    if doc["format"] != GRAPH_FORMAT:
        raise MalformedEdge(f"unsupported graph format {doc['format']!r}")
    root = _json_int(doc["root"], "root")
    node_count = _json_int(doc["node_count"], "node_count")
    if not isinstance(doc["edges"], list):
        raise MalformedEdge("edges must be a list")
    edges = []
    for e in doc["edges"]:
        if not isinstance(e, list) or len(e) != 2:
            raise MalformedEdge(f"edge {e!r} is not a pair")
        edges.append((_json_int(e[0], "edge endpoint"), _json_int(e[1], "edge endpoint")))
    implied = check_node_ids(edges, root)
    if node_count != implied:
        raise MalformedEdge(f"file claims {node_count} nodes but edges imply {implied}")
    return with_found_symmetries(build_graph(edges, root))
