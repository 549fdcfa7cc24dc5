"""Immutable rooted graphs with BFS layering, the one BFS over a graph
(_walk), root-fixing symmetries, the four-point delta and the graph JSON
format.

Distances are exact integers and the four-point delta an exact half-integer
held in a float (exact below 2^52), so the metric layer rounds nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .errors import (
    DisconnectedGraph,
    GraphTooLarge,
    HypertrafficError,
    MalformedEdge,
    NotAutomorphism,
    SizeOverflow,
)

DEFAULT_NODE_CAP = 1 << 21  # about 2 GB at the ~900 B a node costs to build
FOUR_POINT_CAP = 300
_SEARCH_BUDGET = 1 << 25  # node+edge visits a symmetry search may spend
_MATCH_PASSES = 16  # a match and its check, in Python, priced as refinement rounds


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple connected graph rooted at `root`, held in read-only int64 arrays.

    csr = (degree, indptr, indices) lists each node's neighbours ascending,
    pages = (page, more) as the neighbour pages _walk reads (see _pages);
    adjacency slices the CSR into lists on each read. depth[v] is v's BFS
    depth and layers[t] the nodes at depth t, ascending. symmetries holds
    permutations of the node ids, each checked by _check_symmetry to be an
    automorphism fixing the root: generators supply those they know, the
    loaders those find_symmetries verifies, and graphs built directly carry
    none. Instances are immutable and compare by identity.
    """

    node_count: int
    root: int
    depth: np.ndarray
    layers: tuple[np.ndarray, ...]
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    pages: tuple[np.ndarray, np.ndarray] = field(repr=False)
    symmetries: tuple[np.ndarray, ...] = ()

    @property
    def adjacency(self) -> list[list[int]]:
        """Neighbour lists, ascending, sliced off the CSR on every read."""
        flat, ends = self.csr[2].tolist(), self.csr[1].tolist()
        return [flat[a:b] for a, b in zip(ends, ends[1:])]

    @property
    def max_depth(self) -> int:
        return len(self.layers) - 1

    def edge_list(self) -> list[tuple[int, int]]:
        """Sorted list of (u, v) with u < v, read off the CSR, whose
        directed edges are already in (u, v) order."""
        degree, _, indices = self.csr
        src = np.repeat(np.arange(self.node_count, dtype=np.int64), degree)
        forward = src < indices
        return list(zip(src[forward].tolist(), indices[forward].tolist()))


def node_cap() -> int:
    """Most nodes a generator or loader may allocate: HYPERTRAFFIC_NODE_CAP,
    or DEFAULT_NODE_CAP when it is unset or empty. This is the only reader
    of the variable; a value that is not an integer, or is below 1, raises
    HypertrafficError."""
    env = os.environ.get("HYPERTRAFFIC_NODE_CAP")
    if not env:
        return DEFAULT_NODE_CAP
    try:
        cap = int(env)
    except ValueError:
        raise HypertrafficError(
            f"HYPERTRAFFIC_NODE_CAP must be an integer, got {env!r}"
        ) from None
    if cap < 1:
        raise HypertrafficError(f"HYPERTRAFFIC_NODE_CAP must be at least 1, got {cap}")
    return cap


def _frozen(*arrays) -> tuple:
    """arrays, each made read-only."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _csr(keys: np.ndarray, n: int) -> tuple:
    """(degree, indptr, indices) as read-only int64 arrays, from the
    ascending keys u * n + v of the directed edges (u, v)."""
    src, indices = np.divmod(keys, n)
    degree = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    return _frozen(degree, indptr, indices)


def _pages(csr) -> tuple:
    """(page, more): the CSR (degree, indptr, indices) as neighbour pages,
    read-only int64 arrays, the ELL/HYB layout of Bell & Garland (SC 2009).

    page has one row of width W per page. Row v is node v's first page and
    holds its first W neighbours in adjacency order; a node with more than
    W neighbours continues on its overflow pages, rows more[v] to
    more[v + 1] - 1, all at or after row n. A node's own id pads the empty
    slots of its pages. W is the largest degree, capped at 4 times the mean
    (degree + 1), so a graph without hubs has no overflow pages, and for m
    directed edges first pages hold under 4 (m + n) + n entries and
    overflow pages at most m.
    """
    degree, indptr, indices = csr
    n = degree.size
    width = max(1, min(int(degree.max(initial=0)), -(-4 * (indices.size + n) // n)))
    more = np.full(n + 1, n, dtype=np.int64)
    np.cumsum(np.maximum(degree - 1, 0) // width, out=more[1:])
    more[1:] += n
    node = np.arange(n, dtype=np.int64)
    owner = np.concatenate([node, np.repeat(node, np.diff(more))])
    page = np.repeat(owner, width).reshape(owner.size, width)
    # neighbour k of v lands at flat position v W + k while k < W, and at
    # (more[v] - 1) W + k on v's overflow pages
    pos = np.arange(indices.size, dtype=np.int64) + np.repeat(node * width - indptr[:-1], degree)
    if owner.size > n:
        over = pos >= np.repeat((node + 1) * width, degree)
        pos[over] += np.repeat((more[:-1] - 1 - node) * width, degree)[over]
    page.flat[pos] = indices
    return _frozen(page, more)


def _walk(pages, sources: np.ndarray, reach: int):
    """Level-synchronous BFS over the neighbour pages (page, more) of
    _pages from every source in a batch at once, out to distance `reach`;
    the one traversal of a Graph.

    Row r of the batch walks from sources[r]; its state for node v sits at
    slot r * n + v of flat arrays, so one numpy call serves the whole batch
    while the frontier stays sparse. A level gathers each frontier node's
    first page, shifted to its row's slots, and keeps the slots not yet
    reached; a padded slot is the node's own, reached already. Only a graph
    with overflow pages reads them, for the frontier nodes that have any,
    and then stable-sorts the level's edges by source.

    Returns (dist, levels): dist per slot (-1 if not reached) and, per
    level t >= 1, (below, src, tgt). below are the level t-1 slots that
    were expanded, ascending (so sorted by row, then node), and tgt[i] is
    reached from below[src[i]] by a BFS-DAG edge; the level t slots are the
    next level's below. Edges are listed by source slot, then in adjacency
    order.
    """
    page, more = pages
    n = more.size - 1
    width = page.shape[1]
    overflow = page.shape[0] > n
    dist = np.full(sources.size * n, -1, dtype=np.int64)
    frontier = np.arange(sources.size, dtype=np.int64) * n + sources
    dist[frontier] = 0
    levels = []
    level = 0
    while frontier.size and level < reach:
        node = frontier % n
        base = frontier - node
        nbr = page[node]
        nbr += base[:, None]
        index = np.flatnonzero(dist[nbr] < 0)
        tgt = nbr.ravel()[index]
        src = index // width
        if overflow:
            first, last = more[node], more[node + 1]
            (has,) = np.nonzero(last > first)
            if has.size:
                count = (last - first)[has]
                owner = np.repeat(has, count)
                row = np.arange(owner.size, dtype=np.int64) + np.repeat(
                    first[has] - (np.cumsum(count) - count), count
                )
                nbr = page[row]
                nbr += base[owner][:, None]
                index = np.flatnonzero(dist[nbr] < 0)
                src = np.concatenate([src, owner[index // width]])
                order = np.argsort(src, kind="stable")
                src = src[order]
                tgt = np.concatenate([tgt, nbr.ravel()[index]])[order]
        level += 1
        dist[tgt] = level
        levels.append((frontier, src, tgt))
        frontier = np.flatnonzero(dist == level)
    return dist, levels


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
    return _frozen(arr)[0]


def _int64_value(x) -> bool:
    """Whether x is an int64 value, held as an int, a numpy integer or a
    float: numpy reads every endpoint of a list as a float once one of them
    is. A bool is not one."""
    return (
        type(x) is int or isinstance(x, np.integer) or type(x) is float and x.is_integer()
    ) and -(1 << 63) <= x < 1 << 63


def _edge_array(edges) -> np.ndarray:
    """edges as an (m, 2) int64 array, read with one np.asarray.

    When numpy does not read them as integer pairs that fit int64 (a uint64
    id of 2^63 or more does not), MalformedEdge names the first edge, as
    numpy read it, that is not a pair of int64 values; if each is one, held
    as floats, it names none. A list and the array numpy makes of it are
    thus refused alike, with one exception: numpy reads a bool endpoint
    beside ints as 0 or 1, so a list holding one is refused, naming its
    first edge that holds one as given.
    """
    listed = not isinstance(edges, np.ndarray)
    if listed:
        edges = list(edges)
    try:
        arr = np.asarray(edges)
    except ValueError:  # pairs and non-pairs mixed: numpy reads no array
        rows, read_as = edges, "they are ragged"
    else:
        if arr.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if not (arr.ndim == 2 and arr.shape[1] == 2 and (
            arr.dtype.kind == "i" or arr.dtype.kind == "u" and arr.max() < 1 << 63
        )):
            rows, read_as = arr.tolist(), f"numpy reads them as {arr.dtype} of shape {arr.shape}"
        elif listed and not {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(edges))):
            rows, read_as = edges, "a bool is not a node id"
        else:
            return arr.astype(np.int64, copy=False)
    for i, e in enumerate(rows):
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_int64_value, e))):
            raise MalformedEdge(f"edge {i} {e!r} is not a pair of integers; {read_as}")
    raise MalformedEdge(f"edges are not integer pairs; {read_as}")


def build_graph(edges, root, symmetries=()) -> Graph:
    """Assemble a Graph from index pairs: an (m, 2) integer array or an
    iterable of pairs, both read by _edge_array. Every Graph, generated or
    loaded, is built here, so this is the one gate its node ids pass.

    Duplicate and reversed edges collapse; self-loops, negative indices and
    pairs that are not integers, such as a bool endpoint, raise
    MalformedEdge. Then, checked on the edge array before any per-node
    allocation, an id at or above node_cap() raises SizeOverflow, and an
    id below the largest that is neither an endpoint nor the root raises
    DisconnectedGraph, as nothing joins it to the root; so does any other
    node the walk from the root misses. Each
    of `symmetries` must be a permutation of the node ids that fixes the
    root and maps edges onto edges, else NotAutomorphism is raised.

    The graph carries its CSR, the neighbour pages _pages derives from it,
    and the distances and frontiers of one _walk from the root over those
    pages as its depth and layers.
    """
    if not isinstance(root, int) or root < 0:
        raise MalformedEdge(f"root {root!r} is not a non-negative integer")
    pairs = _edge_array(edges)
    bad = np.flatnonzero((pairs < 0).any(axis=1))
    if bad.size:
        raise MalformedEdge(f"edge {bad[0]} {pairs[bad[0]].tolist()} has a negative endpoint")
    u, v = pairs.T
    bad = np.flatnonzero(u == v)
    if bad.size:
        raise MalformedEdge(f"self-loop at node {u[bad[0]]}")
    top = max(root, int(pairs.max(initial=0)))
    cap = node_cap()
    if top >= cap:
        raise SizeOverflow(f"node id {top} exceeds node cap {cap}")
    # sorts and diffs, as a first np.unique imports numpy.ma
    ids = np.sort(np.append(pairs, root))
    ids = ids[np.diff(ids, prepend=-1) != 0]
    if ids.size <= top:
        raise DisconnectedGraph(
            f"{top + 1 - ids.size} node(s) below id {top} are in no edge, "
            f"so unreachable from root {root}, "
            f"e.g. node {np.argmax(ids != np.arange(ids.size))}"
        )
    n = top + 1
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    csr = _csr(keys[np.diff(keys, prepend=-1) != 0], n)  # duplicates collapse
    pages = _pages(csr)
    dist, levels = _walk(pages, np.array([root]), n)  # no path is n hops long
    missing = np.flatnonzero(dist < 0)
    if missing.size:
        raise DisconnectedGraph(
            f"{missing.size} node(s) unreachable from root {root}, e.g. node {missing[0]}"
        )
    g = Graph(
        node_count=n,
        root=root,
        depth=_frozen(dist)[0],
        layers=_frozen(*(below for below, _, _ in levels)),
        csr=csr,
        pages=pages,
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


def _match(adj, root: int, a, b, start: int):
    """A bijection that sends each node of colour c under colouring `a` to a
    node of colour c under `b`, built by BFS over the neighbour lists `adj`
    from `root`: the unmatched neighbours of a matched pair are paired in
    colour order, ties broken by id in `a` and by id counted cyclically from
    `start` in `b`. None if some pair's unmatched neighbours differ in colours.

    Where every colour is one node this is the only such bijection; on a
    tree refined to equitable colourings it is an automorphism whenever one
    exists, without a discrete partition. The cyclic tie-break makes one
    match on a star turn all the leaves at once rather than swap two.
    """
    n = len(adj)
    a = a.tolist()
    b = b.tolist()
    perm = [-1] * n
    used = [False] * n
    perm[root] = root
    used[root] = True
    queue = [root]
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
    are never coarser than the cells. Until a cell is one orbit, each of its
    nodes v that is still the smallest id in its orbit, in ascending order,
    is individualized in one copy and each candidate w outside v's orbit in
    another, and both are refined. Where _match then gives no automorphism,
    both copies individualize the smallest id of their first cell with more
    than one node and try again, down to a discrete partition. Each
    candidate goes through _check_symmetry and is dropped if it fails, so
    the result never rests on the search. The search stops when the orbits
    equal the cells, or when the next pass over the graph would take the
    work past _SEARCH_BUDGET; it returns the verified generators found so
    far, possibly none.
    """
    n = g.node_count
    if n < 3:  # a root-fixing permutation of at most two nodes fixes both
        return (), 0
    refiner = _Refiner(g)
    adj = g.adjacency
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
                perm = _match(adj, g.root, a, b, start)
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
        colour = refiner.refine(g.depth)
        cells = int(colour.max()) + 1
        labels = np.arange(n)
        sizes = np.bincount(colour)
        by_cell = np.lexsort((np.arange(n), colour, -sizes[colour]))
        ends = np.cumsum(np.sort(sizes)[::-1]).tolist()
        for lo, hi in zip([0] + ends[:-1], ends):
            members = by_cell[lo:hi].tolist()
            for v in members:
                if labels[v] != v or all(labels[w] == v for w in members):
                    continue
                fixed = refiner.individualize(colour, v)
                for w in members:
                    if labels[w] == labels[v]:
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


def check_four_point_cap(cap: int) -> None:
    """Raise ValueError unless the four-point cap is >= 0."""
    if cap < 0:
        raise ValueError(f"four-point cap must be >= 0, got {cap}")


def four_point_delta(g: Graph, cap: int = FOUR_POINT_CAP) -> float:
    """Max over quadruples of (largest pair-sum - second largest) / 2, an
    exact half-integer held in a float.

    O(n^2) distance table plus an O(n^4) scan, so refuses graphs above `cap`.
    The quantity is symmetric in its four points, 0 when two coincide and
    invariant under automorphisms, so x ranges over the smallest id of each
    orbit of g.symmetries, y over every node, and z, w over the ids above
    y. On at most 3 nodes every quadruple repeats a point, so the delta is 0.
    """
    check_four_point_cap(cap)
    n = g.node_count
    if n > cap:
        raise GraphTooLarge(f"{n} nodes exceeds four-point cap {cap}")
    # one batched walk from every node, out to n hops, which no path reaches;
    # pair sums stay below 2n, so int16 holds them up to 2^14 nodes
    d = _walk(g.pages, np.arange(n), n)[0].reshape(n, n)
    d = d.astype(np.int16 if n <= 1 << 14 else np.int32)
    reps = np.flatnonzero(_orbit_labels(n, g.symmetries) == np.arange(n)).tolist()
    best = 0
    for x in reps:
        dx = d[x]
        for y in range(n - 2):
            if y == x:
                continue
            above = slice(y + 1, n)
            s1 = dx[y] + d[above, above]  # d(x,y) + d(z,w)
            s2 = dx[above, None] + d[y, None, above]  # d(x,z) + d(y,w)
            s3 = s2.T  # d(y,z) + d(x,w)
            hi, lo = np.maximum(s2, s3), np.minimum(s2, s3)
            gap = np.maximum(s1, hi) - np.maximum(lo, np.minimum(s1, hi))  # top - median
            top = int(gap.max())
            if top > best:
                best = top
    return best / 2


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
    endpoints, and node_count must be the built graph's node count, the
    largest id + 1; anything else raises MalformedEdge. build_graph refuses
    ids past node_cap() or with gaps before any per-node allocation.
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
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise MalformedEdge("edges must be a list")
    # three passes in C check every edge; the loop only names the first bad one
    if not (
        set(map(type, edges)) <= {list}
        and set(map(len, edges)) <= {2}
        and set(map(type, chain.from_iterable(edges))) <= {int}
    ):
        for e in edges:
            if not isinstance(e, list) or len(e) != 2:
                raise MalformedEdge(f"edge {e!r} is not a pair")
            _json_int(e[0], "edge endpoint")
            _json_int(e[1], "edge endpoint")
    g = build_graph(edges, root)
    if node_count != g.node_count:
        raise MalformedEdge(f"file claims {node_count} nodes but edges imply {g.node_count}")
    return with_found_symmetries(g)
