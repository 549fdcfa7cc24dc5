"""Half-edge construction of balls in the regular (p, q) hyperbolic tessellation.

The complex is grown as a combinatorial disk: faces are always created as
complete p-gons, the outer boundary is a single cycle, and a vertex leaves the
boundary exactly when its wheel of q faces is complete. The map stores each
fact once, in org, nxt, adj and bnd_in: half-edge h pairs with h ^ 1, the rim
is the nxt cycle of the half-edges bnd_in names, every other nxt cycle is a
face, and the rim edge before rim half-edge h is bnd_in[org[h]].

Face attachment is forced by the structure: when a face is glued onto a run of
boundary edges, the run must extend through every vertex that already has q
edges (no further edge can be created there), and must stop at vertices that
do not (their angular gap still receives more faces). This makes the result
independent of processing order; we saturate the lowest-numbered eligible
vertex first so the construction is also deterministic step by step.

The map overshoots the ball: saturating the vertices closer than the radius
creates vertices beyond it. The BFS of each saturation round stops one short
of the radius, and the labelling BFS at the radius, so they read only the
ball's share of the map; the structural audit still covers the whole map, as
numpy checks over the half-edge tables. The map itself stays in Python lists,
which gluing appends to; build_ball hands build_graph the ball's edges and
symmetries as int64 arrays, relabelled in numpy.
"""

from __future__ import annotations

from itertools import chain, count

import numpy as np

from .errors import CorruptMap, NotHyperbolic, SizeOverflow
from .graphs import node_cap


class TessellationMap:
    """Mutable half-edge map used while growing the tessellation ball; the
    vertex past node_cap(), read when the map is made, raises SizeOverflow."""

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.cap = node_cap()
        self.org = []     # half-edge -> origin vertex
        self.nxt = []     # next half-edge around its face, or along the rim
        self.adj = []     # vertex -> neighbours, in edge creation order
        self.bnd_in = []  # vertex -> rim half-edge pointing into it, -1 if interior

    @property
    def vertex_count(self):
        return len(self.adj)

    def _new_vertex(self):
        if len(self.adj) >= self.cap:
            raise SizeOverflow(f"tessellation ({self.p},{self.q}) map exceeds node cap {self.cap}")
        self.adj.append([])
        self.bnd_in.append(-1)
        return len(self.adj) - 1

    def bootstrap(self):
        """Create the first p-gon; vertex 0 is the root."""
        p = self.p
        for _ in range(p):
            self._new_vertex()
        for i in range(p):
            j, back = (i + 1) % p, (i - 1) % p
            # edge i: half-edge 2i runs i -> j around the first face, 2i + 1 runs j -> i on the rim
            self.org += (i, j)
            self.nxt += (2 * j, 2 * back + 1)
            self.adj[i].append(j)
            self.adj[j].append(i)
            self.bnd_in[i] = 2 * i + 1

    def saturate(self, v):
        """Close faces around v until its wheel of q faces is complete: each
        face is one complete p-gon glued onto the outer side of the rim edge
        into v."""
        p, q = self.p, self.q
        org, nxt, adj, bnd_in = self.org, self.nxt, self.adj, self.bnd_in
        while (h0 := bnd_in[v]) != -1:
            # the run of rim edges the face covers: from h0 on through every
            # vertex whose wheel is full, then back the same way
            run = [h0]
            start = last = h0
            while len(run) < p and len(adj[org[last ^ 1]]) >= q:
                last = nxt[last]
                run.append(last)
            while len(run) < p and len(adj[org[start]]) >= q:
                start = bnd_in[org[start]]
                run.insert(0, start)
            length = len(run)

            a, b = org[start], org[last ^ 1]
            if length == p:
                # face closes entirely along existing boundary edges
                if a != b or nxt[last] != start:
                    raise CorruptMap(f"the {p} rim edges from half-edge {start} do not close")
                for h in run:
                    bnd_in[org[h ^ 1]] = -1
                continue

            # k new edges chain b -> new vertices -> a; edge j is half-edge
            # ids[2j] inside the face and ids[2j + 1] on the rim. The tables
            # share each id's one int object, as the map is mostly such ints.
            first, k = len(org), p - length
            ids = list(range(first, first + 2 * k))
            chain = [b]
            for _ in range(k - 1):
                chain.append(self._new_vertex())
            chain.append(a)
            h_prev, h_next = bnd_in[a], nxt[last]
            for table in (org, nxt):
                table += ids  # placeholders, each overwritten below
            org[first::2], org[first + 1::2] = chain[:-1], chain[1:]
            nxt[first::2], nxt[first + 1::2] = ids[2::2] + [start], [h_next] + ids[1:-2:2]
            nxt[last], nxt[h_prev] = ids[0], ids[-1]
            u = b
            for w in chain[1:]:
                adj[u].append(w)
                adj[w].append(u)
                u = w

            for h in run[:-1]:
                bnd_in[org[h ^ 1]] = -1  # wheel completed in passing
            for w, o in zip(chain, ids[1::2]):
                bnd_in[w] = o

    def root_symmetry(self, image, reflect, depths, depth):
        """Vertex map of the root-fixing map automorphism taking dart 1, from
        vertex 1 into the root, to the dart `image`.

        A map automorphism is fixed by the image of one dart (Weinberg's
        walk): turning to the next dart into the same vertex, nxt[h] ^ 1,
        commutes with it, and a reflection turns the image the other way.
        Only vertices closer than `depth` are turned around, since only their
        wheels are complete; every vertex of the ball is a neighbor of one of
        them. `depths` may come from a bounded BFS: a vertex it left
        unreached (-1) is not closer than `depth`. The walk checks nothing:
        build_graph refuses the map unless it is a root-fixing automorphism
        of the ball.
        """
        org, nxt, q = self.org, self.nxt, self.q
        vmap = [-1] * self.vertex_count
        vmap[0] = 0
        queue = [(1, image)]
        for h, g in queue:  # the loop also visits the darts appended while it runs
            turns = [g]
            for _ in range(q - 1):
                turns.append(nxt[turns[-1]] ^ 1)
            if reflect:
                turns[1:] = turns[:0:-1]
            for t in turns:
                u = org[h]
                if vmap[u] < 0:
                    vmap[u] = org[t]
                    if 0 <= depths[u] < depth:
                        queue.append((h ^ 1, t ^ 1))
                h = nxt[h] ^ 1
        return vmap

    def audit(self):
        """Structural invariants of the half-edge disk, checked on the tables
        as numpy arrays. Raises CorruptMap naming the first one broken, and
        returns the checked org table as an array."""
        n_half, vertices, p, q = len(self.org), self.vertex_count, self.p, self.q
        if n_half % 2:
            raise CorruptMap(f"odd half-edge count {n_half}")
        ids = np.int32 if n_half < 1 << 31 else np.int64  # int32 halves the audit's peak memory

        def table(name, size, low, high):
            values = getattr(self, name)
            if len(values) != size:
                raise CorruptMap(f"{name} has {len(values)} entries, not {size}")
            return _int_array(values, low, high, (f"{name}[{i}]" for i in count())).astype(ids)

        org = table("org", n_half, 0, vertices)
        nxt = table("nxt", n_half, 0, n_half)
        bnd_in = table("bnd_in", vertices, -1, n_half)
        hit = np.zeros(n_half, dtype=bool)
        hit[nxt] = True
        bad = np.flatnonzero(~hit)
        if bad.size:
            raise CorruptMap(f"nxt is not a permutation: no half-edge has nxt {bad[0]}")
        h = np.arange(n_half, dtype=ids)
        head = org[h ^ 1]
        bad = np.flatnonzero(org[nxt] != head)
        if bad.size:
            raise CorruptMap(f"half-edge {nxt[bad[0]]} does not start where {bad[0]} ends")

        # the rim: the half-edges bnd_in names, one into each vertex on it,
        # closed under nxt into one cycle; every other cycle is a p-gon
        on_rim = bnd_in >= 0
        bad = np.flatnonzero(on_rim & (head[bnd_in] != np.arange(vertices)))
        if bad.size:
            raise CorruptMap(f"bnd_in of vertex {bad[0]} is not a half-edge into it")
        rim = np.zeros(n_half, dtype=bool)
        rim[bnd_in[on_rim]] = True
        bad = np.flatnonzero(rim & ~rim[nxt])
        if bad.size:
            raise CorruptMap(f"rim half-edge {bad[0]} is followed by unmarked half-edge {nxt[bad[0]]}")
        low = _cycle_min(nxt)
        first = low == h
        rims = np.count_nonzero(first & rim)
        if rims != 1:
            raise CorruptMap(f"the rim is {rims} cycles, not one")
        faces = np.count_nonzero(first) - 1
        sides = np.bincount(low, minlength=n_half)[low]
        bad = np.flatnonzero(~rim & (sides != p))
        if bad.size:
            raise CorruptMap(f"the face of half-edge {low[bad[0]]} has {sides[bad[0]]} sides")
        del low, first, sides  # freed early: the map's peak memory caps its size

        # degrees within cap, full off the rim
        if set(map(type, self.adj)) - {list}:
            v, row = next((v, row) for v, row in enumerate(self.adj) if type(row) is not list)
            raise CorruptMap(f"adj[{v}] = {row!r} is not a list of neighbours")
        degree = np.fromiter(map(len, self.adj), dtype=np.int64, count=vertices)
        bad = np.flatnonzero((degree < 1) | (degree > q))
        if bad.size:
            raise CorruptMap(f"vertex {bad[0]} has degree {degree[bad[0]]}")
        bad = np.flatnonzero(~on_rim & (degree != q))
        if bad.size:
            raise CorruptMap(f"vertex {bad[0]} is marked interior but has degree {degree[bad[0]]}")

        # turning about a vertex, h -> nxt[h] ^ 1, keeps the head (checked
        # above): the half-edges into each vertex form one such cycle, and
        # their origins are the vertex's neighbour list
        cycles = np.bincount(head[_cycle_min(nxt ^ 1) == h], minlength=vertices)
        bad = np.flatnonzero(cycles != 1)
        if bad.size:
            raise CorruptMap(f"the half-edges into vertex {bad[0]} form {cycles[bad[0]]} rotations")
        nbr = _int_array(
            list(chain.from_iterable(self.adj)), 0, vertices,
            (f"adj[{v}][{j}]" for v, row in enumerate(self.adj) for j in range(len(row))),
        )
        bad = np.flatnonzero(np.bincount(head, minlength=vertices) != degree)
        if not bad.size:  # equal in-degrees, so both key lists group the same vertices
            keys = np.sort(head.astype(np.int64) * vertices + org)
            bad = keys[keys != np.sort(np.repeat(np.arange(vertices), degree) * vertices + nbr)]
            bad //= vertices
        if bad.size:
            raise CorruptMap(
                f"the rotation about vertex {bad[0]} disagrees with its neighbour list"
            )

        # Euler characteristic of a disk
        if vertices - n_half // 2 + faces != 1:
            raise CorruptMap("the map is not a disk: V - E + F != 1")
        return org


def _int_array(values, low, high, labels):
    """The list `values` as an int64 array if each entry is an int in [low,
    high); else CorruptMap names the first that is not by its label, from
    `labels` in the order of `values`. (np.fromiter would also read a float
    or a numeric string as an int.)"""
    try:
        arr = np.array(values)
    except ValueError:  # some entry is a sequence, so numpy reads no array
        arr = np.array(values, dtype=object)
    if arr.size and not (arr.shape == (len(values),) and arr.dtype.kind == "i"
                         and low <= arr.min() and arr.max() < high):
        label, x = next((label, x) for label, x in zip(labels, values)
                        if not (isinstance(x, (int, np.integer)) and low <= x < high))
        raise CorruptMap(f"{label} = {x!r} is not an int in [{low}, {high})")
    return arr


def _cycle_min(perm):
    """The smallest member of each element's cycle under the permutation
    `perm`, by doubling: after k rounds low[h] is the minimum over the first
    2^k elements of h's orbit. A round that changes nothing has low[h] <=
    low[perm^(2^k)[h]] for every h, so low is constant on each cycle."""
    low, step = np.arange(perm.size, dtype=perm.dtype), perm
    while True:
        new = np.minimum(low, low[step])
        if np.array_equal(new, low):
            return low
        low, step = new, step[step]


def _bfs(adjacency, source, bound):
    """(dist, order): hop distances from `source` to each node within
    `bound` hops, -1 for the rest, and the reached nodes in visiting order,
    so dist never decreases along order. Neighbours are visited in adjacency
    order, and the map's labels follow that order, not ascending ids.

    Nodes at distance `bound` are reached but not expanded: only the
    neighbour lists of nodes closer than `bound` are read."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    order = [source]
    for u in order:  # the loop also visits the nodes appended while it runs
        du = dist[u] + 1
        if du > bound:
            break
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du
                order.append(w)
    return dist, order


def check_hyperbolic(p: int, q: int):
    if p < 3 or q < 3:
        raise NotHyperbolic(f"need p >= 3 and q >= 3, got ({p}, {q})")
    if (p - 2) * (q - 2) <= 4:
        raise NotHyperbolic(f"({p}-2)({q}-2) = {(p - 2) * (q - 2)} is not > 4")


def build_ball(p: int, q: int, depth: int):
    """Edges of the radius-`depth` ball around a root vertex, BFS-relabeled.

    Returns (edges, symmetries) as int64 arrays: edges has one row (u, v)
    per edge, and the root is vertex 0 with labels counting up in BFS order.
    symmetries holds the images of the labels under two root-fixing map
    automorphisms, -1 where one leaves the ball: the rotation by one face
    about the root and a reflection, which generate the dihedral group of
    order 2q. build_graph raises NotAutomorphism unless each is an
    automorphism of the ball. Saturates every vertex closer than `depth` to
    the root, audits the half-edge map, then truncates to the ball; the map,
    larger than the ball, must fit under node_cap().
    """
    check_hyperbolic(p, q)
    tmap = TessellationMap(p, q)  # reads the cap, so a bad one fails at depth 0 too
    if depth == 0:
        root = np.zeros(1, dtype=np.int64)
        return np.empty((0, 2), dtype=np.int64), (root, root)
    tmap.bootstrap()
    while True:
        depths, inner = _bfs(tmap.adj, 0, depth - 1)
        pending = sorted(v for v in inner if tmap.bnd_in[v] != -1)
        if not pending:
            break
        for v in pending:
            tmap.saturate(v)
    org = tmap.audit()

    # labels follow a BFS that takes neighbours in map-id order; only the
    # vertices closer than `depth`, the last round's `inner`, are expanded
    ordered = [()] * tmap.vertex_count
    for v in inner:
        ordered[v] = sorted(tmap.adj[v])
    ball = np.array(_bfs(ordered, 0, depth)[1], dtype=np.int64)
    # a spare last slot, so label[-1] is -1
    label = np.full(tmap.vertex_count + 1, -1, dtype=np.int64)
    label[ball] = np.arange(ball.size)

    # half-edges 2e and 2e + 1 start at the two ends of edge e
    ends = label[org.reshape(-1, 2)]
    edges = ends[(ends >= 0).all(axis=1)]
    symmetries = tuple(
        label[np.array(tmap.root_symmetry(image, reflect, depths, depth), dtype=np.int64)[ball]]
        for image, reflect in ((tmap.nxt[1] ^ 1, False), (1, True))
    )
    return edges, symmetries
