"""Half-edge construction of balls in the regular (p, q) hyperbolic tessellation.

The complex is grown as a combinatorial disk: faces are always created as
complete p-gons, the outer boundary is a single cycle, and a vertex leaves the
boundary exactly when its wheel of q faces is complete. Twins are implicit:
half-edge h pairs with h ^ 1.

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

from itertools import chain

import numpy as np

from .errors import CorruptMap, NotAutomorphism, NotHyperbolic, SizeOverflow
from .graphs import node_cap


class TessellationMap:
    """Mutable half-edge map used while growing the tessellation ball; the
    vertex past node_cap(), read when the map is made, raises SizeOverflow."""

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.cap = node_cap()
        self.org = []     # half-edge -> origin vertex
        self.nxt = []     # next half-edge around its face (outer cycle if face -1)
        self.prv = []
        self.face = []    # face id, -1 for the outer boundary
        self.adj = []     # vertex -> neighbours, in edge creation order
        self.bnd_in = []  # vertex -> boundary half-edge pointing into it, -1 if interior
        self.face_count = 0

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
            # edge i: half-edge 2i runs i -> j around face 0, 2i + 1 runs j -> i on the rim
            self.org += (i, j)
            self.nxt += (2 * j, 2 * back + 1)
            self.prv += (2 * back, 2 * j + 1)
            self.face += (0, -1)
            self.adj[i].append(j)
            self.adj[j].append(i)
            self.bnd_in[i] = 2 * i + 1
        self.face_count = 1

    def saturate(self, v):
        """Close faces around v until its wheel of q faces is complete: each
        face is one complete p-gon glued onto the outer side of the rim edge
        into v."""
        p, q = self.p, self.q
        org, nxt, prv, face, adj, bnd_in = (
            self.org, self.nxt, self.prv, self.face, self.adj, self.bnd_in
        )
        while (h0 := bnd_in[v]) != -1:
            # the run of rim edges the face covers: from h0 on through every
            # vertex whose wheel is full, then back the same way
            run = [h0]
            start = last = h0
            while len(run) < p and len(adj[org[last ^ 1]]) >= q:
                last = nxt[last]
                run.append(last)
            while len(run) < p and len(adj[org[start]]) >= q:
                start = prv[start]
                run.insert(0, start)
            length = len(run)
            fid = self.face_count
            self.face_count += 1
            for h in run:
                if face[h] != -1:
                    raise CorruptMap(f"half-edge {h} of face {fid} already bounds face {face[h]}")
                face[h] = fid

            a, b = org[start], org[last ^ 1]
            if length == p:
                # face closes entirely along existing boundary edges
                if a != b or nxt[last] != start:
                    raise CorruptMap(f"the {p} rim edges of face {fid} do not close")
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
            h_prev, h_next = prv[start], nxt[last]
            for table in (org, nxt, prv):
                table += ids  # placeholders, each overwritten below
            org[first::2], org[first + 1::2] = chain[:-1], chain[1:]
            nxt[first::2], nxt[first + 1::2] = ids[2::2] + [start], [h_next] + ids[1:-2:2]
            prv[first::2], prv[first + 1::2] = [last] + ids[:-2:2], ids[3::2] + [h_prev]
            face += [fid, -1] * k
            nxt[last], prv[start] = ids[0], ids[-2]
            nxt[h_prev], prv[h_next] = ids[-1], ids[1]
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
        """Vertex map of the root-fixing map automorphism taking dart 1 to `image`.

        Dart 1 runs from vertex 1 into the root, and `image` must point into
        the root too. A map automorphism is fixed by the image of one dart
        (Weinberg's walk): turning to the next dart into the same vertex,
        nxt[h] ^ 1, commutes with it, and a reflection turns the image the
        other way, prv[h ^ 1]. Only vertices closer than `depth` are turned
        around, since only their wheels are complete; every vertex of the
        ball is a neighbor of one of them. `depths` may come from a bounded
        BFS: a vertex it left unreached (-1) is not closer than `depth`.
        Raises NotAutomorphism when the image darts do not close into
        consistent wheels.
        """
        org, nxt, prv = self.org, self.nxt, self.prv
        if org[image ^ 1] != 0:
            raise NotAutomorphism(f"dart {image} does not point into the root")
        vmap = [-1] * self.vertex_count
        vmap[0] = 0
        queue = [(1, image)]
        for start in queue:  # the loop also visits the darts appended while it runs
            h, g = start
            for _ in range(self.q):
                u, w = org[h], org[g]
                if vmap[u] < 0:
                    vmap[u] = w
                    if 0 <= depths[u] < depth:
                        queue.append((h ^ 1, g ^ 1))
                elif vmap[u] != w:
                    raise NotAutomorphism(
                        f"({self.p},{self.q}) dart walk sends vertex {u} to both "
                        f"{vmap[u]} and {w}"
                    )
                h = nxt[h] ^ 1
                g = prv[g ^ 1] if reflect else nxt[g] ^ 1
            if (h, g) != start:
                raise NotAutomorphism(
                    f"({self.p},{self.q}) dart walk does not close around vertex "
                    f"{org[start[0] ^ 1]}"
                )
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
            try:
                arr = np.fromiter(values, dtype=ids)
            except (OverflowError, TypeError, ValueError):
                fits = np.iinfo(ids)
                i = next(i for i, x in enumerate(values)
                         if not (isinstance(x, int) and fits.min <= x <= fits.max))
                raise CorruptMap(
                    f"{name}[{i}] = {values[i]!r} is not an {fits.dtype} entry"
                ) from None
            if arr.size != size:
                raise CorruptMap(f"{name} has {arr.size} entries, not {size}")
            bad = np.flatnonzero((arr < low) | (arr >= high))
            if bad.size:
                raise CorruptMap(f"{name}[{bad[0]}] = {arr[bad[0]]} is outside [{low}, {high})")
            return arr

        org = table("org", n_half, 0, vertices)
        nxt = table("nxt", n_half, 0, n_half)
        face = table("face", n_half, -1, self.face_count)
        bnd_in = table("bnd_in", vertices, -1, n_half)
        h = np.arange(n_half, dtype=ids)
        prv = table("prv", n_half, 0, n_half)
        bad = np.flatnonzero((prv[nxt] != h) | (nxt[prv] != h))
        if bad.size:
            raise CorruptMap(f"nxt and prv do not invert each other at half-edge {bad[0]}")
        del prv  # freed early, like low and sides below: the map's peak memory caps its size
        head = org[h ^ 1]
        bad = np.flatnonzero(org[nxt] != head)
        if bad.size:
            raise CorruptMap(f"half-edge {nxt[bad[0]]} does not start where {bad[0]} ends")

        # every face is one p-cycle of nxt under one id; the outer boundary,
        # id -1, may split into cycles
        bad = np.flatnonzero(face[nxt] != face)
        if bad.size:
            cycle = [int(bad[0])]
            while (cur := self.nxt[cycle[-1]]) != cycle[0]:
                cycle.append(cur)
            raise CorruptMap(
                f"the face of half-edge {min(cycle)} has face ids "
                f"{sorted({self.face[x] for x in cycle})}"
            )
        inner = face >= 0
        low = _cycle_min(np.where(inner, nxt, h))  # rim half-edges stay put
        sides = np.bincount(low, minlength=n_half)[low]
        bad = np.flatnonzero(inner & (sides != p))
        if bad.size:
            raise CorruptMap(f"the face of half-edge {low[bad[0]]} has {sides[bad[0]]} sides")
        count = np.bincount(face[inner], minlength=self.face_count)
        bad = np.flatnonzero(count != p)
        if bad.size:
            raise CorruptMap(f"face {bad[0]} has {count[bad[0]]} half-edges, not {p}")
        del low, sides

        # rim vertices appear exactly once on the boundary; degrees within cap
        degree = np.fromiter(map(len, self.adj), dtype=np.int64, count=vertices)
        on_rim = np.bincount(head[~inner], minlength=vertices)
        if on_rim.max(initial=0) > 1:
            raise CorruptMap("the rim passes through a vertex twice")
        bad = np.flatnonzero((degree < 1) | (degree > q))
        if bad.size:
            raise CorruptMap(f"vertex {bad[0]} has degree {degree[bad[0]]}")
        interior = bnd_in < 0
        bad = np.flatnonzero(interior & ((degree != q) | (on_rim > 0)))
        if bad.size:
            raise CorruptMap(f"vertex {bad[0]} is marked interior but lies on the rim")
        into = (face[bnd_in] == -1) & (head[bnd_in] == np.arange(vertices))
        bad = np.flatnonzero(~interior & ~into)
        if bad.size:
            raise CorruptMap(f"bnd_in of vertex {bad[0]} is not a rim half-edge into it")

        # turning about a vertex, h -> nxt[h] ^ 1, keeps the head (checked
        # above): the half-edges into each vertex form one such cycle, and
        # their origins are the vertex's neighbour list
        cycles = np.bincount(head[_cycle_min(nxt ^ 1) == h], minlength=vertices)
        bad = np.flatnonzero(cycles != 1)
        if bad.size:
            if cycles[bad[0]] == 0:
                raise CorruptMap(f"vertex {bad[0]} has no half-edge into it")
            raise CorruptMap(
                f"the rotation about vertex {bad[0]} splits into {cycles[bad[0]]} cycles"
            )
        nbr = np.fromiter(chain.from_iterable(self.adj), dtype=np.int64, count=degree.sum())
        bad = np.flatnonzero((nbr < 0) | (nbr >= vertices))
        if bad.size:
            raise CorruptMap(f"a neighbour list holds {nbr[bad[0]]}, which is no vertex")
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
        if vertices - n_half // 2 + self.face_count != 1:
            raise CorruptMap("the map is not a disk: V - E + F != 1")
        return org


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
    larger than the ball, must fit under node_cap(). Each saturation round's
    BFS stops at depth - 1 and the labelling BFS at `depth`, so of the
    traversals only the audit reads the vertices past the ball.
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
