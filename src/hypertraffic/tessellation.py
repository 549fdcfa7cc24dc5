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
ball's share of the map. The map itself stays in Python lists, which gluing
appends to; build_ball converts org and nxt to int32 arrays once, for one
numpy dart walk that gives both root symmetries, and hands build_graph the
ball's edges and symmetries as int64 arrays, relabelled in numpy.

A build checks two things at run time: saturate raises CorruptMap when a
face's rim edges do not close, and build_graph refuses a symmetry that is
not a root-fixing automorphism of the ball. The structural audit of the
whole map (faces, rim, rotations, Euler characteristic) is a test oracle,
which the test suite runs on the map of every ball it pins.
"""

from __future__ import annotations

from bisect import insort

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
        self.adj = []     # vertex -> neighbours, ascending: labels follow map-id order
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
            insort(self.adj[i], j)
            insort(self.adj[j], i)
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
                insort(adj[u], w)
                insort(adj[w], u)
                u = w

            for h in run[:-1]:
                bnd_in[org[h ^ 1]] = -1  # wheel completed in passing
            for w, o in zip(chain, ids[1::2]):
                bnd_in[w] = o


def _root_symmetries(org, nxt, q, depths, depth, images):
    """Vertex maps of the root-fixing map automorphisms taking dart 1, from
    vertex 1 into the root, to each dart `image` of `images`, a sequence of
    (image, reflect) pairs; -1 where a map reaches no vertex.

    A map automorphism is fixed by the image of one dart (Weinberg's walk):
    turning to the next dart into the same vertex, nxt[h] ^ 1, commutes with
    it, and a reflection turns the image the other way. The walk is level
    synchronous. Its row 0 walks dart 1 onto itself, the identity, and each
    other row walks one image in step: each level turns every dart q times,
    row-major in the order the darts were queued, and the first turn that
    reaches a vertex sets its images. Only vertices closer than `depth` are
    turned around, since only their wheels are complete; every vertex of the
    ball is a neighbour of one of them. `depths` may come from a bounded BFS:
    a vertex it left unreached (-1) is not closer than `depth`. `org` and
    `nxt` are the map's tables as arrays of one integer dtype, unaudited.
    The walk checks nothing: build_graph refuses the map unless it is a
    root-fixing automorphism of the ball.
    """
    depths = np.array(depths, dtype=org.dtype)
    turned = (depths >= 0) & (depths < depth)
    vmaps = np.full((len(images) + 1, depths.size), -1, dtype=org.dtype)
    vmaps[:, 0] = 0
    darts = np.array([[1], *([image] for image, _ in images)], dtype=nxt.dtype)
    reflect = np.array([False, *(flip for _, flip in images)])
    # per vertex, the first of its turns in the level that reaches it, the
    # one level in which it is new: no entry needs resetting
    first = np.full(depths.size, q * depths.size)
    while darts.shape[1]:
        turns = np.empty(darts.shape + (q,), dtype=darts.dtype)
        turns[..., 0] = darts
        for j in range(1, q):
            np.bitwise_xor(nxt[turns[..., j - 1]], 1, out=turns[..., j])
        turns[reflect, :, 1:] = turns[reflect, :, :0:-1]
        turns = turns.reshape(darts.shape[0], -1)
        reached = org[turns]
        at = np.flatnonzero(vmaps[0, reached[0]] < 0)
        new = reached[0, at]
        np.minimum.at(first, new, at)
        keep = first[new] == at
        at, new = at[keep], new[keep]
        vmaps[:, new] = reached[:, at]
        darts = turns[:, at[turned[new]]] ^ 1
    return vmaps[1:]


def _bfs(adjacency, source, bound):
    """(dist, order): hop distances from `source` to each node within
    `bound` hops, -1 for the rest, and the reached nodes in visiting order,
    so dist never decreases along order. Neighbours are visited in adjacency
    order; the map keeps each row ascending, so its labels follow map-id
    order by construction.

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
    the root, labels the ball by BFS and walks both symmetries over the
    half-edge map, then truncates to the ball; the map, larger than the
    ball, must fit under node_cap().
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
    ids = np.int32 if len(tmap.org) < 1 << 31 else np.int64  # int32 halves the tables
    org, nxt = np.array(tmap.org, dtype=ids), np.array(tmap.nxt, dtype=ids)

    # labels follow a BFS that takes neighbours in map-id order
    ball = np.array(_bfs(tmap.adj, 0, depth)[1], dtype=np.int64)
    # a spare last slot, so label[-1] is -1
    label = np.full(tmap.vertex_count + 1, -1, dtype=np.int64)
    label[ball] = np.arange(ball.size)

    # half-edges 2e and 2e + 1 start at the two ends of edge e
    ends = label[org.reshape(-1, 2)]
    edges = ends[(ends >= 0).all(axis=1)]
    vmaps = _root_symmetries(org, nxt, q, depths, depth, ((nxt[1] ^ 1, False), (1, True)))
    return edges, tuple(label[vmap[ball]] for vmap in vmaps)
