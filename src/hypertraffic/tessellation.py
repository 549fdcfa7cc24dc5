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
"""

from __future__ import annotations

from .errors import CorruptMap, NotAutomorphism, NotHyperbolic, SizeOverflow
from .graphs import DEFAULT_NODE_CAP, _bfs


class TessellationMap:
    """Mutable half-edge map used while growing the tessellation ball."""

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
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
        self.adj.append([])
        self.bnd_in.append(-1)
        return len(self.adj) - 1

    def _new_edge(self, u, v):
        h = len(self.org)
        self.org += [u, v]
        self.nxt += [-1, -1]
        self.prv += [-1, -1]
        self.face += [-1, -1]
        self.adj[u].append(v)
        self.adj[v].append(u)
        return h

    def _link(self, a, b):
        self.nxt[a] = b
        self.prv[b] = a

    def _head(self, h):
        return self.org[h ^ 1]

    def bootstrap(self):
        """Create the first p-gon; vertex 0 is the root."""
        p = self.p
        for _ in range(p):
            self._new_vertex()
        for i in range(p):
            self._new_edge(i, (i + 1) % p)
        for i in range(p):
            inner = 2 * i
            self._link(inner, 2 * ((i + 1) % p))
            self.face[inner] = 0
            outer = 2 * i + 1  # runs (i+1) -> i
            self._link(outer, 2 * ((i - 1) % p) + 1)
            self.bnd_in[i] = outer
        self.face_count = 1

    def close_face(self, h0):
        """Glue one complete p-gon onto the outer side of boundary edge h0."""
        p, q = self.p, self.q
        run = [h0]
        while len(run) < p:
            if len(self.adj[self._head(run[-1])]) < q:
                break
            run.append(self.nxt[run[-1]])
        while len(run) < p:
            if len(self.adj[self.org[run[0]]]) < q:
                break
            run.insert(0, self.prv[run[0]])
        length = len(run)
        fid = self.face_count
        self.face_count += 1
        for h in run:
            if self.face[h] != -1:
                raise CorruptMap(f"half-edge {h} of face {fid} already bounds face {self.face[h]}")
            self.face[h] = fid

        if length == p:
            # face closes entirely along existing boundary edges
            if self.org[run[0]] != self._head(run[-1]) or self.nxt[run[-1]] != run[0]:
                raise CorruptMap(f"the {p} rim edges of face {fid} do not close")
            for h in run:
                self.bnd_in[self._head(h)] = -1
            return

        a = self.org[run[0]]
        b = self._head(run[-1])
        h_prev = self.prv[run[0]]
        h_next = self.nxt[run[-1]]

        chain = []
        prev_v = b
        for _ in range(p - length - 1):
            w = self._new_vertex()
            chain.append(self._new_edge(prev_v, w))
            prev_v = w
        chain.append(self._new_edge(prev_v, a))

        self._link(run[-1], chain[0])
        for g1, g2 in zip(chain, chain[1:]):
            self._link(g1, g2)
        self._link(chain[-1], run[0])
        for g in chain:
            self.face[g] = fid

        outer = [g ^ 1 for g in reversed(chain)]
        self._link(h_prev, outer[0])
        for o1, o2 in zip(outer, outer[1:]):
            self._link(o1, o2)
        self._link(outer[-1], h_next)

        for h in run[:-1]:
            self.bnd_in[self._head(h)] = -1  # wheel completed in passing
        for o in outer:
            self.bnd_in[self._head(o)] = o

    def saturate(self, v):
        """Close faces around v until its wheel of q faces is complete."""
        while self.bnd_in[v] != -1:
            self.close_face(self.bnd_in[v])

    def root_symmetry(self, image, reflect, depths, depth):
        """Vertex map of the root-fixing map automorphism taking dart 1 to `image`.

        Dart 1 runs from vertex 1 into the root, and `image` must point into
        the root too. A map automorphism is fixed by the image of one dart
        (Weinberg's walk): turning to the next dart into the same vertex,
        nxt[h] ^ 1, commutes with it, and a reflection turns the image the
        other way, prv[h ^ 1]. Only vertices closer than `depth` are turned
        around, since only their wheels are complete; every vertex of the
        ball is a neighbor of one of them. Raises NotAutomorphism when the
        image darts do not close into consistent wheels.
        """
        if self._head(image) != 0:
            raise NotAutomorphism(f"dart {image} does not point into the root")
        vmap = [-1] * self.vertex_count
        vmap[0] = 0
        queue = [(1, image)]
        for start in queue:  # the loop also visits the darts appended while it runs
            h, g = start
            for _ in range(self.q):
                u, w = self.org[h], self.org[g]
                if vmap[u] < 0:
                    vmap[u] = w
                    if depths[u] < depth:
                        queue.append((h ^ 1, g ^ 1))
                elif vmap[u] != w:
                    raise NotAutomorphism(
                        f"({self.p},{self.q}) dart walk sends vertex {u} to both "
                        f"{vmap[u]} and {w}"
                    )
                h = self.nxt[h] ^ 1
                g = self.prv[g ^ 1] if reflect else self.nxt[g] ^ 1
            if (h, g) != start:
                raise NotAutomorphism(
                    f"({self.p},{self.q}) dart walk does not close around vertex "
                    f"{self._head(start[0])}"
                )
        return vmap

    def audit(self):
        """Structural invariants of the half-edge disk; cheap, O(V + E).
        Raises CorruptMap naming the first one broken."""
        org, nxt, prv, face = self.org, self.nxt, self.prv, self.face
        n_half = len(org)
        if n_half % 2:
            raise CorruptMap(f"odd half-edge count {n_half}")
        edge_count = n_half // 2

        # every face is a closed p-cycle; the outer boundary splits into cycles
        seen = [False] * n_half
        inner_faces = 0
        for h in range(n_half):
            if seen[h]:
                continue
            cycle = [h]
            seen[h] = True
            cur = nxt[h]
            while cur != h:
                if seen[cur]:
                    raise CorruptMap(f"the face walk from half-edge {h} runs into {cur} again")
                seen[cur] = True
                cycle.append(cur)
                cur = nxt[cur]
            fids = {face[x] for x in cycle}
            if len(fids) != 1:
                raise CorruptMap(f"the face of half-edge {h} has face ids {sorted(fids)}")
            if fids.pop() >= 0:
                if len(cycle) != self.p:
                    raise CorruptMap(f"the face of half-edge {h} has {len(cycle)} sides")
                inner_faces += 1
            for x in cycle:
                if not prv[nxt[x]] == nxt[prv[x]] == x:
                    raise CorruptMap(f"nxt and prv do not invert each other at half-edge {x}")
                if org[nxt[x]] != org[x ^ 1]:
                    raise CorruptMap(f"half-edge {nxt[x]} does not start where {x} ends")
        if inner_faces != self.face_count:
            raise CorruptMap(f"{inner_faces} face cycles for {self.face_count} faces")

        # rim vertices appear exactly once on the boundary; degrees within cap
        rim_heads = [org[h ^ 1] for h in range(n_half) if face[h] == -1]
        rim_set = set(rim_heads)
        if len(rim_heads) != len(rim_set):
            raise CorruptMap("the rim passes through a vertex twice")
        degree = [len(a) for a in self.adj]
        for v in range(self.vertex_count):
            if not 0 < degree[v] <= self.q:
                raise CorruptMap(f"vertex {v} has degree {degree[v]}")
            h = self.bnd_in[v]
            if h == -1:
                if degree[v] != self.q or v in rim_set:
                    raise CorruptMap(f"vertex {v} is marked interior but lies on the rim")
            elif face[h] != -1 or org[h ^ 1] != v:
                raise CorruptMap(f"bnd_in of vertex {v} is not a rim half-edge into it")

        # rotating about a vertex visits each incident edge exactly once: the
        # half-edges into each vertex form one rotation cycle, and their
        # origins are the vertex's neighbour list
        seen = [False] * n_half
        rotated = [False] * self.vertex_count
        for h in range(n_half):
            if seen[h]:
                continue
            v = org[h ^ 1]
            origins = []
            cur = h
            while True:
                if seen[cur]:
                    raise CorruptMap(f"the rotation from half-edge {h} runs into {cur} again")
                seen[cur] = True
                origins.append(org[cur])
                cur = nxt[cur] ^ 1
                if cur == h:
                    break
            if rotated[v] or sorted(origins) != sorted(self.adj[v]):
                raise CorruptMap(f"the rotation about vertex {v} disagrees with its neighbour list")
            rotated[v] = True
        if not all(rotated):
            raise CorruptMap(f"vertex {rotated.index(False)} has no half-edge into it")

        # Euler characteristic of a disk
        if self.vertex_count - edge_count + self.face_count != 1:
            raise CorruptMap("the map is not a disk: V - E + F != 1")


def check_hyperbolic(p: int, q: int):
    if p < 3 or q < 3:
        raise NotHyperbolic(f"need p >= 3 and q >= 3, got ({p}, {q})")
    if (p - 2) * (q - 2) <= 4:
        raise NotHyperbolic(f"({p}-2)({q}-2) = {(p - 2) * (q - 2)} is not > 4")


def build_ball(p: int, q: int, depth: int, node_cap: int = DEFAULT_NODE_CAP):
    """Edges of the radius-`depth` ball around a root vertex, BFS-relabeled.

    Returns (edges, symmetries); the root is vertex 0 and labels count up in
    BFS order. symmetries holds the images of the labels under two root-fixing
    map automorphisms, -1 where one leaves the ball: the rotation by one face
    about the root and a reflection, which generate the dihedral group of
    order 2q. build_graph raises NotAutomorphism unless each is an
    automorphism of the ball. Saturates every vertex closer than `depth` to
    the root, audits the half-edge map, then truncates to the ball.
    """
    check_hyperbolic(p, q)
    if depth == 0:
        return [], ((0,), (0,))
    tmap = TessellationMap(p, q)
    tmap.bootstrap()
    while True:
        depths, _ = _bfs(tmap.adj, 0, tmap.vertex_count)
        pending = [
            v
            for v in range(tmap.vertex_count)
            if depths[v] < depth and tmap.bnd_in[v] != -1
        ]
        if not pending:
            break
        for v in pending:
            tmap.saturate(v)
            if tmap.vertex_count > node_cap:
                raise SizeOverflow(
                    f"tessellation ({p},{q}) depth {depth} exceeds node cap {node_cap}"
                )
    tmap.audit()

    # labels follow a BFS that takes neighbours in map-id order; it reaches
    # vertices depth by depth, so the ball is a prefix of its order
    _, order = _bfs([sorted(a) for a in tmap.adj], 0, tmap.vertex_count)
    keep = [v for v in order if depths[v] <= depth]
    relabel = {v: i for i, v in enumerate(keep)}

    edges = sorted({
        (relabel[u], relabel[w])
        for u in keep
        for w in tmap.adj[u]
        if w in relabel and relabel[u] < relabel[w]
    })

    symmetries = []
    for image, reflect in ((tmap.nxt[1] ^ 1, False), (1, True)):
        vmap = tmap.root_symmetry(image, reflect, depths, depth)
        symmetries.append(tuple(relabel.get(vmap[v], -1) for v in keep))
    return edges, tuple(symmetries)
