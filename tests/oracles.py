"""Independent brute-force oracles used to pin engine results.

Everything here recomputes from first principles (no shared code paths with
the engine beyond the Graph container and its error types): Floyd-Warshall
distances, a batched walk over CSR ranges, explicit enumeration of every geodesic path, traffic/load
accumulation path by path with equal splitting, exact geodesic fields in
Python integers, exact Brandes loads in fractions, Gromov products, the
four-point delta over every 4-subset, the slim-triangle delta, the k-ary
tree closed forms (distance counts, the root share's limit, and T and P as
exact rationals), a set-lookup test for root-fixing automorphisms, the
orbits of every root-fixing automorphism by exhaustive backtracking, the
scalar dart walk of a half-edge map's root symmetries, and the structural
audit of a half-edge map.
"""

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hypertraffic.errors import CorruptMap, GraphTooLarge


def floyd_warshall(g):
    n = g.node_count
    inf = float("inf")
    d = [[inf] * n for _ in range(n)]
    for v in range(n):
        d[v][v] = 0
    for u, nbrs in enumerate(g.adjacency):
        for w in nbrs:
            d[u][w] = 1
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def csr_walk(csr, sources, reach):
    """The batched level-synchronous BFS graphs._walk computes, listing each
    frontier node's neighbours through its CSR range (degree, indptr,
    indices): (dist, levels) with dist per slot r * n + v for source r, -1
    where not reached, and per level (below, src, tgt) with edges by source
    slot, then in adjacency order."""
    degree, indptr, indices = csr
    n = degree.size
    dist = np.full(sources.size * n, -1, dtype=np.int64)
    frontier = np.arange(sources.size, dtype=np.int64) * n + sources
    dist[frontier] = 0
    levels = []
    level = 0
    while frontier.size and level < reach:
        node = frontier % n
        lens = degree[node]
        src = np.repeat(np.arange(frontier.size, dtype=np.int64), lens)
        offset = indptr[node] - (np.cumsum(lens) - lens)
        pos = np.arange(src.size, dtype=np.int64) + offset[src]
        nbr = indices[pos] + (frontier - node)[src]
        fresh = dist[nbr] < 0
        level += 1
        dist[nbr[fresh]] = level
        levels.append((frontier, src[fresh], nbr[fresh]))
        frontier = np.flatnonzero(dist == level)
    return dist, levels


def same_graph(a, b):
    """True when a and b are the same rooted graph: equal node count, root
    and CSR arrays. Graphs compare by identity, and symmetries do not count."""
    return (a.node_count, a.root) == (b.node_count, b.root) and all(
        np.array_equal(x, y) for x, y in zip(a.csr, b.csr)
    )


def bfs_dist(g, source):
    adj = g.adjacency
    dist = [-1] * g.node_count
    dist[source] = 0
    queue = [source]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_root_automorphism(perm, g):
    """True when perm is a sequence of g.node_count integers that permutes
    the node ids, fixes g.root and sends every edge to an edge. Bools are not
    integers here. A bijection maps distinct edges to distinct pairs, so one
    set lookup per edge shows it maps the edge set onto itself."""
    n = g.node_count
    if np.ndim(perm) != 1 or len(perm) != n:
        return False
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in perm):
        return False
    image = [int(x) for x in perm]
    if sorted(image) != list(range(n)) or image[g.root] != g.root:
        return False
    neighbor_sets = [set(a) for a in g.adjacency]
    return all(image[v] in neighbor_sets[image[u]] for u, v in g.edge_list())


def root_symmetry(org, nxt, q, image, reflect, depths, depth):
    """Vertex map of the root-fixing automorphism of a half-edge map (the
    lists org and nxt, half-edge h paired with h ^ 1) taking dart 1, from
    vertex 1 into the root, to the dart `image`; -1 where it reaches no
    vertex. One dart at a time, in FIFO order: turning to the next dart into
    the same vertex, nxt[h] ^ 1, commutes with the map, and a reflection
    turns the image the other way. Only a vertex u with 0 <= depths[u] <
    depth is turned around. Checks nothing."""
    vmap = [-1] * len(depths)
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


def audit_map(tmap):
    """Structural invariants of a tessellation.TessellationMap, a half-edge
    disk, checked on its tables as numpy arrays. Raises CorruptMap naming
    the first one broken."""
    n_half, vertices, p, q = len(tmap.org), tmap.vertex_count, tmap.p, tmap.q
    if n_half % 2:
        raise CorruptMap(f"odd half-edge count {n_half}")

    def table(name, size, low, high):
        values = getattr(tmap, name)
        if len(values) != size:
            raise CorruptMap(f"{name} has {len(values)} entries, not {size}")
        return _int_array(values, low, high, (f"{name}[{i}]" for i in itertools.count()))

    org = table("org", n_half, 0, vertices)
    nxt = table("nxt", n_half, 0, n_half)
    bnd_in = table("bnd_in", vertices, -1, n_half)
    hit = np.zeros(n_half, dtype=bool)
    hit[nxt] = True
    bad = np.flatnonzero(~hit)
    if bad.size:
        raise CorruptMap(f"nxt is not a permutation: no half-edge has nxt {bad[0]}")
    h = np.arange(n_half)
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
    # the rim is a union of nxt cycles: they are counted by doubling the
    # rim alone, compressed, and the faces are doubled with the rim held
    # fixed, so they settle in log2(p) + 1 rounds
    on = np.flatnonzero(rim)
    step = np.empty(n_half, dtype=np.int64)
    step[on] = np.arange(on.size)
    step = step[nxt[on]]
    rims = np.count_nonzero(_cycle_min(step) == np.arange(step.size))
    if rims != 1:
        raise CorruptMap(f"the rim is {rims} cycles, not one")
    low = _cycle_min(np.where(rim, h, nxt))
    faces = np.count_nonzero(low == h) - on.size
    sides = np.bincount(low, minlength=n_half)[low]
    bad = np.flatnonzero(~rim & (sides != p))
    if bad.size:
        raise CorruptMap(f"the face of half-edge {low[bad[0]]} has {sides[bad[0]]} sides")

    # degrees within cap, full off the rim
    if set(map(type, tmap.adj)) - {list}:
        v, row = next((v, row) for v, row in enumerate(tmap.adj) if type(row) is not list)
        raise CorruptMap(f"adj[{v}] = {row!r} is not a list of neighbours")
    degree = np.fromiter(map(len, tmap.adj), dtype=np.int64, count=vertices)
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
        list(itertools.chain.from_iterable(tmap.adj)), 0, vertices,
        (f"adj[{v}][{j}]" for v, row in enumerate(tmap.adj) for j in range(len(row))),
    )
    bad = np.flatnonzero(np.bincount(head, minlength=vertices) != degree)
    if not bad.size:  # equal in-degrees, so both key lists group the same vertices
        keys = np.sort(head * vertices + org)
        bad = keys[keys != np.sort(np.repeat(np.arange(vertices), degree) * vertices + nbr)]
        bad //= vertices
    if bad.size:
        raise CorruptMap(
            f"the rotation about vertex {bad[0]} disagrees with its neighbour list"
        )

    # Euler characteristic of a disk
    if vertices - n_half // 2 + faces != 1:
        raise CorruptMap("the map is not a disk: V - E + F != 1")


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
    return arr.astype(np.int64, copy=False)  # an empty list reads as float64


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


def root_automorphism_orbits(g, max_nodes=12):
    """Smallest id in each node's orbit under the group of all automorphisms
    of g that fix g.root, as a list.

    v and w share an orbit exactly when some automorphism sends v to w. For
    each v and each w <= v in ascending order, a backtracking search maps
    the nodes in depth order, starting from v -> w, each to an unused node
    of the same depth, degree and neighbour depths whose adjacency to every
    node mapped so far matches; the first w it completes is the smallest in
    v's orbit (w = v always completes, by the identity). Exponential in the
    worst case, so it refuses graphs above `max_nodes`.
    """
    n = g.node_count
    if n > max_nodes:
        raise GraphTooLarge(f"{n} nodes exceeds the automorphism oracle's cap {max_nodes}")
    depth = bfs_dist(g, g.root)
    adj = [set(a) for a in g.adjacency]
    kind = [(depth[v], sorted(depth[u] for u in adj[v])) for v in range(n)]
    order = sorted(range(n), key=lambda v: (depth[v], v))

    def extends(image):
        """True if the injective partial map `image` (node -> node)
        extends to an automorphism."""
        v = next((u for u in order if u not in image), None)
        if v is None:
            return True
        taken = set(image.values())
        for w in range(n):
            if w in taken or kind[w] != kind[v]:
                continue
            if all((u in adj[v]) == (x in adj[w]) for u, x in image.items()):
                image[v] = w
                if extends(image):
                    return True
                del image[v]
        return False

    return [
        next(w for w in range(v + 1) if kind[w] == kind[v] and extends({v: w}))
        for v in range(n)
    ]


def all_geodesics(g, x, y):
    """Every geodesic node-path from x to y, as tuples."""
    dist = bfs_dist(g, x)
    adj = g.adjacency
    paths = []
    stack = [(y, (y,))]
    while stack:
        node, suffix = stack.pop()
        if node == x:
            paths.append(suffix)
            continue
        for w in adj[node]:
            if dist[w] == dist[node] - 1:
                stack.append((w, (w,) + suffix))
    return paths


def brute_traffic(g, rate, n):
    """(T, T_r, loads) by enumerating all geodesics for all ordered pairs."""
    boundary = g.layers[n].tolist()
    depth = g.depth.tolist()
    loads = [0.0] * g.node_count
    t_terms = []
    mass_by_h = [[] for _ in range(n + 1)]
    for x in boundary:
        dist = bfs_dist(g, x)
        for y in boundary:
            paths = all_geodesics(g, x, y)
            w = rate.eval(dist[y])
            t_terms.append(w)
            h = min(min(depth[v] for v in p) for p in paths)
            mass_by_h[h].append(w)
            if x != y:
                share = w / len(paths)
                for p in paths:
                    for v in p[1:-1]:
                        loads[v] += share
    total = math.fsum(t_terms)
    t_r = [
        math.fsum(t for h in range(r + 1) for t in mass_by_h[h])
        for r in range(n + 1)
    ]
    return total, t_r, loads


def brute_pair_h(g, x, y):
    depth = g.depth.tolist()
    return min(min(depth[v] for v in p) for p in all_geodesics(g, x, y))


@dataclass(frozen=True)
class DistanceRow:
    source: int
    dist: tuple


@dataclass(frozen=True)
class GeodesicField:
    """Per-source geodesic data: distances, path counts, min depth on paths.

    sigma values are exact Python integers; mindepth[v] is the smallest root
    depth seen on any geodesic from source to v, endpoints included.
    """

    source: int
    dist: DistanceRow
    sigma: tuple
    mindepth: tuple


def geodesic_field(g, source):
    if not 0 <= source < g.node_count:
        raise IndexError(f"source {source} out of range")
    dist = bfs_dist(g, source)
    sigma = [0] * g.node_count
    sigma[source] = 1
    adj = g.adjacency
    md = g.depth.tolist()
    for v in sorted((v for v in range(g.node_count) if dist[v] > 0), key=dist.__getitem__):
        preds = [u for u in adj[v] if dist[u] == dist[v] - 1]
        sigma[v] = sum(sigma[u] for u in preds)
        md[v] = min([md[v]] + [md[u] for u in preds])
    return GeodesicField(
        source=source,
        dist=DistanceRow(source=source, dist=tuple(dist)),
        sigma=tuple(sigma),
        mindepth=tuple(md),
    )


def pair_h(field, y):
    """Minimal root depth over all geodesics from field.source to y."""
    return field.mindepth[y]


def exact_loads(g, rate, n, include_endpoints=False):
    """Brandes node loads over the ordered boundary pairs x != y at depth n,
    as exact Fractions.

    v lies on a geodesic from x to y iff d_x(v) + d_y(v) = d(x, y), and then
    takes R(d(x, y)) * sigma_x(v) * sigma_y(v) / sigma_x(y), where
    R(d) = Fraction(rate.eval(d)) is the float rate taken exactly. The
    endpoints, which take R each, count only with include_endpoints.
    """
    fields = {x: geodesic_field(g, x) for x in g.layers[n].tolist()}
    dist = {x: np.array(f.dist.dist) for x, f in fields.items()}
    # integer numerators summed per (node, denominator); one Fraction each at the end
    acc = [defaultdict(int) for _ in range(g.node_count)]
    for x, fx in fields.items():
        for y, fy in fields.items():
            if x == y:
                continue
            d = fx.dist.dist[y]
            rate_d = Fraction(rate.eval(d))
            den = rate_d.denominator * fx.sigma[y]
            for v in np.flatnonzero(dist[x] + dist[y] == d).tolist():
                if include_endpoints or v not in (x, y):
                    acc[v][den] += rate_d.numerator * fx.sigma[v] * fy.sigma[v]
    return [sum((Fraction(num, den) for den, num in row.items()), Fraction(0)) for row in acc]


def gromov_product(g, y, z, base):
    """(y,z)_base = (d(base,y) + d(base,z) - d(y,z)) / 2, exactly."""
    db = bfs_dist(g, base)
    return Fraction(db[y] + db[z] - bfs_dist(g, y)[z], 2)


def four_point_brute(g):
    """The four-point delta, max over every 4-subset of nodes of (largest
    pair-sum - second largest) / 2, from BFS distances."""
    d = [bfs_dist(g, s) for s in range(g.node_count)]
    best = 0
    for x, y, z, w in itertools.combinations(range(g.node_count), 4):
        sums = sorted((d[x][y] + d[z][w], d[x][z] + d[y][w], d[x][w] + d[y][z]))
        best = max(best, sums[2] - sums[1])
    return best / 2


def slim_delta_exact(g, cap=64):
    """Minimal delta for which every geodesic triangle is delta-slim.

    Enumerates every geodesic between every pair and every side choice, so it
    is exponential in the worst case; guarded by `cap` on the node count.
    """
    n = g.node_count
    if n > cap:
        raise GraphTooLarge(f"{n} nodes exceeds slim-triangle cap {cap}")
    if n < 3:
        return 0.0
    d = np.array([bfs_dist(g, s) for s in range(n)])

    geos = {}
    far = {}  # (u,v) -> per-node max over geodesics of dist(node, geodesic)
    for u in range(n):
        for v in range(u + 1, n):
            paths = all_geodesics(g, u, v)
            geos[(u, v)] = paths
            worst = np.zeros(n, dtype=d.dtype)
            for path in paths:
                np.maximum(worst, d[:, list(path)].min(axis=1), out=worst)
            far[(u, v)] = worst

    def pair(a, b):
        return (a, b) if a < b else (b, a)

    # For a side [a,b] opposite vertex c, independent geodesic choices for the
    # other two sides let max over choices of min(d(p, [c,a]), d(p, [c,b]))
    # factor into min(far[(c,a)][p], far[(c,b)][p]).
    best = 0
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                for a, b, c in ((y, z, x), (x, z, y), (x, y, z)):
                    reach = np.minimum(far[pair(c, a)], far[pair(c, b)])
                    for path in geos[pair(a, b)]:
                        best = max(best, int(reach[list(path)].max()))
    return float(best)


def tree_distance_counts(k, n, p):
    """Number of leaves at distance p from a fixed leaf of the rooted k-ary
    tree of depth n: 1 at p = 0, (k-1)k^(r-1) at p = 2r, else 0."""
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    if p == 0:
        return 1
    if p % 2 != 0:
        return 0
    r = p // 2
    if not 1 <= r <= n:
        return 0
    return (k - 1) * k ** (r - 1)


def tree_closed_forms_exact(k, beta, n):
    """Total traffic T and root share P of the rooted k-ary tree of depth n
    as exact rationals of the float beta, from the sums that define them:
    T = k^n (1 + (k-1) S) with S = sum over i < n of k^i beta^(-2(i+1)),
    and P = (k-1) k^(n-1) beta^(-2n) / (1 + (k-1) S)."""
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    b2 = Fraction(beta) ** 2
    s = sum(Fraction(k**i) / b2 ** (i + 1) for i in range(n))
    denom = 1 + (k - 1) * s
    return {"T": k**n * denom, "P": (k - 1) * k ** (n - 1) / b2**n / denom}


def tree_root_limit(k, beta):
    """Limit of the root's traffic share: 1 - beta^2/k below sqrt(k), else 0."""
    if k < 2:
        raise ValueError("need k >= 2")
    if not beta > 1.0:
        raise ValueError(f"beta must be > 1, got {beta}")
    b2 = beta * beta
    return 1.0 - b2 / k if b2 < k else 0.0
