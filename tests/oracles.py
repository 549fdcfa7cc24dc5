"""Independent brute-force oracles used to pin engine results.

Everything here recomputes from first principles (no shared code paths with
the engine beyond the Graph container and its error types): Floyd-Warshall
distances, a batched walk over CSR ranges, explicit enumeration of every geodesic path, traffic/load
accumulation path by path with equal splitting, exact geodesic fields in
Python integers, exact Brandes loads in fractions, Gromov products, the
slim-triangle delta, the k-ary tree closed forms (distance counts, the root
share's limit, and T and P as exact rationals), a set-lookup test for
root-fixing automorphisms, and the orbits of every root-fixing automorphism
by exhaustive backtracking.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hypertraffic.errors import GraphTooLarge


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
