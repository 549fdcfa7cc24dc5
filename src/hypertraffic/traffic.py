"""Geodesic traffic between boundary spheres: totals, ball traffic, loads.

All pair sums are ordered and include the diagonal. Geometry (distances,
geodesic counts, minimum depth over geodesics) is computed once per source by
a vectorized BFS; rates enter only through a per-distance lookup table, so a
single integer census over (distance, h) pairs serves every rate function.

The census and the node loads walk one source per orbit of the graph's
checked root-fixing symmetries (the dihedral group about the root for
tessellation balls, D4 for grids, the odometer for trees, and whatever
graphs.find_symmetries verifies for a loaded graph) and weight each row by
its orbit size: in exact integers for the census, and for loads followed by
a mean over each node orbit. A graph without symmetries, such as one built
directly by build_graph, walks every source and sums its loads in boundary
order.

Determinism: one batched BFS walks many boundary sources together on a single
thread. Each source sees its frontier in ascending node order, exactly as a
walk from that source alone would, so geodesic counts and dependency sums are
bit-identical for every batch size. Node loads are folded in boundary order
with compensated accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBoundary, InvalidRate, SigmaOverflow
from .graphs import DistanceRow, Graph, _bfs, _orbit_labels

_SIGMA_LIMIT = 2.0**53
_BATCH_SLOTS = 1 << 14  # slots (source x node) per batch of the walk
_KAHAN_GROUP = 64


@dataclass(frozen=True)
class ExponentialRate:
    """R(d) = beta^-d, computed as exp(-d ln beta)."""

    beta: float

    def __post_init__(self):
        if not self.beta > 1.0:
            raise InvalidRate(f"beta must be > 1, got {self.beta}")

    def eval(self, d: int) -> float:
        return math.exp(-d * math.log(self.beta))

    def descriptor(self) -> dict:
        return {"variant": "exponential", "beta": self.beta}


@dataclass(frozen=True)
class PolynomialRate:
    """R(d) = (1+d)^-alpha; the polynomially-decaying control."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise InvalidRate(f"alpha must be > 0, got {self.alpha}")

    def eval(self, d: int) -> float:
        return (1.0 + d) ** -self.alpha

    def descriptor(self) -> dict:
        return {"variant": "polynomial", "alpha": self.alpha}


@dataclass(frozen=True)
class TableRate:
    """R(d) = values[d], zero beyond the table; must be non-increasing."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v < 0.0 for v in vals):
            raise InvalidRate("table rates must be non-negative")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise InvalidRate("table rates must be non-increasing")

    def eval(self, d: int) -> float:
        return self.values[d] if d < len(self.values) else 0.0

    def descriptor(self) -> dict:
        return {"variant": "table", "values": list(self.values)}


def rate_eval(f, d: int) -> float:
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    return f.eval(d)


def rate_table(f, max_d: int) -> np.ndarray:
    return np.array([rate_eval(f, d) for d in range(max_d + 1)], dtype=np.float64)


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


def geodesic_field(g: Graph, source: int) -> GeodesicField:
    if not 0 <= source < g.node_count:
        raise IndexError(f"source {source} out of range")
    dist, order = _bfs(g.adjacency, source, g.node_count)
    sigma = [0] * g.node_count
    sigma[source] = 1
    md = list(g.depth)
    for v in order[1:]:
        target = dist[v] - 1
        best = md[v]
        s = 0
        for u in g.adjacency[v]:
            if dist[u] == target:
                s += sigma[u]
                if md[u] < best:
                    best = md[u]
        sigma[v] = s
        md[v] = best
    return GeodesicField(
        source=source,
        dist=DistanceRow(source=source, dist=tuple(dist)),
        sigma=tuple(sigma),
        mindepth=tuple(md),
    )


def pair_h(field: GeodesicField, y: int) -> int:
    """Minimal root depth over all geodesics from field.source to y."""
    return field.mindepth[y]


# ---------------------------------------------------------------------------
# batched multi-source BFS


def _batches(g: Graph, boundary: np.ndarray):
    """Consecutive runs of boundary sources, about _BATCH_SLOTS slots each."""
    size = max(1, _BATCH_SLOTS // g.node_count)
    for i in range(0, boundary.size, size):
        yield boundary[i : i + size]


def _walk(g: Graph, sources: np.ndarray, boundary: np.ndarray):
    """Level-synchronous BFS from every source in a batch at once.

    Row r of the batch walks from sources[r]; its state for node v sits at
    slot r * n + v of flat arrays, so one numpy call serves the whole batch
    while the frontier stays sparse. A row leaves the frontier at the level
    that reaches its last boundary node: boundary values are final there, and
    stopping also keeps sigma within exact float64 range on graphs much
    deeper than the traffic depth.

    Returns (dist, levels): dist per slot (-1 if never reached) and, per
    level t >= 1, (below, src, tgt, new). below are the level t-1 slots that
    were expanded, new the level t slots, ascending (so sorted by row, then
    node), and tgt[i] is reached from below[src[i]] by a BFS-DAG edge. Edges
    are listed by source slot, then in adjacency order.
    """
    n = g.node_count
    degree, indptr, indices = g.csr
    rows = sources.size
    dist = np.full(rows * n, -1, dtype=np.int64)
    start = np.arange(rows, dtype=np.int64) * n + sources
    dist[start] = 0
    is_target = np.zeros(n, dtype=bool)
    is_target[boundary] = True
    remaining = np.full(rows, boundary.size - 1, dtype=np.int64)
    mark = np.zeros(rows * n, dtype=bool)
    frontier = start[remaining > 0]
    levels = []
    level = 0
    while frontier.size:
        node = frontier % n
        lens = degree[node]
        src = np.repeat(np.arange(frontier.size, dtype=np.int64), lens)
        offset = indptr[node] - (np.cumsum(lens) - lens)
        pos = np.arange(src.size, dtype=np.int64) + offset[src]
        nbr = indices[pos] + (frontier - node)[src]
        fresh = dist[nbr] < 0
        tgt = nbr[fresh]
        if tgt.size == 0:
            break
        src = src[fresh]
        mark[tgt] = True
        new = np.flatnonzero(mark)
        mark[new] = False
        level += 1
        dist[new] = level
        levels.append((frontier, src, tgt, new))
        row, node = np.divmod(new, n)
        remaining -= np.bincount(row[is_target[node]], minlength=rows)
        frontier = new[remaining[row] > 0]
    return dist, levels


def boundary_nodes(g: Graph, n: int) -> tuple:
    if n < 0 or n > g.max_depth:
        raise EmptyBoundary(
            f"no nodes at depth {n}; graph has max depth {g.max_depth}"
        )
    return g.layers[n]


def _boundary_orbits(g: Graph, boundary: np.ndarray):
    """(label, orbit_size, reps): every node's orbit label, the size of each
    boundary orbit indexed by its label, and those labels ascending, which
    are the smallest ids of the boundary orbits and the only sources walked."""
    label = _orbit_labels(g.node_count, g.symmetries)
    orbit_size = np.bincount(label[boundary], minlength=g.node_count)
    return label, orbit_size, np.flatnonzero(orbit_size)


def pair_census(g: Graph, n: int) -> np.ndarray:
    """Integer counts of ordered boundary pairs by (distance, h).

    Shape (2n+1, n+1); rate-independent, so one census serves every beta.
    A root-fixing automorphism preserves both distance and root depth, so
    sources in one orbit of g.symmetries have equal rows: only the smallest
    id of each boundary orbit is walked, and its row counts orbit-size times.
    """
    boundary = np.array(boundary_nodes(g, n), dtype=np.int64)
    depth = np.array(g.depth, dtype=np.int64)
    _, orbit_size, reps = _boundary_orbits(g, boundary)
    width = n + 1
    size = (2 * n + 1) * width
    total = np.zeros(size, dtype=np.int64)
    for sources in _batches(g, reps):
        rows = sources.size
        dist, levels = _walk(g, sources, boundary)
        md = np.tile(depth, rows)
        for below, src, tgt, _ in levels:
            np.minimum.at(md, tgt, md[below[src]])
        slots = (np.arange(rows) * g.node_count)[:, None] + boundary
        keys = dist[slots] * width + md[slots] + (np.arange(rows) * size)[:, None]
        counts = np.bincount(keys.ravel(), minlength=rows * size).reshape(rows, size)
        total += (counts * orbit_size[sources][:, None]).sum(0)
    return total.reshape(2 * n + 1, width)


@dataclass(frozen=True)
class TrafficReport:
    """Traffic totals at depth n: T, the prefix vector T_r, and the per-h
    histogram (pair counts and rate mass)."""

    n: int
    rate: object
    T: float
    T_r: tuple
    h_counts: tuple
    h_mass: tuple

    def ratio(self, r: int) -> float:
        return self.T_r[r] / self.T

    def core_radius_for(self, epsilons) -> dict:
        return {eps: core_radius(self, eps) for eps in epsilons}


def traffic_totals(g: Graph, f, n: int,
                   census: np.ndarray = None) -> TrafficReport:
    """T and T_r over ordered boundary pairs, diagonal included.

    A pair's full rate lands in T_r as soon as its minimum-depth geodesic
    enters B(root, r). Sums use math.fsum in a fixed (h, d) term order, so
    T_r[n] == T exactly.
    """
    if census is None:
        census = pair_census(g, n)
    rates = rate_table(f, census.shape[0] - 1)

    h_counts = []
    h_mass = []
    terms = []  # ordered by (h, then d); prefixes give T_r
    t_r = []
    for h in range(n + 1):
        col = census[:, h]
        (nz,) = col.nonzero()
        h_counts.append(int(col.sum()))
        cell_terms = [float(col[d]) * rates[d] for d in nz]
        h_mass.append(math.fsum(cell_terms))
        terms.extend(cell_terms)
        t_r.append(math.fsum(terms))
    total = t_r[-1]
    return TrafficReport(
        n=n,
        rate=f,
        T=total,
        T_r=tuple(t_r),
        h_counts=tuple(h_counts),
        h_mass=tuple(h_mass),
    )


def node_loads(g: Graph, f, n: int, include_endpoints: bool = False) -> tuple:
    """Per-node relay load with equal splitting across geodesics.

    load(v) = sum over ordered boundary pairs (x, y), x != y, v not an
    endpoint, of rate(d(x,y)) * sigma_xy(v) / sigma_xy; computed by one
    Brandes-style dependency pass per source with per-target rate weights.

    Only the smallest id of each boundary orbit of g.symmetries is walked.
    A root-fixing automorphism s gives delta_sx(sv) = delta_x(v), so the
    sources of the orbit Gx add |Gx| times the mean of delta_x over the
    orbit Gv at v: each walked row is scaled by its orbit size, and the sum
    is averaged over each node orbit. Without symmetries every factor and
    divisor is 1, and the loads sum every source in boundary order.
    """
    boundary = np.array(boundary_nodes(g, n), dtype=np.int64)
    label, orbit_size, reps = _boundary_orbits(g, boundary)
    rates = rate_table(f, 2 * n)
    nn = g.node_count
    total = np.zeros(nn)
    carry = np.zeros(nn)
    acc = np.zeros(nn)
    comp = np.zeros(nn)

    def fold(part):
        nonlocal total, carry
        y = part - carry
        t = total + y
        carry = (t - total) - y
        total = t

    done = 0
    for sources in _batches(g, reps):
        rows = sources.size
        dist, levels = _walk(g, sources, boundary)
        start = np.arange(rows, dtype=np.int64) * nn + sources
        sigma = np.zeros(rows * nn)
        sigma[start] = 1.0
        for below, src, tgt, _ in levels:
            np.add.at(sigma, tgt, sigma[below[src]])
        if float(sigma.max()) >= _SIGMA_LIMIT:
            raise SigmaOverflow(
                "geodesic counts exceed exact float64 range; "
                "use geodesic_field() for exact big-integer counts"
            )
        weight = np.zeros((rows, nn))
        weight[:, boundary] = rates[dist.reshape(rows, nn)[:, boundary]]
        weight.flat[start] = 0.0
        weight = weight.ravel()
        delta = np.zeros(rows * nn)
        coef = np.zeros(rows * nn)
        for below, src, tgt, new in reversed(levels):
            coef[new] = (weight[new] + delta[new]) / sigma[new]
            sums = np.bincount(src, weights=coef[tgt], minlength=below.size)
            delta[below] = sigma[below] * sums
        delta[start] = 0.0
        delta = delta.reshape(rows, nn)
        if include_endpoints:
            ends = weight.reshape(rows, nn)[:, boundary]
            delta.flat[start] = [math.fsum(row) for row in ends]
            delta[:, boundary] += ends
        delta *= orbit_size[sources][:, None]
        # Kahan sum over each group of _KAHAN_GROUP sources in boundary
        # order, then a compensated fold of the group sums
        for row in delta:
            y = row - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
            done += 1
            if done % _KAHAN_GROUP == 0 or done == reps.size:
                fold(acc)
                fold(-comp)
                acc = np.zeros(nn)
                comp = np.zeros(nn)
    mean = np.bincount(label, weights=total)[label] / np.bincount(label)[label]
    return tuple(float(x) for x in mean)


def core_radius(report: TrafficReport, epsilon: float) -> int:
    """Minimal r with T_r / T >= 1 - epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    threshold = 1.0 - epsilon
    for r in range(report.n + 1):
        if report.T_r[r] / report.T >= threshold:
            return r
    return report.n
