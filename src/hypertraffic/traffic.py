"""Geodesic traffic between boundary spheres: totals, ball traffic, loads.

All pair sums are ordered and include the diagonal. Geometry (distances,
geodesic counts, minimum depth over geodesics) is computed once per source by
a vectorized BFS into an integer census over (distance, h) pairs; T and T_r
are a pure function of the census and a per-distance table of the rate.
Every walk from a source on S_n stops at distance 2n, since any two nodes of
S_n are joined through the root: no pair is farther apart.

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

from .errors import EmptyBoundary, InvalidRate, TrafficOverflow
from .graphs import Graph, _orbit_labels

_BATCH_SLOTS = 1 << 14  # slots (source x node) per batch of the walk
_KAHAN_GROUP = 64


@dataclass(frozen=True)
class ExponentialRate:
    """R(d) = beta^-d, computed as exp(-d ln beta)."""

    beta: float

    def __post_init__(self):
        if not 1.0 < self.beta < math.inf:
            raise InvalidRate(f"beta must be finite and > 1, got {self.beta}")

    def eval(self, d: int) -> float:
        return math.exp(-d * math.log(self.beta))

    def descriptor(self) -> dict:
        return {"variant": "exponential", "beta": self.beta}


@dataclass(frozen=True)
class PolynomialRate:
    """R(d) = (1+d)^-alpha; the polynomially-decaying control."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise InvalidRate(f"alpha must be finite and > 0, got {self.alpha}")

    def eval(self, d: int) -> float:
        return (1.0 + d) ** -self.alpha

    def descriptor(self) -> dict:
        return {"variant": "polynomial", "alpha": self.alpha}


@dataclass(frozen=True)
class TableRate:
    """R(d) = values[d], zero beyond the table; must be finite and
    non-increasing with R(0) > 0, so every T, which counts the diagonal at
    distance 0, is positive."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        bad = [v for v in vals if not math.isfinite(v)]
        if bad:
            raise InvalidRate(f"table rates must be finite, got {bad[0]}")
        if not vals or vals[0] <= 0.0:
            raise InvalidRate(f"table rate R(0) must be > 0, got {vals[0] if vals else 'none'}")
        if any(v < 0.0 for v in vals):
            raise InvalidRate("table rates must be non-negative")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise InvalidRate("table rates must be non-increasing")

    def eval(self, d: int) -> float:
        return self.values[d] if d < len(self.values) else 0.0

    def descriptor(self) -> dict:
        return {"variant": "table", "values": list(self.values)}


def rate_table(f, max_d: int) -> np.ndarray:
    return np.array([f.eval(d) for d in range(max_d + 1)], dtype=np.float64)


# ---------------------------------------------------------------------------
# batched multi-source BFS


def _walk(g: Graph, sources: np.ndarray, reach: int):
    """Level-synchronous BFS from every source in a batch at once, out to
    distance `reach`; from a source on S_n, reach = 2n leaves S_n final.

    Row r of the batch walks from sources[r]; its state for node v sits at
    slot r * n + v of flat arrays, so one numpy call serves the whole batch
    while the frontier stays sparse.

    Returns (dist, levels): dist per slot (-1 if not reached) and, per
    level t >= 1, (below, src, tgt, new). below are the level t-1 slots that
    were expanded, new the level t slots, ascending (so sorted by row, then
    node), and tgt[i] is reached from below[src[i]] by a BFS-DAG edge. Edges
    are listed by source slot, then in adjacency order.
    """
    n = g.node_count
    degree, indptr, indices = g.csr
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
        tgt = nbr[fresh]
        src = src[fresh]
        level += 1
        dist[tgt] = level
        new = np.flatnonzero(dist == level)
        levels.append((frontier, src, tgt, new))
        frontier = new
    return dist, levels


def boundary_nodes(g: Graph, n: int) -> tuple:
    if n < 0 or n > g.max_depth:
        raise EmptyBoundary(
            f"no nodes at depth {n}; graph has max depth {g.max_depth}"
        )
    return g.layers[n]


def _walks(g: Graph, boundary: np.ndarray, label: np.ndarray, reach: int):
    """Walk the smallest id of each boundary orbit under the orbit labels
    `label`, ascending, in batches of about _BATCH_SLOTS slots.

    Yields (sources, orbit_size, dist, levels) per batch: the batch's
    sources, the size of each source's boundary orbit, and _walk's result
    out to distance `reach`.
    """
    orbit_size = np.bincount(label[boundary], minlength=g.node_count)
    reps = np.flatnonzero(orbit_size)
    size = max(1, _BATCH_SLOTS // g.node_count)
    for i in range(0, reps.size, size):
        sources = reps[i : i + size]
        yield (sources, orbit_size[sources], *_walk(g, sources, reach))


def pair_census(g: Graph, n: int) -> np.ndarray:
    """Integer counts of ordered boundary pairs by (distance, h).

    Shape (2n+1, n+1); rate-independent, so one census serves every beta.
    A root-fixing automorphism preserves both distance and root depth, so
    sources in one orbit of g.symmetries have equal rows: only the smallest
    id of each boundary orbit is walked, and its row counts orbit-size times.
    """
    boundary = np.array(boundary_nodes(g, n), dtype=np.int64)
    depth = np.array(g.depth, dtype=np.int64)
    label = _orbit_labels(g.node_count, g.symmetries)
    width = n + 1
    size = (2 * n + 1) * width
    total = np.zeros(size, dtype=np.int64)
    for sources, orbit_size, dist, levels in _walks(g, boundary, label, 2 * n):
        rows = sources.size
        md = np.tile(depth, rows)
        for below, src, tgt, _ in levels:
            np.minimum.at(md, tgt, md[below[src]])
        slots = (np.arange(rows) * g.node_count)[:, None] + boundary
        keys = dist[slots] * width + md[slots] + (np.arange(rows) * size)[:, None]
        counts = np.bincount(keys.ravel(), minlength=rows * size).reshape(rows, size)
        total += (counts * orbit_size[:, None]).sum(0)
    return total.reshape(2 * n + 1, width)


@dataclass(frozen=True)
class TrafficReport:
    """Traffic totals at depth n: T and the prefix vector T_r."""

    n: int
    T: float
    T_r: tuple

    def ratio(self, r: int) -> float:
        if not 0 <= r <= self.n:
            raise ValueError(f"r must be in [0, {self.n}], got {r}")
        return self.T_r[r] / self.T


def _fsum(terms, n: int) -> float:
    """math.fsum of non-negative traffic terms at depth n; raises
    TrafficOverflow where the sum passes float64's range, since every such
    sum is at most T."""
    try:
        total = math.fsum(terms)
    except OverflowError:  # a partial sum passed float64's range
        total = math.inf
    if total == math.inf:
        raise TrafficOverflow(f"T at depth {n} overflows float64; the rates are too large")
    return total


def traffic_totals(census: np.ndarray, f) -> TrafficReport:
    """T and T_r, diagonal included, from a depth-n census (2n+1, n+1) and rate f.

    A pair's full rate lands in T_r as soon as its minimum-depth geodesic
    enters B(root, r). Sums use math.fsum in a fixed (h, d) term order, so
    T_r[n] == T exactly.
    """
    n = census.shape[1] - 1
    # Python floats, so a product past float64's range is inf without a warning
    rates = rate_table(f, census.shape[0] - 1).tolist()

    terms = []  # ordered by (h, then d); prefixes give T_r
    t_r = []
    for h in range(n + 1):
        col = census[:, h]
        (nz,) = col.nonzero()
        terms.extend(float(col[d]) * rates[d] for d in nz)
        t_r.append(_fsum(terms, n))
    return TrafficReport(n=n, T=t_r[-1], T_r=tuple(t_r))


def _kahan(total, carry, x):
    """One compensated add: (total + x, the new compensation term). Arrays
    are added elementwise and never changed in place."""
    y = x - carry
    t = total + y
    return t, (t - total) - y


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

    The body runs under one floating-point error scope: a geodesic count or
    a load past float64's range raises TrafficOverflow. Counts past 2^53
    round, and each ratio of counts then carries a float64 rounding error.
    """
    boundary = np.array(boundary_nodes(g, n), dtype=np.int64)
    label = _orbit_labels(g.node_count, g.symmetries)
    rates = rate_table(f, 2 * n)
    nn = g.node_count
    total = carry = acc = comp = np.zeros(nn)
    done = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for sources, orbit_size, dist, levels in _walks(g, boundary, label, 2 * n):
                rows = sources.size
                start = np.arange(rows, dtype=np.int64) * nn + sources
                sigma = np.zeros(rows * nn)
                sigma[start] = 1.0
                for below, src, tgt, _ in levels:
                    np.add.at(sigma, tgt, sigma[below[src]])
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
                    delta.flat[start] = [_fsum(row, n) for row in ends]
                    delta[:, boundary] += ends
                delta *= orbit_size[:, None]
                # Kahan sum over each group of _KAHAN_GROUP sources in boundary
                # order, then a compensated fold of the group sums; an inf
                # that np.bincount let through turns into inf - inf here
                for row in delta:
                    acc, comp = _kahan(acc, comp, row)
                    done += 1
                    if done % _KAHAN_GROUP == 0:
                        total, carry = _kahan(*_kahan(total, carry, acc), -comp)
                        acc = comp = np.zeros(nn)
            if done % _KAHAN_GROUP:
                total, carry = _kahan(*_kahan(total, carry, acc), -comp)
            mean = np.bincount(label, weights=total)[label] / np.bincount(label)[label]
    except FloatingPointError as exc:
        raise TrafficOverflow(
            f"node loads at depth {n} overflow float64 ({exc}); "
            "the geodesic counts or the rates are too large"
        ) from None
    return tuple(float(x) for x in mean)


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless the core tolerance epsilon is in (0,1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")


def core_radius(report: TrafficReport, epsilon: float) -> int:
    """Minimal r with T_r / T >= 1 - epsilon."""
    check_epsilon(epsilon)
    threshold = 1.0 - epsilon
    for r in range(report.n + 1):
        if report.ratio(r) >= threshold:
            return r
    return report.n
