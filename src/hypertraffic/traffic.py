"""Geodesic traffic between boundary spheres: totals, ball traffic, loads.

All pair sums are ordered and include the diagonal. Geometry (distances,
geodesic counts, minimum depth over geodesics) is computed once per source
from the levels of graphs._walk, the package's one BFS over a Graph, into an
integer census over (distance, h) pairs; T and T_r are a pure function of the
census and a per-distance table of the rate. _walk reads each level's
neighbours from the Graph's fixed-width neighbour pages (graphs._pages), and
lists its BFS-DAG edges by source, then in adjacency order, whatever the
page layout. Every walk from a source on S_n stops at distance 2n, since any
two nodes of S_n are joined through the root: no pair is farther apart.

The census and the node loads walk one source per orbit of the graph's
checked root-fixing symmetries (the dihedral group about the root for
tessellation balls, D4 for grids, the odometer for trees, and whatever
graphs.find_symmetries verifies for a loaded graph) and weight each row by
its orbit size: in exact integers for the census, and for loads followed by
a mean over each node orbit. A graph without symmetries, such as one built
directly by build_graph, walks every source and sums its loads in boundary
order.

Determinism: one batched _walk takes many boundary sources together. Each
source sees its frontier in ascending node order, exactly as a walk from that
source alone would, so geodesic counts and dependency sums are bit-identical
for every batch size. Node loads are folded in boundary order with
compensated accumulation. A deep pass splits its walked sources into
contiguous parts and walks all but the first in forked worker processes
(_split, _fan_out): the census adds integers, and the loads fold the same
groups of rows in the same order, so the bytes equal the serial walk's for
every worker count.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBoundary, InvalidRate, TrafficOverflow, WorkerFailed
from .graphs import Graph, _orbit_labels, _walk

_BATCH_SLOTS = 1 << 14  # slots (source x node) per batch of the walk
_FORK_WORK = 1 << 18  # directed-edge visits each process needs before a pass splits
_KAHAN_GROUP = 64
_RELAYED = 4  # a worker's exit status when it sends back a TrafficOverflow
_SIGKILL = 9  # signal.SIGKILL, whose module the CLI does not otherwise load


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


def boundary_nodes(g: Graph, n: int) -> np.ndarray:
    if n < 0 or n > g.max_depth:
        raise EmptyBoundary(f"no nodes at depth {n}; graph has max depth {g.max_depth}")
    return g.layers[n]


def _orbits(g: Graph, boundary: np.ndarray, label: np.ndarray) -> tuple:
    """(reps, orbit_size): the smallest id of each boundary orbit under the
    orbit labels `label`, ascending, and per node the size of the boundary
    orbit it represents (0 for a node that represents none)."""
    orbit_size = np.bincount(label[boundary], minlength=g.node_count)
    return np.flatnonzero(orbit_size), orbit_size


def _walks(g: Graph, reps: np.ndarray, orbit_size: np.ndarray, reach: int):
    """Walk the sources `reps`, in order, in batches of about _BATCH_SLOTS
    slots.

    Yields (sources, orbit_size[sources], dist, levels) per batch: the
    batch's sources, the size of each source's boundary orbit, and
    graphs._walk's (dist, levels) on g.pages out to distance `reach`.
    """
    size = max(1, _BATCH_SLOTS // g.node_count)
    for i in range(0, reps.size, size):
        sources = reps[i : i + size]
        yield (sources, orbit_size[sources], *_walk(g.pages, sources, reach))


def _split(g: Graph, reps: np.ndarray, unit: int) -> list:
    """reps cut into contiguous parts, one per process, every part but the
    last a multiple of `unit` sources long.

    A pass splits only when each part gets at least _FORK_WORK
    directed-edge visits (sources walked x directed edges), onto at most
    one process per CPU this process may run on, and never while another
    thread runs: a forked child holds only the forking thread, so a lock
    another thread held would stay locked in it.
    """
    edges = g.csr[2].size
    groups = -(-reps.size // unit)
    most = min(len(os.sched_getaffinity(0)), reps.size * edges // _FORK_WORK, groups)
    if threading.active_count() > 1:
        most = 1
    for procs in range(most, 1, -1):
        parts = np.split(reps, [groups * i // procs * unit for i in range(1, procs)])
        if min(part.size for part in parts) * edges >= _FORK_WORK:
            return parts
    return [reps]


def _fan_out(parts: list, walk, take, like: np.ndarray) -> None:
    """Run walk(part, take) on every part, handing take the items of each
    part after those of every earlier part. Each item is an array shaped
    and typed like `like`.

    The first part runs here. Every other part runs in a child made by
    os.fork, whose take keeps its items; the child then writes them back
    through a pipe as raw bytes and ends with os._exit, so it never runs on
    into the caller. A TrafficOverflow in a child is raised here, by name
    and message, after its items that came before it; any other failure of
    a child raises WorkerFailed, never a partial result. Every child is
    killed and reaped before this returns or raises.
    """
    children = []
    try:
        for part in parts[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(walk, part, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        walk(parts[0], take)
        for index, (pid, fd) in enumerate(list(children), 2):
            chunks = []
            while chunk := os.read(fd, 1 << 20):
                chunks.append(chunk)
            status = os.waitpid(pid, 0)[1]
            children.remove((pid, fd))
            os.close(fd)
            items, message = _received(b"".join(chunks), status, like, f"{index} of {len(parts)}")
            for item in items:
                take(item)
            if message:
                raise TrafficOverflow(message)
    finally:
        for pid, fd in children:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def _work(walk, part: np.ndarray, fd: int):
    """A child's side of _fan_out: walk the part, then write to fd the
    number of items (8 bytes), the items, and a TrafficOverflow's message,
    if one stopped the walk. Never returns."""
    items = []
    status = 1
    try:
        try:
            walk(part, items.append)
            message = b""
        except TrafficOverflow as exc:
            message = str(exc).encode()
        for chunk in (len(items).to_bytes(8, "little"), *items, message):
            view = memoryview(chunk).cast("B")
            while view:
                view = view[os.write(fd, view) :]
        status = _RELAYED if message else 0
    finally:
        try:
            if status == 1:  # an exception is on its way out: name it
                os.write(2, f"worker {os.getpid()}: {sys.exc_info()[1]!r}\n".encode())
        finally:
            os._exit(status)


def _received(payload: bytes, status: int, like: np.ndarray, part: str) -> tuple:
    """(items, message) from a child's payload and wait status; raises
    WorkerFailed unless the child exited 0 with exactly its items, or with
    _RELAYED and a message after them."""
    code = os.waitstatus_to_exitcode(status)
    count = int.from_bytes(payload[:8], "little")
    end = 8 + count * like.nbytes
    message = payload[end:].decode(errors="replace")
    if code not in (0, _RELAYED) or len(payload) < end or bool(message) != (code == _RELAYED):
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise WorkerFailed(
            f"worker failed: the process walking part {part} of the boundary {how} "
            f"after sending {len(payload)} bytes"
        )
    items = np.frombuffer(payload, like.dtype, count * like.size, 8)
    return items.reshape(count, *like.shape), message


def pair_census(g: Graph, n: int) -> np.ndarray:
    """Integer counts of ordered boundary pairs by (distance, h).

    Shape (2n+1, n+1); rate-independent, so one census serves every beta.
    A root-fixing automorphism preserves both distance and root depth, so
    sources in one orbit of g.symmetries have equal rows: only the smallest
    id of each boundary orbit is walked, and its row counts orbit-size times.
    """
    boundary = boundary_nodes(g, n)
    reps, orbit_size = _orbits(g, boundary, _orbit_labels(g.node_count, g.symmetries))
    width = n + 1
    size = (2 * n + 1) * width

    def walk(part, take):
        total = np.zeros(size, dtype=np.int64)
        for sources, orbits, dist, levels in _walks(g, part, orbit_size, 2 * n):
            rows = sources.size
            md = np.tile(g.depth, rows)
            for below, src, tgt in levels:
                np.minimum.at(md, tgt, md[below[src]])
            slots = (np.arange(rows) * g.node_count)[:, None] + boundary
            keys = dist[slots] * width + md[slots] + (np.arange(rows) * size)[:, None]
            counts = np.bincount(keys.ravel(), minlength=rows * size).reshape(rows, size)
            total += (counts * orbits[:, None]).sum(0)
        take(total)

    totals = []
    _fan_out(_split(g, reps, 1), walk, totals.append, np.zeros(size, dtype=np.int64))
    return np.sum(totals, axis=0).reshape(2 * n + 1, width)


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

    The walk and the fold run under one floating-point error scope: a
    geodesic count or a load past float64's range raises TrafficOverflow.
    Counts past 2^53 round, and each ratio of counts then carries a float64
    rounding error. A deep pass splits on multiples of _KAHAN_GROUP walked
    sources, so each group sums the same rows as the serial walk, and the
    groups are folded here in boundary order.
    """
    boundary = boundary_nodes(g, n)
    label = _orbit_labels(g.node_count, g.symmetries)
    reps, orbit_size = _orbits(g, boundary, label)
    rates = rate_table(f, 2 * n)
    nn = g.node_count

    def walk(part, take):
        """Hand take a Kahan sum (acc, comp) over each group of
        _KAHAN_GROUP rows of the part, in boundary order."""
        acc = comp = np.zeros(nn)
        done = 0
        with _load_errors(n):
            for sources, orbits, dist, levels in _walks(g, part, orbit_size, 2 * n):
                rows = sources.size
                start = np.arange(rows, dtype=np.int64) * nn + sources
                sigma = np.zeros(rows * nn)
                sigma[start] = 1.0
                for below, src, tgt in levels:
                    np.add.at(sigma, tgt, sigma[below[src]])
                weight = np.zeros((rows, nn))
                weight[:, boundary] = rates[dist.reshape(rows, nn)[:, boundary]]
                weight.flat[start] = 0.0
                weight = weight.ravel()
                delta = np.zeros(rows * nn)
                for below, src, tgt in reversed(levels):
                    coef = (weight[tgt] + delta[tgt]) / sigma[tgt]
                    sums = np.bincount(src, weights=coef, minlength=below.size)
                    delta[below] = sigma[below] * sums
                delta[start] = 0.0
                delta = delta.reshape(rows, nn)
                if include_endpoints:
                    ends = weight.reshape(rows, nn)[:, boundary]
                    delta.flat[start] = [_fsum(row, n) for row in ends]
                    delta[:, boundary] += ends
                delta *= orbits[:, None]
                for row in delta:
                    acc, comp = _kahan(acc, comp, row)
                    done += 1
                    if done % _KAHAN_GROUP == 0:
                        take(np.stack((acc, comp)))
                        acc = comp = np.zeros(nn)
            if done % _KAHAN_GROUP:
                take(np.stack((acc, comp)))

    total = carry = np.zeros(nn)

    def fold(group):
        # a compensated fold of the group sums in boundary order; an inf
        # that np.bincount let through turns into inf - inf here
        nonlocal total, carry
        total, carry = _kahan(*_kahan(total, carry, group[0]), -group[1])

    with _load_errors(n):
        _fan_out(_split(g, reps, _KAHAN_GROUP), walk, fold, np.zeros((2, nn)))
        mean = np.bincount(label, weights=total)[label] / np.bincount(label)[label]
    return tuple(float(x) for x in mean)


@contextlib.contextmanager
def _load_errors(n: int):
    """The floating-point error scope of a load pass at depth n: an
    overflow or an invalid value raises TrafficOverflow."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise TrafficOverflow(
            f"node loads at depth {n} overflow float64 ({exc}); "
            "the geodesic counts or the rates are too large"
        ) from None


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
