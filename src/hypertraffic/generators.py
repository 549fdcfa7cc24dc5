"""Deterministic graph family constructors: k-ary trees, (p,q) tessellation
balls, square-grid controls, and edge-list ingestion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tessellation
from .errors import EvenSide, ParseError, SizeOverflow
from .graphs import Graph, build_graph, node_cap, with_found_symmetries


@dataclass(frozen=True)
class FamilySpec:
    """Parameters naming one generated graph family.

    variant is one of "tree" (k, root_degree), "tessellation" (p, q),
    "grid" (side) or "edge_list" (source path); depth is the truncation
    radius for tree/tessellation and ignored by grid and edge_list.
    """

    variant: str
    depth: int = 0
    k: int | None = None
    root_degree: int | None = None
    p: int | None = None
    q: int | None = None
    side: int | None = None
    source: str | None = None

    @property
    def has_depth(self) -> bool:
        """False for a grid or an edge list: one graph serves every depth."""
        return self.variant in ("tree", "tessellation")

    def descriptor(self) -> dict:
        out = {"variant": self.variant}
        for key in ("k", "root_degree", "p", "q", "side", "source"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.has_depth:
            out["depth"] = self.depth
        return out


def gen_kary_tree(k: int, depth: int, root_degree: int | None = None) -> Graph:
    """Rooted tree: root has `root_degree` children (default k), every other
    internal node has k children, leaves at distance `depth`.

    Nodes are numbered in BFS order, so layer t occupies a contiguous range.
    The graph carries the odometer as its one symmetry, which is transitive
    on every layer.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if root_degree is None:
        root_degree = k
    if root_degree < 1:
        raise ValueError(f"root_degree must be >= 1, got {root_degree}")

    cap = node_cap()
    total = 1
    width = root_degree
    for _ in range(depth):
        total += width
        if total > cap:
            raise SizeOverflow(f"tree k={k} depth={depth} exceeds node cap {cap}")
        width *= k
    if depth == 0:
        return build_graph([], 0)

    # the parent of node v > root_degree is 1 + (v - 1 - root_degree) // k
    parents = np.concatenate([
        np.zeros(root_degree, dtype=np.int64),
        np.arange(total - 1 - root_degree, dtype=np.int64) // k + 1,
    ])
    edges = np.stack([parents, np.arange(1, total, dtype=np.int64)], axis=1)
    return build_graph(edges, 0, [_odometer(k, depth, root_degree)])


def _odometer(k: int, depth: int, root_degree: int) -> np.ndarray:
    """The tree's odometer (adding machine) as a permutation of node ids: a
    root-fixing automorphism with one cycle per layer.

    Read a node's path from the root as a numeral with radices (root_degree,
    k, ..., k), its level-1 digit least significant; the odometer adds 1
    with carry. In layer positions, level l maps by [W, root_degree*W) ++
    O_(l-1) with W = k^(l-1): a node moves to the same place under the next
    root child, and one under the last root child wraps to the first while
    its lower digits turn by the k-ary odometer O_j = [k^(j-1), k^j) ++
    O_(j-1), O_0 = [0].
    """
    perm = [np.zeros(1, dtype=np.int64)]
    inner = np.zeros(1, dtype=np.int64)  # O_(l-1)
    first = 1
    for level in range(1, depth + 1):
        width = k ** (level - 1)
        perm.append(first + np.concatenate([
            np.arange(width, root_degree * width, dtype=np.int64), inner,
        ]))
        first += root_degree * width
        inner = np.concatenate([np.arange(width, k * width, dtype=np.int64), inner])
    return np.concatenate(perm)


def gen_tessellation(p: int, q: int, depth: int) -> Graph:
    """Ball of radius `depth` in the tessellation by p-gons with vertex
    degree q; requires (p-2)(q-2) > 4. The graph carries the ball's rotation
    and reflection about the root as symmetries."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    edges, symmetries = tessellation.build_ball(p, q, depth)
    return build_graph(edges, 0, symmetries)


def gen_grid(side: int) -> Graph:
    """side x side square lattice with 4-neighbor adjacency, rooted at the
    center; side must be odd so the center exists. The graph carries a
    quarter turn and a mirror about the center, which generate D4."""
    if side < 1:
        raise ValueError(f"side must be >= 1, got {side}")
    if side % 2 == 0:
        raise EvenSide(f"side must be odd, got {side}")
    cap = node_cap()
    if side * side > cap:
        raise SizeOverflow(f"grid side {side} exceeds node cap {cap}")
    if side == 1:
        return build_graph([], 0)
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    # each node to its right and its lower neighbour
    edges = np.concatenate([
        np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
        np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1),
    ])
    # (i, j) -> (j, side-1-i) and (i, j) -> (i, side-1-j) generate D4
    symmetries = (np.rot90(ids).ravel(), ids[:, ::-1].ravel())
    return build_graph(edges, (side * side) // 2, symmetries)


def load_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" pairs; '#' starts a comment, and a
    "# root R" comment sets the root (default 0). build_graph refuses an id
    at or above node_cap(), or one below the largest id that no edge or the
    root names, before it allocates per node. The graph carries the
    root-fixing automorphisms graphs.find_symmetries verifies."""
    root = 0
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            tokens = line[1:].split()
            if len(tokens) == 2 and tokens[0] == "root":
                try:
                    root = int(tokens[1])
                except ValueError:
                    raise ParseError(f"bad root directive {line!r}", lineno) from None
            continue
        if "#" in line:
            line = line[: line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) % 2 != 0:
            raise ParseError(f"odd token count in {raw!r}", lineno)
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"non-integer token in {raw!r}", lineno) from None
        edges.extend(zip(values[0::2], values[1::2]))
    return with_found_symmetries(build_graph(edges, root))


def family_graph(spec: FamilySpec, depth: int | None = None) -> Graph:
    """Instantiate a FamilySpec, optionally overriding its depth."""
    d = spec.depth if depth is None else depth
    if spec.variant == "tree":
        return gen_kary_tree(spec.k, d, spec.root_degree)
    if spec.variant == "tessellation":
        return gen_tessellation(spec.p, spec.q, d)
    if spec.variant == "grid":
        return gen_grid(spec.side)
    if spec.variant == "edge_list":
        with open(spec.source, encoding="utf-8") as fh:
            return load_edge_list(fh.read())
    raise ValueError(f"unknown family variant {spec.variant!r}")
