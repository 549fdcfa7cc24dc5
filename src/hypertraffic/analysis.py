"""Growth-exponent estimation, the critical rate threshold, exact rooted-tree
traffic formulas, and the beta-sweep harness that locates the local/global
transition empirically."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    EmptyBoundary,
    EmptySphere,
    HypertrafficError,
    SizeOverflow,
    WindowTooLarge,
)
from .generators import FamilySpec, family_graph
from .traffic import ExponentialRate, pair_census, traffic_totals

GLOBAL, LOCAL, UNDECIDED = "GLOBAL", "LOCAL", "UNDECIDED"

MONOTONE_TOL = 1e-9
DEFAULT_TAIL = 3
DEFAULT_TAU_GLOBAL = 0.25
DEFAULT_TAU_LOCAL = 0.05


@dataclass(frozen=True)
class GrowthEstimate:
    """Two estimators of the exponential growth rate of ball sizes.

    e_ratio averages ln(|S_t| / |S_t-1|) over the trailing window and is the
    primary estimate (sphere ratios cancel the ball's additive constant);
    e_slope is the least-squares slope of ln|B(R)| over the same radii, kept
    as a diagnostic. Both are clipped at zero: balls never shrink, so the
    exponent is non-negative even when a truncated family's outer spheres do.
    """

    sphere_sizes: tuple
    e_slope: float
    e_ratio: float
    window: int


def default_window(sphere_sizes) -> int:
    """Trailing window covering the last half of the available ratios."""
    return max(2, (len(sphere_sizes) - 1) // 2)


def growth_exponent(sphere_sizes, window: int = None) -> GrowthEstimate:
    """Estimates over the trailing `window` ratios, default_window if None.
    With no window given, fewer than 3 spheres leave no ratio window to fit,
    and the ball grows at rate 0 (window 0)."""
    sizes = [int(s) for s in sphere_sizes]
    num_ratios = len(sizes) - 1
    if window is None:
        if num_ratios < 2:
            return GrowthEstimate(tuple(sizes), e_slope=0.0, e_ratio=0.0, window=0)
        window = default_window(sizes)
    if window < 2 or window > num_ratios:
        raise WindowTooLarge(
            f"window {window} not in [2, {num_ratios}] for {len(sizes)} spheres"
        )
    tail = sizes[-(window + 1):]
    if any(s <= 0 for s in tail):
        raise EmptySphere(f"non-positive sphere size in window: {tail}")

    log_ratios = [math.log(b / a) for a, b in zip(tail, tail[1:])]
    e_ratio = max(0.0, math.fsum(log_ratios) / window)

    balls = []
    acc = 0
    for s in sizes:
        acc += s
        balls.append(acc)
    ys = [math.log(b) for b in balls[-(window + 1):]]
    xs = list(range(len(balls) - window - 1, len(balls)))
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    e_slope = max(0.0, sxy / sxx)
    return GrowthEstimate(
        sphere_sizes=tuple(sizes), e_slope=e_slope, e_ratio=e_ratio, window=window
    )


def beta_c(e: float) -> float:
    """Critical rate base e^(e/2); rates decaying slower stay global."""
    if e < 0:
        raise ValueError(f"growth exponent must be >= 0, got {e}")
    return math.e ** (e / 2.0)


def tree_closed_forms(k: int, beta: float, n: int) -> dict:
    """Exact total traffic T and root share P for the rooted k-ary tree.

    T = N (1 + (k-1) S) with N = k^n leaves and S the sum of
    k^i beta^(-2(i+1)) over i < n; P = (k-1) k^(n-1) beta^(-2n) / (1 + (k-1) S).
    math.fsum rounds S correctly from its float terms, so one expression
    holds at every beta, beta^2 = k included.
    """
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    if not beta > 1.0:
        raise ValueError(f"beta must be > 1, got {beta}")
    s = math.fsum(k**i * beta ** (-2.0 * (i + 1)) for i in range(n))
    denom = 1.0 + (k - 1) * s
    total = float(k**n) * denom
    share = (k - 1) * float(k ** (n - 1)) * beta ** (-2.0 * n) / denom
    return {"T": total, "P": share}


def classify_transition(ratios, tail: int = DEFAULT_TAIL,
                        tau_g: float = DEFAULT_TAU_GLOBAL,
                        tau_l: float = DEFAULT_TAU_LOCAL) -> str:
    """Finite-depth phase label from T_r/T along increasing depths; fewer
    than `tail` ratios are UNDECIDED."""
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    ratios = list(ratios)
    if len(ratios) < tail:
        return UNDECIDED
    window = ratios[-tail:]
    non_decreasing = all(b >= a - MONOTONE_TOL for a, b in zip(window, window[1:]))
    non_increasing = all(b <= a + MONOTONE_TOL for a, b in zip(window, window[1:]))
    final = ratios[-1]
    if non_decreasing and final >= tau_g:
        return GLOBAL
    if non_increasing and final <= tau_l:
        return LOCAL
    return UNDECIDED


@dataclass(frozen=True)
class TransitionReport:
    betas: tuple
    depths: tuple
    cells: dict        # (beta, n) -> {"T": .., "T_r": .., "ratio": ..}
    errors: dict       # n -> message
    growth: GrowthEstimate
    beta_c_pred: float
    labels: dict       # beta -> GLOBAL | LOCAL | UNDECIDED
    beta_c_emp: float = None


def _empirical_crossing(betas, labels):
    glob = [b for b in betas if labels.get(b) == GLOBAL]
    loc = [b for b in betas if labels.get(b) == LOCAL]
    if glob and loc and max(glob) < min(loc):
        return (max(glob) + min(loc)) / 2.0
    return None


def sweep(spec: FamilySpec, betas, depths, r: int, rate=ExponentialRate,
          tail: int = DEFAULT_TAIL, tau_g: float = DEFAULT_TAU_GLOBAL,
          tau_l: float = DEFAULT_TAU_LOCAL) -> TransitionReport:
    """Grid of T_r/T over (beta, depth) with per-beta phase labels.

    `rate(beta)` builds each rate, and checks its range, before any graph
    is built. Graphs are built once per depth (once, before the depths, for
    a grid or an edge list), and each depth's pair census alone gives the
    totals for every beta. A depth past the node cap (SizeOverflow) or past
    the graph's rim (EmptyBoundary) is recorded, and after an overflow every
    deeper depth is recorded with its message unbuilt; any other error ends
    the sweep.
    """
    betas = tuple(float(b) for b in betas)
    depths = tuple(int(n) for n in depths)
    if list(depths) != sorted(set(depths)):
        raise ValueError("depths must be strictly ascending")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail}")
    for name, tau in (("tau_g", tau_g), ("tau_l", tau_l)):
        if not math.isfinite(tau):
            raise ValueError(f"{name} must be finite, got {tau}")
    if any(n <= r for n in depths):
        raise ValueError(f"all depths must exceed r={r}")
    if list(betas) != sorted(set(betas)):
        raise ValueError("betas must be strictly ascending")
    rates = [rate(b) for b in betas]

    cells = {}
    errors = {}
    deepest_graph = None
    shared = None if spec.has_depth else family_graph(spec)
    overflow = None
    for n in depths:
        if overflow is not None:
            errors[n] = overflow
            continue
        try:
            g = family_graph(spec, depth=n) if shared is None else shared
            census = pair_census(g, n)
        except SizeOverflow as exc:
            # a deeper tree has more nodes, a deeper map holds this map's wheels: both overflow
            errors[n] = overflow = str(exc)
            continue
        except EmptyBoundary as exc:
            errors[n] = str(exc)
            continue
        deepest_graph = g
        for b, f in zip(betas, rates):
            rep = traffic_totals(census, f)
            cells[(b, n)] = {"T": rep.T, "T_r": rep.T_r[r], "ratio": rep.ratio(r)}

    if deepest_graph is None:
        detail = "; ".join(str(m) for m in errors.values()) or "no depths built"
        raise HypertrafficError(f"every depth failed: {detail}")

    growth = growth_exponent([len(layer) for layer in deepest_graph.layers])
    pred = beta_c(growth.e_ratio)

    labels = {
        b: classify_transition([cells[(b, n)]["ratio"] for n in depths if (b, n) in cells],
                               tail=tail, tau_g=tau_g, tau_l=tau_l)
        for b in betas
    }

    return TransitionReport(
        betas=betas, depths=depths, cells=cells, errors=errors,
        growth=growth, beta_c_pred=pred, labels=labels,
        beta_c_emp=_empirical_crossing(betas, labels),
    )
