"""Batch command-line front end: generate, analyze, traffic, sweep, tree-oracle.

Exit codes: 0 on success, 2 for flag errors (argparse), 3 when a package
invariant or engine error is raised; the message on stderr names it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# One OS thread per run: the package makes no BLAS call, so numpy's OpenBLAS
# thread only burns CPU, and a split pass forks from this process. Set before
# the imports below load numpy; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import analysis, generators, graphs, serialize, traffic
from .errors import GraphTooLarge, HypertrafficError, MalformedEdge


_THREADS_HELP = (
    "accepted for compatibility and ignored: a deep census or load pass "
    "splits its sources across the CPUs by itself, with the bytes of a "
    "single-process run"
)


# the flags that name files, by argparse dest: what a command writes, and
# what it reads
_OUTPUTS = ("out", "loads_out", "summary_out")
_INPUTS = ("graph", "path")

# per --family: the FamilySpec variant, the flags it takes, and the flags it
# needs, grouped as its refusal names them
_FAMILIES = (
    ("tree", "tree", ("k", "root_degree", "depth"), (("depth",), ("k",))),
    ("tess", "tessellation", ("p", "q", "depth"), (("depth",), ("p", "q"))),
    ("grid", "grid", ("side",), (("side",),)),
    ("edges", "edge_list", ("path",), (("path",),)),
)


def _family_from_args(args, takes_depth=True) -> generators.FamilySpec:
    """The family spec the flags name. A flag the family does not take, or
    --depth where the command takes --depths, is refused, not ignored."""
    fam = args.family
    variant, takes, needs = next(row[1:] for row in _FAMILIES if row[0] == fam)
    given = {}
    for name in ("k", "root_degree", "p", "q", "depth", "side", "path"):
        if getattr(args, name) is None:
            continue
        flag = "--" + name.replace("_", "-")
        if name not in takes:
            raise HypertrafficError(f"{fam} family does not take {flag}")
        if name == "depth" and not takes_depth:
            raise HypertrafficError(f"{args.command} of the {fam} family takes --depths, not {flag}")
        given[name] = getattr(args, name)
    for group in needs:
        if not given.keys() >= set(group) and (takes_depth or group != ("depth",)):
            raise HypertrafficError(f"{fam} family needs " + " and ".join("--" + n for n in group))
    given["source"] = given.pop("path", None)
    return generators.FamilySpec(variant=variant, **given)


def _add_family_flags(parser):
    parser.add_argument("--family", required=True, choices=["tree", "tess", "grid", "edges"])
    parser.add_argument("--k", type=int)
    parser.add_argument("--root-degree", type=int, default=None)
    parser.add_argument("--p", type=int)
    parser.add_argument("--q", type=int)
    parser.add_argument("--depth", type=int)
    parser.add_argument("--side", type=int)
    parser.add_argument("--path")


def _check_paths(args):
    """Refuse, before any input is read, an output that is empty, names a
    directory or sits in a missing one, and an output that names another
    output or an input: the first three would fail only after the work, the
    last would overwrite a file."""

    def named(dests):
        return [("--" + d.replace("_", "-"), getattr(args, d)) for d in dests
                if getattr(args, d, None) is not None]

    outputs, inputs = named(_OUTPUTS), named(_INPUTS)
    for i, (flag, path) in enumerate(outputs):
        if not path:
            raise HypertrafficError(f"{flag} is empty")
        if os.path.isdir(path):
            raise HypertrafficError(f"{flag} {path}: is a directory")
        folder = os.path.dirname(path) or os.curdir
        if not os.path.isdir(folder):
            raise HypertrafficError(f"{flag} {path}: no directory {folder}")
        for other, other_path in outputs[:i] + inputs:
            if (os.path.samefile(path, other_path)
                    if os.path.exists(path) and os.path.exists(other_path)
                    else os.path.realpath(path) == os.path.realpath(other_path)):
                raise HypertrafficError(f"{flag} and {other} name one file: {path}")


def _load_graph(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise MalformedEdge(f"{path}: JSON nested too deeply") from None
    return graphs.graph_from_json_dict(doc)


def _rate_from_args(args):
    chosen = [x for x in (args.beta, args.alpha, args.table) if x is not None]
    if len(chosen) != 1:
        raise HypertrafficError("give exactly one of --beta, --alpha, --table")
    if args.beta is not None:
        return traffic.ExponentialRate(args.beta)
    if args.alpha is not None:
        return traffic.PolynomialRate(args.alpha)
    return traffic.TableRate(_numbers("--table", args.table, float))


def _numbers(flag, text, kind):
    """The comma-separated values of `flag` as `kind`, or an error naming it."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise HypertrafficError(
            f"{flag} takes comma-separated {kind.__name__}s, got {text!r}"
        ) from None


def cmd_generate(args):
    spec = _family_from_args(args)
    g = generators.family_graph(spec)
    doc = graphs.graph_to_json_dict(g, family=spec.descriptor())
    serialize.write_text(args.out, serialize.dumps(doc) + "\n")
    print(f"wrote {args.out}: {g.node_count} nodes, max depth {g.max_depth}")
    return 0


def cmd_analyze(args):
    graphs.check_four_point_cap(args.four_point_cap)
    g = _load_graph(args.graph)
    spheres = [len(layer) for layer in g.layers]
    est = analysis.growth_exponent(spheres, args.window)
    pred = analysis.beta_c(est.e_ratio)
    try:
        delta = graphs.four_point_delta(g, cap=args.four_point_cap)
    except GraphTooLarge:
        delta = None
    doc = {
        "spheres": spheres,
        "window": est.window,
        "e_ratio": est.e_ratio,
        "e_slope": est.e_slope,
        "beta_c_pred": pred,
        "delta_four_point": delta,
    }
    serialize.write_text(args.out, serialize.dumps(doc) + "\n")
    print(f"e_ratio {est.e_ratio:.6f}  beta_c_pred {pred:.6f}")
    return 0


def cmd_traffic(args):
    if args.include_endpoints and not args.loads_out:
        raise HypertrafficError("--include-endpoints needs --loads-out: it changes only the loads")
    rate = _rate_from_args(args)
    traffic.check_epsilon(args.epsilon)
    g = _load_graph(args.graph)
    n = args.n if args.n is not None else g.max_depth
    if args.r is not None and not 0 <= args.r <= n:
        raise HypertrafficError(f"--r must be in [0, {n}], got {args.r}")
    report = traffic.traffic_totals(traffic.pair_census(g, n), rate)
    core = traffic.core_radius(report, args.epsilon)
    doc = {
        "n": n,
        "rate": rate.descriptor(),
        "T": report.T,
        "T_r": list(report.T_r),
        "core": {"epsilon": args.epsilon, "r": core},
    }
    serialize.write_text(args.out, serialize.dumps(doc) + "\n")
    line = f"T {serialize.fmt_float(report.T)}  core radius {core} at epsilon {args.epsilon}"
    if args.r is not None:
        line += f"  T_{args.r}/T {report.ratio(args.r):.6f}"
    print(line)
    if args.loads_out:
        loads = traffic.node_loads(g, rate, n, include_endpoints=args.include_endpoints)
        rows = [
            f"{v},{d},{serialize.fmt_float(x)}"
            for v, (d, x) in enumerate(zip(g.depth.tolist(), loads))
        ]
        serialize.write_text(args.loads_out, serialize.csv_lines("node,depth,load", rows))
    return 0


def _beta_grid(lo, hi, steps):
    if steps < 1 or hi < lo:
        raise HypertrafficError("bad beta grid")
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def cmd_sweep(args):
    spec = _family_from_args(args, takes_depth=False)
    betas = _beta_grid(args.beta_min, args.beta_max, args.steps)
    depths = _numbers("--depths", args.depths, int)
    report = analysis.sweep(
        spec, betas, depths, args.r,
        tail=args.tail, tau_g=args.tau_global, tau_l=args.tau_local,
    )

    family = spec.descriptor()
    p_or_k = next((family[key] for key in ("p", "k", "side") if key in family), 0)
    q_col = family.get("q", "")
    rows = []
    for b in report.betas:
        for n in report.depths:
            cell = report.cells.get((b, n))
            if cell is None:
                t = tr = ratio = ""
            else:
                t = serialize.fmt_float(cell["T"])
                tr = serialize.fmt_float(cell["T_r"])
                ratio = serialize.fmt_float(cell["ratio"])
            rows.append(
                f"{spec.variant},{p_or_k},{q_col},{serialize.fmt_float(b)},{n},"
                f"{args.r},{t},{tr},{ratio},{report.labels[b]}"
            )
    serialize.write_text(
        args.out,
        serialize.csv_lines("family,p_or_k,q,beta,n,r,T,T_r,ratio,label", rows),
    )

    summary = {
        "family": family,
        "r": args.r,
        "betas": list(report.betas),
        "depths": list(report.depths),
        "spheres": list(report.growth.sphere_sizes),
        "window": report.growth.window,
        "e_ratio": report.growth.e_ratio,
        "e_slope": report.growth.e_slope,
        "beta_c_pred": report.beta_c_pred,
        "beta_c_emp": report.beta_c_emp,
        "labels": {serialize.fmt_float(b): report.labels[b] for b in report.betas},
        "tail": args.tail,
        "tau_global": args.tau_global,
        "tau_local": args.tau_local,
        "errors": {str(k): v for k, v in report.errors.items()},
    }
    if args.summary_out:
        serialize.write_text(args.summary_out, serialize.dumps(summary) + "\n")
    emp = "none" if report.beta_c_emp is None else f"{report.beta_c_emp:.6f}"
    print(f"beta_c_pred {report.beta_c_pred:.6f}  beta_c_emp {emp}")
    return 0


def cmd_tree_oracle(args):
    if args.n_max < 1:
        raise HypertrafficError(f"--n-max must be >= 1, got {args.n_max}")
    rows = []
    # deepest first, so a depth past the node cap fails before any tree is built
    for n in range(args.n_max, 0, -1):
        g = generators.gen_kary_tree(args.k, n)
        closed = analysis.tree_closed_forms(args.k, args.beta, n)
        if closed["P"] == 0.0:
            raise ValueError(
                f"closed-form root share beta^-{2 * n} underflows to 0 at beta={args.beta}"
            )
        # after the closed-form checks, so beta = inf reports its underflow
        rate = traffic.ExponentialRate(args.beta)
        rep = traffic.traffic_totals(traffic.pair_census(g, n), rate)
        loads = traffic.node_loads(g, rate, n)
        share = loads[g.root] / rep.T
        err_t = abs(rep.T - closed["T"]) / closed["T"]
        err_p = abs(share - closed["P"]) / closed["P"]
        rows.append(
            ",".join([
                str(n),
                serialize.fmt_float(closed["T"]),
                serialize.fmt_float(rep.T),
                serialize.fmt_float(closed["P"]),
                serialize.fmt_float(share),
                serialize.fmt_float(err_t),
                serialize.fmt_float(err_p),
            ])
        )
    serialize.write_text(
        args.out,
        serialize.csv_lines(
            "n,T_closed,T_engine,P_closed,root_share_engine,rel_err_T,rel_err_P",
            rows[::-1],
        ),
    )
    print(f"wrote {args.out}: {args.n_max} rows")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypertraffic",
        description="Traffic phase-transition toolkit for hyperbolic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a graph JSON file")
    _add_family_flags(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_an = sub.add_parser("analyze", help="sphere growth, beta_c, four-point delta")
    p_an.add_argument("--graph", required=True)
    p_an.add_argument("--window", type=int, default=None)
    p_an.add_argument("--four-point-cap", type=int, default=graphs.FOUR_POINT_CAP)
    p_an.add_argument("--out", required=True)
    p_an.set_defaults(func=cmd_analyze)

    p_tr = sub.add_parser("traffic", help="traffic report and node loads")
    p_tr.add_argument("--graph", required=True)
    p_tr.add_argument("--beta", type=float)
    p_tr.add_argument("--alpha", type=float)
    p_tr.add_argument("--table")
    p_tr.add_argument("--n", type=int, default=None)
    p_tr.add_argument("--r", type=int, default=None)
    p_tr.add_argument("--epsilon", type=float, default=0.1)
    p_tr.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_tr.add_argument("--include-endpoints", action="store_true")
    p_tr.add_argument("--out", required=True)
    p_tr.add_argument("--loads-out")
    p_tr.set_defaults(func=cmd_traffic)

    p_sw = sub.add_parser("sweep", help="beta/depth ratio grid with phase labels")
    _add_family_flags(p_sw)
    p_sw.add_argument("--beta-min", type=float, required=True)
    p_sw.add_argument("--beta-max", type=float, required=True)
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument("--depths", required=True, help="comma-separated, ascending")
    p_sw.add_argument("--r", type=int, required=True)
    p_sw.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_sw.add_argument("--tail", type=int, default=analysis.DEFAULT_TAIL)
    p_sw.add_argument("--tau-global", type=float, default=analysis.DEFAULT_TAU_GLOBAL)
    p_sw.add_argument("--tau-local", type=float, default=analysis.DEFAULT_TAU_LOCAL)
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--summary-out")
    p_sw.set_defaults(func=cmd_sweep)

    p_or = sub.add_parser("tree-oracle", help="closed forms vs engine per depth")
    p_or.add_argument("--k", type=int, required=True)
    p_or.add_argument("--beta", type=float, required=True)
    p_or.add_argument("--n-max", type=int, required=True)
    p_or.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_or.add_argument("--out", required=True)
    p_or.set_defaults(func=cmd_tree_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        return args.func(args)
    except (HypertrafficError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run():
    """The console script: main, then exit with its code. Every object is
    still live, so the collection the interpreter runs at exit would only
    traverse them: freezing moves them out of its reach. Here and not in
    main, which callers run in process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
