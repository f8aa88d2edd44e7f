"""Command-line front end.

Subcommands: construct, exists, threshold, bounds, count, verify.
Exit codes: 0 success, 2 invalid input, 3 informative negative
(NotExists / NoThreshold), 4 numerical failure or undetermined verdict.
Artifacts go to stdout or --out; diagnostics to stderr.  A reader that
closes stdout early (as head does) ends the run quietly, with the exit
code of its result.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import report, svg
from .combinat import GeodesicType, crossing_sequence
from .counting import count_exact
from .errors import (BoundDegenerate, BoundVacuous, NoThreshold,
                     NumericalFailure, TetrageoError, TooLong, VertexHit)
from .existence import (edge_sufficient_bound, exists_geodesic,
                        hyperbolic_clearance_bound,
                        hyperbolic_length_lower_bound, necessary_alpha_bound,
                        sufficient_epsilon_bound, threshold_beta)
from .geom import SpaceKind
from .paths import (NotContained, euclid_geodesic,
                    generic_hyperbolic_geodesic, midpoint_geodesic)
from .tetra import TetrahedronSpec, angle_from_edge, generic_from_edges
from .unfold import build_development
from .verify import run_verification

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NEGATIVE = 3
EXIT_NUMERIC = 4


def _build_parser():
    ap = argparse.ArgumentParser(prog="tetrageo",
                                 description="simple closed geodesics on regular "
                                             "tetrahedra in constant-curvature spaces")
    ap.add_argument("--config", help="key=value file merged under the flags")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, space=True):
        if space:
            p.add_argument("--space", choices=("euclidean", "spherical", "hyperbolic"),
                           help="default spherical")
        p.add_argument("--alpha", type=float, help="planar angle (radians)")
        p.add_argument("--edge", type=float, help="edge length (alternative to --alpha)")
        p.add_argument("--deg", action="store_true", help="interpret --alpha in degrees")
        p.add_argument("--out", help="write the artifact to this file")

    c = sub.add_parser("construct", help="construct a geodesic and its development")
    common(c)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--mu", type=float, help="Euclidean anchor parameter (default 0.5)")
    c.add_argument("--edges", help="six comma-separated lengths for a generic tetrahedron")
    c.add_argument("--format", default="json", choices=("json", "svg"))

    e = sub.add_parser("exists", help="existence verdict (spherical)")
    common(e)
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--q", type=int, required=True)

    th = sub.add_parser("threshold", help="threshold beta(p,q), the least root of the integer "
                        "trace polynomial, bracketed in exact arithmetic")
    th.add_argument("--p", type=int, required=True)
    th.add_argument("--q", type=int, required=True)
    th.add_argument("--tol", type=float, default=1e-6, help="bracket width")
    th.add_argument("--out")

    b = sub.add_parser("bounds", help="closed-form bounds for a type")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--alpha", type=float, help="hyperbolic angle for the H-space bounds")
    b.add_argument("--deg", action="store_true")
    b.add_argument("--out")

    cn = sub.add_parser("count", help="count hyperbolic geodesics up to length L")
    cn.add_argument("--alpha", type=float, required=True)
    cn.add_argument("--deg", action="store_true")
    cn.add_argument("--L", type=float, required=True)
    cn.add_argument("--format", default="json", choices=("json", "csv"))
    cn.add_argument("--out")

    v = sub.add_parser("verify", help="run the deterministic invariant suite")
    v.add_argument("--out")
    return ap


def _apply_config(argv):
    """argv without ``--config PATH``, the file's key=value flags inserted after the subcommand,
    so that explicit flags, parsed later, win.  key=true or key= gives the bare flag, key=false
    none.  SystemExit(2) for a --config without a value or a path that cannot be read."""
    pre = argparse.ArgumentParser(prog="tetrageo", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        pre.error(f"cannot read --config {known.config!r}: {exc}")
    pairs = []
    for line in map(str.strip, lines):
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            flag, value = "--" + key.strip().lstrip("-"), value.strip()
            if value.lower() != "false":
                pairs += [flag] if value.lower() in ("true", "") else [flag, value]
    at = next((i + 1 for i, arg in enumerate(argv) if not arg.startswith("-")), len(argv))
    return argv[:at] + pairs + argv[at:]


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        try:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
            sys.stdout.flush()
        except BrokenPipeError:     # the reader closed stdout early, as head does: end quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _resolve_alpha(args, space):
    alpha = args.alpha
    if alpha is not None and getattr(args, "deg", False):
        alpha = math.radians(alpha)
    edge = getattr(args, "edge", None)
    if (alpha is None) == (edge is None):
        if space == SpaceKind.EUCLIDEAN and alpha is None and edge is None:
            return math.pi / 3
        raise ValueError("exactly one of --alpha / --edge is required")
    if alpha is None:
        alpha = angle_from_edge(space, edge)
    return alpha


def _cmd_construct(args):
    t = GeodesicType(args.p, args.q)
    if args.edges:
        given = [flag for flag, on in (("--space", args.space not in (None, "hyperbolic")),
                                       ("--alpha", args.alpha is not None),
                                       ("--edge", args.edge is not None), ("--deg", args.deg),
                                       ("--mu", args.mu is not None)) if on]
        if given:
            raise ValueError(f"--edges gives a hyperbolic tetrahedron: drop {', '.join(given)}")
        lengths = [float(x) for x in args.edges.split(",")]
        spec = generic_from_edges(lengths)
        result = generic_hyperbolic_geodesic(spec, t)
    else:
        space = SpaceKind.parse(args.space or "spherical")
        if args.mu is not None and space != SpaceKind.EUCLIDEAN:
            raise ValueError("--mu is the Euclidean anchor: it needs --space euclidean")
        spec = TetrahedronSpec(space, _resolve_alpha(args, space))
        if space == SpaceKind.EUCLIDEAN:
            result = euclid_geodesic(t, 0.5 if args.mu is None else args.mu)
        else:
            result = midpoint_geodesic(spec, t)
    if isinstance(result, NotContained):
        print(f"no geodesic: chord leaves the chain at face {result.face_index} "
              f"(edge {result.edge}, signed distance {result.signed_distance:.3e})",
              file=sys.stderr)
        return EXIT_NEGATIVE
    if not (result.closed and result.simple):
        fault = "is not simple" if result.closed else "fails the closure check"
        print(f"constructed path {fault} (closure residual {result.closure_residual:.3e})",
              file=sys.stderr)
        return EXIT_NUMERIC
    dev = build_development(spec, crossing_sequence(t), hemisphere_check=False)
    if args.format == "svg":
        _emit(svg.render_development(dev, result), args.out)
    else:
        doc = {"path": report.path_to_dict(result),
               "development": report.development_to_dict(dev)}
        _emit(report.dumps(doc), args.out)
    return EXIT_OK


def _cmd_exists(args):
    space = SpaceKind.parse(args.space or "spherical")
    if space != SpaceKind.SPHERICAL:
        print("existence verdicts are a spherical operation", file=sys.stderr)
        return EXIT_INVALID
    t = GeodesicType(args.p, args.q)
    spec = TetrahedronSpec(space, _resolve_alpha(args, space))
    verdict = exists_geodesic(spec, t)
    _emit(report.dumps(report.verdict_to_dict(verdict)), args.out)
    if verdict.outcome == "exists":
        return EXIT_OK
    if verdict.outcome == "not_exists":
        return EXIT_NEGATIVE
    return EXIT_NUMERIC


def _cmd_threshold(args):
    t = GeodesicType(args.p, args.q)
    res = threshold_beta(t, args.tol)
    doc = {"type": [t.p, t.q], "beta": res.beta,
           "bracket": [res.lo, res.hi], "tol": res.tol}
    _emit(report.dumps(doc), args.out)
    return EXIT_OK


def _cmd_bounds(args):
    t = GeodesicType(args.p, args.q)
    doc = {"type": [t.p, t.q]}
    try:
        a2 = necessary_alpha_bound(t)
        doc["alpha2"] = a2
    except BoundVacuous as exc:
        doc["alpha2"] = None
        doc["alpha2_note"] = str(exc)
    try:
        eb = sufficient_epsilon_bound(t)
        doc["epsilon"] = eb.epsilon
        doc["alpha1"] = math.pi / 3 + eb.epsilon
        doc["epsilon_detail"] = {
            "hemisphere_term": eb.hemisphere_term,
            "geometric_term": eb.geometric_term,
            "c0": eb.c0,
            "sum_terms": eb.sum_terms,
            "index_top": eb.index_top,
            "epsilon_index_variant": eb.epsilon_alt,
        }
    except BoundDegenerate as exc:
        doc["epsilon"] = None
        doc["alpha1"] = None
        doc["epsilon_note"] = str(exc)
    doc["edge_sufficient"] = edge_sufficient_bound(t)
    alpha = args.alpha
    if alpha is not None:
        if args.deg:
            alpha = math.radians(alpha)
        doc["hyperbolic"] = {
            "alpha": alpha,
            "clearance_bound": hyperbolic_clearance_bound(alpha),
            "length_lower_bound": hyperbolic_length_lower_bound(alpha, t),
        }
    _emit(report.dumps(doc), args.out)
    return EXIT_OK


def _cmd_count(args):
    alpha = math.radians(args.alpha) if args.deg else args.alpha
    rep = count_exact(args.L, alpha)
    if args.format == "csv":
        _emit(report.count_to_csv(rep), args.out)
    else:
        _emit(report.dumps(report.count_to_dict(rep)), args.out)
    return EXIT_OK


def _cmd_verify(args):
    doc = run_verification()
    _emit(report.dumps(doc), args.out)
    return EXIT_OK if doc["passed"] else 1


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_apply_config(argv))
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    handlers = {
        "construct": _cmd_construct,
        "exists": _cmd_exists,
        "threshold": _cmd_threshold,
        "bounds": _cmd_bounds,
        "count": _cmd_count,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (NoThreshold, TooLong) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NEGATIVE
    except (VertexHit, BoundVacuous, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except (NumericalFailure, BoundDegenerate) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERIC
    except TetrageoError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
