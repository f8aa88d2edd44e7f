"""Deterministic JSON/CSV serialization of the report artifacts.

Floats are written with 17 significant digits (exact double round-trip),
keys in insertion order; two runs over identical inputs produce identical
bytes, which the verify command relies on.
"""

from __future__ import annotations

import json
import math

from .geom import SpaceKind

SPACE_NAMES = {SpaceKind.EUCLIDEAN: "euclidean",
               SpaceKind.SPHERICAL: "spherical",
               SpaceKind.HYPERBOLIC: "hyperbolic"}


def _fmt_float(x):
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    out = format(x, ".17g")
    # keep a float marker so parsing returns float, not int
    if "e" not in out and "." not in out and "n" not in out:
        out += ".0"
    return out


def dumps(obj, indent=0):
    """Serialize dict/list/str/num/bool/None with fixed float formatting."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        simple = all(isinstance(v, (int, float, str, bool, type(None))) for v in seq)
        if simple:
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        rows = [f"{pad}  {dumps(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def loads(text):
    return json.loads(text)


def path_to_dict(path):
    return {
        "type": [path.gtype.p, path.gtype.q],
        "space": SPACE_NAMES[path.space],
        "length": float(path.total_length),
        "clearance": float(path.clearance),
        "crossings": [{"edge": tok, "fraction": float(f)} for tok, f in path.crossings],
        "closed": bool(path.closed),
        "simple": bool(path.simple),
        "closure_residual": float(path.closure_residual),
    }


def development_to_dict(dev):
    spec = dev.spec
    out = {
        "space": SPACE_NAMES[dev.space],
        "alpha": float(getattr(spec, "alpha", float("nan"))) if hasattr(spec, "alpha") else None,
        "type": [dev.sequence.gtype.p, dev.sequence.gtype.q],
        "faces": [
            {
                "label": "".join(str(l) for l in face.labels),
                "vertices": [list(face.points[l]) for l in face.labels],
                "labels": list(face.labels),
            }
            for face in dev.faces
        ],
        "symmetry_points": {k: list(v) for k, v in dev.sym_points.items()},
        "angles": [float(a) for a in dev.boundary_angles()],
    }
    if not spec.is_regular:
        out["alpha"] = None
        out["edges"] = {k: float(v) for k, v in sorted(spec.edges.items())}
    return out


def verdict_to_dict(verdict):
    out = {
        "outcome": verdict.outcome,
        "type": [verdict.gtype.p, verdict.gtype.q],
        "alpha": float(verdict.alpha),
        "alpha1": None if verdict.alpha1 is None else float(verdict.alpha1),
        "alpha2": None if verdict.alpha2 is None else float(verdict.alpha2),
        "reason": verdict.reason,
    }
    if verdict.beta is not None:
        out["beta"] = float(verdict.beta)
    return out


def count_to_dict(report):
    return {
        "L": float(report.L),
        "alpha": float(report.alpha),
        "exact": int(report.exact_count),
        "bound": int(report.bound_count),
        "c_printed": float(report.c_printed),
        "c_derived": float(report.c_derived),
        "note": "asymptotic-constant forms differ: see c_printed vs c_derived",
        "lengths": [
            {"p": p, "q": q,
             "length": float(length),
             "clearance": float(clear)}
            for p, q, length, clear in report.lengths
        ],
    }


def count_to_csv(report):
    lines = ["p,q,length,clearance"]
    for p, q, length, clear in report.lengths:
        lines.append(f"{p},{q},{format(length, '.17g')},{format(clear, '.17g')}")
    return "\n".join(lines) + "\n"
