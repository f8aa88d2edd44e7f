"""Outputs frozen before the step table and the static word tables.

tests/data/frozen_outputs.json holds the repr of the count_exact(40, alpha)
rows for alpha in {0.3, 0.5, 0.9} and of the midpoint_geodesic lengths and
fractions for every type p+q <= 12 at alpha in {0.05, 0.5, 1.0}, written by

    PYTHONPATH=src python tests/test_frozen_outputs.py

on the commit before those tables.  Every value must stay the same to the
last bit, so the test compares the reprs exactly.
"""

import json
from pathlib import Path

from conftest import coprime_types
from tetrageo import GeodesicType, SpaceKind, TetrahedronSpec, count_exact, midpoint_geodesic

FROZEN = Path(__file__).resolve().parent / "data" / "frozen_outputs.json"


def frozen_outputs():
    counts = {repr(alpha): repr(count_exact(40, alpha).lengths) for alpha in (0.3, 0.5, 0.9)}
    paths = {}
    for alpha in (0.05, 0.5, 1.0):
        spec = TetrahedronSpec(SpaceKind.HYPERBOLIC, alpha)
        paths[repr(alpha)] = [
            repr((p, q, path.total_length, path.fractions))
            for p, q in coprime_types(12)
            for path in [midpoint_geodesic(spec, GeodesicType(p, q))]]
    return {"count_exact": counts, "midpoint_geodesic": paths}


def test_outputs_match_frozen_reprs():
    frozen = json.loads(FROZEN.read_text())
    outputs = frozen_outputs()
    for part in ("count_exact", "midpoint_geodesic"):
        assert outputs[part].keys() == frozen[part].keys()
        for alpha, value in frozen[part].items():
            assert outputs[part][alpha] == value, (part, alpha)


if __name__ == "__main__":
    FROZEN.write_text(json.dumps(frozen_outputs(), indent=1) + "\n")
