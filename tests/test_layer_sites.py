"""The benchmark's layer trace (perfbench/layertrace.py) against the library.

The tracer wraps functions by module attribute, so a traced name that
leaves its module would stop ``python3 perfbench/run.py --trace 1`` from
installing.
"""

import importlib.util
from pathlib import Path

from tetrageo import GeodesicType, SpaceKind, TetrahedronSpec, paths

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_is_a_module_attribute():
    layertrace = _layertrace()
    for sites in (*layertrace.SPAN_SITES.values(), *layertrace.COUNT_SITES.values()):
        for module, attr in sites:
            assert callable(getattr(module, attr, None)), (module.__name__, attr)
    originals = {(m, a): getattr(m, a) for sites in layertrace.SPAN_SITES.values()
                 for m, a in sites}
    tracer = layertrace.Tracer().install()
    tracer.restore()
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())


def test_spherical_quarter_runs_the_shooting_layers():
    # the spherical quarter chord is shot: both shooting layers record work
    tracer = _layertrace().Tracer().install()
    try:
        paths.midpoint_geodesic(TetrahedronSpec(SpaceKind.SPHERICAL, 1.1), GeodesicType(2, 3))
    finally:
        tracer.restore()
    assert any(span[0] == "frames.shoot_chord" for span in tracer.spans)
    assert tracer.counts["frames.propagate_chord"] > 0
