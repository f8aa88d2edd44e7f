"""The benchmark's layer trace (perfbench/layertrace.py) against the library.

The tracer wraps functions by module attribute, so a traced name that
leaves its module would stop ``python3 perfbench/run.py --trace 1`` from
installing.
"""

import importlib.util
from pathlib import Path

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
