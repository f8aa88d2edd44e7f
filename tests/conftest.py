import math
import os
from pathlib import Path

import pytest
from hypothesis import settings

SRC = str(Path(__file__).resolve().parent.parent / "src")


def subprocess_env():
    """Environment for a child interpreter that imports tetrageo from this checkout.

    The pytest ``pythonpath`` setting reaches only the test process, so the
    child gets ``src`` on PYTHONPATH explicitly.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def coprime_types(max_sum, min_sum=1):
    """All (p, q) with 0 <= p <= q, gcd 1, min_sum <= p+q <= max_sum."""
    out = []
    for n in range(min_sum, max_sum + 1):
        for p in range(0, n // 2 + 1):
            q = n - p
            if p <= q and math.gcd(p, q) == 1 and (p, q) != (0, 0):
                out.append((p, q))
    return out


@pytest.fixture(scope="session")
def small_types():
    return coprime_types(8)


# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
