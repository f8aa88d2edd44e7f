"""The chord solver's one-pass Newton terms and Thomas sweeps against their reference loops.

frames._chord_derivatives computes the segment terms of
face_fold.chord_segments and accumulates the length, gradient and
tridiagonal Hessian in the same pass; _solve_tridiagonal takes its first
row out of the sweep.  Each keeps the floating-point operations of the
reference below and their order, so results are compared with ==.
"""

import math

from hypothesis import given, strategies as st

from conftest import coprime_types
from face_fold import chord_segments
from tetrageo import frames
from tetrageo.combinat import GeodesicType, canonical_word
from tetrageo.geom import SpaceKind
from tetrageo.tetra import TetrahedronSpec, generic_from_edges

H, S = SpaceKind.HYPERBOLIC, SpaceKind.SPHERICAL


def _chain_derivatives(steps, s):
    """Length, gradient and tridiagonal Hessian of the chord, from the terms of chord_segments."""
    K = len(steps)
    k, _, _, arc = frames._KERNEL[steps[0].space]
    half, quarter = -0.5 * k, -0.25 * k
    grad, diag, off = [0.0] * (K + 1), [0.0] * (K + 1), [0.0] * K
    length = 0.0
    for i, (m, cx, cy, cxy) in enumerate(chord_segments(steps, s)[2]):
        c = 1.0 + half * m                     # C(d)
        r2 = m * (1.0 + quarter * m)           # S(d)^2
        if not r2 > 0.0:
            continue
        r = math.sqrt(r2)
        r3 = r2 * r
        length += 2.0 * arc(0.5 * math.sqrt(m))
        grad[i] += cx / r
        grad[i + 1] += cy / r
        diag[i] += c * (r2 - cx * cx) / r3
        diag[i + 1] += c * (r2 - cy * cy) / r3
        off[i] = (cxy * r2 - c * cx * cy) / r3
    return length, grad, diag, off


def _solve_tridiagonal(diag, off, rhs):
    m = len(diag)
    c, d = [0.0] * m, list(rhs)
    for i in range(m):
        piv = diag[i] - (off[i - 1] * c[i - 1] if i else 0.0)
        if not piv > 0.0:
            raise frames._Indefinite
        c[i] = off[i] / piv if i < m - 1 else 0.0
        d[i] = (d[i] - (off[i - 1] * d[i - 1] if i else 0.0)) / piv
    for i in range(m - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


@st.composite
def chains(draw):
    """(steps, offsets) on a random curved spec and open crossing word.

    Offsets are drawn on their edges, some at an edge end.
    """
    space = draw(st.sampled_from([H, S]))
    if space == S:
        spec = TetrahedronSpec(S, draw(st.floats(math.pi / 3 + 1e-6, 2.0)))
    elif draw(st.booleans()):
        spec = TetrahedronSpec(H, draw(st.floats(0.05, 1.04)))
    else:
        spec = generic_from_edges(draw(st.lists(st.floats(1.8, 2.3), min_size=6, max_size=6)))
    word = canonical_word(GeodesicType(*draw(st.sampled_from(coprime_types(12)))))
    tokens = list(word.tokens[:draw(st.integers(2, len(word.tokens)))])
    steps = frames.build_chain(spec, tokens)
    ends = [0.5 * spec.face_edge_length(int(tok[0]), int(tok[1])) for tok in tokens]
    x = [draw(st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0]))) * e for e in ends]
    return steps, x


@given(chains())
def test_one_pass_derivatives_equal_the_segment_terms_reference(chain):
    steps, x = chain
    rows = [(t0[0], t0[1], t1[0], t1[1], t2[0], t2[1]) for t0, t1, t2 in
            (step.transition for step in steps)]
    assert frames._chord_derivatives(steps[0].space, rows, x) == _chain_derivatives(steps, x)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except frames._Indefinite as exc:
        return type(exc).__name__


@st.composite
def tridiagonal_systems(draw, low):
    """(diag, off, rhs); diag from [low, 5], so SPD for low > 2, indefinite ones below."""
    m = draw(st.integers(1, 20))
    unit = st.floats(-1.0, 1.0)
    return (draw(st.lists(st.floats(low, 5.0), min_size=m, max_size=m)),
            draw(st.lists(unit, min_size=m - 1, max_size=m - 1)),
            draw(st.lists(unit, min_size=m, max_size=m)))


@given(st.one_of(tridiagonal_systems(2.1), tridiagonal_systems(-1.0)))
def test_peeled_thomas_solve_equals_the_loop(system):
    diag, off, rhs = system
    assert (_outcome(frames._solve_tridiagonal, diag, off, rhs)
            == _outcome(_solve_tridiagonal, diag, off, rhs))
