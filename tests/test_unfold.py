"""Developments: gluing, isometry, boundary angles, symmetry."""

import math
import warnings

import pytest

from face_fold import place_chain
from tetrageo import frames
from tetrageo.combinat import CrossingSequence, GeodesicType, crossing_sequence
from tetrageo.geom import SpaceKind, rdistance
from tetrageo.tetra import TetrahedronSpec, generic_from_edges
from tetrageo.unfold import HemisphereWarning, build_development, symmetry_check

E, S, H = SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL, SpaceKind.HYPERBOLIC

# hyperbolic chart fidelity is bounded by the chain extent; these regimes
# keep every vertex within the range where doubles resolve the invariants
HYP_CASES = [(1.0, (1, 1)), (1.0, (2, 3)), (0.9, (1, 2)), (1.02, (3, 5)),
             (math.pi / 6, (0, 1)), (math.pi / 6, (1, 1))]
SPH_CASES = [(math.pi / 3 + 0.01, (1, 2)), (0.45 * math.pi, (1, 1)),
             (math.pi / 3 + 0.002, (3, 5)), (0.6 * math.pi, (0, 1))]


def _spec_cases():
    out = [(TetrahedronSpec(E, math.pi / 3), pq) for pq in [(0, 1), (2, 3), (7, 13), (1, 29)]]
    out += [(TetrahedronSpec(S, al), pq) for al, pq in SPH_CASES]
    out += [(TetrahedronSpec(H, al), pq) for al, pq in HYP_CASES]
    return out


def _dev(spec, pq):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HemisphereWarning)
        return build_development(spec, crossing_sequence(GeodesicType(*pq)))


@pytest.mark.parametrize("spec,pq", _spec_cases())
def test_isometry_and_angles(spec, pq):
    dev = _dev(spec, pq)
    assert len(dev.faces) == 4 * sum(pq)
    worst = max(abs(rdistance(spec.space, f.reps[u], f.reps[v]) - spec.edge)
                for f in dev.faces for u in f.labels for v in f.labels if u < v)
    assert worst < 1e-10
    alpha = spec.alpha
    for ang in dev.boundary_angles():
        assert min(abs(ang - k * alpha) for k in (1, 2, 3, 4)) < 1e-9


@pytest.mark.parametrize("spec,pq", _spec_cases())
def test_symmetry(spec, pq):
    assert symmetry_check(_dev(spec, pq))


_FRAME_CASES = [(S, alpha, pq) for alpha, pq in SPH_CASES + [(1.2, (5, 8)), (2.0, (7, 13))]]
_FRAME_CASES += [(E, math.pi / 3, pq) for pq in [(0, 1), (2, 3), (7, 13), (1, 29), (11, 19)]]


@pytest.mark.parametrize("space,alpha,pq", [
    pytest.param(space, alpha, pq, id=f"{alpha}-pq{i}" if space == S else f"euclidean-pq{i}")
    for i, (space, alpha, pq) in enumerate(_FRAME_CASES)])
def test_spherical_frames_match_reflected_chain(space, alpha, pq):
    # edge-frame placement against the reflection chain, whose body is curvature-generic;
    # a plane rep (1, x, y) is compared as its point (x, y)
    spec = TetrahedronSpec(space, alpha)
    seq = crossing_sequence(GeodesicType(*pq))
    tokens = list(seq.tokens) + [seq.tokens[0]]
    placed = frames.place_faces(frames.build_chain(spec, tokens))
    _, reflected = place_chain(spec, tokens)
    assert len(placed) == len(reflected)
    tol = 1e-12 if space == S else 1e-11
    for face, ref in zip(placed, reflected):
        assert face.keys() == ref.keys()
        if space == E:
            assert all(face[lab][0] == 1.0 for lab in face)
            face = {lab: rep[1:] for lab, rep in face.items()}
        assert max(abs(x - y) for lab in face for x, y in zip(face[lab], ref[lab])) < tol


def test_gluing_shared_edges():
    dev = _dev(TetrahedronSpec(H, 0.9), (1, 2))
    for i in range(1, len(dev.faces)):
        tok, (va, vb) = dev.glue_edges[i]
        prev, cur = dev.faces[i - 1], dev.faces[i]
        for lab in (int(tok[0]), int(tok[1])):
            assert rdistance(H, prev.reps[lab], cur.reps[lab]) < 1e-10


def test_euclid_strip_boundary():
    dev = _dev(TetrahedronSpec(E, math.pi / 3), (0, 1))
    assert len(dev.faces) == 4
    assert len(dev.boundary) == 6
    angs = sorted(dev.boundary_angles())
    expect = sorted([math.pi / 3, 2 * math.pi / 3, math.pi] * 2)
    for a, b in zip(angs, expect):
        assert a == pytest.approx(b, abs=1e-12)


def test_hemisphere_warning():
    spec = TetrahedronSpec(S, 0.55 * math.pi)
    with pytest.warns(HemisphereWarning):
        build_development(spec, crossing_sequence(GeodesicType(1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_development(spec, crossing_sequence(GeodesicType(1, 2)),
                          hemisphere_check=False)


def test_gauss_bonnet_hyperbolic():
    alpha = math.pi / 6
    spec = TetrahedronSpec(H, alpha)
    dev = _dev(spec, (1, 2))
    turning = sum(math.pi - a for a in dev.boundary_angles())
    area = len(dev.faces) * (math.pi - 3 * alpha)
    assert turning == pytest.approx(2 * math.pi + area, abs=1e-6)


def test_spherical_angle_classes():
    alpha = math.pi / 3 + 0.01
    dev = _dev(TetrahedronSpec(S, alpha), (1, 2))
    for ang in dev.boundary_angles():
        assert min(abs(ang - k * alpha) for k in (1, 2, 3, 4)) < 1e-9


def test_shifted_word_breaks_symmetry():
    t = GeodesicType(1, 2)
    toks = crossing_sequence(t).tokens
    shifted = CrossingSequence(t, toks[1:] + toks[:1])
    dev = build_development(TetrahedronSpec(H, math.pi / 6), shifted)
    assert not symmetry_check(dev)


def test_symmetry_points_are_edge_midpoints():
    spec = TetrahedronSpec(H, 0.9)
    dev = _dev(spec, (1, 2))
    n = len(dev.faces)
    for name, idx in (("X1", 0), ("Y1", n // 4), ("X2", n // 2),
                      ("Y2", 3 * n // 4), ("X1p", n)):
        a, b = dev.glue_edge_reps(idx)
        m = dev.sym_reps[name]
        assert abs(rdistance(H, a, m) - rdistance(H, b, m)) < 1e-10


def test_generic_development():
    spec = generic_from_edges([2.0, 2.0, 2.0, 2.2, 2.2, 2.2])
    for pq, tol in (((1, 1), 1e-10), ((1, 2), 5e-9)):
        # chart fidelity scales with cosh(chain radius)^2 * eps
        dev = _dev(spec, pq)
        assert len(dev.faces) == 4 * sum(pq)
        for face in dev.faces:
            labs = face.labels
            for u in labs:
                for v in labs:
                    if u < v:
                        want = spec.face_edge_length(u, v)
                        assert rdistance(H, face.reps[u], face.reps[v]) == pytest.approx(
                            want, abs=tol)


def test_symmetry_hyperbolic_12_at_pi_sixth():
    # the quarter chains of the (1,2) development at alpha = pi/6 map onto
    # each other under the half turns about Y1, X2, Y2
    dev = _dev(TetrahedronSpec(H, math.pi / 6), (1, 2))
    assert symmetry_check(dev)
