"""The step table keyed by face shape against the label-keyed builder it replaced.

frames.build_chain takes each step from frames._chain_step, keyed by the
space, the face's three edge lengths and the pair's pivot and exit order,
so one step serves every labelled pair of that shape.  The oracle
(face_fold.labelled_chain_step) is the old builder, one step per labelled
edge pair.  They run the same floating-point operations, so every
transition, inverse, det_sign and rep is compared bit for bit (by repr,
which tells -0.0 from 0.0), the turn (sides, row) against the hinge and
transition it was derived from, and the placed chains of both.
"""

import math
import random

import pytest

from conftest import coprime_types
from face_fold import labelled_chain_step, labelled_place_faces
from tetrageo import frames
from tetrageo.combinat import GeodesicType, canonical_word
from tetrageo.geom import SpaceKind
from tetrageo.tetra import TetrahedronSpec, generic_from_edges

H, E, S = SpaceKind.HYPERBOLIC, SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL

SPECS = ([TetrahedronSpec(H, alpha) for alpha in (0.05, 0.5, 1.0)]
         + [TetrahedronSpec(S, alpha) for alpha in (1.1, 1.5)]
         + [TetrahedronSpec(E, math.pi / 3)]
         + [generic_from_edges([random.Random(seed).uniform(1.8, 2.3) for _ in range(6)])
            for seed in range(8)])


def _labelled_chain(spec, tokens):
    """The chain of tokens as the label-keyed builder built it."""
    steps = []
    for cur, nxt in zip(tokens, tokens[1:]):
        a, b = int(cur[0]), int(cur[1])
        w = int((set(nxt) - set(cur)).pop())
        ell = spec.face_edge_length
        steps.append(labelled_chain_step(spec.space, cur, nxt, a, b, w,
                                         ell(a, b), ell(a, w), ell(b, w)))
    return steps


@pytest.mark.parametrize("spec", SPECS, ids=[f"{s.space.name}-{i}" for i, s in enumerate(SPECS)])
def test_step_table_matches_the_label_keyed_builder(spec):
    for pq in coprime_types(20):
        word = canonical_word(GeodesicType(*pq))
        tokens = list(word.tokens) + [word.tokens[0]]
        steps = frames.build_chain(spec, tokens)
        oracle = _labelled_chain(spec, tokens)
        assert len(steps) == len(oracle)
        for i, (step, old) in enumerate(zip(steps, oracle)):
            a, b, w = frames._STEP_LABELS[(tokens[i], tokens[i + 1])]
            assert repr(step.transition) == repr(old.transition), (pq, i)
            assert repr(step.inverse) == repr(old.inverse), (pq, i)
            assert repr(step.det_sign) == repr(old.det_sign), (pq, i)
            assert repr(dict(zip((a, b, w), step.verts))) == repr(old.verts), (pq, i)
            assert step.space == old.space
            pivot, other, w = old.hinge
            assert step.sides == (1 if pivot > other else -1, 1 if pivot > w else -1), (pq, i)
            (t00, t01, _), (t10, t11, _), (t20, t21, _) = old.transition
            assert repr(step.row) == repr((t00, t01, t10, t11, t20, t21)), (pq, i)
        placed = frames.place_faces(steps, tokens)
        assert repr(placed) == repr(labelled_place_faces(oracle)), pq

