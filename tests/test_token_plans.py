"""Work that depends only on a word's tokens, cached, against the per-call code it replaced.

* frames.build_chain lays out one step table lookup per distinct pair by
  the tokens' cached plan (frames._chain_plan); the oracle builds each pair
  on its own, and the steps must be the very same objects.
* paths.full_fractions_from_quarter appends by the mirror plan that the
  type's canonical word recorded while its half turns completed it
  (CanonicalWord.mirror); the plan is checked against a second walk of
  the word's tokens (face_fold.mirror_plan), and the oracle walks
  tetra.HALF_TURN on every call.
* paths.simplicity_check compares the word's strand pairs through two
  index getters (CanonicalWord.strand_pairs); the oracle loops over the
  strands.
* paths._chain_metrics and frames.trace_geometry write the segment terms
  in their own loops; the oracle reads them from face_fold.chord_segments,
  and frames.shoot_chord's written-out pull-back is checked against
  frames._matvec.

Each keeps the floating-point operations of its oracle in their order, so
results are compared by repr (which tells -0.0 from 0.0 and shows NaN).
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import coprime_types
from face_fold import chord_segments, mirror_plan
from tetrageo import frames, paths
from tetrageo.combinat import GeodesicType, canonical_word, crossing_sequence, isometric_copies
from tetrageo.errors import NumericalFailure
from tetrageo.geom import SpaceKind, rpoint_seg_dist
from tetrageo.tetra import HALF_TURN, TetrahedronSpec, generic_from_edges

H, E, S = SpaceKind.HYPERBOLIC, SpaceKind.EUCLIDEAN, SpaceKind.SPHERICAL

SPECS = [TetrahedronSpec(H, 0.5), TetrahedronSpec(S, 1.2), TetrahedronSpec(E, math.pi / 3)] + [
    generic_from_edges([random.Random(seed).uniform(1.8, 2.3) for _ in range(6)])
    for seed in (3, 4)]


# ---------------------------------------------------------------------------
# build_chain

def _per_pair_chain(spec, tokens):
    """Each pair's step from the step table, looked up on its own."""
    steps = []
    for pair in zip(tokens, tokens[1:]):
        ab, aw, bw, from_b, w_first = frames._STEP_KEYS[pair]
        steps.append(frames._chain_step(spec.space, spec.edges[ab], spec.edges[aw],
                                        spec.edges[bw], from_b, w_first))
    return steps


def test_build_chain_lays_out_the_per_pair_steps():
    for pq in coprime_types(40):
        word = canonical_word(GeodesicType(*pq))
        K = len(word.tokens) // 4
        for tokens in (list(word.tokens[:K + 1]), list(word.tokens) + [word.tokens[0]]):
            for spec in SPECS:
                steps = frames.build_chain(spec, tokens)
                oracle = _per_pair_chain(spec, tokens)
                assert type(steps) is list and len(steps) == len(oracle), (pq, spec)
                assert all(a is b for a, b in zip(steps, oracle)), (pq, spec)


@pytest.mark.parametrize("tokens", [[], ["12"], ["12", "23"], ["12", "23", "12"],
                                    ("34", "13", "34")])
def test_build_chain_of_few_pairs(tokens):
    for spec in SPECS:
        steps = frames.build_chain(spec, tokens)
        oracle = _per_pair_chain(spec, tokens)
        assert type(steps) is list and len(steps) == len(oracle)
        assert all(a is b for a, b in zip(steps, oracle))
    # a plan is shared by every spec and by list and tuple tokens alike
    assert frames._chain_plan(tuple(tokens)) is frames._chain_plan(tuple(list(tokens)))


def test_build_chain_raises_on_every_call_for_a_pair_without_one_shared_vertex():
    for tokens in (["12", "34"], ["12", "23", "14", "14"], ["12", "12"]):
        for _ in range(2):
            with pytest.raises(ValueError, match="must share exactly one vertex"):
                frames.build_chain(SPECS[0], tokens)


# ---------------------------------------------------------------------------
# full_fractions_from_quarter

def _walked_fractions(seq, quarter_fracs):
    """The mirror map walking tetra.HALF_TURN on each call, as it was."""
    n = len(seq.tokens)
    K = n // 4
    toks = seq.tokens
    fracs = list(quarter_fracs)
    for center in (K, 2 * K):
        mirror = HALF_TURN[toks[center]]
        for k in range(1, center + 1):
            mapped, flip = mirror[toks[center - k]]
            if mapped != toks[(center + k) % n]:
                raise NumericalFailure("crossing word lacks the half-turn symmetry")
            f = fracs[center - k]
            fracs.append(1 - f if flip else f)
    if abs(fracs[n] - fracs[0]) > 1e-9:
        raise NumericalFailure("mirrored fractions do not close up")
    return fracs[:n]


def test_mirror_plan_matches_the_half_turn_walk():
    rng = random.Random(29)
    for pq in coprime_types(60):
        word = canonical_word(GeodesicType(*pq))
        n, K = len(word.tokens), len(word.tokens) // 4
        sources, flips = word.mirror
        assert word.mirror == mirror_plan(word.tokens), pq
        walk = [(c - k, HALF_TURN[word.tokens[c]][word.tokens[c - k]][1])
                for c in (K, 2 * K) for k in range(1, c + 1)]
        assert list(zip(sources, flips)) == walk, pq
        quarters = [word.fractions[:K + 1],
                    [word.fractions[0]] + [rng.random() for _ in range(K - 1)] + [0.5]]
        for quarter in quarters:
            try:
                expected = _walked_fractions(word, quarter)
            except NumericalFailure as exc:
                with pytest.raises(NumericalFailure, match=str(exc)):
                    paths.full_fractions_from_quarter(word, quarter)
                continue
            assert repr(paths.full_fractions_from_quarter(word, quarter)) == repr(expected), pq
        exact = crossing_sequence(GeodesicType(*pq))     # Fraction quarters mirror exactly
        full = paths.full_fractions_from_quarter(exact, exact.fractions[:K + 1])
        assert full == list(exact.fractions), pq
        assert all(isinstance(f, Fraction) for f in full), pq


def test_exact_quarters_mirror_to_the_exact_word():
    for pq in coprime_types(30):
        seq = crossing_sequence(GeodesicType(*pq))
        K = len(seq.tokens) // 4
        full = paths.full_fractions_from_quarter(seq, seq.fractions[:K + 1])
        assert full == list(seq.fractions), pq
        assert all(isinstance(f, Fraction) for f in full), pq


def test_mirror_plan_raises_on_every_call_for_an_asymmetric_word():
    word = canonical_word(GeodesicType(2, 3))
    K = len(word.tokens) // 4
    toks = list(word.tokens)
    toks[K + 1], toks[K + 2] = toks[K + 2], toks[K + 1]
    bent = replace(word, tokens=tuple(toks))
    for _ in range(2):
        with pytest.raises(NumericalFailure, match="half-turn symmetry"):
            paths.full_fractions_from_quarter(bent, word.fractions[:K + 1])


def test_full_fractions_take_only_the_canonical_tokens():
    # the plan is the canonical word's: its tokens as a list are accepted, a rotated copy
    # of the word, although it has half-turn symmetry too, is refused on every call
    for pq in ((1, 2), (2, 3), (3, 5)):
        base, *rotated = isometric_copies(GeodesicType(*pq))
        K = len(base.tokens) // 4
        quarter = [float(f) for f in base.fractions[:K + 1]]
        listed = replace(base, tokens=list(base.tokens))
        assert repr(paths.full_fractions_from_quarter(listed, quarter)) == \
            repr(paths.full_fractions_from_quarter(base, quarter))
        for seq in rotated:
            assert seq.tokens != base.tokens
            for _ in range(2):
                with pytest.raises(NumericalFailure, match="half-turn symmetry"):
                    paths.full_fractions_from_quarter(seq, quarter)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0, -1.0, 1.0 + 1e-16 * 3])
def test_full_fractions_reject_a_quarter_fraction_off_its_edge(bad):
    word = canonical_word(GeodesicType(1, 2))
    K = len(word.tokens) // 4
    for quarter in ([bad] * (K + 1), [0.5, bad] + [0.5] * (K - 1)):
        with pytest.raises(ValueError, match="every fraction must be finite and lie in"):
            paths.full_fractions_from_quarter(word, quarter)
    # the ends of the edge are fractions
    assert paths.full_fractions_from_quarter(word, [0.5, 0.0, 1.0, 0.5])[:K + 1] == \
        [0.5, 0.0, 1.0, 0.5]


# ---------------------------------------------------------------------------
# simplicity_check

def _strand_loop(word, fracs):
    return all(fracs[i] - fracs[j] <= paths.STRAND_TIE
               for strand in word.strands for i, j in zip(strand, strand[1:]))


def _perturbed(word, rng):
    """Fractions of the word moved by drawn amounts, some by NaN or as Fractions."""
    fracs = list(word.fractions)
    kind = rng.randrange(5)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(fracs))
        if kind == 0:
            fracs[i] = math.nan
        elif kind == 1:
            fracs[i] = Fraction(word.numerators[i], word.denominator) + Fraction(rng.randrange(-3, 4),
                                                                                10 ** 12)
        else:
            fracs[i] += rng.choice((1e-13, 1e-12, 2e-12, 1e-3)) * rng.choice((-1, 1))
    return fracs


def test_simplicity_getters_match_the_strand_loop():
    rng = random.Random(7)
    verdicts = set()
    for pq in coprime_types(25):
        t = GeodesicType(*pq)
        word = canonical_word(t)
        for _ in range(12):
            fracs = _perturbed(word, rng)
            expected = _strand_loop(word, fracs)
            for seq in (fracs, tuple(fracs)):
                got = paths.simplicity_check(paths._Crossings(t, word.tokens, seq), None)
                assert got is expected, (pq, fracs)
            verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("strands", [lambda n: tuple((i,) for i in range(n)),
                                     lambda n: ((1, 0),) + tuple((i,) for i in range(2, n))])
def test_simplicity_of_a_word_with_fewer_than_two_strand_pairs(monkeypatch, strands):
    t = GeodesicType(1, 2)
    word = canonical_word(t)
    few = replace(word, strands=strands(len(word.tokens)))
    monkeypatch.setattr(paths, "canonical_word", lambda _: few)
    for fracs in (list(word.fractions), [math.nan] * len(word.tokens),
                  [0.9, 0.1] + list(word.fractions[2:]), [0.1, 0.9] + list(word.fractions[2:])):
        assert paths.simplicity_check(paths._Crossings(t, word.tokens, fracs), None) is \
            _strand_loop(few, fracs), fracs


# ---------------------------------------------------------------------------
# the segment terms' readers

def _chain_metrics_from_segments(spec, steps, ells, fracs, copies, crossings):
    """paths._chain_metrics as it read the terms of chord_segments."""
    space = spec.space
    k = frames._KERNEL[space][0]
    arc = (lambda x: math.asin(min(1.0, x))) if k > 0 else frames._KERNEL[space][3]
    cut, tie = (0, 0.0) if k else (1, 1e-12)
    s = [(f - 0.5) * ell for ell, f in zip(ells, fracs)]
    bound = min(0.5 * ell - abs(x) for ell, x in zip(ells, s)) * (1.0 + 1e-9) + 1e-9
    lim = math.sinh(bound) if k < 0 else math.sin(min(bound, 0.5 * math.pi)) if k else bound
    cs, sn, terms = chord_segments(steps, s)
    total, clearance, ends = 0.0, math.inf, []
    for i, (step, (m, cx, cy, _)) in enumerate(zip(steps, terms)):
        r = m * (1.0 - 0.25 * k * m)
        if not r > 0.0:
            raise NumericalFailure(f"chain segment {i}: S(d)^2 = {r!r} is not positive")
        r = math.sqrt(r)
        total += 2.0 * arc(0.5 * math.sqrt(m))
        x, y = -cx / r, cy / r
        ends.append((math.acos((x if x > -1.0 else -1.0) if x < 1.0 else 1.0),
                     math.acos((y if y > -1.0 else -1.0) if y < 1.0 else 1.0)))
        (i00, i01, _), (i10, i11, _), (i20, i21, _) = step.inverse
        ca, sa, cb, sb = cs[i], sn[i], cs[i + 1], sn[i + 1]
        A = (ca, sa, 0.0)
        B = (i00 * cb + i01 * sb, i10 * cb + i11 * sb, i20 * cb + i21 * sb)
        u, w = ca * B[1] - sa * B[0], B[2]
        norm = math.sqrt(u * u + w * w)
        for V in step.verts:
            h = abs(w * (sa * V[0] - ca * V[1]) + u * V[2])
            if h < lim * norm and arc(h / norm) < clearance + tie:
                clearance = min(clearance, rpoint_seg_dist(space, V[cut:], A[cut:], B[cut:]))
    worst = max((abs(ends[j - 1][1] - ends[j][0]) for j in crossings), default=0.0)
    return copies * total, clearance, worst


def _outcome(f, *args):
    """repr of f(*args), or the name of the exception it raises."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError, NumericalFailure) as exc:
        return type(exc).__name__


@st.composite
def drawn_chains(draw):
    """A spec, a type's quarter or closed chain and drawn fractions on it."""
    space = draw(st.sampled_from([H, S, E]))
    alpha = (draw(st.floats(1e-4, 1.04)) if space == H else draw(st.floats(1.05, 2.0))
             if space == S else math.pi / 3)
    spec = TetrahedronSpec(space, alpha)
    word = canonical_word(GeodesicType(*draw(st.sampled_from(coprime_types(12)))))
    quarter = draw(st.booleans())
    n = len(word.tokens) // 4 + 1 if quarter else len(word.tokens)
    fracs = [min(1.0, max(0.0, f + d)) for f, d in zip(
        word.fractions, draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))]
    return spec, word.tokens, fracs


@given(drawn_chains())
def test_chain_metrics_and_lengths_match_chord_segments(case):
    spec, tokens, fracs = case
    chain, measured, copies, crossings = paths._measured_chain(tokens, fracs)
    steps = frames.build_chain(spec, chain)
    ells = [spec.edges[tok] for tok in chain]
    args = (spec, steps, ells, measured, copies, crossings)
    assert _outcome(paths._chain_metrics, *args) == _outcome(_chain_metrics_from_segments, *args)
    s = [(f - 0.5) * ell for ell, f in zip(ells, measured)]
    arc = frames._KERNEL[spec.space][3]
    assert repr(frames.trace_geometry(steps, s)) == repr(
        [2.0 * arc(0.5 * math.sqrt(max(m, 0.0))) for m, _, _, _ in chord_segments(steps, s)[2]])


@given(drawn_chains())
def test_shoot_chord_pulls_back_as_matvec(case):
    spec, tokens, _ = case
    steps = frames.build_chain(spec, list(tokens) + [tokens[0]])
    if spec.space != S:     # the plane has the tiling line, the hyperboloid the carried chord
        with pytest.raises(ValueError, match="only the sphere's chord is shot"):
            frames.shoot_chord(steps)
        return
    v = (1.0, 0.0, 0.0)
    for step in reversed(steps):
        v = frames._matvec(step.inverse, v)
    theta = math.atan2(v[2], v[1])
    try:
        expected = (theta, *frames.propagate_chord(steps, theta))
    except NumericalFailure as exc:
        with pytest.raises(NumericalFailure, match=str(exc)):
            frames.shoot_chord(steps)
        return
    assert repr(frames.shoot_chord(steps)) == repr(expected)
