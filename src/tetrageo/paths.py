"""Construction and verification of candidate closed geodesics.

Three construction routes:

* Euclidean: the tiling-line method, exact rational crossings;
* spherical / hyperbolic regular: the midpoint-chord method on one quarter
  of the development (the central symmetry of the development transports
  the quarter to the whole curve);
* generic hyperbolic: the axis of the holonomy of the whole closed
  development, through its two ideal fixed points.

Every chain is placed in the edge-local frames of :mod:`frames`, the
Euclidean one as the plane's k = 0, and measured as it was built.
The quarter chord runs through the two midpoints X1 and Y1: on the sphere
it is shot from X1 at Y1 (:func:`frames.shoot_chord`), and its distance
from Y1 checks the half-turn symmetry.  No hyperbolic chord is solved
for: X1 and Y1, or the generic chain's two fixed points
(:func:`frames.holonomy_ends`), are carried toward each other and each
crossing is read in its own frame (:func:`_two_point_chord`).

Length, clearance and closure residual are recomputed from the crossing
fractions in edge-local frames, in all three spaces (closure angles at the
crossings, clearance pruned exactly by line distances): a regular midpoint
path on its quarter chain, which the half turns carry onto the whole
curve, a generic or Euclidean path on its whole closed chain.
Simplicity is decided from the fractions alone: along each edge they must
follow the strand order of the exact word, read by the word's two getters.
The mirror map replays the half-turn walk that completed the type's
canonical word (CanonicalWord.mirror): no word is walked twice.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

from . import frames
from .combinat import GeodesicType, canonical_word, trace_crossings
from .errors import NumericalFailure, PreconditionFailed, TooLong, VertexHit
# rangle, rdistance and rside_measure have no caller here; they stay importable
# from this module because the perfbench layer trace counts kernel calls at this site
from .geom import SpaceKind, rangle, rdistance, rpoint_seg_dist, rside_measure  # noqa: F401
from .tetra import TetrahedronSpec

FRACTION_MARGIN = 1e-9
STRAND_TIE = 1e-12  # crossings of one edge closer than this (in fraction) are unresolved


@dataclass(frozen=True)
class GeodesicPath:
    """A closed polyline on the tetrahedron, one crossing per edge visit."""

    gtype: GeodesicType
    space: SpaceKind
    crossings: tuple          # ((edge token, fraction from smaller label), ...)
    total_length: float
    clearance: float
    closed: bool
    simple: bool
    closure_residual: float
    min_fraction_margin: float
    extras: dict = field(default_factory=dict, compare=False)

    @property
    def tokens(self):
        return tuple(tok for tok, _ in self.crossings)

    @property
    def fractions(self):
        return tuple(f for _, f in self.crossings)


@dataclass(frozen=True)
class NotContained:
    """First boundary violation of the midpoint chord.

    signed_distance: in S, the distance from the chord's great circle of
    whichever end of the edge lies nearer it, signed by the side of the pole
    X1 x Y1 it lies on; in H, the distance along the edge from the crossing
    to the nearer end, negative for a crossing that lies off its edge.
    """

    gtype: GeodesicType
    face_index: int
    edge: str
    signed_distance: float
    reason: str = "chord leaves the face chain"


# ---------------------------------------------------------------------------
# fold-back metrics
#
# Metric computations run in the edge-local frames of the chain (hyperboloid
# reps for H): folding through Klein coordinates costs ~cosh(a)^2 * eps of
# precision, which is fatal for the large edge lengths of small planar angles.

def path_metrics(spec, tokens, fractions):
    """Length, vertex clearance and worst closure residual of a closed path.

    Paths of all three spaces are measured in the edge-local frames of a
    chain, offsets taken from the fractions alone.  Given one fraction per
    token, the chain is the closed one e_0..e_n = e_0.  Given the whole word
    of a regular midpoint path but only its K + 1 = n/4 + 1 quarter
    fractions, it is the quarter e_0..e_K: the half turns about the symmetry
    points carry the quarter onto the other three, so the length is four
    times the quarter's, the clearance is the quarter's, and the residual is
    taken over the interior crossings 1..K-1 (at a symmetry point the two
    segments are images of each other under its half turn).  The residual at
    crossing j is the difference of the angles of segments j-1 and j with
    e_j.  A vertex's distance to a segment's line bounds its distance to the
    segment from below, a crossing's to the nearer end of its edge the
    clearance from above: only a line distance under that bound and the
    running minimum calls the clamped test.  ValueError for a fraction not
    finite or outside [0, 1], for any other number of fractions, for an
    empty word, for consecutive edges (e_n = e_0 closes the chain) that
    do not share exactly one vertex, and for two consecutive crossings both
    at the vertex their edges share, whose segment has no length.
    """
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise ValueError("every fraction must be finite and lie in [0, 1]")
    chain = _measured_chain(tokens, fractions)
    steps = frames.build_chain(spec, chain[0])
    for i, step in enumerate(steps):
        if (_END.get(chain[1][i]), _END.get(chain[1][i + 1])) == step.sides:
            raise ValueError(f"crossing {i} and the next sit at the vertex their edges share")
    return _chain_metrics(spec, steps, [spec.edges[tok] for tok in chain[0]], *chain[1:])


_END = {0.0: -1, 1.0: 1}     # the end of an edge a fraction sits at, as in ChainStep.sides


def _measured_chain(tokens, fractions):
    """Chain tokens, their fractions, copies in the curve and residual crossings (path_metrics)."""
    measured = _measured(len(tokens), fractions)
    return (tokens[:len(fractions)] if measured[1] == 4 else list(tokens) + [tokens[0]]), *measured


def _measured(n, fractions):
    """_measured_chain of a word of n tokens but its tokens: the fractions, copies and crossings."""
    K = n // 4
    if len(fractions) == n > 0:     # closed: crossing 0 joins segments n-1 and 0
        return list(fractions) + [fractions[0]], 1, range(n)
    if len(fractions) == K + 1 > 1:     # the quarter
        return fractions, 4, range(1, K)
    raise ValueError(f"{len(fractions)} fractions for a word of {n} tokens")


def _chain_metrics(spec, steps, ells, fracs, copies, crossings):
    """path_metrics of a path on ``steps``, the chain of edges of lengths ``ells``.

    The plane's reps (1, x, y) enter the clamped segment distance as (x, y).
    """
    space = spec.space
    k, C, S, arc = frames._KERNEL[space]
    cut, tie = (0, 0.0) if k else (1, 1e-12)     # the plane's h / norm and hypot round apart
    s = [(f - 0.5) * ell for ell, f in zip(ells, fracs)]
    # the edge-end bound, widened by 1e-9 relative and absolute past a crossing's rounding
    bound = min([0.5 * ell - abs(x) for ell, x in zip(ells, s)]) * (1.0 + 1e-9) + 1e-9
    lim = math.sinh(bound) if k < 0 else math.sin(min(bound, 0.5 * math.pi)) if k else bound
    total, clearance, ends, cb, sb = 0.0, math.inf, [], C(s[0]), S(s[0])
    for step, xb in zip(steps, s[1:]):
        # m, cx, cy: <D, D>, -<dA, D>, <D, dB> of segment i, as frames._chord_derivatives
        t00, t01, t10, t11, t20, t21 = step.row
        ca, sa, cb, sb = cb, sb, C(xb), S(xb)
        da = -k * sa
        d0, d1, d2 = cb - (t00 * ca + t01 * sa), sb - (t10 * ca + t11 * sa), -(t20 * ca + t21 * sa)
        a0, a1, a2 = t00 * da + t01 * ca, t10 * da + t11 * ca, t20 * da + t21 * ca
        m, cx, cy = (k * d0 * d0 + d1 * d1 + d2 * d2, -(k * a0 * d0 + a1 * d1 + a2 * d2),
                     -d0 * sb + d1 * cb)
        r = m * (1.0 - 0.25 * k * m)                     # S(d)^2
        if not r > 0.0:     # as where <D, D> rounds to 0 or below near the ideal limit
            raise NumericalFailure(f"chain segment {len(ends)}: S(d)^2 = {r!r} is not positive")
        r = math.sqrt(r)
        total += 2.0 * arc(0.5 * math.sqrt(m))     # m < 4 on the sphere, as S(d)^2 > 0
        # the angles of segment i with e_i and e_{i+1}, at its two ends; each cosine
        # clamped as by max(-1, min(1, x)), a NaN to 1, without the two calls
        x, y = -cx / r, cy / r
        ends.append((math.acos((x if x > -1.0 else -1.0) if x < 1.0 else 1.0),
                     math.acos((y if y > -1.0 else -1.0) if y < 1.0 else 1.0)))
        # in the entry frame E_i: A = P(s_i) = (C, S, 0), B = T_i^-1 P(s_{i+1}) = (b0, b1, w),
        # and N = (S w, -k C w, k u) is normal to AB, <N, N> = u^2 + w^2 (in the plane,
        # where C = 1, the vertex's distance to the line AB is the same ratio)
        (i00, i01, _), (i10, i11, _), (i20, i21, _) = step.inverse
        b0, b1, w = i00 * cb + i01 * sb, i10 * cb + i11 * sb, i20 * cb + i21 * sb
        u = ca * b1 - sa * b0
        norm = math.sqrt(u * u + w * w)
        reach = lim * norm      # h < reach holds h / norm under sin(bound) <= 1 on the sphere
        for v0, v1, v2 in step.verts:
            h = abs(w * (sa * v0 - ca * v1) + u * v2)
            if h < reach and arc(h / norm) < clearance + tie:
                clearance = min(clearance, rpoint_seg_dist(
                    space, (v0, v1, v2)[cut:], (ca, sa, 0.0)[cut:], (b0, b1, w)[cut:]))
    worst = max([abs(ends[j - 1][1] - ends[j][0]) for j in crossings], default=0.0)
    return copies * total, clearance, worst


def vertex_clearance(path, spec):
    """Minimum distance from the four vertices to the path; ValueError for another space's spec."""
    if spec.space != path.space:
        raise ValueError(f"{path.space.name} path measured on a {spec.space.name} tetrahedron")
    _, clearance, _ = path_metrics(spec, path.tokens, path.fractions)
    return clearance


def simplicity_check(path, spec):
    """No two segments on a common tetrahedron face cross in their interiors.

    A simple curve with the canonical word of its type crosses each edge in
    one order, the tiling line's strand order (:func:`combinat.strand_order`),
    and a curve in that order is simple: faces are geodesically convex, so
    two segments of one face cross iff their ends interleave along its
    boundary, and in strand order they nest as the tiling line's do.  The
    path is simple iff, walking each edge in strand order (the word's
    strand_pairs), no fraction drops by more than STRAND_TIE: closer
    crossings are not resolved by rounding and read as in order, a NaN as
    out of order.  No geometry (``spec`` is not needed).  PreconditionFailed
    unless the path carries the canonical word of its type, as every path
    the library builds does.  Only the path's gtype, tokens and fractions
    are read, so a path is checked before it is built (_assemble_path).
    """
    word = canonical_word(path.gtype)
    if path.tokens != word.tokens:
        raise PreconditionFailed("simplicity is decided on the canonical word of the path's type")
    fracs, (before, after) = path.fractions, word.strand_pairs
    return all(map(operator.le, map(operator.sub, before(fracs), after(fracs)),
                   repeat(STRAND_TIE)))


# what simplicity_check reads of a path, for a path not yet built
_Crossings = namedtuple("_Crossings", "gtype tokens fractions")


def _assemble_path(spec, t, tokens, fractions, chain, extras=None, measured=None):
    """The path through the crossings, measured at the fractions ``measured`` (default: all)
    on ``chain``: the steps and edge lengths of the tokens path_metrics would measure."""
    measured = fractions if measured is None else measured
    total, clearance, worst = _chain_metrics(spec, *chain, *_measured(len(tokens), measured))
    return GeodesicPath(
        gtype=t, space=spec.space,
        crossings=tuple(zip(tokens, fractions)),
        total_length=total, clearance=clearance,
        closed=worst < 1e-8, simple=simplicity_check(_Crossings(t, tokens, fractions), spec),
        closure_residual=worst,
        min_fraction_margin=min(min(fractions), 1.0 - max(fractions)),
        extras=dict(extras or {}))


# ---------------------------------------------------------------------------
# Euclidean tiling construction

def euclid_mu_interval(t: GeodesicType):
    """Open interval of valid anchors mu around 1/2 (exact rationals)."""
    pe, qe = t.effective()
    forbidden = set()
    for k in range(0, 2 * qe + 1):
        forbidden.add(Fraction(-k * (qe + 2 * pe), qe) % 1)
        forbidden.add((Fraction(1, 2) - Fraction((2 * k + 1) * (qe + 2 * pe), 2 * qe)) % 1)
    half = Fraction(1, 2)
    assert half not in forbidden, "mu=1/2 must be admissible"
    lo = max(f for f in forbidden if f < half)
    hi = min((f for f in forbidden if f > half), default=Fraction(1))
    return lo, hi


def euclid_geodesic(t: GeodesicType, mu=Fraction(1, 2)):
    """Type-(p,q) geodesic from the tiling segment anchored at X(mu, 0)."""
    if isinstance(mu, float) and not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    mu = Fraction(mu)
    lo, hi = euclid_mu_interval(t)
    if not (lo < mu < hi):
        raise VertexHit(f"mu={mu} outside the valid interval ({lo}, {hi})")
    recs = trace_crossings(t, mu)
    tokens = tuple(r[1] for r in recs)
    fractions = tuple(float(r[2]) for r in recs)
    if min(min(f, 1.0 - f) for f in fractions) < FRACTION_MARGIN:
        raise VertexHit(f"mu={float(mu)} puts a crossing within {FRACTION_MARGIN} of a vertex")
    spec = TetrahedronSpec(SpaceKind.EUCLIDEAN, math.pi / 3)
    closed = tokens + tokens[:1]
    return _assemble_path(spec, t, tokens, fractions,
                          (frames.build_chain(spec, closed), [spec.edges[tok] for tok in closed]),
                          extras={"mu": float(mu), "length_formula": 2.0 * math.sqrt(t.norm)})


# ---------------------------------------------------------------------------
# fraction mirroring through the symmetry points

def full_fractions_from_quarter(seq, quarter_fracs):
    """Full fraction list from the K + 1 quarter fractions via the Y1 and X2 half turns.

    The half turn about the midpoint of e_c maps crossing c-k to crossing
    c+k and relabels endpoints by the edge involution, so fractions mirror
    (f -> 1 - f, a Fraction kept exact, when the involution flips the
    endpoint order); images and flips are those the type's canonical word
    recorded as its half turns completed it (CanonicalWord.mirror).  The map
    only appends mirror images and checks that they close up.  ValueError
    for any other number of fractions than K + 1 or a fraction not finite or
    outside [0, 1]; NumericalFailure on every call for a ``seq`` (CanonicalWord
    or CrossingSequence) whose tokens are not its type's canonical word.
    """
    toks, fracs = seq.tokens, list(quarter_fracs)     # fracs: indices 0..K
    n = len(toks)
    if len(fracs) != n // 4 + 1:
        raise ValueError(f"{len(fracs)} quarter fractions for a word of {n} tokens")
    if not all([0.0 <= f <= 1.0 for f in fracs]):
        raise ValueError("every fraction must be finite and lie in [0, 1]")
    word = canonical_word(seq.gtype)
    if toks is not word.tokens and tuple(toks) != word.tokens:
        raise NumericalFailure("crossing word lacks the half-turn symmetry of the canonical word")
    for i, flip in zip(*word.mirror):
        f = fracs[i]
        fracs.append(1 - f if flip else f)
    if abs(fracs[n] - fracs[0]) > 1e-9:
        raise NumericalFailure("mirrored fractions do not close up")
    return fracs[:n]


# ---------------------------------------------------------------------------
# quarter construction (edge-local frames)

def _two_point_chord(steps, behind, ahead):
    """Offsets s_0..s_K on the chain e_0..e_K of the hyperbolic line through two points.

    ``behind`` in frame E_0 is carried forward through the transitions and
    ``ahead`` in frame E_K backward through the inverses, each as a
    projective point (either may be ideal); in frame E_i they are P_i and
    Q_i, the line's normal is J(P_i x Q_i), J = diag(-1, 1, 1), and it
    meets e_i at tanh s = n_0 / n_1 (NumericalFailure if it misses).
    """
    ps = frames.carry([step.transition for step in steps], behind)
    qs = frames.carry([step.inverse for step in reversed(steps)], ahead)[::-1]
    offsets = []
    for i, ((p0, p1, p2), (q0, q1, q2)) in enumerate(zip(ps, qs)):
        n0, n1 = p2 * q1 - p1 * q2, p2 * q0 - p0 * q2     # of J(P_i x Q_i)
        if not abs(n0) < abs(n1):     # or not finite
            raise NumericalFailure(f"chord misses the geodesic of edge e_{i}")
        offsets.append(math.atanh(n0 / n1))
    return offsets


def _quarter_chord(spec, word):
    """Quarter chord of a curved regular tetrahedron: fractions f_0..f_K or a witness, extras,
    and the quarter chain: its steps and edge lengths.

    The chord runs from the midpoint X1 of e_0 to the midpoint Y1 of e_K of
    the quarter chain e_0..e_K placed in edge-local frames (``word`` is the
    type's CanonicalWord).  On the hyperboloid the chord is the line through
    X1 = (1, 0, 0) in frame E_0 and Y1 = (1, 0, 0) in frame E_K, each
    crossing read in its own frame (:func:`_two_point_chord`).  On the sphere
    the chord is shot from X1 at Y1: it must reach e_K at its midpoint, and
    its distance from Y1 is the symmetry residual.
    """
    K = len(word.tokens) // 4
    tokens = word.tokens[:K + 1]
    steps = frames.build_chain(spec, tokens)
    ells = [spec.edges[tok] for tok in tokens]
    spherical = spec.space == SpaceKind.SPHERICAL
    if spherical:
        _, offsets, normals = frames.shoot_chord(steps)
        # mid(e_K) is (1, 0, 0) in frame E_K: its distance from the chord is asin(n_0)
        extras = {"symmetry_residual": abs(normals[K][0])}
    else:
        offsets, extras = _two_point_chord(steps, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)), {}
    fracs = [0.5] + [(offsets[i] + ells[i] / 2.0) / ells[i] for i in range(1, K)] + [0.5]
    for i in range(1, K):
        f = fracs[i]
        if not (FRACTION_MARGIN < f < 1.0 - FRACTION_MARGIN):
            if spherical:
                # the end of e_i nearer the chord's great circle, signed by the side
                # of the pole X1 x Y1 = -n it lies on
                dots = [sum(a * b for a, b in zip(normals[i], end)) for end in steps[i].verts[:2]]
                sd = -math.asin(max(-1.0, min(1.0, min(dots, key=abs))))
            else:
                sd = min(f, 1.0 - f) * ells[i]
            return None, NotContained(word.gtype, face_index=i, edge=tokens[i],
                                      signed_distance=sd), None, (steps, ells)
    if abs(offsets[K]) > 0.5 * math.pi:     # the great circle runs into F_K at -mid(e_K)
        return None, NotContained(word.gtype, face_index=K, edge=tokens[K], signed_distance=0.0,
                                  reason="crossings out of order"), None, (steps, ells)
    return fracs, None, extras, (steps, ells)


def midpoint_geodesic(spec: TetrahedronSpec, t: GeodesicType):
    """Midpoint-chord candidate of type (p,q) on a curved regular tetrahedron.

    Returns the GeodesicPath when the chord stays strictly inside the face
    chain, otherwise the first NotContained witness.  The quarter chord is
    shot on the sphere and carried from its two ends on the hyperboloid
    (:func:`_quarter_chord`).  The path is measured on its quarter chain,
    so its closure residual covers the quarter's interior crossings only.  The
    other crossings, those at the symmetry points X1, Y1, X2 and Y2 among
    them, rest on the mirror map: it checks the word's half-turn symmetry
    and pins the symmetry crossings to edge midpoints, and the half turns
    carry the quarter onto the rest of the curve.  On the sphere a contained
    chord of length >= 2*pi raises TooLong, then one whose great circle
    misses Y1 by more than 1e-8 NumericalFailure: the half turn about Y1
    maps the great circle onto itself exactly when Y1 lies on it, and then
    X2, Y2 and X1' do too.
    """
    if spec.space == SpaceKind.EUCLIDEAN:
        raise PreconditionFailed("use euclid_geodesic for the Euclidean tetrahedron")
    word = canonical_word(t)
    quarter, witness, extras, chain = _quarter_chord(spec, word)
    if witness is not None:
        return witness
    fracs = full_fractions_from_quarter(word, quarter)
    path = _assemble_path(spec, t, word.tokens, fracs, chain, extras=extras, measured=quarter)
    if spec.space == SpaceKind.HYPERBOLIC:
        if not path.closed:
            raise NumericalFailure(
                f"quarter chord fails the closure check (residual {path.closure_residual:.3e})")
    elif path.total_length >= 2.0 * math.pi:
        raise TooLong(f"candidate length {path.total_length:.6f} >= 2*pi")
    elif extras["symmetry_residual"] > 1e-8:
        raise NumericalFailure(
            f"symmetry points off the chord by {extras['symmetry_residual']:.3e}")
    return path


# ---------------------------------------------------------------------------
# generic hyperbolic tetrahedra: the closed taut chord

def generic_hyperbolic_geodesic(spec, t: GeodesicType):
    """Type-(p,q) geodesic on a hyperbolic tetrahedron with angles <= pi/4.

    The geodesic is the axis of the holonomy M of the unrolled chain
    e_0..e_N, e_N being e_0 again: the line through M's ideal fixed points,
    the attracting one carried forward and the repelling one backward, where
    their rounding does not grow.  extras["s0"]: its crossing on e_0.
    NumericalFailure if M is not hyperbolic or the axis misses an edge.
    """
    if isinstance(spec, TetrahedronSpec):
        if spec.space != SpaceKind.HYPERBOLIC or spec.alpha > math.pi / 4 + 1e-12:
            raise PreconditionFailed("regular spec must be hyperbolic with alpha <= pi/4")
    elif not spec.all_angles_le(math.pi / 4):
        raise PreconditionFailed("all twelve planar angles must be at most pi/4")

    word = canonical_word(t)
    tokens_ext = list(word.tokens) + [word.tokens[0]]
    steps = frames.build_chain(spec, tokens_ext)
    ells = [spec.edges[tok] for tok in tokens_ext]
    offsets = _two_point_chord(steps, *frames.holonomy_ends(steps))
    fracs = [(offsets[i] + ells[i] / 2.0) / ells[i] for i in range(len(word.tokens))]
    for i, f in enumerate(fracs):
        if not (FRACTION_MARGIN < f < 1.0 - FRACTION_MARGIN):
            raise NumericalFailure(f"crossing {i} leaves its edge (fraction {f})")
    path = _assemble_path(spec, t, word.tokens, fracs, (steps, ells),
                          extras={"s0": offsets[0] + ells[0] / 2.0})
    if not path.closed:
        raise NumericalFailure(
            f"extracted path fails closure (residual {path.closure_residual:.3e})")
    return path
