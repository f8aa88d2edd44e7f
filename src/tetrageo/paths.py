"""Construction and verification of candidate closed geodesics.

Three construction routes:

* Euclidean: the tiling-line method, exact rational crossings;
* spherical / hyperbolic regular: the midpoint-chord method on one quarter
  of the development (the central symmetry of the development transports
  the quarter to the whole curve);
* generic hyperbolic: the closed taut chord of the whole development, whose
  two incidence angles at the edge point s0 are supplementary.

Every chain is placed in the edge-local frames of :mod:`frames`, the
Euclidean one as the plane's k = 0.
The quarter chord is shot through the two midpoints in both curved spaces
(:func:`frames.shoot_chord`): on the sphere the shot is exact; on the
hyperboloid it seeds the one Newton solver of :func:`frames.relax_chord`,
pinned at X1 and Y1, and the exact Euclidean fractions are the seed when
the shot fails.  The generic tetrahedron's chord is the same solver closed
up.

Length, clearance and closure residual are recomputed from the crossing
fractions in edge-local frames, in all three spaces (closure angles at the
crossings, clearance pruned exactly by line distances): a regular midpoint
path on its quarter chain, which the half turns carry onto the whole
curve, a generic or Euclidean path on its whole closed chain.
Simplicity is decided from the fractions alone: along each edge they must
follow the strand order of the exact word.  The half turns' images of the
edges sit in a static table built at import.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from . import frames
from .combinat import GeodesicType, canonical_word, trace_crossings
from .errors import NumericalFailure, PreconditionFailed, TooLong, VertexHit
# rangle, rdistance and rside_measure have no caller here; they stay importable
# from this module because the perfbench layer trace counts kernel calls at this site
from .geom import SpaceKind, rangle, rdistance, rpoint_seg_dist, rside_measure  # noqa: F401
from .tetra import EDGES, TetrahedronSpec, edge_token
from .unfold import _center_involution

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

    signed_distance: in S, the distance of the end of the edge nearer the
    crossing from the chord's great circle, signed by the side of the pole
    X1 x Y1 it lies on; in H, where the solver keeps every crossing on its
    edge, the distance along the edge from the crossing to that end.
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
    e_j.  A vertex's distance to a segment's line is a lower bound of its
    distance to the segment: only a bound under the running minimum calls
    the clamped test.  ValueError for a fraction that is not finite or lies
    outside [0, 1], and for any other number of fractions.
    """
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise ValueError("every fraction must be finite and lie in [0, 1]")
    chain = _measured_chain(tokens, fractions)
    return _chain_metrics(spec, frames.build_chain(spec, chain[0]), *chain)


def _measured_chain(tokens, fractions):
    """Chain tokens, their fractions, copies in the curve and residual crossings (path_metrics)."""
    n, K = len(tokens), len(tokens) // 4
    if len(fractions) == n:         # closed: crossing 0 joins segments n-1 and 0
        return list(tokens) + [tokens[0]], list(fractions) + [fractions[0]], 1, range(n)
    if len(fractions) == K + 1:     # the quarter
        return tokens[:K + 1], fractions, 4, range(1, K)
    raise ValueError(f"{len(fractions)} fractions for a word of {n} tokens")


def _chain_metrics(spec, steps, chain, fracs, copies, crossings):
    """path_metrics of a path on ``steps``, the chain built for the tokens ``chain``.

    The plane's reps (1, x, y) enter the clamped segment distance as (x, y).
    """
    space = spec.space
    k = frames._KERNEL[space][0]
    arc = (lambda x: math.asin(min(1.0, x))) if k > 0 else frames._KERNEL[space][5]
    s = [(f - 0.5) * spec.face_edge_length(int(tok[0]), int(tok[1]))
         for tok, f in zip(chain, fracs)]
    cs, sn, terms = frames.chord_segments(steps, s)
    total, clearance, ends = 0.0, math.inf, []
    for i, (step, (m, cx, cy, _)) in enumerate(zip(steps, terms)):
        r = math.sqrt(m * (1.0 - 0.25 * k * m))          # S(d)
        total += 2.0 * arc(0.5 * math.sqrt(m))
        # the angles of segment i with e_i and e_{i+1}, at its two ends; each cosine
        # clamped as by max(-1, min(1, x)), a NaN to 1, without the two calls
        x, y = -cx / r, cy / r
        ends.append((math.acos((x if x > -1.0 else -1.0) if x < 1.0 else 1.0),
                     math.acos((y if y > -1.0 else -1.0) if y < 1.0 else 1.0)))
        # in the entry frame E_i: A = P(s_i), B = T_i^-1 P(s_{i+1}) = (B_0, B_1, w), and
        # with C, S at s_i, N = (S w, -k C w, k u) is normal to AB, <N, N> = u^2 + w^2
        # (in the plane, where C = 1, the vertex's distance to the line AB is the same ratio)
        (i00, i01, _), (i10, i11, _), (i20, i21, _) = step.inverse
        ca, sa, cb, sb = cs[i], sn[i], cs[i + 1], sn[i + 1]
        A = (ca, sa, 0.0)
        B = (i00 * cb + i01 * sb, i10 * cb + i11 * sb, i20 * cb + i21 * sb)
        u, w = ca * B[1] - sa * B[0], B[2]
        norm = math.sqrt(u * u + w * w)
        for V in step.verts.values():
            if arc(abs(w * (sa * V[0] - ca * V[1]) + u * V[2]) / norm) < clearance:
                clearance = min(clearance, rpoint_seg_dist(space, V[1:], A[1:], B[1:]) if not k
                                else rpoint_seg_dist(space, V, A, B))
    worst = max((abs(ends[j - 1][1] - ends[j][0]) for j in crossings), default=0.0)
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
    path is simple iff, walking each edge in strand order, no fraction
    drops by more than STRAND_TIE: closer crossings are not resolved by the
    rounding of the fractions and read as in order.  No geometry (``spec``
    is not needed).  Raises PreconditionFailed unless the path carries the
    canonical word of its type, as every path the library builds does.
    Only the path's gtype, tokens and fractions are read, so a path is
    checked before it is built (_assemble_path).
    """
    word = canonical_word(path.gtype)
    if path.tokens != word.tokens:
        raise PreconditionFailed("simplicity is decided on the canonical word of the path's type")
    fracs = path.fractions
    return all(fracs[i] - fracs[j] <= STRAND_TIE
               for strand in word.strands for i, j in zip(strand, strand[1:]))


# what simplicity_check reads of a path, for a path not yet built
_Crossings = namedtuple("_Crossings", "gtype tokens fractions")


def _assemble_path(spec, t, tokens, fractions, extras=None, measured=None, steps=None):
    """The path through the crossings, measured on the fractions ``measured`` (default: all).

    A curved construction passes the chain its solver used (``steps``, for
    the tokens path_metrics would measure); path_metrics builds the closed
    chain of a Euclidean path.
    """
    measured = fractions if measured is None else measured
    if steps is None:
        total, clearance, worst = path_metrics(spec, tokens, measured)
    else:
        total, clearance, worst = _chain_metrics(spec, steps, *_measured_chain(tokens, measured))
    return GeodesicPath(
        gtype=t, space=spec.space,
        crossings=tuple(zip(tokens, fractions)),
        total_length=total, clearance=clearance,
        closed=worst < 1e-8, simple=simplicity_check(_Crossings(t, tokens, fractions), spec),
        closure_residual=worst,
        min_fraction_margin=min(min(f, 1.0 - f) for f in fractions),
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
    if not math.isfinite(mu):
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
    return _assemble_path(spec, t, tokens, fractions,
                          extras={"mu": float(mu), "length_formula": 2.0 * math.sqrt(t.norm)})


# ---------------------------------------------------------------------------
# fraction mirroring through the symmetry points

# the half turn about mid(center): image token of each edge, and whether it flips the ends
_MIRROR = {center: {tok: (edge_token(sigma[int(tok[0])], sigma[int(tok[1])]),
                          sigma[int(tok[0])] > sigma[int(tok[1])]) for tok in EDGES}
           for center in EDGES for sigma in [_center_involution(center)]}


def full_fractions_from_quarter(seq, quarter_fracs):
    """Full fraction list from the K + 1 quarter fractions via the Y1 and X2 half turns.

    The half turn about the midpoint of e_c maps crossing c-k to crossing
    c+k and relabels endpoints by the edge involution, so fractions mirror
    (f -> 1-f exactly when the involution flips the endpoint order); images
    and flips come from the static table _MIRROR.  The map only appends
    mirror images: it checks that the word has the half-turn symmetry and
    that the mirrored fractions close up, and raises ValueError for any
    other number of fractions than K + 1.  ``seq`` is the type's word, a
    CanonicalWord or a CrossingSequence: only its tokens are read.
    """
    n = len(seq.tokens)
    K = n // 4
    toks = seq.tokens
    fracs = list(quarter_fracs)            # indices 0..K
    if len(fracs) != K + 1:
        raise ValueError(f"{len(fracs)} quarter fractions for a word of {n} tokens")
    for center in (K, 2 * K):
        mirror = _MIRROR[toks[center]]
        for k in range(1, center + 1):     # extend to index 2*center
            mapped, flip = mirror[toks[center - k]]
            if mapped != toks[(center + k) % n]:
                raise NumericalFailure("crossing word lacks the half-turn symmetry")
            f = fracs[center - k]
            fracs.append(1.0 - f if flip else f)
    if abs(fracs[n] - fracs[0]) > 1e-9:
        raise NumericalFailure("mirrored fractions do not close up")
    return fracs[:n]


# ---------------------------------------------------------------------------
# quarter construction (edge-local frames)

def _quarter_chord(spec, word):
    """Quarter chord of a curved regular tetrahedron: fractions f_0..f_K or a witness, extras,
    and the quarter chain's steps.

    The chord runs from the midpoint X1 of e_0 to the midpoint Y1 of e_K of
    the chain placed in edge-local frames, and is shot from X1 at Y1 first.
    On the hyperboloid the shot's crossing fractions seed Newton steps
    pinned at X1 and Y1, which polish the far crossings the shot loses to
    rounding on deep chains; a shot that misses an edge's geodesic or puts
    a crossing off its edge is replaced by the exact Euclidean fractions
    (the float fractions of ``word``, the type's CanonicalWord).  On the
    sphere the shot is the chord: it must reach e_K at its midpoint, and is
    checked against the whole chain: X2, Y2 and X1' must lie on it too.
    The chain is built once, on the sphere the whole closed one, whose
    first K steps are the quarter's.
    """
    n = len(word.tokens)
    K = n // 4
    tokens = list(word.tokens[:K + 1])
    spherical = spec.space == SpaceKind.SPHERICAL
    chain = frames.build_chain(spec, list(word.tokens) + tokens[:1] if spherical else tokens)
    steps = chain[:K]
    ells = [spec.face_edge_length(int(tok[0]), int(tok[1])) for tok in tokens]
    if spherical:
        theta, offsets, normals = frames.shoot_chord(steps)
    else:
        try:
            init = [(x + ell / 2.0) / ell for x, ell in zip(frames.shoot_chord(steps)[1], ells)]
        except NumericalFailure:          # the shot misses the geodesic of an edge
            init = [math.nan]
        if not all(0.0 < f < 1.0 for f in init):
            init = list(word.fractions[:K + 1])
        init[0] = init[K] = 0.5
        offsets = frames.relax_chord(steps, ells, init)
    fracs = [0.5] + [(offsets[i] + ells[i] / 2.0) / ells[i] for i in range(1, K)] + [0.5]
    for i in range(1, K):
        f = fracs[i]
        if not (FRACTION_MARGIN < f < 1.0 - FRACTION_MARGIN):
            if spherical:
                # V: the end of e_i nearer the crossing, measured from the smaller-labelled
                # end the short way round; the sign is that of the pole X1 x Y1 = -n
                u = math.remainder(offsets[i] + ells[i] / 2.0, 2.0 * math.pi)
                V = steps[i].verts[int(tokens[i][u > ells[i] / 2.0])]
                sd = -math.asin(max(-1.0, min(1.0, sum(a * b for a, b in zip(normals[i], V)))))
            else:
                sd = min(f, 1.0 - f) * ells[i]
            return None, NotContained(word.gtype, face_index=i, edge=tokens[i],
                                      signed_distance=sd), None, steps
    if abs(offsets[K]) > 0.5 * math.pi:     # the great circle runs into F_K at -mid(e_K)
        return None, NotContained(word.gtype, face_index=K, edge=tokens[K], signed_distance=0.0,
                                  reason="crossings out of order"), None, steps
    # pinned at both midpoints, the length is stationary in the interior
    # crossings; a grazing chord's rounding on e_K would enter it to first order
    offsets[0] = offsets[K] = 0.0
    quarter_len = sum(frames.trace_geometry(steps, offsets))
    if not spherical:
        return fracs, None, {"quarter_length": quarter_len}, steps
    # by the exact criterion a contained chord is shorter than 2*pi; the
    # length check runs after containment so genuine exits report a witness
    if 4.0 * quarter_len >= 2.0 * math.pi:
        raise TooLong(f"candidate length {4 * quarter_len:.6f} >= 2*pi")
    # mid(e_j) is (1, 0, 0) in frame E_j: its distance from the chord is asin(n_0)
    normals = frames.propagate_chord(chain, theta)[1]
    sym_res = max(abs(normals[j][0]) for j in (n // 2, 3 * n // 4, n))
    if sym_res > 1e-8:
        raise NumericalFailure(f"symmetry points off the chord by {sym_res:.3e}")
    return fracs, None, {"quarter_length": quarter_len, "symmetry_residual": sym_res}, steps


def midpoint_geodesic(spec: TetrahedronSpec, t: GeodesicType):
    """Midpoint-chord candidate of type (p,q) on a curved regular tetrahedron.

    Returns the GeodesicPath when the chord stays strictly inside the face
    chain, otherwise the first NotContained witness.  The quarter chord is
    shot (:func:`_quarter_chord`), on the hyperboloid as the seed of a
    Newton solve, the Euclidean fractions its fallback.  Spherical chords of
    length >= 2*pi raise TooLong.  The path is measured on its quarter
    chain, so its closure residual covers the quarter's interior crossings
    only.  The other crossings, those at the symmetry points X1, Y1, X2 and
    Y2 among them, rest on the mirror map instead: it checks that the word
    has the half-turn symmetry and pins the symmetry crossings to edge
    midpoints, and the half turns carry the quarter onto the rest of the
    curve, the segment before a symmetry point onto the one after it.  On
    the sphere the whole chain is checked as well (the symmetry residual).
    """
    if spec.space == SpaceKind.EUCLIDEAN:
        raise PreconditionFailed("use euclid_geodesic for the Euclidean tetrahedron")
    word = canonical_word(t)
    spherical = spec.space == SpaceKind.SPHERICAL
    quarter, witness, extras, steps = _quarter_chord(spec, word)
    if witness is not None:
        return witness
    fracs = full_fractions_from_quarter(word, quarter)
    path = _assemble_path(spec, t, word.tokens, fracs, extras=extras, measured=quarter,
                          steps=steps)
    if spherical and path.total_length >= 2.0 * math.pi:
        raise TooLong(f"constructed length {path.total_length:.6f} >= 2*pi")
    if not (spherical or path.closed):
        raise NumericalFailure(
            f"quarter chord fails the closure check (residual {path.closure_residual:.3e})")
    return path


# ---------------------------------------------------------------------------
# generic hyperbolic tetrahedra: the closed taut chord

def generic_hyperbolic_geodesic(spec, t: GeodesicType):
    """Type-(p,q) geodesic on a hyperbolic tetrahedron with angles <= pi/4.

    The geodesic is the chord of the unrolled chain e_0..e_N that closes
    up: e_N is e_0 again with the same crossing offset, and the closed
    chain's length is stationary exactly where the two incidence angles at
    X(s0) are supplementary.  Strict convexity of the length makes that
    point unique; one closed Newton solve in edge-local frames finds it.
    """
    if isinstance(spec, TetrahedronSpec):
        if spec.space != SpaceKind.HYPERBOLIC or spec.alpha > math.pi / 4 + 1e-12:
            raise PreconditionFailed("regular spec must be hyperbolic with alpha <= pi/4")
    elif not spec.all_angles_le(math.pi / 4):
        raise PreconditionFailed("all twelve planar angles must be at most pi/4")

    word = canonical_word(t)
    tokens_ext = list(word.tokens) + [word.tokens[0]]
    steps = frames.build_chain(spec, tokens_ext)
    ells = [spec.face_edge_length(int(tok[0]), int(tok[1])) for tok in tokens_ext]
    init = list(word.fractions) + [word.fractions[0]]
    offsets = frames.relax_chord(steps, ells, init, closed=True)
    fracs = [(offsets[i] + ells[i] / 2.0) / ells[i] for i in range(len(word.tokens))]
    for i, f in enumerate(fracs):
        if not (FRACTION_MARGIN < f < 1.0 - FRACTION_MARGIN):
            raise NumericalFailure(f"crossing {i} leaves its edge (fraction {f})")
    path = _assemble_path(spec, t, word.tokens, fracs,
                          extras={"s0": offsets[0] + ells[0] / 2.0}, steps=steps)
    if not path.closed:
        raise NumericalFailure(
            f"extracted path fails closure (residual {path.closure_residual:.3e})")
    return path
