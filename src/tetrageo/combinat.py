"""Combinatorial crossing structure of type-(p,q) geodesics.

The crossing word is generated by tracing a straight line through the
standard triangular tiling of the plane whose vertices carry tetrahedron
labels.  Working in sheared coordinates (x, Y) with Y = y/sqrt(3), the
tiling is cut out by three line families

    rows        Y = m/2          (m integer),
    diagonals   x - Y = n        (n integer),
    diagonals   x + Y = n        (n integer),

and the traced segment runs from (mu, 0) to (mu + qe + 2*pe, qe).  The
orientation (pe, qe) is (p, q) when q is odd and (q, p) otherwise: the
row family must carry the odd member of the pair, else the mu = 1/2 line
passes through a tiling vertex.  All crossing ordinates share one
denominator D, so the trace runs exactly on scaled integers.  The
canonical word (mu = 1/2) traces its first quarter only and completes it by
the half turns about its quarter points (tetra.HALF_TURN), on integers too
(:class:`CanonicalWord`, cached for the most recently used types): its
tokens, the numerators F of its fractions F/D and their rounded floats,
its per-edge strand order and its mirror plan, which the constructions read.
``Fraction`` values are built where a caller asks for them: the records of
:func:`trace_crossings` and the canonical :class:`CrossingSequence`.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import NoLinkNodes, VertexHit
from .tetra import HALF_TURN, OPPOSITE_EDGE, edge_token


_INTEGRAL = (int, numbers.Integral)     # int first: a plain int skips the slow ABC check


@dataclass(frozen=True)
class GeodesicType:
    """Coprime ordered pair naming the combinatorial class."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, _INTEGRAL) and isinstance(self.q, _INTEGRAL)):
            raise ValueError(f"p and q must be integers; got {(self.p, self.q)}")
        if not (0 <= self.p <= self.q) or (self.p, self.q) == (0, 0):
            raise ValueError(f"need 0 <= p <= q, (p,q) != (0,0); got {(self.p, self.q)}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime; got {(self.p, self.q)}")

    @property
    def n_crossings(self):
        return 4 * (self.p + self.q)

    @property
    def norm(self):
        """p^2 + pq + q^2, the quantity entering every closed-form bound."""
        return self.p * self.p + self.p * self.q + self.q * self.q

    def effective(self):
        """(pe, qe) with the odd count on the row family."""
        if self.q % 2 == 1:
            return (self.p, self.q)
        return (self.q, self.p)


@dataclass(frozen=True)
class CrossingSequence:
    """Cyclic word of crossed edges, with exact crossing fractions when traced."""

    gtype: GeodesicType
    tokens: tuple
    fractions: tuple = None  # Fraction from the smaller-labelled endpoint, or None

    def __len__(self):
        return len(self.tokens)

    def multiplicities(self):
        return dict(Counter(self.tokens))


# label of the tiling vertex at (x, Y) = (u/2, m/2): _ROW_LABELS[m % 4][(u // 2) % 2]
_ROW_LABELS = ((1, 2), (3, 4), (2, 1), (4, 3))

# (token, whether l0 is the smaller-labelled end) of the edge from label l0 to l1, read for
# each crossing by its end labels: rows by (m % 4, k % 2), the diagonal families s = +-1
# by (y0 % 4, n % 2), as the labels repeat with period 4 in m and in u
_EDGE = {(l0, l1): (edge_token(l0, l1), l0 < l1) for l0 in range(1, 5) for l1 in range(1, 5)}
_ROW_EDGE = tuple(tuple(_EDGE[row[k], row[1 - k]] for k in (0, 1)) for row in _ROW_LABELS)
_DIAG_EDGE = {s: tuple(tuple(_EDGE[_ROW_LABELS[y][((2 * n + s * y) // 2) % 2],
                                  _ROW_LABELS[(y + 1) % 4][((2 * n + s * (y + 1)) // 2) % 2]]
                             for n in (0, 1)) for y in range(4)) for s in (1, -1)}


def _integer_trace(t, a, b, last=None):
    """Crossings of the tiling segment anchored at mu = a/b, on integers.

    Returns D and the records (x * D, token, fraction * D) sorted by x, with
    the fraction measured from the smaller-labelled endpoint; see
    :func:`trace_crossings`.  A stored F or D - F lies outside (0, D) at a vertex hit.
    Given ``last`` = (n, d), the records stop at the abscissa n/d (included),
    else at the segment's end, the first crossing again.
    """
    pe, qe = t.effective()
    w = qe + 2 * pe
    D = 2 * b * math.lcm(qe, pe + qe, pe or 1)
    X0, step = a * (D // b), w * (D // (2 * qe))
    stop = X0 + w * D if last is None else last[0] * D // last[1] + 1   # trace X < stop
    out, half = [], D // 2
    # rows Y = m/2, m = 0 .. 2*qe - 1 (m = 2*qe is identified with m = 0); the vertices
    # of row m sit at x = k + off, off = 1/2 on odd rows: the edge is u = 2k + m % 2 to u + 2
    for m in range(0, -(-(stop - X0) // step)):
        X = X0 + m * step
        k, F = divmod(X - half * (m % 2), D)
        tok, up = _ROW_EDGE[m % 4][k % 2]
        out.append((X, tok, F if up else D - F))

    # diagonals x - sY = n, crossed 2c times: the climbing family (s = 1, c = pe,
    # no crossing when pe = 0) and the descending one (s = -1, c = pe + qe); T = 2Y * D
    for s, c in ((1, pe), (-1, pe + qe)):
        edges = _DIAG_EDGE[s]
        for n in range(a // b + 1, -(-(2 * c * b * stop + s * qe * a * D) // (w * b * D))):
            X = (n * w * b - s * qe * a) * (D // (2 * c * b))
            y0, F = divmod(qe * (n * b - a) * (D // (c * b)), D)
            tok, up = edges[y0 % 4][n % 2]
            out.append((X, tok, F if up else D - F))

    for X, _, F in out:
        if F <= 0 or F >= D:
            raise VertexHit(f"tiling line through mu={Fraction(a, b)} hits a vertex "
                            f"near x={Fraction(X, D)}")
    out.sort()   # three runs, each already sorted by x
    if last is None and len(out) != t.n_crossings:
        raise VertexHit(f"expected {t.n_crossings} crossings, traced {len(out)}")
    if len({X for X, _, _ in out}) < len(out):
        raise VertexHit("two crossings coincide: segment passes a tiling vertex")
    return D, out


def trace_crossings(t: GeodesicType, mu):
    """All crossings of the tiling segment, sorted by x; exact arithmetic.

    Returns a list of (x, token, fraction) with fraction measured from the
    smaller-labelled endpoint.  Raises VertexHit if the line meets a tiling
    vertex (or if two crossings coincide, which is the same event), and
    ValueError for an infinite or NaN mu.

    The trace runs on integers: for mu = a/b every crossing abscissa and
    fraction is a multiple of 1/D, D = 2 b lcm(qe, pe, pe+qe), the common
    denominator of the rows, both diagonal families and the anchor.
    Fractions are built only for the returned records.
    """
    if isinstance(mu, float) and not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    mu = Fraction(mu)
    D, out = _integer_trace(t, mu.numerator, mu.denominator)
    return [(Fraction(X, D), tok, Fraction(F, D)) for X, tok, F in out]


@dataclass(frozen=True)
class CanonicalWord:
    """The canonical (mu = 1/2) word of a type on integers.

    Crossing i lies on edge tokens[i] at fraction numerators[i] / denominator
    from its smaller-labelled end; fractions holds those quotients as
    correctly rounded floats, equal to float(Fraction(F, D)).  strands is
    the strand order: per crossed edge, its crossing indices by fraction;
    strand_pairs, two getters of (f_i, ...) and (f_j, ...) over its steps i, j.
    mirror, the half-turn walk that completed the word: the sources c - k
    (c = K, then 2K; k = 1..c) of the images at c + k, index 4K being
    crossing 0, and whether each flips its fraction (two flat tuples).
    """

    gtype: GeodesicType
    tokens: tuple
    numerators: tuple
    denominator: int
    fractions: tuple
    strands: tuple
    mirror: tuple

    def __post_init__(self):    # itemgetter(*idx) returns a tuple for two indices or more
        before, after = [], []
        for strand in self.strands:
            before += strand[:-1]
            after += strand[1:]
        object.__setattr__(self, "strand_pairs", tuple(
            operator.itemgetter(*idx) if len(idx) > 1
            else lambda seq, idx=idx: tuple(seq[i] for i in idx) for idx in (before, after)))


# bounded: the words of every type with p+q <= 154 (a count at L = 320) hold ~150 MB,
# the 256 largest of them ~16 MB
@functools.lru_cache(maxsize=256)
def canonical_word(t: GeodesicType):
    """The integer canonical word of type (p,q), cached for the 256 most recently used types.

    Crossings 0..K (K = p+q), up to the quarter point, are traced; the half
    turns about crossings K and 2K, which keep the labelled tiling and the
    line, carry crossing c - k to c + k (tetra.HALF_TURN), and the word must
    close up.  A simple curve with this word crosses each edge in its strand
    order, that of the tiling line's strands, sorted by the exact numerators.
    """
    K = t.p + t.q
    pe, qe = t.effective()
    D, quarter = _integer_trace(t, 1, 2, (qe + 2 * pe + 2, 4))
    _, tokens, nums = map(list, zip(*quarter))
    assert len(nums) == K + 1, "quarter point missed"
    flips = []
    for c in (K, 2 * K):
        turn = HALF_TURN[tokens[c]]
        for i in range(c - 1, -1, -1):
            tok, flip = turn[tokens[i]]
            tokens.append(tok)
            flips.append(flip)
            nums.append(D - nums[i] if flip else nums[i])
    assert tokens.pop() == tokens[0] and nums.pop() == nums[0], "word does not close up"
    assert {2 * F for F in nums[::K]} == {D}, "midpoint anchor violated"
    by_edge = {}
    for i, tok in enumerate(tokens):
        by_edge.setdefault(tok, []).append(i)
    return CanonicalWord(gtype=t, tokens=tuple(tokens), numerators=tuple(nums), denominator=D,
                         fractions=tuple([F / D for F in nums]),
                         strands=tuple([tuple(sorted(strand, key=nums.__getitem__))
                                        for strand in by_edge.values()]),
                         mirror=((*range(K - 1, -1, -1), *range(2 * K - 1, -1, -1)),
                                 tuple(flips)))


def strand_order(t):
    """Strand order of the canonical word: per crossed edge, its crossing indices by fraction."""
    return canonical_word(t).strands


_HALF = Fraction(1, 2)


def crossing_sequence(t: GeodesicType, mu=_HALF):
    """Crossing word of type (p,q) with exact fractions, anchored at the A1A2 crossing at mu.

    With the default mu = 1/2 the word starts at the midpoint of an A1A2
    edge and its quarter points land on edge midpoints (the symmetry points
    of the development).  That word's ``Fraction`` view is made from the
    cached :func:`canonical_word` and cached beside it; the returned
    sequence is immutable and shared by every caller.
    """
    if mu == _HALF:
        return _canonical_sequence(t)
    recs = trace_crossings(t, mu)
    return CrossingSequence(gtype=t, tokens=tuple(rec[1] for rec in recs),
                            fractions=tuple(rec[2] for rec in recs))


@functools.lru_cache(maxsize=256)
def _canonical_sequence(t):
    word = canonical_word(t)
    return CrossingSequence(gtype=t, tokens=word.tokens,
                            fractions=tuple(Fraction(F, word.denominator)
                                            for F in word.numerators))


def validate_sequence(s: CrossingSequence, t: GeodesicType):
    """True iff s satisfies every invariant of a type-(p,q) crossing word."""
    n = 4 * (t.p + t.q)
    if len(s.tokens) != n:
        return False
    counts = s.multiplicities()
    if any(counts.get(tok, 0) != counts.get(opp, 0) for tok, opp in OPPOSITE_EDGE.items()):
        return False
    # one edge of each opposite pair: 12/34, 13/24, 14/23
    if sorted(counts.get(tok, 0) for tok in ("12", "13", "14")) != sorted((t.p, t.q, t.p + t.q)):
        return False
    for i in range(n):
        a, b = s.tokens[i], s.tokens[(i + 1) % n]
        if a == b or len(set(a) & set(b)) != 1:
            return False
    # three consecutive crossings around one vertex, then the first edge again
    for i in range(n):
        w = [s.tokens[(i + k) % n] for k in range(4)]
        if w[3] == w[0] and set(w[0]) & set(w[1]) & set(w[2]):
            return False
    return True


def link_node_windows(s: CrossingSequence):
    """Centers i where crossings i-1, i, i+1 lie on edges at one vertex."""
    n = len(s.tokens)
    return [i for i in range(n)
            if set(s.tokens[i - 1]) & set(s.tokens[i]) & set(s.tokens[(i + 1) % n])]


def link_nodes(s: CrossingSequence):
    """The two link nodes, as antipodal positions splitting the word in half.

    Symmetric types admit more than one antipodal window pair; the pair
    anchored at the smallest position is returned.  Type (0,1) has no
    windows at all and raises NoLinkNodes.
    """
    wins = link_node_windows(s)
    if not wins:
        raise NoLinkNodes(f"type {s.gtype.p, s.gtype.q} has no link nodes")
    n = len(s.tokens)
    half = n // 2
    wset = set(wins)
    for i in wins:
        j = (i + half) % n
        if j in wset:
            return (min(i, j), max(i, j))
    raise NoLinkNodes("no antipodal window pair found")


ROTATION_PERMS = (
    {1: 1, 2: 2, 3: 3, 4: 4},
    {1: 2, 2: 3, 3: 1, 4: 4},  # rotation by 2*pi/3 about the altitude at A4
    {1: 3, 2: 1, 3: 2, 4: 4},  # rotation by 4*pi/3
)


def relabel_sequence(s: CrossingSequence, perm):
    """Apply a vertex relabelling; fractions stay tied to their endpoints."""
    toks, kept = [], []
    for tok in s.tokens:
        u, v = int(tok[0]), int(tok[1])
        toks.append(edge_token(perm[u], perm[v]))
        kept.append((u < v) == (perm[u] < perm[v]))     # else the ends swap: f -> 1 - f
    fracs = None if s.fractions is None else tuple(
        f if keep else 1 - f for f, keep in zip(s.fractions, kept))
    return CrossingSequence(gtype=s.gtype, tokens=tuple(toks), fractions=fracs)


def isometric_copies(t: GeodesicType):
    """The three isometry-related copies of the canonical word."""
    base = crossing_sequence(t)
    return tuple(relabel_sequence(base, perm) for perm in ROTATION_PERMS)
