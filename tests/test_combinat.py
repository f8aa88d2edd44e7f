"""Crossing words: generation, validation, link nodes, relabeling."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from conftest import coprime_types
from tetrageo import combinat
from tetrageo.combinat import (CrossingSequence, GeodesicType, _integer_trace, canonical_word,
                               crossing_sequence, isometric_copies,
                               link_node_windows, link_nodes,
                               relabel_sequence, strand_order, trace_crossings,
                               validate_sequence)
from tetrageo.errors import NoLinkNodes, VertexHit
from tetrageo.paths import euclid_mu_interval, full_fractions_from_quarter
from tetrageo.tetra import OPPOSITE_EDGE, edge_token


def test_type_validation():
    with pytest.raises(ValueError):
        GeodesicType(2, 4)
    with pytest.raises(ValueError):
        GeodesicType(0, 0)
    with pytest.raises(ValueError):
        GeodesicType(3, 2)
    assert GeodesicType(1, 1).norm == 3
    assert GeodesicType(1, 2).norm == 7


@pytest.mark.parametrize("pq", [(1.5, 2), (1, 2.0), ("1", 2), (None, 1)])
def test_type_rejects_non_integers(pq):
    # (1.5, 2) raised TypeError from math.gcd
    with pytest.raises(ValueError, match="integers"):
        GeodesicType(*pq)


def test_basic_words():
    assert crossing_sequence(GeodesicType(0, 1)).tokens == ("12", "23", "34", "14")
    assert crossing_sequence(GeodesicType(1, 1)).tokens == (
        "12", "23", "24", "14", "34", "23", "13", "14")
    s12 = crossing_sequence(GeodesicType(1, 2))
    assert len(s12) == 12
    counts = s12.multiplicities()
    pair_totals = sorted(counts.get(t, 0) + counts.get(OPPOSITE_EDGE[t], 0)
                         for t in ("12", "13", "14"))
    assert pair_totals == [2, 4, 6]


def _brute_force_word(p, q, mu=Fraction(1, 2)):
    """Independent trace: enumerate every tiling edge in range and intersect.

    Works in (x, Y) coordinates with Y = y/sqrt(3); returns the sorted edge
    word along the segment from (mu, 0) to (mu+qe+2pe, qe).
    """
    t = GeodesicType(p, q)
    pe, qe = t.effective()
    x0, y0 = mu, Fraction(0)
    x1, y1 = mu + qe + 2 * pe, Fraction(qe)
    dx, dy = x1 - x0, y1 - y0

    def label(x, m):
        r = m % 4
        if r == 0:
            return 1 if int(x) % 2 == 0 else 2
        if r == 2:
            return 2 if int(x) % 2 == 0 else 1
        l = int(x - Fraction(1, 2))
        if r == 1:
            return 3 if l % 2 == 0 else 4
        return 4 if l % 2 == 0 else 3

    hits = []
    lo_x = int(x0) - 2
    hi_x = int(x1) + 2
    for m in range(-1, 2 * qe + 2):
        yy = Fraction(m, 2)
        off = Fraction(0) if m % 2 == 0 else Fraction(1, 2)
        for l in range(lo_x, hi_x + 1):
            va = (l + off, yy)
            for vb in ((l + off + 1, yy),                       # row edge
                       (l + off + Fraction(1, 2), yy + Fraction(1, 2)),   # up-right
                       (l + off - Fraction(1, 2), yy + Fraction(1, 2))):  # up-left
                # segment intersection, exact rationals, endpoint-exclusive
                ex, ey = vb[0] - va[0], vb[1] - va[1]
                den = dx * ey - dy * ex
                if den == 0:
                    continue
                tpar = ((va[0] - x0) * ey - (va[1] - y0) * ex) / den
                upar = ((va[0] - x0) * dy - (va[1] - y0) * dx) / den
                if not (0 <= tpar < 1):
                    continue
                if not (0 < upar < 1):
                    assert not (upar == 0 or upar == 1) or tpar in (0, 1), \
                        "segment passes through a tiling vertex"
                    continue
                la = label(va[0], int(2 * va[1]))
                mb = int(2 * vb[1])
                lb = label(vb[0], mb)
                tok = f"{min(la, lb)}{max(la, lb)}"
                frac = upar if la < lb else 1 - upar
                hits.append((tpar, tok, frac))
    hits.sort()
    return tuple(h[1] for h in hits), tuple(h[2] for h in hits)


@pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (1, 2), (2, 3), (1, 4), (3, 4)])
def test_word_matches_brute_force(p, q):
    seq = crossing_sequence(GeodesicType(p, q))
    toks, fracs = _brute_force_word(p, q)
    assert seq.tokens == toks
    assert seq.fractions == fracs


def test_all_small_types_validate():
    for p, q in coprime_types(30):
        t = GeodesicType(p, q)
        s = crossing_sequence(t)
        assert validate_sequence(s, t)
        assert len(s) == 4 * (p + q)


def test_midpoint_anchors():
    for p, q in coprime_types(20):
        s = crossing_sequence(GeodesicType(p, q))
        n = len(s)
        for idx in (0, n // 4, n // 2, 3 * n // 4):
            assert s.fractions[idx] == Fraction(1, 2)


def test_validate_rejects_mutations():
    t = GeodesicType(0, 1)
    s = crossing_sequence(t)
    # replace one label by the omitted opposite pair
    bad = CrossingSequence(t, ("12", "23", "34", "13"))
    assert not validate_sequence(bad, t)
    # the forbidden three-edges-around-a-vertex-then-repeat pattern
    bad2 = CrossingSequence(GeodesicType(1, 1),
                            ("14", "24", "34", "14", "24", "34", "14", "24"))
    assert not validate_sequence(bad2, GeodesicType(1, 1))


def test_reversal_equivalence():
    # reversal is the same word up to cyclic shift and pair relabeling
    for p, q in [(1, 2), (2, 3), (1, 4)]:
        s = crossing_sequence(GeodesicType(p, q))
        rev = tuple(reversed(s.tokens))
        n = len(s.tokens)
        found = False
        for shift in range(n):
            shifted = tuple(rev[(i + shift) % n] for i in range(n))
            for perm in ({1: 1, 2: 2, 3: 3, 4: 4}, {1: 2, 2: 1, 3: 4, 4: 3},
                         {1: 3, 3: 1, 2: 4, 4: 2}, {1: 4, 4: 1, 2: 3, 3: 2}):
                mapped = tuple("".join(sorted(str(perm[int(c)]) for c in tok))
                               for tok in shifted)
                if mapped == s.tokens:
                    found = True
        assert found, (p, q)


def test_link_nodes():
    with pytest.raises(NoLinkNodes):
        link_nodes(crossing_sequence(GeodesicType(0, 1)))
    for p, q in [(1, 1), (1, 2), (2, 3), (3, 4), (2, 5)]:
        s = crossing_sequence(GeodesicType(p, q))
        i, j = link_nodes(s)
        assert j - i == 2 * (p + q)
        wins = link_node_windows(s)
        assert i in wins and j in wins


def test_isometric_copies():
    t = GeodesicType(1, 2)
    copies = isometric_copies(t)
    assert len(copies) == 3
    words = {c.tokens for c in copies}
    assert len(words) == 3
    for c in copies:
        assert validate_sequence(c, t)


def test_relabel_flips_fractions():
    s = crossing_sequence(GeodesicType(1, 2))
    perm = {1: 2, 2: 1, 3: 3, 4: 4}
    r = relabel_sequence(s, perm)
    for tok, f, tok2, f2 in zip(s.tokens, s.fractions, r.tokens, r.fractions):
        u, v = int(tok[0]), int(tok[1])
        if {perm[u], perm[v]} == {u, v} and perm[u] != u:
            assert f2 == 1 - f


def test_vertex_hit_detection():
    # even q: anchoring the odd count on the rows is what saves mu = 1/2;
    # the swapped orientation must hit a vertex there
    t = GeodesicType(1, 2)
    from tetrageo.combinat import trace_crossings
    with pytest.raises(VertexHit):
        # force the bad orientation by tracing type (2,1)-style line: mu on a
        # forbidden residue of the valid orientation instead
        trace_crossings(t, Fraction(0))


# ---------------------------------------------------------------------------
# the integer trace against the Fraction trace it replaced

def _fraction_vertex_label(x, m):
    r = m % 4
    if r == 0:
        return 1 if int(x) % 2 == 0 else 2
    if r == 2:
        return 2 if int(x) % 2 == 0 else 1
    l = int(x - Fraction(1, 2))
    if r == 1:
        return 3 if l % 2 == 0 else 4
    return 4 if l % 2 == 0 else 3


def _fraction_trace(t, mu):
    """Reference trace in Fraction arithmetic, same records and errors."""
    mu = Fraction(mu)
    pe, qe = t.effective()
    slope = Fraction(qe, qe + 2 * pe)
    out = []

    def add(x, l0, l1, frac_from_v0):
        if frac_from_v0 <= 0 or frac_from_v0 >= 1:
            raise VertexHit(f"tiling line through mu={mu} hits a vertex near x={x}")
        out.append((x, edge_token(l0, l1), frac_from_v0 if l0 < l1 else 1 - frac_from_v0))

    for m in range(0, 2 * qe):
        x = mu + Fraction(m * (qe + 2 * pe), 2 * qe)
        off = Fraction(0) if m % 2 == 0 else Fraction(1, 2)
        x0 = (x - off).__floor__() + off
        add(x, _fraction_vertex_label(x0, m), _fraction_vertex_label(x0 + 1, m), x - x0)

    def diagonal(x, v0x, v1x, y0, yy):
        add(x, _fraction_vertex_label(v0x, y0), _fraction_vertex_label(v1x, y0 + 1),
            2 * (yy - Fraction(y0, 2)))

    if pe > 0:
        for n in range(mu.__floor__() + 1, (mu + 2 * pe).__ceil__()):
            x = (n - slope * mu) / (1 - slope)
            yy = slope * (x - mu)
            y0 = (2 * yy).__floor__()
            diagonal(x, n + Fraction(y0, 2), n + Fraction(y0 + 1, 2), y0, yy)
    for n in range(mu.__floor__() + 1, (mu + 2 * (pe + qe)).__ceil__()):
        x = (n + slope * mu) / (1 + slope)
        yy = slope * (x - mu)
        y0 = (2 * yy).__floor__()
        diagonal(x, n - Fraction(y0, 2), n - Fraction(y0 + 1, 2), y0, yy)

    out.sort(key=lambda rec: rec[0])
    if len(out) != t.n_crossings:
        raise VertexHit(f"expected {t.n_crossings} crossings, traced {len(out)}")
    for i in range(1, len(out)):
        if out[i][0] == out[i - 1][0]:
            raise VertexHit("two crossings coincide: segment passes a tiling vertex")
    return out


def _same_trace(t, mu):
    """Both traces return equal records, or raise VertexHit with one message."""
    try:
        expected = _fraction_trace(t, mu)
    except VertexHit as exc:
        with pytest.raises(VertexHit) as got:
            trace_crossings(t, mu)
        assert str(got.value) == str(exc)
        return False
    recs = trace_crossings(t, mu)
    assert recs == expected
    assert all(type(v) is Fraction for x, _, f in recs for v in (x, f))
    return True


def test_integer_trace_matches_fraction_trace():
    for p, q in coprime_types(60):
        assert _same_trace(GeodesicType(p, q), Fraction(1, 2)), (p, q)


@given(st.sampled_from(coprime_types(24)), st.integers(1, 10**6), st.integers(-2, 10**6 + 2))
def test_integer_trace_matches_on_valid_anchors(pq, den, k):
    # mu = lo + (hi - lo) k / den: inside the valid interval for 0 < k < den,
    # on a forbidden anchor (a vertex hit) for k = 0 or den; outside it the
    # line may hit a vertex or not, and both traces must agree either way
    t = GeodesicType(*pq)
    lo, hi = euclid_mu_interval(t)
    traced = _same_trace(t, lo + (hi - lo) * Fraction(k, den))
    if 0 <= k <= den:
        assert traced == (0 < k < den)


def test_integer_trace_same_vertex_hits():
    for p, q in coprime_types(12):
        t = GeodesicType(p, q)
        pe, qe = t.effective()
        for k in range(0, 2 * qe + 1):
            for mu in (Fraction(-k * (qe + 2 * pe), qe) % 1,
                       (Fraction(1, 2) - Fraction((2 * k + 1) * (qe + 2 * pe), 2 * qe)) % 1):
                assert not _same_trace(t, mu), (p, q, mu)


def test_canonical_word_is_cached():
    t = GeodesicType(5, 8)
    assert crossing_sequence(t) is crossing_sequence(t, 0.5)
    assert crossing_sequence(t, Fraction(1, 2)).fractions == tuple(
        rec[2] for rec in _fraction_trace(t, Fraction(1, 2)))


@st.composite
def coprime_type(draw, max_sum=300):
    n = draw(st.integers(1, max_sum))
    p = draw(st.integers(0, n // 2))
    assume(math.gcd(p, n) == 1)
    return GeodesicType(p, n - p)


@given(coprime_type())
def test_integer_word_matches_the_fraction_word(t):
    word, seq = canonical_word(t), crossing_sequence(t)
    assert word.tokens == seq.tokens
    # the correctly rounded quotients F / D are float(Fraction) bit for bit
    assert [f.hex() for f in word.fractions] == [float(g).hex() for g in seq.fractions]
    by_edge = {}
    for i, (tok, g) in enumerate(zip(seq.tokens, seq.fractions)):
        by_edge.setdefault(tok, []).append((g, i))
    assert word.strands == tuple(tuple(i for _, i in sorted(strand))
                                 for strand in by_edge.values())


def test_strand_order_is_the_exact_order_on_each_edge():
    for pq in [*coprime_types(12), (100, 101), (200, 203)]:
        t = GeodesicType(*pq)
        seq = crossing_sequence(t)
        strands = strand_order(t)
        assert strands is strand_order(t)
        assert sorted(i for strand in strands for i in strand) == list(range(len(seq)))
        for strand in strands:
            assert len({seq.tokens[i] for i in strand}) == 1
            assert all(seq.fractions[i] < seq.fractions[j] for i, j in zip(strand, strand[1:]))


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
def test_non_finite_anchor_is_a_value_error(mu):
    t = GeodesicType(2, 3)
    for fn in (crossing_sequence, trace_crossings):
        with pytest.raises(ValueError, match="mu must be finite"):
            fn(t, mu)


def test_crossing_sequence_off_the_midpoint_is_the_trace():
    # mu = 1/3 lies inside the valid anchor interval of these types
    mu = Fraction(1, 3)
    types = [GeodesicType(*pq) for pq in coprime_types(8)]
    types = [t for t in types if euclid_mu_interval(t)[0] < mu < euclid_mu_interval(t)[1]]
    assert GeodesicType(1, 2) in types
    for t in types:
        seq = crossing_sequence(t, mu)
        records = [(tok, f) for _, tok, f in trace_crossings(t, mu)]
        assert seq.gtype == t and list(zip(seq.tokens, seq.fractions)) == records


# ---------------------------------------------------------------------------
# the canonical word from its traced quarter and the half turns

def _fully_traced_word(t):
    """The canonical word from the full trace of all 4(p+q) crossings, the == oracle."""
    D, recs = _integer_trace(t, 1, 2)
    tokens = tuple(rec[1] for rec in recs)
    nums = tuple(rec[2] for rec in recs)
    by_edge = {}
    for i, (tok, F) in enumerate(zip(tokens, nums)):
        by_edge.setdefault(tok, []).append((F, i))
    return (tokens, nums, D, tuple(F / D for F in nums),
            tuple(tuple(i for _, i in sorted(strand)) for strand in by_edge.values()))


def test_canonical_word_matches_the_full_trace():
    for pq in coprime_types(160):
        word = canonical_word(GeodesicType(*pq))
        assert (word.tokens, word.numerators, word.denominator, word.fractions,
                word.strands) == _fully_traced_word(GeodesicType(*pq)), pq


@given(coprime_type(max_sum=400))
def test_quarter_word_has_the_float_mirror_symmetry(t):
    # the integer mirror of the word and the float mirror of the curved
    # constructions read one half-turn table: they must agree
    assert validate_sequence(crossing_sequence(t), t)
    word = canonical_word(t)
    K = t.p + t.q
    # full_fractions_from_quarter raises unless the word's tokens have its symmetry;
    # its fractions carry at most four roundings (the quarter's, two 1 - f, the
    # word's own), each within half an ulp of 1/2 on a fraction in (0, 1)
    fracs = full_fractions_from_quarter(word, word.fractions[:K + 1])
    assert all(abs(f - g) <= math.ulp(1.0) for f, g in zip(fracs, word.fractions))


@pytest.mark.parametrize("pq", [(0, 1), (1, 1), (1, 2), (2, 3), (3, 8), (5, 13), (21, 34)])
def test_canonical_word_traces_only_its_quarter(pq, monkeypatch):
    # the word traces crossings 0..K and mirrors the rest: a fall-back to
    # the full trace would trace 4K crossings
    traced, trace = [], combinat._integer_trace
    monkeypatch.setattr(combinat, "_integer_trace",
                        lambda *args: traced.append(trace(*args)) or traced[-1])
    t = GeodesicType(*pq)
    canonical_word.cache_clear()
    assert len(canonical_word(t).tokens) == 4 * (t.p + t.q)
    assert [len(recs) for _, recs in traced] == [t.p + t.q + 1]
