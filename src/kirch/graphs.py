"""Prime-power adjacency graphs.

For an odd prime p the vertex set is {s * 2^i * p^j : s = +-1, i >= 0,
j >= 1}; for p = 2 it is the single row j = 0 of signed powers of two.
Two vertices are joined when their doubleton has A-set exactly {2, p};
equivalently, when their difference has no prime factor outside
{2, p}. The two statements agree because A_{x,y} is the set of primes
dividing x, y or x - y, and for two vertices it always contains 2 and
p and nothing else from x or y (see build_gamma). Scaling both
endpoints by a power of 2 and of p scales their difference alike, so
whether a pair is an edge depends only on its exponent offset and on
whether the signs agree. Both constructions are therefore tables of
forward offset classes (dj, di, t), both instantiated by the same
index arithmetic, _edges: an edge is one int, k << 16 | l, for
indices k < l into the grid-order vertex values of _values, so sorted
codes are in grid order; outside this module an edge is the value
pair that graph_json_dict lists. The predicate's table comes from
_scored_offsets, which scores each class once by
stripping 2 and p from one representative difference instead of
factoring anything. The closed form's table, _families, is written
out by hand: every edge shifts the exponents by a bounded amount, so
the whole edge set falls into finitely many shift families depending
only on whether p is a Fermat prime, a Mersenne prime, both (p = 3),
or neither. The two tables share nothing; interior_margins reads from
_families how far from the grid's upper bounds a vertex keeps its
whole neighborhood.

The closed-form tables here were re-derived from the definitional
predicate by exhausting the coprime smooth pairs with smooth difference
or sum; the published list for p = 3 contains a defective family and
two families with clipped index ranges, and printed_p3_report documents
exactly where that list and the predicate disagree.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from .filters import a_of_pair_formula
from .numtheory import MAX_MAGNITUDE, _Frozen, classify_prime, is_prime

Bounds = tuple[int, int]


# k << 16 | l for indices k < l into the grid-order vertex values of
# _values: _shape admits only grids whose largest vertex fits 63 bits,
# which have at most 1,280 vertices (p = 3, bounds (31, 20)), so
# l < 2^16 and sorted codes are in (k, l) order
Edge = int
Offset = tuple[int, int, int]
_SHIFT = 16
_MASK = (1 << _SHIFT) - 1
# the code of (k + 1, l + 1) less the code of (k, l)
_DIAGONAL = _MASK + 2


def _check_vertex(x: int, p: int) -> None:
    """Fail unless x is a vertex s * 2^i * p^j of Gamma_p (j >= 1 for
    odd p)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        raise ValueError("0 is not a vertex")
    n, j = abs(x), 0
    while n % 2 == 0:
        n //= 2
    while n % p == 0:
        n //= p
        j += 1
    if n != 1 or (p != 2 and j == 0):
        raise ValueError(f"{x} is not of the form s*2^i*{p}^j with j >= 1")


def edge_predicate(x: int, y: int, p: int) -> bool:
    """Definitional adjacency: the doubleton's A-set is exactly {2, p}.

    >>> edge_predicate(5, 25, 5), edge_predicate(11, 242, 11)
    (True, False)
    """
    if x == y:
        raise ValueError("no self-loops")
    _check_vertex(x, p)
    _check_vertex(y, p)
    return set(a_of_pair_formula(x, y)) == {2, p}


# Shift families, per prime class, as forward offset classes
# (dj, di, t) with (dj, di) >= (0, 0): the class joins s * 2^i * p^j to
# s * t * 2^(i+di) * p^(j+dj). That is the form _scored_offsets scores,
# and _edges instantiates both. m is the exponent with p = 2^m + 1 or
# p = 2^m - 1. Each table is exactly the set of forward classes whose
# representative 2^max(-di,0) - t * p^dj * 2^max(di,0) (see
# build_gamma) is {2,p}-smooth; it is written out by hand, not computed.
_P3 = (
    (1, 0, 1), (2, 0, 1), (0, 1, 1), (0, 2, 1), (1, -2, 1), (1, -1, 1), (2, -3, 1),
    (0, 0, -1), (1, 0, -1), (0, 1, -1), (0, 3, -1),
)


def _families(p: int) -> tuple[Offset, ...]:
    if p == 3:
        return _P3
    cls = classify_prime(p)
    m = cls.m
    if cls.is_fermat:
        return (1, 0, 1), (0, 1, 1), (1, -m, 1), (0, 0, -1), (0, m, -1)
    if cls.is_mersenne:
        return (0, 1, 1), (0, m, 1), (1, -m, 1), (0, 0, -1), (1, 0, -1)
    return (0, 1, 1), (0, 0, -1)


def _shape(p: int, bounds: Bounds) -> tuple[range, int]:
    """The grid's rows, j = 1..max_j for odd p and the single row j = 0
    for p = 2 (so bounds (i, 0)), and its width max_i + 1. Every refusal
    of a grid is made here, before any vertex or edge is built."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if min(bounds) < 0:
        raise ValueError("graph bounds must be nonnegative")
    max_i, max_j = bounds
    if p == 2 and max_j != 0:
        raise ValueError("the graph for 2 takes bounds (i, 0)")
    # 2^63 and 3^63 both exceed the range, so the power is computed
    # only for exponents that can fit
    if max_i >= 63 or max_j >= 63 or (p**max_j << max_i) > MAX_MAGNITUDE:
        raise OverflowError(
            f"2^{max_i} * {p}^{max_j} exceeds the supported 63-bit range"
        )
    return (range(1) if p == 2 else range(1, max_j + 1)), max_i + 1


def _values(p: int, bounds: Bounds) -> list[int]:
    """The value of every vertex in grid order, read off _shape: by row,
    then i, then sign -1 before 1, so s * 2^i * p^j in row number r
    sits at (r * width + i) * 2 + (s > 0)."""
    rows, width = _shape(p, bounds)
    return [x for q in [p**j for j in rows] for i in range(width) for x in (-(q << i), q << i)]


def _labels(p: int, bounds: Bounds) -> list[str]:
    """The DOT label of every vertex in grid order, read off _shape: the
    factors 2^i and p^j other than 1, joined by *, or 1 for +-1."""
    rows, width = _shape(p, bounds)
    twos = ["", "2", *(f"2^{i}" for i in range(2, width))][:width]
    out: list[str] = []
    for j in rows:
        row = f"{p}^{j}" if j > 1 else str(p) if j else ""
        for t in twos:
            body = f"{t}*{row}" if t and row else t or row or "1"
            out += ("-" + body, body)
    return out


def _edges(p: int, bounds: Bounds, offsets: Sequence[Offset]) -> frozenset[Edge]:
    """Instantiate forward offset classes on the grid's indices, with no
    vertex built: (dj, di, t) adds (dj * width + di) * 2 to the index of
    each vertex whose partner fits, and flips its sign bit when t = -1.
    A forward class ((dj, di) >= (0, 0)) never moves an index down, so
    each edge joins k < l; the rung (0, 0, -1) is taken from the sign
    -1 alone. Within one row and sign the partner of each index k is
    k + gap for one gap, so the codes k << 16 | (k + gap), which equal
    k * _DIAGONAL + gap, of k = first + b, first + b + 2, ... are one
    range. The ranges are listed and the set is built from them once."""
    rows, width = _shape(p, bounds)
    runs: list[range] = []
    for dj, di, t in offsets:
        step = (dj * width + di) * 2
        lo, hi = max(-di, 0), width - max(di, 0)
        for r in range(len(rows) - dj):
            first, last = (r * width + lo) * 2, (r * width + hi) * 2
            for b in (0, 1) if step else (0,):
                gap = step if t == 1 else step + 1 - 2 * b
                runs.append(range((first + b) * _DIAGONAL + gap, last * _DIAGONAL + gap,
                                  2 * _DIAGONAL))
    return frozenset(chain.from_iterable(runs))


def closed_form_edges(p: int, bounds: Bounds) -> frozenset[Edge]:
    """Instantiate the shift families of the prime's class on the grid;
    an edge appears iff both endpoints fit the bounds."""
    return _edges(p, bounds, _families(p))


class GammaGraph(_Frozen):
    """An immutable built graph: p, exponent bounds, the vertex values
    in grid order, and the edge sets of the two constructions, the
    predicate and the closed form, as Edge codes into vertices. Graphs
    compare by identity."""

    __slots__ = ("p", "bounds", "vertices", "predicate", "closed")


def _scored_offsets(p: int, bounds: Bounds) -> list[Offset]:
    """The forward offset classes (dj, di, t) the predicate accepts on a
    grid _shape admits, one test per class as build_gamma argues. The
    representative's two terms are 2^max(-di,0) and p^dj * 2^max(di,0),
    with p^dj computed once per row. Classes come in the order
    (dj, di, t = 1 before -1)."""
    max_i, max_j = bounds
    # the odd parts of {2,p}-smooth representatives; none exceeds
    # 2 * MAX_MAGNITUDE, since each of its two terms divides the
    # largest vertex
    p_powers = {1}
    q = p
    while q <= 2 * MAX_MAGNITUDE:
        p_powers.add(q)
        q *= p
    offsets = []
    for dj in range(1 if p == 2 else max_j):
        q = p**dj
        for di in range(-max_i if dj else 0, max_i + 1):
            left, right = (1 << -di, q) if di < 0 else (1, q << di)
            for t, d in ((1, abs(left - right)), (-1, left + right)):
                if d and d >> ((d & -d).bit_length() - 1) in p_powers:
                    offsets.append((dj, di, t))
    return offsets


def build_gamma(p: int, bounds: Bounds) -> GammaGraph:
    """Build the graph for p on the exponent grid: the predicate's
    edges, scored once per offset class, and the closed-form families
    instantiated beside them. For p = 2 the grid is the row j = 0, so
    the bounds are (i, 0).

    The predicate is scored without factoring: a pair is an edge iff
    stripping every 2 and every p from |x - y| leaves 1. That is exactly
    edge_predicate, since A_{x,y} = primes(x) | primes(y) | primes(x - y):
    both endpoints are {2,p}-smooth (multiples of p when p is odd), and
    2 always lies in A_{x,y} (one endpoint is even, or both are odd and
    x - y is even), so A_{x,y} = {2, p} | primes(x - y).

    Each offset class is scored once. Take x = s * 2^i * p^j and
    y = s * t * 2^(i+di) * p^(j+dj) with t = +-1, and let
    a = min(i, i+di), b = min(j, j+dj). Then
    |x - y| = 2^a * p^b * |2^max(-di,0) * p^max(-dj,0) - t * 2^max(di,0) * p^max(dj,0)|,
    and the factor 2^a * p^b is {2,p}-smooth, so |x - y| is {2,p}-smooth
    iff the representative on the right is. The representative depends
    on (di, dj, t) alone, not on the pair, so one test decides every
    pair of the class; it is nonzero except for di = dj = 0 with t = 1,
    which is no pair. The class (-di, -dj, t) has the same
    representative, and the offset from an edge's smaller endpoint in
    grid order to its larger one has (dj, di) >= (0, 0), so only those
    forward classes are scored: at most (2 max_i + 1) * rows * 2 of
    them. The accepted classes are then instantiated by _edges, the
    index arithmetic the closed form goes through too, and the one
    piece the two sides share. The scoring never reads _families, and
    the tests check _edges against a vertex lookup and whole grids
    against the pairwise edge_predicate, so the comparison stays
    independent.

    Raises ValueError on a negative bound and OverflowError when the
    largest vertex 2^max_i * p^max_j leaves the 63-bit range, both
    before building any vertex.

    >>> edges = graph_json_dict(build_gamma(5, (4, 3)))["edges"]
    >>> sorted(x + y - 5 for x, y in edges if 5 in (x, y))
    [-20, -5, 10, 25]
    """
    vertices = tuple(_values(p, bounds))
    predicate = _edges(p, bounds, _scored_offsets(p, bounds))
    return GammaGraph(p, bounds, vertices, predicate, closed_form_edges(p, bounds))


def interior_margins(p: int) -> tuple[int, int]:
    """Per-axis margins: the largest |di| and the largest dj over the
    forward offset classes of _families(p). No edge reaches further on
    either axis, so a vertex that far from the grid's upper bounds
    keeps its whole neighborhood; the lower edges of the grid (i = 0,
    and j = 1 for odd p) are edges of the graph itself, not
    truncation."""
    table = _families(p)
    return max(abs(di) for _, di, _ in table), max(dj for dj, _, _ in table)


def degree_signature(g: GammaGraph) -> dict[int, int]:
    """Predicate-side degrees of the interior vertices, keyed by value,
    in grid order: those at least interior_margins(p) below the grid's
    upper bounds, which are the first columns of the lower rows. The
    margin keeps boundary truncation from faking low degrees.

    >>> sig = degree_signature(build_gamma(2, (4, 0)))
    >>> sorted(x for x, d in sig.items() if d == 2)
    [-1, 1]
    """
    degree = [0] * len(g.vertices)
    for e in g.predicate:
        degree[e >> _SHIFT] += 1
        degree[e & _MASK] += 1
    rows, width = _shape(g.p, g.bounds)
    m2, mp = interior_margins(g.p)
    max_i, max_j = g.bounds
    inner = 2 * max(max_i - m2 + 1, 0)  # indices of the columns i <= max_i - m2
    return {
        g.vertices[k]: degree[k]
        for r, j in enumerate(rows) if j <= max_j - mp
        for k in range(2 * r * width, 2 * r * width + inner)
    }


def _sides(g: GammaGraph) -> tuple[tuple[str, str, frozenset[Edge]], ...]:
    """(JSON provenance tag, DOT style, edges) per side that claims an
    edge, not a tag per edge. When the sides agree, as on every real
    grid, one comparison shows it and "both" is the predicate itself;
    only a graph with discrepancies takes three set operations."""
    both = g.predicate
    pred_only = closed_only = frozenset()
    if both != g.closed:
        pred_only, closed_only = both - g.closed, g.closed - both
        both = both - pred_only
    return (("both", "", both),
            ("closed_form", " [style=dotted]", closed_only),
            ("predicate", " [style=dashed]", pred_only))


def emit_dot(g: GammaGraph) -> str:
    """Deterministic DOT text: vertices in grid order, edges sorted by
    their label pair; edges only one side claims are styled dashed
    (predicate only) or dotted (closed form only). Sorting the lines as
    text is label-pair order: the quote closing a label sorts below all
    a label holds (digits, -, * and ^), so a label sorts before those it
    prefixes, and no two edges get as far as the style. The labels
    come from _labels."""
    labels = _labels(g.p, g.bounds)
    lines = [f"graph gamma_{g.p} {{", *(f'  "{label}";' for label in labels)]
    lines.extend(sorted(
        f'  "{labels[e >> _SHIFT]}" -- "{labels[e & _MASK]}"{style};'
        for _, style, edges in _sides(g) for e in edges
    ))
    return "\n".join(lines) + "\n}\n"


def graph_json_dict(g: GammaGraph) -> dict:
    """Canonical JSON form: integer vertex values in grid order, edges
    as value pairs in grid order, provenance grouped by tag."""
    values = list(g.vertices)

    def as_pairs(edges) -> list[list[int]]:
        return [[values[e >> _SHIFT], values[e & _MASK]] for e in sorted(edges)]

    prov = {tag: as_pairs(edges) for tag, _, edges in _sides(g)}
    # when the sides agree "both" is every edge: copied, as callers may edit either
    edges = (as_pairs(g.predicate | g.closed) if prov["closed_form"] or prov["predicate"]
             else [*prov["both"]])
    return {"p": g.p, "bounds": list(g.bounds), "vertices": values, "edges": edges,
            "provenance": prov}


def printed_p3_edges(bounds: Bounds) -> frozenset[Edge]:
    """The eleven edge families for p = 3 exactly as published, literal
    index bases and all. Family (2) reads "2 eps^(a-1) 3^(b+2)": a
    sign that flips with the parity of a and a fixed single factor of
    2. Families (6) and (7) start at a = 1, which drops their smallest
    column. Edges index the grid order of _values(3, bounds), where
    s * 2^i * 3^j sits at ((j - 1) * width + i) * 2 + (s > 0). A
    family's ends move one row up as b grows, so for one eps and a its
    edges are one range of codes, written at b = 1. This list exists to
    be audited, not used."""
    _, width = _shape(3, bounds)
    max_i, max_j = bounds
    up = 2 * width * _DIAGONAL  # the code one row up less the code
    b = j = 1
    out: set[Edge] = set()
    for eps in (1, -1):
        for a in range(1, max_i + 2):
            i = a - 1
            flip = 1 if i % 2 == 0 else eps  # eps^(a-1), literally
            # endpoints as (j, i, s); none has i < 0 or j < 1
            for (vj, vi, vs), (wj, wi, ws) in (
                ((j, i, eps), (j + 1, i, eps)),
                ((j, i, eps), (j + 2, 1, flip)),
                ((j, i, eps), (j, i + 1, eps)),
                ((j, i, eps), (j, i + 2, eps)),
                ((j + 1, i, eps), (j, i + 2, eps)),
                ((b, a + 1, eps), (b + 1, a, eps)),
                ((b, a + 3, eps), (b + 2, a, eps)),
                ((j, i, eps), (j + 1, i, -eps)),
                ((j, i, eps), (j, i + 1, -eps)),
                ((j, i, eps), (j, i + 3, -eps)),
                ((j, i, eps), (j, i, -eps)),
            ):
                if vi <= max_i and wi <= max_i:
                    k = ((vj - 1) * width + vi) * 2 + (vs > 0)
                    l = ((wj - 1) * width + wi) * 2 + (ws > 0)
                    k, l = (k, l) if k < l else (l, k)
                    code, fits = k << _SHIFT | l, max_j - max(vj, wj) + 1  # b = 1..fits
                    out.update(range(code, code + fits * up, up))
    return frozenset(out)


def printed_p3_report(bounds: Bounds) -> dict:
    """Where the published p = 3 list and the predicate disagree on the
    given grid: value pairs only one side claims, plus totals."""
    values = _values(3, bounds)
    predicate = _edges(3, bounds, _scored_offsets(3, bounds))
    printed = printed_p3_edges(bounds)

    def as_values(edges) -> list[list[int]]:
        pairs = ((values[e >> _SHIFT], values[e & _MASK]) for e in edges)
        return sorted([x, y] if x < y else [y, x] for x, y in pairs)

    predicate_only = predicate - printed
    return {"bounds": list(bounds), "agree": len(predicate) - len(predicate_only),
            "printed_only": as_values(printed - predicate),
            "predicate_only": as_values(predicate_only)}
