"""Prime-power adjacency graphs.

For an odd prime p the vertex set is {s * 2^i * p^j : s = +-1, i >= 0,
j >= 1} and two vertices are joined when their doubleton has A-set
exactly {2, p}; equivalently, when their difference has no prime
factor outside {2, p}. The two statements agree because A_{x,y} is
the set of primes dividing x, y or x - y, and for two vertices it
always contains 2 and p and nothing else from x or y (see build_gamma),
so build_gamma scores a pair by stripping 2 and p from |x - y| instead
of factoring anything. The graph is a two-sheeted grid in (i, j) and
every edge shifts the exponents by a bounded amount, so the whole edge
set falls into finitely many shift families depending only on whether
p is a Fermat prime, a Mersenne prime, both (p = 3), or neither.

The closed-form lists here were re-derived from the definitional
predicate by exhausting the coprime smooth pairs with smooth difference
or sum; the published list for p = 3 contains a defective family and
two families with clipped index ranges, and printed_p3_report documents
exactly where that list and the predicate disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .filters import FiniteSubset, a_of_pair_formula, is_top
from .numtheory import MAX_MAGNITUDE, classify_prime, fm_exponent, is_prime

Bounds = tuple[int, int]


@dataclass(frozen=True)
class GammaVertex:
    """One grid point s * 2^two_exp * p^p_exp; p_exp is 0 on the graph
    for p = 2, whose vertices are plain signed powers of two."""

    sign: int
    two_exp: int
    p_exp: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        if self.two_exp < 0 or self.p_exp < 0:
            raise ValueError("exponents must be nonnegative")

    def value(self, p: int) -> int:
        return self.sign * 2**self.two_exp * p**self.p_exp

    def grid_key(self) -> tuple[int, int, int]:
        return (self.p_exp, self.two_exp, self.sign)


Edge = tuple[GammaVertex, GammaVertex]


def _edge(v: GammaVertex, w: GammaVertex) -> Edge:
    return (v, w) if v.grid_key() <= w.grid_key() else (w, v)


def vertex_from_value(x: int, p: int) -> GammaVertex:
    """Decode a nonzero integer as a grid point, or fail."""
    if x == 0:
        raise ValueError("0 is not a vertex")
    n, i, j = abs(x), 0, 0
    while n % 2 == 0:
        n //= 2
        i += 1
    while n % p == 0:
        n //= p
        j += 1
    if n != 1 or (p != 2 and j == 0):
        raise ValueError(f"{x} is not of the form s*2^i*{p}^j with j >= 1")
    return GammaVertex(1 if x > 0 else -1, i, j)


def edge_predicate(x: int, y: int, p: int) -> bool:
    """Definitional adjacency: the doubleton's A-set is exactly {2, p}.

    >>> edge_predicate(5, 25, 5), edge_predicate(11, 242, 11)
    (True, False)
    """
    if x == y:
        raise ValueError("no self-loops")
    vertex_from_value(x, p)
    vertex_from_value(y, p)
    return a_of_pair_formula(x, y).as_set() == {2, p}


# Shift families, per prime class. A same-sign entry (di, dj) joins
# (i, j) to (i+di, j+dj); an opposite-sign entry joins s*(i, j) to
# -s*(i+di, j+dj), which for (di, dj) != (0, 0) yields two distinct
# shapes as s runs over both signs. m is the exponent with p = 2^m + 1
# or p = 2^m - 1. Each list is exactly the set of solutions of
# |2^a p^b - 2^c p^d| in {2^s p^t} (same sign; coprime core pairs) or
# 2^a p^b + 2^c p^d in {2^s p^t} (opposite sign).
_P3_SAME = ((0, 1), (0, 2), (1, 0), (2, 0), (2, -1), (1, -1), (3, -2))
_P3_OPP = ((0, 0), (0, 1), (1, 0), (3, 0))


def _families(p: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    if p == 3:
        return _P3_SAME, _P3_OPP
    cls = classify_prime(p)
    if cls.is_fermat:
        m = fm_exponent(p)
        return ((0, 1), (1, 0), (m, -1)), ((0, 0), (m, 0))
    if cls.is_mersenne:
        m = fm_exponent(p)
        return ((1, 0), (m, 0), (m, -1)), ((0, 0), (0, 1))
    return ((1, 0),), ((0, 0),)


def closed_form_edges(p: int, bounds: Bounds) -> frozenset[Edge]:
    """Instantiate the shift families of the prime's class on the grid;
    an edge appears iff both endpoints fit the bounds."""
    if p == 2:
        raise ValueError("the graph for 2 is built by gamma2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    max_i, max_j = bounds
    same, opp = _families(p)
    out: set[Edge] = set()

    def grid(i: int, j: int) -> bool:
        return 0 <= i <= max_i and 1 <= j <= max_j

    for i in range(max_i + 1):
        for j in range(1, max_j + 1):
            for di, dj in same:
                if grid(i + di, j + dj):
                    for s in (1, -1):
                        out.add(_edge(
                            GammaVertex(s, i, j), GammaVertex(s, i + di, j + dj)
                        ))
            for di, dj in opp:
                if grid(i + di, j + dj):
                    for s in (1, -1):
                        out.add(_edge(
                            GammaVertex(s, i, j), GammaVertex(-s, i + di, j + dj)
                        ))
    return frozenset(out)


@dataclass(frozen=True, eq=False)
class GammaGraph:
    """An immutable built graph: p (2 marks the powers-of-two graph),
    exponent bounds, vertices, the union edge set, and a per-edge tag
    telling which construction claimed it."""

    p: int
    bounds: Bounds
    vertices: frozenset[GammaVertex]
    edges: frozenset[Edge]
    provenance: MappingProxyType

    def predicate_edges(self) -> frozenset[Edge]:
        return frozenset(
            e for e, tag in self.provenance.items() if tag != "closed_form"
        )

    def closed_edges(self) -> frozenset[Edge]:
        return frozenset(
            e for e, tag in self.provenance.items() if tag != "predicate"
        )

    def discrepancies(self) -> dict[str, list[Edge]]:
        """Edges claimed by only one side, never silently reconciled."""
        one_sided = {"predicate": [], "closed_form": []}
        for e, tag in sorted(
            self.provenance.items(), key=lambda kv: (kv[0][0].grid_key(), kv[0][1].grid_key())
        ):
            if tag in one_sided:
                one_sided[tag].append(e)
        return one_sided

    def neighbor_values(self, v: GammaVertex) -> set[int]:
        out = set()
        for a, b in self.predicate_edges():
            if a == v:
                out.add(b.value(self.p))
            elif b == v:
                out.add(a.value(self.p))
        return out


def build_gamma(p: int, bounds: Bounds) -> GammaGraph:
    """Build the graph for odd p on the exponent grid: every vertex
    pair is scored by the predicate, the closed-form families are
    instantiated beside it, and each edge records which side produced
    it.

    A pair is scored without factoring: it is an edge iff stripping
    every 2 and every p from |x - y| leaves 1. That is exactly
    edge_predicate, since A_{x,y} = primes(x) | primes(y) | primes(x - y):
    both endpoints are {2,p}-smooth multiples of p, and 2 always lies in
    A_{x,y} (one endpoint is even, or both are odd and x - y is even),
    so A_{x,y} = {2, p} | primes(x - y). The test never reads the shift
    families, so the two sides stay independent.

    Raises OverflowError, before building any vertex, when the largest
    vertex 2^max_i * p^max_j leaves the 63-bit range.

    >>> g = build_gamma(5, (4, 3))
    >>> sorted(g.neighbor_values(GammaVertex(1, 0, 1)))
    [-20, -5, 10, 25]
    """
    if p == 2:
        raise ValueError("the graph for 2 is built by gamma2")
    if not is_prime(p) or p % 2 == 0:
        raise ValueError(f"{p} must be an odd prime")
    max_i, max_j = bounds
    # 2^63 and 3^63 both exceed the range, so the power is computed
    # only for exponents that can fit
    if max_i >= 63 or max_j >= 63 or (p ** max(max_j, 0) << max(max_i, 0)) > MAX_MAGNITUDE:
        raise OverflowError(
            f"2^{max_i} * {p}^{max_j} exceeds the supported 63-bit range"
        )
    verts = [
        GammaVertex(s, i, j)
        for j in range(1, max_j + 1)
        for i in range(max_i + 1)
        for s in (-1, 1)
    ]
    by_key = sorted(verts, key=GammaVertex.grid_key)
    values = [v.value(p) for v in by_key]
    # the odd parts of {2,p}-smooth differences; no difference of two
    # vertices exceeds 2 * MAX_MAGNITUDE
    p_powers = {1}
    q = p
    while q <= 2 * MAX_MAGNITUDE:
        p_powers.add(q)
        q *= p
    predicate: set[Edge] = set()
    for a, xa in enumerate(values):
        for b in range(a + 1, len(values)):
            d = abs(xa - values[b])
            if d >> ((d & -d).bit_length() - 1) in p_powers:
                predicate.add(_edge(by_key[a], by_key[b]))
    closed = closed_form_edges(p, bounds)
    tags = {}
    for e in predicate | closed:
        tags[e] = "both" if e in predicate and e in closed else (
            "predicate" if e in predicate else "closed_form"
        )
    return GammaGraph(
        p, bounds, frozenset(verts), frozenset(tags), MappingProxyType(tags)
    )


def gamma2(max_exp: int) -> GammaGraph:
    """The graph on {s * 2^n : n <= max_exp}: doubling chains on each
    sign and mirror rungs. Every candidate pair is cross-checked
    against is_top, which characterizes exactly these doubletons.
    """
    if max_exp < 2:
        raise ValueError("need max_exp >= 2")
    verts = [GammaVertex(s, n, 0) for n in range(max_exp + 1) for s in (-1, 1)]
    edges: set[Edge] = set()
    for n in range(max_exp):
        edges.add(_edge(GammaVertex(1, n, 0), GammaVertex(1, n + 1, 0)))
        edges.add(_edge(GammaVertex(-1, n, 0), GammaVertex(-1, n + 1, 0)))
    for n in range(max_exp + 1):
        edges.add(_edge(GammaVertex(-1, n, 0), GammaVertex(1, n, 0)))
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            va, vb = verts[a], verts[b]
            pair = FiniteSubset.of(va.value(2), vb.value(2))
            if is_top(pair) != (_edge(va, vb) in edges):
                raise AssertionError(f"top characterization disagrees on {pair}")
    tags = {e: "both" for e in edges}
    return GammaGraph(
        2, (max_exp, 0), frozenset(verts), frozenset(edges), MappingProxyType(tags)
    )


def interior_margins(p: int) -> tuple[int, int]:
    """Per-axis safety margins: one more than the largest exponent
    shift any edge family applies on that axis, so an interior vertex
    keeps its full neighborhood inside the grid."""
    if p == 2:
        return (1, 0)
    if p == 3:
        return (4, 3)
    cls = classify_prime(p)
    if cls.is_fermat_mersenne:
        return (fm_exponent(p) + 1, 2)
    return (2, 1)


def interior_vertices(g: GammaGraph) -> list[GammaVertex]:
    m2, mp = interior_margins(g.p)
    max_i, max_j = g.bounds
    return sorted(
        (
            v
            for v in g.vertices
            if v.two_exp <= max_i - m2 and v.p_exp <= max_j - mp
        ),
        key=GammaVertex.grid_key,
    )


def degree_signature(g: GammaGraph) -> dict[GammaVertex, int]:
    """Predicate-side degrees of the interior vertices; the margin
    keeps boundary truncation from faking low degrees.

    >>> sig = degree_signature(gamma2(4))
    >>> sorted(v.value(2) for v, d in sig.items() if d == 2)
    [-1, 1]
    """
    incidence: dict[GammaVertex, int] = {}
    for a, b in g.predicate_edges():
        incidence[a] = incidence.get(a, 0) + 1
        incidence[b] = incidence.get(b, 0) + 1
    return {v: incidence.get(v, 0) for v in interior_vertices(g)}


def _label(v: GammaVertex, p: int) -> str:
    parts = []
    if v.two_exp:
        parts.append(f"2^{v.two_exp}" if v.two_exp > 1 else "2")
    if v.p_exp:
        parts.append(f"{p}^{v.p_exp}" if v.p_exp > 1 else str(p))
    body = "*".join(parts) if parts else "1"
    return ("-" if v.sign < 0 else "") + body


def emit_dot(g: GammaGraph) -> str:
    """Deterministic DOT text: vertices in grid order, edges sorted by
    their label pair; edges only one side claims are styled dashed
    (predicate only) or dotted (closed form only)."""
    name = f"gamma_{g.p}"
    lines = [f"graph {name} {{"]
    order = sorted(g.vertices, key=GammaVertex.grid_key)
    for v in order:
        lines.append(f'  "{_label(v, g.p)}";')
    styles = {"predicate": " [style=dashed]", "closed_form": " [style=dotted]"}
    edge_lines = []
    for a, b in g.edges:
        la, lb = _label(a, g.p), _label(b, g.p)
        suffix = styles.get(g.provenance[(a, b)], "")
        edge_lines.append(f'  "{la}" -- "{lb}"{suffix};')
    lines.extend(sorted(edge_lines))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json_dict(g: GammaGraph) -> dict:
    """Canonical JSON form: integer vertex values in grid order, edges
    as value pairs, provenance grouped by tag."""
    order = sorted(g.vertices, key=GammaVertex.grid_key)
    edges = sorted(g.edges, key=lambda e: (e[0].grid_key(), e[1].grid_key()))
    prov: dict[str, list[list[int]]] = {"both": [], "closed_form": [], "predicate": []}
    for e in edges:
        prov[g.provenance[e]].append([e[0].value(g.p), e[1].value(g.p)])
    return {
        "p": g.p,
        "bounds": list(g.bounds),
        "vertices": [v.value(g.p) for v in order],
        "edges": [[a.value(g.p), b.value(g.p)] for a, b in edges],
        "provenance": prov,
    }


def printed_p3_edges(bounds: Bounds) -> frozenset[Edge]:
    """The eleven edge families for p = 3 exactly as published, literal
    index bases and all. Family (2) reads "2 eps^(a-1) 3^(b+2)": a
    sign that flips with the parity of a and a fixed single factor of
    2. Families (6) and (7) start at a = 1, which drops their smallest
    column. This list exists to be audited, not used."""
    max_i, max_j = bounds
    out: set[Edge] = set()

    def grid(v: GammaVertex) -> bool:
        return v.two_exp <= max_i and 1 <= v.p_exp <= max_j

    for eps in (1, -1):
        for a in range(1, max_i + 2):
            i = a - 1
            for b in range(1, max_j + 1):
                j = b
                flip = 1 if i % 2 == 0 else eps  # eps^(a-1), literally
                pairs = [
                    (GammaVertex(eps, i, j), GammaVertex(eps, i, j + 1)),
                    (GammaVertex(eps, i, j), GammaVertex(flip, 1, j + 2)),
                    (GammaVertex(eps, i, j), GammaVertex(eps, i + 1, j)),
                    (GammaVertex(eps, i, j), GammaVertex(eps, i + 2, j)),
                    (GammaVertex(eps, i, j + 1), GammaVertex(eps, i + 2, j)),
                    (GammaVertex(eps, a + 1, b), GammaVertex(eps, a, b + 1)),
                    (GammaVertex(eps, a + 3, b), GammaVertex(eps, a, b + 2)),
                    (GammaVertex(eps, i, j), GammaVertex(-eps, i, j + 1)),
                    (GammaVertex(eps, i, j), GammaVertex(-eps, i + 1, j)),
                    (GammaVertex(eps, i, j), GammaVertex(-eps, i + 3, j)),
                    (GammaVertex(eps, i, j), GammaVertex(-eps, i, j)),
                ]
                for v, w in pairs:
                    if grid(v) and grid(w) and v != w:
                        out.add(_edge(v, w))
    return frozenset(out)


def printed_p3_report(bounds: Bounds) -> dict:
    """Where the published p = 3 list and the predicate disagree on the
    given grid: value pairs only one side claims, plus totals."""
    g = build_gamma(3, bounds)
    predicate = g.predicate_edges()
    printed = printed_p3_edges(bounds)

    def as_values(edges) -> list[list[int]]:
        return sorted(
            sorted([a.value(3), b.value(3)]) for a, b in edges
        )

    return {
        "bounds": list(bounds),
        "agree": len(predicate & printed),
        "printed_only": as_values(printed - predicate),
        "predicate_only": as_values(predicate - printed),
    }
