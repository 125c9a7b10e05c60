"""Grid graphs: closed-form families vs the definitional predicate."""

import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirch import graphs, numtheory
from kirch.filters import FiniteSubset, is_top
from kirch.graphs import (
    build_gamma,
    closed_form_edges,
    degree_signature,
    edge_predicate,
    emit_dot,
    graph_json_dict,
    interior_margins,
    printed_p3_edges,
    printed_p3_report,
)


def smooth_outside(n: int, allowed: set[int]) -> bool:
    """Independent check: does n factor entirely over `allowed`?"""
    n = abs(n)
    for q in allowed:
        while n % q == 0:
            n //= q
    return n == 1


class Vertex(NamedTuple):
    """One grid point s * 2^two_exp * p^p_exp of the reference grid;
    p_exp is 0 for p = 2. The fields are declared in grid order, so
    tuple order is grid order."""

    p_exp: int
    two_exp: int
    sign: int

    def value(self, p):
        return self.sign * 2**self.two_exp * p**self.p_exp


def reference_grid(p, bounds):
    """Every vertex in grid order, from its fields: by row, then i, then
    sign -1 before 1. The per-vertex reference for graphs._values."""
    max_i, max_j = bounds
    rows = [0] if p == 2 else range(1, max_j + 1)
    return [Vertex(j, i, s) for j in rows for i in range(max_i + 1) for s in (-1, 1)]


def by_value(p, bounds):
    """The reference grid's vertices, keyed by value."""
    return {v.value(p): v for v in reference_grid(p, bounds)}


def _label(v, p):
    """The DOT label of one vertex, from its fields: the per-vertex
    reference for graphs._labels."""
    parts = []
    if v.two_exp:
        parts.append(f"2^{v.two_exp}" if v.two_exp > 1 else "2")
    if v.p_exp:
        parts.append(f"{p}^{v.p_exp}" if v.p_exp > 1 else str(p))
    body = "*".join(parts) if parts else "1"
    return ("-" if v.sign < 0 else "") + body


# The row j = 0 (p = 2), each prime class, the one-column grid of
# Gamma_5 (width 1: the power-of-two table must be sized by _shape's
# width), an empty grid and the largest p = 3 grid that fits.
@pytest.mark.parametrize("p,bounds", [
    (2, (0, 0)), (2, (9, 0)), (2, (62, 0)), (3, (14, 8)), (5, (6, 4)), (7, (5, 3)),
    (11, (6, 3)), (17, (16, 5)), (5, (0, 27)), (3, (0, 0)), (3, (31, 20)),
])
def test_labels_and_values_match_the_vertices(p, bounds):
    grid = reference_grid(p, bounds)
    assert graphs._labels(p, bounds) == [_label(v, p) for v in grid]
    assert graphs._values(p, bounds) == [v.value(p) for v in grid]
    assert build_gamma(p, bounds).vertices == tuple(v.value(p) for v in grid)


def edge_ends(e):
    """The indices (k, l) that the private edge code k << 16 | l joins."""
    return e >> 16, e & 0xFFFF


def as_pairs(g, edges):
    """Edge codes of g as value pairs, read through g.vertices."""
    return {(g.vertices[k], g.vertices[l]) for k, l in map(edge_ends, edges)}


def neighbor_values(g, x):
    """Values of x's neighbors on the predicate side."""
    return {y for e in as_pairs(g, g.predicate) if x in e for y in e if y != x}


def pairwise_predicate(p, bounds):
    """The O(V^2) oracle: every value pair of the reference grid whose
    difference is {2,p}-smooth, in grid order."""
    order = [v.value(p) for v in reference_grid(p, bounds)]
    return {
        (x, y)
        for k, x in enumerate(order)
        for y in order[k + 1:]
        if smooth_outside(x - y, {2, p})
    }


# The re-derived family lists must reproduce the predicate exactly,
# on the whole grid, for a representative of every prime class.
@pytest.mark.parametrize(
    "p,bounds",
    [(3, (6, 4)), (5, (6, 4)), (7, (6, 4)), (11, (5, 3)), (13, (5, 3)), (31, (6, 3))],
)
def test_closed_form_matches_predicate(p, bounds):
    g = build_gamma(p, bounds)
    assert len(g.predicate) > 0
    assert g.predicate == g.closed


# build_gamma scores pairs by a smooth-difference test; it must accept
# exactly the pairs the definitional predicate accepts, for a prime of
# every class: p = 3, Fermat, Mersenne, neither, and the row graph p = 2.
@pytest.mark.parametrize(
    "p,bounds", [(3, (6, 4)), (5, (6, 4)), (7, (6, 4)), (11, (5, 3)), (2, (8, 0))]
)
def test_build_gamma_scores_pairs_like_edge_predicate(p, bounds):
    g = build_gamma(p, bounds)
    order = [v.value(p) for v in reference_grid(p, bounds)]
    want = {
        (x, y)
        for k, x in enumerate(order)
        for y in order[k + 1:]
        if edge_predicate(x, y, p)
    }
    assert as_pairs(g, g.predicate) == want


# offset-class scoring against the pair loop: the benchmark's grids, a
# row graph, and the largest grids, whose differences pass 2^63; (59, 2)
# is the widest two-row p = 3 grid that fits, so a row's classes run
# from di = -59 to 59
@pytest.mark.parametrize("p,bounds", [
    (3, (14, 8)), (5, (12, 8)), (17, (16, 5)), (7, (14, 7)), (31, (16, 4)),
    (11, (16, 6)), (13, (16, 5)), (2, (20, 0)), (3, (61, 1)), (5, (0, 27)),
    (3, (59, 2)),
])
def test_build_gamma_matches_the_pairwise_oracle(p, bounds):
    g = build_gamma(p, bounds)
    assert as_pairs(g, g.predicate) == pairwise_predicate(p, bounds)


# the same on small grids of every prime class, the empty odd grids
# (max_j = 0) and the row j = 0 of p = 2 included; and every class the
# scoring returns joins at least one pair of the grid, so none is
# scored past its rows or columns
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 31]), st.integers(0, 8), st.integers(0, 3))
@settings(max_examples=600, deadline=None)
def test_build_gamma_matches_the_pairwise_oracle_on_small_grids(p, max_i, max_j):
    bounds = (max_i, 0 if p == 2 else max_j)
    g = build_gamma(p, bounds)
    assert as_pairs(g, g.predicate) == pairwise_predicate(p, bounds)
    assert all(graphs._edges(p, bounds, [c]) for c in graphs._scored_offsets(p, bounds))


def test_build_gamma_does_not_read_the_families(monkeypatch):
    want = build_gamma(5, (6, 4)).predicate
    real = graphs._families

    def without_one_shift(p):
        return tuple(c for c in real(p) if c != (0, 1, 1))

    monkeypatch.setattr(graphs, "_families", without_one_shift)
    g = build_gamma(5, (6, 4))
    assert g.predicate == want
    assert g.predicate - g.closed


# An edge only one side claims, rendered: dashed and under "predicate"
# when the closed form misses the shift (0, 1, 1) of Gamma_5, dotted and
# under "closed_form" when it adds (0, 2, 1), whose representative
# 1 - 4 = -3 is not {2,5}-smooth.
@pytest.mark.parametrize("shift,side,style", [
    ((0, 1, 1), "predicate", " [style=dashed]"),
    ((0, 2, 1), "closed_form", " [style=dotted]"),
])
def test_one_sided_edges_are_rendered(monkeypatch, shift, side, style):
    real = graphs._families

    def families(p):
        rest = tuple(c for c in real(p) if c != shift)
        return rest if side == "predicate" else rest + (shift,)

    monkeypatch.setattr(graphs, "_families", families)
    g = build_gamma(5, (6, 4))
    # the shift's pairs, by a vertex loop, in grid order
    order = reference_grid(5, (6, 4))
    dj, di, t = shift
    want = [
        (v, w)
        for v in order
        for w in [Vertex(v.p_exp + dj, v.two_exp + di, v.sign * t)]
        if w in order
    ]
    assert want
    prov = graph_json_dict(g)["provenance"]
    assert prov[side] == [[v.value(5), w.value(5)] for v, w in want]
    assert prov["closed_form" if side == "predicate" else "predicate"] == []
    styled = sorted(line for line in emit_dot(g).splitlines() if "style" in line)
    assert styled == sorted(
        f'  "{_label(v, 5)}" -- "{_label(w, 5)}"{style};' for v, w in want
    )


def per_edge_render(g):
    """emit_dot and graph_json_dict by per-edge membership: every edge of
    the union, in grid order, tagged by which sides claim it."""
    grid = reference_grid(g.p, g.bounds)
    labels = [_label(v, g.p) for v in grid]
    values = [v.value(g.p) for v in grid]
    tags = {(True, True): ("both", ""), (True, False): ("predicate", " [style=dashed]"),
            (False, True): ("closed_form", " [style=dotted]")}
    lines, pairs = [], []
    prov = {"both": [], "closed_form": [], "predicate": []}
    for e in sorted(g.predicate | g.closed):
        k, l = edge_ends(e)
        tag, style = tags[e in g.predicate, e in g.closed]
        lines.append(f'  "{labels[k]}" -- "{labels[l]}"{style};')
        pairs.append([values[k], values[l]])
        prov[tag].append(pairs[-1])
    dot = [f"graph gamma_{g.p} {{", *(f'  "{label}";' for label in labels), *sorted(lines), "}"]
    data = {"p": g.p, "bounds": list(g.bounds), "vertices": values, "edges": pairs,
            "provenance": prov}
    return "\n".join(dot) + "\n", data


# Gamma_5 with the shift (0, 1, 1) dropped from the closed form
# (dashed), (0, 2, 1) added to it (dotted), or both at once, so the
# edges list interleaves all three tags; and graphs whose sides agree.
@pytest.mark.parametrize("p,bounds,drop,add", [
    (5, (6, 4), (0, 1, 1), (0, 2, 1)),
    (5, (6, 4), (0, 1, 1), None),
    (5, (6, 4), None, (0, 2, 1)),
    (5, (6, 4), None, None),
    (3, (14, 8), None, None),
    (2, (9, 0), None, None),
])
def test_renderers_match_per_edge_membership(monkeypatch, p, bounds, drop, add):
    real = graphs._families
    monkeypatch.setattr(graphs, "_families", lambda p: tuple(
        c for c in real(p) if c != drop) + ((add,) if add else ()))
    g = build_gamma(p, bounds)
    dot, data = per_edge_render(g)
    tags = {tag for tag, pairs in data["provenance"].items() if pairs}
    assert tags == {"both"} | ({"predicate"} if drop else set()) | (
        {"closed_form"} if add else set())
    assert emit_dot(g) == dot
    got = graph_json_dict(g)
    assert json.dumps(got) == json.dumps(data)
    assert got["edges"] is not got["provenance"]["both"]


# Each class's hand-written table against the scored one, with no grid
# instantiated, on bounds that reach two columns past the largest |di|:
# three rows for p = 3, two for the other odd primes, the row j = 0 for
# p = 2. No suite reaches the Fermat prime 65537 or the Mersenne primes
# 8191 and 131071.
@pytest.mark.parametrize(
    "p", [2, 3, 5, 7, 17, 257, 65537, 31, 127, 8191, 131071, 11, 13, 19, 23, 29]
)
def test_families_equal_the_scored_offsets(p):
    table = graphs._families(p)
    rows = 0 if p == 2 else 3 if p == 3 else 2
    bounds = (max(abs(di) for _, di, _ in table) + 2, rows)
    assert len(set(table)) == len(table)
    assert sorted(table) == sorted(graphs._scored_offsets(p, bounds))


def test_build_gamma_does_not_factorize(monkeypatch):
    def boom(*args):
        raise AssertionError("build_gamma factorized")

    monkeypatch.setattr(numtheory, "factorize", boom)
    monkeypatch.setattr(graphs, "a_of_pair_formula", boom)
    g = build_gamma(7, (7, 4))
    assert g.predicate == g.closed


def forbid_vertex_lists(monkeypatch):
    """Make graphs._values and graphs._labels, the per-vertex lists,
    fail if called."""
    def boom(*args):
        raise AssertionError("a vertex list was built")

    monkeypatch.setattr(graphs, "_values", boom)
    monkeypatch.setattr(graphs, "_labels", boom)


def record_vertex_lists(monkeypatch):
    """Wrap graphs._values and graphs._labels so that each list they
    return is recorded; a call that raises records nothing."""
    built = []
    for name in ("_values", "_labels"):
        real = getattr(graphs, name)

        def wrapped(*args, real=real):
            out = real(*args)
            built.append(out)
            return out

        monkeypatch.setattr(graphs, name, wrapped)
    return built


@pytest.mark.parametrize("p,bounds", [
    (2, (9, 0)), (3, (9, 6)), (5, (9, 5)), (7, (9, 5)), (11, (9, 5)),
])
def test_closed_form_edges_builds_no_vertex(monkeypatch, p, bounds):
    want = build_gamma(p, bounds).closed
    forbid_vertex_lists(monkeypatch)
    assert closed_form_edges(p, bounds) == want


def lookup_edges(p, bounds, offsets):
    """The vertex lookup _edges replaces: each class from every vertex,
    its partner found in a dict over the reference grid, an edge kept
    as (k, l) when k < l."""
    grid = reference_grid(p, bounds)
    at = {v: k for k, v in enumerate(grid)}
    out = set()
    for k, (j, i, s) in enumerate(grid):
        for dj, di, t in offsets:
            l = at.get((j + dj, i + di, s * t))
            if l is not None and k < l:
                out.add((k, l))
    return out


@st.composite
def forward_tables(draw):
    """A small grid and a random table of forward offset classes,
    reaching one row and one column past the grid, so that the index
    arithmetic meets every border, which the families never probe.
    Odd p takes max_j = 0 (an empty grid) too, and p = 2 its one row."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    max_i = draw(st.integers(0, 4))
    max_j = 0 if p == 2 else draw(st.integers(0, 3))
    table = set()
    for _ in range(draw(st.integers(0, 8))):
        dj = draw(st.integers(0, (0 if p == 2 else max_j) + 1))
        di = draw(st.integers(0 if dj == 0 else -max_i - 1, max_i + 1))
        t = -1 if (dj, di) == (0, 0) else draw(st.sampled_from([-1, 1]))
        table.add((dj, di, t))
    return p, (max_i, max_j), sorted(table)


@given(forward_tables())
@settings(max_examples=300, deadline=None)
def test_edges_match_the_vertex_lookup(case):
    p, bounds, table = case
    ends = [edge_ends(e) for e in graphs._edges(p, bounds, table)]
    n = len(reference_grid(p, bounds))
    assert all(k < l < n for k, l in ends)
    assert set(ends) == lookup_edges(p, bounds, table)


def test_p3_families_hold_past_2_to_60():
    g = build_gamma(3, (38, 14))
    assert 2**38 * 3**14 > 2**60
    assert g.predicate == g.closed


@pytest.mark.parametrize("p,bounds", [
    (3, (1000, 1000)), (3, (40, 24)), (3, (62, 1)), (5, (0, 28)), (3, (63, 0)),
    (2, (63, 0)), (2, (70, 0)), (2, (1000, 0)),
])
def test_build_gamma_refuses_grids_past_63_bits(monkeypatch, p, bounds):
    built = record_vertex_lists(monkeypatch)
    with pytest.raises(OverflowError, match="63-bit"):
        build_gamma(p, bounds)
    assert built == []
    if p == 3:
        forbid_vertex_lists(monkeypatch)
        for build in (closed_form_edges, lambda p, bounds: printed_p3_edges(bounds)):
            with pytest.raises(OverflowError, match="63-bit"):
                build(p, bounds)


def test_build_gamma_accepts_the_largest_grids_that_fit():
    # differences here reach past 2^63; only the vertices must fit
    for p, bounds in [(3, (61, 1)), (5, (0, 27)), (2, (62, 0))]:
        max_i, max_j = bounds
        assert 2**max_i * p**max_j <= numtheory.MAX_MAGNITUDE
        g = build_gamma(p, bounds)
        assert g.predicate <= g.closed


def test_edge_predicate_examples():
    assert edge_predicate(5, 25, 5)
    assert edge_predicate(5, -20, 5)
    assert not edge_predicate(11, 2 * 11**2, 11)
    assert edge_predicate(3, -24, 3)
    assert not edge_predicate(3, 48, 3)  # difference 45 has factor 5


def test_edge_predicate_rejects_non_vertices():
    with pytest.raises(ValueError):
        edge_predicate(8, 25, 5)  # no factor of 5
    with pytest.raises(ValueError):
        edge_predicate(5, 15, 5)  # stray factor 3
    with pytest.raises(ValueError):
        edge_predicate(5, 5, 5)  # self-loop
    with pytest.raises(ValueError):
        edge_predicate(0, 5, 5)


def test_vertex_decode():
    # -24 = -2^3 * 3, 25 = 5^2, 8 = 2^3 on the row of Gamma_2
    for x, p in [(-24, 3), (25, 5), (8, 2), (-1, 2)]:
        assert graphs._check_vertex(x, p) is None
    with pytest.raises(ValueError, match=r"^7 is not of the form s\*2\^i\*5\^j with j >= 1$"):
        graphs._check_vertex(7, 5)
    with pytest.raises(ValueError, match=r"^8 is not of the form s\*2\^i\*3\^j with j >= 1$"):
        graphs._check_vertex(8, 3)
    with pytest.raises(ValueError, match="^0 is not a vertex$"):
        graphs._check_vertex(0, 3)


@pytest.mark.parametrize("p", [1, 0, -3, 4])
def test_decode_refuses_a_non_prime(p):
    with pytest.raises(ValueError, match=f"^{p} is not prime"):
        graphs._check_vertex(9, p)
    with pytest.raises(ValueError, match=f"^{p} is not prime"):
        edge_predicate(9, 18, p)


@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.tuples(st.sampled_from([-1, 1]), st.integers(0, 5), st.integers(1, 4)),
    st.tuples(st.sampled_from([-1, 1]), st.integers(0, 5), st.integers(1, 4)),
)
@settings(max_examples=300, deadline=None)
def test_predicate_is_smooth_difference(p, a, b):
    x = a[0] * 2 ** a[1] * p ** a[2]
    y = b[0] * 2 ** b[1] * p ** b[2]
    if x == y:
        return
    assert edge_predicate(x, y, p) == smooth_outside(x - y, {2, p})


def off_p(p, bounds, sig):
    """The degrees in sig of every vertex but +-p, picked by the
    reference grid's fields."""
    at = by_value(p, bounds)
    return [d for x, d in sig.items() if (at[x].two_exp, at[x].p_exp) != (0, 1)]


def test_gamma3_degree_facts():
    g = build_gamma(3, (9, 6))
    sig = degree_signature(g)
    assert sig[3] == 8
    assert neighbor_values(g, 3) == {9, 27, 6, 12, -3, -9, -6, -24}
    assert sig[-3] == 8
    rest = off_p(3, (9, 6), sig)
    assert rest and min(rest) >= 9


def test_gamma5_degree_facts():
    g = build_gamma(5, (7, 5))
    sig = degree_signature(g)
    assert sig[5] == 4
    assert neighbor_values(g, 5) == {25, 10, -20, -5}
    rest = off_p(5, (7, 5), sig)
    assert rest and min(rest) >= 5


def test_gamma7_degree_facts():
    g = build_gamma(7, (8, 4))
    sig = degree_signature(g)
    assert sig[7] == 4
    assert neighbor_values(g, 7) == {14, 56, -7, -49}
    rest = off_p(7, (8, 4), sig)
    assert rest and min(rest) >= 5


def test_gamma31_degree_facts():
    g = build_gamma(31, (8, 3))
    sig = degree_signature(g)
    assert sig[31] == 4
    assert neighbor_values(g, 31) == {62, 992, -31, -961}


def test_gamma11_interior_degree_two_set():
    g = build_gamma(11, (7, 4))
    sig = degree_signature(g)
    twos = sorted(x for x, d in sig.items() if d == 2)
    assert twos == sorted(s * 11**b for s in (-1, 1) for b in (1, 2, 3, 4))


def test_interior_margins_by_class():
    assert interior_margins(2) == (1, 0)
    assert interior_margins(3) == (3, 2)
    assert interior_margins(5) == (2, 1)
    assert interior_margins(7) == (3, 1)
    assert interior_margins(31) == (5, 1)
    assert interior_margins(11) == (1, 0)
    assert interior_margins(13) == (1, 0)


def _degrees(g):
    out = dict.fromkeys(g.vertices, 0)
    for a, b in as_pairs(g, g.predicate):
        out[a] += 1
        out[b] += 1
    return out


def reference_signature(g):
    """degree_signature by vertex fields: the reference grid's vertices
    at least interior_margins(p) below the bounds, in grid order, each
    with its degree counted per predicate edge."""
    m2, mp = interior_margins(g.p)
    max_i, max_j = g.bounds
    degree = _degrees(g)
    return [
        (v.value(g.p), degree[v.value(g.p)])
        for v in reference_grid(g.p, g.bounds)
        if v.two_exp <= max_i - m2 and v.p_exp <= max_j - mp
    ]


# each class, p = 2 and the largest margins (127: (7, 1)); then grids
# whose interior is empty: the one-column grid of Gamma_5, a single row
# of Gamma_5 (every row within dj's reach of the top), Gamma_31 at
# (4, 2) (narrower than its margin 5, as verify gamma refuses) and the
# single vertex pair of Gamma_2
@pytest.mark.parametrize("p,bounds,interior", [
    (2, (9, 0), True), (3, (9, 6), True), (5, (7, 5), True), (7, (8, 4), True),
    (11, (7, 4), True), (17, (16, 5), True), (127, (10, 3), True),
    (5, (0, 27), False), (5, (6, 1), False), (31, (4, 2), False), (2, (0, 0), False),
])
def test_degree_signature_matches_a_per_vertex_reference(p, bounds, interior):
    g = build_gamma(p, bounds)
    want = reference_signature(g)
    assert bool(want) == interior
    assert list(degree_signature(g).items()) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 17, 127])
def test_interior_margins_are_exact_and_tight(p):
    m2, mp = interior_margins(p)
    bounds = (m2 + 2, 0) if p == 2 else (m2 + 2, mp + 2)
    g = build_gamma(p, bounds)
    small = _degrees(g)
    big = _degrees(build_gamma(p, (bounds[0] + 3, 0 if p == 2 else bounds[1] + 3)))
    # exact: no interior vertex gains a neighbor on a larger grid
    sig = degree_signature(g)
    assert sig and all(d == big[x] for x, d in sig.items())
    # tight: one step past a nonzero margin, some vertex does
    for axis, margin in ((0, m2), (1, mp)):
        if margin == 0:
            continue
        reach = [bounds[0] - m2, bounds[1] - mp]
        reach[axis] += 1
        past = [x for x, v in by_value(p, bounds).items()
                if v.two_exp <= reach[0] and v.p_exp <= reach[1]]
        assert any(small[x] != big[x] for x in past), (p, axis)


def test_interior_vertices_respect_margins():
    g = build_gamma(5, (7, 5))
    inner = degree_signature(g).keys()
    at = by_value(5, (7, 5))
    assert all(at[x].two_exp <= 5 and at[x].p_exp <= 4 for x in inner)
    assert 5 in inner


def test_mirror_symmetry():
    g = build_gamma(5, (5, 3))
    edges = as_pairs(g, g.predicate | g.closed)
    for a, b in edges:
        assert (-a, -b) in edges or (-b, -a) in edges


def test_printed_p3_list_defects():
    rep = printed_p3_report((6, 5))
    assert rep["agree"] == len(printed_p3_edges((6, 5)) & build_gamma(3, (6, 5)).predicate) > 400
    # the parity-twisted family claims pairs that are not edges
    assert [3, 54] in rep["printed_only"]
    assert [-3, 54] in rep["printed_only"]
    # its step-two column misses most true step-two edges
    assert [3, 27] in rep["predicate_only"]
    # the two clipped families drop their smallest column
    assert [6, 9] in rep["predicate_only"]
    assert [18, 27] in rep["predicate_only"]
    assert [24, 27] in rep["predicate_only"]
    assert [72, 81] in rep["predicate_only"]


def test_printed_p3_report_builds_no_closed_form(monkeypatch):
    want = printed_p3_report((6, 5))

    def boom(*args):
        raise AssertionError("the closed form was built")

    monkeypatch.setattr(graphs, "closed_form_edges", boom)
    monkeypatch.setattr(graphs, "_families", boom)
    assert printed_p3_report((6, 5)) == want


@pytest.mark.parametrize("bounds,error,message", [
    ((-1, 3), ValueError, "^graph bounds must be nonnegative$"),
    ((3, -1), ValueError, "^graph bounds must be nonnegative$"),
    ((62, 1), OverflowError, r"^2\^62 \* 3\^1 exceeds the supported 63-bit range$"),
    ((40, 24), OverflowError, r"^2\^40 \* 3\^24 exceeds the supported 63-bit range$"),
])
def test_printed_p3_report_refuses_before_any_vertex(monkeypatch, bounds, error, message):
    built = record_vertex_lists(monkeypatch)
    with pytest.raises(error, match=message):
        printed_p3_report(bounds)
    assert built == []


def printed_p3_by_vertex_lookup(bounds):
    """printed_p3_edges with each endpoint looked up on the reference
    grid."""
    at = {v: k for k, v in enumerate(reference_grid(3, bounds))}
    max_i, max_j = bounds
    out = set()
    for eps in (1, -1):
        for a in range(1, max_i + 2):
            i = a - 1
            for b in range(1, max_j + 1):
                j = b
                flip = 1 if i % 2 == 0 else eps
                for v, w in (
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
                    if v in at and w in at:
                        k, l = sorted((at[v], at[w]))
                        out.add(k << 16 | l)
    return frozenset(out)


@pytest.mark.parametrize("bounds", [
    *((i, j) for i in range(16) for j in range(1, 10)), (38, 14), (31, 20),
])
def test_printed_p3_edges_match_a_vertex_lookup(bounds):
    assert printed_p3_edges(bounds) == printed_p3_by_vertex_lookup(bounds)


def test_printed_p3_overlap_is_real():
    # instances the published list does get right stay in agreement
    printed = printed_p3_edges((4, 3))
    g = build_gamma(3, (4, 3))
    both = as_pairs(g, printed & g.predicate)
    assert len(both) > 100
    assert (3, 9) in both


def test_gamma2_small():
    g = build_gamma(2, (2, 0))
    assert len(g.vertices) == 6
    assert len(g.predicate | g.closed) == 7
    assert set(g.vertices) == {1, 2, 4, -1, -2, -4}
    assert g.predicate == g.closed


def test_gamma2_edges_at_four():
    g = build_gamma(2, (3, 0))
    at4 = sorted(sorted([a, b]) for a, b in as_pairs(g, g.predicate | g.closed) if 4 in (a, b))
    assert at4 == [[-4, 4], [2, 4], [4, 8]]


def test_gamma2_degrees():
    sig = degree_signature(build_gamma(2, (9, 0)))
    at = by_value(2, (9, 0))
    assert sorted(x for x, d in sig.items() if d == 2) == [-1, 1]
    assert all(d == 3 for x, d in sig.items() if at[x].two_exp >= 1)


def test_gamma2_agrees_with_top_doubletons():
    g = build_gamma(2, (5, 0))
    vals = sorted(g.vertices)
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            expected = is_top(FiniteSubset.of(x, y))
            for edges in (g.predicate, g.closed):
                got = any({a, b} == {x, y} for a, b in as_pairs(g, edges))
                assert got == expected


def test_build_gamma_rejects_bad_p():
    with pytest.raises(ValueError):
        build_gamma(2, (3, 3))
    with pytest.raises(ValueError):
        build_gamma(9, (3, 3))
    with pytest.raises(ValueError):
        closed_form_edges(2, (3, 3))


def test_dot_deterministic_and_frozen():
    assert emit_dot(build_gamma(2, (2, 0))) == emit_dot(build_gamma(2, (2, 0)))
    text = emit_dot(build_gamma(2, (2, 0)))
    assert text.startswith("graph gamma_2 {")
    assert '"-2^2" -- "2^2";' in text
    assert text.count("--") == 7


def test_dot_empty_bounds_header_only():
    g = build_gamma(5, (0, 0))
    assert emit_dot(g) == "graph gamma_5 {\n}\n"


def test_dot_labels():
    text = emit_dot(build_gamma(5, (2, 2)))
    assert '"2^2*5^2"' in text
    assert '"-5"' in text
    assert '"2*5"' in text


def test_json_dump_shape_and_determinism():
    g = build_gamma(5, (3, 2))
    d = graph_json_dict(g)
    assert set(d) == {"p", "bounds", "vertices", "edges", "provenance"}
    assert d["p"] == 5 and d["bounds"] == [3, 2]
    vs = set(d["vertices"])
    assert all(x in vs and y in vs for x, y in d["edges"])
    total = sum(len(v) for v in d["provenance"].values())
    assert total == len(d["edges"])
    assert json.dumps(d) == json.dumps(graph_json_dict(build_gamma(5, (3, 2))))
