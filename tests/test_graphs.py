"""Grid graphs: closed-form families vs the definitional predicate."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirch import graphs, numtheory
from kirch.filters import FiniteSubset, is_top
from kirch.graphs import (
    GammaVertex,
    build_gamma,
    closed_form_edges,
    degree_signature,
    edge_predicate,
    emit_dot,
    gamma2,
    graph_json_dict,
    interior_margins,
    interior_vertices,
    printed_p3_edges,
    printed_p3_report,
    vertex_from_value,
)


def smooth_outside(n: int, allowed: set[int]) -> bool:
    """Independent check: does n factor entirely over `allowed`?"""
    n = abs(n)
    for q in allowed:
        while n % q == 0:
            n //= q
    return n == 1


def values(g):
    return {v.value(g.p) for v in g.vertices}


# The re-derived family lists must reproduce the predicate exactly,
# on the whole grid, for a representative of every prime class.
@pytest.mark.parametrize(
    "p,bounds",
    [(3, (6, 4)), (5, (6, 4)), (7, (6, 4)), (11, (5, 3)), (13, (5, 3)), (31, (6, 3))],
)
def test_closed_form_matches_predicate(p, bounds):
    g = build_gamma(p, bounds)
    report = g.discrepancies()
    assert report["predicate"] == []
    assert report["closed_form"] == []
    assert len(g.edges) > 0
    assert all(tag == "both" for tag in g.provenance.values())


# build_gamma scores pairs by a smooth-difference test; it must accept
# exactly the pairs the definitional predicate accepts, for a prime of
# every class: p = 3, Fermat, Mersenne, neither.
@pytest.mark.parametrize("p,bounds", [(3, (6, 4)), (5, (6, 4)), (7, (6, 4)), (11, (5, 3))])
def test_build_gamma_scores_pairs_like_edge_predicate(p, bounds):
    g = build_gamma(p, bounds)
    order = sorted(g.vertices, key=GammaVertex.grid_key)
    want = {
        (v, w)
        for k, v in enumerate(order)
        for w in order[k + 1:]
        if edge_predicate(v.value(p), w.value(p), p)
    }
    assert g.predicate_edges() == want


def test_build_gamma_does_not_factorize(monkeypatch):
    def boom(*args):
        raise AssertionError("build_gamma factorized")

    monkeypatch.setattr(numtheory, "factorize", boom)
    monkeypatch.setattr(graphs, "a_of_pair_formula", boom)
    g = build_gamma(7, (7, 4))
    assert g.discrepancies() == {"predicate": [], "closed_form": []}


def test_p3_families_hold_past_2_to_60():
    g = build_gamma(3, (38, 14))
    assert 2**38 * 3**14 > 2**60
    assert g.discrepancies() == {"predicate": [], "closed_form": []}


@pytest.mark.parametrize("p,bounds", [(3, (1000, 1000)), (3, (40, 24)), (3, (62, 1)), (5, (0, 28)), (3, (63, 0))])
def test_build_gamma_refuses_grids_past_63_bits(monkeypatch, p, bounds):
    def boom(*args):
        raise AssertionError("a vertex was built")

    monkeypatch.setattr(graphs, "GammaVertex", boom)
    with pytest.raises(OverflowError, match="63-bit"):
        build_gamma(p, bounds)


def test_build_gamma_accepts_the_largest_grids_that_fit():
    # differences here reach past 2^63; only the vertices must fit
    for p, bounds in [(3, (61, 1)), (5, (0, 27))]:
        max_i, max_j = bounds
        assert 2**max_i * p**max_j <= numtheory.MAX_MAGNITUDE
        assert build_gamma(p, bounds).discrepancies()["predicate"] == []


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
    assert vertex_from_value(-24, 3) == GammaVertex(-1, 3, 1)
    assert vertex_from_value(25, 5) == GammaVertex(1, 0, 2)
    assert vertex_from_value(8, 2) == GammaVertex(1, 3, 0)
    with pytest.raises(ValueError):
        vertex_from_value(7, 5)
    with pytest.raises(ValueError):
        vertex_from_value(0, 3)


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


def test_gamma3_degree_facts():
    g = build_gamma(3, (9, 6))
    sig = degree_signature(g)
    three = GammaVertex(1, 0, 1)
    assert sig[three] == 8
    assert g.neighbor_values(three) == {9, 27, 6, 12, -3, -9, -6, -24}
    assert sig[GammaVertex(-1, 0, 1)] == 8
    rest = [d for v, d in sig.items() if (v.two_exp, v.p_exp) != (0, 1)]
    assert rest and min(rest) >= 9


def test_gamma5_degree_facts():
    g = build_gamma(5, (7, 5))
    sig = degree_signature(g)
    five = GammaVertex(1, 0, 1)
    assert sig[five] == 4
    assert g.neighbor_values(five) == {25, 10, -20, -5}
    rest = [d for v, d in sig.items() if (v.two_exp, v.p_exp) != (0, 1)]
    assert rest and min(rest) >= 5


def test_gamma7_degree_facts():
    g = build_gamma(7, (8, 4))
    sig = degree_signature(g)
    seven = GammaVertex(1, 0, 1)
    assert sig[seven] == 4
    assert g.neighbor_values(seven) == {14, 56, -7, -49}
    rest = [d for v, d in sig.items() if (v.two_exp, v.p_exp) != (0, 1)]
    assert rest and min(rest) >= 5


def test_gamma31_degree_facts():
    g = build_gamma(31, (8, 3))
    sig = degree_signature(g)
    v = GammaVertex(1, 0, 1)
    assert sig[v] == 4
    assert g.neighbor_values(v) == {62, 992, -31, -961}


def test_gamma11_interior_degree_two_set():
    g = build_gamma(11, (7, 4))
    sig = degree_signature(g)
    twos = sorted(v.value(11) for v, d in sig.items() if d == 2)
    assert twos == sorted(s * 11**b for s in (-1, 1) for b in (1, 2, 3))


def test_interior_margins_by_class():
    assert interior_margins(2) == (1, 0)
    assert interior_margins(3) == (4, 3)
    assert interior_margins(5) == (3, 2)
    assert interior_margins(7) == (4, 2)
    assert interior_margins(31) == (6, 2)
    assert interior_margins(11) == (2, 1)
    assert interior_margins(13) == (2, 1)


def test_interior_vertices_respect_margins():
    g = build_gamma(5, (7, 5))
    inner = interior_vertices(g)
    assert all(v.two_exp <= 4 and v.p_exp <= 3 for v in inner)
    assert GammaVertex(1, 0, 1) in inner


def test_mirror_symmetry():
    g = build_gamma(5, (5, 3))
    for a, b in g.edges:
        ma = GammaVertex(-a.sign, a.two_exp, a.p_exp)
        mb = GammaVertex(-b.sign, b.two_exp, b.p_exp)
        assert (ma, mb) in g.edges or (mb, ma) in g.edges


def test_printed_p3_list_defects():
    rep = printed_p3_report((6, 5))
    assert rep["agree"] > 400
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


def test_printed_p3_overlap_is_real():
    # instances the published list does get right stay in agreement
    printed = printed_p3_edges((4, 3))
    g = build_gamma(3, (4, 3))
    both = printed & g.predicate_edges()
    assert len(both) > 100
    for a, b in [(GammaVertex(1, 0, 1), GammaVertex(1, 0, 2))]:
        assert (a, b) in both or (b, a) in both


def test_gamma2_small():
    g = gamma2(2)
    assert len(g.vertices) == 6
    assert len(g.edges) == 7
    assert values(g) == {1, 2, 4, -1, -2, -4}


def test_gamma2_edges_at_four():
    g = gamma2(3)
    at4 = sorted(
        sorted([a.value(2), b.value(2)])
        for a, b in g.edges
        if 4 in (a.value(2), b.value(2))
    )
    assert at4 == [[-4, 4], [2, 4], [4, 8]]


def test_gamma2_degrees():
    sig = degree_signature(gamma2(9))
    assert sorted(v.value(2) for v, d in sig.items() if d == 2) == [-1, 1]
    assert all(d == 3 for v, d in sig.items() if v.two_exp >= 1)


def test_gamma2_agrees_with_top_doubletons():
    g = gamma2(5)
    vals = sorted(values(g))
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            expected = is_top(FiniteSubset.of(x, y))
            got = any(
                {a.value(2), b.value(2)} == {x, y} for a, b in g.edges
            )
            assert got == expected


def test_gamma2_rejects_tiny():
    with pytest.raises(ValueError):
        gamma2(1)


def test_build_gamma_rejects_bad_p():
    with pytest.raises(ValueError):
        build_gamma(2, (3, 3))
    with pytest.raises(ValueError):
        build_gamma(9, (3, 3))
    with pytest.raises(ValueError):
        closed_form_edges(2, (3, 3))


def test_dot_deterministic_and_frozen():
    assert emit_dot(gamma2(2)) == emit_dot(gamma2(2))
    text = emit_dot(gamma2(2))
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
