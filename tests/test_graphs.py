import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from wsatlab.errors import GraphFormatError
from wsatlab.graphs import (
    Graph,
    circulant,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_list_to_graph,
    empty_graph,
    graph6_to_graph,
    graph_to_edge_list,
    graph_to_graph6,
    path_graph,
    read_graph_file,
    star_graph,
    subdivide,
    twin_classes,
    write_graph_file,
)
from wsatlab.isomorphism import are_isomorphic


def rand_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (1, 2)])
    assert g.num_edges == 2
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert g.with_edge(0, 2).has_edge(0, 2)
    assert not g.has_edge(0, 2), "graphs are immutable values"
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])


@pytest.mark.parametrize("bad", [-1, 3])
def test_queries_reject_vertices_outside_the_graph(bad):
    # -1 would read the last row: (-1, 0) is the edge (2, 0) here
    g = Graph(3, [(0, 2), (1, 2)])
    message = f"^vertex {bad} outside graph$"
    for query in (
        lambda: g.has_edge(bad, 0),
        lambda: g.has_edge(0, bad),
        lambda: g.neighbors(bad),
        lambda: g.adj_mask(bad),
        lambda: g.degree(bad),
    ):
        with pytest.raises(ValueError, match=message):
            query()


def test_circulant_examples():
    g = circulant(8, {1, 4})
    assert g.num_edges == 12 and set(g.degrees) == {3}
    g = circulant(7, {1, 2})
    assert g.num_edges == 14 and set(g.degrees) == {4}
    g = circulant(6, {1, 3})
    assert g.num_edges == 9
    with pytest.raises(ValueError):
        circulant(2, {1})
    with pytest.raises(ValueError):
        circulant(6, {0})
    with pytest.raises(ValueError):
        circulant(6, {6})


def test_circulant_vertex_transitive():
    rng = random.Random(1)
    for _ in range(20):
        k = rng.randint(3, 15)
        gens = {rng.randint(1, k - 1) for _ in range(rng.randint(1, 3))}
        g = circulant(k, gens)
        assert len(set(g.degrees)) == 1


def test_subdivide_examples():
    p3, groups = subdivide(Graph(2, [(0, 1)]), {(0, 1): 2})
    assert p3.n == 3 and p3.num_edges == 2 and groups[(0, 1)] == [2]

    c3 = cycle_graph(3)
    c6, _ = subdivide(c3, {e: 2 for e in c3.edges})
    assert are_isomorphic(c6, cycle_graph(6))

    # Moebius ladder k=8, two long edges stretched once: 8 + 2 vertices
    mob = circulant(8, {1, 4})
    sched = {e: 1 for e in mob.edges}
    sched[(0, 4)] = 2
    sched[(2, 6)] = 2
    gp, groups = subdivide(mob, sched)
    assert gp.n == 10 and gp.num_edges == 14
    assert len(groups[(0, 4)]) == 1 and len(groups[(1, 5)]) == 0

    with pytest.raises(ValueError):
        subdivide(c3, {(0, 1): 2})  # missing edges
    with pytest.raises(ValueError):
        subdivide(c3, {**{e: 1 for e in c3.edges}, (0, 3): 1})


def contract_degree_two(g: Graph, keep: int) -> Graph:
    """Test oracle: repeatedly splice out degree-2 vertices above ``keep``."""
    edges = {tuple(sorted(e)) for e in g.edges}
    alive = set(range(g.n))
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if v < keep:
                continue
            nbrs = [w for w in alive for e in [tuple(sorted((v, w)))] if e in edges]
            if len(nbrs) == 2:
                a, b = nbrs
                edges.discard(tuple(sorted((v, a))))
                edges.discard(tuple(sorted((v, b))))
                edges.add(tuple(sorted((a, b))))
                alive.discard(v)
                changed = True
                break
    relabel = {v: i for i, v in enumerate(sorted(alive))}
    return Graph(len(alive), [(relabel[a], relabel[b]) for a, b in edges])


def test_subdivide_contract_roundtrip():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(3, 10)
        g = rand_graph(rng, n, 0.45)
        if g.num_edges == 0 or any(d == 2 for d in g.degrees):
            continue  # contraction oracle needs original degrees != 2
        sched = {e: rng.randint(1, 3) for e in g.edges}
        gp, _ = subdivide(g, sched)
        back = contract_degree_two(gp, g.n)
        assert are_isomorphic(back, g)


def test_disjoint_union():
    du = disjoint_union([complete_graph(3), complete_graph(3)])
    assert du.n == 6 and du.num_edges == 6
    assert disjoint_union([]).n == 0
    big = disjoint_union([complete_graph(7), complete_graph(100)])
    assert big.n == 107 and big.num_edges == 21 + 4950
    # labels offset in input order
    du2 = disjoint_union([path_graph(2), path_graph(2)])
    assert sorted(du2.edges) == [(0, 1), (2, 3)]


def test_graph6_roundtrip_and_networkx():
    assert graph_to_graph6(complete_graph(5)) == "D~{"
    assert graph6_to_graph(">>graph6<<D~{") == complete_graph(5)
    for bad in [
        "D~{?", "D~|",  # trailing byte; nonzero padding bits
        "D~{!", "", ">>graph6<<",  # invalid character; empty text
        "~A", "~~AB",  # a 4-byte and an 8-byte header, cut short
    ]:
        with pytest.raises(GraphFormatError):
            graph6_to_graph(bad)
    nx = pytest.importorskip("networkx")
    cases = [
        empty_graph(0),
        empty_graph(1),
        complete_graph(5),
        cycle_graph(7),
        star_graph(6),
        circulant(8, {1, 4}),
        disjoint_union([complete_graph(63), cycle_graph(9)]),  # long header
    ]
    for g in cases:
        s = graph_to_graph6(g)
        assert graph6_to_graph(s) == g
        h = nx.from_graph6_bytes(s.encode())
        assert h.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges)
    # byte-exact against the reference writer
    for g, ref in [(complete_graph(5), nx.complete_graph(5)),
                   (cycle_graph(6), nx.cycle_graph(6))]:
        want = nx.to_graph6_bytes(ref, header=False).decode().strip()
        assert graph_to_graph6(g) == want


def test_edge_list_roundtrip():
    g = circulant(9, {1, 2})
    text = graph_to_edge_list(g)
    first = text.splitlines()[0]
    assert first == f"{g.n} {g.num_edges}"
    assert edge_list_to_graph(text) == g
    lines = text.splitlines()[1:]
    assert lines == sorted(lines, key=lambda ln: tuple(map(int, ln.split())))
    # extra edge; vertex >= n; a pair listed twice, which the header counts twice
    for bad in ["3 1\n0 1\n1 2\n", "3 1\n0 3\n", "3 2\n0 1\n1 0\n"]:
        with pytest.raises(GraphFormatError):
            edge_list_to_graph(bad)


def test_non_edges_order():
    g = path_graph(4)
    assert list(g.non_edges()) == [(0, 2), (0, 3), (1, 3)]


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(deadline=None)
@given(small_graphs(max_n=12))
@example(Graph(0))
@example(Graph(1))
@example(empty_graph(6))
@example(complete_graph(2))
@example(complete_graph(7))
def test_pair_walks_equal_a_lexicographic_scan(g):
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    edges = [e for e in pairs if g.has_edge(*e)]
    assert g.sorted_edges() == edges
    assert list(g.non_edges()) == [e for e in pairs if not g.has_edge(*e)]
    # edges is the frozenset of the same walk, so it iterates as one built
    # from the lexicographic list does
    assert g.edges == frozenset(edges)
    assert list(g.edges) == list(frozenset(edges))


@settings(deadline=None)
@given(small_graphs())
def test_twin_classes_are_automorphic_and_disjoint(g):
    seen: set[int] = set()
    for is_true, members in twin_classes(g):
        assert len(members) >= 2 and not seen & set(members)
        seen |= set(members)
        for a, b in itertools.combinations(members, 2):
            swap = list(range(g.n))
            swap[a], swap[b] = b, a
            assert Graph(g.n, [(swap[u], swap[v]) for u, v in g.edges]) == g
            if is_true:
                assert g.adj_mask(a) | 1 << a == g.adj_mask(b) | 1 << b
            else:
                assert g.adj_mask(a) == g.adj_mask(b)


@settings(deadline=None)
@given(small_graphs())
def test_twin_classes_are_the_equal_neighbourhood_classes(g):
    # two vertices share a class iff their open or their closed
    # neighbourhoods are equal
    cls = {v: members for _, members in twin_classes(g) for v in members}
    for a, b in itertools.combinations(range(g.n), 2):
        ra, rb = g.adj_mask(a), g.adj_mask(b)
        twins = ra == rb or ra | 1 << a == rb | 1 << b
        assert (b in cls.get(a, ())) == twins


def test_without_edge_checks_its_pair():
    k3 = complete_graph(3)
    assert k3.without_edge(2, 0) == Graph(3, [(0, 1), (1, 2)])
    assert path_graph(3).without_edge(0, 2) == path_graph(3)  # a non-edge stays out
    for pair, msg in [
        ((1, 1), "self-loop at vertex 1"),
        ((0, 3), "edge (0,3) out of range for n=3"),
        ((-1, 0), "edge (-1,0) out of range for n=3"),
    ]:
        for build in (k3.without_edge, k3.with_edge, lambda *e: Graph(3, [e])):
            with pytest.raises(ValueError, match=re.escape(msg)):
                build(*pair)


@st.composite
def graphs_and_pairs(draw):
    """A small graph and a list of its vertex pairs, repeats and present
    edges included; half the time one bad pair (a self-loop or an end
    outside the graph) sits at a random place in the list."""
    g = draw(small_graphs(max_n=8))
    n = g.n
    ordered = list(itertools.permutations(range(n), 2))
    pairs = draw(st.lists(st.sampled_from(ordered), max_size=12)) if ordered else []
    if draw(st.booleans()):
        bad = [(x, x) for x in range(n)] + [(-1, 0), (0, n), (n + 2, n), (n, -3)]
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(bad)))
    return g, pairs


def error_of(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None)
@given(graphs_and_pairs())
def test_with_edges_folds_with_edge(case):
    g, pairs = case
    before = sorted(g.edges)

    def fold(h, pairs):
        for e in pairs:
            h = h.with_edge(*e)
        return h

    got = error_of(g.with_edges, pairs)
    assert got == error_of(fold, g, pairs)
    assert error_of(Graph(g.n).with_edges, pairs) == error_of(Graph, g.n, pairs)
    if any(u == v or not (0 <= u < g.n and 0 <= v < g.n) for u, v in pairs):
        assert isinstance(got, str)
    else:
        assert got.edges == g.edges | {tuple(sorted(e)) for e in pairs}
    assert g == Graph(g.n, before), "the receiver is unchanged"


def test_read_graph_file_rejects_non_ascii(tmp_path):
    path = tmp_path / "latin1.g6"
    path.write_bytes(b"C\xe9\n")
    with pytest.raises(GraphFormatError):
        read_graph_file(str(path))


def test_write_graph_file_checks_the_format_before_opening(tmp_path):
    path = tmp_path / "k3.g6"
    path.write_bytes(b"Bw\n")
    with pytest.raises(ValueError, match="unknown format 'dot'"):
        write_graph_file(path_graph(3), str(path), fmt="dot")
    assert path.read_bytes() == b"Bw\n"
