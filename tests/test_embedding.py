import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wsatlab.embedding import (
    _DROPPED,
    Embedding,
    _HostView,
    _core_fits,
    _iter_sets,
    _pattern_info,
    _seed_plan,
    find_any_embedding,
    find_new_copy,
)
from wsatlab.graphs import (
    Graph,
    _bits,
    _mask,
    circulant,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
    twin_classes,
)


def brute_has_copy(pattern, host, forced):
    fe = tuple(sorted(forced))
    for perm in itertools.permutations(range(host.n), pattern.n):
        ok = True
        covered = False
        for u, v in pattern.edges:
            a, b = perm[u], perm[v]
            if not host.has_edge(a, b):
                ok = False
                break
            if tuple(sorted((a, b))) == fe:
                covered = True
        if ok and covered:
            return True
    return False


def rand_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_triangle_through_leaf_edge():
    host = star_graph(4).with_edge(1, 2)
    emb = find_new_copy(complete_graph(3), host, (1, 2))
    assert emb is not None and emb.is_valid(host) and emb.contains_edge((1, 2))


def test_triangle_free_path():
    assert find_new_copy(complete_graph(3), path_graph(4), (1, 2)) is None


def test_complete_self_embedding():
    for n in range(2, 9):
        kn = complete_graph(n)
        emb = find_new_copy(kn, kn, (0, n - 1))
        assert emb is not None and emb.is_valid(kn) and emb.contains_edge((0, n - 1))
    for n in range(2, 7):
        kn = complete_graph(n)
        for forced in kn.edges:
            emb = find_new_copy(kn, kn, forced)
            assert emb is not None and emb.contains_edge(forced)


def test_forced_edge_must_exist():
    with pytest.raises(ValueError):
        find_new_copy(complete_graph(3), path_graph(3), (0, 2))
    # (-1, 0) would read as the host edge (2, 0)
    host = Graph(3, [(0, 2), (1, 2)])
    for bad, forced in ((-1, (-1, 0)), (3, (0, 3))):
        with pytest.raises(ValueError, match=f"^vertex {bad} outside graph$"):
            find_new_copy(complete_graph(2), host, forced)


def test_forced_edge_in_either_order():
    host = circulant(9, {1, 2})
    for pattern, (u, v) in [(cycle_graph(5), (0, 1)), (complete_graph(3), (3, 5))]:
        emb = find_new_copy(pattern, host, (v, u))
        assert emb is not None and emb.contains_edge((u, v))
        assert emb == find_new_copy(pattern, host, (u, v))
    assert find_new_copy(complete_graph(3), path_graph(4), (2, 1)) is None
    with pytest.raises(ValueError):
        find_new_copy(complete_graph(3), path_graph(3), (2, 0))


def test_edgeless_pattern_never_matches():
    host = complete_graph(3)
    assert find_new_copy(Graph(2), host, (0, 1)) is None
    assert find_new_copy(Graph(0), host, (0, 1)) is None


def test_determinism():
    host = circulant(9, {1, 2})
    a = find_new_copy(cycle_graph(5), host, (0, 1))
    b = find_new_copy(cycle_graph(5), host, (0, 1))
    assert a == b


STRUCTURED = [
    complete_graph(4),
    star_graph(5),
    cycle_graph(4),
    cycle_graph(6),
    disjoint_union([complete_graph(3), Graph(2, [(0, 1)])]),
    disjoint_union([cycle_graph(3), cycle_graph(3)]),
    Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (0, 4)]),
    Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
]


def test_against_brute_force_oracle():
    rng = random.Random(20260808)
    trials = 0
    for t in range(500):
        if t % 3 == 0:
            pattern = STRUCTURED[(t // 3) % len(STRUCTURED)]
        else:
            pattern = rand_graph(rng, rng.randint(2, 5), rng.choice([0.3, 0.5, 0.8]))
        host = rand_graph(rng, rng.randint(max(2, pattern.n), 8), rng.choice([0.3, 0.5, 0.8]))
        edges = sorted(host.edges)
        if not edges or pattern.n > host.n:
            continue
        forced = rng.choice(edges)
        trials += 1
        emb = find_new_copy(pattern, host, forced)
        assert (emb is not None) == brute_has_copy(pattern, host, forced)
        if emb is not None:
            assert emb.is_valid(host)
            assert emb.contains_edge(forced)
    assert trials > 300


def test_counterexample_cross_edge_copy():
    # the two-component pattern embeds through a fresh gadget-to-clique edge
    # once the gadget is internally complete and a disjoint partner exists
    from wsatlab.constructions import counterexample_15_7, counterexample_host

    pattern = counterexample_15_7().graph
    host = counterexample_host(1)
    for chord in [(107, 110), (108, 111), (109, 112), (110, 113), (111, 107),
                  (112, 108), (113, 109)]:
        host = host.with_edge(*chord)
    host = host.with_edge(1, 108)
    emb = find_new_copy(pattern, host, (1, 108))
    assert emb is not None and emb.is_valid(host) and emb.contains_edge((1, 108))


def test_find_any_embedding():
    assert find_any_embedding(cycle_graph(5), circulant(9, {1, 2})) is not None
    assert find_any_embedding(complete_graph(4), cycle_graph(6)) is None
    empty = find_any_embedding(Graph(0), complete_graph(2))
    assert empty is not None and empty.mapping == ()


def test_large_patterns_need_no_recursion():
    # 1200 disjoint edges: one backtracking frame per component
    matching = Graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
    emb = find_new_copy(matching, matching, (0, 1))
    assert emb is not None and emb.is_valid(matching) and emb.contains_edge((0, 1))
    emb = find_any_embedding(matching, matching)
    assert emb is not None and emb.is_valid(matching)
    # 1100 leaves: one twin class, filled as a set one member per step
    star = star_graph(1101)
    emb = find_new_copy(star, star, (0, 1))
    assert emb is not None and emb.is_valid(star) and emb.contains_edge((0, 1))
    emb = find_any_embedding(star, star)
    assert emb is not None and emb.is_valid(star)
    # 1100 vertices without twins: one search node per placed vertex
    path = path_graph(1100)
    emb = find_new_copy(path, path, (0, 1))
    assert emb is not None and emb.is_valid(path) and emb.contains_edge((0, 1))
    emb = find_any_embedding(path, path)
    assert emb is not None and emb.is_valid(path)


@st.composite
def small_patterns(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def swap_taking(classes, pairs):
    """Permutation that maps each class to itself and each a to x for the
    given (a, x) pairs, or None if no such permutation exists."""
    perm = {}
    for members in classes:
        inside = [(a, x) for a, x in pairs if a in members]
        if any(x not in members for _, x in inside):
            return None
        sources = [a for a, _ in inside]
        targets = [x for _, x in inside]
        if len(set(sources)) != len(inside) or len(set(targets)) != len(inside):
            return None
        rest_a = [m for m in members if m not in sources]
        rest_x = [m for m in members if m not in targets]
        perm.update(zip(sources + rest_a, targets + rest_x))
    for a, x in pairs:
        if perm.get(a, a) != x:
            return None
    return perm


@settings(deadline=None, max_examples=300)
@given(small_patterns())
def test_seeds_cover_every_edge_by_an_earlier_twin_swap(pattern):
    degs = pattern.degrees
    edges = pattern.edges
    for comp in _pattern_info(pattern).components:
        if comp.is_clique:
            continue
        classes = [m for _, m in twin_classes(pattern) if set(m) <= set(comp.verts)]
        directed = [s for u, v in comp.edges for s in ((u, v), (v, u))]
        directed.sort(key=lambda s: (degs[s[0]], degs[s[1]]))
        position = {s: i for i, s in enumerate(directed)}
        kept = [(group, s) for group, seeds in comp.seed_groups for s in seeds]
        # kept seeds are tried in the order of all directed edges
        assert [position[s] for _, s in kept] == sorted(position[s] for _, s in kept)
        for (x, y) in directed:
            covering = []
            for group, (a, b) in kept:
                perm = swap_taking(classes, [(a, x), (b, y)])
                if perm is None:
                    continue
                assert group == (degs[x], degs[y])
                assert position[a, b] <= position[x, y]
                moved = {
                    tuple(sorted((perm.get(u, u), perm.get(v, v)))) for u, v in edges
                }
                assert moved == edges
                covering.append((a, b))
            # exactly one kept seed per orbit
            assert len(covering) == 1


@st.composite
def twin_rich_patterns(draw):
    """A graph on at most four vertices with each vertex blown up into a
    class of one to three true or false twins, at most eight in all."""
    base = draw(small_patterns(max_n=4))
    sizes = [draw(st.integers(1, 3)) for _ in range(base.n)]
    while sum(sizes) > 8:
        sizes[sizes.index(max(sizes))] -= 1
    true = [draw(st.booleans()) for _ in range(base.n)]
    members, n = [], 0
    for s in sizes:
        members.append(range(n, n + s))
        n += s
    edges = [(x, y) for i, j in base.edges for x in members[i] for y in members[j]]
    edges += [
        (x, y) for i, ms in enumerate(members) if true[i]
        for x in ms for y in ms if x < y
    ]
    return Graph(n, edges)


def decide_every_seed(info):
    """Each non-clique component with every seed decided, in probe order,
    and the seeds kept."""
    out = []
    for comp in info.components:
        if comp.is_clique:
            continue
        for _, seeds in comp.seed_groups:
            for seed in seeds:
                if seed not in comp.seed_plans:
                    _seed_plan(comp, info, seed)
        kept = [
            s for _, seeds in comp.seed_groups for s in seeds
            if comp.seed_plans[s] is not _DROPPED
        ]
        out.append((comp, kept))
    return out


@settings(deadline=None, max_examples=300)
@given(st.one_of(small_patterns(), twin_rich_patterns()))
def test_kept_seeds_are_one_per_automorphism_orbit(pattern):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    g = nx.Graph(list(pattern.edges))
    for comp, kept in decide_every_seed(_pattern_info(pattern)):
        seeds = [s for _, group in comp.seed_groups for s in group]
        # a subsequence of the twin-orbit seeds
        it = iter(seeds)
        assert all(s in it for s in kept)
        c = g.subgraph(comp.verts)
        autos = list(GraphMatcher(c, c).isomorphisms_iter())
        directed = [s for u, v in comp.edges for s in ((u, v), (v, u))]
        order = {s: i for i, s in enumerate(seeds)}
        for x, y in directed:
            # the twin-orbit seed of (x, y), which comes first in its orbit
            first = order[comp.orbits.seeds[comp.orbits.index[x, y]]]
            covering = {
                (a, b) for a, b in kept for sigma in autos
                if (sigma[a], sigma[b]) == (x, y)
            }
            assert len(covering) == 1
            assert order[covering.pop()] <= first
        # no kept seed is carried onto another
        for a, b in kept:
            images = {(sigma[a], sigma[b]) for sigma in autos}
            assert images & set(kept) == {(a, b)}


def counterexample_pattern(small, big):
    from wsatlab.constructions import counterexample_15_7

    return counterexample_15_7(clique_small=small, clique_big=big).graph


@pytest.mark.parametrize(
    "pattern, twin_seeds, kept",
    [
        (counterexample_pattern(3, 3), [30, 16], [15, 4]),
        (counterexample_pattern(3, 5), [17, 30], [9, 15]),
        (counterexample_pattern(4, 4), [18, 30], [5, 15]),
        (counterexample_pattern(7, 7), [18, 30], [5, 15]),
        (counterexample_pattern(7, 100), [18, 30], [10, 15]),
        (cycle_graph(5), [10], [1]),
        # legs 0-1-2-3, 0-4-6 and 0-5-7: (2, 3) is fixed, so the swap of
        # the short legs is found only by testing (5, 7) against (4, 6)
        (Graph(8, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 6), (0, 5), (5, 7)]), [14], [10]),
    ],
)
def test_kept_seed_counts(pattern, twin_seeds, kept):
    comps = decide_every_seed(_pattern_info(pattern))
    assert [sum(len(g) for _, g in c.seed_groups) for c, _ in comps] == twin_seeds
    assert [len(k) for _, k in comps] == kept


def count_searches(monkeypatch):
    """Calls of the self-embedding search, counted, with the pattern cache
    cleared so that every seed is decided afresh."""
    from wsatlab import embedding

    calls = []
    real = embedding._automorphism

    def counted(comp, info, kept, seed):
        calls.append(seed)
        return real(comp, info, kept, seed)

    _pattern_info.cache_clear()
    monkeypatch.setattr(embedding, "_automorphism", counted)
    return calls


def twin_orbit_seeds(pattern):
    return sum(
        len(g) for c in _pattern_info(pattern).components for _, g in c.seed_groups
    )


@pytest.mark.parametrize(
    "small, big, i, searches",
    [(3, 3, 1, 6), (4, 4, 1, 6), (3, 3, 2, 6), (3, 5, 1, 4), (7, 7, 1, 6)],
)
def test_closure_searches_each_seed_at_most_once(small, big, i, searches, monkeypatch):
    from wsatlab.constructions import counterexample_host
    from wsatlab.percolation import closure

    calls = count_searches(monkeypatch)
    pattern = counterexample_pattern(small, big)
    closure(counterexample_host(i, clique_small=small, clique_big=big), pattern)
    assert len(calls) == searches
    assert len(set(calls)) == len(calls) <= twin_orbit_seeds(pattern)


def test_forced_middle_edge_on_a_long_path(monkeypatch):
    # one search finds the reflection, which then drops every mirror seed
    calls = count_searches(monkeypatch)
    path = path_graph(100)
    emb = find_new_copy(path, path, (49, 50))
    assert emb is not None and emb.mapping == tuple(range(100))
    assert len(calls) == 1 <= twin_orbit_seeds(path)


@pytest.mark.parametrize(
    "small, big, i, tests, rejected", [(3, 3, 2, 2173, 1876), (3, 5, 1, 2400, 2387)]
)
def test_core_fit_counts(small, big, i, tests, rejected, monkeypatch):
    # every unpinned search of either component of the 15/7 pattern runs
    # the fit test; a change that stops the exit from firing fails here by
    # count
    from wsatlab import embedding
    from wsatlab.constructions import counterexample_host
    from wsatlab.percolation import closure

    answers = []
    real = embedding._core_fits

    def counted(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(embedding, "_core_fits", counted)
    closure(
        counterexample_host(i, clique_small=small, clique_big=big),
        counterexample_pattern(small, big),
    )
    assert len(answers) == tests
    assert answers.count(False) == rejected


def cycle_with_chords(rng, k):
    """A k-cycle plus random chords: connected, least degree at least 2."""
    edges = [(j, j + 1) for j in range(k - 1)] + [(0, k - 1)]
    p = rng.choice([0.1, 0.3, 0.6])
    edges += [
        (u, v) for u in range(k) for v in range(u + 2, k)
        if (u, v) != (0, k - 1) and rng.random() < p
    ]
    return Graph(k, edges)


def has_copy_in(comp, host, free):
    """Whether some injective map of comp into the host vertices in free
    carries every edge of comp to a host edge, by plain backtracking over
    comp's vertices in order."""
    targets = _bits(free)
    image = []

    def extend():
        i = len(image)
        if i == comp.n:
            return True
        for x in targets:
            if x not in image and all(
                host.has_edge(image[j], x) for j in range(i) if comp.has_edge(i, j)
            ):
                image.append(x)
                if extend():
                    return True
                image.pop()
        return False

    return extend()


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32))
def test_core_fit_rejects_only_hosts_without_a_copy(seed):
    rng = random.Random(seed)
    comp = cycle_with_chords(rng, rng.randint(5, 7))
    if rng.random() < 0.5:
        host = rand_graph(rng, rng.randint(1, 12), rng.choice([0.3, 0.5, 0.7, 0.9]))
    else:
        # a planted copy, relabelled, plus a few random edges: the core's
        # piece is often the copy itself, so the bounds are met exactly
        n = rng.randint(comp.n, 12)
        to = rng.sample(range(n), comp.n)
        extra = rand_graph(rng, n, rng.choice([0.0, 0.05, 0.15]))
        host = extra.with_edges((to[u], to[v]) for u, v in comp.edges)
    hv = _HostView(host)
    avail = hv.full & ~(rng.getrandbits(host.n) & rng.getrandbits(host.n))
    fits = _core_fits(hv, avail, min(comp.degrees), comp.n, comp.num_edges)
    # a copy has least degree d, is connected and carries |E| host edges,
    # so it lies in one piece of the d-core that large
    assert fits or not has_copy_in(comp, host, avail)


def adjacency_core(cand, k, adj):
    """Largest subset of cand in which every vertex has at least k
    neighbors inside the subset."""
    while True:
        core = _mask(v for v in _bits(cand) if (adj[v] & cand).bit_count() >= k)
        if core == cand:
            return cand
        cand = core


@settings(deadline=None, max_examples=300)
@given(st.one_of(small_patterns(max_n=10), twin_rich_patterns()), st.data())
def test_clique_sets_need_no_core_prune(host, data):
    # a vertex with fewer than need - 1 neighbors in the mask is in no
    # need-clique of it, and host twins leave the core together, so the
    # sets and their order, twin skips included, are the same
    cand = data.draw(st.integers(0, (1 << host.n) - 1))
    need = data.draw(st.integers(1, 5))
    adj = host._adj
    core = adjacency_core(cand, need - 1, adj)
    assert list(_iter_sets(cand, need, adj, _HostView(host))) == list(
        _iter_sets(core, need, adj, _HostView(host))
    )


@st.composite
def mapped(draw):
    """An Embedding and its host, where the mapping is a real embedding, an
    injective map into the host, or any map that may repeat or leave the
    host's range."""
    pattern = draw(small_patterns(max_n=6))
    host = draw(small_patterns(max_n=7))
    kind = draw(st.sampled_from(["embedding", "injective", "any"]))
    found = find_any_embedding(pattern, host)
    if kind == "embedding" and found is not None:
        return found, host
    if kind == "injective" and pattern.n <= host.n:
        return Embedding(pattern, tuple(draw(st.permutations(range(host.n)))[: pattern.n])), host
    values = st.integers(-1, host.n)
    return Embedding(
        pattern,
        tuple(draw(st.lists(values, min_size=pattern.n, max_size=pattern.n))),
    ), host


@settings(deadline=None, max_examples=500)
@given(mapped(), st.data())
def test_replay_checks_keep_their_definitions(mapped_emb, data):
    emb, host = mapped_emb
    m = emb.mapping
    # is_valid: injective, inside the host, every image pair a host edge
    assert emb.is_valid(host) == (
        len(m) == emb.pattern.n
        and len(set(m)) == len(m)
        and all(0 <= x < host.n for x in m)
        and all(host.has_edge(m[u], m[v]) for u, v in emb.pattern.edges)
    )
    # contains_edge: the pair is one of the image edges, u == v included
    ends = st.sampled_from(m + (-1, 0, host.n)) if m else st.integers(-1, 2)
    u, v = data.draw(ends), data.draw(ends)
    pair = (u, v) if u < v else (v, u)
    assert emb.contains_edge((u, v)) == (pair in emb.image_edges())
