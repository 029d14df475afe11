"""The embedding search as it stood before seeds were reduced to one per
twin orbit, search plans were compiled per pattern and the backtracking
over components and set members moved onto explicit stacks, kept verbatim
as a reference: the current search must return exactly the same copies,
and hence the same closure traces, although it builds a host's twin
classes only when it backs up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from wsatlab import constructions, embedding, extremal, percolation
from wsatlab.embedding import Embedding
from wsatlab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    twin_classes,
)


@dataclass(frozen=True)
class _Component:
    verts: tuple[int, ...]
    vmask: int
    size: int
    edges: tuple[tuple[int, int], ...]
    is_clique: bool
    min_deg: int
    # twin classes of size >= 2: (images_mutually_adjacent, members, member
    # mask, pattern neighbors outside the class)
    twin_classes: tuple[tuple[bool, tuple[int, ...], int, int], ...]
    # pattern edges eligible to host the forced edge, both orientations,
    # grouped by endpoint degrees for cheap feasibility filtering
    seed_groups: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]


@dataclass(frozen=True)
class _PatternInfo:
    components: tuple[_Component, ...]
    degrees: tuple[int, ...]
    adj: tuple[int, ...]


@lru_cache(maxsize=128)
def _pattern_info(pattern: Graph) -> _PatternInfo:
    degs = pattern.degrees
    adj = pattern._adj
    classes = []
    for is_true, members in twin_classes(pattern):
        cmask = 0
        for m in members:
            cmask |= 1 << m
        classes.append((is_true, members, cmask, adj[members[0]] & ~cmask))
    comps = []
    for verts in pattern.components():
        vset = set(verts)
        vs = tuple(verts)
        vmask = 0
        for v in vs:
            vmask |= 1 << v
        edges = tuple((u, v) for u, v in pattern.sorted_edges() if u in vset)
        size = len(vs)
        is_clique = len(edges) == size * (size - 1) // 2
        if is_clique:
            seeds = [(vs[0], vs[1])] if size >= 2 else []
        else:
            seeds = [s for u, v in edges for s in ((u, v), (v, u))]
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for a, b in seeds:
            groups.setdefault((degs[a], degs[b]), []).append((a, b))
        seed_groups = tuple(sorted((k, tuple(v)) for k, v in groups.items()))
        min_deg = min((degs[v] for v in vs), default=0)
        # only classes inside one non-clique component are filled as sets
        # (isolated vertices of different components are open twins too);
        # true twins' images must form a clique, false twins' are unconstrained
        twins = () if is_clique else tuple(
            c for c in classes if c[2] & ~vmask == 0
        )
        comps.append(
            _Component(vs, vmask, size, edges, is_clique, min_deg, twins, seed_groups)
        )
    comps.sort(
        key=lambda c: (
            -c.size,
            -len(c.edges),
            tuple(sorted((degs[v] for v in c.verts), reverse=True)),
            c.verts,
        )
    )
    return _PatternInfo(tuple(comps), degs, adj)


class _HostView:
    """Host adjacency plus lazily built degree and twin structure.

    ``twins[x]`` masks the host vertices interchangeable with x under a
    host automorphism (equal closed or equal open neighborhoods). When a
    candidate x fails at some search position, its twins fail identically,
    so enumerations drop the whole class after trying one representative;
    in a mostly-complete host this collapses a hundred equivalent clique
    vertices into one trial.
    """

    __slots__ = ("host", "adj", "deg", "full", "_degmasks", "_twins")

    def __init__(self, host: Graph):
        self.host = host
        self.adj = host._adj
        self.deg = host.degrees
        self.full = (1 << host.n) - 1
        self._degmasks: dict[int, int] = {}
        self._twins: list[int] | None = None

    def degmask(self, d: int) -> int:
        m = self._degmasks.get(d)
        if m is None:
            m = 0
            for v, dv in enumerate(self.deg):
                if dv >= d:
                    m |= 1 << v
            self._degmasks[d] = m
        return m

    @property
    def twins(self) -> list[int]:
        if self._twins is None:
            masks = [1 << v for v in range(len(self.adj))]
            for _, members in twin_classes(self.host):
                m = 0
                for v in members:
                    m |= 1 << v
                for v in members:
                    masks[v] = m
            self._twins = masks
        return self._twins


def _iter_sets(cand: int, need: int, mutual_adj, twins, min_next: int = 0):
    """Ascending ``need``-subsets of the candidate mask; with ``mutual_adj``
    (host adjacency) the chosen vertices must be pairwise adjacent.

    After a smallest element v is exhausted, its host twins are skipped at
    that position: any set led by a twin is the image of a set led by v
    under a host automorphism.
    """
    if need == 0:
        yield []
        return
    mask = cand >> min_next << min_next
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        mask ^= low
        if (cand >> v).bit_count() < need:
            break
        nxt = cand & mutual_adj[v] if mutual_adj is not None else cand
        for rest in _iter_sets(nxt, need - 1, mutual_adj, twins, v + 1):
            yield [v] + rest
        mask &= ~twins[v]


def _adjacency_core(cand: int, k: int, adj) -> int:
    """Largest subset of cand in which every vertex has >= k neighbors
    inside the subset; any k+1 pairwise-adjacent vertices of cand survive."""
    while True:
        drop = 0
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if (adj[v] & cand).bit_count() < k:
                drop |= low
        if not drop:
            return cand
        cand &= ~drop


def _iter_clique_embeddings(comp, hv, used, fixed):
    """(mapping, image mask) for a clique component: host cliques through
    the fixed vertices, enumerated ascending; pattern symmetry makes each
    host clique a single visit."""
    need = comp.size - len(fixed)
    cand = hv.full & ~used & hv.degmask(comp.size - 1)
    base = 0
    for x in fixed.values():
        base |= 1 << x
        cand &= hv.adj[x]
    cand &= ~base
    free_pat = [v for v in comp.verts if v not in fixed]
    for chosen in _iter_sets(cand, need, hv.adj, hv.twins):
        mapping = dict(fixed)
        mask = base
        for pv, x in zip(free_pat, chosen):
            mapping[pv] = x
            mask |= 1 << x
        yield mapping, mask


def _iter_generic_embeddings(comp, info, hv, used, fixed):
    """Backtracking enumeration of embeddings of one non-clique component.

    Phase 1 places the structurally distinct vertices one by one with
    forward checking: every unplaced vertex keeps a live candidate mask,
    the emptiest mask is branched next, and a mask running dry cuts the
    branch. Phase 2 fills each twin class as a set drawn from its common
    candidate mask. Adjacency between two twin classes is enforced when
    the later one fills (twin neighborhoods meet a class all-or-nothing,
    so no pair is missed).
    """
    degs = info.degrees
    padj = info.adj
    classes = []
    for is_true, members, cmask, outside in comp.twin_classes:
        to_fill = tuple(m for m in members if m not in fixed)
        if len(to_fill) >= 2:
            classes.append((is_true, members, cmask, outside, to_fill))
    deferred = 0
    for _, _, _, _, fill in classes:
        for m in fill:
            deferred |= 1 << m
    # anchored pattern edges must already sit on host edges
    anchors = list(fixed)
    for i, a in enumerate(anchors):
        for b in anchors[i + 1 :]:
            if padj[a] >> b & 1 and not hv.adj[fixed[a]] >> fixed[b] & 1:
                return
    mapping = dict(fixed)
    img0 = 0
    for x in fixed.values():
        img0 |= 1 << x
    free = [
        v for v in comp.verts if v not in fixed and not deferred >> v & 1
    ]
    class_needs = [len(fill) for _, _, _, _, fill in classes]
    masks = []
    for w in free:
        m = hv.full & ~used & ~img0 & hv.degmask(degs[w])
        for a in anchors:
            if padj[w] >> a & 1:
                m &= hv.adj[fixed[a]]
        if m == 0:
            return
        masks.append(m)
    # live candidate masks for the deferred classes, pruned alongside
    cmasks = []
    for ci, (is_true, members, cmask, outside, to_fill) in enumerate(classes):
        m = hv.full & ~used & ~img0 & hv.degmask(degs[to_fill[0]])
        for a in anchors:
            if outside >> a & 1 or (is_true and cmask >> a & 1):
                m &= hv.adj[fixed[a]]
        if is_true:
            m = _adjacency_core(m, class_needs[ci] - 1, hv.adj)
        if m.bit_count() < class_needs[ci]:
            return
        cmasks.append(m)

    def feasible(free_masks, class_masks) -> bool:
        # every remaining vertex lands somewhere in the union of live masks
        union = 0
        for m in free_masks:
            union |= m
        for m in class_masks:
            union |= m
        return union.bit_count() >= len(free_masks) + sum(class_needs)

    def fill_classes(ci: int, img_mask: int, cmasks_now):
        if ci == len(classes):
            yield dict(mapping), img_mask
            return
        is_true, members, cmask, outside, to_fill = classes[ci]
        need = class_needs[ci]
        cand = cmasks_now[0]
        if is_true:
            cand = _adjacency_core(cand, need - 1, hv.adj)
            if cand.bit_count() < need:
                return
        for chosen in _iter_sets(cand, need, hv.adj if is_true else None, hv.twins):
            add_mask = 0
            for pv, x in zip(to_fill, chosen):
                mapping[pv] = x
                add_mask |= 1 << x
            rest_masks = []
            ok = True
            for cj in range(ci + 1, len(classes)):
                m = cmasks_now[cj - ci] & ~add_mask
                # twin neighborhoods meet a class all-or-nothing
                if classes[cj][3] & cmask:
                    for x in chosen:
                        m &= hv.adj[x]
                if m.bit_count() < class_needs[cj]:
                    ok = False
                    break
                rest_masks.append(m)
            if ok:
                yield from fill_classes(ci + 1, img_mask | add_mask, rest_masks)
            for pv in to_fill:
                del mapping[pv]

    def extend(free_now, masks_now, cmasks_now, img_mask: int):
        if not free_now:
            yield from fill_classes(0, img_mask, cmasks_now)
            return
        # branch on the scarcest candidate mask
        besti = min(
            range(len(free_now)),
            key=lambda i: (masks_now[i].bit_count(), free_now[i]),
        )
        v = free_now[besti]
        sub_free = free_now[:besti] + free_now[besti + 1 :]
        cand = masks_now[besti]
        while cand:
            low = cand & -cand
            x = low.bit_length() - 1
            # a failing candidate dooms its host twins identically
            cand ^= low
            cand &= ~hv.twins[x]
            sub_masks = []
            ok = True
            for i, w in enumerate(free_now):
                if i == besti:
                    continue
                m = masks_now[i] & ~low
                if padj[v] >> w & 1:
                    m &= hv.adj[x]
                if m == 0:
                    ok = False
                    break
                sub_masks.append(m)
            if ok:
                sub_cmasks = []
                for ci, (is_true, members, cmask, outside, to_fill) in enumerate(
                    classes
                ):
                    m = cmasks_now[ci] & ~low
                    if outside >> v & 1:
                        m &= hv.adj[x]
                    if m.bit_count() < class_needs[ci]:
                        ok = False
                        break
                    sub_cmasks.append(m)
            if ok and not feasible(sub_masks, sub_cmasks):
                ok = False
            if not ok:
                continue
            mapping[v] = x
            yield from extend(sub_free, sub_masks, sub_cmasks, img_mask | low)
            del mapping[v]

    if not feasible(masks, cmasks):
        return
    yield from extend(free, masks, cmasks, img0)


def _iter_component(comp, info, hv, used, fixed):
    # pool feasibility: the component needs comp.size unused vertices whose
    # host degree can support its least-demanding vertex
    pool = hv.full & ~used & hv.degmask(comp.min_deg)
    if pool.bit_count() < comp.size:
        return
    if comp.is_clique:
        yield from _iter_clique_embeddings(comp, hv, used, fixed)
    else:
        yield from _iter_generic_embeddings(comp, info, hv, used, fixed)


def _embed_rest(comps, info, hv, used):
    """First embedding of the given components, pairwise disjoint, or None.

    Backtracks jointly across components, but only over distinct image
    sets: whether the remaining components fit depends on the head
    component's image as a set, never on which mapping realized it.
    """
    if not comps:
        return {}
    head, tail = comps[0], comps[1:]
    seen: set[int] = set()
    for mapping, mask in _iter_component(head, info, hv, used, {}):
        if mask in seen:
            continue
        seen.add(mask)
        rest = _embed_rest(tail, info, hv, used | mask)
        if rest is not None:
            rest.update(mapping)
            return rest
    return None


def find_new_copy(
    pattern: Graph, host: Graph, forced_edge: tuple[int, int]
) -> Embedding | None:
    """First embedding of pattern into host whose image uses forced_edge,
    or None if no such copy exists.

    The forced edge is assigned to each pattern component in turn
    (components in decreasing size), seeding the backtracking at each
    degree-feasible pattern edge of that component; the remaining
    components are embedded disjointly around the seeded one.
    """
    u, v = forced_edge
    if u > v:
        u, v = v, u
    if not host.has_edge(u, v):
        raise ValueError(f"forced edge ({u},{v}) not present in host")
    if pattern.n == 0 or pattern.n > host.n or pattern.num_edges == 0:
        return None
    info = _pattern_info(pattern)
    hv = _HostView(host)
    du, dv = hv.deg[u], hv.deg[v]
    for ci, comp in enumerate(info.components):
        others = None
        # distinct forced-component images tried once across all seeds: the
        # fit of the other components depends only on the image set
        seen: set[int] = set()
        for (da, db), seeds in comp.seed_groups:
            if da > du or db > dv:
                continue
            for a, b in seeds:
                fixed = {a: u, b: v}
                if others is None:
                    others = tuple(
                        c for j, c in enumerate(info.components) if j != ci
                    )
                for mapping, mask in _iter_component(comp, info, hv, 0, fixed):
                    if mask in seen:
                        continue
                    seen.add(mask)
                    rest = _embed_rest(others, info, hv, mask)
                    if rest is not None:
                        rest.update(mapping)
                        return Embedding(
                            pattern, tuple(rest[i] for i in range(pattern.n))
                        )
    return None


def find_any_embedding(pattern: Graph, host: Graph) -> Embedding | None:
    """First unconstrained embedding of pattern into host, or None."""
    if pattern.n == 0:
        return Embedding(pattern, ())
    if pattern.n > host.n:
        return None
    info = _pattern_info(pattern)
    hv = _HostView(host)
    rest = _embed_rest(info.components, info, hv, 0)
    if rest is None:
        return None
    return Embedding(pattern, tuple(rest[i] for i in range(pattern.n)))


# -- the current search against the reference ---------------------------------


def rand_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


K2 = Graph(2, [(0, 1)])
SMALL_PATTERNS = {
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "C4": cycle_graph(4),
    "K4-e": complete_graph(4).without_edge(0, 1),
    "C5": cycle_graph(5),
    "P3": path_graph(3),
    "K3+K2": disjoint_union([complete_graph(3), K2]),
    "C4+K2": disjoint_union([cycle_graph(4), K2]),
    # a clique before a smaller non-clique component; three components
    "K4+P3": disjoint_union([complete_graph(4), path_graph(3)]),
    "C4+K3+K2": disjoint_union([cycle_graph(4), complete_graph(3), K2]),
}


def reference_closure_json(host, pattern, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(percolation, "find_new_copy", find_new_copy)
        return percolation.closure(host, pattern).to_json()


def assert_same_search(host, pattern, monkeypatch):
    assert percolation.closure(host, pattern).to_json() == reference_closure_json(
        host, pattern, monkeypatch
    )
    assert embedding.find_any_embedding(pattern, host) == find_any_embedding(
        pattern, host
    )


@pytest.mark.parametrize("name", sorted(SMALL_PATTERNS))
def test_random_hosts_match_reference(name, monkeypatch):
    pattern = SMALL_PATTERNS[name]
    rng = random.Random(f"oracle {name}")
    for _ in range(25):
        host = rand_graph(rng, rng.randint(pattern.n, 12), rng.choice([0.2, 0.3, 0.45]))
        assert_same_search(host, pattern, monkeypatch)
        for forced in sorted(host.edges)[:6]:
            assert embedding.find_new_copy(pattern, host, forced) == find_new_copy(
                pattern, host, forced
            )


def test_f_tilde_patterns_match_reference(monkeypatch):
    for f, s in [(path_graph(3), {0}), (Graph(4, [(0, 1), (0, 2), (0, 3)]), {1})]:
        tilde = extremal.build_f_tilde(f, clique_pad=0)
        for i in (1, 2, 3):
            assert_same_search(extremal.lemma23_sequence(f, s, i), tilde, monkeypatch)


@pytest.mark.parametrize(
    "small, big, i", [(3, 3, 1), (3, 3, 2), (4, 4, 1), (7, 7, 1)]
)
def test_counterexample_hosts_match_reference(small, big, i, monkeypatch):
    pattern = constructions.counterexample_15_7(clique_small=small, clique_big=big).graph
    host = constructions.counterexample_host(i, clique_small=small, clique_big=big)
    assert_same_search(host, pattern, monkeypatch)


def test_set_enumeration_matches_reference():
    rng = random.Random(5)
    for _ in range(300):
        host = rand_graph(rng, rng.randint(1, 12), rng.choice([0.3, 0.6, 0.9]))
        twins = _HostView(host).twins
        hv = embedding._HostView(host)
        cand = rng.getrandbits(host.n)
        for need in range(5):
            for adj in (host._adj, None):
                assert list(embedding._iter_sets(cand, need, adj, hv)) == list(
                    _iter_sets(cand, need, adj, twins)
                )


# -- host twin classes are built only when a search backs up -------------------


@st.composite
def hosts(draw):
    """A random host, or a twin-rich one: a clique with pendant paths hung
    on some of its vertices, plus a few random edges."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        return rand_graph(rng, rng.randint(2, 11), rng.choice([0.2, 0.35, 0.5, 0.7]))
    k = rng.randint(2, 7)
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    n = k
    for _ in range(rng.randint(0, 3)):
        end = rng.randrange(k)
        for _ in range(rng.randint(1, 3)):
            edges.append((end, n))
            end = n
            n += 1
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(range(n), 2)
        edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


@st.composite
def patterns(draw):
    """A named pattern, or a disjoint union of one to three small random
    graphs."""
    if draw(st.booleans()):
        return SMALL_PATTERNS[draw(st.sampled_from(sorted(SMALL_PATTERNS)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    parts = [
        rand_graph(rng, rng.randint(1, 4), rng.choice([0.5, 0.8]))
        for _ in range(rng.randint(1, 3))
    ]
    return disjoint_union(parts)


@settings(max_examples=300, deadline=None)
@given(hosts(), patterns())
def test_lazy_twins_return_the_reference_copies(host, pattern):
    assert embedding.find_any_embedding(pattern, host) == find_any_embedding(
        pattern, host
    )
    for forced in sorted(host.edges):
        assert embedding.find_new_copy(pattern, host, forced) == find_new_copy(
            pattern, host, forced
        )


def cycle_with_chords(rng, k):
    """A k-cycle plus random chords: connected, least degree at least 2."""
    edges = [(j, j + 1) for j in range(k - 1)] + [(0, k - 1)]
    p = rng.choice([0.1, 0.3, 0.6])
    edges += [
        (u, v) for u in range(k) for v in range(u + 2, k)
        if (u, v) != (0, k - 1) and rng.random() < p
    ]
    return Graph(k, edges)


# each check undoes its patch in its own monkeypatch.context(). No shrink
# phase: a smaller seed draws no smaller graphs, and each replay runs a
# whole closure under the reference search, so shrinking only delays the
# report of a failing seed
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(seed=st.integers(0, 2**32))
def test_unions_of_cored_components_match_reference(seed, monkeypatch):
    # patterns() draws parts of at most 4 vertices, all cliques or all twin
    # classes; these parts have 5-7 vertices and least degree >= 2, so the
    # search of a part after the first runs the core fit test unless the
    # part is a clique or all twin classes
    rng = random.Random(seed)
    pattern = disjoint_union(
        [cycle_with_chords(rng, rng.randint(5, 7)) for _ in range(rng.randint(2, 3))]
    )
    host = rand_graph(
        rng, rng.randint(pattern.n, pattern.n + 3), rng.choice([0.5, 0.7, 0.85])
    )
    assert_same_search(host, pattern, monkeypatch)


def host_twin_builds(monkeypatch, host, pattern) -> int:
    """Host twin-class builds in closure(host, pattern); a search that built
    them for every probe would build one per probe."""
    embedding._pattern_info(pattern)  # the pattern's own classes, cached
    builds = 0
    real = embedding.twin_classes

    def counted(g):
        nonlocal builds
        builds += 1
        return real(g)

    with monkeypatch.context() as m:
        m.setattr(embedding, "twin_classes", counted)
        percolation.closure(host, pattern)
    return builds


@pytest.mark.parametrize(
    "host, pattern, builds",
    [
        # 21 probes, each a hit on its first candidate
        (path_graph(8), complete_graph(3), 0),
        # miss-heavy: 67 probes, 8 hits
        (cycle_graph(8), cycle_graph(4), 59),
    ],
)
def test_host_twin_builds(host, pattern, builds, monkeypatch):
    assert host_twin_builds(monkeypatch, host, pattern) == builds
