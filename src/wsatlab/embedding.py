"""Subgraph embedding search with forced-edge seeding.

``find_new_copy`` answers the inner question of bootstrap percolation: does
the host contain a copy of the pattern whose image uses a given host edge?
Copies are subgraph embeddings (not induced). The search is deterministic:
components are tried in a fixed canonical order, seeds and candidates in
ascending order, so the first embedding found is reproducible.

Two structural optimizations carry the clique-heavy patterns of this
domain. Clique components are matched by common-neighborhood extension over
vertex sets instead of vertex permutations. Inside mixed components, twin
classes (vertices with identical neighborhoods, the fill of a clique block
or an attachment fan) are deferred and also matched as sets, which removes
the factorial re-permutation a plain VF2-style search would do on a
hundred-vertex clique block.

Patterns are pre-analyzed once and cached, since percolation reuses one
pattern across many hosts, and nearly every closure probe is a miss. The
analysis keeps one seed per twin orbit: swapping twins is a pattern
automorphism, so a seed and its swaps have the same image sets and only
the first can succeed first. The first probe that tries a seed also
drops it when any automorphism of its component carries an earlier kept
seed onto it, for the same reason; a self-embedding search of the
component decides that, and each automorphism found settles every seed
it moves. Each component keeps a search plan for the unseeded search and
one for each kept seed: everything that depends on the pattern and the
pinned vertices alone (which twin classes are filled as sets, the free
vertices, their degrees and pinned neighbors), so a probe does only host
mask work.
Every backtracking loop keeps an explicit stack or a flat stack of child
generators, so no pattern size (components, free vertices, twin classes or
class members) is bounded by recursion depth.

A search with nothing pinned (each component after the seeded one, and
the first of ``find_any_embedding``) first runs a core fit test: it peels
the available host vertices to their d-core, d the component's least
degree, and stops at once unless some connected piece of that core has as
many vertices and edges as the component. The test is sound:
  - a copy's image has least degree d, so it lies in the d-core;
  - the image is connected, so it lies in one piece of the core;
  - the image carries the component's edges as distinct host edges.
So the test stops only searches that would find nothing, and otherwise
the unchanged search runs in the same order. It is skipped for d < 2,
for components whose vertices are all filled as twin-class sets, which
``_iter_sets``' count bound covers, and for pinned searches, where it
cost more time than it saved. It never narrows the candidate masks: the
branching reads their sizes, so a narrower mask could reorder the search.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graphs import Graph, _bits, _mask, _norm_edge, _root, twin_classes


class Embedding(NamedTuple):
    """A copy of the pattern: ``mapping[i]`` is the host vertex of pattern
    vertex i. The host is not stored; ``is_valid(host)`` checks the copy in
    a given host."""

    pattern: Graph
    mapping: tuple[int, ...]

    def image(self) -> frozenset[int]:
        return frozenset(self.mapping)

    def image_edges(self) -> set[tuple[int, int]]:
        m = self.mapping
        return {_norm_edge(m[u], m[v]) for u, v in self.pattern.edges}

    def contains_edge(self, e: tuple[int, int]) -> bool:
        """Whether some pattern edge joins a preimage of u to one of v."""
        u, v = e
        padj = self.pattern._adj
        at_v = _mask(i for i, x in enumerate(self.mapping) if x == v)
        return any(
            padj[i] & at_v for i, x in enumerate(self.mapping) if x == u
        )

    def is_valid(self, host: Graph) -> bool:
        """Whether the mapping is injective into host and carries every
        pattern edge to a host edge."""
        m = self.mapping
        if len(m) != self.pattern.n or len(set(m)) != len(m):
            return False
        if any(not (0 <= x < host.n) for x in m):
            return False
        hadj = host._adj
        return all(hadj[m[u]] >> m[v] & 1 for u, v in self.pattern.edges)


class _Plan(NamedTuple):
    """Search plan of one non-clique component with some pattern vertices
    pinned to caller-chosen host vertices: everything about the search that
    depends on the pattern and the pinned set alone, compiled once.

    Anchors and classes are referred to by index, so a search reads the
    host images of the pinned vertices from a tuple in ``anchors`` order.
    """

    anchors: tuple[int, ...]
    # index pairs (i, j) of anchors adjacent in the pattern
    anchor_edges: tuple[tuple[int, int], ...]
    # vertices placed one by one, with their degrees and adjacent anchors
    free: tuple[int, ...]
    free_degs: tuple[int, ...]
    free_anchors: tuple[tuple[int, ...], ...]
    # twin classes with >= 2 unpinned members, filled as sets: (true twins,
    # member mask, pattern neighbors outside the class, members to fill)
    classes: tuple[tuple[bool, int, int, tuple[int, ...]], ...]
    class_degs: tuple[int, ...]
    class_anchors: tuple[tuple[int, ...], ...]
    class_needs: tuple[int, ...]
    # (least degree d, vertices, edges) of the component for the core fit
    # test, or None where the module docstring says the test is skipped
    fit: tuple[int, int, int] | None


def _compile_plan(verts, twins, degs, padj, anchors) -> _Plan:
    pinned = set(anchors)
    classes = []
    for is_true, members, cmask, outside in twins:
        to_fill = tuple(m for m in members if m not in pinned)
        if len(to_fill) >= 2:
            classes.append((is_true, cmask, outside, to_fill))
    deferred = _mask(m for *_, to_fill in classes for m in to_fill)
    free = tuple(v for v in verts if v not in pinned and not deferred >> v & 1)
    fit = None
    if free and not anchors:
        d = min(degs[v] for v in verts)
        if d >= 2:
            fit = (d, len(verts), sum(degs[v] for v in verts) // 2)
    return _Plan(
        anchors=anchors,
        anchor_edges=tuple(
            (i, j)
            for i, a in enumerate(anchors)
            for j in range(i + 1, len(anchors))
            if padj[a] >> anchors[j] & 1
        ),
        free=free,
        free_degs=tuple(degs[w] for w in free),
        free_anchors=tuple(
            tuple(i for i, a in enumerate(anchors) if padj[w] >> a & 1)
            for w in free
        ),
        classes=tuple(classes),
        class_degs=tuple(degs[c[3][0]] for c in classes),
        class_anchors=tuple(
            tuple(
                i
                for i, a in enumerate(anchors)
                if outside >> a & 1 or (is_true and cmask >> a & 1)
            )
            for is_true, cmask, outside, _ in classes
        ),
        class_needs=tuple(len(c[3]) for c in classes),
        fit=fit,
    )


def _orbit_seeds(edges, twins):
    """First directed edge of each orbit under swaps inside twin classes,
    and the position in that list of every directed edge's orbit.

    Directed edges (a, b) and (a', b') share an orbit exactly when a and a'
    are equal or in one class, and likewise b and b' (two members of one
    class reach every ordered pair of distinct members).
    """
    cls = {}
    for k, (_, members, _, _) in enumerate(twins):
        for m in members:
            cls[m] = -1 - k
    kept = []
    position = {}
    index = {}
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            key = (cls.get(a, a), cls.get(b, b))
            i = position.get(key)
            if i is None:
                i = position[key] = len(kept)
                kept.append((a, b))
            index[a, b] = i
    return kept, index


def _refined_colors(verts, adj, degs) -> dict[int, int]:
    """Stable color refinement of a component from its degrees: a vertex's
    next color is its color with the multiset of its neighbors' colors.
    Each round applies one function to every vertex, so an automorphism
    keeps every vertex's color."""
    color = {v: degs[v] for v in verts}
    count = len(set(color.values()))
    while True:
        ids: dict[tuple, int] = {}
        color = {
            v: ids.setdefault(
                (color[v], tuple(sorted(color[w] for w in _bits(adj[v])))), len(ids)
            )
            for v in verts
        }
        if len(ids) == count:
            return color
        count = len(ids)


class _SeedOrbits:
    """The automorphism orbits found so far among the twin-orbit seeds of
    one non-clique component: a union-find over seed positions whose root
    is the first seed of its class, plus the component's refined colors,
    computed for the first self-embedding search (``_seed_plan``)."""

    __slots__ = ("seeds", "index", "parent", "colors")

    def __init__(self, seeds, index):
        self.seeds = seeds
        # every directed edge of the component -> its twin-orbit seed's position
        self.index = index
        self.parent = list(range(len(seeds)))
        self.colors: dict[int, int] | None = None

    def add(self, sigma: dict[int, int]) -> None:
        """Join every seed's class with its image's under sigma."""
        for i, (a, b) in enumerate(self.seeds):
            r = _root(self.parent, i)
            q = _root(self.parent, self.index[sigma[a], sigma[b]])
            if r != q:
                self.parent[max(r, q)] = min(r, q)


class _Component(NamedTuple):
    verts: tuple[int, ...]
    size: int
    edges: tuple[tuple[int, int], ...]
    is_clique: bool
    # twin classes of size >= 2 inside a non-clique component, filled as
    # sets: (images_mutually_adjacent, members, member mask, pattern
    # neighbors outside the class)
    twins: tuple[tuple[bool, tuple[int, ...], int, int], ...]
    # seeds (a, b) for the forced edge, grouped by endpoint degrees for
    # cheap feasibility filtering. A clique has the one seed (verts[0],
    # verts[1]). Otherwise the first directed pattern edge of each orbit
    # under twin swaps: a swapped seed has the same image sets, so it
    # fails whenever the kept one did. Automorphisms keep degrees, so an
    # orbit never straddles two groups.
    seed_groups: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]
    # plan with nothing pinned (None for a clique)
    plan: _Plan | None
    # each non-clique seed's plan, or _DROPPED when an automorphism of the
    # component carries an earlier kept seed onto it, decided the first
    # time a probe tries the seed (_seed_plan), so a pattern pays only for
    # the seeds its probes reach; compiling all of them up front is
    # |E| * |V| work per component. _pattern_info gives each component its
    # own empty dict, filled in place; the dict makes a component
    # unhashable, and nothing hashes one
    seed_plans: dict[tuple[int, int], _Plan]
    # the automorphism orbits those decisions found (None for a clique)
    orbits: _SeedOrbits | None


class _PatternInfo(NamedTuple):
    components: tuple[_Component, ...]
    degrees: tuple[int, ...]
    adj: tuple[int, ...]


@lru_cache(maxsize=128)
def _pattern_info(pattern: Graph) -> _PatternInfo:
    degs = pattern.degrees
    adj = pattern._adj
    verts_of = pattern.components()
    comp_of = [0] * pattern.n
    for k, verts in enumerate(verts_of):
        for v in verts:
            comp_of[v] = k
    edges_of: list[list[tuple[int, int]]] = [[] for _ in verts_of]
    for u, v in pattern.sorted_edges():
        edges_of[comp_of[u]].append((u, v))
    # only classes inside one non-clique component are filled as sets
    # (isolated vertices of different components are open twins too); true
    # twins' images must form a clique, false twins' are unconstrained
    twins_of: list[list[tuple[bool, tuple[int, ...], int, int]]]
    twins_of = [[] for _ in verts_of]
    for is_true, members in twin_classes(pattern):
        k = comp_of[members[0]]
        if all(comp_of[m] == k for m in members):
            cmask = _mask(members)
            twins_of[k].append((is_true, members, cmask, adj[members[0]] & ~cmask))
    comps = []
    for verts, edges, twins in zip(verts_of, edges_of, twins_of):
        vs = tuple(verts)
        edges = tuple(edges)
        size = len(vs)
        is_clique = len(edges) == size * (size - 1) // 2
        if is_clique:
            twins = ()
            seeds = [(vs[0], vs[1])] if size >= 2 else []
            plan = orbits = None
        else:
            twins = tuple(twins)
            seeds, index = _orbit_seeds(edges, twins)
            plan = _compile_plan(vs, twins, degs, adj, ())
            orbits = _SeedOrbits(seeds, index)
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for a, b in seeds:
            groups.setdefault((degs[a], degs[b]), []).append((a, b))
        comps.append(
            _Component(
                vs, size, edges, is_clique, twins,
                tuple((k, tuple(groups[k])) for k in sorted(groups)),
                plan,
                {},
                orbits,
            )
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
    vertices into one trial. The searches read ``twins`` only once a
    candidate has failed, so the classes are built on the first backtrack,
    and a probe whose first candidates all succeed never builds them.
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
                m = _mask(members)
                for v in members:
                    masks[v] = m
            self._twins = masks
        return self._twins


def _iter_sets(cand: int, need: int, mutual_adj, hv: _HostView):
    """Ascending ``need``-subsets of the candidate mask; with ``mutual_adj``
    (host adjacency) the chosen vertices must be pairwise adjacent.

    After a smallest element v is exhausted, its host twins are skipped at
    that position: any set led by a twin is the image of a set led by v
    under a host automorphism. The skip waits until the position is
    tried again and still has room for the rest of a set; only then is
    ``hv.twins`` read, so the host's twin classes are built on the first
    backtrack that needs them. Dropping candidates never revives an
    exhausted position, so the wait changes no set.

    Position k of the set keeps its candidate mask ``cands[k]`` (the
    common neighbors of the earlier choices) and the part of it still to
    try, ``left[k]``, on explicit stacks. ``failed`` is the element of the
    top position that failed last, while its twins are still to skip, or
    -1.
    """
    if need == 0:
        yield []
        return
    chosen: list[int] = []
    cands = [cand]
    left = [cand]
    failed = -1
    while left:
        k = len(chosen)
        mask = left[k]
        c = cands[k]
        low = mask & -mask
        v = low.bit_length() - 1
        if not mask or (c >> v).bit_count() < need - k:
            # position k is exhausted: back up to the element it extended
            left.pop()
            cands.pop()
            failed = chosen.pop() if chosen else -1
            continue
        if failed >= 0:
            left[k] = mask & ~hv.twins[failed]
            failed = -1
            continue
        left[k] = mask ^ low
        if k + 1 == need:
            yield chosen + [v]
            # resumed: the set led by v here failed
            failed = v
            continue
        chosen.append(v)
        nxt = c & mutual_adj[v] if mutual_adj is not None else c
        cands.append(nxt)
        left.append(nxt >> (v + 1) << (v + 1))


def _iter_clique_embeddings(comp, hv, used, images):
    """(mapping, image mask) for a clique component: host cliques through
    ``images``, the host vertices of the first pattern vertices, enumerated
    ascending; pattern symmetry makes each host clique a single visit."""
    need = comp.size - len(images)
    cand = hv.full & ~used & hv.degmask(comp.size - 1)
    base = 0
    for x in images:
        base |= 1 << x
        cand &= hv.adj[x]
    cand &= ~base
    free_pat = comp.verts[len(images):]
    for chosen in _iter_sets(cand, need, hv.adj, hv):
        mapping = dict(zip(comp.verts, images))
        mask = base
        for pv, x in zip(free_pat, chosen):
            mapping[pv] = x
            mask |= 1 << x
        yield mapping, mask


def _core_fits(hv, avail, d, size, edges) -> bool:
    """Whether some connected piece of the d-core of the host's vertices in
    ``avail`` has at least ``size`` vertices and ``edges`` edges.

    The peel drops each vertex with fewer than d neighbors left and checks
    its remaining neighbors again, so it ends at the d-core whatever the
    order (Batagelj & Zaversnik 2003).
    """
    adj = hv.adj
    core = avail & hv.degmask(d)
    check = core
    while check:
        low = check & -check
        check ^= low
        row = adj[low.bit_length() - 1]
        if (row & core).bit_count() < d:
            core ^= low
            check |= row & core
    if core.bit_count() < size:
        return False
    while core:
        piece = frontier = core & -core
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= adj[v]
            frontier = reach & core & ~piece
            piece |= frontier
        core ^= piece
        if piece.bit_count() >= size and (
            sum((adj[v] & piece).bit_count() for v in _bits(piece)) >= 2 * edges
        ):
            return True
    return False


def _iter_generic_embeddings(plan, info, hv, used, images):
    """Backtracking enumeration of embeddings of one non-clique component,
    with ``plan.anchors`` pinned to ``images``.

    Phase 1 places the structurally distinct vertices one by one with
    forward checking: every unplaced vertex keeps a live candidate mask,
    the emptiest mask is branched next, and a mask running dry cuts the
    branch. Phase 2 fills each twin class as a set drawn from its common
    candidate mask. Adjacency between two twin classes is enforced when
    the later one fills (twin neighborhoods meet a class all-or-nothing,
    so no pair is missed).
    """
    padj = info.adj
    hadj = hv.adj
    # anchored pattern edges must already sit on host edges
    for i, j in plan.anchor_edges:
        if not hadj[images[i]] >> images[j] & 1:
            return
    img0 = _mask(images)
    avail = hv.full & ~used & ~img0
    if plan.fit is not None and not _core_fits(hv, avail, *plan.fit):
        return
    degmask = hv.degmask
    masks = []
    for d, adjacent in zip(plan.free_degs, plan.free_anchors):
        m = avail & degmask(d)
        for i in adjacent:
            m &= hadj[images[i]]
        if m == 0:
            return
        masks.append(m)
    # live candidate masks for the deferred classes, pruned alongside
    classes = plan.classes
    class_needs = plan.class_needs
    cmasks = []
    for d, adjacent, need in zip(plan.class_degs, plan.class_anchors, class_needs):
        m = avail & degmask(d)
        for i in adjacent:
            m &= hadj[images[i]]
        if m.bit_count() < need:
            return
        cmasks.append(m)
    class_total = sum(class_needs)
    # feasibility: every unplaced vertex lands somewhere in the union of
    # the live masks
    union = 0
    for m in masks:
        union |= m
    for m in cmasks:
        union |= m
    if union.bit_count() < len(masks) + class_total:
        return
    mapping = dict(zip(plan.anchors, images))

    # A search node is (free vertices, their masks, class masks, image
    # mask, next class). Each generator below yields the children of one
    # node, holding the child's assignment in ``mapping`` while it is
    # explored; the loop at the end drives them depth first.

    def fill_children(ci: int, img_mask: int, cmasks_now):
        is_true, cmask, _, to_fill = classes[ci]
        need = class_needs[ci]
        for chosen in _iter_sets(cmasks_now[0], need, hadj if is_true else None, hv):
            add_mask = 0
            for pv, x in zip(to_fill, chosen):
                mapping[pv] = x
                add_mask |= 1 << x
            rest_masks = []
            for cj in range(ci + 1, len(classes)):
                m = cmasks_now[cj - ci] & ~add_mask
                # twin neighborhoods meet a class all-or-nothing
                if classes[cj][2] & cmask:
                    for x in chosen:
                        m &= hadj[x]
                if m.bit_count() < class_needs[cj]:
                    break
                rest_masks.append(m)
            else:
                yield (), (), rest_masks, img_mask | add_mask, ci + 1
            for pv in to_fill:
                del mapping[pv]

    def place_children(free_now, masks_now, cmasks_now, img_mask: int):
        # branch on the scarcest candidate mask; free_now ascends, so the
        # first scarcest one has the smallest vertex
        besti = 0
        best = masks_now[0].bit_count()
        for i in range(1, len(free_now)):
            c = masks_now[i].bit_count()
            if c < best:
                besti, best = i, c
        v = free_now[besti]
        sub_free = free_now[:besti] + free_now[besti + 1 :]
        pv = padj[v]
        rest = [(m, pv >> w & 1) for m, w in zip(masks_now, free_now)]
        del rest[besti]
        crest = [
            (m, c[2] >> v & 1, need)
            for m, c, need in zip(cmasks_now, classes, class_needs)
        ]
        total = len(rest) + class_total
        cand = masks_now[besti]
        while cand:
            low = cand & -cand
            x = low.bit_length() - 1
            keep = ~low
            xadj = hadj[x]
            union = 0
            sub_masks = []
            for m, adjacent in rest:
                m &= keep
                if adjacent:
                    m &= xadj
                if not m:
                    break
                union |= m
                sub_masks.append(m)
            else:
                sub_cmasks = []
                for m, adjacent, need in crest:
                    m &= keep
                    if adjacent:
                        m &= xadj
                    if m.bit_count() < need:
                        break
                    union |= m
                    sub_cmasks.append(m)
                else:
                    if union.bit_count() >= total:
                        mapping[v] = x
                        yield sub_free, sub_masks, sub_cmasks, img_mask | low, 0
                        del mapping[v]
            # x failed here, and a failing candidate dooms its host twins
            # identically
            cand ^= low
            if cand:
                cand &= ~hv.twins[x]

    frames = []
    node = (plan.free, masks, cmasks, img0, 0)
    while True:
        free_now, masks_now, cmasks_now, img_mask, ci = node
        if free_now:
            frames.append(place_children(free_now, masks_now, cmasks_now, img_mask))
        elif ci < len(classes):
            frames.append(fill_children(ci, img_mask, cmasks_now))
        else:
            yield dict(mapping), img_mask
        while frames:
            node = next(frames[-1], None)
            if node is not None:
                break
            frames.pop()
        else:
            return


def _embeddings(comp, plan, info, hv, used, images=()):
    # (mapping, image mask) of each embedding of comp, with the pinned
    # vertices (plan.anchors, a clique's first ones) on images
    if comp.is_clique:
        return _iter_clique_embeddings(comp, hv, used, images)
    return _iter_generic_embeddings(plan, info, hv, used, images)


# seed_plans' mark of a seed that an earlier kept seed's orbit contains
_DROPPED: _Plan = _Plan((), (), (), (), (), (), (), (), (), None)


def _automorphism(comp, info, kept, seed) -> dict[int, int] | None:
    """An automorphism of comp carrying the kept seed onto seed, or None.

    It is the first embedding of comp, with the kept seed's plan pinned at
    seed, into the pattern with every vertex outside comp used: a
    bijection onto comp that maps comp's edges into an edge set of the
    same size.
    """
    hv = _HostView(Graph._from_adj(info.adj))
    used = hv.full & ~_mask(comp.verts)
    found = _iter_generic_embeddings(comp.seed_plans[kept], info, hv, used, seed)
    return next((mapping for mapping, _ in found), None)


def _seed_plan(comp, info, seed) -> _Plan:
    """The plan of a non-clique component's seed, or _DROPPED when an
    automorphism of the component carries an earlier kept seed onto it.

    A dropped seed gives the image sets of that kept seed, which frame 0
    of ``_embed_rest`` has then all tried. A probe reaches a seed only
    after every earlier seed of its group, so those are decided. The seed
    is dropped outright when its class already holds an earlier seed;
    otherwise it is searched for against each earlier kept seed whose
    endpoints have its endpoints' refined colors, and an automorphism
    found joins every seed's class with its image's. So the kept seeds
    are exactly the first of each orbit.
    """
    orbits = comp.orbits
    i = orbits.index[seed]
    plan = _DROPPED
    if _root(orbits.parent, i) == i:
        degs = info.degrees
        a, b = seed
        rivals = [
            k for k in orbits.seeds[:i]
            if degs[k[0]] == degs[a] and degs[k[1]] == degs[b]
            and comp.seed_plans[k] is not _DROPPED
        ]
        if rivals and orbits.colors is None:
            orbits.colors = _refined_colors(comp.verts, info.adj, degs)
        colors = orbits.colors
        for k in rivals:
            if colors[k[0]] == colors[a] and colors[k[1]] == colors[b]:
                sigma = _automorphism(comp, info, k, seed)
                if sigma is not None:
                    orbits.add(sigma)
                    break
        else:
            plan = _compile_plan(comp.verts, comp.twins, degs, info.adj, seed)
    comp.seed_plans[seed] = plan
    return plan


def _seeded(comp, info, hv, forced):
    """Embeddings of comp whose image uses the forced host edge: each
    degree-feasible seed in turn carries it, one seed per automorphism
    orbit."""
    u, v = forced
    du, dv = hv.deg[u], hv.deg[v]
    for (da, db), seeds in comp.seed_groups:
        if da > du or db > dv:
            continue
        for seed in seeds:
            plan = comp.seed_plans.get(seed)
            if plan is None and not comp.is_clique:
                plan = _seed_plan(comp, info, seed)
            if plan is not _DROPPED:
                yield from _embeddings(comp, plan, info, hv, 0, forced)


def _embed_rest(pattern, comps, info, hv, head):
    """First embedding of the given components, pairwise disjoint, or None;
    ``head`` enumerates the embeddings of the first component.

    Backtracks jointly across components, but only over distinct image
    sets: whether the remaining components fit depends on the earlier
    components' images as a set, never on which mapping realized them. The
    backtracking keeps one frame per placed component on an explicit
    stack, so the number of components is not bounded by recursion depth.
    """
    # frame k: [embeddings of comps[k], image sets seen, vertices used by
    # comps[:k], current mapping of comps[k]]
    frames = [[head, set(), 0, None]]
    while frames:
        frame = frames[-1]
        it, seen, used_now, _ = frame
        for mapping, mask in it:
            if mask not in seen:
                seen.add(mask)
                break
        else:
            frames.pop()
            continue
        frame[3] = mapping
        if len(frames) == len(comps):
            out = {}
            for f in frames:
                out.update(f[3])
            return Embedding(pattern, tuple(out[i] for i in range(pattern.n)))
        comp = comps[len(frames)]
        used_now |= mask
        it = _embeddings(comp, comp.plan, info, hv, used_now)
        frames.append([it, set(), used_now, None])
    return None


def find_new_copy(
    pattern: Graph, host: Graph, forced_edge: tuple[int, int]
) -> Embedding | None:
    """First embedding of pattern into host whose image uses forced_edge,
    or None if no such copy exists.

    The forced edge is assigned to each pattern component in turn
    (components in decreasing size), seeding the backtracking at each
    degree-feasible pattern edge of that component, one per automorphism
    orbit of the component (decided the first time a probe reaches the
    seed); the remaining components are embedded disjointly around the
    seeded one.
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
    comps = info.components
    for ci, comp in enumerate(comps):
        if comp.seed_groups:
            # the forced component is frame 0, so each distinct image of it
            # is tried once across all seeds
            found = _embed_rest(
                pattern, (comp,) + comps[:ci] + comps[ci + 1 :], info, hv,
                _seeded(comp, info, hv, (u, v)),
            )
            if found is not None:
                return found
    return None


def find_any_embedding(pattern: Graph, host: Graph) -> Embedding | None:
    """First unconstrained embedding of pattern into host, or None."""
    if pattern.n == 0:
        return Embedding(pattern, ())
    if pattern.n > host.n:
        return None
    info = _pattern_info(pattern)
    hv = _HostView(host)
    first = info.components[0]
    head = _embeddings(first, first.plan, info, hv, 0)
    return _embed_rest(pattern, info.components, info, hv, head)
