"""wsatlab: exact machinery for weak saturation limits.

Bootstrap percolation closures, activation partitions and rotations, exact
gamma minimization (brute force and a min-cut ratio solver), exact small-n
weak saturation numbers, the parametrized graph families realizing rational
limits, and rigorous expander-condition numerics.
"""

__version__ = "0.1.0"

from .graphs import (
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
    star_graph,
    subdivide,
)


def __getattr__(name):
    # the embedding layer loads on first use (PEP 562), not with the package
    if name in ("Embedding", "find_new_copy"):
        from . import embedding

        return getattr(embedding, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Graph",
    "Embedding",
    "circulant",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "edge_list_to_graph",
    "empty_graph",
    "find_new_copy",
    "graph6_to_graph",
    "graph_to_edge_list",
    "graph_to_graph6",
    "path_graph",
    "star_graph",
    "subdivide",
    "__version__",
]
