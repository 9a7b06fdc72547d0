"""Hypergraph builders shared by the test modules."""

import itertools

from cliquespectra.hypergraphs import Hypergraph


def complete_graph(k, n):
    return Hypergraph.from_edges(k, n, itertools.combinations(range(n), k))


def join_of_clique_pairs(m):
    """The join of the graphs K_1 + K_(1+2^i), i < m: 2^m clique sizes on 2m + 2^m - 1 vertices."""
    parts, edges = [], set()
    for i in range(m):
        start = parts[-1][-1] + 1 if parts else 0
        parts.append(range(start, start + 2 + (1 << i)))  # the K_1, then the block
        edges.update(itertools.combinations(parts[-1][1:], 2))
    for a, b in itertools.combinations(parts, 2):
        edges.update(itertools.product(a, b))
    return Hypergraph.from_edges(2, parts[-1][-1] + 1, edges)


def triangle_lift(G):
    """The 3-graph whose edges are the triangles of the graph G."""
    triangles = [t for t in itertools.combinations(range(G.n), 3)
                 if all(pair in G.edges for pair in itertools.combinations(t, 2))]
    return Hypergraph.from_edges(3, G.n, triangles)
