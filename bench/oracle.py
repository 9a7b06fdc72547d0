"""Input generators and independent clique evaluators for the benchmark.

Nothing here imports cliquespectra: the checks compare the program's outputs
against computations made apart from it.

- Bron-Kerbosch with pivoting on int adjacency masks (k = 2, any n).
- A subset scan over bitsets indexed by vertex subsets (any k, small n):
  bit S of an int stands for the vertex set S.  The non-complete sets are the
  up-closure of the missing edges, so the complete sets are everything else,
  and a complete set is maximal when no one-vertex superset is complete.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Edge = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def random_edges(n: int, k: int, p: float, rng: random.Random) -> List[Edge]:
    return [e for e in itertools.combinations(range(n), k) if rng.random() < p]


def join_of_clique_pairs(m: int) -> Tuple[int, List[Edge]]:
    """Join of the parts K_1 + K_(1+2^i), i < m: 2^m distinct maximal-clique sizes.

    A maximal clique of a join takes one maximal clique from every part, and
    part i offers sizes 1 and 1 + 2^i, so the sizes are m + every sum of a
    subset of {2^i}.
    """
    parts: List[List[int]] = []
    cliques: List[List[int]] = []
    v = 0
    for i in range(m):
        single, block = [v], list(range(v + 1, v + 2 + (1 << i)))
        parts.append(single + block)
        cliques.append(block)
        v = block[-1] + 1
    edges = set()
    for block in cliques:
        edges.update(itertools.combinations(block, 2))
    for a, b in itertools.combinations(range(m), 2):
        edges.update((min(x, y), max(x, y)) for x in parts[a] for y in parts[b])
    return v, sorted(edges)


def triangle_lift(n: int, edges: Iterable[Edge]) -> List[Edge]:
    """3-uniform hypergraph whose edges are the triangles of a graph.

    For a join with m >= 3 parts every maximal clique of the graph has at
    least 3 vertices and stays maximal, and each non-adjacent pair becomes a
    maximal clique of size 2, so the lift has 2^m + 1 distinct sizes.
    """
    adj = adjacency_masks(n, edges)
    out = []
    for a, b in itertools.combinations(range(n), 2):
        if adj[a] >> b & 1:
            common = adj[a] & adj[b] & ~((1 << (b + 1)) - 1)
            while common:
                low = common & -common
                out.append((a, b, low.bit_length() - 1))
                common ^= low
    return sorted(out)


def relabel(n: int, edges: Iterable[Edge], rng: random.Random) -> List[Edge]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted(perm[v] for v in e)) for e in edges)


def hg_text(k: int, n: int, edges: Iterable[Edge]) -> str:
    lines = [f"{k} {n}"]
    lines.extend(" ".join(map(str, e)) for e in edges)
    return "\n".join(lines) + "\n"


def parse_hg_text(text: str) -> Tuple[int, int, Set[Edge]]:
    """Edge set from the program's serialized hypergraph (header 'k n')."""
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    k, n = int(rows[0][0]), int(rows[0][1])
    edges = {tuple(sorted(int(t) for t in row)) for row in rows[1:]}
    if any(len(e) != k or len(set(e)) != k or e[0] < 0 or e[-1] >= n for e in edges):
        raise ValueError("malformed edge in serialized hypergraph")
    if len(edges) != len(rows) - 1:
        raise ValueError("duplicate edge in serialized hypergraph")
    return k, n, edges


# ---------------------------------------------------------------------------
# Definitions, checked straight from an edge set
# ---------------------------------------------------------------------------

def adjacency_masks(n: int, edges: Iterable[Edge]) -> List[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def is_complete(edges: Set[Edge], members: Sequence[int], k: int) -> bool:
    return all(c in edges for c in itertools.combinations(sorted(members), k))


def is_maximal_clique(edges: Set[Edge], members: Sequence[int], n: int, k: int) -> bool:
    """Complete, and no outside vertex closes an edge with every (k-1)-subset."""
    members = sorted(members)
    if not is_complete(edges, members, k):
        return False
    if len(members) < k - 1:
        return len(members) == n
    for v in range(n):
        if v in members:
            continue
        if all(tuple(sorted(t + (v,))) in edges for t in itertools.combinations(members, k - 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# Distinct maximal-clique sizes
# ---------------------------------------------------------------------------

def bron_kerbosch_sizes(n: int, edges: Iterable[Edge]) -> Set[int]:
    """Sizes of all maximal cliques of a graph (Bron-Kerbosch, Tomita pivot)."""
    adj = adjacency_masks(n, edges)
    sizes: Set[int] = set()
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        size, cand, excl = stack.pop()
        if not cand:
            if not excl:
                sizes.add(size)
            continue
        pool = cand | excl
        pivot, best = -1, -1
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            c = (cand & adj[u]).bit_count()
            if c > best:
                pivot, best = u, c
            pool ^= low
        todo = cand & ~adj[pivot]
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            stack.append((size + 1, cand & adj[v], excl & adj[v]))
            cand ^= low
            excl |= low
            todo ^= low
    return sizes


class SubsetScan:
    """Distinct maximal-clique sizes of any k-graph on n <= 18 vertices."""

    def __init__(self, n: int, k: int):
        if n > 18:
            raise ValueError("subset scan refuses n > 18")
        self.n, self.k = n, k
        self.universe = list(itertools.combinations(range(n), k))
        self.up = [self._supersets(e) for e in self.universe]
        self.with_vertex = [self._supersets((v,)) for v in range(n)]
        by_size = [1]  # over no vertices, only the empty set, of size 0
        for v in range(n):
            shift = 1 << v
            by_size = [
                (by_size[s] if s < len(by_size) else 0)
                | (by_size[s - 1] << shift if s else 0)
                for s in range(v + 2)
            ]
        self.by_size = by_size
        self.all_sets = (1 << (1 << n)) - 1

    def _supersets(self, members: Edge) -> int:
        """Bitset of the vertex subsets that contain every given vertex."""
        x = 1
        for v in range(self.n):
            x = x << (1 << v) if v in members else x | x << (1 << v)
        return x

    def _sizes_of_missing(self, missing: Iterable[int]) -> int:
        broken = 0
        for j in missing:
            broken |= self.up[j]
        complete = self.all_sets & ~broken
        extendable = 0
        for v, with_v in enumerate(self.with_vertex):
            extendable |= (complete & with_v) >> (1 << v)
        maximal = complete & ~extendable
        return sum(1 for s in self.by_size if maximal & s)

    def distinct_sizes(self, edges: Set[Edge]) -> int:
        return self._sizes_of_missing(j for j, e in enumerate(self.universe) if e not in edges)

    def exhaustive(self) -> Tuple[int, int]:
        """(max distinct sizes, smallest edge-set index attaining it) over 2^C(n,k)."""
        bits = len(self.universe)
        best, best_index = -1, -1
        for index in range(1 << bits):
            d = self._sizes_of_missing(j for j in range(bits) if not index >> j & 1)
            if d > best:
                best, best_index = d, index
        return best, best_index


def edge_index(n: int, k: int, edges: Set[Edge]) -> int:
    """Bit j set iff the j-th k-subset of range(n) in lexicographic order is an edge."""
    return sum(1 << j for j, e in enumerate(itertools.combinations(range(n), k)) if e in edges)


def tree_budget_problems(parents: Sequence[int], k: int, C: int) -> List[str]:
    """Depth <= k - 1 and degree of vertex i <= 2^(C + i), for parents of 1..t."""
    depth: Dict[int, int] = {0: 0}
    degree = [0] * (len(parents) + 1)
    problems = []
    for i, p in enumerate(parents, start=1):
        if not 0 <= p < i:
            return [f"parent of vertex {i} is {p}, not an earlier vertex"]
        depth[i] = depth[p] + 1
        degree[p] += 1
        if depth[i] > k - 1:
            problems.append(f"vertex {i} at depth {depth[i]} > k - 1 = {k - 1}")
    for i, d in enumerate(degree):
        if d > 1 << (C + i):
            problems.append(f"vertex {i} has degree {d} > 2^({C}+{i})")
    return problems


def size_bound_problems(value: int, n: int, k: int) -> List[str]:
    """Sizes lie in [k-1, n]; at k = 2 Moon-Moser gives n - floor(log2 n)."""
    problems = []
    if value > n - k + 2:
        problems.append(f"{value} distinct sizes exceed n - k + 2 = {n - k + 2}")
    if k == 2 and value > n - (n.bit_length() - 1):
        problems.append(f"{value} distinct sizes exceed Moon-Moser n - floor(log2 n)")
    return problems
