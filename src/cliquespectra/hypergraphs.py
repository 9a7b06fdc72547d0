"""Uniform hypergraphs: completeness, maximal cliques, spectra, file I/O.

A vertex set is complete when every k-subset of it is an edge (vacuously so
below size k), and a maximal clique is a complete set that no single vertex
can extend.  Vertex sets in the API are ``frozenset[int]``; edges are
canonical sorted k-tuples so membership tests are single hash lookups.
Enumeration works on int bitmasks (bit v for vertex v) and converts its
results back to frozensets.

One Bron-Kerbosch recursion runs over a link map (``link_map``) in two
modes.  ``enumerate_maximal_cliques`` (behind ``clique_spectrum``, hence the
CLI, extraction and every witness re-check) lists the cliques;
``count_distinct_sizes`` only counts their sizes and prunes branches whose
reachable sizes are all seen.  The hill climb keeps one link map across edge
flips (``toggle_edge``) and counts each neighbor that way.

Each edge set is validated once.  ``Hypergraph(k, n, edges)`` and
``Hypergraph.from_edges`` canonicalize and check untrusted edges; the parser
checks every line itself.  The parser, ``random_hypergraph`` and
``search.hypergraph_from_edge_index`` then build through
``Hypergraph._canonical``, which checks k and n only, because their edges are
canonical by construction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Tuple

VertexSet = FrozenSet[int]


class ParseError(ValueError):
    """Malformed input text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def complement(members: Iterable[int], n: int) -> VertexSet:
    """Vertices of {0..n-1} not in `members`."""
    return frozenset(range(n)) - frozenset(members)


def _check_shape(k: int, n: int) -> None:
    if not isinstance(k, int) or k < 2:
        raise ValueError("uniformity k must be an integer >= 2")
    if not isinstance(n, int) or n < 1:
        raise ValueError("vertex count n must be an integer >= 1")


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph on vertices 0..n-1, immutable after construction."""

    k: int
    n: int
    edges: FrozenSet[Tuple[int, ...]]

    def __post_init__(self):
        _check_shape(self.k, self.n)
        canon = set()
        for edge in self.edges:
            tup = tuple(sorted(edge))
            if len(set(tup)) != self.k:
                raise ValueError(f"edge {tup} does not have {self.k} distinct vertices")
            if tup[0] < 0 or tup[-1] >= self.n:
                raise ValueError(f"edge {tup} has a vertex outside 0..{self.n - 1}")
            canon.add(tup)
        object.__setattr__(self, "edges", frozenset(canon))

    @classmethod
    def from_edges(cls, k: int, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(k, n, tuple(map(tuple, edges)))  # __post_init__ canonicalizes

    @classmethod
    def _canonical(cls, k: int, n: int, edges: Iterable[Tuple[int, ...]]) -> "Hypergraph":
        """Build from edges that are canonical by construction: sorted k-tuples
        of distinct vertices in 0..n-1.  Only k and n are checked here."""
        _check_shape(k, n)
        H = object.__new__(cls)
        object.__setattr__(H, "k", k)
        object.__setattr__(H, "n", n)
        object.__setattr__(H, "edges", frozenset(edges))
        return H

    @property
    def vertices(self) -> VertexSet:
        return frozenset(range(self.n))

    def _check_members(self, members: Iterable[int]) -> VertexSet:
        s = frozenset(members)
        for v in s:
            if not isinstance(v, int) or v < 0 or v >= self.n:
                raise ValueError(f"vertex {v!r} outside 0..{self.n - 1}")
        return s

    def is_complete(self, members: Iterable[int]) -> bool:
        """True iff every k-subset of the set is an edge (vacuous below size k)."""
        s = self._check_members(members)
        if len(s) < self.k:
            return True
        ordered = sorted(s)
        return all(c in self.edges for c in itertools.combinations(ordered, self.k))

    def extenders(self, members: Iterable[int]) -> VertexSet:
        """All vertices v outside the set with set+{v} still complete."""
        s = self._check_members(members)
        if not self.is_complete(s):
            raise ValueError("extenders requires a complete set")
        return frozenset(
            v for v in range(self.n) if v not in s and self.is_complete(s | {v})
        )

    def is_maximal_clique(self, members: Iterable[int]) -> bool:
        s = self._check_members(members)
        if not self.is_complete(s):
            return False
        return not any(
            self.is_complete(s | {v}) for v in range(self.n) if v not in s
        )


@dataclass(frozen=True)
class SpectrumReport:
    """Sizes of all maximal cliques plus one lex-smallest witness per size."""

    sizes: Tuple[int, ...]  # descending, one entry per maximal clique
    distinct_sizes: int
    witnesses: dict = field(compare=False)

    def __post_init__(self):
        if self.distinct_sizes != len(set(self.sizes)):
            raise ValueError("distinct_sizes does not match sizes")


def _lex_key(clique: VertexSet) -> List[int]:
    return sorted(clique)


def link_map(edge_masks: Iterable[int]) -> dict:
    """link[S]: mask of the vertices that close the (k-1)-set S into an edge.

    Edges and vertex sets are int bitmasks (bit v for vertex v).
    """
    link: dict = {}
    for members in edge_masks:
        rest = members
        while rest:
            v = rest & -rest
            rest ^= v
            link[members ^ v] = link.get(members ^ v, 0) | v
    return link


def toggle_edge(link: dict, edge_mask: int) -> None:
    """Add the edge to the link map if absent, remove it if present."""
    rest = edge_mask
    while rest:
        v = rest & -rest
        rest ^= v
        link[edge_mask ^ v] = link.get(edge_mask ^ v, 0) ^ v


def _bron_kerbosch(link: dict, k: int, n: int, sizes_only: bool):
    """The clique engine: base tuples of all maximal cliques, or, when
    sizes_only, the mask of their sizes (bit s for size s).

    Bron-Kerbosch over int vertex bitmasks.  The state is (base R, candidates
    P, excluded X), where P and X partition the extenders of R; R+{v} keeps
    the u with R+{v,u} complete, i.e. u in link[T|v] for every (k-2)-subset T
    of R.  Tomita pivoting is sound only in the pairwise case, so it is
    enabled for k == 2 alone.  Every maximal clique still to come below
    (R, P, X) has a size in [|R|+1, |R|+|P|] (Tomita, Tanaka & Takahashi,
    TCS 363, 2006), so sizes_only leaves a branch once all of those sizes
    have been seen.
    """
    found: List[Tuple[int, ...]] = []
    seen = 0

    def expand(base: Tuple[int, ...], subsets: List[list], cand: int, excl: int):
        # subsets[j]: masks of the j-subsets of base, for j = 0..k-2
        nonlocal seen
        if not cand:
            if not excl:
                if sizes_only:
                    seen |= 1 << len(base)
                else:
                    found.append(base)
            return
        order = cand
        if k == 2:
            most = -1
            rest = cand | excl
            while rest:
                u = rest & -rest
                rest ^= u
                count = (cand & link.get(u, 0)).bit_count()
                if count > most:
                    most, pivot = count, u
            order = cand & ~link.get(pivot, 0)
        while order:
            if sizes_only and not ((1 << cand.bit_count()) - 1) << (len(base) + 1) & ~seen:
                return
            v = order & -order
            order ^= v
            if k == 2:
                keep = link.get(v, 0)
                grown = subsets
            else:
                keep = -1
                for t in subsets[-1]:
                    keep &= link.get(t | v, 0)
                    if not keep:
                        break
                grown = [subsets[0]]
                for j in range(1, k - 1):
                    grown.append(subsets[j] + [t | v for t in subsets[j - 1]])
            cand ^= v
            expand(base + (v.bit_length() - 1,), grown, cand & keep, excl & keep)
            excl |= v

    expand((), [[0]] + [[] for _ in range(k - 2)], (1 << n) - 1, 0)
    return seen if sizes_only else found


def enumerate_maximal_cliques(H: Hypergraph) -> List[VertexSet]:
    """All maximal cliques, each once, ordered lexicographically."""
    link = link_map(sum(1 << v for v in edge) for edge in H.edges)
    bases = sorted(sorted(base) for base in _bron_kerbosch(link, H.k, H.n, False))
    return [frozenset(base) for base in bases]


def count_distinct_sizes(link: dict, k: int, n: int) -> int:
    """Number of distinct maximal-clique sizes of the k-graph on n vertices
    whose link map is link; the engine's sizes-only mode, nothing listed."""
    return _bron_kerbosch(link, k, n, True).bit_count()


def brute_force_maximal_cliques(H: Hypergraph) -> List[VertexSet]:
    """Oracle: test all 2^n subsets straight against the definition."""
    if H.n > 20:
        raise ValueError(f"brute force refuses n = {H.n} > 20 (2^n subset scan)")
    out = []
    for mask in range(1 << H.n):
        s = frozenset(v for v in range(H.n) if mask >> v & 1)
        if not H.is_complete(s):
            continue
        if any(H.is_complete(s | {v}) for v in range(H.n) if v not in s):
            continue
        out.append(s)
    return sorted(out, key=_lex_key)


def clique_spectrum(H: Hypergraph) -> SpectrumReport:
    """Multiset of maximal-clique sizes with lex-smallest witnesses."""
    cliques = enumerate_maximal_cliques(H)
    sizes = tuple(sorted((len(c) for c in cliques), reverse=True))
    witnesses: dict = {}
    for c in cliques:  # lex order, so the first of each size is the witness
        witnesses.setdefault(len(c), c)
    return SpectrumReport(sizes, len(witnesses), witnesses)


def random_hypergraph(n: int, k: int, edge_probability: float, rng: random.Random) -> Hypergraph:
    """Each possible edge kept independently with the given probability."""
    edges = [
        combo
        for combo in itertools.combinations(range(n), k)
        if rng.random() < edge_probability
    ]
    return Hypergraph._canonical(k, n, edges)


# ---------------------------------------------------------------------------
# Text format: header "k n", one edge per line, '#' comments, LF emitted.
# ---------------------------------------------------------------------------

def parse_hypergraph(text: str) -> Hypergraph:
    k = n = None
    edges = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if k is None:
            if len(tokens) != 2:
                raise ParseError("header must be exactly 'k n'", lineno)
            try:
                k, n = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError("header values must be base-10 integers", lineno) from None
            if k < 2 or n < 1:
                raise ParseError(f"invalid header k={k} n={n} (need k >= 2, n >= 1)", lineno)
            continue
        try:
            verts = [int(t) for t in tokens]
        except ValueError:
            raise ParseError("edge vertices must be base-10 integers", lineno) from None
        if len(verts) != k or len(set(verts)) != k:
            raise ParseError(f"edge must list exactly {k} distinct vertices", lineno)
        bad = [v for v in verts if v < 0 or v >= n]
        if bad:
            raise ParseError(f"vertex {bad[0]} outside 0..{n - 1}", lineno)
        tup = tuple(sorted(verts))
        if tup in edges:
            raise ParseError(f"duplicate edge {' '.join(map(str, tup))}", lineno)
        edges[tup] = lineno
    if k is None:
        raise ParseError("missing 'k n' header", 1)
    return Hypergraph._canonical(k, n, edges)  # each edge checked and sorted above


def serialize_hypergraph(H: Hypergraph) -> str:
    lines = [f"{H.k} {H.n}"]
    lines.extend(" ".join(map(str, e)) for e in sorted(H.edges))
    return "\n".join(lines) + "\n"
