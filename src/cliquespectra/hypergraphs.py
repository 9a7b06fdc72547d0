"""Uniform hypergraphs: completeness, maximal cliques, spectra, file I/O.

A vertex set is complete when every k-subset of it is an edge (vacuously so
below size k), and a maximal clique is a complete set that no single vertex
can extend.  Vertex sets in the API are ``frozenset[int]``; edges are
canonical sorted k-tuples so membership tests are single hash lookups.

Enumeration works on int vertex masks (bit v for vertex v) from start to
finish.  ``_link`` builds the engine's link table in one pass over the edge
tuples, and one Bron-Kerbosch recursion (``_bron_kerbosch``) returns the mask
of every maximal clique.  It pivots for k = 2 (Tomita's rule) and for k = 3
(a pivot covers a candidate when it closes an edge with it and each other
vertex of the node); k >= 4 branches on every candidate.  ``clique_spectrum``
reads sizes with ``bit_count`` and picks each size's lex-least witness by
comparing masks, so only the witnesses become frozensets.  Its report stores
the sizes and the witnesses; ``distinct_sizes`` is derived, the number of
witnesses.  ``enumerate_maximal_cliques`` is the lex-ordered listing API.

Maximality (``is_maximal_clique``, ``extenders``) shares no code or data with
the engine: it tests a set against per-vertex links (``Hypergraph._links``,
links[v] holding the (k-1)-tuples that close into an edge with v), built from
the edges on first use and kept with the instance.

Each edge set is validated once.  ``Hypergraph(k, n, edges)`` and
``Hypergraph.from_edges`` canonicalize and check untrusted edges; the parser
checks every line itself.  The parser, ``random_hypergraph`` and
``search.hypergraph_from_edge_index`` then build through
``Hypergraph._canonical``, which checks k and n only, because their edges are
canonical by construction.

``edge_universe(n, k)`` lists the possible edges in lexicographic order (it
checks k and n), and a position in it names an edge.  ``random_hypergraph``
keeps a position when one ``rng.random()`` in that order falls below p.
``_draw_misses`` decides every such draw at once from one ``getrandbits``
call, in 64-bit lanes that rebuild ``random()``'s two-word value, and returns
the miss mask: bit j set where the edge at position j was not drawn.
``random_hypergraph`` keeps the edges of the clear bits (``_kept_edges``), and
``extraction.implication_trials`` keeps only the mask.  ``_below``
and ``_sample_mask`` draw what ``randrange`` and ``random.sample`` draw, from
``getrandbits`` alone, and return a sample as a vertex mask, so the seeded
loops read the generator only through ``getrandbits``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, List, Sequence, Tuple

VertexSet = FrozenSet[int]


class ParseError(ValueError):
    """Malformed input text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


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
        return len(s) < self.k or self.edges.issuperset(
            itertools.combinations(sorted(s), self.k))

    def extenders(self, members: Iterable[int]) -> VertexSet:
        """All vertices v outside the set with set+{v} still complete."""
        s = self._check_members(members)
        if not self.is_complete(s):
            raise ValueError("extenders requires a complete set")
        return self._extenders(s)

    def _extenders(self, s: VertexSet) -> VertexSet:
        """Extenders of a complete s: v extends s iff every (k-1)-subset T of s
        has T+{v} an edge, i.e. lies in v's link."""
        need = frozenset(itertools.combinations(sorted(s), self.k - 1))
        links = self._links
        return frozenset(v for v in range(self.n) if v not in s and need <= links[v])

    @functools.cached_property
    def _links(self) -> List[set]:
        """links[v]: the (k-1)-tuples T with T+{v} an edge, read from the edges
        alone.  Built on first use and kept in the instance's __dict__, outside
        the dataclass fields, so it changes no comparison, hash or repr."""
        links: List[set] = [set() for _ in range(self.n)]
        for edge in self.edges:
            for i, v in enumerate(edge):
                links[v].add(edge[:i] + edge[i + 1:])
        return links

    def is_maximal_clique(self, members: Iterable[int]) -> bool:
        s = self._check_members(members)
        return self.is_complete(s) and not self._extenders(s)


@dataclass(frozen=True)
class SpectrumReport:
    """Sizes of all maximal cliques plus one lex-smallest witness per size."""

    sizes: Tuple[int, ...]  # descending, one entry per maximal clique
    witnesses: dict = field(compare=False)

    @property
    def distinct_sizes(self) -> int:
        return len(self.witnesses)


def _link(H: Hypergraph):
    """The engine's link table, built in one pass over the edge tuples.

    The link of a (k-1)-set S is the mask of the vertices that close S into an
    edge (bit v for vertex v).  For k == 2 the table is a list in which entry
    v + 1 holds the neighbours of v, so the link of the vertex mask u is
    ``link[u.bit_length()]``; for k >= 3 it is a dict keyed by the mask of S.
    """
    bit = [1 << v for v in range(H.n)]
    if H.k == 2:
        link = [0] * (H.n + 1)
        for a, b in H.edges:
            link[a + 1] |= bit[b]
            link[b + 1] |= bit[a]
        return link
    link = {}
    for edge in H.edges:
        members = 0
        for v in edge:
            members |= bit[v]
        for v in edge:
            rest = members ^ bit[v]
            link[rest] = link.get(rest, 0) | bit[v]
    return link


def _bron_kerbosch(link, k: int, n: int) -> List[int]:
    """The clique engine: the vertex masks of all maximal cliques.

    Bron-Kerbosch over int vertex bitmasks.  The state is (base R, candidates
    P, excluded X), where P and X partition the extenders of R; R+{v} keeps
    the u with R+{v,u} complete, i.e. u in link[T|v] for every (k-2)-subset T
    of R.  A child without candidates is settled in the loop: R+{v} is maximal
    iff its X is empty too.

    For k <= 3 a node branches only on the candidates that a pivot u in P + X
    does not cover.  Every maximal clique M with R <= M <= R + P holds u or an
    uncovered candidate, so each M is still listed once.
    - k == 2 (Tomita, Tanaka and Takahashi, TCS 363 (2006)): u's neighbours
      are covered, since M misses u only if u is not adjacent to all of it.
      u is the vertex with the most candidate neighbours, or the first whose
      count reaches |P| - 1, within one of the most possible.  A child with one
      candidate w is settled in the loop: R+{v,w} is maximal iff no vertex of
      the child's X is a neighbour of w.
    - k == 3: u is the lowest vertex of P + X, with no ranking pass, and v != u
      is covered when R+{u,v} is complete and {u,v,w} is an edge for every
      other candidate w.  Proof: if u is not in M, some pair T of M has T+u
      not an edge, since u does not extend M.  T is not inside R, since u
      extends R, so T holds a candidate v of M; its other vertex is in R or a
      candidate, so v is not covered.  The m = 4 triangle lift (n = 23, 35
      maximal cliques) takes 2,336 recursive calls, about 6 ms, but random
      3-graphs with n = 24-40, many small cliques and little to skip, take up
      to a third longer than without the pivot.
    - k >= 4 is unpivoted: the same argument would need every (k-1)-set of
      R + P through v to close into an edge with u, and no cheap test for that
      is known.
    """
    found: List[int] = []
    pairwise = k == 2

    def expand(base: int, subsets: List[list], cand: int, excl: int):
        # subsets[j]: masks of the j-subsets of base, for j = 0..k-2; cand is
        # never empty here
        order = cand
        if pairwise:
            most = -1
            enough = cand.bit_count() - 1
            rest = cand | excl
            while rest:
                u = rest & -rest
                rest ^= u
                around = link[u.bit_length()]
                count = (cand & around).bit_count()
                if count > most:
                    most, spared = count, around  # the pivot's neighbours
                    if count >= enough:
                        break
            order = cand & ~spared
        elif k == 3:
            u = (cand | excl) & -(cand | excl)
            near = rest = cand & ~u  # ends as the candidates u covers
            while rest and near:
                w = rest & -rest
                rest ^= w
                near &= link.get(u | w, 0) | w
            for t in subsets[1]:
                if not near:
                    break
                near &= link.get(u | t, 0)
            order = cand & ~near
        while order:
            v = order & -order
            order ^= v
            cand ^= v
            if pairwise:
                keep = link[v.bit_length()]
            else:
                keep = -1
                for t in subsets[-1]:
                    keep &= link.get(t | v, 0)
                    if not keep:
                        break
            child = cand & keep
            if not child:
                if not excl & keep:
                    found.append(base | v)
            elif not pairwise:
                grown = [subsets[0]]
                for j in range(1, k - 1):
                    grown.append(subsets[j] + [t | v for t in subsets[j - 1]])
                expand(base | v, grown, child, excl & keep)
            elif child & (child - 1):
                expand(base | v, subsets, child, excl & keep)
            elif not excl & keep & link[child.bit_length()]:
                found.append(base | v | child)
            excl |= v

    expand(0, [[0]] + [[] for _ in range(k - 2)], (1 << n) - 1, 0)
    return found


def _members(mask: int) -> List[int]:
    """The vertices of a mask, in increasing order."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


def enumerate_maximal_cliques(H: Hypergraph) -> List[VertexSet]:
    """All maximal cliques, each once, ordered lexicographically."""
    masks = _bron_kerbosch(_link(H), H.k, H.n)
    return [frozenset(members) for members in sorted(map(_members, masks))]


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
    return sorted(out, key=sorted)


def clique_spectrum(H: Hypergraph) -> SpectrumReport:
    """Sizes of all maximal cliques and the lex-smallest of each size, in one pass.

    Of two vertex sets of equal size, the lex-smaller holds the lowest vertex
    of their symmetric difference, so no clique is sorted.
    """
    masks = _bron_kerbosch(_link(H), H.k, H.n)
    sizes = [mask.bit_count() for mask in masks]
    least: dict = {}
    for size, mask in zip(sizes, masks):
        diff = mask ^ least.setdefault(size, mask)
        if mask & diff & -diff:
            least[size] = mask
    witnesses = {size: frozenset(_members(least[size])) for size in sorted(least)}
    sizes.sort(reverse=True)
    return SpectrumReport(tuple(sizes), witnesses)


@functools.lru_cache(maxsize=8)
def edge_universe(n: int, k: int) -> Tuple[Tuple[int, ...], ...]:
    """All possible edges in lexicographic order; bit j of an index = edge j."""
    _check_shape(k, n)
    return tuple(itertools.combinations(range(n), k))


@functools.lru_cache(maxsize=32)
def _lane_constants(count: int, edge_probability: float) -> Tuple[int, int, int]:
    """``_draw_misses``'s two masks and addend, repeated in ``count`` 64-bit lanes.

    The addend is 8 * (2^53 - T), with T = ceil(p * 2^53) the count of 53-bit
    values x with x / 2^53 < p (0 for p <= 0 and NaN, 2^53 for p >= 1), plus
    the digit "0" (0x30) in the lane's top byte.
    """
    if not edge_probability > 0:
        threshold = 0
    elif edge_probability >= 1:
        threshold = 1 << 53
    else:
        threshold = math.ceil(edge_probability * (1 << 53))
    ones = int.from_bytes(b"\x01".ljust(8, b"\x00") * count, "little")
    return ones * 0xFFFFFFE0, ones * 0x1FFFFFF8, ones * (((1 << 53) - threshold) << 3 | 0x30 << 56)


def _draw_misses(getrandbits: Callable[[int], int], count: int, edge_probability: float) -> int:
    """Bit j is set iff the j-th of ``count`` calls of ``random()`` would return
    a value >= edge_probability, from one ``getrandbits(64 * count)`` call.

    ``random()`` is (a * 2^26 + b) / 2^53 with a = w0 >> 5 and b = w1 >> 6, for
    its two 32-bit words, and ``getrandbits`` lays the words out from the least
    significant, so draw j is the 64-bit lane j, w0 below w1.  Each lane forms
    8x, x = a * 2^26 + b in bits 3..55, and adds the addend: the carry into
    bit 56 turns the top byte's "0" into "1" exactly when x >= T, that is when
    ``random() >= p``.  The top bytes, from the last lane down, are the mask
    in binary.
    """
    high, low, addend = _lane_constants(count, edge_probability)
    words = getrandbits(64 * count)
    x8 = (words & high) << 24 | words >> 35 & low
    return int((x8 + addend).to_bytes(8 * count, "big")[::8] or b"0", 2)


def _kept_edges(universe: Sequence[Tuple[int, ...]], misses: int) -> List[Tuple[int, ...]]:
    """The edges of ``universe`` at the positions whose bit in ``misses`` is clear, in order."""
    return [universe[j] for j in _members(~misses & (1 << len(universe)) - 1)]


def _below(getrandbits: Callable[[int], int], m: int) -> int:
    """``Random._randbelow_with_getrandbits(m)`` for m >= 1: uniform in [0, m).

    Draws the same ``getrandbits`` words, in the same order, as ``randrange(m)``
    and, shifted by its low end, ``randint``; ``choice(seq)`` is
    ``seq[_below(getrandbits, len(seq))]``.
    """
    width = m.bit_length()
    r = getrandbits(width)
    while r >= m:
        r = getrandbits(width)
    return r


def _sample_mask(getrandbits: Callable[[int], int], bits: int, m: int) -> int:
    """The vertex mask of ``Random.sample(range(bits), m)``, from the same draws.

    Follows CPython's two branches: a pool of the ``bits`` vertices, swapping
    each pick out, when the pool is smaller than a set of m picks would be, and
    otherwise a redraw of every vertex already picked.
    """
    setsize = 21
    if m > 5:
        setsize += 4 ** math.ceil(math.log(m * 3, 4))
    mask = 0
    if bits <= setsize:
        pool = list(range(bits))
        for top in range(bits, bits - m, -1):
            j = _below(getrandbits, top)
            mask |= 1 << pool[j]
            pool[j] = pool[top - 1]
    else:
        for _ in range(m):
            j = _below(getrandbits, bits)
            while mask >> j & 1:
                j = _below(getrandbits, bits)
            mask |= 1 << j
    return mask


def random_hypergraph(n: int, k: int, edge_probability: float, rng: random.Random) -> Hypergraph:
    """Each possible edge kept independently with the given probability.

    One ``random()`` draw per possible edge, in the lexicographic order of
    ``edge_universe``, decided by ``_draw_misses``.
    """
    universe = edge_universe(n, k)
    misses = _draw_misses(rng.getrandbits, len(universe), edge_probability)
    return Hypergraph._canonical(k, n, _kept_edges(universe, misses))


# ---------------------------------------------------------------------------
# Text format: header "k n", one edge per line, '#' comments, LF emitted.
# ---------------------------------------------------------------------------

def parse_hypergraph(text: str) -> Hypergraph:
    k = n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
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
            verts = sorted(map(int, tokens))
        except ValueError:
            raise ParseError("edge vertices must be base-10 integers", lineno) from None
        if len(verts) != k or len(set(verts)) != k:
            raise ParseError(f"edge must list exactly {k} distinct vertices", lineno)
        if verts[0] < 0 or verts[-1] >= n:
            bad = next(v for v in map(int, tokens) if v < 0 or v >= n)  # first in line order
            raise ParseError(f"vertex {bad} outside 0..{n - 1}", lineno)
        tup = tuple(verts)
        if tup in edges:
            raise ParseError(f"duplicate edge {' '.join(map(str, tup))}", lineno)
        edges.add(tup)
    if k is None:
        raise ParseError("missing 'k n' header", 1)
    return Hypergraph._canonical(k, n, edges)  # each edge checked and sorted above


def serialize_hypergraph(H: Hypergraph) -> str:
    lines = [f"{H.k} {H.n}"]
    lines.extend(" ".join(map(str, e)) for e in sorted(H.edges))
    return "\n".join(lines) + "\n"
