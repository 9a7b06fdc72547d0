"""Exact and heuristic search for the maximum number of distinct clique sizes.

The exhaustive scan enumerates every edge set on n labeled vertices as a bit
index over the lexicographically ordered possible edges.  It evaluates them
bit-sliced, up to 2^15 edge sets per block: each bit of a Python int stands
for one graph, and one subset DP over bitmasks, which shares no code with
`enumerate_maximal_cliques` (that engine re-checks the winner), counts every
lane's distinct maximal-clique sizes at once.  The best count wins, then the
smallest witnessing index.  On 2 CPUs with Python 3.11 all 2^21 graphs of
(7, 2) take about 0.016 s, the 2^20 of (6, 3) 0.003 s, and the 2^28 of (8, 2)
about 2.4 s in 64 shards.  Index ranges shard trivially and merge by one rule.
A shard's result is the checkpoint of its one range, checked before the scan.
A shard counts at most twice its own lanes: its piece of each block is
counted in the smallest aligned block that holds it, in two halves when the
piece fills less than half that block.  A process builds one scanner per
(n, k) and every shard of it reuses that one.  A checkpoint file, validated
when read back, makes long scans resumable.  It belongs to the one shard plan
(n, k, S) it was written under: a file holding a range outside the plan is
refused when opened, so recording is an append.  A sharded scan writes it at
most once every CHECKPOINT_EVERY_S, and once more when it ends or is cut short.
Past exhaustive reach, a seeded local search over families of vertex sets
with distinct sizes gives lower-bound witnesses: a family whose members are
all maximal in the k-graph of their k-subsets certifies itself by a
polynomial check, and only the reported witness is enumerated.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .hypergraphs import (
    Hypergraph,
    _below,
    _members,
    _sample_mask,
    clique_spectrum,
    edge_universe,
)

MAX_UNSHARDED_BITS = 22  # refuse unsharded scans past 2^22 edge sets
CHECKPOINT_EVERY_S = 1.0  # a sharded scan writes its checkpoint at most once a second


def hypergraph_from_edge_index(n: int, k: int, index: int) -> Hypergraph:
    universe = edge_universe(n, k)
    if index < 0 or index.bit_length() > len(universe):
        raise ValueError(f"edge index {index} outside [0, 2^{len(universe)})")
    edges = [universe[j] for j in _members(index)]
    return Hypergraph._canonical(k, n, edges)  # the index check admits universe edges only


def edge_index_of(H: Hypergraph) -> int:
    index = 0
    for j, e in enumerate(edge_universe(H.n, H.k)):
        if e in H.edges:
            index |= 1 << j
    return index


def _check_scan_size(n: int, k: int) -> None:
    if not 1 <= n <= 16 or k < 2:
        raise ValueError(f"bitmask scanner supports 1 <= n <= 16 and k >= 2, not n={n} k={k}")


BLOCK_BITS = 15  # a scan block holds 2^15 edge sets ...
LANE_TABLE_BITS = 24  # ... unless its 2^n subset table would pass 2^24 bits


class SpectrumScanner:
    """Distinct-size counts for blocks of edge sets of a fixed (n, k), bit-sliced.

    Lane i of a block is the edge-set index base + i, so each bit of a Python
    int stands for one graph and one `&` works on every lane at once.  Edge j
    is the lane mask of the graphs containing it: below the block width the
    periodic pattern of bit j, above it all ones or 0, read from base.

    Completeness DP over vertex subsets s: below k vertices s is complete, at
    k it is complete iff it is an edge, and above k iff dropping any one of
    its k + 1 lowest vertices leaves a complete set (every k-subset of s
    misses one of them).  A complete s is a maximal clique where no s | {u}
    is complete.  Every subset of a complete set is complete, so the lanes of
    the s | {u} lie within those of s: s is maximal in the lanes of s minus
    their union, one `^` of nonnegative ints.  A set of fewer than k - 1
    vertices is maximal in no lane unless it is the whole vertex set, so it
    has no extension row.  The lane masks of each size feed a bit-sliced
    counter whose planes hold every lane's distinct-size count.
    """

    def __init__(self, n: int, k: int):
        _check_scan_size(n, k)
        self.n = n
        self.bits = math.comb(n, k)
        self.width = max(0, min(BLOCK_BITS, self.bits, LANE_TABLE_BITS - n))
        self.patterns = []  # bit j over lanes 0, 1, ...: runs of 2^j zeros and 2^j ones
        for j in range(self.width):
            period = 2 << j
            lanes = ((1 << (1 << j)) - 1) << (1 << j)
            while period < 1 << self.width:
                lanes |= lanes << period
                period <<= 1
            self.patterns.append(lanes)
        position = {sum(1 << v for v in e): j for j, e in enumerate(edge_universe(n, k))}
        full = (1 << n) - 1
        self.edge_sets = []  # (s, edge index) for |s| == k
        self.plan = []  # (s, s minus each of its k + 1 lowest vertices) for |s| > k
        self.extensions = []  # (s, |s|, every s | {u}) for |s| >= k - 1 and the full set
        for s in range(1, full + 1):
            size = s.bit_count()
            if size == k:
                self.edge_sets.append((s, position[s]))
            elif size > k:
                drops, rest = [], s
                for _ in range(k + 1):
                    low = rest & -rest
                    drops.append(s ^ low)
                    rest ^= low
                self.plan.append((s, tuple(drops)))
            if size >= k - 1 or s == full:  # a smaller s | {u} is complete in every lane
                other = full ^ s
                self.extensions.append(
                    (s, size, tuple(s | 1 << u for u in range(n) if other >> u & 1))
                )

    def count_planes(self, base: int, width: int) -> List[int]:
        """Bit-sliced distinct-size counts of lanes base .. base + 2^width - 1.

        Plane p holds bit p of every lane's count.  base is a multiple of
        2^width, and width is at most the scanner's block width; ValueError
        otherwise, since a misaligned block would read the wrong edge bits.
        """
        if not 0 <= width <= self.width or base & ((1 << width) - 1):
            raise ValueError(f"no block of width {width} at base {base}: need width in "
                             f"0..{self.width} and base a multiple of 2^width")
        ones = (1 << (1 << width)) - 1
        patterns = self.patterns
        edge = [
            patterns[j] & ones if j < width else ones if base >> j & 1 else 0
            for j in range(self.bits)
        ]
        comp = [ones] * (1 << self.n)
        for s, j in self.edge_sets:
            comp[s] = edge[j]
        for s, drops in self.plan:
            lanes = ones
            for t in drops:
                lanes &= comp[t]
            comp[s] = lanes
        by_size = [0] * (self.n + 1)
        for s, size, ups in self.extensions:
            lanes = comp[s]
            if lanes:
                up = 0
                for t in ups:
                    up |= comp[t]
                by_size[size] |= lanes ^ up  # up lies within lanes, so ^ removes it
        planes: List[int] = []
        for lanes in by_size:
            p = 0
            while lanes:
                if p == len(planes):
                    planes.append(lanes)
                    break
                planes[p], lanes = planes[p] ^ lanes, planes[p] & lanes
                p += 1
        return planes

    def best_in_block(self, base: int, valid: int) -> Tuple[int, int]:
        """(best count, smallest index) over the lanes of the block at base set in valid.

        Counts the smallest block at base that holds valid's highest lane.
        """
        best = 0
        planes = self.count_planes(base, (valid.bit_length() - 1).bit_length())
        for p in reversed(range(len(planes))):
            top = valid & planes[p]
            if top:
                valid = top
                best |= 1 << p
        return best, base + (valid & -valid).bit_length() - 1

    def distinct_sizes(self, index: int) -> int:
        return sum((plane & 1) << p for p, plane in enumerate(self.count_planes(index, 0)))


@functools.lru_cache(maxsize=8)  # an n = 16 scanner holds 2^16 extension tuples
def _scanner(n: int, k: int) -> SpectrumScanner:
    """The scanner of (n, k), built once: count_planes only reads its tables."""
    return SpectrumScanner(n, k)


def scan_range(n: int, k: int, lo: int, hi: int) -> Tuple[int, int]:
    """(best distinct-size count, smallest index achieving it) over [lo, hi).

    Walks the scan blocks that meet [lo, hi).  Each block's piece [start, end)
    is counted in the smallest aligned block that holds it, with the lanes
    outside the piece masked off.  A piece under half that block is cut at
    the block's midpoint and its halves counted apart, so a shard counts
    at most twice the lanes it owns.
    """
    scanner = _scanner(n, k)
    lanes = 1 << scanner.width
    best = -1
    best_index = -1
    start = lo
    while start < hi:
        end = min(hi, (start // lanes + 1) * lanes)
        width = (start ^ (end - 1)).bit_length()
        base = start >> width << width
        if 2 * (end - start) < 1 << width:
            # each half ends or starts on the midpoint, so it fills over half its own block
            end = base + (1 << width - 1)
            width = (start ^ (end - 1)).bit_length()
            base = start >> width << width
        valid = ((1 << (end - start)) - 1) << (start - base)
        d, index = scanner.best_in_block(base, valid)
        if d > best:
            best = d
            best_index = index
        start = end
    return best, best_index


def shard_ranges(n: int, k: int, num_shards: int) -> List[Tuple[int, int]]:
    space = 1 << math.comb(n, k)
    if num_shards < 1:
        raise ValueError("need at least one shard")
    num_shards = min(num_shards, space)
    bounds = [space * i // num_shards for i in range(num_shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(num_shards)]


def _check_ranges(n: int, k: int, ranges: Sequence[Tuple[int, int]]) -> None:
    """Raise ValueError unless (n, k) is scannable and the ranges are nonempty
    integer parts of [0, 2^C(n,k)) that do not overlap.

    Once sorted, a range can overlap only its neighbours, so one sort checks all.
    """
    _check_scan_size(n, k)
    bits = math.comb(n, k)
    for r in ranges:
        if len(r) != 2 or not all(type(v) is int for v in r) or not 0 <= r[0] < r[1] <= 1 << bits:
            raise ValueError(f"range {list(r)} is not a nonempty part of [0, 2^{bits})")
    ranges = sorted(ranges)
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        if c < b:
            raise ValueError(f"ranges [{a}, {b}) and [{c}, {d}) overlap")


def run_shard(n: int, k: int, lo: int, hi: int) -> SearchCheckpoint:
    """Scan [lo, hi) after checking it; the result is the checkpoint of that one range."""
    _check_ranges(n, k, [(lo, hi)])
    best, index = scan_range(n, k, lo, hi)
    return SearchCheckpoint(n, k, [(lo, hi)], best, index)


def merge_shards(shards: Sequence[SearchCheckpoint]) -> Tuple[int, int]:
    """Deterministic merge: maximum count, then the smallest witness index."""
    ranks = ((s.best, -s.witness_edge_index) for s in shards)
    best, neg_index = max(ranks, default=(-1, 1))
    return best, -neg_index


def exhaustive_g(n: int, k: int) -> Tuple[int, Hypergraph]:
    """Exact maximum distinct-size count over all edge sets, with lex-least witness.

    Refuses index spaces past 2^22; scan slices with run_shard instead, then
    merge them with merge_shards.
    """
    _check_scan_size(n, k)
    bits = math.comb(n, k)
    if bits > MAX_UNSHARDED_BITS:
        raise ValueError(
            f"2^{bits} edge sets exceed the unsharded ceiling 2^{MAX_UNSHARDED_BITS}; "
            f"run at least 2^{bits - MAX_UNSHARDED_BITS} shards"
        )
    return exhaustive_g_sharded(n, k, 1)


def _checked_witness(n: int, k: int, best: int, index: int) -> Hypergraph:
    """The graph at index, after full enumeration confirms the search's count for it.

    Ties the scan's DP to the listing engine.
    """
    witness = hypergraph_from_edge_index(n, k, index)
    checked = clique_spectrum(witness).distinct_sizes
    if checked != best:
        raise RuntimeError(f"search counted {best} sizes at index {index}, enumeration {checked}")
    return witness


# ---------------------------------------------------------------------------
# Checkpointing: JSON document, written atomically, resumable by shard range.
# ---------------------------------------------------------------------------

@dataclass
class SearchCheckpoint:
    """Done index ranges of one (n, k) scan and the best count over them.

    A finished shard is the checkpoint of its one range.
    """

    n: int
    k: int
    shards_done: List[Tuple[int, int]]
    best: int
    witness_edge_index: int
    started_at: str = ""
    updated_at: str = ""

    def to_json(self) -> dict:
        # vars, not asdict: asdict deep-copies each range, 25 times the dump at 8,192 ranges
        return {"schema_version": 1, **vars(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "SearchCheckpoint":
        """Parse a checkpoint document, rejecting any claim a scan could not have made."""
        if not isinstance(doc, dict) or doc.get("schema_version") != 1:
            raise ValueError("checkpoint schema_version must be 1")
        try:
            cp = cls(
                n=doc["n"],
                k=doc["k"],
                shards_done=[tuple(r) for r in doc["shards_done"]],
                best=doc["best"],
                witness_edge_index=doc["witness_edge_index"],
                started_at=doc.get("started_at", ""),
                updated_at=doc.get("updated_at", ""),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"checkpoint field missing or malformed: {exc}") from None
        cp.validate()
        return cp

    def validate(self) -> None:
        """Raise ValueError unless the ranges are disjoint and the witness has best sizes."""
        n, k = self.n, self.k
        if not all(type(v) is int for v in (n, k, self.best, self.witness_edge_index)):
            raise ValueError("checkpoint needs integers n, k, best, witness_edge_index")
        _check_ranges(n, k, self.shards_done)
        if self.best >= 0:
            w = self.witness_edge_index
            if not any(lo <= w < hi for lo, hi in self.shards_done):
                raise ValueError(f"checkpoint witness index {w} lies in no done range")
            found = clique_spectrum(hypergraph_from_edge_index(n, k, w)).distinct_sizes
            if found != self.best:
                raise ValueError(f"checkpoint witness index {w} has {found} distinct sizes, not {self.best}")


def save_checkpoint(cp: SearchCheckpoint, path: str) -> None:
    # dumps, not dump: json.dump always takes the pure-Python encoder, five times slower
    text = json.dumps(cp.to_json(), sort_keys=True) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Optional[SearchCheckpoint]:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return SearchCheckpoint.from_json(json.load(fh))


def open_checkpoint(path: Optional[str], n: int, k: int,
                    ranges: Sequence[Tuple[int, int]]) -> SearchCheckpoint:
    """The checkpoint at path, or a fresh one; a file holding a range outside the
    shard plan ranges of (n, k) could never finish, so it is refused before any scan."""
    cp = load_checkpoint(path) if path else None
    if cp is None:
        return SearchCheckpoint(n, k, [], -1, -1, started_at=_now(), updated_at=_now())
    if (cp.n, cp.k) != (n, k):
        raise ValueError(f"checkpoint is for n={cp.n} k={cp.k}, not n={n} k={k}")
    plan = set(ranges)
    for lo, hi in cp.shards_done:
        if (lo, hi) not in plan:
            raise ValueError(f"checkpoint range [{lo}, {hi}) is no shard of {len(ranges)}; "
                             "was it written with another shard count?")
    return cp


def record_shard(cp: SearchCheckpoint, shard: SearchCheckpoint, path: Optional[str]) -> None:
    """Fold a finished shard into cp, stamp it and save it to path.  The caller
    passes a shard of a pending range of the plan cp was opened with."""
    cp.best, cp.witness_edge_index = merge_shards([cp, shard])
    cp.shards_done.extend(shard.shards_done)
    cp.updated_at = _now()
    if path:
        save_checkpoint(cp, path)


def exhaustive_g_sharded(
    n: int,
    k: int,
    num_shards: int,
    checkpoint_path: Optional[str] = None,
) -> Tuple[int, Hypergraph]:
    """Scan all shards (skipping checkpointed ones), merging deterministically.

    A partial checkpoint, such as single-shard runs (search-g --shard i) leave
    behind, resumes with its done shards skipped.  Finished shards are folded
    into the checkpoint in memory; the file is written once CHECKPOINT_EVERY_S
    has passed since the last write, and when the loop ends with shards
    unsaved, whether it finished or an exception or Ctrl-C cut it short.  A
    run with no pending shard writes nothing.
    """
    ranges = shard_ranges(n, k, num_shards)
    cp = open_checkpoint(checkpoint_path, n, k, ranges)
    done = set(cp.shards_done)
    saved_at = time.monotonic()
    unsaved = False
    try:
        for lo, hi in ranges:
            if (lo, hi) in done:
                continue
            record_shard(cp, run_shard(n, k, lo, hi), None)
            unsaved = True
            if checkpoint_path and time.monotonic() - saved_at >= CHECKPOINT_EVERY_S:
                save_checkpoint(cp, checkpoint_path)
                saved_at, unsaved = time.monotonic(), False
    finally:
        if checkpoint_path and unsaved:
            save_checkpoint(cp, checkpoint_path)
    return cp.best, _checked_witness(n, k, cp.best, cp.witness_edge_index)


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


# ---------------------------------------------------------------------------
# Known bounds and heuristic search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoonMoserReport:
    """Classic pairwise-graph bounds on the distinct-size count.

    Truthiness is the upper-bound verdict; the strict lower bound
    n - log2(n) - 2 log2(log2(n)) < g is evaluated from n >= 4 and reported
    alongside.
    """

    upper_bound: int
    upper_ok: bool
    lower_bound: Optional[float]
    lower_ok: Optional[bool]

    def __bool__(self) -> bool:
        return self.upper_ok


def check_moon_moser(n: int, g_value: int) -> MoonMoserReport:
    if n < 1:
        raise ValueError("n must be >= 1")
    upper = n - (n.bit_length() - 1)  # n - floor(log2 n)
    lower = lower_ok = None
    if n >= 4:
        lower = n - math.log2(n) - 2 * math.log2(math.log2(n))
        lower_ok = lower < g_value
    return MoonMoserReport(upper, g_value <= upper, lower, lower_ok)


DROP_ODDS = 50  # a drop, the one move that loses a member, is kept once in 50


def _member(mask: int, k: int) -> Tuple[int, List[int]]:
    """A family member: its vertex mask and the masks of its (k-1)-subsets."""
    bits = [1 << v for v in _members(mask)]
    return mask, list(map(sum, itertools.combinations(bits, k - 1)))


def _without(cover: dict, rest: Sequence[Tuple[int, List[int]]],
             dropped: Tuple[int, List[int]], k: int) -> dict:
    """The cover table of rest, from cover, that of rest + [dropped].

    A family's cover table maps each (k-1)-subset T of a member (see _member)
    to the union of the members that contain T, so T + v is an edge of K(F),
    the k-graph of the members' k-subsets, iff v is in T's entry.  Only the
    entries of dropped's (k-1)-subsets change: they are recomputed from the
    members of rest that meet dropped in k - 1 or more vertices.  cover is not
    modified, and is itself returned when dropped has no (k-1)-subsets.
    """
    y, subsets = dropped
    if not subsets:
        return cover
    fixed = dict.fromkeys(subsets, 0)
    for z, z_subsets in rest:
        if (z & y).bit_count() >= k - 1:
            for t in z_subsets:
                if t & y == t:
                    fixed[t] |= z
    return cover | fixed


def _admits(table: dict, rest: Sequence[Tuple[int, List[int]]], added: Tuple[int, List[int]],
            n: int, k: int) -> bool:
    """True iff every member of rest + [added] is a maximal clique of its K(F)
    on n vertices, given rest's cover table (see _without) and that rest is
    all-maximal, as every sub-family of an all-maximal family is (dropping a
    member removes edges only).

    No clique is listed.  The added set x is maximal iff no vertex outside it
    lies in the entry of each of x's (k-1)-subsets; below size k - 1 it has
    none and is maximal only as the whole vertex set.  x adds only edges
    inside x, so a member z of rest can stop being maximal only when it meets
    x in k - 1 or more vertices, and only through a vertex v of x - z.  Such a
    v extends z iff it lies in the entry of every (k-1)-subset of z not inside
    x: for T inside x, T + v is an edge of K(x).
    """
    x, subsets = added
    outside = ((1 << n) - 1) & ~x
    for t in subsets:
        outside &= table.get(t, 0)
        if not outside:
            break
    if outside:
        return False
    for z, z_subsets in rest:
        outside = x & ~z
        if outside and (z & x).bit_count() >= k - 1:
            for t in z_subsets:
                if t & x != t:
                    outside &= table[t]
                    if not outside:
                        break
            if outside:
                return False
    return True


def hill_climb_g(
    n: int,
    k: int,
    iters: int,
    seed: int,
    restarts: int = 1,
) -> Tuple[int, Hypergraph]:
    """Seeded local search over families F of vertex sets of distinct sizes.

    g(n,k) is the largest F whose members are all maximal in K(F): if H has t
    distinct sizes, pick one maximal clique of H per size; each is complete
    in K(F), a subgraph of H, and a vertex extending it there would extend it
    in H.  Conversely, if every member is maximal, K(F) has >= |F| sizes.

    Each restart starts from the empty family.  A move adds a random set of a
    random size in [k-1, n], toggles one vertex of a member, or drops one; the
    draws are those of ``randrange``, ``randint`` and ``sample``, made by
    ``_below`` and ``_sample_mask`` from one ``getrandbits`` stream.  It
    is kept when the sizes stay distinct, every member stays maximal and F
    does not shrink; a drop, which only removes edges and so needs no check,
    is kept once in DROP_ODDS.  The climb keeps F's cover table and a mask of
    its member sizes, updated only when a trial is kept or a member dropped;
    the mask rules out a size clash and _admits decides each other trial
    from the table without listing cliques (a climb of 90 checks at (12, 3) takes
    about 1.5 ms on 2 CPUs with Python 3.11, witness included).
    iters counts feasibility checks; iters=0 reports the empty family, whose
    K(F) is edgeless.  The largest F's K(F) is enumerated once, and
    RuntimeError is raised unless its count lies in [|F|, n].
    """
    getrandbits = random.Random(seed).getrandbits
    best: List[Tuple[int, List[int]]] = []
    for _ in range(max(1, restarts)):
        family: List[Tuple[int, List[int]]] = []
        cover: dict = {}
        sizes = 0  # bit s is set iff a member of family has s vertices
        spent = 0
        while spent < iters and k - 1 <= n:  # below k - 1 vertices no size can be added
            move = _below(getrandbits, 3)
            rest = family[:]
            rest_sizes = sizes
            dropped = (0, [])
            if move == 0:
                x = _sample_mask(getrandbits, n, k - 1 + _below(getrandbits, n - k + 2))
            elif not family:
                continue
            else:
                dropped = rest.pop(_below(getrandbits, len(rest)))
                rest_sizes ^= 1 << dropped[0].bit_count()
                if move == 2:
                    if _below(getrandbits, DROP_ODDS) == 0:
                        family, cover = rest, _without(cover, rest, dropped, k)
                        sizes = rest_sizes
                    continue
                x = dropped[0] ^ 1 << _below(getrandbits, n)
            if rest_sizes >> x.bit_count() & 1:
                continue
            spent += 1
            added = _member(x, k)
            table = _without(cover, rest, dropped, k)
            if _admits(table, rest, added, n, k):
                for t in added[1]:  # rest's table becomes the new family's
                    table[t] = table.get(t, 0) | x
                family, cover, sizes = rest + [added], table, rest_sizes | 1 << x.bit_count()
                if len(family) > len(best):
                    best = family
    witness = Hypergraph._canonical(k, n, {
        e for x, _ in best for e in itertools.combinations(_members(x), k)
    })
    value = clique_spectrum(witness).distinct_sizes
    if not len(best) <= value <= n:
        raise RuntimeError(f"climb kept {len(best)} maximal members of distinct sizes on {n} "
                           f"vertices, enumeration counts {value} sizes")
    return value, witness
