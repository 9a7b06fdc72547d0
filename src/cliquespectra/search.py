"""Exact and heuristic search for the maximum number of distinct clique sizes.

The exhaustive scan enumerates every edge set on n labeled vertices as a bit
index over the lexicographically ordered possible edges.  It evaluates them
bit-sliced, up to 2^15 edge sets per block: each bit of a Python int stands
for one graph, and one subset DP over bitmasks, which shares no code with
`enumerate_maximal_cliques` (that engine re-checks the winner), counts every
lane's distinct maximal-clique sizes at once.  The best count wins, then the
smallest witnessing index.  On 2 CPUs with Python 3.11 all 2^21 graphs of
(7, 2) take about 0.04 s, the 2^20 of (6, 3) 0.03 s, and the 2^28 of (8, 2)
about 9 s in 64 shards.  Index ranges shard trivially and merge by one rule;
a checkpoint file, validated when read back, makes long scans resumable.
Hill climbing over single edge flips provides lower-bound witnesses past
exhaustive reach.  It keeps one link map per restart, toggles each flipped
edge in and out of it, and counts each neighbor with the engine's sizes-only
mode (`count_distinct_sizes`); only the reported witness is enumerated.
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

from .hypergraphs import Hypergraph, clique_spectrum, count_distinct_sizes, link_map, toggle_edge

MAX_UNSHARDED_BITS = 22  # refuse unsharded scans past 2^22 edge sets


@functools.lru_cache(maxsize=8)
def edge_universe(n: int, k: int) -> Tuple[Tuple[int, ...], ...]:
    """All possible edges in lexicographic order; bit j of an index = edge j."""
    return tuple(itertools.combinations(range(n), k))


def hypergraph_from_edge_index(n: int, k: int, index: int) -> Hypergraph:
    universe = edge_universe(n, k)
    if index < 0 or index.bit_length() > len(universe):
        raise ValueError(f"edge index {index} outside [0, 2^{len(universe)})")
    edges = []
    while index:
        low = index & -index
        edges.append(universe[low.bit_length() - 1])
        index ^= low
    return Hypergraph._canonical(k, n, edges)  # the index check admits universe edges only


def edge_index_of(H: Hypergraph) -> int:
    index = 0
    for j, e in enumerate(edge_universe(H.n, H.k)):
        if e in H.edges:
            index |= 1 << j
    return index


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
    is complete.  The lane masks of each size feed a bit-sliced counter whose
    planes hold every lane's distinct-size count.
    """

    def __init__(self, n: int, k: int):
        if n > 16:
            raise ValueError("bitmask scanner supports n <= 16")
        self.n = n
        self.k = k
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
        self.extensions = []  # (s, |s|, every s | {u})
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
            other = full ^ s
            self.extensions.append(
                (s, size, tuple(s | 1 << u for u in range(n) if other >> u & 1))
            )

    def count_planes(self, base: int, width: int) -> List[int]:
        """Bit-sliced distinct-size counts of lanes base .. base + 2^width - 1.

        Plane p holds bit p of every lane's count.  base is a multiple of
        2^width, and width is at most the scanner's block width.
        """
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
            for t in ups:
                if not lanes:
                    break
                lanes &= ~comp[t]
            by_size[size] |= lanes
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
        """(best count, smallest index) over the lanes of the block at base set in valid."""
        best = 0
        planes = self.count_planes(base, self.width)
        for p in reversed(range(len(planes))):
            top = valid & planes[p]
            if top:
                valid = top
                best |= 1 << p
        return best, base + (valid & -valid).bit_length() - 1

    def distinct_sizes(self, index: int) -> int:
        return sum((plane & 1) << p for p, plane in enumerate(self.count_planes(index, 0)))


def scan_range(n: int, k: int, lo: int, hi: int) -> Tuple[int, int]:
    """(best distinct-size count, smallest index achieving it) over [lo, hi).

    Walks the aligned blocks that meet [lo, hi), masking off the lanes outside.
    """
    scanner = SpectrumScanner(n, k)
    lanes = 1 << scanner.width
    best = -1
    best_index = -1
    base = lo - lo % lanes
    while base < hi:
        valid = (1 << min(hi - base, lanes)) - 1
        if base < lo:
            valid ^= (1 << (lo - base)) - 1
        d, index = scanner.best_in_block(base, valid)
        if d > best:
            best = d
            best_index = index
        base += lanes
    return best, best_index


@dataclass(frozen=True)
class SearchShard:
    n: int
    k: int
    mask_lo: int
    mask_hi: int
    best_found: int
    witness_edge_index: int

    def __post_init__(self):
        space = 1 << math.comb(self.n, self.k)
        if not 0 <= self.mask_lo < self.mask_hi <= space:
            raise ValueError(
                f"shard range [{self.mask_lo}, {self.mask_hi}) outside [0, {space})"
            )


def shard_ranges(n: int, k: int, num_shards: int) -> List[Tuple[int, int]]:
    space = 1 << math.comb(n, k)
    if num_shards < 1:
        raise ValueError("need at least one shard")
    num_shards = min(num_shards, space)
    bounds = [space * i // num_shards for i in range(num_shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(num_shards)]


def run_shard(n: int, k: int, lo: int, hi: int) -> SearchShard:
    best, index = scan_range(n, k, lo, hi)
    return SearchShard(n, k, lo, hi, best, index)


def merge_shards(shards: Sequence[SearchShard]) -> Tuple[int, int]:
    """Deterministic merge: maximum count, then the smallest witness index."""
    ranks = ((s.best_found, -s.witness_edge_index) for s in shards)
    best, neg_index = max(ranks, default=(-1, 1))
    return best, -neg_index


def exhaustive_g(n: int, k: int) -> Tuple[int, Hypergraph]:
    """Exact maximum distinct-size count over all edge sets, with lex-least witness.

    Refuses index spaces past 2^22; scan slices with run_shard instead, then
    merge them with merge_shards.
    """
    bits = math.comb(n, k)
    if bits > MAX_UNSHARDED_BITS:
        needed = 1 << (bits - MAX_UNSHARDED_BITS)
        raise ValueError(
            f"2^{bits} edge sets exceed the unsharded ceiling 2^{MAX_UNSHARDED_BITS}; "
            f"run at least {needed} shards"
        )
    best, index = scan_range(n, k, 0, 1 << bits)
    return best, _checked_witness(n, k, best, index)


def _checked_witness(n: int, k: int, best: int, index: int) -> Hypergraph:
    """The graph at index, after full enumeration confirms the search's count for it.

    Ties the scan's DP and the climb's sizes-only count to the listing engine.
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
    n: int
    k: int
    shards_done: List[Tuple[int, int]]
    best: int
    witness_edge_index: int
    started_at: str = ""
    updated_at: str = ""

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "k": self.k,
            "shards_done": [list(r) for r in self.shards_done],
            "best": self.best,
            "witness_edge_index": self.witness_edge_index,
            "started_at": self.started_at,
            "updated_at": self.updated_at,
        }

    @property
    def best_found(self) -> int:  # a checkpoint merges like the shards it has folded in
        return self.best

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
        numbers = (n, k, self.best, self.witness_edge_index)
        if not all(type(v) is int for v in numbers) or not (1 <= n <= 16 and k >= 2):
            raise ValueError("checkpoint needs integers best, witness_edge_index, 1 <= n <= 16, k >= 2")
        bits = math.comb(n, k)
        for r in self.shards_done:
            if len(r) != 2 or not all(type(v) is int for v in r) or not 0 <= r[0] < r[1] <= 1 << bits:
                raise ValueError(f"checkpoint range {list(r)} is not a nonempty part of [0, 2^{bits})")
        ranges = sorted(self.shards_done)
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            if c < b:
                raise ValueError(f"checkpoint ranges [{a}, {b}) and [{c}, {d}) overlap")
        if self.best >= 0:
            w = self.witness_edge_index
            if not any(lo <= w < hi for lo, hi in ranges):
                raise ValueError(f"checkpoint witness index {w} lies in no done range")
            found = clique_spectrum(hypergraph_from_edge_index(n, k, w)).distinct_sizes
            if found != self.best:
                raise ValueError(f"checkpoint witness index {w} has {found} distinct sizes, not {self.best}")


def save_checkpoint(cp: SearchCheckpoint, path: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(cp.to_json(), fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Optional[SearchCheckpoint]:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return SearchCheckpoint.from_json(json.load(fh))


def open_checkpoint(path: Optional[str], n: int, k: int) -> SearchCheckpoint:
    """The checkpoint at path, or a fresh one when there is none (or no path)."""
    cp = load_checkpoint(path) if path else None
    if cp is None:
        return SearchCheckpoint(n, k, [], -1, -1, started_at=_now(), updated_at=_now())
    if (cp.n, cp.k) != (n, k):
        raise ValueError(f"checkpoint is for n={cp.n} k={cp.k}, not n={n} k={k}")
    return cp


def record_shard(cp: SearchCheckpoint, shard: SearchShard, path: Optional[str]) -> bool:
    """Merge a finished shard into cp and save it to path; False if it was already done."""
    span = (shard.mask_lo, shard.mask_hi)
    if span in cp.shards_done:
        return False
    for lo, hi in cp.shards_done:
        if lo < shard.mask_hi and shard.mask_lo < hi:
            raise ValueError(f"shard [{span[0]}, {span[1]}) overlaps checkpointed range [{lo}, {hi}); "
                             "was it written with another shard count?")
    cp.best, cp.witness_edge_index = merge_shards([cp, shard])
    cp.shards_done.append(span)
    cp.updated_at = _now()
    if path:
        save_checkpoint(cp, path)
    return True


def exhaustive_g_sharded(
    n: int,
    k: int,
    num_shards: int,
    checkpoint_path: Optional[str] = None,
    max_shards_this_run: Optional[int] = None,
) -> Optional[Tuple[int, Hypergraph]]:
    """Scan all shards (skipping checkpointed ones), merging deterministically.

    Returns None when max_shards_this_run stops the scan early (the
    checkpoint then carries the partial state for a later resume).
    """
    ranges = shard_ranges(n, k, num_shards)
    cp = open_checkpoint(checkpoint_path, n, k)
    done = set(cp.shards_done)
    ran = 0
    for lo, hi in ranges:
        if (lo, hi) in done:
            continue
        if max_shards_this_run is not None and ran >= max_shards_this_run:
            return None
        record_shard(cp, run_shard(n, k, lo, hi), checkpoint_path)
        ran += 1
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

    n: int
    g_value: int
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
    return MoonMoserReport(n, g_value, upper, g_value <= upper, lower, lower_ok)


def hill_climb_g(
    n: int,
    k: int,
    iters: int,
    seed: int,
    restarts: int = 1,
) -> Tuple[int, Hypergraph]:
    """First-improvement hill climbing over single edge flips.

    Deterministic for a fixed seed (one Mersenne Twister stream drives starts
    and flip orders).  iters counts objective evaluations of flipped
    neighbors; iters=0 reports the start graph of the first restart.  Each
    restart builds one link map and keeps it across flips: a neighbor is
    toggled in, counted by the engine's sizes-only mode and toggled back
    unless it improves.  The reported witness is re-checked by full
    enumeration, so a counting bug raises RuntimeError instead of printing.
    """
    rng = random.Random(seed)
    bits = math.comb(n, k)
    edge_masks = [sum(1 << v for v in e) for e in edge_universe(n, k)]

    best = -1
    best_index = -1
    for _ in range(max(1, restarts)):
        mask = rng.getrandbits(bits) if bits else 0
        # character j of the reversed binary string is bit j of mask
        link = link_map(m for m, bit in zip(edge_masks, reversed(bin(mask))) if bit == "1")
        current = count_distinct_sizes(link, k, n)
        if current > best:
            best, best_index = current, mask
        spent = 0
        improved = True
        while improved and spent < iters:
            improved = False
            for e in rng.sample(range(bits), bits):
                if spent >= iters:
                    break
                toggle_edge(link, edge_masks[e])
                value = count_distinct_sizes(link, k, n)
                spent += 1
                if value > current:
                    mask, current = mask ^ (1 << e), value
                    improved = True
                    break
                toggle_edge(link, edge_masks[e])
        if current > best:
            best, best_index = current, mask
    if best > n:
        raise RuntimeError(f"hill climb reported {best} distinct sizes on {n} vertices")
    return best, _checked_witness(n, k, best, best_index)
