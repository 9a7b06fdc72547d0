"""Exact and heuristic search for the maximum number of distinct clique sizes.

The exhaustive scan enumerates every edge set on n labeled vertices as a bit
index over the lexicographically ordered possible edges, evaluates each
graph's distinct maximal-clique sizes with a subset DP over bitmasks that
shares no code with `enumerate_maximal_cliques` (which re-checks the winner),
and keeps the best count with the smallest witnessing index.  Index ranges
shard trivially and merge by one rule; a checkpoint file makes long scans
resumable.  Hill climbing over single edge flips, each neighbor evaluated by
enumeration, provides lower-bound witnesses past exhaustive reach.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .hypergraphs import Hypergraph, clique_spectrum

MAX_UNSHARDED_BITS = 22  # refuse unsharded scans past 2^22 edge sets


def edge_universe(n: int, k: int) -> List[Tuple[int, ...]]:
    """All possible edges in lexicographic order; bit j of an index = edge j."""
    return list(itertools.combinations(range(n), k))


def hypergraph_from_edge_index(n: int, k: int, index: int) -> Hypergraph:
    edges = [e for j, e in enumerate(edge_universe(n, k)) if index >> j & 1]
    return Hypergraph.from_edges(k, n, edges)


def edge_index_of(H: Hypergraph) -> int:
    index = 0
    for j, e in enumerate(edge_universe(H.n, H.k)):
        if e in H.edges:
            index |= 1 << j
    return index


class SpectrumScanner:
    """Distinct-size counter for every edge set of a fixed (n, k), bitmask based.

    completeness DP: a subset is complete iff dropping its lowest vertex v
    leaves a complete set whose every (k-1)-subset closes an edge with v.
    A complete subset is a maximal clique iff no single-vertex superset is
    complete, which the same table answers.
    """

    def __init__(self, n: int, k: int):
        if n > 16:
            raise ValueError("bitmask scanner supports n <= 16")
        self.n = n
        self.k = k
        self.universe = edge_universe(n, k)
        size = 1 << n
        self.full = size - 1
        plan = []
        for s in range(1, size):
            rest = s & (s - 1)
            plan.append((s, rest, (s & -s).bit_length() - 1))
        self.plan = plan
        self.popcount = [m.bit_count() for m in range(size)]
        if k == 2:
            # adjacency bitmask refresh plan: (edge bit j, vertex a, vertex b, masks)
            self.pair_bits = [
                (a, b, 1 << a, 1 << b) for a, b in self.universe
            ]
        else:
            # per-subset list of (k-1)-submasks, shared across all graphs
            self.subk1 = [
                tuple(
                    sum(1 << v for v in combo)
                    for combo in itertools.combinations(
                        [v for v in range(n) if m >> v & 1], k - 1
                    )
                )
                for m in range(size)
            ]
            self.edge_members = [
                (sum(1 << v for v in e), e) for e in self.universe
            ]

    def sizes_mask(self, index: int) -> int:
        """Bitmask with bit s set iff some maximal clique has size s."""
        n, full = self.n, self.full
        comp = bytearray(full + 1)
        comp[0] = 1
        if self.k == 2:
            adj = [0] * n
            bit = 1
            for a, b, ma, mb in self.pair_bits:
                if index & bit:
                    adj[a] |= mb
                    adj[b] |= ma
                bit <<= 1
            for s, rest, v in self.plan:
                if comp[rest] and rest & adj[v] == rest:
                    comp[s] = 1
        else:
            present = [set() for _ in range(n)]  # per vertex: (k-1)-masks closing an edge
            bit = 1
            for mask, members in self.edge_members:
                if index & bit:
                    for v in members:
                        present[v].add(mask ^ (1 << v))
                bit <<= 1
            subk1 = self.subk1
            for s, rest, v in self.plan:
                if comp[rest]:
                    have = present[v]
                    for need in subk1[rest]:
                        if need not in have:
                            break
                    else:
                        comp[s] = 1
        sizes = 0
        popcount = self.popcount
        for s, rest, v in self.plan:
            if comp[s]:
                other = full ^ s
                while other:
                    b = other & -other
                    if comp[s | b]:
                        break
                    other ^= b
                else:
                    sizes |= 1 << popcount[s]
        return sizes

    def distinct_sizes(self, index: int) -> int:
        return self.sizes_mask(index).bit_count()


def scan_range(n: int, k: int, lo: int, hi: int) -> Tuple[int, int]:
    """(best distinct-size count, smallest index achieving it) over [lo, hi)."""
    scanner = SpectrumScanner(n, k)
    best = -1
    best_index = -1
    evaluate = scanner.distinct_sizes
    for index in range(lo, hi):
        d = evaluate(index)
        if d > best:
            best = d
            best_index = index
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
        space = 1 << len(edge_universe(self.n, self.k))
        if not 0 <= self.mask_lo < self.mask_hi <= space:
            raise ValueError(
                f"shard range [{self.mask_lo}, {self.mask_hi}) outside [0, {space})"
            )

    @property
    def witness(self) -> Hypergraph:
        return hypergraph_from_edge_index(self.n, self.k, self.witness_edge_index)


def shard_ranges(n: int, k: int, num_shards: int) -> List[Tuple[int, int]]:
    space = 1 << len(edge_universe(n, k))
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
    bits = len(edge_universe(n, k))
    if bits > MAX_UNSHARDED_BITS:
        needed = 1 << (bits - MAX_UNSHARDED_BITS)
        raise ValueError(
            f"2^{bits} edge sets exceed the unsharded ceiling 2^{MAX_UNSHARDED_BITS}; "
            f"run at least {needed} shards"
        )
    best, index = scan_range(n, k, 0, 1 << bits)
    witness = hypergraph_from_edge_index(n, k, index)
    checked = clique_spectrum(witness).distinct_sizes  # ties the scan's DP to the engine
    if checked != best:
        raise RuntimeError(f"scan counts {best} sizes at index {index}, enumeration {checked}")
    return best, witness


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
        return cls(
            n=doc["n"],
            k=doc["k"],
            shards_done=[tuple(r) for r in doc["shards_done"]],
            best=doc["best"],
            witness_edge_index=doc["witness_edge_index"],
            started_at=doc.get("started_at", ""),
            updated_at=doc.get("updated_at", ""),
        )


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
    return cp.best, hypergraph_from_edge_index(n, k, cp.witness_edge_index)


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
    neighbors; iters=0 reports the start graph of the first restart.
    """
    rng = random.Random(seed)
    bits = len(edge_universe(n, k))

    def evaluate(index):
        return clique_spectrum(hypergraph_from_edge_index(n, k, index)).distinct_sizes

    best = -1
    best_index = -1
    for _ in range(max(1, restarts)):
        mask = rng.getrandbits(bits) if bits else 0
        current = evaluate(mask)
        if current > best:
            best, best_index = current, mask
        spent = 0
        improved = True
        while improved and spent < iters:
            improved = False
            for e in rng.sample(range(bits), bits):
                if spent >= iters:
                    break
                flipped = mask ^ (1 << e)
                value = evaluate(flipped)
                spent += 1
                if value > current:
                    mask, current = flipped, value
                    improved = True
                    break
        if current > best:
            best, best_index = current, mask
    if best > n:
        raise RuntimeError(f"hill climb reported {best} distinct sizes on {n} vertices")
    return best, hypergraph_from_edge_index(n, k, best_index)
