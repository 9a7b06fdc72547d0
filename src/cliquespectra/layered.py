"""Ordered rooted trees with a depth bound and position-indexed degree budgets.

A tree is stored with its insertion order built in: vertex i attaches to an
earlier vertex (parent index < i), so "a tree plus a qualifying ordering" is a
single object.  Validation checks the two remaining conditions: every vertex
sits within `depth` of the root, and vertex i has degree at most 2^(offset+i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from .bounds import MAX_ROUNDS, TowerInt, size_recurrence, tree_size_bound
from .hypergraphs import ParseError


@dataclass(frozen=True)
class OrderedTree:
    """Rooted tree in insertion order; parents[i-1] is the parent of vertex i."""

    parents: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        for i, p in enumerate(self.parents, start=1):
            if not 0 <= p < i:
                raise ValueError(f"vertex {i} needs a parent earlier than itself, got {p}")

    @property
    def size(self) -> int:
        return len(self.parents) + 1

    def parent(self, i: int) -> int:
        if i < 1 or i >= self.size:
            raise ValueError(f"vertex {i} has no parent")
        return self.parents[i - 1]

    @cached_property
    def children(self) -> Tuple[Tuple[int, ...], ...]:
        kids: List[List[int]] = [[] for _ in range(self.size)]
        for i, p in enumerate(self.parents, start=1):
            kids[p].append(i)
        return tuple(tuple(c) for c in kids)

    @cached_property
    def depths(self) -> Tuple[int, ...]:
        d = [0] * self.size
        for i, p in enumerate(self.parents, start=1):
            d[i] = d[p] + 1
        return tuple(d)

    @cached_property
    def degrees(self) -> Tuple[int, ...]:
        deg = [len(c) for c in self.children]
        for i in range(1, self.size):
            deg[i] += 1
        return tuple(deg)

    def subtree(self, root: int) -> List[int]:
        """Vertices of the subtree rooted at `root`, in increasing order."""
        out = []
        stack = [root]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children[v])
        return sorted(out)


@dataclass(frozen=True)
class LayeredParams:
    """depth: root-distance bound (>= 1); offset: degree-budget offset (>= 0)."""

    depth: int
    offset: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.offset < 0:
            raise ValueError("offset must be >= 0")


@dataclass(frozen=True)
class Violation:
    vertex: int
    condition: str  # "depth" or "degree"
    message: str

    def __str__(self) -> str:
        return self.message


def _degree_within(degree: int, exponent: int) -> bool:
    # degree <= 2^exponent without materializing huge powers
    if exponent >= degree.bit_length():
        return True
    return degree <= (1 << exponent)


def validate_layered(tree: OrderedTree, params: LayeredParams) -> List[Violation]:
    """Empty list when the tree meets both budgets; violations name the vertex."""
    out = []
    for i, d in enumerate(tree.depths):
        if d > params.depth:
            out.append(
                Violation(i, "depth", f"vertex {i}: distance {d} from root exceeds {params.depth}")
            )
    for i, deg in enumerate(tree.degrees):
        if not _degree_within(deg, params.offset + i):
            out.append(
                Violation(
                    i, "degree", f"vertex {i}: degree {deg} exceeds 2^{params.offset + i}"
                )
            )
    return out


def contract(tree: OrderedTree, count: int) -> OrderedTree:
    """Merge the first `count` root children into a new root, dropping the old one.

    The tree is first truncated at the insertion position of root child
    count+1 (or kept whole if there is none); the merged children become a
    single new first vertex, their edges to deeper vertices re-attach to it,
    and the old root disappears.  Remaining vertices keep their relative
    order, so the result has truncation_point - count vertices.
    """
    root_children = list(tree.children[0])
    m = len(root_children)
    if not 1 <= count <= m:
        raise ValueError(f"count must be in 1..{m}, got {count}")
    cut = root_children[count] if count < m else tree.size
    merged = set(root_children[:count])
    kept = [j for j in range(1, cut) if j not in merged]
    index = {old: new for new, old in enumerate(kept, start=1)}
    new_parents = []
    for old in kept:
        p = tree.parent(old)
        new_parents.append(0 if p in merged else index[p])
    return OrderedTree(tuple(new_parents))


def is_dfs_order(tree: OrderedTree) -> bool:
    """True iff insertion order is a depth-first traversal of the tree.

    Equivalently, each new vertex attaches somewhere on the root-to-latest
    path; attaching below an already-closed subtree breaks the order.
    """
    stack = [0]
    for i in range(1, tree.size):
        p = tree.parent(i)
        while stack and stack[-1] != p:
            stack.pop()
        if not stack:
            return False
        stack.append(i)
    return True


@dataclass(frozen=True)
class MaxTreeSize:
    value: TowerInt
    exactness: str  # "exact" or "upper_bound"


def max_layered_size(params: LayeredParams) -> MaxTreeSize:
    """Largest vertex count any (depth, offset)-budgeted tree can reach.

    Exact closed forms exist for depth 1 (2^offset + 1: a star at the root)
    and depth 2 (the greedy fill recurrence at index 2^offset); deeper trees
    get the recursive upper bound, flagged as such.
    """
    if params.depth == 1:
        return MaxTreeSize(tree_size_bound(1, params.offset), "exact")
    if params.depth == 2:
        if params.offset >= MAX_ROUNDS.bit_length():  # 2^offset > MAX_ROUNDS
            raise ValueError(f"depth-2 maximum needs 2^{params.offset} recurrence steps")
        return MaxTreeSize(size_recurrence(params.offset, 1 << params.offset), "exact")
    return MaxTreeSize(tree_size_bound(params.depth, params.offset), "upper_bound")


GREEDY_TREE_CAP = 1_000_000  # the max-tree builders refuse trees past this many vertices


def _max_tree_size(depth: int, offset: int) -> int:
    """Vertex count of the largest (depth, offset) tree for depth 1 or 2, or
    ValueError past GREEDY_TREE_CAP; past MAX_ROUNDS steps it is named, not computed."""
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if depth == 1:
        target = tree_size_bound(1, offset)
    else:
        target = size_recurrence(offset, 1 << offset) if offset < MAX_ROUNDS.bit_length() else None
    if target is None or not target.is_exact or target.to_int() > GREEDY_TREE_CAP:
        size = target.describe() if target is not None else f"s_(2^{offset})"
        raise ValueError(f"tree would need {size} vertices, over the cap of {GREEDY_TREE_CAP}")
    return target.to_int()


def build_star_max_tree(offset: int) -> OrderedTree:
    """Largest depth-1 tree for the given offset: the root with 2^offset leaves."""
    _max_tree_size(1, offset)
    return star_tree(1 << offset)


def build_greedy_max_tree(offset: int) -> OrderedTree:
    """Largest depth-2 tree for the given offset, in DFS insertion order.

    The root takes its full budget of 2^offset children; each child is
    inserted and immediately saturated with the leaf count its own positional
    budget allows before the next child appears.
    """
    target = _max_tree_size(2, offset)
    parents: List[int] = []
    count = 1
    for _ in range(1 << offset):
        pos = count
        parents.append(0)
        count += 1
        leaves = (1 << (offset + pos)) - 1  # positional degree budget minus the root edge
        parents.extend([pos] * leaves)
        count += leaves
    if count != target:
        raise RuntimeError(f"greedy tree has {count} vertices, the recurrence {target}")
    return OrderedTree(tuple(parents))


def star_tree(leaf_count: int) -> OrderedTree:
    """Root plus leaf_count direct children: the depth-1 maximum at offset log2."""
    return OrderedTree(tuple([0] * leaf_count))


def brute_force_max_layered(params: LayeredParams, n_cap: int) -> int:
    """Exact maximum vertex count up to n_cap by scanning every parent array.

    Parent arrays with parent[i] < i range over all trees in all admissible
    insertion orders, which is exactly the object the budgets constrain.
    Valid trees are closed under truncation, so the first admissible size
    found when descending is the maximum.
    """
    if n_cap > 8:
        raise ValueError(f"refusing n_cap = {n_cap} > 8 ((n-1)! parent arrays)")
    for s in range(n_cap, 0, -1):
        for combo in itertools.product(*(range(i) for i in range(1, s))):
            if not validate_layered(OrderedTree(combo), params):
                return s
    return 0


# ---------------------------------------------------------------------------
# Text format: first line is the vertex count, then one parent index per line
# for vertices 1, 2, ...; '#' comments allowed.
# ---------------------------------------------------------------------------

def parse_tree(text: str) -> OrderedTree:
    size = None
    parents: List[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise ParseError(f"expected an integer, got {line!r}", lineno) from None
        if size is None:
            if value < 1:
                raise ParseError("vertex count must be >= 1", lineno)
            size = value
            continue
        if len(parents) >= size - 1:
            raise ParseError(f"more than {size - 1} parent lines", lineno)
        i = len(parents) + 1
        if not 0 <= value < i:
            raise ParseError(f"parent of vertex {i} must be in 0..{i - 1}", lineno)
        parents.append(value)
    if size is None:
        raise ParseError("missing vertex count header", 1)
    if len(parents) != size - 1:
        raise ParseError(f"expected {size - 1} parent lines, got {len(parents)}", 1)
    return OrderedTree(tuple(parents))


def serialize_tree(tree: OrderedTree) -> str:
    lines = [str(tree.size)]
    lines.extend(str(p) for p in tree.parents)
    return "\n".join(lines) + "\n"
