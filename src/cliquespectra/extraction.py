"""Tree extraction from a hypergraph's maximal-clique spectrum.

``extract_tree`` picks one representative maximal clique per distinct size,
the lex-smallest, and takes them by decreasing size.  It grows a rooted tree
one clique at a time: a two-step descent walks down from the root as long as
some child already owns the new clique's slice of the current node's removed
set, and attaches the clique where no child matches.  Each node u keeps a
surviving core A_u (its clique intersected with its parent's core) and a
removed set B_u (the rest of the parent's core).  The resulting tree is depth-
and degree-budgeted with depth k-1 and offset equal to the slack
C = n - #distinct sizes, and every identity the construction promises is
re-checked by an independent validator that emits a machine-checkable
certificate.  An explicit slack above that C certifies the same tree for the
looser budgets.  The validator never raises on a result whose fields have
their declared types: one gate decides first whether it can be evaluated at
all, and a malformed one gets a single structural note in place of every
check.

The module also stress-tests the union-completeness implication behind the
distance bound.  ``completeness_implication(H, sets)`` is the validating form
on ``Hypergraph.is_complete``.  ``implication_trials`` runs the same rule on
vertex bitmasks and a miss mask, bit j set where the edge at position j of
``edge_universe(n, k)`` was not drawn, so a trial builds no Hypergraph: a
union is complete iff the miss mask and the mask of its k-subsets' positions
share no bit.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .hypergraphs import (
    Hypergraph,
    VertexSet,
    _below,
    _draw_misses,
    _kept_edges,
    _members,
    _sample_mask,
    clique_spectrum,
    edge_universe,
)
from .layered import LayeredParams, OrderedTree, validate_layered


@dataclass(frozen=True)
class CliqueChain:
    """Distinct-size clique representatives with their core/removed sets.

    cliques[i] is the representative of the i-th largest distinct size; A[i]
    and B[i] are the surviving core and removed set of tree node i.  C is the
    slack n - len(cliques) allowance the caller granted.
    """

    cliques: Tuple[VertexSet, ...]
    A: Tuple[VertexSet, ...]
    B: Tuple[VertexSet, ...]
    C: int


@dataclass(frozen=True)
class PathDecomposition:
    """Derived sets along one root-to-node path y_0..y_r.

    S[i] (i >= 1) is the slice of clique y_i inside the removed set of
    y_{i-1}; S[0] is empty.  U joins the deepest node's core with its own
    slice, W is the core one step above the deepest node.
    """

    path: Tuple[int, ...]
    S: Tuple[VertexSet, ...]
    U: VertexSet
    W: VertexSet


@dataclass(frozen=True)
class ExtractionResult:
    tree: OrderedTree
    chain: CliqueChain
    certificate: Tuple[PathDecomposition, ...]


def extract_tree(H: Hypergraph, slack: Optional[int] = None) -> ExtractionResult:
    """Run the descent construction and package the certified result.

    The representatives are the lex-smallest maximal clique of each distinct
    size, largest first.  With slack=None the tightest valid value
    n - #distinct sizes is used; an explicit slack must leave at least
    n - slack distinct sizes.  The output is a pure function of (H, slack).
    A descent step requires the matching child to be unique; a tie means the
    construction's own invariant broke, which is reported loudly as a bug,
    never mapped to a user error.
    """
    spectrum = clique_spectrum(H)
    distinct = spectrum.distinct_sizes
    if slack is None:
        slack = H.n - distinct
    if distinct < H.n - slack:
        raise ValueError(
            f"insufficient distinct sizes: {distinct} < n - C = {H.n - slack}"
        )
    X = tuple(spectrum.witnesses[s] for s in sorted(spectrum.witnesses, reverse=True))
    V = H.vertices
    A: List[VertexSet] = [X[0]]
    B: List[VertexSet] = [V - X[0]]
    parents: List[int] = []
    children: Dict[int, List[int]] = {0: []}
    for i in range(1, len(X)):
        u = 0
        while True:
            slice_here = X[i] & B[u]
            matches = [w for w in children[u] if X[w] & B[u] == slice_here]
            if len(matches) > 1:
                raise RuntimeError(
                    f"descent invariant broke at node {u}: children {matches} share "
                    f"the removed-set slice {sorted(slice_here)}"
                )
            if not matches:
                break
            u = matches[0]
        parents.append(u)
        children[u].append(i)
        children[i] = []
        A.append(A[u] & X[i])
        B.append(A[u] - X[i])
    tree = OrderedTree(tuple(parents))
    certificate = tuple(
        _path_decomposition(X, A, B, tree, node) for node in range(1, tree.size)
    )
    return ExtractionResult(tree, CliqueChain(X, tuple(A), tuple(B), slack), certificate)


def _root_path(tree: OrderedTree, node: int) -> Tuple[int, ...]:
    path = [node]
    while path[-1] != 0:
        path.append(tree.parent(path[-1]))
    return tuple(reversed(path))


def _path_decomposition(X: Sequence[VertexSet], A: Sequence[VertexSet], B: Sequence[VertexSet],
                        tree: OrderedTree, node: int) -> PathDecomposition:
    path = _root_path(tree, node)
    r = len(path) - 1
    S: List[VertexSet] = [frozenset()]
    for i in range(1, r + 1):
        S.append(X[path[i]] & B[path[i - 1]])
    return PathDecomposition(path, tuple(S), A[path[r]] | S[r], A[path[r - 1]])


def _partitions(pieces: Sequence[VertexSet], whole: VertexSet) -> bool:
    """True iff the pieces are pairwise disjoint and their union is whole."""
    union: set = set()
    total = 0
    for piece in pieces:
        union |= piece
        total += len(piece)
    return total == len(whole) and union == whole


# ---------------------------------------------------------------------------
# Certificate validation: everything is re-derived from (H, cliques, tree) and
# checked, never trusted; the stored certificate must additionally agree with
# the re-derivation.
# ---------------------------------------------------------------------------

CHECK_NAMES = (
    "chain_maximal",
    "chain_sizes",
    "sets_definitions",
    "sets_disjoint_from_clique",
    "sets_size_bound",
    "children_distinct",
    "slices_nonempty",
    "slices_disjoint",
    "path_partition",
    "clique_decomposition",
    "descendant_stability",
    "containment_chain",
    "distance_bound",
    "degree_bound",
    "stored_matches_derived",
)


def _shape_problem(result: ExtractionResult, H: Hypergraph) -> Optional[str]:
    """The first reason the result cannot be evaluated against H, or None.

    Past this gate every index the checks take is in range, C is a valid
    degree offset, every set is a frozenset and every clique lies inside
    V(H), so no check raises.
    """
    chain, tree = result.chain, result.tree
    t1 = len(chain.cliques)
    if tree.size != t1:
        return f"tree has {tree.size} vertices for {t1} chain cliques"
    if len(chain.A) != t1 or len(chain.B) != t1:
        return f"chain has {len(chain.A)} A and {len(chain.B)} B sets for {t1} cliques"
    if type(chain.C) is not int or chain.C < 0:
        return f"C = {chain.C!r} is not an integer >= 0"
    for name, sets in (("X", chain.cliques), ("A", chain.A), ("B", chain.B)):
        for i, s in enumerate(sets):
            if not isinstance(s, frozenset):
                return f"{name}_{i} is not a frozenset"
    V = H.vertices
    for i, clique in enumerate(chain.cliques):
        if not clique <= V:
            return f"X_{i} has a vertex outside 0..{H.n - 1}"
    if len(result.certificate) != t1 - 1:
        return f"{len(result.certificate)} stored paths for {t1 - 1} non-root nodes"
    for node, pd in enumerate(result.certificate, start=1):
        if pd.path != _root_path(tree, node):
            return f"stored path {list(pd.path)} is not the root path of node {node}"
        if len(pd.S) != len(pd.path):
            return f"stored path of node {node} has {len(pd.S)} slices for {len(pd.path)} path nodes"
        if not all(isinstance(s, frozenset) for s in (*pd.S, pd.U, pd.W)):
            return f"stored path of node {node} holds a set that is not a frozenset"
    return None


def run_certificate_checks(result: ExtractionResult, H: Hypergraph) -> List[Tuple[str, List[str]]]:
    """All named checks with their violation lists (empty = pass), fixed order."""
    note = _shape_problem(result, H)
    if note:
        # Structurally broken certificate: nothing clique-indexed can be trusted.
        return [(name, [note] if name == "stored_matches_derived" else [f"not evaluated: {note}"])
                for name in CHECK_NAMES]

    problems: Dict[str, List[str]] = {name: [] for name in CHECK_NAMES}
    chain, tree = result.chain, result.tree
    X = chain.cliques
    t1 = len(X)
    V = H.vertices
    C = chain.C

    for i, clique in enumerate(X):
        if not H.is_maximal_clique(clique):
            problems["chain_maximal"].append(f"X_{i} = {sorted(clique)} is not a maximal clique")

    if t1 < H.n - C:
        problems["chain_sizes"].append(f"only {t1} cliques for n - C = {H.n - C}")
    for i in range(1, t1):
        if len(X[i]) >= len(X[i - 1]):
            problems["chain_sizes"].append(f"sizes not strictly decreasing at X_{i}")
    for i in range(t1):
        if len(X[i]) < H.n - C - i:
            problems["chain_sizes"].append(f"|X_{i}| = {len(X[i])} < n - C - i = {H.n - C - i}")

    # Re-derive the per-node sets from the tree alone.
    A: List[VertexSet] = [X[0]]
    B: List[VertexSet] = [V - X[0]]
    for i in range(1, t1):
        p = tree.parent(i)
        A.append(A[p] & X[i])
        B.append(A[p] - X[i])

    stored_A, stored_B = chain.A, chain.B
    if stored_A[0] != X[0] or stored_B[0] != V - X[0]:
        problems["sets_definitions"].append("root sets are not V(X_0) and its complement")
    for i in range(1, t1):
        p = tree.parent(i)
        if stored_A[i] != stored_A[p] & X[i]:
            problems["sets_definitions"].append(f"A_{i} != A_parent & V(X_{i})")
        if stored_B[i] != stored_A[p] - stored_A[i]:
            problems["sets_definitions"].append(f"B_{i} != A_parent \\ A_{i}")

    for i in range(t1):
        if stored_B[i] & X[i]:
            problems["sets_disjoint_from_clique"].append(f"B_{i} meets V(X_{i})")
        if len(stored_B[i]) > C + i:
            problems["sets_size_bound"].append(f"|B_{i}| = {len(stored_B[i])} > C + i = {C + i}")

    for u in range(t1):
        seen: Dict[FrozenSet[int], int] = {}
        for w in tree.children[u]:
            piece = X[w] & stored_B[u]
            if not piece:
                problems["children_distinct"].append(f"child {w} of {u} has an empty slice")
            if piece in seen:
                problems["children_distinct"].append(
                    f"children {seen[piece]} and {w} of {u} share a slice"
                )
            seen[piece] = w

    for node, stored in enumerate(result.certificate, start=1):
        if stored != _path_decomposition(X, A, B, tree, node):
            problems["stored_matches_derived"].append(
                f"stored path for node {node} disagrees with re-derivation"
            )
    if tuple(stored_A) != tuple(A) or tuple(stored_B) != tuple(B):
        problems["stored_matches_derived"].append("stored A/B disagree with re-derivation")

    for pd in result.certificate:
        y = pd.path
        r = len(y) - 1
        node = y[-1]
        for i in range(1, r + 1):
            if not pd.S[i]:
                problems["slices_nonempty"].append(f"node {node}: S_{i} is empty")
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                if pd.S[i] & pd.S[j]:
                    problems["slices_disjoint"].append(f"node {node}: S_{i} meets S_{j}")
        pieces = [stored_A[y[r]]] + [stored_B[y[j]] for j in range(r, -1, -1)]
        if not _partitions(pieces, V):
            problems["path_partition"].append(
                f"node {node}: A_yr with the B sets along the path do not partition V"
            )
        for j in range(1, r + 1):
            if not _partitions([stored_A[y[j]]] + list(pd.S[1:j + 1]), X[y[j]]):
                problems["clique_decomposition"].append(
                    f"node {node}: V(X_{{y_{j}}}) is not A plus the first {j} slices"
                )
        for a in range(r):
            u = y[a]
            for b in range(a + 1, r + 1):
                v = y[b]
                want = X[v] & stored_B[u]
                for w in tree.subtree(v):
                    if X[w] & stored_B[u] != want:
                        problems["descendant_stability"].append(
                            f"node {node}: descendant {w} of {v} shifts the slice in B_{u}"
                        )
        for j in range(1, r):
            union = set(pd.U) | set(pd.W)
            for i in range(1, r):
                if i != j:
                    union |= pd.S[i]
            if not union <= set(X[y[j - 1]]):
                problems["containment_chain"].append(
                    f"node {node}: U, W and the other slices leak out of V(X_{{y_{j - 1}}})"
                )

    for violation in validate_layered(tree, LayeredParams(H.k - 1, C)):
        key = "distance_bound" if violation.condition == "depth" else "degree_bound"
        problems[key].append(str(violation))

    return [(name, problems[name]) for name in CHECK_NAMES]


def validate_certificate(result: ExtractionResult, H: Hypergraph) -> List[str]:
    """Flattened violations of all checks; empty means the certificate holds."""
    out = []
    for name, violations in run_certificate_checks(result, H):
        out.extend(f"{name}: {v}" for v in violations)
    return out


def certificate_document(result: ExtractionResult, H: Hypergraph) -> dict:
    """Serializable certificate with a verdict block, schema_version 1."""
    checks = run_certificate_checks(result, H)
    return {
        "schema_version": 1,
        "k": H.k,
        "n": H.n,
        "C": result.chain.C,
        "cliques": [sorted(c) for c in result.chain.cliques],
        "parents": list(result.tree.parents),
        "A": [sorted(s) for s in result.chain.A],
        "B": [sorted(s) for s in result.chain.B],
        "paths": [
            {
                "node": pd.path[-1],
                "path": list(pd.path),
                "S": [sorted(s) for s in pd.S],
                "U": sorted(pd.U),
                "W": sorted(pd.W),
            }
            for pd in result.certificate
        ],
        "checks": [
            {"name": name, "pass": not violations, "detail": violations[0] if violations else ""}
            for name, violations in checks
        ],
    }


# ---------------------------------------------------------------------------
# Union-completeness implication (the k+2 set principle behind the distance
# bound): if each of the k+1 leave-one-out unions is complete, the full union
# must be complete as well.
# ---------------------------------------------------------------------------

def completeness_implication(H: Hypergraph, sets: Sequence[VertexSet]) -> Tuple[bool, bool]:
    """(hypotheses_hold, conclusion_holds) for k+1 vertex sets.

    hypotheses_hold: every union leaving one set out is complete.
    conclusion_holds: the union of all k+1 sets is complete.
    """
    groups = [frozenset(s) for s in sets]
    if len(groups) != H.k + 1:
        raise ValueError(f"expected exactly k + 1 = {H.k + 1} sets, got {len(groups)}")
    hypotheses = True
    for i in range(len(groups)):
        union: set = set()
        for j, g in enumerate(groups):
            if j != i:
                union |= g
        if not H.is_complete(union):
            hypotheses = False
            break
    conclusion = H.is_complete(frozenset().union(*groups))
    return hypotheses, conclusion


@dataclass(frozen=True)
class TrialsSummary:
    trials: int
    hypotheses_held: int
    counterexamples: Tuple[dict, ...]


def _subset_positions(n: int, k: int) -> Callable[[int], int]:
    """need(s): the mask of the positions in ``edge_universe(n, k)`` of the
    k-subsets of vertex mask s.

    The k-subsets whose least vertex is v take the positions from C(n, k) -
    C(n - v, k) on, in the order of the (k-1)-subsets of the n - v - 1
    vertices above v.  So need(s), for v the least vertex of s, is need(s
    without v) joined with that block: the need, among those (k-1)-subsets,
    of s's vertices above v shifted down by v + 1.  Every mask met on the way
    is memoized, per returned function, so the memo lives as long as its
    caller.
    """
    @functools.lru_cache(maxsize=None)
    def positions(m: int, j: int) -> Callable[[int], int]:
        if j == 0:
            return lambda s: 1  # the empty set, at position 0
        blocks = [(positions(m - v - 1, j - 1), math.comb(m, j) - math.comb(m - v, j))
                  for v in range(m)]
        memo: Dict[int, int] = {0: 0}

        def need(s: int) -> int:
            got = memo.get(s)
            if got is None:
                low = s & -s
                above, shift = blocks[low.bit_length() - 1]
                got = memo[s] = need(s ^ low) | above(s >> low.bit_length()) << shift
            return got

        return need

    return positions(n, k)


def _position_implication(misses: int, need: Callable[[int], int],
                          masks: Sequence[int]) -> Tuple[bool, bool]:
    """``completeness_implication`` on edge positions and vertex masks.

    ``misses`` has the bit of each position not drawn, so a vertex mask s is
    complete iff ``misses & need(s)`` is 0.
    """
    hypotheses = True
    for i in range(len(masks)):
        union = 0
        for j, s in enumerate(masks):
            if j != i:
                union |= s
        if misses & need(union):
            hypotheses = False
            break
    full = 0
    for s in masks:
        full |= s
    return hypotheses, not misses & need(full)


def implication_trials(k: int, n: int, trials: int, seed: int) -> TrialsSummary:
    """Randomized stress of the implication: zero counterexamples expected.

    Densities are skewed high so the hypotheses actually fire a useful
    fraction of the time.  A trial draws its hypergraph as the miss mask of
    ``_draw_misses``, with the draws of ``random_hypergraph``, and its k + 1
    sets as vertex masks, so no trial builds a Hypergraph;
    ``completeness_implication`` is the rule's oracle, and a counterexample
    lists the drawn edges.  The density is ``choice(densities)``, each set
    ``sample(range(n), randint(0, min(n, 4)))``, drawn as those calls draw by
    ``_below`` and ``_sample_mask``.
    """
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    densities = (0.25, 0.5, 0.8, 0.95, 1.0)
    universe = edge_universe(n, k)
    need = _subset_positions(n, k)
    most = min(n, 4)
    held = 0
    bad: List[dict] = []
    for _ in range(trials):
        misses = _draw_misses(getrandbits, len(universe), densities[_below(getrandbits, 5)])
        masks = [_sample_mask(getrandbits, n, _below(getrandbits, most + 1)) for _ in range(k + 1)]
        hypotheses, conclusion = _position_implication(misses, need, masks)
        if hypotheses:
            held += 1
            if not conclusion:
                bad.append(
                    {
                        "edges": _kept_edges(universe, misses),  # lex order: sorted
                        "sets": [_members(s) for s in masks],
                    }
                )
    return TrialsSummary(trials, held, tuple(bad))
