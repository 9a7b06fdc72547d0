"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
Budgets are wall-clock seconds measured around the criterion's own work.
"""

import itertools
import random
import time

from cliquespectra.bounds import (
    min_slack_for,
    size_recurrence,
    slack_lower_bound,
)
from cliquespectra.extraction import extract_tree, implication_trials, validate_certificate
from cliquespectra.hypergraphs import (
    Hypergraph,
    brute_force_maximal_cliques,
    enumerate_maximal_cliques,
    random_hypergraph,
)
from cliquespectra.layered import (
    LayeredParams,
    OrderedTree,
    brute_force_max_layered,
    build_max_tree,
    contract,
    is_dfs_order,
    validate_layered,
)
from cliquespectra.search import (
    check_moon_moser,
    edge_index_of,
    exhaustive_g,
    exhaustive_g_sharded,
    load_checkpoint,
    merge_shards,
    open_checkpoint,
    record_shard,
    run_shard,
    shard_ranges,
)


def _report(name, ok, budget_s, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}: {elapsed:.1f}s of {budget_s}s budget{suffix}")
    assert ok, f"{name} failed{suffix}"
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def _all_edge_sets(k, n):
    universe = list(itertools.combinations(range(n), k))
    for mask in range(1 << len(universe)):
        yield Hypergraph.from_edges(
            k, n, [e for i, e in enumerate(universe) if mask >> i & 1]
        )


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for k in (3, 2):
        for H in _all_edge_sets(k, 5):
            checked += 1
            if enumerate_maximal_cliques(H) != brute_force_maximal_cliques(H):
                mismatches += 1
    rng = random.Random(20260808)
    for _ in range(1000):
        n = rng.randint(1, 12)
        k = rng.choice([2, 3, 4])
        H = random_hypergraph(n, k, rng.random(), rng)
        checked += 1
        if enumerate_maximal_cliques(H) != brute_force_maximal_cliques(H):
            mismatches += 1
    _report(
        "criterion-1 oracle equivalence",
        mismatches == 0,
        60,
        time.perf_counter() - t0,
        f"{checked} instances, {mismatches} mismatches",
    )


def test_criterion_2_exhaustive_extraction_sweep():
    t0 = time.perf_counter()
    failures = 0
    for H in _all_edge_sets(3, 5):
        result = extract_tree(H)
        if validate_certificate(result, H):
            failures += 1
    _report(
        "criterion-2 extraction sweep n=5 k=3",
        failures == 0,
        60,
        time.perf_counter() - t0,
        f"1024 instances, {failures} failures",
    )


def test_criterion_3_union_completeness_implication_suite():
    t0 = time.perf_counter()
    total = held = bad = 0
    for k, n, trials in ((2, 12, 34000), (3, 10, 33000), (4, 9, 33000)):
        summary = implication_trials(k, n, trials, seed=1000 + k)
        total += summary.trials
        held += summary.hypotheses_held
        bad += len(summary.counterexamples)
    _report(
        "criterion-3 union-completeness implication",
        total >= 100000 and bad == 0,
        120,
        time.perf_counter() - t0,
        f"{total} trials, hypotheses held {held}, counterexamples {bad}",
    )


def test_criterion_4_pairwise_upper_bound():
    t0 = time.perf_counter()
    values = {}
    ok = True
    for n in range(2, 8):
        g_value, _witness = exhaustive_g(n, 2)
        values[n] = g_value
        if not check_moon_moser(n, g_value):
            ok = False
    _report(
        "criterion-4 exact g(n,2) vs n - floor(log2 n)",
        ok,
        600,
        time.perf_counter() - t0,
        f"g = {values}",
    )


def test_criterion_5_layered_tree_maxima():
    t0 = time.perf_counter()
    ok = (
        brute_force_max_layered(LayeredParams(1, 0), 8) == 2
        and brute_force_max_layered(LayeredParams(1, 1), 8) == 3
        and brute_force_max_layered(LayeredParams(2, 0), 8) == 3
        and size_recurrence(0, 1).to_int() == 3
        and size_recurrence(1, 2).to_int() == 69
    )
    tree = build_max_tree(LayeredParams(2, 1))
    ok = ok and tree.size == 69
    ok = ok and validate_layered(tree, LayeredParams(2, 1)) == []
    locally_maximal = all(
        validate_layered(OrderedTree(tree.parents + (v,)), LayeredParams(2, 1))
        for v in range(tree.size)
    )
    ok = ok and locally_maximal
    _report(
        "criterion-5 budgeted-tree maxima",
        ok,
        60,
        time.perf_counter() - t0,
        "maxima 2/3/3, greedy tree 69 vertices and locally maximal",
    )


def test_criterion_6_dfs_orders_attain_the_maximum():
    t0 = time.perf_counter()
    params = LayeredParams(2, 0)
    ok = True
    for cap in range(1, 7):
        best_all = best_dfs = 0
        for s in range(1, cap + 1):
            for combo in itertools.product(*(range(i) for i in range(1, s))):
                tree = OrderedTree(combo)
                if validate_layered(tree, params):
                    continue
                best_all = max(best_all, s)
                if is_dfs_order(tree):
                    best_dfs = max(best_dfs, s)
        ok = ok and best_all == best_dfs
    _report(
        "criterion-6 insertion orders vs DFS orders",
        ok,
        60,
        time.perf_counter() - t0,
        "(2,0) budgets, caps 1..6",
    )


def _random_budgeted_tree(rng, depth, offset, max_size):
    parents = []
    depths = [0]
    degrees = [0]
    for i in range(1, max_size):
        options = [
            j
            for j in range(i)
            if depths[j] < depth and degrees[j] + 1 <= (1 << (offset + j))
        ]
        if not options:
            break
        p = rng.choice(options)
        parents.append(p)
        depths.append(depths[p] + 1)
        degrees.append(1)
        degrees[p] += 1
    return OrderedTree(tuple(parents))


def test_criterion_7_contraction_with_shifted_offset():
    t0 = time.perf_counter()
    rng = random.Random(7)
    failures = 0
    produced = 0
    while produced < 1000:
        depth = rng.choice([2, 3])
        offset = rng.choice([0, 1, 2])
        tree = _random_budgeted_tree(rng, depth, offset, rng.randint(2, 50))
        if tree.size < 2:
            continue
        produced += 1
        root_children = list(tree.children[0])
        count = rng.randint(1, len(root_children))
        shifted = (1 << offset) + offset + sum(
            tree.degrees[x] for x in root_children[:count]
        )
        got = contract(tree, count)
        cut = root_children[count] if count < len(root_children) else tree.size
        if got.size != cut - count:
            failures += 1
        elif validate_layered(got, LayeredParams(depth - 1, shifted)):
            failures += 1
    _report(
        "criterion-7 contraction keeps budgets at the shifted offset",
        failures == 0,
        60,
        time.perf_counter() - t0,
        f"1000 trees, {failures} failures",
    )


def test_criterion_8_slack_inequality_chain():
    t0 = time.perf_counter()
    violations = []
    tested = sorted(set(range(1, 10001)) | {(1 << (1 << j)) - 1 for j in range(5)})
    for n in tested:
        ms = min_slack_for(n)
        lb = slack_lower_bound(n)
        if ms < lb:
            violations.append(f"n={n}: min_slack={ms} < lower_bound={lb:.4f}")
    ok = not violations
    # recurrence growth bound, exact below the bit cap (rearranged certified form
    # s_{i-1} + C + 1 <= 2^(s_{i-1}+C) past it)
    for offset in (0, 1, 2):
        for i in range(1, (1 << offset) + 1):
            prev = size_recurrence(offset, i - 1)
            cur = size_recurrence(offset, i)
            rhs = prev.add(offset + 1).pow2()
            if cur.is_exact and rhs.is_exact:
                ok = ok and cur.to_int() + offset + 1 <= rhs.to_int()
            else:
                ok = ok and prev.add(offset + 1).certainly_le(prev.add(offset).pow2())
    ok = ok and size_recurrence(2, 3).is_exact  # ~2^2059 stays under the 2^20-bit cap
    _report(
        "criterion-8 slack inequality chain",
        ok,
        60,
        time.perf_counter() - t0,
        "; ".join(violations) if violations else "n in 1..10^4 plus doubly-exponential points",
    )


def test_criterion_9_sharding_determinism():
    t0 = time.perf_counter()
    full_g, full_w = exhaustive_g(5, 3)
    shards = [run_shard(5, 3, lo, hi) for lo, hi in shard_ranges(5, 3, 4)]
    merged_g, merged_idx = merge_shards(shards)
    ok = (merged_g, merged_idx) == (full_g, edge_index_of(full_w))
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "cp.json")
        ranges = shard_ranges(5, 3, 4)
        for lo, hi in ranges[:2]:  # a partial checkpoint, as two search-g --shard i runs leave
            record_shard(open_checkpoint(path, 5, 3, ranges), run_shard(5, 3, lo, hi), path)
        ok = ok and len(load_checkpoint(path).shards_done) == 2
        resumed_g, resumed_w = exhaustive_g_sharded(5, 3, 4, path)
        ok = ok and (resumed_g, resumed_w) == (full_g, full_w)
    _report(
        "criterion-9 sharding determinism and resume",
        ok,
        60,
        time.perf_counter() - t0,
        f"g(5,3) = {full_g}, witness index {edge_index_of(full_w)}",
    )
