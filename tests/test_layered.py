import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquespectra.bounds import size_recurrence
from cliquespectra.hypergraphs import ParseError
from cliquespectra.layered import (
    GREEDY_TREE_CAP,
    LayeredParams,
    OrderedTree,
    brute_force_max_layered,
    build_greedy_max_tree,
    build_star_max_tree,
    contract,
    is_dfs_order,
    max_layered_size,
    parse_tree,
    serialize_tree,
    star_tree,
    validate_layered,
)

PATH3 = OrderedTree((0, 1))
STAR3 = OrderedTree((0, 0))
SINGLE = OrderedTree(())


def random_budgeted_tree(rng, depth, offset, max_size):
    """Grow a random tree that respects the (depth, offset) budgets by construction."""
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


class TestOrderedTree:
    def test_parent_constraint_enforced(self):
        with pytest.raises(ValueError):
            OrderedTree((1,))
        with pytest.raises(ValueError):
            OrderedTree((0, 2))

    def test_derived_quantities(self):
        t = OrderedTree((0, 1, 0))
        assert t.size == 4
        assert t.depths == (0, 1, 2, 1)
        assert t.degrees == (2, 2, 1, 1)
        assert t.children[0] == (1, 3)
        assert t.subtree(1) == [1, 2]


class TestValidation:
    def test_single_vertex_always_ok(self):
        assert validate_layered(SINGLE, LayeredParams(1, 0)) == []
        assert validate_layered(SINGLE, LayeredParams(3, 2)) == []

    def test_path_within_budget(self):
        assert validate_layered(PATH3, LayeredParams(2, 0)) == []

    def test_star_blows_root_degree(self):
        violations = validate_layered(STAR3, LayeredParams(2, 0))
        assert [(v.vertex, v.condition) for v in violations] == [(0, "degree")]

    def test_depth_violation_named(self):
        deep = OrderedTree((0, 1, 2))
        violations = validate_layered(deep, LayeredParams(2, 5))
        assert [(v.vertex, v.condition) for v in violations] == [(3, "depth")]

    def test_large_positions_short_circuit(self):
        # offsets way past the tree size never need a big power computed
        t = star_tree(5)
        assert validate_layered(t, LayeredParams(1, 3)) == []


class TestContract:
    def test_path_first_child(self):
        got = contract(PATH3, 1)
        assert got.parents == (0,)

    def test_star_merges_to_single_vertex(self):
        assert contract(STAR3, 2).size == 1

    def test_single_child_no_grandchildren(self):
        assert contract(OrderedTree((0,)), 1).size == 1

    def test_count_out_of_range(self):
        with pytest.raises(ValueError):
            contract(PATH3, 2)
        with pytest.raises(ValueError):
            contract(PATH3, 0)

    def test_truncates_at_next_root_child(self):
        # root children at 1 and 3; contracting one child keeps vertices < 3
        t = OrderedTree((0, 1, 0, 3))
        got = contract(t, 1)
        assert got.size == 2  # x_2 - 1 = 3 - 1
        assert got.parents == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([2, 3]),
           st.sampled_from([0, 1, 2]))
    def test_contract_preserves_budgets_with_shifted_offset(self, rng, depth, offset):
        tree = random_budgeted_tree(rng, depth, offset, rng.randint(2, 50))
        if tree.size < 2:
            return
        assert validate_layered(tree, LayeredParams(depth, offset)) == []
        root_children = list(tree.children[0])
        count = rng.randint(1, len(root_children))
        shifted = (1 << offset) + offset + sum(
            tree.degrees[x] for x in root_children[:count]
        )
        got = contract(tree, count)
        cut = root_children[count] if count < len(root_children) else tree.size
        assert got.size == cut - count
        assert validate_layered(got, LayeredParams(depth - 1, shifted)) == []


class TestMaxSizes:
    def test_exact_values(self):
        assert max_layered_size(LayeredParams(1, 0)).value.to_int() == 2
        assert max_layered_size(LayeredParams(2, 0)).value.to_int() == 3
        assert max_layered_size(LayeredParams(2, 1)).value.to_int() == 69

    def test_exactness_flags(self):
        assert max_layered_size(LayeredParams(2, 1)).exactness == "exact"
        result = max_layered_size(LayeredParams(3, 0))
        assert result.exactness == "upper_bound"
        assert result.value.certainly_ge(3)

    def test_brute_force_small_maxima(self):
        assert brute_force_max_layered(LayeredParams(1, 0), 8) == 2
        assert brute_force_max_layered(LayeredParams(1, 1), 8) == 3
        assert brute_force_max_layered(LayeredParams(2, 0), 8) == 3

    def test_brute_force_agrees_with_closed_forms(self):
        for depth in (1, 2):
            for offset in (0, 1):
                exact = max_layered_size(LayeredParams(depth, offset)).value.to_int()
                got = brute_force_max_layered(LayeredParams(depth, offset), 8)
                assert got == min(exact, 8)

    def test_depth_two_step_cap(self):
        with pytest.raises(ValueError, match=r"^depth-2 maximum needs 2\^21 recurrence steps$"):
            max_layered_size(LayeredParams(2, 21))

    def test_brute_force_cap_guard(self):
        with pytest.raises(ValueError):
            brute_force_max_layered(LayeredParams(2, 0), 9)

    def test_recurrence_is_strictly_increasing(self):
        for offset in (0, 1, 2):
            previous = size_recurrence(offset, 0)
            for i in range(1, min(1 << offset, 4) + 1):
                current = size_recurrence(offset, i)
                assert current.certainly_gt(previous)
                previous = current


class TestGreedyMaxTree:
    def test_offset_zero_is_the_path(self):
        assert build_greedy_max_tree(0).parents == PATH3.parents

    def test_offset_one_structure(self):
        t = build_greedy_max_tree(1)
        assert t.size == 69
        assert t.children[0] == (1, 5)
        assert len(t.children[1]) == 3
        assert len(t.children[5]) == 63
        assert validate_layered(t, LayeredParams(2, 1)) == []

    def test_cap_refusal_names_required_size(self):
        with pytest.raises(ValueError, match="vertices"):
            build_greedy_max_tree(2)
        # past the recurrence's step cap the size is named, not computed
        with pytest.raises(ValueError, match=r"need s_\(2\^21\) vertices"):
            build_greedy_max_tree(21)

    def test_both_depths_share_one_vertex_cap(self):
        assert build_star_max_tree(19).size == (1 << 19) + 1 <= GREEDY_TREE_CAP
        with pytest.raises(ValueError, match=r"^tree would need \(2\^1000000\+1\) vertices"):
            build_star_max_tree(10 ** 6)  # refused before any tuple is built
        for build in (build_star_max_tree, build_greedy_max_tree):
            with pytest.raises(ValueError, match="offset must be >= 0"):
                build(-1)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_local_maximality(self, offset):
        t = build_greedy_max_tree(offset)
        assert t.size == size_recurrence(offset, 1 << offset).to_int()
        for v in range(t.size):
            extended = OrderedTree(t.parents + (v,))
            assert validate_layered(extended, LayeredParams(2, offset))


class TestDfsOrder:
    def test_path(self):
        assert is_dfs_order(PATH3)

    def test_subtree_finished_before_sibling(self):
        assert is_dfs_order(OrderedTree((0, 1, 0)))

    def test_return_to_closed_subtree(self):
        assert not is_dfs_order(OrderedTree((0, 0, 1)))

    def test_dfs_orders_attain_the_brute_force_maximum(self):
        params = LayeredParams(2, 0)
        for cap in range(1, 7):
            best_all = 0
            best_dfs = 0
            import itertools

            for s in range(1, cap + 1):
                for combo in itertools.product(*(range(i) for i in range(1, s))):
                    t = OrderedTree(combo)
                    if validate_layered(t, params):
                        continue
                    best_all = max(best_all, s)
                    if is_dfs_order(t):
                        best_dfs = max(best_dfs, s)
            assert best_all == best_dfs


class TestTreeFormat:
    def test_round_trip(self):
        for t in (SINGLE, PATH3, STAR3, build_greedy_max_tree(1)):
            assert parse_tree(serialize_tree(t)) == t

    def test_serialized_shape(self):
        assert serialize_tree(PATH3) == "3\n0\n1\n"

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="count"):
            parse_tree("")
        with pytest.raises(ParseError, match="parent"):
            parse_tree("3\n0\n5\n")
        with pytest.raises(ParseError, match="expected 2 parent"):
            parse_tree("3\n0\n")
        with pytest.raises(ParseError, match="more than"):
            parse_tree("2\n0\n0\n")
        with pytest.raises(ParseError, match="expected an integer, got 'x'"):
            parse_tree("3\nx\n")
        with pytest.raises(ParseError, match="vertex count must be >= 1"):
            parse_tree("0\n")

    def test_comments_allowed(self):
        assert parse_tree("# tree\n3\n0\n# mid\n1\n") == PATH3
