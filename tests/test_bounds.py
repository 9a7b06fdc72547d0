import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquespectra import bounds
from cliquespectra.bounds import (
    BIT_CAP,
    TowerInt,
    iterated_log,
    log_star,
    min_slack_for,
    parse_tower_literal,
    size_recurrence,
    slack_lower_bound,
    tree_size_bound,
)


def _value(bound):
    """The int a bound of height 0 or 1 stands for."""
    height, top = bound
    assert height <= 1
    return 1 << top if height else top


class TestTowerInt:
    def test_exact_round_trip(self):
        x = TowerInt.from_int(69)
        assert x.is_exact and x.to_int() == 69

    def test_addition_and_pow2_stay_exact_below_cap(self):
        x = TowerInt.from_int(5).add(6).pow2()
        assert x.to_int() == 2048

    def test_escalation_past_cap(self):
        # 2^(BIT_CAP - 1) has BIT_CAP bits and stays exact; 2^BIT_CAP is one bit over
        assert TowerInt.from_int(BIT_CAP - 1).pow2().to_int() == 1 << (BIT_CAP - 1)
        top = TowerInt.from_int(BIT_CAP).pow2()
        assert top.is_point and not top.is_exact
        x = top.add(5)
        assert not x.is_exact
        assert x.certainly_ge(1 << BIT_CAP) and x.certainly_le(1 << (BIT_CAP + 1))

    def test_point_tower_equality(self):
        a = parse_tower_literal("2^2^2")  # 16 as a tower
        assert a.is_exact and a.to_int() == 16

    def test_comparisons_three_valued(self):
        wide = TowerInt.from_int(BIT_CAP + 100).pow2().add(
            TowerInt.from_int(BIT_CAP + 100).pow2()
        )
        assert wide.cmp(wide) is None  # overlapping enclosures stay honest
        assert wide.certainly_gt(1 << (BIT_CAP + 99))
        small = TowerInt.from_int(7)
        assert small.cmp(9) == -1
        assert small.cmp(7) == 0

    def test_enclosures_contain_the_exact_value(self):
        # at offset 3, s_2 = 2^20 + 17 and s_3 = 2^(s_2 + 3) + s_2, 21 bits past the cap
        s2 = size_recurrence(3, 2).to_int()
        assert s2 == (1 << 20) + 17
        exact = (1 << (s2 + 3)) + s2
        assert exact.bit_length() == BIT_CAP + 21
        enc = size_recurrence(3, 3)
        assert not enc.is_exact
        # containment: lower <= exact <= upper, so neither strict order certifies
        assert not enc.certainly_gt(exact)
        assert not enc.certainly_lt(exact)
        assert enc.certainly_ge(1 << (s2 + 3)) and enc.certainly_le(1 << (s2 + 4))
        # an int past the cap is itself an enclosure, so check the ends as ints too
        assert _value(enc.lower) <= exact <= _value(enc.upper)

    def test_recurrence_enclosures_render(self):
        # s_i for offsets 0..3 and every index up to 2^offset, in that order;
        # offset 3 crosses the cap at s_3 = 2^(2^20 + 20) + 2^20 + 17
        got = [size_recurrence(o, i).describe() for o in range(4) for i in range((1 << o) + 1)]
        assert got == [
            "1", "3",
            "1", "5", "69",
            "1", "9", "2057", "(2^2059+2057)", "[2^(2^2059+2059), 2^(2^2059+2060)]",
            "1", "17", "1048593", "[2^1048596, 2^1048597]", "[2^2^1048596, 2^2^1048599]",
            "[2^2^2^1048596, 2^2^2^1048601]", "[2^2^2^2^1048596, 2^2^2^2^1048603]",
            "[2^^5(1048596), 2^^5(1048605)]", "[2^^6(1048596), 2^^6(1048607)]",
        ]

    @pytest.mark.parametrize("cap, described", [
        (2, ["1", "3", "1", "[2^2, 2^3]", "[2^2^2, 2^2^5]",
             "1", "[2^3, 2^4]", "[2^2^3, 2^2^6]", "[2^2^2^3, 2^2^2^8]", "[2^2^2^2^3, 2^2^2^2^10]"]),
        (3, ["1", "3", "1", "5", "[2^6, 2^7]",
             "1", "[2^3, 2^4]", "[2^2^3, 2^2^6]", "[2^2^2^3, 2^2^2^8]", "[2^2^2^2^3, 2^2^2^2^10]"]),
        (4, ["1", "3", "1", "5", "[2^6, 2^7]",
             "1", "9", "[2^11, 2^12]", "[2^2^11, 2^2^14]", "[2^2^2^11, 2^2^2^16]"]),
        (6, ["1", "3", "1", "5", "[2^6, 2^7]",
             "1", "9", "[2^11, 2^12]", "[2^2^11, 2^2^14]", "[2^2^2^11, 2^2^2^16]"]),
    ])
    def test_small_cap_enclosures_render(self, monkeypatch, cap, described):
        # the enclosure logic reads the module's one cap; shrunk to a few bits,
        # the recurrence escalates at every index, several heights deep.
        # s_i for offsets 0..2 and every index up to 2^offset, in that order
        monkeypatch.setattr(bounds, "BIT_CAP", cap)
        got = [size_recurrence(o, i).describe() for o in range(3) for i in range((1 << o) + 1)]
        assert got == described

    @pytest.mark.parametrize("value, described", [
        ((1 << 64) - 1, str((1 << 64) - 1)),
        (1 << 64, "2^64"),
        ((1 << 100) + 5, "(2^100+5)"),
        ((1 << 100) + (1 << 64) - 1, f"(2^100+{(1 << 64) - 1})"),
        ((1 << 100) + (1 << 64), "~2^100"),
    ])
    def test_wide_tops_render(self, value, described):
        # a top past 64 bits reads 2^e + r, with r spelt out while it fits 64 bits
        assert TowerInt.from_int(value).describe() == described

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.sampled_from([BIT_CAP - 2, BIT_CAP - 1, BIT_CAP]),
    )
    def test_add_enclosure_soundness(self, a, b, width):
        # sums of 2^width - a and 2^width + b land on both sides of the cap
        x, y = (1 << width) - a, (1 << width) + b
        enc = TowerInt.from_int(x).add(y)
        assert enc.is_exact == ((x + y).bit_length() <= BIT_CAP)
        assert not enc.certainly_gt(x + y)
        assert not enc.certainly_lt(x + y)
        assert _value(enc.lower) <= x + y <= _value(enc.upper)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=BIT_CAP - 60, max_value=BIT_CAP + 60))
    def test_pow2_enclosure_soundness(self, e):
        enc = TowerInt.from_int(e).pow2()
        assert enc.is_exact == (e < BIT_CAP)
        assert not enc.certainly_gt(1 << e)
        assert not enc.certainly_lt(1 << e)
        assert _value(enc.lower) <= 1 << e <= _value(enc.upper)

    def test_power_of_two_past_cap_is_a_point(self):
        # an exact power of two past the cap enters as the point tower 2^e
        p = TowerInt.from_int(1 << BIT_CAP)
        assert p.is_point and not p.is_exact
        assert p.lower == (1, BIT_CAP)
        assert p.cmp(1 << BIT_CAP) == 0
        assert p.describe() == "2^1048576"
        q = TowerInt.from_int(1 << BIT_CAP).add(1)
        assert q.describe() == "[2^1048576, 2^1048577]"

    def test_add_with_height_zero_lower_ends(self):
        # both lower ends at height 0, not both exact: their sum is enclosed,
        # and past the cap it rises to a tower
        edge = (1 << BIT_CAP) - 1  # the largest value kept exact
        mixed = TowerInt((0, edge), (1, BIT_CAP + 1))
        total = mixed.add(edge)
        assert total.lower == (1, BIT_CAP) and total.upper == (1, BIT_CAP + 2)
        assert TowerInt((0, 5), (1, BIT_CAP)).add(3).describe() == "[8, 2^1048577]"
        for enc, other in ((mixed, edge), (TowerInt((0, 5), (1, BIT_CAP)), 3)):
            total = enc.add(other)
            assert _value(total.lower) <= _value(enc.lower) + other
            assert _value(total.upper) >= _value(enc.upper) + other

    def test_add_re_encloses_a_height_zero_upper_end(self):
        # a doubled height-0 upper end stays exact under the cap and rises past it
        assert TowerInt((0, 5), (0, 10)).add(1).describe() == "[6, 20]"
        for top in (1 << BIT_CAP, (1 << BIT_CAP) + 1):
            enc = TowerInt((0, 5), (0, top))
            total = enc.add(1)
            assert total.lower == (0, 6) and total.upper[0] == 1
            assert _value(total.upper) >= top + 1
        assert TowerInt((0, 5), (0, 1 << BIT_CAP)).add(1).describe() == "[6, 2^1048577]"

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_kind_depends_on_the_value_alone(self, delta):
        # every path to a value at the cap gives the same ends, so is_exact
        # and to_int answer the same however the value was reached
        value = (1 << BIT_CAP) + delta
        ways = [
            TowerInt.from_int(value),
            TowerInt.from_int(value - 1).add(1),
            TowerInt((0, value), (0, value)),
        ]
        assert len({(t.lower, t.upper) for t in ways}) == 1
        assert ways[0].is_exact == (value < 1 << BIT_CAP)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TowerInt.from_int(-1)
        # the sign is checked before an end is put in canonical form
        with pytest.raises(ValueError, match="nonnegative"):
            TowerInt((1, -1), (1, 3))


class TestTowerLiterals:
    def test_plain_decimal(self):
        assert parse_tower_literal("42").to_int() == 42

    def test_small_tower_materializes(self):
        assert parse_tower_literal("2^2^16").is_exact

    def test_tall_tower_stays_symbolic(self):
        t = parse_tower_literal("2^2^2^2^2^16")
        assert not t.is_exact and t.is_point

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_tower_literal("3^2")
        with pytest.raises(ValueError):
            parse_tower_literal("2^x")


class TestIteratedLogs:
    def test_log_star_examples(self):
        assert log_star(1) == 1
        assert log_star(2) == 2
        assert log_star(16) == 4
        assert log_star(1 << 16) == 5
        assert log_star((1 << 65536) - 1) == 5

    def test_log_star_of_tall_tower(self):
        assert log_star(parse_tower_literal("2^2^2^2^16")) == 8

    def test_log_star_rejects_below_one(self):
        with pytest.raises(ValueError):
            log_star(0)

    def test_log_star_refuses_wide_enclosures(self):
        # enclosure straddling a log-star step cannot be certified
        wide = TowerInt((0, 3), (3, 20))
        with pytest.raises(ValueError, match="certify"):
            log_star(wide)

    def test_iterated_log_on_point_tower(self):
        tall = parse_tower_literal("2^2^2^2^2^16")
        assert iterated_log(tall, tall.height + 1) == 65536.0
        with pytest.raises(ValueError, match="too large"):
            iterated_log(tall, 0)

    def test_iterated_log_examples(self):
        assert iterated_log(16, 2) == 2.0
        assert iterated_log(16, 0) == 16.0
        assert type(iterated_log(16, 0)) is float
        assert iterated_log(1 << 16, 3) == 2.0

    def test_iterated_log_domain_error(self):
        assert iterated_log(16, 4) == 0.0
        with pytest.raises(ValueError):
            iterated_log(16, 5)

    def test_log_star_brackets_one(self):
        for x in (2, 3, 5, 16, 17, 65535, 65536, 10**9, 2**65536 - 1):
            s = log_star(x)
            assert iterated_log(x, s) < 1
            assert iterated_log(x, s - 1) >= 1


class TestSlackBounds:
    def test_lower_bound_examples(self):
        assert slack_lower_bound(15) == pytest.approx(math.log2(3) - 1)
        assert slack_lower_bound(1) == -1.0
        assert slack_lower_bound(3) == 0.0
        assert slack_lower_bound((1 << 16) - 1) == 1.0
        assert slack_lower_bound((1 << 65536) - 1) == pytest.approx(math.log2(5) - 1)
        with pytest.raises(ValueError):
            slack_lower_bound(0)

    def test_min_slack_examples(self):
        assert min_slack_for(3) == 0
        assert min_slack_for(1) == 0
        assert min_slack_for(100) == 2
        with pytest.raises(ValueError, match="n must be >= 1"):
            min_slack_for(0)

    def test_min_slack_handles_towers(self):
        assert min_slack_for(parse_tower_literal("2^2^2^2^16")) >= 2

    def test_recurrence_domain(self):
        assert size_recurrence(0, 0).to_int() == 1
        assert size_recurrence(0, 1).to_int() == 3
        assert size_recurrence(1, 2).to_int() == 69
        with pytest.raises(ValueError):
            size_recurrence(0, 2)  # index beyond 2^offset
        with pytest.raises(ValueError, match="offset must be >= 0"):
            size_recurrence(-1, 0)


class TestTreeSizeBound:
    def test_depth_one_closed_form(self):
        for variant in ("claim23", "claim24"):
            assert tree_size_bound(1, 3, variant).to_int() == 9

    def test_depth_two_exceeds_the_brute_force_maximum(self):
        assert tree_size_bound(2, 0).to_int() == 10
        assert tree_size_bound(2, 0).certainly_ge(3)

    def test_variant_literal_is_larger(self):
        assert tree_size_bound(2, 0, "claim24").to_int() == 258

    def test_monotone_in_offset(self):
        for depth in (1, 2):
            a = tree_size_bound(depth, 0)
            b = tree_size_bound(depth, 1)
            assert b.certainly_ge(a)

    def test_dominates_exact_depth2_maximum(self):
        for offset in (0, 1, 2):
            bound = tree_size_bound(2, offset)
            exact = size_recurrence(offset, 1 << offset)
            assert bound.certainly_ge(exact)

    def test_depth_three_offset_zero_is_finite(self):
        v = tree_size_bound(3, 0)
        assert v.certainly_ge(tree_size_bound(2, 0))

    def test_unmaterializable_recursion_refuses(self):
        with pytest.raises(ValueError, match="rounds"):
            tree_size_bound(3, 1)

    def test_depth_below_one_refused(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            tree_size_bound(0, 1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            tree_size_bound(2, 0, "claim99")


class TestRecurrenceBound:
    def test_step_bound_exact_cases(self):
        # s_i + offset + 1 <= 2^(s_{i-1} + offset + 1) wherever values are exact
        for offset in (0, 1, 2):
            for i in range(1, (1 << offset) + 1):
                prev = size_recurrence(offset, i - 1)
                cur = size_recurrence(offset, i)
                rhs = prev.add(offset + 1).pow2()
                if cur.is_exact and rhs.is_exact:
                    assert cur.to_int() + offset + 1 <= rhs.to_int()
                else:
                    # same inequality rearranged to the previous exact term
                    assert prev.add(offset + 1).certainly_le(prev.add(offset).pow2())
