import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquespectra.hypergraphs import (
    Hypergraph,
    ParseError,
    _below,
    _draw_misses,
    _sample_mask,
    brute_force_maximal_cliques,
    clique_spectrum,
    edge_universe,
    enumerate_maximal_cliques,
    parse_hypergraph,
    random_hypergraph,
    serialize_hypergraph,
)
from cliquespectra.search import hypergraph_from_edge_index

from builders import complete_graph, join_of_clique_pairs, triangle_lift

SINGLE_EDGE = Hypergraph.from_edges(3, 4, [(0, 1, 2)])
EDGELESS_33 = Hypergraph.from_edges(3, 3, [])
PATH_GRAPH = Hypergraph.from_edges(2, 3, [(0, 1), (1, 2)])


def per_vertex_extenders(H, s):
    """The definition: every vertex v outside s with s+{v} complete."""
    return frozenset(v for v in range(H.n) if v not in s and H.is_complete(s | {v}))


@st.composite
def hypergraphs(draw, max_n=8, ks=(2, 3)):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.sampled_from(ks))
    universe = list(itertools.combinations(range(n), k))
    edges = [e for e in universe if draw(st.booleans())]
    return Hypergraph.from_edges(k, n, edges)


class TestCompleteness:
    def test_below_k_is_vacuously_complete(self):
        assert SINGLE_EDGE.is_complete({0, 1})
        assert SINGLE_EDGE.is_complete(frozenset())

    def test_edge_is_complete(self):
        assert SINGLE_EDGE.is_complete({0, 1, 2})

    def test_missing_subset_breaks_completeness(self):
        # {0,1,3} is a 3-subset of V and not an edge
        assert not SINGLE_EDGE.is_complete({0, 1, 2, 3})

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError):
            SINGLE_EDGE.is_complete({0, 9})


class TestExtenders:
    def test_empty_set_extends_everywhere(self):
        assert SINGLE_EDGE.extenders(frozenset()) == frozenset(range(4))

    def test_single_edge_pair(self):
        assert SINGLE_EDGE.extenders({0, 1}) == frozenset({2})

    def test_complete_graph_extender(self):
        H = complete_graph(3, 4)
        assert H.extenders({0, 1, 2}) == frozenset({3})

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="complete"):
            SINGLE_EDGE.extenders({0, 1, 2, 3})


class TestExtenderRule:
    """`extenders` and `is_maximal_clique` test only the k-subsets a vertex adds;
    the per-vertex definition is the oracle."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_the_per_vertex_definition(self, k):
        rng = random.Random(f"extenders/{k}")
        cases = [Hypergraph._canonical(k, n, []) for n in range(1, k)]  # n < k
        cases += [random_hypergraph(rng.randint(1, 9), k, rng.choice((0.5, 0.8, 0.95)), rng)
                  for _ in range(60)]
        seen = set()
        for H in cases:
            subsets = {frozenset(range(H.n))}
            for clique in enumerate_maximal_cliques(H):
                subsets.add(clique)
                subsets.update(clique - {v} for v in clique)
            subsets.update(frozenset(v for v in range(H.n) if rng.random() < 0.6)
                           for _ in range(20))
            for s in subsets:
                want = per_vertex_extenders(H, s)
                complete = H.is_complete(s)
                assert H.is_maximal_clique(s) == (complete and not want), (H, s)
                if complete:
                    assert H.extenders(s) == want, (H, s)
                else:
                    with pytest.raises(ValueError, match="complete"):
                        H.extenders(s)
                seen.add("complete" if complete else "incomplete")
                if len(s) < k - 1:
                    seen.add("below k-1")
                elif len(s) == k - 1:
                    seen.add("k-1")
                if H.n < k and len(s) == H.n:
                    seen.add("V with n < k")
        assert seen == {"complete", "incomplete", "below k-1", "k-1", "V with n < k"}


class TestMaximality:
    def test_full_vertex_set_of_complete_graph(self):
        H = complete_graph(3, 5)
        assert H.is_maximal_clique(range(5))

    def test_pair_avoiding_the_edge(self):
        assert SINGLE_EDGE.is_maximal_clique({0, 3})

    def test_singleton_is_extendable(self):
        assert not SINGLE_EDGE.is_maximal_clique({3})


class TestEnumeration:
    def test_complete_graph_single_clique(self):
        H = complete_graph(3, 5)
        assert enumerate_maximal_cliques(H) == [frozenset(range(5))]

    def test_edgeless_three_pairs(self):
        got = enumerate_maximal_cliques(EDGELESS_33)
        assert got == [frozenset(p) for p in [(0, 1), (0, 2), (1, 2)]]

    def test_single_edge_cliques_in_lex_order(self):
        got = [tuple(sorted(c)) for c in enumerate_maximal_cliques(SINGLE_EDGE)]
        assert got == [(0, 1, 2), (0, 3), (1, 3), (2, 3)]

    def test_brute_force_path_graph(self):
        got = brute_force_maximal_cliques(PATH_GRAPH)
        assert got == [frozenset({0, 1}), frozenset({1, 2})]

    def test_brute_force_single_vertex(self):
        H = Hypergraph.from_edges(2, 1, [])
        assert brute_force_maximal_cliques(H) == [frozenset({0})]

    def test_brute_force_refuses_large_n(self):
        with pytest.raises(ValueError):
            brute_force_maximal_cliques(Hypergraph.from_edges(2, 21, []))

    def test_oracle_agreement_exhaustive_n4(self):
        for k in (2, 3):
            universe = list(itertools.combinations(range(4), k))
            for mask in range(1 << len(universe)):
                H = Hypergraph.from_edges(
                    k, 4, [e for i, e in enumerate(universe) if mask >> i & 1]
                )
                assert enumerate_maximal_cliques(H) == brute_force_maximal_cliques(H)

    @settings(max_examples=150, deadline=None)
    @given(hypergraphs())
    def test_oracle_agreement_random(self, H):
        assert enumerate_maximal_cliques(H) == brute_force_maximal_cliques(H)

    def test_oracle_agreement_k5(self):
        # dense 5-uniform instances grow bases with many 3-subsets to filter by
        rng = random.Random(5)
        cases = [complete_graph(5, 8)]
        cases += [random_hypergraph(rng.randint(6, 11), 5, rng.uniform(0.6, 1.0), rng)
                  for _ in range(30)]
        for H in cases:
            assert enumerate_maximal_cliques(H) == brute_force_maximal_cliques(H)

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    @pytest.mark.parametrize("k", [2, 3])
    def test_oracle_agreement_up_to_16_vertices(self, n, k):
        rng = random.Random(100 * n + k)
        for p in (0.5, 0.8):
            H = random_hypergraph(n, k, p, rng)
            assert enumerate_maximal_cliques(H) == brute_force_maximal_cliques(H)

    def test_k3_pivot_matches_brute_force(self):
        # the k = 3 branch skips the candidates its pivot covers, at every density
        rng = random.Random(3)
        for _ in range(200):
            n, p = rng.randint(1, 12), rng.choice((0.2, 0.4, 0.6, 0.8, 0.9, 1.0))
            H = random_hypergraph(n, 3, p, rng)
            assert enumerate_maximal_cliques(H) == brute_force_maximal_cliques(H), (n, p)

    @pytest.mark.parametrize("m, count", [(4, 35), (5, 68)])
    def test_triangle_lifts(self, m, count):
        # n = 23 and 41: the lift of the join keeps its 2^m sizes and adds pairs in no triangle
        cliques = enumerate_maximal_cliques(triangle_lift(join_of_clique_pairs(m)))
        assert len(cliques) == count
        assert len({len(c) for c in cliques}) == (1 << m) + 1


class TestSpectrum:
    def test_complete_graph(self):
        report = clique_spectrum(complete_graph(2, 6))
        assert report.sizes == (6,)
        assert report.distinct_sizes == 1

    def test_single_edge(self):
        report = clique_spectrum(SINGLE_EDGE)
        assert set(report.sizes) == {3, 2}
        assert report.distinct_sizes == 2
        assert report.witnesses[2] == frozenset({0, 3})  # lex-smallest pair

    def test_edgeless(self):
        report = clique_spectrum(EDGELESS_33)
        assert set(report.sizes) == {2}
        assert report.distinct_sizes == 1

    @settings(max_examples=100, deadline=None)
    @given(hypergraphs())
    def test_witnesses_are_maximal_of_their_size(self, H):
        report = clique_spectrum(H)
        assert set(report.witnesses) == set(report.sizes)
        for size, witness in report.witnesses.items():
            assert len(witness) == size
            assert H.is_maximal_clique(witness)


    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_the_brute_force_spectrum(self, k):
        rng = random.Random(f"spectrum/{k}")
        graphs = [random_hypergraph(rng.randint(1, 10), k, rng.uniform(0.3, 1.0), rng)
                  for _ in range(40)]
        # dense graphs on 12 vertices: many engine children with no candidate
        # or (k = 2) exactly one, which the engine settles without a call
        graphs += [random_hypergraph(12, k, p, rng) for p in (0.6, 0.8, 0.95)]
        for H in graphs:
            cliques = brute_force_maximal_cliques(H)  # lex order
            witnesses = {}
            for clique in cliques:
                witnesses.setdefault(len(clique), clique)
            report = clique_spectrum(H)
            assert report.sizes == tuple(sorted(map(len, cliques), reverse=True))
            assert report.distinct_sizes == len(witnesses)
            assert report.witnesses == witnesses
            assert list(report.witnesses) == sorted(witnesses)


class TestMaskLexRule:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=12).flatmap(
        lambda size: st.tuples(*[st.sets(st.integers(0, 70), min_size=size, max_size=size)] * 2)))
    def test_lowest_differing_vertex_decides(self, pair):
        # clique_spectrum's witness rule: of two vertex sets of equal size, the
        # lex-smaller holds the lowest vertex of their symmetric difference
        a, b = pair
        mask_a, mask_b = (sum(1 << v for v in members) for members in pair)
        diff = mask_a ^ mask_b
        assert bool(mask_a & diff & -diff) == (sorted(a) < sorted(b))


class TestLinkCache:
    """`is_maximal_clique` and `extenders` keep per-vertex links on the instance."""

    def test_cache_leaves_the_value_unchanged(self):
        H = random_hypergraph(9, 3, 0.7, random.Random("links"))
        fresh = Hypergraph.from_edges(H.k, H.n, H.edges)
        cliques = enumerate_maximal_cliques(H)
        assert all(H.is_maximal_clique(c) for c in cliques)
        assert "_links" in vars(H) and "_links" not in vars(fresh)
        for other in (H, copy.copy(H), pickle.loads(pickle.dumps(H))):
            assert other == fresh and fresh == other
            assert hash(other) == hash(fresh)
            assert repr(other) == repr(fresh)
            assert {fresh: "found"}[other] == "found"
            assert all(other.is_maximal_clique(c) for c in cliques)
            assert not any(other.is_maximal_clique(c - {min(c)}) for c in cliques)
        assert pickle.loads(pickle.dumps(fresh)) == H

    @pytest.mark.parametrize("m", [4, 5])
    def test_extenders_match_the_definition_on_joins(self, m):
        # many cliques grow large, so most (k-1)-subsets leave extenders standing
        H = join_of_clique_pairs(m)
        rng = random.Random(f"joins/{m}")
        for clique in enumerate_maximal_cliques(H):
            assert H.is_maximal_clique(clique)
            for s in (clique, clique - {min(clique)}, clique - {max(clique)},
                      frozenset(v for v in clique if rng.random() < 0.5)):
                assert H.extenders(s) == per_vertex_extenders(H, s)


class TestStructuralProperties:
    @settings(max_examples=100, deadline=None)
    @given(hypergraphs(), st.randoms(use_true_random=False))
    def test_heredity(self, H, rnd):
        cliques = enumerate_maximal_cliques(H)
        clique = rnd.choice(cliques)
        subset = frozenset(v for v in clique if rnd.random() < 0.6)
        assert H.is_complete(subset)

    @settings(max_examples=100, deadline=None)
    @given(hypergraphs(), st.randoms(use_true_random=False))
    def test_anti_monotonicity(self, H, rnd):
        clique = rnd.choice(enumerate_maximal_cliques(H))
        small = frozenset(v for v in clique if rnd.random() < 0.5)
        big = small | frozenset(v for v in clique if rnd.random() < 0.5)
        assert H.extenders(big) <= H.extenders(small)

    @settings(max_examples=100, deadline=None)
    @given(hypergraphs())
    def test_clique_sizes_and_coverage(self, H):
        cliques = enumerate_maximal_cliques(H)
        covered = set()
        for c in cliques:
            covered |= c
            if H.n >= H.k - 1:
                assert len(c) >= H.k - 1
        # every vertex belongs to at least one maximal clique
        assert covered == set(range(H.n))
        if H.n < H.k:
            assert cliques == [frozenset(range(H.n))]


class TestTextFormat:
    def test_parse_simple(self):
        H = parse_hypergraph("3 4\n0 1 2\n")
        assert (H.k, H.n) == (3, 4)
        assert H.edges == frozenset({(0, 1, 2)})

    def test_parse_path_graph(self):
        assert parse_hypergraph("2 3\n0 1\n1 2\n") == PATH_GRAPH

    def test_comments_and_crlf(self):
        H = parse_hypergraph("# comment\r\n3 4\r\n\r\n0 1 2\r\n")
        assert H == SINGLE_EDGE

    def test_arity_error_carries_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_hypergraph("3 3\n0 1\n")

    def test_range_and_duplicate_errors(self):
        with pytest.raises(ParseError, match="outside"):
            parse_hypergraph("2 3\n0 5\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_hypergraph("2 3\n0 1\n1 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_hypergraph("# nothing\n")

    @pytest.mark.parametrize("text, line, message", [
        ("# nothing\n", 1, "missing 'k n' header"),
        ("\n3\n", 2, "header must be exactly 'k n'"),
        ("3 4 5\n", 1, "header must be exactly 'k n'"),
        ("3 x\n", 1, "header values must be base-10 integers"),
        ("1 4\n", 1, "invalid header k=1 n=4 (need k >= 2, n >= 1)"),
        ("2 0\n", 1, "invalid header k=2 n=0 (need k >= 2, n >= 1)"),
        ("2 4\n0 1\n1 x\n", 3, "edge vertices must be base-10 integers"),
        ("2 4\n0 9 x\n", 2, "edge vertices must be base-10 integers"),  # before arity and range
        ("3 4\n0 1\n", 2, "edge must list exactly 3 distinct vertices"),
        ("2 4\n0 1 2\n", 2, "edge must list exactly 2 distinct vertices"),
        ("3 4\n# c\n0 2 2\n", 3, "edge must list exactly 3 distinct vertices"),
        ("2 4\n9 9\n", 2, "edge must list exactly 2 distinct vertices"),  # before range
        ("2 5\n7 -1\n", 2, "vertex 7 outside 0..4"),  # the first bad vertex in line order
        ("2 5\n-1 7\n", 2, "vertex -1 outside 0..4"),
        ("3 5\n0 6 5\n", 2, "vertex 6 outside 0..4"),
        ("3 5\n5 0 -2\n", 2, "vertex 5 outside 0..4"),
        ("2 3\n0 1\n2 1\n1 0\n", 4, "duplicate edge 0 1"),
        ("3 6\n5 0 3\n0 3 5\n", 3, "duplicate edge 0 3 5"),
    ])
    def test_error_messages_are_pinned(self, text, line, message):
        with pytest.raises(ParseError) as caught:
            parse_hypergraph(text)
        assert str(caught.value) == f"line {line}: {message}"
        assert caught.value.line == line

    @settings(max_examples=80, deadline=None)
    @given(hypergraphs())
    def test_round_trip(self, H):
        assert parse_hypergraph(serialize_hypergraph(H)) == H

    def test_serialized_form_is_lf_and_sorted(self):
        # (0, 1) duplicates (1, 0) once sorted and is kept once
        H = Hypergraph.from_edges(2, 3, [(2, 1), (1, 0), (0, 1)])
        assert H.edges == frozenset({(0, 1), (1, 2)})
        assert serialize_hypergraph(H) == "2 3\n0 1\n1 2\n"


class TestConstruction:
    def test_rejects_bad_uniformity_and_size(self):
        with pytest.raises(ValueError):
            Hypergraph.from_edges(1, 3, [])
        with pytest.raises(ValueError):
            Hypergraph.from_edges(2, 0, [])

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Hypergraph.from_edges(2, 3, [(0, 0)])
        with pytest.raises(ValueError):
            Hypergraph.from_edges(2, 3, [(0, 3)])
        with pytest.raises(ValueError):
            Hypergraph.from_edges(2, 3, [(1, 0), (3, 1)])  # unsorted, out of range
        with pytest.raises(ValueError):
            Hypergraph.from_edges(3, 4, [(2, 1, 2)])  # unsorted, repeated vertex
        with pytest.raises(ValueError):
            Hypergraph(2, 3, frozenset({(1, 0), (0, 3)}))  # the direct constructor too

    def test_k_larger_than_n_allowed(self):
        H = Hypergraph.from_edges(4, 2, [])
        assert enumerate_maximal_cliques(H) == [frozenset({0, 1})]

    def test_canonical_producers_match_validating_oracle(self):
        """random_hypergraph, the parser and hypergraph_from_edge_index skip
        re-canonicalization; each must equal from_edges on a shuffled copy of
        the same edges with the vertices of every edge shuffled too."""
        rnd = random.Random(2024)

        def scramble(k, edges):
            scrambled = [rnd.sample(e, k) for e in edges]
            rnd.shuffle(scrambled)
            return scrambled

        def oracle(k, n, edges):
            return Hypergraph.from_edges(k, n, scramble(k, edges))

        def check(H, expected):
            assert H == expected and hash(H) == hash(expected)
            assert all(type(e) is tuple and list(e) == sorted(e) for e in H.edges)

        cases = [(rnd.randint(1, 9), k, rnd.random()) for k in (2, 3, 4, 5) for _ in range(12)]
        cases += [(n, k, p) for n in (1, 4, 7) for k in (2, 5) for p in (0.0, 1.0)]
        for n, k, p in cases:
            seed = rnd.getrandbits(32)
            universe = list(itertools.combinations(range(n), k))
            draws = random.Random(seed)
            expected = oracle(k, n, [e for e in universe if draws.random() < p])
            H = random_hypergraph(n, k, p, random.Random(seed))
            check(H, expected)
            check(parse_hypergraph(serialize_hypergraph(H)), expected)
            lines = [f"{k} {n}"] + [" ".join(map(str, e)) for e in scramble(k, H.edges)]
            check(parse_hypergraph("\n".join(lines)), expected)
            top = (1 << len(universe)) - 1
            for index in (0, top, rnd.randint(0, top)):
                edges = [e for j, e in enumerate(universe) if index >> j & 1]
                check(hypergraph_from_edge_index(n, k, index), oracle(k, n, edges))

    def test_draws_match_the_per_subset_loop(self):
        """The draw helper and random_hypergraph keep the edges, and leave the
        RNG where, the loop over the k-subsets in lex order left them: one
        random() per subset, kept when below p."""
        def per_subset_loop(n, k, p, rng):
            return [combo for combo in itertools.combinations(range(n), k) if rng.random() < p]

        grid = random.Random(77)
        for n, k in ((1, 2), (2, 3), (3, 5), (4, 2), (6, 3), (7, 5), (9, 4), (10, 2)):
            for p in (0, 0.5, 1.0, 1, grid.random()):
                for seed in (0, 1, grid.getrandbits(32)):
                    oracle_rng = random.Random(seed)
                    want = per_subset_loop(n, k, p, oracle_rng)
                    after = oracle_rng.random()
                    universe = edge_universe(n, k)
                    rng = random.Random(seed)
                    misses = _draw_misses(rng.getrandbits, len(universe), p)
                    assert [e for j, e in enumerate(universe) if not misses >> j & 1] == want
                    assert rng.random() == after
                    rng = random.Random(seed)
                    assert sorted(random_hypergraph(n, k, p, rng).edges) == want
                    assert rng.random() == after

    def test_draw_rule_matches_random_at_its_edges(self):
        """_draw_misses decides random() < p draw by draw, from one getrandbits
        call, and leaves the generator where count calls of random() leave it:
        p at, below and above 0 and 1, NaN and infinity, counts up to the
        C(30, 3) = 4,060 positions of check-fact1's largest pinned case, and
        chosen words whose value lies at the threshold."""
        grid = random.Random(2026)
        probabilities = [0, -0.5, math.nan, 1, 1.0, 1.5, math.inf, 0.25, 0.5, 0.8, 0.95]
        probabilities += [grid.random() for _ in range(3)]
        counts = list(range(130)) + [255, 256, 257, 1000, 4059, 4060]
        counts += [grid.randrange(4061) for _ in range(4)]
        for count in counts:
            for p in probabilities:
                seed = grid.getrandbits(32)
                want, got = random.Random(seed), random.Random(seed)
                kept = [j for j in range(count) if want.random() < p]
                misses = _draw_misses(got.getrandbits, count, p)
                assert 0 <= misses < 1 << count
                assert [j for j in range(count) if not misses >> j & 1] == kept, (count, p)
                assert got.getstate() == want.getstate(), (count, p)  # count 0: no word
        # Values at the threshold T = ceil(p * 2^53), which random draws almost never
        # meet, for p on and off the 2^-53 grid, with the bits random() drops set or
        # clear: random() is (a * 2^26 + b) / 2^53 for a = w0 >> 5 and b = w1 >> 6.
        for p in (0.3, 0.1, 2 ** -60, 0.75, 1 - 2 ** -53):
            threshold = math.ceil(p * 2 ** 53)
            draws = [(x >> 26, x & (2 ** 26 - 1), dropped)
                     for x in range(max(threshold - 2, 0), min(threshold + 2, 2 ** 53))
                     for dropped in (0, 1, 31)]
            words = sum((a << 5 | d | (b << 6 | d) << 32) << 64 * j for j, (a, b, d) in enumerate(draws))
            misses = _draw_misses(lambda bits: words, len(draws), p)
            for j, (a, b, _) in enumerate(draws):
                assert misses >> j & 1 == (not (a * 67108864.0 + b) / 9007199254740992.0 < p), (p, j)

    def test_exact_draws_match_the_stdlib(self):
        """_sample_mask and _below return what random.sample and randrange
        return, and leave the generator in the same state: the pool and the
        set-rejection branch of sample, and sizes past 5, where the pool grows."""
        for seed in (0, 1, 7, 12345678901234567):
            for n in range(1, 41):
                for m in range(n + 1):
                    want, got = random.Random(seed), random.Random(seed)
                    assert (_sample_mask(got.getrandbits, n, m)
                            == sum(1 << v for v in want.sample(range(n), m))), (seed, n, m)
                    assert _below(got.getrandbits, m + 1) == want.randrange(m + 1)
                    assert got.getstate() == want.getstate(), (seed, n, m)

    def test_canonical_producers_still_reject_bad_shapes(self):
        for n, k in ((3, 1), (3, 0), (0, 2), (-1, 2)):
            with pytest.raises(ValueError):
                random_hypergraph(n, k, 0.5, random.Random(0))
            with pytest.raises(ValueError):
                parse_hypergraph(f"{k} {n}\n")
            with pytest.raises(ValueError):
                hypergraph_from_edge_index(n, k, 0)
        for n, k in ((4, 2), (5, 3)):
            with pytest.raises(ValueError):
                hypergraph_from_edge_index(n, k, -1)
            with pytest.raises(ValueError):
                hypergraph_from_edge_index(n, k, 1 << math.comb(n, k))

    def test_random_hypergraph_is_valid(self):
        rng = random.Random(0)
        H = random_hypergraph(6, 3, 0.5, rng)
        assert all(len(e) == 3 for e in H.edges)
