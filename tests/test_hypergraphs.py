import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquespectra.hypergraphs import (
    Hypergraph,
    ParseError,
    brute_force_maximal_cliques,
    clique_spectrum,
    complement,
    count_distinct_sizes,
    enumerate_maximal_cliques,
    link_map,
    parse_hypergraph,
    random_hypergraph,
    serialize_hypergraph,
    toggle_edge,
)
from cliquespectra.search import hypergraph_from_edge_index

SINGLE_EDGE = Hypergraph.from_edges(3, 4, [(0, 1, 2)])
EDGELESS_33 = Hypergraph.from_edges(3, 3, [])
PATH_GRAPH = Hypergraph.from_edges(2, 3, [(0, 1), (1, 2)])


def complete_graph(k, n):
    return Hypergraph.from_edges(k, n, itertools.combinations(range(n), k))


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


def edge_masks(H):
    return [sum(1 << v for v in e) for e in H.edges]


class TestSizeCount:
    """The engine's sizes-only mode against listing and the brute-force oracle."""

    def test_matches_spectrum_and_brute_force(self):
        rng = random.Random(11)
        cases = [Hypergraph.from_edges(k, n, []) for k in (2, 3, 4, 5) for n in (1, k, 8)]
        cases += [complete_graph(k, n) for k in (2, 3, 4, 5) for n in (k, 9)]
        for _ in range(160):
            k = rng.randint(2, 5)
            cases.append(random_hypergraph(rng.randint(1, 11), k, rng.random(), rng))
        for H in cases:
            count = count_distinct_sizes(link_map(edge_masks(H)), H.k, H.n)
            assert count == clique_spectrum(H).distinct_sizes
            assert count == len({len(c) for c in brute_force_maximal_cliques(H)})

    @pytest.mark.parametrize("n, k", [(20, 2), (28, 2), (14, 3), (11, 4)])
    def test_matches_spectrum_past_brute_force(self, n, k):
        rng = random.Random(n * k)
        for p in (0.2, 0.5, 0.8):
            H = random_hypergraph(n, k, p, rng)
            count = count_distinct_sizes(link_map(edge_masks(H)), k, n)
            assert count == clique_spectrum(H).distinct_sizes

    @pytest.mark.parametrize("n, k", [(9, 2), (8, 3), (7, 4), (7, 5)])
    def test_toggled_link_map_matches_a_rebuilt_one(self, n, k):
        rng = random.Random(n + 10 * k)
        universe = list(itertools.combinations(range(n), k))
        edges = {e for e in universe if rng.random() < 0.5}
        link = link_map(edge_masks(Hypergraph.from_edges(k, n, edges)))
        for _ in range(150):
            e = rng.choice(universe)
            toggle_edge(link, sum(1 << v for v in e))
            edges ^= {e}
            H = Hypergraph.from_edges(k, n, edges)
            assert {s: m for s, m in link.items() if m} == link_map(edge_masks(H))
            assert count_distinct_sizes(link, k, n) == clique_spectrum(H).distinct_sizes


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

    def test_complement_helper(self):
        assert complement({0, 2}, 4) == frozenset({1, 3})

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
