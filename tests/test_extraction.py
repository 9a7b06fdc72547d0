import dataclasses
import itertools
import random

import pytest

from cliquespectra import extraction
from cliquespectra.cli import run
from cliquespectra.extraction import (
    ExtractionResult,
    TrialsSummary,
    _position_implication,
    _subset_positions,
    certificate_document,
    completeness_implication,
    extract_tree,
    implication_trials,
    run_certificate_checks,
    validate_certificate,
)
from cliquespectra.hypergraphs import (
    Hypergraph,
    clique_spectrum,
    edge_universe,
    random_hypergraph,
)
from cliquespectra.layered import OrderedTree

from builders import complete_graph

SINGLE_EDGE = Hypergraph.from_edges(3, 4, [(0, 1, 2)])


def all_hypergraphs(k, n):
    universe = list(itertools.combinations(range(n), k))
    for mask in range(1 << len(universe)):
        yield Hypergraph.from_edges(
            k, n, [e for i, e in enumerate(universe) if mask >> i & 1]
        )


class TestSelectRepresentatives:
    """extract_tree's representatives: the lex-smallest clique of each size."""

    def test_complete_graph_auto(self):
        chain = extract_tree(complete_graph(3, 5)).chain
        assert len(chain.cliques) == 1
        assert chain.C == 4  # n - 1

    def test_single_edge_auto(self):
        chain = extract_tree(SINGLE_EDGE).chain
        assert chain.cliques == (frozenset({0, 1, 2}), frozenset({0, 3}))
        assert chain.C == 2

    def test_insufficient_distinct_sizes(self):
        H = Hypergraph.from_edges(3, 3, [])
        with pytest.raises(ValueError, match="insufficient"):
            extract_tree(H, 1)

    def test_sizes_strictly_decreasing_and_bounded(self):
        rng = random.Random(1)
        for _ in range(100):
            H = random_hypergraph(rng.randint(2, 9), 3, rng.random(), rng)
            chain = extract_tree(H).chain
            spectrum = clique_spectrum(H)
            assert chain.cliques == tuple(spectrum.witnesses[s] for s in sorted(spectrum.witnesses)[::-1])
            sizes = [len(c) for c in chain.cliques]
            assert sizes == sorted(set(sizes), reverse=True)
            for i, s in enumerate(sizes):
                assert s >= H.n - chain.C - i


class TestExtractTree:
    def test_complete_graph_single_node(self):
        H = complete_graph(3, 5)
        result = extract_tree(H)
        assert result.tree.size == 1
        assert result.certificate == ()
        assert validate_certificate(result, H) == []

    def test_single_edge_hand_simulation(self):
        result = extract_tree(SINGLE_EDGE)
        assert result.tree.parents == (0,)
        assert result.chain.A[1] == frozenset({0})
        assert result.chain.B[1] == frozenset({1, 2})
        assert validate_certificate(result, SINGLE_EDGE) == []

    def test_all_triples_but_one(self):
        H = Hypergraph.from_edges(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        result = extract_tree(H)
        assert result.tree.size == 1
        assert result.chain.C == 3

    def test_deterministic(self):
        rng = random.Random(2)
        for _ in range(25):
            H = random_hypergraph(rng.randint(3, 9), 3, rng.random(), rng)
            assert extract_tree(H) == extract_tree(H)

    def test_explicit_slack_larger_than_auto(self):
        result = extract_tree(SINGLE_EDGE, 3)
        assert result.chain.C == 3
        assert validate_certificate(result, SINGLE_EDGE) == []

    def test_slack_below_auto_rejected(self):
        with pytest.raises(ValueError, match="insufficient"):
            extract_tree(SINGLE_EDGE, 1)

    def test_removed_sets_stay_small(self):
        rng = random.Random(3)
        for _ in range(60):
            H = random_hypergraph(rng.randint(2, 10), rng.choice([3, 4]), rng.random(), rng)
            result = extract_tree(H)
            for i, b in enumerate(result.chain.B):
                assert len(b) <= result.chain.C + i

    def test_exhaustive_small_sweep(self):
        for H in all_hypergraphs(3, 4):
            result = extract_tree(H)
            assert validate_certificate(result, H) == []

    def test_pairwise_case_sweeps_clean(self):
        # depth bound k-1 = 1: every clique hangs off the root
        for H in all_hypergraphs(2, 4):
            result = extract_tree(H)
            assert validate_certificate(result, H) == []
            assert max(result.tree.depths) <= 1

    def test_descent_goes_deep(self):
        # nested chain: each clique's slice of the removed set repeats below
        universe = list(itertools.combinations(range(5), 3))
        found_depth2 = False
        for mask in range(1 << len(universe)):
            H = Hypergraph.from_edges(
                3, 5, [e for i, e in enumerate(universe) if mask >> i & 1]
            )
            result = extract_tree(H)
            if max(result.tree.depths, default=0) == 2:
                found_depth2 = True
                assert validate_certificate(result, H) == []
        assert found_depth2


class TestValidateCertificate:
    def test_empty_slice_forged_by_hand(self):
        H = Hypergraph.from_edges(
            3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (1, 2, 3)]
        )
        result = extract_tree(H)
        assert max(result.tree.depths) == 2
        node_pd = result.certificate[1]
        forged = dataclasses.replace(
            node_pd, S=(node_pd.S[0], node_pd.S[1], frozenset())
        )
        tampered = dataclasses.replace(
            result, certificate=(result.certificate[0], forged)
        )
        violations = validate_certificate(tampered, H)
        assert any("slices_nonempty" in v for v in violations)
        assert any("stored_matches_derived" in v for v in violations)

    def test_root_degree_forged_above_budget(self):
        # triangle + disjoint edge + isolated vertex: sizes 3, 2, 1 with k = 2
        H = Hypergraph.from_edges(2, 6, [(0, 1), (0, 2), (1, 2), (3, 4)])
        result = extract_tree(H)
        assert result.tree.parents == (0, 0)
        # shrink the slack to 0 by hand: the root's two children now exceed 2^0
        bad_chain = dataclasses.replace(result.chain, C=0)
        tampered = ExtractionResult(result.tree, bad_chain, result.certificate)
        violations = validate_certificate(tampered, H)
        assert any("degree_bound" in v for v in violations)

    def test_wrong_parent_breaks_set_definitions(self):
        H = Hypergraph.from_edges(
            3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (1, 2, 3)]
        )
        result = extract_tree(H)
        flat = OrderedTree((0, 0))
        tampered = dataclasses.replace(result, tree=flat)
        violations = validate_certificate(tampered, H)
        assert violations  # re-derivation cannot match a rewired tree

    def test_short_chain_sets_are_reported(self):
        # every result the validator cannot evaluate gets one structural note
        H = Hypergraph.from_edges(
            3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (1, 2, 3)]
        )
        result = extract_tree(H)
        chain = result.chain
        cases = [
            (H, dataclasses.replace(result, chain=dataclasses.replace(chain, A=chain.A[:-1])),
             "chain has 2 A and 3 B sets for 3 cliques"),
            (H, dataclasses.replace(result, chain=dataclasses.replace(chain, B=chain.B[:-1])),
             "chain has 3 A and 2 B sets for 3 cliques"),
        ]
        # the 6-vertex graph of test_root_degree_forged_above_budget: sizes 3, 2, 1, C = 3
        H = Hypergraph.from_edges(2, 6, [(0, 1), (0, 2), (1, 2), (3, 4)])
        result = extract_tree(H)
        chain, paths = result.chain, result.certificate
        assert [pd.path for pd in paths] == [(0, 1), (0, 2)]
        cases += [
            (H, dataclasses.replace(result, tree=OrderedTree((0,))),
             "tree has 2 vertices for 3 chain cliques"),
            (H, dataclasses.replace(result, chain=dataclasses.replace(chain, C=-1)),
             "C = -1 is not an integer >= 0"),
            (H, dataclasses.replace(result, chain=dataclasses.replace(chain, C=0.5)),
             "C = 0.5 is not an integer >= 0"),
            (H, dataclasses.replace(result, chain=dataclasses.replace(
                chain, cliques=(chain.cliques[0] | {9},) + chain.cliques[1:])),
             "X_0 has a vertex outside 0..5"),
            # arrays read back from JSON without conversion
            (H, dataclasses.replace(result, chain=dataclasses.replace(
                chain, cliques=tuple(sorted(c) for c in chain.cliques))),
             "X_0 is not a frozenset"),
            (H, dataclasses.replace(result, chain=dataclasses.replace(
                chain, A=chain.A[:2] + (sorted(chain.A[2]),))),
             "A_2 is not a frozenset"),
            (H, dataclasses.replace(result, chain=dataclasses.replace(
                chain, B=(list(chain.B[0]),) + chain.B[1:])),
             "B_0 is not a frozenset"),
            (H, dataclasses.replace(result, certificate=(
                dataclasses.replace(paths[0], S=tuple(map(sorted, paths[0].S))), paths[1])),
             "stored path of node 1 holds a set that is not a frozenset"),
            (H, dataclasses.replace(result, certificate=paths[:-1]),
             "1 stored paths for 2 non-root nodes"),
            (H, dataclasses.replace(result, certificate=(
                dataclasses.replace(paths[0], S=paths[0].S[:-1]), paths[1])),
             "stored path of node 1 has 1 slices for 2 path nodes"),
            (H, dataclasses.replace(result, certificate=(paths[0], paths[0])),
             "stored path [0, 1] is not the root path of node 2"),
        ]
        for graph, broken, note in cases:
            checks = run_certificate_checks(broken, graph)
            assert checks == [
                (name, [note] if name == "stored_matches_derived" else [f"not evaluated: {note}"])
                for name in extraction.CHECK_NAMES
            ]

    def test_root_path_of_length_three(self):
        # the only pinned certificate whose deepest path has r = 3, so
        # containment_chain's union over the other slices runs; S_1 copied
        # into S_2 is then caught by slices_disjoint
        H = random_hypergraph(7, 4, 0.8, random.Random(70))
        result = extract_tree(H)
        assert result.tree.parents == (0, 1, 2)
        assert result.certificate[-1].path == (0, 1, 2, 3)
        assert validate_certificate(result, H) == []
        paths = result.certificate
        S = paths[-1].S
        overlap = dataclasses.replace(paths[-1], S=S[:2] + (S[2] | S[1],) + S[3:])
        violations = validate_certificate(
            dataclasses.replace(result, certificate=paths[:-1] + (overlap,)), H)
        assert "slices_disjoint: node 3: S_1 meets S_2" in violations

    def test_children_sharing_a_slice_are_named(self):
        # the 6-vertex graph of test_root_degree_forged_above_budget: X_2 made
        # equal to X_1 gives the root's two children the same slice
        H = Hypergraph.from_edges(2, 6, [(0, 1), (0, 2), (1, 2), (3, 4)])
        result = extract_tree(H)
        chain = result.chain
        cliques = chain.cliques[:2] + (chain.cliques[1],)
        violations = validate_certificate(
            dataclasses.replace(result, chain=dataclasses.replace(chain, cliques=cliques)), H)
        assert "children_distinct: children 1 and 2 of 0 share a slice" in violations

    def test_every_tampering_is_caught(self):
        """Single-field tamperings of each certified result: a rewired
        parent, a vertex flipped in one A or B set, in one path's S slice or U,
        or in one clique, a clique vertex set to n, and C lowered by one.  Each
        one that changes the result must make the certificate fail.  C raised
        by one is a genuine certificate for the looser slack."""
        rng = random.Random(7)

        def flip(s):
            return s ^ {rng.randrange(H.n)}

        def flip_one(sets):
            i = rng.randrange(len(sets))
            return sets[:i] + (flip(sets[i]),) + sets[i + 1:]

        changed = 0
        for _ in range(300):
            k = rng.choice([2, 3, 4])
            H = random_hypergraph(rng.randint(1, 10), k, rng.random(), rng)
            result = extract_tree(H)
            assert validate_certificate(result, H) == []
            chain, tree, paths = result.chain, result.tree, result.certificate
            looser = dataclasses.replace(result, chain=dataclasses.replace(chain, C=chain.C + 1))
            assert validate_certificate(looser, H) == []
            assert looser == extract_tree(H, chain.C + 1)
            i = rng.randrange(len(chain.cliques))
            moved = chain.cliques[i] - {rng.choice(sorted(chain.cliques[i]))} | {H.n}
            tamperings = [
                dataclasses.replace(result, chain=dataclasses.replace(chain, C=chain.C - 1)),
                dataclasses.replace(result, chain=dataclasses.replace(chain, cliques=flip_one(chain.cliques))),
                dataclasses.replace(result, chain=dataclasses.replace(
                    chain, cliques=chain.cliques[:i] + (moved,) + chain.cliques[i + 1:])),
            ]
            field = rng.choice(("A", "B"))
            sets = flip_one(getattr(chain, field))
            tamperings.append(dataclasses.replace(result, chain=dataclasses.replace(chain, **{field: sets})))
            if tree.size > 1:
                i = rng.randrange(1, tree.size)
                parents = list(tree.parents)
                parents[i - 1] = rng.randrange(i)
                tamperings.append(dataclasses.replace(result, tree=OrderedTree(tuple(parents))))
                j = rng.randrange(len(paths))
                pd = paths[j]
                pd = (dataclasses.replace(pd, S=flip_one(pd.S)) if rng.randrange(2)
                      else dataclasses.replace(pd, U=flip(pd.U)))
                tamperings.append(dataclasses.replace(result, certificate=paths[:j] + (pd,) + paths[j + 1:]))
            for tampered in tamperings:
                if tampered != result:
                    changed += 1
                    assert validate_certificate(tampered, H), tampered
        assert changed > 1000

    def test_document_shape(self):
        doc = certificate_document(extract_tree(SINGLE_EDGE), SINGLE_EDGE)
        assert doc["schema_version"] == 1
        assert set(doc) >= {"k", "n", "C", "cliques", "parents", "A", "B", "paths", "checks"}
        assert doc["parents"] == [0]
        assert doc["cliques"] == [[0, 1, 2], [0, 3]]
        assert doc["paths"][0]["S"] == [[], [3]]
        assert all(check["pass"] for check in doc["checks"])

    def test_document_is_deterministic(self):
        import json

        a = certificate_document(extract_tree(SINGLE_EDGE), SINGLE_EDGE)
        b = certificate_document(extract_tree(SINGLE_EDGE), SINGLE_EDGE)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_random_sweep_validates(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(2, 11)
            k = rng.choice([3, 4])
            H = random_hypergraph(n, k, rng.random(), rng)
            result = extract_tree(H)
            assert validate_certificate(result, H) == []


class TestCompletenessImplication:
    def test_triangle_singletons(self):
        H = Hypergraph.from_edges(2, 3, [(0, 1), (0, 2), (1, 2)])
        assert completeness_implication(H, [{0}, {1}, {2}]) == (True, True)

    def test_path_fails_hypotheses(self):
        H = Hypergraph.from_edges(2, 3, [(0, 1), (1, 2)])
        assert completeness_implication(H, [{0}, {1}, {2}]) == (False, False)

    def test_empty_set_allowed(self):
        H = Hypergraph.from_edges(3, 4, [(0, 1, 2)])
        hypotheses, conclusion = completeness_implication(
            H, [{0, 1}, {2}, frozenset(), frozenset()]
        )
        assert not hypotheses or conclusion

    def test_wrong_set_count(self):
        with pytest.raises(ValueError, match="k \\+ 1"):
            completeness_implication(SINGLE_EDGE, [{0}, {1}])

    def test_out_of_range_vertex_is_refused(self):
        H = Hypergraph.from_edges(2, 3, [(0, 1)])
        with pytest.raises(ValueError, match="vertex 5 outside 0..2"):
            completeness_implication(H, [{0}, {5}, {1}])
        with pytest.raises(ValueError, match="vertex -1 outside 0..2"):
            completeness_implication(H, [{-1}, set(), {1}])
        with pytest.raises(ValueError, match="uniformity"):
            implication_trials(1, 5, 10, seed=0)

    def test_position_rule_matches_the_oracle(self):
        """The trials' rule on edge positions and vertex masks against
        completeness_implication and Hypergraph.is_complete."""
        rng = random.Random(41)
        held = covering = 0
        for _ in range(1200):
            k, n = rng.randint(2, 5), rng.randint(1, 10)
            H = random_hypergraph(n, k, rng.choice((0.3, 0.7, 0.9, 1.0)), rng)
            misses = 0  # bit j set where H lacks the edge at position j of edge_universe
            for j, e in enumerate(edge_universe(n, k)):
                if e not in H.edges:
                    misses |= 1 << j
            need = _subset_positions(n, k)
            sets = []
            for _ in range(k + 1):
                kind = rng.randrange(4)
                if kind == 0:
                    sets.append(frozenset())
                elif kind == 1:
                    sets.append(frozenset(range(n)))
                elif kind == 2 and sets:  # overlaps an earlier set
                    sets.append(rng.choice(sets) | {rng.randrange(n)})
                else:
                    sets.append(frozenset(rng.sample(range(n), rng.randint(1, n))))
            masks = [sum(1 << v for v in s) for s in sets]
            got = _position_implication(misses, need, masks)
            assert got == completeness_implication(H, sets)
            for s, mask in zip(sets, masks):
                assert (not misses & need(mask)) == H.is_complete(s)
            held += got[0]
            covering += frozenset(range(n)) in sets
        assert 100 < held < 1100 and covering > 100

    def test_counterexample_path_records_the_drawn_trial(self, monkeypatch, capsys):
        # a rule that denies every conclusion turns each trial into a counterexample
        monkeypatch.setattr(extraction, "_position_implication", lambda misses, need, masks: (True, False))
        k, n, trials, seed = 3, 7, 25, 5
        rng = random.Random(seed)
        want = []
        for _ in range(trials):
            H = random_hypergraph(n, k, rng.choice((0.25, 0.5, 0.8, 0.95, 1.0)), rng)
            sets = [sorted(rng.sample(range(n), rng.randint(0, min(n, 4)))) for _ in range(k + 1)]
            want.append({"edges": sorted(H.edges), "sets": sets})
        assert implication_trials(k, n, trials, seed) == TrialsSummary(trials, trials, tuple(want))
        assert run(["check-fact1", "--k", str(k), "--n", str(n), "--trials", str(trials),
                    "--seed", str(seed)]) == 1
        assert capsys.readouterr().out == "".join(
            [f"{trials} trials, hypotheses held in {trials}, counterexamples: {trials}\n"]
            + [f"  counterexample: sets {bad['sets']} edges {bad['edges']}\n" for bad in want[:5]]
        )

    def test_seeded_stream_is_pinned(self, capsys):
        # Values of the seeded draw order; a change to it must fail here.  (3, 30)
        # draws 4,060 edges a trial, so its miss masks span thousands of lanes.
        pins = {(2, 12, 1500, 1): 573, (3, 10, 1500, 1): 501, (4, 9, 1500, 1): 494,
                (3, 30, 800, 4): 251}
        for (k, n, trials, seed), held in pins.items():
            summary = implication_trials(k, n, trials, seed)
            assert (summary.trials, summary.hypotheses_held, summary.counterexamples) == (trials, held, ())
        assert run(["check-fact1", "--k", "3", "--n", "10", "--trials", "1500", "--seed", "1"]) == 0
        assert capsys.readouterr().out == "1500 trials, hypotheses held in 501, counterexamples: 0\n"

    def test_set_rejection_stream_is_pinned(self, capsys):
        # n = 30 exceeds random.sample's pool size for at most 4 vertices, so the
        # set draws take its rejection branch (its held count is pinned above)
        assert run(["check-fact1", "--k", "3", "--n", "30", "--trials", "800", "--seed", "4"]) == 0
        assert capsys.readouterr().out == "800 trials, hypotheses held in 251, counterexamples: 0\n"

    def test_trials_find_no_counterexamples(self):
        for k in (2, 3, 4):
            summary = implication_trials(k, 9, 3000, seed=11 * k)
            assert summary.counterexamples == ()
            assert summary.hypotheses_held > 0
