import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cliquespectra.hypergraphs import brute_force_maximal_cliques, clique_spectrum
from cliquespectra.search import (
    SpectrumScanner,
    check_moon_moser,
    edge_index_of,
    edge_universe,
    exhaustive_g,
    exhaustive_g_sharded,
    hill_climb_g,
    hypergraph_from_edge_index,
    load_checkpoint,
    merge_shards,
    run_shard,
    save_checkpoint,
    shard_ranges,
)


class TestEdgeIndexing:
    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(50):
            n, k = rng.randint(1, 8), rng.choice([2, 3])
            bits = len(edge_universe(n, k))
            idx = rng.getrandbits(bits) if bits else 0
            H = hypergraph_from_edge_index(n, k, idx)
            assert edge_index_of(H) == idx

    def test_lexicographic_bit_order(self):
        H = hypergraph_from_edge_index(4, 2, 0b000011)
        assert sorted(H.edges) == [(0, 1), (0, 2)]


class TestScanner:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (5, 4)])
    def test_matches_reference_pipeline_exhaustively(self, n, k):
        scanner = SpectrumScanner(n, k)
        bits = len(edge_universe(n, k))
        for idx in range(1 << bits):
            H = hypergraph_from_edge_index(n, k, idx)
            assert scanner.distinct_sizes(idx) == clique_spectrum(H).distinct_sizes

    def test_matches_reference_on_random_larger(self):
        rng = random.Random(17)
        for n, k in [(7, 2), (6, 3), (7, 4)]:
            scanner = SpectrumScanner(n, k)
            bits = len(edge_universe(n, k))
            for _ in range(150):
                idx = rng.getrandbits(bits)
                H = hypergraph_from_edge_index(n, k, idx)
                assert scanner.distinct_sizes(idx) == clique_spectrum(H).distinct_sizes


class TestExhaustive:
    def test_tiny_values(self):
        assert exhaustive_g(1, 2)[0] == 1
        assert exhaustive_g(2, 2)[0] == 1
        g, witness = exhaustive_g(3, 2)
        assert g == 2
        assert edge_index_of(witness) == 1  # single edge plus an isolated vertex

    def test_witness_realizes_the_count(self):
        g, witness = exhaustive_g(5, 3)
        assert clique_spectrum(witness).distinct_sizes == g

    def test_refuses_oversized_space(self):
        with pytest.raises(ValueError, match="shards"):
            exhaustive_g(8, 2)  # 2^28 edge sets

    def test_monotone_in_n(self):
        values = [exhaustive_g(n, 2)[0] for n in range(1, 7)]
        assert values == sorted(values)

    def test_witness_recheck_survives_optimized_mode(self):
        # A scanner that reports one size too many must be caught even under
        # python -O, which strips assert statements.
        script = (
            "import sys\n"
            "from cliquespectra import search\n"
            "assert False, 'asserts are live'\n"
            "real = search.SpectrumScanner.distinct_sizes\n"
            "search.SpectrumScanner.distinct_sizes = lambda self, i: real(self, i) + 1\n"
            "try:\n"
            "    search.exhaustive_g(4, 2)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "enumeration" in proc.stdout


class TestSharding:
    def test_merge_matches_unsharded(self):
        full_g, full_w = exhaustive_g(5, 3)
        for parts in (2, 4, 7):
            shards = [run_shard(5, 3, lo, hi) for lo, hi in shard_ranges(5, 3, parts)]
            best, idx = merge_shards(shards)
            assert (best, idx) == (full_g, edge_index_of(full_w))

    def test_ranges_partition_the_space(self):
        ranges = shard_ranges(5, 3, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 1 << 10
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_shard_rejects_out_of_space_range(self):
        from cliquespectra.search import SearchShard

        with pytest.raises(ValueError, match="outside"):
            SearchShard(5, 3, 0, (1 << 10) + 1, 0, 0)

    def test_checkpoint_interrupt_and_resume(self, tmp_path):
        path = str(tmp_path / "scan.json")
        partial = exhaustive_g_sharded(5, 3, 4, path, max_shards_this_run=2)
        assert partial is None
        cp = load_checkpoint(path)
        assert len(cp.shards_done) == 2
        resumed_g, resumed_w = exhaustive_g_sharded(5, 3, 4, path)
        full_g, full_w = exhaustive_g(5, 3)
        assert (resumed_g, resumed_w) == (full_g, full_w)

    def test_checkpoint_round_trip(self, tmp_path):
        path = str(tmp_path / "cp.json")
        exhaustive_g_sharded(4, 2, 3, path)
        cp = load_checkpoint(path)
        save_checkpoint(cp, path)
        assert load_checkpoint(path) == cp

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "cp.json")
        exhaustive_g_sharded(4, 2, 2, path)
        with pytest.raises(ValueError, match="checkpoint"):
            exhaustive_g_sharded(5, 3, 2, path)


class TestMoonMoser:
    def test_passing_value(self):
        report = check_moon_moser(4, 2)
        assert report.upper_bound == 2 and bool(report)

    def test_failing_value(self):
        report = check_moon_moser(7, 6)
        assert report.upper_bound == 5 and not bool(report)

    def test_small_n(self):
        report = check_moon_moser(2, 1)
        assert bool(report) and report.lower_bound is None

    def test_lower_bound_reported_from_four(self):
        report = check_moon_moser(4, 2)
        assert report.lower_bound == pytest.approx(0.0)
        assert report.lower_ok


class TestHillClimb:
    def test_never_beats_exhaustive(self):
        for n, k in [(4, 3), (4, 2), (5, 3)]:
            exact = exhaustive_g(n, k)[0]
            best, _ = hill_climb_g(n, k, iters=300, seed=5, restarts=3)
            assert best <= exact

    def test_zero_iterations_reports_the_start(self):
        best, witness = hill_climb_g(4, 3, iters=0, seed=9)
        assert best == clique_spectrum(witness).distinct_sizes

    def test_deterministic_for_fixed_seed(self):
        a = hill_climb_g(5, 2, iters=120, seed=77, restarts=2)
        b = hill_climb_g(5, 2, iters=120, seed=77, restarts=2)
        assert a == b

    def test_bounded_by_n(self):
        best, _ = hill_climb_g(6, 2, iters=400, seed=3, restarts=2)
        assert best <= 6

    @pytest.mark.parametrize("n", [16, 17])
    def test_value_is_the_brute_force_count_of_the_witness(self, n):
        best, witness = hill_climb_g(n, 2, iters=60, seed=n)
        assert best == len({len(c) for c in brute_force_maximal_cliques(witness)})
