import json
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
    scan_range,
    shard_ranges,
)


def run_optimized(script):
    """Run script under python -O (asserts stripped) against this checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


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


def _oracle_scan(n, k, lo, hi):
    """(best, smallest index) over [lo, hi), one enumeration per index."""
    best, best_index = -1, -1
    for idx in range(lo, hi):
        d = clique_spectrum(hypergraph_from_edge_index(n, k, idx)).distinct_sizes
        if d > best:
            best, best_index = d, idx
    return best, best_index


BLOCK = 1 << 15


class TestBlockBoundaries:
    @pytest.mark.parametrize("n,k", [(7, 2), (6, 3)])
    @pytest.mark.parametrize("lo,hi", [
        (81407, 81408),                    # a single index
        (5000, 6200),                      # inside one block
        (BLOCK - 900, BLOCK),              # ends exactly on a block boundary
        (BLOCK, BLOCK + 300),              # starts exactly on one
        (BLOCK - 700, BLOCK + 700),        # straddles one
    ])
    def test_scan_range_matches_per_index_oracle(self, n, k, lo, hi):
        assert scan_range(n, k, lo, hi) == _oracle_scan(n, k, lo, hi)

    def test_block_width_is_derived_from_n_and_k(self):
        assert SpectrumScanner(7, 2).width == 15
        assert SpectrumScanner(4, 2).width == 6  # 2^6 edge sets in all
        assert SpectrumScanner(12, 2).width == 12  # 2^12 subsets x 2^12 lanes = 2^24 bits

    def test_single_lane_agrees_with_its_block(self):
        scanner = SpectrumScanner(6, 3)
        for idx in (0, 1047, 81407, BLOCK - 1, BLOCK, (1 << 20) - 1):
            base = idx - idx % BLOCK
            assert scanner.best_in_block(base, 1 << (idx - base)) == (scanner.distinct_sizes(idx), idx)


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

    def test_pins_g_7_2(self):
        g, witness = exhaustive_g(7, 2)
        assert (g, edge_index_of(witness)) == (4, 2527)

    def test_monotone_in_n(self):
        values = [exhaustive_g(n, 2)[0] for n in range(1, 7)]
        assert values == sorted(values)

    def test_witness_recheck_survives_optimized_mode(self):
        # A block evaluator that reports one size too many must be caught even
        # under python -O, which strips assert statements.
        script = (
            "import sys\n"
            "from cliquespectra import search\n"
            "assert False, 'asserts are live'\n"
            "real = search.SpectrumScanner.best_in_block\n"
            "def inflated(self, base, valid):\n"
            "    best, index = real(self, base, valid)\n"
            "    return best + 1, index\n"
            "search.SpectrumScanner.best_in_block = inflated\n"
            "try:\n"
            "    search.exhaustive_g(4, 2)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "enumeration" in proc.stdout


class TestSharding:
    def test_merge_matches_unsharded(self):
        full_g, full_w = exhaustive_g(5, 3)
        for parts in (2, 4, 7):
            shards = [run_shard(5, 3, lo, hi) for lo, hi in shard_ranges(5, 3, parts)]
            best, idx = merge_shards(shards)
            assert (best, idx) == (full_g, edge_index_of(full_w))
        full = scan_range(7, 2, 0, 1 << 21)
        for parts in (3, 64):  # unaligned shards, and shards of exactly one block
            shards = [run_shard(7, 2, lo, hi) for lo, hi in shard_ranges(7, 2, parts)]
            assert merge_shards(shards) == full

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

    def test_another_shard_count_is_reported(self, tmp_path):
        path = str(tmp_path / "cp.json")
        exhaustive_g_sharded(5, 3, 4, path, max_shards_this_run=1)
        with pytest.raises(ValueError, match="another shard count"):
            exhaustive_g_sharded(5, 3, 3, path)


def _checkpoint_doc(**changes):
    """A checkpoint of the full (5, 3) scan in two shards, with fields replaced."""
    doc = {"schema_version": 1, "n": 5, "k": 3, "shards_done": [[0, 512], [512, 1024]],
           "best": 3, "witness_edge_index": 79, "started_at": "", "updated_at": ""}
    doc.update(changes)
    return doc


class TestCheckpointValidation:
    def _load(self, tmp_path, doc):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return load_checkpoint(str(path))

    def test_accepts_a_scan_result(self, tmp_path):
        assert self._load(tmp_path, _checkpoint_doc()).best == 3

    def test_rejects_unknown_schema_version(self, tmp_path):
        with pytest.raises(ValueError, match="schema_version"):
            self._load(tmp_path, _checkpoint_doc(schema_version=2))

    def test_rejects_missing_field(self, tmp_path):
        doc = _checkpoint_doc()
        del doc["best"]
        with pytest.raises(ValueError, match="missing"):
            self._load(tmp_path, doc)

    def test_rejects_range_outside_the_space(self, tmp_path):
        with pytest.raises(ValueError, match="2\\^10"):
            self._load(tmp_path, _checkpoint_doc(shards_done=[[0, 512], [512, 1025]]))

    def test_rejects_empty_range(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            self._load(tmp_path, _checkpoint_doc(shards_done=[[0, 512], [600, 600]]))

    def test_rejects_overlapping_ranges(self, tmp_path):
        with pytest.raises(ValueError, match="overlap"):
            self._load(tmp_path, _checkpoint_doc(shards_done=[[0, 600], [512, 1024]]))

    def test_rejects_witness_outside_done_ranges(self, tmp_path):
        with pytest.raises(ValueError, match="no done range"):
            self._load(tmp_path, _checkpoint_doc(shards_done=[[512, 1024]]))

    def test_rejects_witness_without_best_sizes(self, tmp_path):
        with pytest.raises(ValueError, match="has 3 distinct sizes, not 4"):
            self._load(tmp_path, _checkpoint_doc(best=4))


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

    @pytest.mark.parametrize("n, k, seed, value, index", [
        (12, 3, 1, 3, 429790463341409506232571742761946985618254286095562267080457040373),
        (20, 2, 1, 5, 99031989276513715144215640778606478874041262853717340661),
        (10, 4, 2, 3, 139653534295934710924697600389473405595085181658303137427925363),
    ])
    def test_pins_the_climb_path(self, n, k, seed, value, index):
        # taken from the climb that enumerated every neighbor in full
        best, witness = hill_climb_g(n, k, 90, seed, 1)
        assert (best, edge_index_of(witness)) == (value, index)

    def test_witness_recheck_survives_optimized_mode(self):
        # A neighbor count one size too high must be caught by the re-check
        # of the reported witness, even under python -O.
        script = (
            "import sys\n"
            "from cliquespectra import search\n"
            "assert False, 'asserts are live'\n"
            "real = search.count_distinct_sizes\n"
            "search.count_distinct_sizes = lambda link, k, n: real(link, k, n) + 1\n"
            "try:\n"
            "    search.hill_climb_g(8, 2, 40, 1)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        proc = run_optimized(script)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "enumeration" in proc.stdout
