import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cliquespectra import search
from cliquespectra.cli import run
from cliquespectra.hypergraphs import Hypergraph, brute_force_maximal_cliques, clique_spectrum
from cliquespectra.search import (
    SearchCheckpoint,
    SpectrumScanner,
    _admits,
    _member,
    _without,
    check_moon_moser,
    edge_index_of,
    edge_universe,
    exhaustive_g,
    exhaustive_g_sharded,
    hill_climb_g,
    hypergraph_from_edge_index,
    load_checkpoint,
    merge_shards,
    open_checkpoint,
    record_shard,
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

    @pytest.mark.parametrize("n,k,blocks", [
        (5, 3, 1),  # all 2^10 edge sets of (5, 3)
        (7, 2, 3),
        (6, 3, 3),
        (7, 4, 3),
    ])
    def test_every_lane_of_whole_blocks_matches_the_reference(self, n, k, blocks):
        """Each lane's count, read from the planes of width-10 blocks at random aligned bases."""
        rng = random.Random(100 * n + k)
        scanner = SpectrumScanner(n, k)
        for _ in range(blocks):
            base = rng.getrandbits(scanner.bits - 10) << 10
            planes = scanner.count_planes(base, 10)
            for i in range(1 << 10):
                count = sum((plane >> i & 1) << p for p, plane in enumerate(planes))
                H = hypergraph_from_edge_index(n, k, base + i)
                assert count == clique_spectrum(H).distinct_sizes

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 4), (3, 6), (2, 3), (3, 4)])
    def test_fewer_than_k_vertices(self, n, k):
        """No edge fits, so the whole vertex set is the one maximal clique.  Below
        k - 1 vertices it is the one set the scanner keeps an extension row for."""
        assert len(edge_universe(n, k)) == 0
        assert SpectrumScanner(n, k).count_planes(0, 0) == [1]
        assert exhaustive_g(n, k)[0] == clique_spectrum(hypergraph_from_edge_index(n, k, 0)).distinct_sizes == 1


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


class TestScannerReuse:
    """scan_range takes each (n, k)'s scanner from a cache; no scan may leave state behind."""

    def test_one_scanner_per_shape_in_a_bounded_cache(self):
        assert search._scanner(5, 3) is search._scanner(5, 3)
        assert search._scanner(5, 3) is not search._scanner(6, 2)
        maxsize = search._scanner.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize >= 1  # None would keep every n = 16 table

    def test_shuffled_ranges_on_cached_scanners_match_fresh_ones(self, monkeypatch):
        rng = random.Random(31)
        cases = [(5, 3, lo, hi) for lo, hi in shard_ranges(5, 3, 7)]
        cases += [(7, 2, BLOCK - 300, BLOCK + 200), (7, 2, 5000, 5600), (7, 2, 81407, 81408),
                  (6, 3, BLOCK - 50, BLOCK + 50)]
        rng.shuffle(cases)
        cached = []
        for n, k, lo, hi in cases:
            cached.append(scan_range(n, k, lo, hi))
            # a one-lane count between the block scans, on the same tables
            idx = rng.randrange(lo, hi)
            expected = clique_spectrum(hypergraph_from_edge_index(n, k, idx)).distinct_sizes
            assert search._scanner(n, k).distinct_sizes(idx) == expected
        monkeypatch.setattr(search, "_scanner", SpectrumScanner)  # a new scanner per scan
        fresh = [scan_range(*case) for case in cases]
        assert cached == fresh == [_oracle_scan(*case) for case in cases]


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
            ranges = shard_ranges(5, 3, parts)
            shards = [run_shard(5, 3, lo, hi) for lo, hi in ranges]
            assert [s.shards_done for s in shards] == [[r] for r in ranges]
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

    def test_shard_rejects_out_of_space_range(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned before the range was checked")

        monkeypatch.setattr(search, "scan_range", no_scan)
        with pytest.raises(ValueError, match="nonempty part of \\[0, 2\\^10\\)"):
            run_shard(5, 3, 0, 2**10 + 1)

    def test_checkpoint_interrupt_and_resume(self, tmp_path):
        # two single-shard runs leave a partial checkpoint, as search-g --shard i does
        path = str(tmp_path / "scan.json")
        ranges = shard_ranges(5, 3, 4)
        for lo, hi in ranges[:2]:
            record_shard(open_checkpoint(path, 5, 3, ranges), run_shard(5, 3, lo, hi), path)
        cp = load_checkpoint(path)
        assert cp.shards_done == ranges[:2]
        resumed_g, resumed_w = exhaustive_g_sharded(5, 3, 4, path)
        full_g, full_w = exhaustive_g(5, 3)
        assert (resumed_g, resumed_w) == (full_g, full_w)

    def test_checkpoint_round_trip(self, tmp_path):
        path = str(tmp_path / "cp.json")
        exhaustive_g_sharded(4, 2, 3, path)
        cp = load_checkpoint(path)
        save_checkpoint(cp, path)
        assert load_checkpoint(path) == cp

    def test_checkpoint_bytes_at_the_7_3_plan(self, tmp_path):
        # all 8,192 ranges of the (7, 3) plan, with g(7,3)'s witness
        witness = 34308863
        best = clique_spectrum(hypergraph_from_edge_index(7, 3, witness)).distinct_sizes
        cp = SearchCheckpoint(7, 3, shard_ranges(7, 3, 8192), best, witness,
                              started_at="2026-01-01T00:00:00", updated_at="2026-01-01T00:12:00")
        path = tmp_path / "cp.json"
        save_checkpoint(cp, str(path))
        dumped = io.StringIO()  # what json.dump wrote before, through the pure-Python encoder
        json.dump(cp.to_json(), dumped, sort_keys=True)
        dumped.write("\n")
        assert path.read_bytes() == dumped.getvalue().encode("utf-8")
        assert not (tmp_path / "cp.json.tmp").exists()
        assert load_checkpoint(str(path)) == cp

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "cp.json")
        exhaustive_g_sharded(4, 2, 2, path)
        with pytest.raises(ValueError, match="checkpoint"):
            exhaustive_g_sharded(5, 3, 2, path)

    def test_another_shard_count_is_reported(self, tmp_path, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned before the checkpoint was checked against the plan")

        path = tmp_path / "cp.json"
        ranges = shard_ranges(5, 3, 4)
        record_shard(open_checkpoint(str(path), 5, 3, ranges), run_shard(5, 3, *ranges[0]), str(path))
        text = path.read_text(encoding="utf-8")
        monkeypatch.setattr(search, "scan_range", no_scan)
        with pytest.raises(ValueError) as refusal:
            exhaustive_g_sharded(5, 3, 3, str(path))
        assert str(refusal.value) == ("checkpoint range [0, 256) is no shard of 3; "
                                      "was it written with another shard count?")
        assert path.read_text(encoding="utf-8") == text


class TestLaneExactShards:
    """A shard counts the lanes it owns, and its checkpoint is written on a clock."""

    def test_count_planes_refuses_a_block_it_cannot_count(self):
        scanner = SpectrumScanner(6, 3)
        with pytest.raises(ValueError, match="multiple of 2\\^width"):
            scanner.count_planes(256 + 1, 8)  # base not aligned to 2^8
        with pytest.raises(ValueError, match="width in 0..15"):
            scanner.count_planes(0, 16)  # wider than the scanner's blocks

    @pytest.mark.parametrize("n,k,counts", [
        (5, 3, range(1, 13)), (6, 2, range(1, 13)), (6, 4, range(1, 13)), (6, 3, [4096]),
    ])
    def test_shards_equal_the_unsharded_scan(self, n, k, counts):
        g, witness = exhaustive_g(n, k)
        for num_shards in counts:
            shards = [run_shard(n, k, lo, hi) for lo, hi in shard_ranges(n, k, num_shards)]
            assert merge_shards(shards) == (g, edge_index_of(witness)), num_shards

    def _counted(self, monkeypatch):
        """The lanes of each count_planes call made from here on."""
        counted = []
        real = SpectrumScanner.count_planes

        def counting(self, base, width):
            counted.append(1 << width)
            return real(self, base, width)

        monkeypatch.setattr(SpectrumScanner, "count_planes", counting)
        return counted

    def _lanes_per_shard(self, monkeypatch, n, k, num_shards):
        """(lanes owned, lanes counted) of each shard of the plan."""
        counted = self._counted(monkeypatch)
        lanes = []
        for lo, hi in shard_ranges(n, k, num_shards):
            counted.clear()
            run_shard(n, k, lo, hi)
            lanes.append((hi - lo, sum(counted)))
        return lanes

    def _lanes_counted(self, monkeypatch, n, k, num_shards):
        return sum(c for _, c in self._lanes_per_shard(monkeypatch, n, k, num_shards))

    def test_lanes_are_counted_once(self, monkeypatch):
        assert self._lanes_counted(monkeypatch, 6, 3, 4096) == 1 << 20  # aligned 256-lane shards
        # 7 unaligned shards share (6, 2)'s one 2^15-lane block; each counts the aligned
        # block around its own piece, not the whole block
        assert self._lanes_counted(monkeypatch, 6, 2, 7) < 7 * BLOCK

    @pytest.mark.parametrize("n,k,num_shards", [(6, 2, 7), (5, 3, 12), (6, 4, 11), (7, 2, 3)])
    def test_a_shard_counts_at_most_twice_its_lanes(self, monkeypatch, capsys, n, k, num_shards):
        # a piece under half its smallest aligned block is counted in two halves
        lanes = self._lanes_per_shard(monkeypatch, n, k, num_shards)
        assert all(counted <= 2 * owned for owned, counted in lanes), lanes
        argv = ["search-g", "--n", str(n), "--k", str(k)]
        assert run(argv) == 0
        unsharded = capsys.readouterr().out
        assert run(argv + ["--shards", str(num_shards)]) == 0
        assert capsys.readouterr().out == unsharded

    def test_a_piece_across_a_midpoint_is_split_there(self, monkeypatch):
        # [2^14 - 1, 2^14 + 1) straddles the midpoint of (6, 2)'s one 2^15-lane block
        counted = self._counted(monkeypatch)
        lo, hi = (1 << 14) - 1, (1 << 14) + 1
        assert scan_range(6, 2, lo, hi) == _oracle_scan(6, 2, lo, hi)
        assert counted == [1, 1]

    def test_the_clock_decides_the_writes(self, tmp_path, monkeypatch):
        saves = []  # the done-shard count at each write
        real = search.save_checkpoint

        def counting(cp, path):
            saves.append(len(cp.shards_done))
            real(cp, path)

        monkeypatch.setattr(search, "save_checkpoint", counting)
        fast = tmp_path / "fast.json"
        result = exhaustive_g_sharded(5, 3, 7, str(fast))
        assert saves == [7]  # well under CHECKPOINT_EVERY_S: one write, after the last shard
        exhaustive_g_sharded(5, 3, 7, str(fast))
        assert saves == [7]  # nothing pending, nothing written
        monkeypatch.setattr(search, "CHECKPOINT_EVERY_S", 0)
        every = tmp_path / "every.json"
        assert exhaustive_g_sharded(5, 3, 7, str(every)) == result
        assert saves == [7, 1, 2, 3, 4, 5, 6, 7]
        unstamped = [dict(json.loads(p.read_text(encoding="utf-8")), started_at="", updated_at="")
                     for p in (fast, every)]
        assert unstamped[0] == unstamped[1]

    def test_an_interrupted_run_keeps_its_finished_shards(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cp.json")
        ranges = shard_ranges(5, 3, 7)
        real = search.run_shard
        started = []

        def interrupted(n, k, lo, hi):
            started.append((lo, hi))
            if len(started) == 4:
                raise KeyboardInterrupt
            return real(n, k, lo, hi)

        monkeypatch.setattr(search, "run_shard", interrupted)
        with pytest.raises(KeyboardInterrupt):
            exhaustive_g_sharded(5, 3, 7, path)
        assert load_checkpoint(path).shards_done == ranges[:3]
        monkeypatch.setattr(search, "run_shard", real)
        assert exhaustive_g_sharded(5, 3, 7, path) == exhaustive_g(5, 3)
        assert load_checkpoint(path).shards_done == ranges


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

    @pytest.mark.parametrize("changes", [
        {"n": 0, "shards_done": [[0, 1]], "best": -1},
        {"n": 17, "k": 16, "shards_done": [[0, 2]], "best": -1},
        {"k": 1, "shards_done": [[0, 2]], "best": -1},
        {"best": True},
        {"best": 3.0},
        {"witness_edge_index": 79.0},
    ])
    def test_rejects_unscannable_shape_or_non_integers(self, tmp_path, changes):
        with pytest.raises(ValueError, match="n <= 16|integers"):
            self._load(tmp_path, _checkpoint_doc(**changes))


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


class TestFamilyCheck:
    """The climb's trial check against the brute-force maximal cliques of K(rest + [x]),
    and its table update against a table built from scratch."""

    @staticmethod
    def maximal_flags(family, n, k):
        K = Hypergraph.from_edges(k, n, {
            e for x in family
            for e in itertools.combinations([v for v in range(n) if x >> v & 1], k)
        })
        maximal = {sum(1 << v for v in c) for c in brute_force_maximal_cliques(K)}
        return [x in maximal for x in family]

    @staticmethod
    def cover_table(family, k):
        """Each (k-1)-subset of a member to the union of the members that contain it."""
        table = {}
        for x in family:
            bits = [1 << v for v in range(x.bit_length()) if x >> v & 1]
            for t in map(sum, itertools.combinations(bits, k - 1)):
                table[t] = table.get(t, 0) | x
        return table

    def test_matches_brute_force_on_random_families(self):
        rng = random.Random(23)
        verdicts, edge_cases = set(), set()
        for _ in range(400):
            n, k = rng.randint(1, 8), rng.randint(2, 4)
            draw = lambda size: sum(1 << v for v in rng.sample(range(n), size))
            rest = []  # all-maximal: each set is kept only if the family stays so
            for size in rng.sample(range(n + 1), rng.randint(0, min(4, n + 1))):
                z = draw(size)
                if all(self.maximal_flags(rest + [z], n, k)):
                    rest.append(z)
            free = [size for size in range(n + 1)
                    if size not in {z.bit_count() for z in rest}]
            x = draw(rng.choice(free))
            # the climber drops a member y and tries y with one vertex toggled,
            # or tries a new set and drops nothing
            y = rng.choice([0, x ^ 1 << rng.randrange(n), draw(rng.randint(0, n))])
            members = [_member(z, k) for z in rest]
            table = _without(self.cover_table(rest + [y], k), members, _member(y, k), k)
            assert {t: union for t, union in table.items() if union} == self.cover_table(rest, k)
            got = _admits(table, members, _member(x, k), n, k)
            flags = self.maximal_flags(rest + [x], n, k)
            assert got == all(flags), (n, k, rest, y, x)
            verdicts.add("accepted" if all(flags) else "x not maximal" if not flags[-1]
                         else "a member stops being maximal")
            edge_cases.update(("below k-1" if size < k - 1 else "k-1" if size == k - 1 else
                               "full" if size == n else "other")
                              for size in [x.bit_count()] + [z.bit_count() for z in rest])
        assert verdicts == {"accepted", "x not maximal", "a member stops being maximal"}
        assert edge_cases == {"below k-1", "k-1", "full", "other"}


class TestHillClimb:
    def test_never_beats_exhaustive(self):
        for n, k in [(4, 3), (4, 2), (5, 3)]:
            exact = exhaustive_g(n, k)[0]
            best, _ = hill_climb_g(n, k, iters=300, seed=5, restarts=3)
            assert best <= exact

    def test_zero_iterations_reports_the_start(self):
        # the empty family, whose K(F) is edgeless: one size, the (k-1)-sets
        best, witness = hill_climb_g(4, 3, iters=0, seed=9)
        assert best == clique_spectrum(witness).distinct_sizes == 1
        assert witness.edges == frozenset()

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
        (12, 3, 1, 7, 847288768462277766045217442030025485809118068301774912043715853695),
        (20, 2, 1, 4, 1456565175864526932557612479306168568849770811966038736767),
        (10, 4, 2, 6, 38880692164083734774613729492000415048153966494049870636612587),
        # draws of more than 5 vertices, and (n > 21) of at most 5 by set rejection
        (12, 3, 7, 8, 1684996666696675020289848322236276104485886325458436098790210223775),
        (24, 2, 7, 7,
         120690557766220311491211403403842493336398535517051759694734494105108588565263673383),
        (30, 2, 7, 8,
         88466349812448330461696859326502230847677816642987887119557667546418156667954674927013364629119648678980864820092253564048884840077),
    ], ids=["12-3-1", "20-2-1", "10-4-2", "12-3-7", "24-2-7", "30-2-7"])
    def test_pins_the_climb_path(self, n, k, seed, value, index):
        # taken from the family climber; a change to its moves or draws moves these
        best, witness = hill_climb_g(n, k, 90, seed, 1)
        assert (best, edge_index_of(witness)) == (value, index)

    def test_witness_recheck_survives_optimized_mode(self):
        # A feasibility check that accepts every family must be caught by the
        # enumeration of the reported witness, even under python -O.
        script = (
            "import sys\n"
            "from cliquespectra import search\n"
            "assert False, 'asserts are live'\n"
            "search._admits = lambda *args: True\n"
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
