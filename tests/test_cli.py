import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cliquespectra import search
from cliquespectra.cli import build_parser, run
from cliquespectra.hypergraphs import random_hypergraph, serialize_hypergraph

from builders import join_of_clique_pairs, triangle_lift

SINGLE_EDGE_TEXT = "3 4\n0 1 2\n"
STAR_TREE_TEXT = "3\n0\n0\n"


@pytest.fixture
def single_edge_file(tmp_path):
    path = tmp_path / "H.hg"
    path.write_text(SINGLE_EDGE_TEXT)
    return str(path)


def _strip_walltime(raw):
    doc = json.loads(raw)
    doc.pop("elapsed_s")
    return json.dumps(doc, sort_keys=True)


class TestSpectrumCommand:
    def test_text_output(self, single_edge_file, capsys):
        assert run(["spectrum", single_edge_file]) == 0
        out = capsys.readouterr().out
        assert "sizes: [3, 2, 2, 2]" in out
        assert "distinct sizes: 2" in out

    def test_json_deterministic(self, single_edge_file, capsys):
        assert run(["spectrum", single_edge_file, "--json"]) == 0
        first = capsys.readouterr().out
        assert run(["spectrum", single_edge_file, "--json"]) == 0
        second = capsys.readouterr().out
        assert _strip_walltime(first) == _strip_walltime(second)
        doc = json.loads(first)
        assert doc["schema_version"] == 1
        assert doc["results"]["distinct_sizes"] == 2
        assert "input_sha256" in doc

    def test_missing_file(self, capsys):
        assert run(["spectrum", "/does/not/exist.hg"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.hg"
        bad.write_text("3 3\n0 1\n")
        assert run(["spectrum", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, digest", [
        ("spectrum", "a03cddca2a18c8fc95a71d0f614834d570a8f0da0adc1ef4a0a386d32cb4926c"),
        ("cliques", "2cd7e08c1895a66e9f2543ccd62edc4f7f4791d1ad58caceb6a03e11de78c175"),
    ])
    def test_k3_results_are_pinned(self, command, digest, tmp_path, capsys):
        # 108 maximal cliques of 4 sizes on 14 vertices
        path = tmp_path / "k3.hg"
        path.write_text(serialize_hypergraph(random_hypergraph(14, 3, 0.7, random.Random("pin/k3"))))
        assert run([command, str(path), "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest() == digest


class TestCliquesCommand:
    def test_lists_cliques(self, single_edge_file, capsys):
        assert run(["cliques", single_edge_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "4 maximal cliques"
        assert out[1:] == ["0 1 2", "0 3", "1 3", "2 3"]

    def test_json_payload(self, single_edge_file, capsys):
        assert run(["cliques", single_edge_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["cliques"] == [[0, 1, 2], [0, 3], [1, 3], [2, 3]]


class TestExtractTreeCommand:
    def test_writes_certificate_and_passes(self, single_edge_file, tmp_path, capsys):
        out_path = tmp_path / "cert.json"
        assert run(["extract-tree", single_edge_file, "--json", str(out_path)]) == 0
        assert "certificate valid" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["C"] == 2
        assert doc["parents"] == [0]
        assert all(check["pass"] for check in doc["checks"])

    def test_explicit_slack(self, single_edge_file, capsys):
        assert run(["extract-tree", single_edge_file, "--C", "3"]) == 0

    def test_infeasible_slack_is_input_error(self, single_edge_file, capsys):
        assert run(["extract-tree", single_edge_file, "--C", "0"]) == 2

    def test_negative_slack_is_refused_by_name(self, single_edge_file, capsys):
        assert run(["extract-tree", single_edge_file, "--C", "-1"]) == 2
        assert capsys.readouterr().err == "error: --C must be >= 0\n"

    @pytest.mark.parametrize("name, H, digest", [
        ("join-m4", join_of_clique_pairs(4), "8fb253ee9ef6f3d02344e87c76073a0b9c40338104d26b4a6c04e1e33e663ead"),
        ("lift-m3", triangle_lift(join_of_clique_pairs(3)), "c7728e3e75a8018937cc2753258c8b2e92c2da5f091e0186e11e278a96d8c73e"),
        ("join-m6", join_of_clique_pairs(6), "6eb7c05c510b63f0764f8605ed5664ae4e0bc3558436f59182228feffb5ae921"),
        ("rand-k2-n60", random_hypergraph(60, 2, 0.5, random.Random("pin/k2")),
         "22d8e1261ebe5289dd91eddb7f18cd16d3efa94520c8dc73d696fadaa78ded13"),
        ("rand-k4-n12", random_hypergraph(12, 4, 0.9, random.Random("pin/k4")),
         "9c867ef216e397552f6101034a4bfe08b03cd36c7fc02194b05f4155f79cdfa1"),
    ])
    def test_certificate_bytes_are_pinned(self, name, H, digest, tmp_path, capsys):
        # many-size constructions (16 sizes on 23 vertices, 9 on 13, 64 on 75)
        # and dense random files like the benchmark's (6 sizes on 60, 3 on 12)
        path = tmp_path / f"{name}.hg"
        path.write_text(serialize_hypergraph(H))
        out_path = tmp_path / "cert.json"
        assert run(["extract-tree", str(path), "--json", str(out_path)]) == 0
        assert capsys.readouterr().out.endswith("certificate valid\n")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


class TestValidateTreeCommand:
    def test_star_fails_tight_budget(self, tmp_path, capsys):
        tree = tmp_path / "T.tree"
        tree.write_text(STAR_TREE_TEXT)
        assert run(["validate-tree", str(tree), "--k", "2", "--C", "0"]) == 1
        assert "degree" in capsys.readouterr().out

    def test_star_passes_looser_budget(self, tmp_path, capsys):
        tree = tmp_path / "T.tree"
        tree.write_text(STAR_TREE_TEXT)
        assert run(["validate-tree", str(tree), "--k", "2", "--C", "1"]) == 0


class TestMaxTreeCommand:
    def test_depth_two_emit_round_trip(self, tmp_path, capsys):
        out = tmp_path / "max.tree"
        assert run(["max-tree", "--k", "2", "--C", "1", "--emit", str(out)]) == 0
        assert "69 vertices" in capsys.readouterr().out
        assert run(["validate-tree", str(out), "--k", "2", "--C", "1"]) == 0

    def test_depth_one(self, capsys):
        assert run(["max-tree", "--k", "1", "--C", "3"]) == 0
        assert "9 vertices" in capsys.readouterr().out

    def test_cap_violation_is_input_error(self, capsys):
        assert run(["max-tree", "--k", "2", "--C", "2"]) == 2


class TestSearchCommand:
    def test_exhaustive_small(self, capsys):
        assert run(["search-g", "--n", "4", "--k", "2", "--exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "g(4,2) = 2" in out
        assert "satisfied" in out

    def test_default_mode_is_exhaustive(self, capsys):
        assert run(["search-g", "--n", "3", "--k", "2"]) == 0
        assert "g(3,2) = 2" in capsys.readouterr().out

    def test_single_shard_run(self, capsys):
        assert run(["search-g", "--n", "5", "--k", "3", "--shards", "4", "--shard", "0"]) == 0
        assert "shard 0/4" in capsys.readouterr().out

    def test_sharded_with_checkpoint(self, tmp_path, capsys):
        cp = tmp_path / "cp.json"
        args = ["search-g", "--n", "5", "--k", "3", "--shards", "4", "--checkpoint", str(cp)]
        assert run(args) == 0
        first = capsys.readouterr().out
        # rerun resumes from the finished checkpoint and reports the same result
        assert run(args) == 0
        assert capsys.readouterr().out == first

    def test_shard_by_shard_checkpoint_accumulation(self, tmp_path, capsys):
        cp = str(tmp_path / "cp.json")
        for shard in range(4):
            args = [
                "search-g", "--n", "5", "--k", "3",
                "--shards", "4", "--shard", str(shard), "--checkpoint", cp,
            ]
            assert run(args) == 0
        capsys.readouterr()
        # the accumulated checkpoint now answers the full query without rescanning
        assert run(["search-g", "--n", "5", "--k", "3", "--shards", "4",
                    "--checkpoint", cp]) == 0
        out = capsys.readouterr().out
        assert "g(5,3) = 3" in out
        assert "witness edge index: 79" in out

    def test_rerunning_a_done_shard_changes_nothing(self, tmp_path, capsys):
        cp = tmp_path / "cp.json"
        args = ["search-g", "--n", "5", "--k", "3", "--shards", "4", "--shard", "2",
                "--checkpoint", str(cp)]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert first.endswith("checkpoint updated: 1/4 shards done\n")
        text = cp.read_text(encoding="utf-8")
        assert run(args) == 0
        assert capsys.readouterr().out == first.splitlines(keepends=True)[0]
        assert cp.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("done, refused", [(0, "[0, 256)"), (3, "[768, 1024)")])
    def test_checkpoint_of_another_plan_is_refused_before_the_shard_scan(
            self, done, refused, tmp_path, monkeypatch, capsys):
        # shard 0 of 4 overlaps the shard this run records; shard 3 overlaps none,
        # yet under 2 shards neither file could ever finish
        cp = tmp_path / "cp.json"
        assert run(["search-g", "--n", "5", "--k", "3", "--shards", "4", "--shard", str(done),
                    "--checkpoint", str(cp)]) == 0
        capsys.readouterr()
        text = cp.read_text(encoding="utf-8")

        def no_scan(*args):
            raise AssertionError("scanned before the checkpoint was checked against the plan")

        monkeypatch.setattr(search, "scan_range", no_scan)
        assert run(["search-g", "--n", "5", "--k", "3", "--shards", "2", "--shard", "0",
                    "--checkpoint", str(cp)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: checkpoint range {refused} is no shard of 2; "
                                "was it written with another shard count?\n")
        assert cp.read_text(encoding="utf-8") == text

    def test_hillclimb_deterministic(self, capsys):
        args = [
            "search-g", "--n", "5", "--k", "2", "--hillclimb",
            "--iters", "100", "--restarts", "2", "--seed", "42",
        ]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("iters", [0, 50])
    def test_hillclimb_below_and_at_k_minus_one_vertices(self, n, iters, capsys):
        # n = 1 leaves no size in [k-1, n] to add; n = 2 only the whole vertex set
        assert run(["search-g", "--n", str(n), "--k", "3", "--hillclimb",
                    "--iters", str(iters), "--seed", "1"]) == 0
        assert "hill climb best: 1 distinct sizes" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", [[], ["--exhaustive"], ["--shards", "2"]])
    @pytest.mark.parametrize("flags, named", [
        (["--seed", "5", "--iters", "7"], "--iters and --seed"),
        (["--restarts", "2"], "--restarts"),
        (["--seed", "0"], "--seed"),
    ])
    def test_climb_flags_refused_outside_hillclimb(self, mode, flags, named, capsys):
        assert run(["search-g", "--n", "3", "--k", "2", *mode, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: only --hillclimb takes {named}\n"

    def test_hillclimb_defaults(self, capsys):
        assert run(["search-g", "--n", "5", "--k", "2", "--hillclimb"]) == 0
        first = capsys.readouterr().out
        assert "(iters=1000, restarts=1, seed=0)" in first.splitlines()[0]
        assert run(["search-g", "--n", "5", "--k", "2", "--hillclimb",
                    "--iters", "1000", "--restarts", "1", "--seed", "0"]) == 0
        assert capsys.readouterr().out == first

    def test_oversized_space_is_refused(self, capsys):
        assert run(["search-g", "--n", "8", "--k", "2", "--exhaustive"]) == 2
        assert "run at least 2^6 shards" in capsys.readouterr().err

    @pytest.mark.parametrize("n, k", [(17, 2), (16, 8)])
    def test_refusals_stay_short(self, n, k, capsys):
        assert run(["search-g", "--n", str(n), "--k", str(k)]) == 2
        err = capsys.readouterr().err
        assert len(err) < 200
        if n > 16:
            assert "n <= 16" in err

    @pytest.mark.parametrize("flags", [
        ["--shard", "3"],
        ["--checkpoint", "CP"],
        ["--hillclimb", "--shards", "3"],
        ["--hillclimb", "--restarts", "-2"],
        ["--hillclimb", "--iters", "-1"],
    ])
    def test_flags_the_mode_ignores_are_refused(self, flags, tmp_path, capsys):
        cp = tmp_path / "cp.json"
        argv = ["search-g", "--n", "4", "--k", "2"] + [str(cp) if f == "CP" else f for f in flags]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not cp.exists()

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"schema_version": 1, "n": 5, "k": 3, "shards_done": [[0, 600], [512, 1024]],
                    "best": 3, "witness_edge_index": 79}),
        json.dumps({"schema_version": 1, "n": 4, "k": 2, "shards_done": [],
                    "best": -1, "witness_edge_index": -1}),
    ])
    def test_checkpoint_is_validated_before_the_shard_scan(self, text, tmp_path, monkeypatch, capsys):
        def no_scan(*args):
            raise AssertionError("scanned before the checkpoint was read")

        monkeypatch.setattr(search, "scan_range", no_scan)
        cp = tmp_path / "cp.json"
        cp.write_text(text, encoding="utf-8")
        assert run(["search-g", "--n", "5", "--k", "3", "--shards", "4", "--shard", "0",
                    "--checkpoint", str(cp)]) == 2
        assert capsys.readouterr().out == ""
        assert cp.read_text(encoding="utf-8") == text

    def test_seed_must_fit_64_bits(self, capsys):
        assert run(["search-g", "--n", "3", "--k", "2", "--seed", str(1 << 64)]) == 2


def _tower(height, top):
    if height > 4:
        return f"2^^{height}({top})"
    return "2^" * height + (f"({top})" if "+" in top else top)


# `bound` values as printed: exact ones as text, enclosures as their
# (height, top) ends, an end drawn as 2^2^...^top up to four twos, else as
# 2^^height(top)
_BOUND_EXACT = {
    (1, C, variant): str((1 << C) + 1) for C in range(6) for variant in ("claim23", "claim24")
}
_BOUND_EXACT.update({(2, 0, "claim23"): "10", (2, 0, "claim24"): "258"})
_BOUND_ENCLOSED = {
    (2, 1, "claim23"): ((1, "2^132+7"), (1, "2^132+9")),
    (2, 2, "claim23"): ((5, "2^16391+14"), (5, "2^16391+24")),
    (2, 3, "claim23"): ((14, "134217740"), (14, "134217768")),
    (2, 4, "claim23"): ((30, "4503599627370517"), (30, "4503599627370577")),
    (2, 5, "claim23"): ((62, "2^101+38"), (62, "2^101+162")),
    (3, 0, "claim23"): ((14, "134217740"), (14, "134217769")),
    (2, 1, "claim24"): ((3, "2^128+4"), (3, "2^128+8")),
    (2, 2, "claim24"): ((9, "2^16384+7"), (9, "2^16384+19")),
    (2, 3, "claim24"): ((22, "134217728"), (22, "134217758")),
    (2, 4, "claim24"): ((46, "4503599627370496"), (46, "4503599627370558")),
    (2, 5, "claim24"): ((94, "2^101"), (94, "2^101+126")),
    (3, 0, "claim24"): ((766, "2^776"), (766, "2^776+1023")),
}
# exact offsets whose 2^offset refinement rounds pass the round cap
_BOUND_REFUSED = {
    (3, 3, "claim23"): "27",
    (3, 4, "claim23"): "52",
    (3, 5, "claim23"): "101",
    (3, 1, "claim24"): "128",
    (3, 2, "claim24"): "16384",
    (3, 3, "claim24"): "134217728",
    (3, 4, "claim24"): "4503599627370496",
    (3, 5, "claim24"): "2^101",
    (4, 0, "claim23"): "27",
    (2, 21, "claim23"): "21",
}


def _bound_argv(k, C, variant):
    return ["bound", "--k", str(k), "--C", str(C), "--variant", variant]


class TestBoundCommand:
    def test_both_variants(self, capsys):
        printed = {key: (value, "exact") for key, value in _BOUND_EXACT.items()}
        for key, (lower, upper) in _BOUND_ENCLOSED.items():
            printed[key] = (f"[{_tower(*lower)}, {_tower(*upper)}]", "enclosure")
        for (k, C, variant), (value, kind) in sorted(printed.items()):
            assert run(_bound_argv(k, C, variant)) == 0
            assert capsys.readouterr().out == (
                f"size bound for ({k},{C})-budgeted trees, variant {variant}:\n"
                f"  {value}  [{kind}]\n"
            )

    def test_tall_towers_print_compactly(self, capsys):
        assert run(_bound_argv(3, 0, "claim24")) == 0
        out = capsys.readouterr().out
        assert len(out) < 200
        assert "  [2^^766(2^776), 2^^766(2^776+1023)]  [enclosure]\n" in out
        assert run(_bound_argv(2, 1, "claim23")) == 0
        assert "  [2^(2^132+7), 2^(2^132+9)]  [enclosure]\n" in capsys.readouterr().out
        assert run(_bound_argv(2, 2, "claim23")) == 0
        assert "  [2^^5(2^16391+14), 2^^5(2^16391+24)]  [enclosure]\n" in capsys.readouterr().out

    @pytest.mark.parametrize("k, C, variant", sorted(_BOUND_REFUSED))
    def test_exact_offset_refusals(self, k, C, variant, capsys):
        assert run(_bound_argv(k, C, variant)) == 2
        assert capsys.readouterr().err == (
            "error: size bound recursion is not materializable: it would need "
            f"2^{_BOUND_REFUSED[k, C, variant]} refinement rounds (cap 1048576)\n"
        )

    def test_unmaterializable_is_input_error(self, capsys):
        # the offset is an enclosure here, so the refusal names its tower height
        for C, height in ((1, 255), (2, 32767)):
            assert run(["bound", "--k", "3", "--C", str(C)]) == 2
            err = capsys.readouterr().err
            assert len(err) < 200
            assert err == (
                "error: size bound recursion is not materializable: it would need "
                f"2^(a tower of height {height}) refinement rounds (cap 1048576)\n"
            )

    def test_unknown_variant_rejected(self, capsys):
        assert run(["bound", "--k", "2", "--C", "0", "--variant", "clam"]) == 2


class TestFstarCommand:
    def test_decimal(self, capsys):
        assert run(["fstar", "--n", "65535"]) == 0
        out = capsys.readouterr().out
        assert "log_star(n) = 4" in out

    def test_tower_literal(self, capsys):
        assert run(["fstar", "--n", "2^2^16"]) == 0
        out = capsys.readouterr().out
        assert "log_star(n) = 6" in out

    @pytest.mark.parametrize("literal, shown, log_star, slack, min_slack", [
        ("65535", "65535", 4, "1.0", 2),
        ("65536", "65536", 5, "1.3219280948873622", 2),
        ("2^100", "2^100", 5, "1.3219280948873622", 2),
        ("2^1048575", "2^1048575", 6, "1.584962500721156", 2),  # last exact power
        ("2^1048576", "2^1048576", 6, "1.584962500721156", 2),  # first tower
        ("2^2^16", "2^65536", 6, "1.584962500721156", 2),
        ("2^2^2^2^2^16", "2^2^2^2^65536", 9, "2.169925001442312", 3),
        ("2^2^2^2^2^2^2^3", "2^2^2^2^2^256", 9, "2.169925001442312", 3),
    ])
    def test_exact_and_symbolic_output(self, literal, shown, log_star, slack, min_slack, capsys):
        assert run(["fstar", "--n", literal]) == 0
        assert capsys.readouterr().out == (
            f"n = {shown}\n"
            f"log_star(n) = {log_star}\n"
            f"slack lower bound log2(log_star(n)) - 1 = {slack}\n"
            f"min slack with n - C <= s_(2^C): {min_slack}\n"
        )

    def test_junk_literal(self, capsys):
        assert run(["fstar", "--n", "3^3"]) == 2


class TestCheckFact1Command:
    def test_clean_run(self, capsys):
        assert run(["check-fact1", "--k", "2", "--n", "6", "--trials", "500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "counterexamples: 0" in out

    def test_deterministic_for_seed(self, capsys):
        args = ["check-fact1", "--k", "3", "--n", "7", "--trials", "200", "--seed", "9"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first


class TestUsageContract:
    def test_unknown_flag(self, capsys):
        assert run(["spectrum", "x.hg", "--nope"]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert run([]) == 2

    @pytest.mark.parametrize("argv, message", [
        ("max-tree --k 2 --C -1", "--C must be >= 0"),
        ("max-tree --k 1 --C 21", "tree would need 2097153 vertices, over the cap of 1000000"),
        ("max-tree --k 1 --C 20", "tree would need 1048577 vertices, over the cap of 1000000"),
        ("max-tree --k 2 --C 2",
         "tree would need [2^(2^2059+2059), 2^(2^2059+2060)] vertices, over the cap of 1000000"),
        ("search-g --n 0 --k 2", "need --n >= 1 and --k >= 2"),
        ("search-g --n 5 --k 3 --shards 4 --shard 4", "--shard must be in 0..3"),
        ("search-g --n 5 --k 3 --shards 0", "need at least one shard"),
        ("bound --k 0 --C 0", "need --k >= 1 and --C >= 0"),
        ("check-fact1 --k 2 --n 5 --trials 0", "need --k >= 2, --n >= 1, --trials >= 1"),
    ])
    def test_out_of_range_values_are_one_line_errors(self, argv, message, capsys):
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def _python(*args):
    """A new interpreter on this checkout's src, run with args."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


class TestParserReuse:
    """One parser serves every run call of a process, and no call leaks into the next."""

    @pytest.mark.parametrize("sequence, codes", [
        ([["search-g", "--n", "x", "--k", "2"], ["search-g", "--n", "3", "--k", "2"]], [2, 0]),
        ([["--help"], ["search-g", "--n", "3", "--k", "2"]], [0, 0]),
        # climb flags given once stay None for the calls after it
        ([["search-g", "--n", "3", "--k", "2", "--hillclimb", "--seed", "5", "--iters", "7"],
          ["search-g", "--n", "3", "--k", "2", "--exhaustive"],
          ["search-g", "--n", "3", "--k", "2", "--seed", "5"]], [0, 0, 2]),
    ], ids=["usage-error", "help", "climb-flags"])
    def test_calls_in_one_process_match_fresh_processes(self, sequence, codes, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
        fresh = [_python("-m", "cliquespectra", *argv) for argv in sequence]  # as users start it
        expected = [(proc.returncode, proc.stdout, proc.stderr) for proc in fresh]
        parser = build_parser()
        got = []
        for argv in sequence:
            code = run(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        assert build_parser() is parser
        assert [code for code, _, _ in got] == codes
        assert got == expected

    def test_import_builds_no_parser(self):
        # the parser is built by the first run call, so importing the CLI stays as cheap as before
        proc = _python("-c", "from cliquespectra import cli; print(cli.build_parser.cache_info())")
        assert proc.returncode == 0, proc.stderr
        assert "currsize=0" in proc.stdout
