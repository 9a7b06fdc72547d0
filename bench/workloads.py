"""The benchmark's four workloads: generated inputs, CLI operations, checks.

Each workload turns the benchmark seed into a fixed list of operations.  An
operation is one `cliquespectra.cli.run(argv)` call; the same list runs in
every round of a run.  `{round}` in an argument is replaced by the round
number, so that every round writes a fresh certificate or checkpoint file.
Each operation carries a check that takes the standard output of a call that
exited 0 and the file the call wrote, and returns the problems it finds (none
when the output is right).  The checks use `oracle`, never the program.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Set, Tuple

import oracle
from oracle import Edge

Check = Callable[[str, Optional[str]], List[str]]


@dataclass
class Op:
    name: str          # unique within the workload
    family: str        # instances of one kind and size
    argv: List[str]
    check: Check
    out_path: Optional[str] = None  # file the operation writes, read back for the check
    labeled_space: int = 0          # 2^C(n,k) for an exhaustive solve, else 0

    def argv_for(self, round_no: int) -> List[str]:
        return [a.replace("{round}", str(round_no)) for a in self.argv]

    def path_for(self, round_no: int) -> Optional[str]:
        return None if self.out_path is None else self.out_path.replace("{round}", str(round_no))


def _write(workdir: str, name: str, k: int, n: int, edges: List[Edge]) -> str:
    path = os.path.join(workdir, f"{name}.hg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(oracle.hg_text(k, n, edges))
    return path


@lru_cache(maxsize=None)
def _subset_scan(n: int, k: int) -> oracle.SubsetScan:
    return oracle.SubsetScan(n, k)


def _count(n: int, k: int, edges: Set[Edge]) -> int:
    if k == 2:
        return len(oracle.bron_kerbosch_sizes(n, edges))
    return _subset_scan(n, k).distinct_sizes(edges)


# ---------------------------------------------------------------------------
# certify: extract-tree on random dense files and many-size constructions
# ---------------------------------------------------------------------------

# (family, k, n, p, files per round).  The k=2 files are more than half of the
# operations, so the median latency falls inside that family.
CERTIFY_RANDOM = (("rand-k2-n60", 2, 60, 0.5, 10), ("rand-k3-n18", 3, 18, 0.8, 2),
                  ("rand-k4-n12", 4, 12, 0.9, 2))
CERTIFY_JOINS = (3, 4, 5, 6)   # join of K_1 + K_(1+2^i), i < m: 2^m sizes
CERTIFY_LIFTS = (3,)           # triangle lift: 2^m + 1 sizes; m = 4 takes ~40 s


def _certify_check(k: int, n: int, edges: Set[Edge], sizes: Optional[int]) -> Check:
    """`sizes` is the count a construction fixes; None counts it from the edges."""
    def check(stdout: str, doc_text: Optional[str]) -> List[str]:
        if not stdout.rstrip().endswith("certificate valid"):
            return ["stdout does not end with 'certificate valid'"]
        doc = json.loads(doc_text)
        problems = [f"check {c['name']} failed: {c['detail']}" for c in doc["checks"] if not c["pass"]]
        if (doc["k"], doc["n"]) != (k, n):
            problems.append(f"certificate is for k={doc['k']} n={doc['n']}")
        cliques = doc["cliques"]
        for c in cliques:
            if not oracle.is_maximal_clique(edges, c, n, k):
                problems.append(f"{c} is not a maximal clique of the input")
        if any(len(a) <= len(b) for a, b in zip(cliques, cliques[1:])):
            problems.append("clique sizes do not strictly decrease")
        C = n - len(cliques)
        if doc["C"] != C:
            problems.append(f"C = {doc['C']}, expected n - #cliques = {C}")
        if len(doc["parents"]) != len(cliques) - 1:
            problems.append("tree size differs from the number of cliques")
        else:
            problems.extend(oracle.tree_budget_problems(doc["parents"], k, C))
        want = _count(n, k, edges) if sizes is None else sizes
        if len(cliques) != want:
            problems.append(f"{len(cliques)} distinct sizes, expected {want}")
        return problems
    return check


def certify(seed: int, workdir: str) -> List[Op]:
    rng = random.Random(f"certify/{seed}")
    inputs: List[Tuple[str, str, int, int, List[Edge], Optional[int]]] = []
    for family, k, n, p, count in CERTIFY_RANDOM:
        for i in range(count):
            edges = oracle.random_edges(n, k, p, rng)
            inputs.append((f"{family}#{i}", family, k, n, edges, None))
    for m in CERTIFY_JOINS:
        n, edges = oracle.join_of_clique_pairs(m)
        inputs.append((f"join-m{m}", f"join-m{m}", 2, n, oracle.relabel(n, edges, rng), 1 << m))
    for m in CERTIFY_LIFTS:
        n, edges = oracle.join_of_clique_pairs(m)
        lift = oracle.triangle_lift(n, edges)
        inputs.append((f"lift-m{m}", f"lift-m{m}", 3, n, oracle.relabel(n, lift, rng), (1 << m) + 1))
    ops = []
    for name, family, k, n, edges, sizes in inputs:
        path = _write(workdir, name, k, n, edges)
        out = os.path.join(workdir, f"{name}.r{{round}}.cert.json")
        ops.append(Op(name, family, ["extract-tree", path, "--json", out],
                      _certify_check(k, n, set(edges), sizes), out_path=out))
    return ops


# ---------------------------------------------------------------------------
# exact-g and hillclimb: search-g, checked on the printed witness
# ---------------------------------------------------------------------------

_INDEX = re.compile(r"^witness edge index: (\d+)$", re.M)


def _witness(stdout: str, n: int, k: int) -> Tuple[int, Set[Edge], List[str]]:
    """Printed witness index and edge set, with problems in how they agree."""
    match = _INDEX.search(stdout)
    if match is None:
        raise ValueError("no witness edge index in the output")
    index = int(match.group(1))
    body = stdout[match.end():].lstrip("\n").split("upper bound", 1)[0]
    wk, wn, edges = oracle.parse_hg_text(body)
    problems = []
    if (wk, wn) != (k, n):
        problems.append(f"witness is for k={wk} n={wn}")
    if oracle.edge_index(n, k, edges) != index:
        problems.append("witness edge list does not match its printed index")
    return index, edges, problems


# (n, k): each solved unsharded and through --shards S --checkpoint.
EXACT_CASES = ((5, 3), (6, 2), (6, 4))


@lru_cache(maxsize=None)
def _exhaustive(n: int, k: int) -> Tuple[int, int]:
    return _subset_scan(n, k).exhaustive()


def _exact_check(n: int, k: int, shards: Optional[int]) -> Check:
    def check(stdout: str, checkpoint_text: Optional[str]) -> List[str]:
        match = re.search(rf"^g\({n},{k}\) = (\d+)$", stdout, re.M)
        if match is None:
            return ["no g(n,k) line in the output"]
        value = int(match.group(1))
        index, edges, problems = _witness(stdout, n, k)
        if _count(n, k, edges) != value:
            problems.append(f"witness has {_count(n, k, edges)} distinct sizes, reported {value}")
        problems.extend(oracle.size_bound_problems(value, n, k))
        best, first = _exhaustive(n, k)
        if (value, index) != (best, first):
            problems.append(f"reported ({value}, index {index}), exhaustive count gives ({best}, {first})")
        if shards is not None:
            cp = json.loads(checkpoint_text)
            if (cp["best"], cp["witness_edge_index"]) != (value, index):
                problems.append("checkpoint disagrees with the printed result")
            if len(cp["shards_done"]) != shards:
                problems.append(f"checkpoint lists {len(cp['shards_done'])} of {shards} shards")
        return problems
    return check


def exact_g(seed: int, workdir: str) -> List[Op]:
    rng = random.Random(f"exact-g/{seed}")
    ops = []
    for n, k in EXACT_CASES:
        family = f"exact-n{n}-k{k}"
        base = ["search-g", "--n", str(n), "--k", str(k), "--exhaustive"]
        space = 1 << math.comb(n, k)
        ops.append(Op(family, family, base, _exact_check(n, k, None), labeled_space=space))
        shards = rng.randint(2, 8)
        # A leftover checkpoint makes every shard count as done, so each round
        # gets its own path.
        cp = os.path.join(workdir, f"{family}.r{{round}}.checkpoint.json")
        ops.append(Op(f"{family}-sharded", family, base + ["--shards", str(shards), "--checkpoint", cp],
                      _exact_check(n, k, shards), out_path=cp, labeled_space=space))
    return ops


# (n, k, climbs per round).  Every climb spends exactly HILL_ITERS evaluations
# after its start graph: HILL_ITERS is below every C(n, k) here, so a climb
# can never finish a full pass without improvement and stop early.  n <= 16 is
# the scanner side of hill_climb_g's switch, n = 20 and 24 the enumeration
# side; (12, 3) is more than half of the operations, so the median latency
# falls inside that family.
HILL_CASES = ((10, 3, 1), (12, 3, 8), (14, 2, 1), (16, 2, 1), (20, 2, 2), (24, 2, 2))
HILL_ITERS = 90
HILL_RESTARTS = 1


def _hill_check(n: int, k: int) -> Check:
    def check(stdout: str, _file: Optional[str]) -> List[str]:
        match = re.search(r"^hill climb best: (\d+) distinct sizes", stdout, re.M)
        if match is None:
            return ["no 'hill climb best' line in the output"]
        value = int(match.group(1))
        _index, edges, problems = _witness(stdout, n, k)
        got = _count(n, k, edges)
        if got != value:
            problems.append(f"witness has {got} distinct sizes, reported {value}")
        problems.extend(oracle.size_bound_problems(value, n, k))
        return problems
    return check


def hillclimb(seed: int, workdir: str) -> List[Op]:
    rng = random.Random(f"hillclimb/{seed}")
    ops = []
    for n, k, climbs in HILL_CASES:
        family = f"climb-n{n}-k{k}"
        for i in range(climbs):
            climb_seed = rng.getrandbits(63)
            argv = ["search-g", "--n", str(n), "--k", str(k), "--hillclimb",
                    "--iters", str(HILL_ITERS), "--restarts", str(HILL_RESTARTS),
                    "--seed", str(climb_seed)]
            ops.append(Op(f"{family}#{i}", family, argv, _hill_check(n, k)))
    return ops


# ---------------------------------------------------------------------------
# fact1: check-fact1, the union-completeness implication
# ---------------------------------------------------------------------------

# (k, n) as in acceptance criterion 3; FACT1_OPS seeds each.  The middle
# family, (3, 10), then holds the median latency.
FACT1_CASES = ((2, 12), (3, 10), (4, 9))
FACT1_OPS = 3
FACT1_TRIALS = 1500


def _fact1_check(trials: int) -> Check:
    def check(stdout: str, _file: Optional[str]) -> List[str]:
        match = re.search(r"^(\d+) trials, hypotheses held in (\d+), counterexamples: (\d+)$",
                          stdout, re.M)
        if match is None:
            return ["no summary line in the output"]
        ran, held, bad = map(int, match.groups())
        problems = []
        if bad:
            problems.append(f"{bad} counterexamples to a theorem")
        if ran != trials:
            problems.append(f"{ran} trials ran, {trials} asked for")
        if held == 0:
            problems.append("the hypotheses never held, so nothing was tested")
        return problems
    return check


def fact1(seed: int, workdir: str) -> List[Op]:
    rng = random.Random(f"fact1/{seed}")
    ops = []
    for k, n in FACT1_CASES:
        family = f"fact1-k{k}-n{n}"
        for i in range(FACT1_OPS):
            argv = ["check-fact1", "--k", str(k), "--n", str(n), "--trials", str(FACT1_TRIALS),
                    "--seed", str(rng.getrandbits(63))]
            ops.append(Op(f"{family}#{i}", family, argv, _fact1_check(FACT1_TRIALS)))
    return ops


WORKLOADS = {"certify": certify, "exact-g": exact_g, "hillclimb": hillclimb, "fact1": fact1}
