"""Command-line front end.

Exit codes: 0 success / validation passed, 1 validation failed or a bound
violated, 2 usage or input error.  All randomness flows from one user-supplied
64-bit seed through Python's Mersenne Twister (random.Random), read only by
its getrandbits(): edge draws decide random() < p from random()'s two words,
and sets and indices come from the exact copies of random.sample and randrange
in hypergraphs, so a seed gives the same output on every supported Python.
JSON output is key-sorted and deterministic for fixed inputs and seed, except
the elapsed_s wall-time field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from . import bounds, extraction, layered, search
from .hypergraphs import (
    Hypergraph,
    ParseError,
    clique_spectrum,
    enumerate_maximal_cliques,
    parse_hypergraph,
    serialize_hypergraph,
)

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """Structured result of one subcommand invocation."""

    command: str
    results: dict
    verdicts: dict = field(default_factory=dict)
    input_sha256: Optional[str] = None
    elapsed_s: float = 0.0

    def to_json(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "results": self.results,
            "verdicts": self.verdicts,
            "elapsed_s": round(self.elapsed_s, 6),
        }
        if self.input_sha256 is not None:
            doc["input_sha256"] = self.input_sha256
        return doc


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_hypergraph(path: str) -> tuple[Hypergraph, str]:
    text = _read_file(path)
    return parse_hypergraph(text), _digest(text)


def _seed_type(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return seed


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call.

    parse_args fills a fresh Namespace each time, so no call sees another's flags.
    """
    parser = argparse.ArgumentParser(
        prog="cliquespectra",
        description="Maximal-clique spectra of uniform hypergraphs, "
        "budgeted-tree certificates, and tower-scale bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="distinct maximal-clique sizes of a hypergraph file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cliques", help="list all maximal cliques of a hypergraph file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("extract-tree", help="build and validate the certificate tree")
    p.add_argument("path")
    p.add_argument("--C", type=int, default=None, help="slack; default n - #distinct sizes")
    p.add_argument("--json", metavar="OUT", default=None, help="write the certificate here")

    p = sub.add_parser("validate-tree", help="check a tree file against (k, C) budgets")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--C", type=int, required=True)

    p = sub.add_parser("max-tree", help="emit a maximum-size budgeted tree (depth 1 or 2)")
    p.add_argument("--k", type=int, required=True, choices=(1, 2))
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--emit", metavar="OUT", default=None)

    p = sub.add_parser("search-g", help="max distinct clique sizes over all n-vertex edge sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--hillclimb", action="store_true")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--seed", type=_seed_type, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--shards", type=int, default=None)
    p.add_argument("--shard", type=int, default=None)

    p = sub.add_parser("bound", help="recursive size bound for (k, C)-budgeted trees")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--variant", choices=bounds.VARIANTS, default="claim23")

    p = sub.add_parser("fstar", help="log-star and slack bounds for n (decimal or 2^2^...^d)")
    p.add_argument("--n", required=True)

    p = sub.add_parser("check-fact1", help="randomized union-completeness implication trials")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_seed_type, default=0)

    return parser


def _emit(report: RunReport, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    H, digest = _load_hypergraph(args.path)
    report_data = clique_spectrum(H)
    report = RunReport(
        "spectrum",
        {
            "k": H.k,
            "n": H.n,
            "sizes": list(report_data.sizes),
            "distinct_sizes": report_data.distinct_sizes,
            "witnesses": {str(s): sorted(w) for s, w in sorted(report_data.witnesses.items())},
        },
        input_sha256=digest,
        elapsed_s=time.perf_counter() - t0,
    )
    # Size-(k-1) cliques are legitimate: completeness is vacuous below size k.
    lines = [
        f"sizes: {list(report_data.sizes)}",
        f"distinct sizes: {report_data.distinct_sizes}",
    ]
    for s in sorted(report_data.witnesses, reverse=True):
        lines.append(f"witness[{s}]: {' '.join(map(str, sorted(report_data.witnesses[s])))}")
    _emit(report, args.json, lines)
    return 0


def _cmd_cliques(args) -> int:
    t0 = time.perf_counter()
    H, digest = _load_hypergraph(args.path)
    cliques = enumerate_maximal_cliques(H)
    report = RunReport(
        "cliques",
        {"k": H.k, "n": H.n, "count": len(cliques), "cliques": [sorted(c) for c in cliques]},
        input_sha256=digest,
        elapsed_s=time.perf_counter() - t0,
    )
    lines = [f"{len(cliques)} maximal cliques"]
    lines.extend(" ".join(map(str, sorted(c))) for c in cliques)
    _emit(report, args.json, lines)
    return 0


def _cmd_extract_tree(args) -> int:
    if args.C is not None and args.C < 0:
        raise ValueError("--C must be >= 0")
    H, digest = _load_hypergraph(args.path)
    result = extraction.extract_tree(H, args.C)
    doc = extraction.certificate_document(result, H)
    doc["input_sha256"] = digest
    ok = all(check["pass"] for check in doc["checks"])
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            # indent selects the pure-Python encoder: dump streams its chunks, dumps joins them
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
    print(f"chain of {result.tree.size} cliques, slack C = {result.chain.C}")
    print(f"tree parents: {list(result.tree.parents)}")
    print(f"budget check: depth <= {H.k - 1}, degree of v_i <= 2^({result.chain.C}+i)")
    for check in doc["checks"]:
        mark = "ok" if check["pass"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"  [{mark}] {check['name']}{detail}")
    print("certificate valid" if ok else "certificate INVALID")
    return 0 if ok else 1


def _cmd_validate_tree(args) -> int:
    tree = layered.parse_tree(_read_file(args.path))
    violations = layered.validate_layered(tree, layered.LayeredParams(args.k, args.C))
    if not violations:
        print(f"ok: {tree.size} vertices satisfy depth <= {args.k}, degree <= 2^({args.C}+i)")
        return 0
    for v in violations:
        print(f"violation: {v.message}")
    return 1


def _cmd_max_tree(args) -> int:
    if args.C < 0:
        raise ValueError("--C must be >= 0")
    params = layered.LayeredParams(args.k, args.C)
    tree = layered.build_max_tree(params)
    if layered.validate_layered(tree, params):
        raise RuntimeError(f"the maximum ({args.k},{args.C}) tree fails its own budgets")
    print(f"maximum ({args.k},{args.C}) tree: {tree.size} vertices")
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(layered.serialize_tree(tree))
        print(f"wrote {args.emit}")
    return 0


def _cmd_search_g(args) -> int:
    if args.n < 1 or args.k < 2:
        raise ValueError("need --n >= 1 and --k >= 2")
    climb = {"iters": 1000, "restarts": 1, "seed": 0}  # the hill climb's defaults
    given = {name: getattr(args, name) for name in climb if getattr(args, name) is not None}
    if given and not args.hillclimb:
        raise ValueError(f"only --hillclimb takes {' and '.join('--' + name for name in given)}")
    if args.hillclimb and args.shards is not None:
        raise ValueError("--hillclimb takes no --shards")
    if args.shards is None and (args.shard is not None or args.checkpoint):
        raise ValueError("--shard and --checkpoint need --shards")
    if args.hillclimb:
        climb.update(given)
        if climb["iters"] < 0 or climb["restarts"] < 1:
            raise ValueError("need --iters >= 0 and --restarts >= 1")
        best, witness = search.hill_climb_g(args.n, args.k, **climb)
        settings = ", ".join(f"{name}={value}" for name, value in climb.items())
        print(f"hill climb best: {best} distinct sizes ({settings})")
        print(f"witness edge index: {search.edge_index_of(witness)}")
        print(serialize_hypergraph(witness), end="")
        return 0
    if args.shard is not None:
        ranges = search.shard_ranges(args.n, args.k, args.shards)
        if not 0 <= args.shard < len(ranges):
            raise ValueError(f"--shard must be in 0..{len(ranges) - 1}")
        lo, hi = ranges[args.shard]
        cp = args.checkpoint and search.open_checkpoint(args.checkpoint, args.n, args.k, ranges)
        shard = search.run_shard(args.n, args.k, lo, hi)
        print(f"shard {args.shard}/{args.shards} [{lo}, {hi}): best {shard.best}, "
              f"witness index {shard.witness_edge_index}")
        if cp and (lo, hi) not in cp.shards_done:
            search.record_shard(cp, shard, args.checkpoint)
            print(f"checkpoint updated: {len(cp.shards_done)}/{len(ranges)} shards done")
        return 0
    if args.shards is not None:
        g_value, witness = search.exhaustive_g_sharded(args.n, args.k, args.shards, args.checkpoint)
    else:
        g_value, witness = search.exhaustive_g(args.n, args.k)
    print(f"g({args.n},{args.k}) = {g_value}")
    print(f"witness edge index: {search.edge_index_of(witness)}")
    print(serialize_hypergraph(witness), end="")
    if args.k == 2:
        mm = search.check_moon_moser(args.n, g_value)
        print(f"upper bound n - floor(log2 n) = {mm.upper_bound}: "
              f"{'satisfied' if mm.upper_ok else 'VIOLATED'}")
        if not mm.upper_ok:
            return 1
    return 0


def _cmd_bound(args) -> int:
    if args.k < 1 or args.C < 0:
        raise ValueError("need --k >= 1 and --C >= 0")
    value = bounds.tree_size_bound(args.k, args.C, args.variant)
    kind = "exact" if value.is_exact else ("pinned" if value.is_point else "enclosure")
    print(f"size bound for ({args.k},{args.C})-budgeted trees, variant {args.variant}:")
    print(f"  {value.describe()}  [{kind}]")
    return 0


def _cmd_fstar(args) -> int:
    n = bounds.parse_tower_literal(args.n)
    ls = bounds.log_star(n)
    f3 = bounds.slack_lower_bound(n)
    min_c = bounds.min_slack_for(n)
    print(f"n = {n.describe()}")
    print(f"log_star(n) = {ls}")
    print(f"slack lower bound log2(log_star(n)) - 1 = {f3}")
    print(f"min slack with n - C <= s_(2^C): {min_c}")
    return 0


def _cmd_check_fact1(args) -> int:
    if args.k < 2 or args.n < 1 or args.trials < 1:
        raise ValueError("need --k >= 2, --n >= 1, --trials >= 1")
    summary = extraction.implication_trials(args.k, args.n, args.trials, args.seed)
    print(f"{summary.trials} trials, hypotheses held in {summary.hypotheses_held}, "
          f"counterexamples: {len(summary.counterexamples)}")
    for bad in summary.counterexamples[:5]:
        print(f"  counterexample: sets {bad['sets']} edges {bad['edges']}")
    return 1 if summary.counterexamples else 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "cliques": _cmd_cliques,
    "extract-tree": _cmd_extract_tree,
    "validate-tree": _cmd_validate_tree,
    "max-tree": _cmd_max_tree,
    "search-g": _cmd_search_g,
    "bound": _cmd_bound,
    "fstar": _cmd_fstar,
    "check-fact1": _cmd_check_fact1,
}


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse soaks up usage errors with code 2
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
