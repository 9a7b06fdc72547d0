"""Traced runs: wrappers around the calls into each module of cliquespectra.

A wrapper is installed on the name that the calling module looks up (for
example `extraction.clique_spectrum` for the call inside `extract_tree`, and
`search.clique_spectrum` for the one inside `hill_climb_g`), or on the class
attribute for methods.  Every wrapped call adds its count, total time and self
time (total minus the time of wrapped calls made inside it) to an aggregate.
Layer entry points also record a span (id, parent id, name, start, end); the
hot leaves, `SpectrumScanner.distinct_sizes`, `Hypergraph.is_complete`,
`Hypergraph.__init__` and `completeness_implication`, keep only the aggregate.
Spans stay in memory until `write` stores them at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, float, float]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.totals: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: List[list] = []  # per active call: [time in wrapped children, span id]
        self._patches: list = []
        self._last_id = 0

    def patch(self, owner, attr: str, name: str, span: bool = True,
              count: Optional[Tuple[str, Callable]] = None) -> None:
        """Replace owner.attr by a timing wrapper that reports under `name`.

        `count` = (counter, f) adds f(result) to that counter after each call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else 0
            if span:
                tracer._last_id += 1
                span_id = tracer._last_id
            else:
                span_id = parent_id  # spans below a leaf name the nearest span
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                total = tracer.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if span:
                    spans.append((span_id, parent_id, name, start, end))
            if count is not None:
                tracer.counts[count[0]] += count[1](result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take_round(self) -> Tuple[Dict[str, List[float]], Counter]:
        """Aggregates since the last call; the spans are kept."""
        totals, counts = self.totals, self.counts
        self.totals, self.counts = {}, Counter()
        return totals, counts

    def write(self, path: str, rounds: list) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [list(s) for s in self.spans], "rounds": rounds}, fh)


def install(tracer: Tracer, cli, extraction, hypergraphs, layered, search) -> None:
    """Wrap each layer's public functions where the workloads' calls look them up."""
    H, scanner = hypergraphs.Hypergraph, search.SpectrumScanner
    patch = tracer.patch
    patch(cli, "run", "cli.run")

    patch(cli, "parse_hypergraph", "hypergraphs.parse")
    patch(H, "__init__", "hypergraphs.build", span=False)
    patch(H, "is_complete", "hypergraphs.complete", span=False)
    for owner in (cli, extraction):
        patch(owner, "clique_spectrum", "hypergraphs.clique_spectrum")
    for owner in (cli, hypergraphs):
        patch(owner, "enumerate_maximal_cliques", "hypergraphs.enumerate",
              count=("cliques_out", len))

    patch(extraction, "extract_tree", "extraction.extract",
          count=("tree_nodes", lambda result: result.tree.size))
    patch(extraction, "run_certificate_checks", "extraction.checks")
    patch(extraction, "implication_trials", "extraction.implication_trials")
    patch(extraction, "completeness_implication", "extraction.implication", span=False)

    for owner in (extraction, layered):
        patch(owner, "validate_layered", "layered.validate")

    patch(scanner, "__init__", "search.scanner_setup")
    patch(scanner, "distinct_sizes", "search.scanner_evaluate", span=False)
    # hill_climb_g evaluates graphs past n = 16 through this name; exhaustive_g
    # re-checks its witness through it once per solve.
    patch(search, "clique_spectrum", "search.enumeration_evaluate")
    patch(search, "hypergraph_from_edge_index", "search.from_index")
    for name in ("save_checkpoint", "load_checkpoint", "exhaustive_g", "exhaustive_g_sharded",
                 "hill_climb_g", "run_shard", "scan_range", "edge_index_of"):
        patch(search, name, f"search.{name}")


def layer_metrics(totals: Dict[str, List[float]], counts: Counter, labeled_space: int) -> Dict[str, float]:
    """Per-layer metrics of one traced round."""
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return totals.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(name):
        return totals.get(name, (0, 0.0, 0.0))[2] * 1e3

    scanned = calls("search.scanner_evaluate")
    graphs = scanned + calls("search.enumeration_evaluate")
    evaluate_ms = ms("search.scanner_evaluate") + ms("search.enumeration_evaluate")
    return {
        "hypergraphs.parse_ms": ms("hypergraphs.parse"),
        "hypergraphs.build_calls": calls("hypergraphs.build"),
        "hypergraphs.build_ms": ms("hypergraphs.build"),
        "hypergraphs.enumerate_calls": calls("hypergraphs.enumerate"),
        "hypergraphs.enumerate_ms": ms("hypergraphs.enumerate"),
        "hypergraphs.cliques_out": counts["cliques_out"],
        "hypergraphs.complete_calls": calls("hypergraphs.complete"),
        "hypergraphs.complete_ms": ms("hypergraphs.complete"),
        "extraction.extract_ms": self_ms("extraction.extract"),
        "extraction.checks_ms": self_ms("extraction.checks"),
        "extraction.tree_nodes": counts["tree_nodes"],
        "extraction.trials": calls("extraction.implication"),
        "extraction.implication_ms": ms("extraction.implication"),
        "layered.validate_ms": ms("layered.validate"),
        "search.scanner_setup_calls": calls("search.scanner_setup"),
        "search.scanner_setup_ms": ms("search.scanner_setup"),
        "search.graphs_evaluated": graphs,
        "search.evaluate_ms": evaluate_ms,
        "search.us_per_graph": evaluate_ms * 1e3 / graphs if graphs else 0.0,
        "search.evals_per_labeled_graph": scanned / labeled_space if labeled_space else 0.0,
        "search.from_index_ms": ms("search.from_index"),
        "search.checkpoint_ms": ms("search.save_checkpoint") + ms("search.load_checkpoint"),
        "cli.self_ms": self_ms("cli.run"),
    }


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    return {"search.us_per_graph": "us", "search.evals_per_labeled_graph": "ratio",
            "trace.overhead_ratio": "ratio"}.get(metric, "count")
