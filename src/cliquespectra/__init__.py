"""Clique-size spectra of uniform hypergraphs and budgeted-tree certificates."""

from .bounds import (
    TowerInt,
    iterated_log,
    log_star,
    min_slack_for,
    parse_tower_literal,
    size_recurrence,
    slack_lower_bound,
    tree_size_bound,
)
from .extraction import (
    CliqueChain,
    ExtractionResult,
    PathDecomposition,
    certificate_document,
    completeness_implication,
    extract_tree,
    implication_trials,
    validate_certificate,
)
from .hypergraphs import (
    Hypergraph,
    ParseError,
    SpectrumReport,
    brute_force_maximal_cliques,
    clique_spectrum,
    enumerate_maximal_cliques,
    parse_hypergraph,
    random_hypergraph,
    serialize_hypergraph,
)
from .layered import (
    LayeredParams,
    MaxTreeSize,
    OrderedTree,
    Violation,
    brute_force_max_layered,
    build_max_tree,
    contract,
    is_dfs_order,
    max_layered_size,
    parse_tree,
    serialize_tree,
    validate_layered,
)
from .search import (
    MoonMoserReport,
    SearchCheckpoint,
    check_moon_moser,
    edge_index_of,
    exhaustive_g,
    exhaustive_g_sharded,
    hill_climb_g,
    hypergraph_from_edge_index,
    merge_shards,
    run_shard,
    shard_ranges,
)

__version__ = "0.1.0"
