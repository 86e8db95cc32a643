"""Locating-dominating sets in twin-free graphs: constructive bounds,
exact oracles, and exhaustive search tools."""

from .bound import (
    BoundReport,
    Candidate,
    GoodDecomposition,
    ScoredSet,
    build_z,
    candidate_sets,
    construct_ld,
    decompose,
    derive_good_set,
    ld_size_limit,
    local_search,
    locating_size_limit,
    max_score_exact,
    score_sum,
    thinning_move,
)
from .errors import LocdomError
from .graphs import (
    Graph,
    TwinPair,
    all_labeled_graphs,
    decode_graph6,
    encode_graph6,
    find_twins,
    generate,
    is_twin_free,
    labeled_graph,
    members,
    new_graph,
    parse_edge_list,
    set_of,
)
from .location import (
    extend_to_dominating,
    is_dominating,
    is_locating,
    is_locating_dominating,
    representatives,
    score_table,
    x_partition,
)
from .solver import (
    OptimumWitness,
    PartitionWitness,
    SkResult,
    min_locating,
    min_locating_dominating,
    s_k_of_graph,
    two_locating_partition,
)

__version__ = "0.1.0"
