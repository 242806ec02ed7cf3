"""Exact chromatic symmetric functions in the elementary symmetric basis.

Covers integer partitions with the epsilon statistic, sparse e-basis
arithmetic, truncated power series, small-graph constructions, a brute-force
oracle, and the closed forms / generating functions / recurrences for paths,
cycles, and their twinned variants.
"""

from .partitions import (epsilon, epsilon_minus, make_partition, partitions_of,
                         remove_part, union)
from .symfun import SymE, e, e_term, power_sum_lambda_to_e, power_sum_to_e
from .powerseries import Series, invert_unit, named_series
from .graphs import Graph, family, parse_graph
from .csf import chromatic_count_check, csf, triple_deletion_check

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every module-level result memo, so the next call computes cold.

    The CLI's shared argument parser is kept: it holds no results.
    """
    from .csf import _csf_memo
    from .families import (_both_rec_cache, _cycle_cache, _interior_rec_cache,
                           _leaf_rec_cache, _moose_rec_cache, _path_cache,
                           _twin_cycle_rec_cache)
    from .symfun import _power_sum_lam_memo, _power_sum_memo

    for memo in (_csf_memo, _power_sum_lam_memo, _power_sum_memo, _path_cache,
                 _cycle_cache, _leaf_rec_cache, _both_rec_cache,
                 _interior_rec_cache, _twin_cycle_rec_cache, _moose_rec_cache):
        memo.clear()
    _power_sum_memo[1] = e(1)


__all__ = [
    "epsilon", "epsilon_minus", "make_partition", "partitions_of",
    "remove_part", "union",
    "SymE", "e", "e_term", "power_sum_to_e", "power_sum_lambda_to_e",
    "Series", "invert_unit", "named_series",
    "Graph", "family", "parse_graph",
    "csf", "chromatic_count_check", "triple_deletion_check",
    "clear_caches",
    "__version__",
]
