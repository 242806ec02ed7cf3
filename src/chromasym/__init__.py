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

    Each memo registers itself when its module is loaded: the oracle's, the
    power sums', the family recurrences' and the deepest build of each gf
    form.  The CLI's shared argument parser is not a memo and is kept: it
    holds no results.
    """
    from .symfun import _MEMOS

    for memo in _MEMOS:
        memo.clear()


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
