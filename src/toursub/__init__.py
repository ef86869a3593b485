"""Subdivisions of complete digraphs and transitive tournaments in
tournaments: constructive finders, an exact search oracle, and a seeded
experiment harness.

The exact search runs on one pure-Python kernel; see ``toursub._kernel``.
"""

from ._kernel import backend_name
from .complete_finder import (
    find_complete_subdivision,
    find_digraph_subdivision,
)
from .core import (
    Tournament,
    blowup_cyclic_triangle,
    format_tournament,
    generate,
    induced,
    parse_tournament,
    random_tournament,
    rotational_tournament,
    tournament_hash,
    transitive_tournament,
    write_tournament,
)
from .errors import FailureTrace
from .oracle import OracleQuery, exhaustive_tournaments, oracle_subdivision
from .params import FinderParams
from .subdivision import (
    PatternDigraph,
    Subdivision,
    min_span,
    pattern_complete_digraph,
    pattern_transitive,
    verify,
)
from .transitive_finder import (
    ball_decomposition,
    build_aux_graph,
    find_nearly_regular,
    find_nearly_regular_k,
    find_one_subdivision,
    find_tt_len3,
    partition_components,
)

__version__ = "0.1.0"

__all__ = [
    "Tournament",
    "generate",
    "random_tournament",
    "transitive_tournament",
    "rotational_tournament",
    "blowup_cyclic_triangle",
    "induced",
    "parse_tournament",
    "format_tournament",
    "write_tournament",
    "tournament_hash",
    "PatternDigraph",
    "pattern_complete_digraph",
    "pattern_transitive",
    "Subdivision",
    "verify",
    "min_span",
    "FinderParams",
    "FailureTrace",
    "find_complete_subdivision",
    "find_digraph_subdivision",
    "find_tt_len3",
    "find_one_subdivision",
    "find_nearly_regular",
    "find_nearly_regular_k",
    "build_aux_graph",
    "ball_decomposition",
    "partition_components",
    "OracleQuery",
    "oracle_subdivision",
    "exhaustive_tournaments",
    "backend_name",
    "__version__",
]
