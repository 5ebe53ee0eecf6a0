"""Max-weight source-sink pairs in digraphs via min-cost circulations, and
Clar/Fries numbers of plane bipartite graphs computed through the planar
dual."""

from .digraph import (
    Digraph,
    apply_reorientation,
    bidirect,
    is_circulation,
    normalize_potential,
    potential_drops,
    sources_sinks,
)
from .errors import (
    BudgetExceeded,
    InfeasibleCirculation,
    InputError,
    InvariantError,
)
from .mincost import CirculationInstance, McfSolution, decompose, solve
from .oracle import (
    brute_clar_fries,
    brute_max_source_sink,
    enumerate_matchings,
    enumerate_reorientations,
)
from .plane import (
    ClarFriesResult,
    PlaneBipartiteGraph,
    alternating_faces,
    clar_number,
    fries_number,
    orient_by_matching,
    parse_validate,
    perfect_matching,
    planar_dual,
    solve_clar_fries,
)
from .sourcesink import (
    AuxNetwork,
    CircularCover,
    SinkStableResult,
    SourceSinkCertificate,
    WeightPair,
    build_aux_network,
    certificate_checks,
    extract_cover,
    extract_pair,
    max_resonant,
    max_sink_stable,
    max_source_sink,
)

__version__ = "0.1.0"
