"""Graph gadgets, neighborhood complexes, exact integer homology, and
certified topological lower bounds for the chromatic number."""

from .complexes import SimplicialComplex, neighborhood_complex
from .errors import (
    BudgetExceededError,
    CertificateError,
    InputError,
    ParameterError,
    PreconditionError,
    ToolkitError,
)
from .graphs import (
    CorollaryParams,
    CorollaryResult,
    GadgetResult,
    GadgetSpec,
    Graph,
    biconnected_components,
    build_corollary_graph,
    build_gadget,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    is_bipartite,
    is_connected,
    kneser_graph,
    mycielskian,
    triangle_free_chromatic,
)
from .homology import (
    DEFAULT_FACE_BUDGET,
    ConnectivityCertificate,
    HomologyGroup,
    HomologyPass,
    homology_pass,
    homology_profile,
)
from .invariants import (
    Chromatic,
    CliqueWitness,
    ColoringWitness,
    LowerBound,
    MycielskiWitness,
    SearchWitness,
    chromatic_number,
    greedy_dsatur_bound,
    is_k_colorable,
    max_clique,
    mycielski_lower_bound,
    verify_biclique_certificate,
)
from .snf import SnfResult
from .verify import (
    BoundReport,
    CorollaryReport,
    WedgeCheckReport,
    compare_bounds,
    run_suite,
    verify_corollary,
    verify_wedge_decomposition,
)

__version__ = "0.1.0"
