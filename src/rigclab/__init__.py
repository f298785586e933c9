"""rigclab: random intersection graphs with communities, theory vs simulation.

Exact construction of the bipartite matching and its community projection,
closed-form giant-component and percolation predictions through
generating-function fixed points, and the Monte Carlo machinery (including a
continuous-time exploration of the matching) that checks the two against each
other at desk scale.
"""

from . import errors
from .community import (
    CommunityCatalog,
    CommunityGraph,
    CommunityList,
    ComponentSizeCensus,
    PercolationProfile,
    complete_graph,
    cycle_graph,
    path_graph,
    percolate_enumerate,
    size_census,
    split_components,
)
from .components import (
    BcmGiantStats,
    GiantStats,
    bcm_components,
    giant_stats_bcm,
    giant_stats_rigc,
    giant_stats_rigc_from_bcm,
    joint_in_giant_from_bcm,
    rigc_components,
)
from .explore import (
    ComponentRecord,
    Trajectory,
    hitting_times,
    horizon,
    run_exploration,
    trajectory_sup_error,
)
from .model import (
    BcmGraph,
    ModelParams,
    RigcGraph,
    build_params,
    empirical_catalog,
    empirical_l_pmf,
    generate_bcm,
    project_rigc,
    sample_params,
)
from .percolation import (
    build_com_pi,
    critical_pi,
    critical_pi_bracket,
    harris_sweep,
    percolate_rigc_graph,
    percolated_prediction,
)
from .pmf import Pmf
from .theory import (
    GiantPrediction,
    TheoryInputs,
    bcm_predictions,
    curve_table,
    edges_in_giant_from_joint,
    edges_in_giant_rigc,
    giant_prediction,
    hitting_time_curve,
    joint_degree_in_giant_table,
    solve_eta_l,
)

__version__ = "0.1.0"
