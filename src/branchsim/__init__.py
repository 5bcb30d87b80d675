"""branchsim: exact decoherence and branching on a 1-D spin lattice.

A small toolkit for a discrete model in which one or two qubits write
records of themselves into a chain of environment spins through local
two-site unitaries.  Because every interaction is a simple permutation
(or rotation) of basis states, the dynamics stay exactly sparse and the
emergence of decoherence, branch structure, light cones, and record
correlations can be studied without any approximation.

The public surface re-exported here covers states (`PureState`,
constructors, serialisation), the gate library, schedules and built-in
scenarios, the analysis toolbox (density matrices, branches, clusters,
correlations, CHSH, sampling), and the dense reference engine used for
cross-checking.
"""

__version__ = "0.1.0"

from .lattice import (                                           # noqa: F401
    NORM_TOL, PRUNE_EPS, Lattice, LatticeError, PureState, Site, SiteKind,
    StateBlock, StateError, chain_lattice, entangled_state, inner_product, norm,
    overlap, product_state, state_from_document, state_to_document,
)
from .gates import (                                             # noqa: F401
    Gate1, Gate2, GateError, UNITARITY_TOL, apply_gate1, apply_gate2,
    field_copy_gate, field_swap_gate, gate_by_name, hadamard_gate,
    identity_gate, rotation_gate, system_field_gate,
)
from .schedule import (                                          # noqa: F401
    ConfigError, GateApplication, Schedule, ScheduleError, ScenarioConfig,
    SCENARIOS, config_from_document, load_config, run_schedule, run_steps,
    scenario_bidirectional, scenario_collision, scenario_epr, scenario_single,
)
from .analysis import (                                          # noqa: F401
    AnalysisError, BlockAnalysis, Branch, BranchClusters, BranchDecomposition,
    BRANCH_TOL, ChshScanResult, Cluster, DensityMatrix, MeasurementSetting,
    SiteMarginals, branch_decompose, change_basis, chsh, chsh_grid_max, coherence,
    correlation, entanglement_entropy, entropy_of, extended_branch_clusters,
    is_decohered, mutual_information, plane_chsh_max, purity,
    reduced_density_matrix, sample_measurement, site_marginals,
)
from .bell import RecordScanResult, record_chsh_scan, record_correlation  # noqa: F401
from .oracle import (                                            # noqa: F401
    DenseState, OracleError, dense_apply, dense_branch_weights, dense_entropy,
    dense_norm, dense_overlap, dense_rdm, dense_run, dense_steps, densify,
    random_gate1, random_gate2, random_unitary, sparsify,
)
