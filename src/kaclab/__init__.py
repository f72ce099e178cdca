"""kaclab: a numerical laboratory for Bose gases in Poisson hard-ball disorder.

The package builds random vacancy domains, solves Dirichlet eigenproblems and
the component-wise Hartree problem on them, cross-checks the results against
an exact few-boson diagonalization, and evaluates quantitative certificates
(spectral-gap events, energy and condensate-depletion bounds) realization by
realization.
"""

__version__ = "0.1.0"

from .disorder import (
    DisorderConfig,
    DisorderRealization,
    build_realization,
    sample_centers,
    volume_fraction,
)
from .laplace import (
    MaskedOperator,
    SpectralPair,
    assemble_laplacian,
    ground_state_component,
    lowest_eigenpairs,
)
from .interaction import (
    InteractionPotential,
    build_interaction,
    convolve_density,
    potential_from_spec,
)
from .hartree import (
    HartreeSolution,
    assemble_effective_operator,
    effective_spectrum,
    minimize_hartree,
)
from .certify import (
    build_certificate,
    certificate_assertions,
    check_gap_event,
    scaling_diagnostics,
    supnorm_bound_check,
)
from .manybody import (
    ManyBodyGroundState,
    ManyBodyHamiltonian,
    build_manybody_hamiltonian,
    condensate_occupation,
    ground_state,
    one_body_density_matrix,
    product_state,
)
from .ensemble import (
    EnsembleSpec,
    PipelineResult,
    estimate_event_probabilities,
    run_ensemble,
    run_pipeline,
    run_realization,
    scaling_sweep,
)
from .errors import (
    BasisSizeError,
    ConfigError,
    GridMismatchError,
    KacLabError,
    SolverError,
)
