"""radgas: stationary solvers for a two-state gas coupled to monochromatic radiation.

Subsystems:

- physics:              closed-form Maxwellians, equilibria, collision kinematics
- collision_reduction:  reduced nonelastic collision integrals + MC oracle
- levelscan:            level curves of the nonexistence quantity L(T1, T2)
- picard:               the fixed-point loop the slab, 3-D and three-level solvers share
- slab:                 slab-geometry transport, Fredholm and exponential-limit solvers
- domain3d:             convex-domain ray geometry, contraction solver, nonexistence check
- three_level:          linearized stationary three-level (non-LTE) solver
- kinetic:              Monte Carlo verification of kinetic-level identities
- cli:                  batch command line driver
"""

from .constants import PhysConsts, K_BOLTZMANN, C0_MAXWELLIAN
from .errors import (
    RadgasError,
    BelowThreshold,
    DomainError,
    SingularDenominator,
    EmptyLevel,
    NonContraction,
    NonPositiveW,
    NotInterior,
    SingularSystem,
    ConfigError,
)
from .physics import (
    MaxwellianState,
    CollisionTuple,
    maxwellian,
    boltzmann_ratio,
    pseudo_planck,
    energy_density,
    entropy_lambda,
    entropy_density,
    elastic_post_velocities,
    nonelastic_post_velocities,
    w_plus,
    w_minus,
)
from .collision_reduction import (
    TripleQuadSpec,
    ReducedKernelParams,
    CollisionFunctionals,
    eval_reduced_kernel,
    triple_integral,
    functionals,
    H_func,
    S_func,
    L_func,
    mc_oracle,
    fit_calibration,
)
from .levelscan import (
    ScanWindow,
    ScanResult,
    ContourSet,
    scan,
    extract_contours,
    smoothness_report,
)
from .slab import (
    SlabGrid,
    AngleGrid,
    BoundaryProfile,
    RadiationField,
    transport_solve,
    flux,
    angular_mean,
    fredholm_kernel_K,
    kernel_sup,
    solve_lte_fredholm,
    solve_exp_limit,
    FredholmResult,
    ExpLimitResult,
)
from .domain3d import (
    ConvexDomain,
    SphereGrid,
    LatticeSpec,
    VolumeField,
    exit_distance,
    vector_R,
    div_R,
    solve_w,
    kernel_mass_at,
    nonexistence_check,
)
from .three_level import (
    ThreeLevelParams,
    ThreeLevelSolution,
    constant_state,
    radiation_solve_3p,
    solve_three_level,
    lte_deviation,
)
from .kinetic import (
    McPlan,
    MomentReport,
    detailed_balance_residual,
    conservation_and_exchange,
    kernel_of_L_check,
    entropy_identity_check,
)

__version__ = "0.1.0"
