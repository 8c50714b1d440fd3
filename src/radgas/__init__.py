"""radgas: stationary solvers for a two-state gas coupled to monochromatic radiation.

Subsystems:

- physics:              closed-form Maxwellian states, equilibria, densities
- collision_reduction:  reduced nonelastic collision integrals + MC oracle
- levelscan:            level curves of the nonexistence quantity L(T1, T2)
- picard:               the GMRES fixed-point solve the slab, 3-D and three-level solvers share
- slab:                 slab-geometry transport, Fredholm and exponential-limit solvers
- domain3d:             convex-domain ray geometry, contraction solver, nonexistence check
- three_level:          linearized stationary three-level (non-LTE) solver
- kinetic:              Monte Carlo verification of kinetic-level identities
- cli:                  batch command line driver

The package namespace holds every name in a layer's ``__all__``, with the
constants and the errors that every layer imports.
"""

from .constants import PhysConsts, K_BOLTZMANN, C0_MAXWELLIAN
from .errors import *  # noqa: F403 (the module defines the error classes and nothing else)
from .physics import *  # noqa: F403
from .collision_reduction import *  # noqa: F403
from .levelscan import *  # noqa: F403
from .picard import *  # noqa: F403
from .slab import *  # noqa: F403
from .domain3d import *  # noqa: F403
from .three_level import *  # noqa: F403
from .kinetic import *  # noqa: F403

__version__ = "0.1.0"
