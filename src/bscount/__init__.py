"""Bound-state counting via the Birman-Schwinger principle, at desk scale.

The package has three layers:

* ``linop`` / ``bsengine`` / ``iterbs`` -- exact finite-dimensional operator
  algebra: checked spectra, the Birman-Schwinger counting identity, and the
  iterated projection-subtraction transform with its recurrence.
* ``radial`` -- two-body continuum experiments on radial grids: bound-state
  counts two ways, critical couplings, Rollnik/Schwinger bounds, and
  near-threshold scaling of the largest Birman-Schwinger eigenvalue.
* ``efimov`` -- three identical bosons with a rank-one separable pair force;
  geometric accumulation of trimer levels at unitarity.

``cli`` wires everything into the ``bscount`` command-line front end.
"""

from .linop import (
    SymOperator,
    sym,
    count_evs,
    hs_norm,
)
from .bsengine import (
    BsProblem,
    count_direct,
    count_bs,
    mu_max,
    hs_count_bound_check,
    rank_one_domination,
    random_problem,
    ThresholdCollisionError,
)
from .iterbs import (
    ProjectionStep,
    StageResult,
    iterate,
)

__version__ = "0.1.0"

__all__ = [
    "SymOperator",
    "sym",
    "count_evs",
    "hs_norm",
    "BsProblem",
    "count_direct",
    "count_bs",
    "mu_max",
    "hs_count_bound_check",
    "rank_one_domination",
    "random_problem",
    "ThresholdCollisionError",
    "ProjectionStep",
    "StageResult",
    "iterate",
    "__version__",
]
