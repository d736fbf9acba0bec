"""Online balanced descent for smoothed online convex optimization.

Library layout:

* ``obd.geometry``   -- norms, mirror maps, Bregman divergences, feasible sets
* ``obd.costs``      -- hitting-cost families, seeded instances, the adversary
* ``obd.projection`` -- level-set and simple-set Bregman projections
* ``obd.algorithms`` -- primal/dual balanced-descent steppers and baselines
* ``obd.offline``    -- offline comparators and the grid DP oracle
* ``obd.harness``    -- runs, cost accounting, theorem audits, experiments
* ``obd.cli``        -- command-line benchmark driver
"""

__version__ = "0.1.0"

from .geometry import (
    FeasibleSet, MirrorMap, Norm, bregman_divergence, entropy_map,
    euclidean_map, mahalanobis_map, norm_equivalence_constants,
)
from .costs import (
    CostFunction, Instance, InstanceSpec, adversary_step, generate_instance,
    make_composite, make_norm_tracking, make_quadratic,
)
from .projection import ProjectionResult, project_set, project_sublevel, solve_regularized
from .algorithms import (
    Branch, DualConfig, DualOBD, Greedy, OGD, OMD, PrimalConfig, PrimalOBD,
    SetProjectionResponder, StaticPlay, StepRecord, choose_beta,
    choose_beta_general, choose_eta, dual_obd_step, primal_obd_step,
)
from .offline import (
    GridSpec, OfflineSolution, grid_dp_oracle, offline_opt,
    offline_opt_constrained, static_opt,
)
from .harness import (
    AuditResult, ResultTable, RunReport, audit_theorem1, audit_theorem3,
    experiment_audit_suite, experiment_cr_vs_dim, experiment_lower_bound,
    experiment_regret_sweep, mirror_grad_bound, run,
)
