"""Stochastic gradient methods under growth conditions.

Finite-sum problems, four method variants (plain/projected/proximal/
resolvent stochastic gradient), growth-condition fitting, and rate/floor
analysis with a config-driven CLI (``sgmlab run|validate|report``).
"""

from .analysis import (
    RateFit,
    RateFitError,
    check_inverse_t_rate,
    estimate_floor,
    fit_linear_rate,
    predict_floor,
)
from .geometry import (
    ConvexSet,
    LinearMonotoneOperator,
    NumericalError,
    Regularizer,
    constant_regularizer,
    indicator,
    l1_regularizer,
    project,
    prox,
    resolvent,
    whole_space,
    zero_regularizer,
)
from .growth import (
    GrowthReport,
    NecessaryConditionReport,
    SuccessorMoments,
    contraction_margins,
    enumerate_successors,
    fit_wgc,
    growth_record,
    measured_worst_omega,
    probe_grid,
    successor_moments,
    verify_necessary_condition,
    write_growth_json,
)
from .problems import (
    EvaluationError,
    FiniteSumProblem,
    KaczmarzSystem,
    exact_conditional_moment,
    load_kaczmarz_text,
    make_kaczmarz_problem,
    make_quadratic_l1,
    make_random_kaczmarz_system,
    make_two_point_quadratic,
)
from .solvers import (
    METHODS,
    ConstantStep,
    DivergenceError,
    EnsembleRun,
    InverseTStep,
    SolverRun,
    Trajectory,
    recommend_step,
    run_ensemble,
)

__version__ = "0.1.0"
