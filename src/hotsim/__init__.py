"""Deterministic simulation laboratory for dynamic pricing of HOT lanes.

Point-queue traffic dynamics, logit lane choice, three pricing controllers
(a VOT-estimating feedback controller and two baselines), and the analysis
machinery for their convergence behavior.
"""

from .analysis import (
    ConvergenceReport,
    analytic_optimal_price,
    classify_convergence,
    classify_trajectory,
    exponential_tail,
    find_phase_boundary,
    gaussian_tail,
    loop_gain_rate,
    run_approximate,
)
from .choice import (
    BehaviorParams,
    NoiseSpec,
    clearing_log_odds,
    induced_residual_capacity,
    paying_demand,
    sample_eta,
)
from .config import (
    ScenarioConfig,
    config_from_mapping,
    load_config,
    parse_config_text,
)
from .engine import (
    DemandProfile,
    Draws,
    SummaryMetrics,
    Trajectory,
    demand_at,
    run_closed_loop,
    summarize,
)
from .errors import (
    BoundaryNotBracketedError,
    ConfigError,
    HotSimError,
    NonFiniteResultError,
    PriceUndefinedError,
    ScenarioAssumptionError,
)
from .pricing import (
    IntegralTollController,
    IntegralTollSpec,
    SelfLearningController,
    SelfLearningSpec,
    VotControllerSpec,
    VotFeedbackController,
)
from .traffic import (
    Capacities,
    queuing_times,
    residual_capacity,
    step_point_queues,
    throughputs,
)

__version__ = "0.1.0"
