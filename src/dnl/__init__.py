"""Decision-focused training of linear coefficient predictors on regret,
with exact knapsack and machine-scheduling oracles."""

from .core import (
    JobSpec,
    Knapsack,
    LinearModel,
    MachineSpec,
    ProblemSet,
    Scheduling,
    Solution,
    knapsack_solution,
    load_model,
    predict,
    save_model,
    scheduling_solution,
    solution_objective,
    validate_solution,
)
from .data import (
    Fold,
    RawSeries,
    SplitSpec,
    load_csv,
    make_knapsack,
    make_scheduling,
    split,
    synthesize,
    write_series_csv,
)
from .evaluation import (
    RegretValue,
    TrueOptimumCache,
    evaluate_model_regret,
    pov,
    regret_of,
    tov,
)
from .oracles import (
    InexactOracleError,
    InfeasibleInstanceError,
    NonFinitePricesError,
    OracleResult,
    SolverOracle,
    solve_knapsack_bb,
    solve_knapsack_dp,
    solve_scheduling,
)
from .ridge import fit_ridge, select_ridge
from .training import (
    TrainConfig,
    TrainTrace,
    Variant,
    candidate_betas,
    select_beta_full,
    select_beta_max,
    train,
    write_trace_csv,
)
from .transitions import (
    SearchSpec,
    TransitionProfile,
    extract_full,
    extract_greedy,
)

__version__ = "0.1.0"
