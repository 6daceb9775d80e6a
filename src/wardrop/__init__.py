"""Nonatomic congestion games: Wardrop equilibria, social optima and a
variable-delay batch pricing mechanism."""

from .batch import (
    BatchEdgeReport,
    BatchReport,
    BatchSystem,
    MechanismError,
    MechanismReport,
    batch_social_cost,
    batch_sweep,
    mechanism_pipeline,
    select_batch_system,
)
from .formats import FormatError, load_flow, load_game, save_flow, save_game
from .latency import MAX_DEGREE, LatencyFunction
from .model import (
    Edge,
    Flow,
    Game,
    GameValidationError,
    PlayerType,
    Violation,
    is_feasible,
    player_cost,
    social_cost,
    validate_game,
)
from .solver import (
    ConvergenceError,
    SolveResult,
    SolverParams,
    potential,
    price_of_anarchy,
    solve,
    wardrop_gap,
)

__version__ = "0.1.0"

__all__ = [
    "BatchEdgeReport",
    "BatchReport",
    "BatchSystem",
    "ConvergenceError",
    "Edge",
    "Flow",
    "FormatError",
    "Game",
    "GameValidationError",
    "LatencyFunction",
    "MAX_DEGREE",
    "MechanismError",
    "MechanismReport",
    "PlayerType",
    "SolveResult",
    "SolverParams",
    "Violation",
    "batch_social_cost",
    "batch_sweep",
    "is_feasible",
    "load_flow",
    "load_game",
    "mechanism_pipeline",
    "player_cost",
    "save_flow",
    "save_game",
    "potential",
    "price_of_anarchy",
    "select_batch_system",
    "social_cost",
    "solve",
    "validate_game",
    "wardrop_gap",
]
