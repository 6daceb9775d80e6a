"""Variable-delay batch pricing of a flow.

Each edge's load is split into N_e equal batches and batch b pays the
marginal-cost latency evaluated at the fraction b / N_e of the load. The
per-edge total is then a right-endpoint Riemann sum of the marginal-cost
latency, which upper-bounds the plain edge cost and converges to it as
batch counts grow. For a polynomial that sum is exact in the power sums
S_j(N) = sum_b b^j (Faulhaber), so pricing an edge costs O(degree^2)
integer operations for any N, and the overshoot over the plain cost is
summed directly from nonnegative terms rather than as a difference.
batch_sweep prices a flow under a whole list of uniform counts in one
array pass: the flow is checked and loaded once, and every count's
factors go through one Horner evaluation of the marginal bank.
select_batch_system inverts the Riemann error bound to hit any requested
total overshoot, and mechanism_pipeline checks that the priced optimum
is a batch equilibrium. Loads, plain edge costs and marginal latencies
of a whole flow come from the game's vector view (model._GameArrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import EPS_USE, VERIFY_TOL, Flow, Game, _GameArrays
from .solver import SolverParams, SolveResult, _solve_pair

#: Coefficients (counts x edges x polynomial width) that batch_sweep
#: prices in one array pass; 2**20 float64 values are 8 MB per array.
SWEEP_BLOCK_FLOATS = 1 << 20


@dataclass(frozen=True)
class BatchSystem:
    """Batch counts per edge id; every count is an integer >= 1."""

    counts: dict[str, int]

    def __post_init__(self) -> None:
        normalized = {
            str(edge_id): _check_count(count, f"batch count for '{edge_id}'")
            for edge_id, count in self.counts.items()
        }
        object.__setattr__(self, "counts", normalized)

    @classmethod
    def uniform(cls, game: Game, count: int) -> BatchSystem:
        return cls({e.id: count for e in game.edges})


@dataclass(frozen=True)
class BatchEdgeReport:
    count: int
    load: float
    base_cost: float
    batch_cost: float
    gap: float


@dataclass(frozen=True)
class BatchReport:
    """Per-edge batch costs plus totals, aggregated in ascending edge id."""

    per_edge: dict[str, BatchEdgeReport]
    total_batch_cost: float
    total_original_cost: float
    total_gap: float


@dataclass(frozen=True)
class MechanismReport:
    epsilon: float
    optimum: SolveResult
    batch_system: BatchSystem
    batch_report: BatchReport
    selfish_cost: float
    price_of_anarchy: float | None

    @property
    def optimal_cost(self) -> float:
        return self.optimum.social_cost_original


class MechanismError(RuntimeError):
    """The mechanism's own guarantees failed on a solved flow."""


def _check_count(n_batches: int, what: str = "batch count") -> int:
    """n_batches as an int; ValueError naming `what` unless it is an
    integer >= 1 (inf, nan and strings such as '3' are not)."""
    try:
        count: int | None = int(n_batches)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != n_batches or count < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {n_batches!r}")
    return count


def _check_cover(game: Game, batch_system: BatchSystem) -> None:
    have = set(batch_system.counts)
    want = set(game.edge_ids)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        parts = []
        if missing:
            parts.append(f"missing edges {missing}")
        if extra:
            parts.append(f"unknown edges {extra}")
        raise ValueError("incomplete batch system: " + ", ".join(parts))


def _riemann_factors(n: int, width: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-power factors of the right Riemann sum with n panels on [0, 1].

    With S_j(n) = sum_{b=1..n} b^j, returns ratio_j = S_j(n) / n^(j+1)
    and excess_j = ratio_j - 1 / (j + 1) >= 0 for j < width, each
    correctly rounded from exact integers. The power sums come from the
    binomial recurrence (n+1)^(j+1) - 1 = sum_{k<=j} C(j+1, k) S_k(n).
    """
    sums: list[int] = []
    rise = n + 1
    for j in range(width):
        rest = sum(math.comb(j + 1, k) * sums[k] for k in range(j))
        sums.append((rise - 1 - rest) // (j + 1))
        rise *= n + 1
    ratio, excess = [], []
    scale = n
    for j, s in enumerate(sums):
        ratio.append(s / scale)
        excess.append(((j + 1) * s - scale) / ((j + 1) * scale))
        scale *= n
    return tuple(ratio), tuple(excess)


def _price(
    view: _GameArrays, x: np.ndarray, counts: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Batch costs and overshoot gaps of K pricings of the game's edges
    at loads x.

    Row k of counts holds the batch count of every edge, or one count
    for all of them; the results have shape (K, edges). With marginal
    coefficients c_j, an edge's batch cost is sum_j c_j x^(j+1) ratio_j
    and its gap over the plain cost is sum_j c_j x^(j+1) excess_j: both
    sums of nonnegative terms. Power sums are computed once per distinct
    count, and all K rows go through one Horner pass.
    """
    bank = view.coeff_banks["marginal"]
    width = bank.shape[-1]
    index = {n: i for i, n in enumerate({n for row in counts for n in row})}
    factors = [_riemann_factors(n, width) for n in index]
    ratio = np.array([f[0] for f in factors]).reshape(-1, width)
    excess = np.array([f[1] for f in factors]).reshape(-1, width)
    rows = np.array([[index[n] for n in row] for row in counts], dtype=np.intp)
    return (
        view.edge_values(bank * ratio[rows], x) * x,
        view.edge_values(bank * excess[rows], x) * x,
    )


def batch_social_cost(game: Game, flow: Flow, batch_system: BatchSystem) -> BatchReport:
    """Batch-price an entire feasible flow, edge by edge."""
    view = game._arrays
    x = view.loads(view.feasible_vector(flow))
    _check_cover(game, batch_system)
    counts = [batch_system.counts[edge_id] for edge_id in game.edge_ids]
    costs, gaps = _price(view, x, [counts])
    loads, base_costs = x.tolist(), view.edge_costs(x).tolist()
    costs, gaps = costs[0].tolist(), gaps[0].tolist()
    per_edge: dict[str, BatchEdgeReport] = {}
    for edge_id, k in sorted(view.edge_index.items()):
        per_edge[edge_id] = BatchEdgeReport(
            count=counts[k],
            load=loads[k],
            base_cost=base_costs[k],
            batch_cost=costs[k],
            gap=gaps[k],
        )
    return BatchReport(
        per_edge=per_edge,
        total_batch_cost=sum(r.batch_cost for r in per_edge.values()),
        total_original_cost=sum(r.base_cost for r in per_edge.values()),
        total_gap=sum(r.gap for r in per_edge.values()),
    )


def batch_sweep(
    game: Game, flow: Flow, counts: Iterable[int]
) -> list[tuple[int, float, float]]:
    """(count, total batch cost, total gap) of a feasible flow under each
    uniform batch count, in the order given.

    Every value equals what batch_social_cost reports for
    BatchSystem.uniform(game, count): the flow is checked and loaded
    once, each distinct count is priced once, and each row is summed by
    Python's sum in ascending edge id, as batch_social_cost sums its
    per-edge reports. Counts are priced SWEEP_BLOCK_FLOATS coefficients
    at a time, which bounds memory on long count lists.
    """
    view = game._arrays
    x = view.loads(view.feasible_vector(flow))
    counts = [_check_count(n) for n in counts]
    order = [k for _, k in sorted(view.edge_index.items())]
    distinct = list(dict.fromkeys(counts))
    step = max(1, SWEEP_BLOCK_FLOATS // max(1, view.coeff_banks["marginal"].size))
    totals: dict[int, tuple[float, float]] = {}
    for start in range(0, len(distinct), step):
        block = distinct[start : start + step]
        costs, gaps = _price(view, x, [[n] for n in block])
        for n, cost_row, gap_row in zip(block, costs[:, order], gaps[:, order]):
            totals[n] = (sum(cost_row.tolist()), sum(gap_row.tolist()))
    return [(n, *totals[n]) for n in counts]


def select_batch_system(game: Game, flow: Flow, epsilon: float) -> BatchSystem:
    """Smallest batch counts whose Riemann error bound meets epsilon.

    The per-edge overshoot is at most (x_e / N_e) * (lhat(x_e) - lhat(0)),
    so splitting epsilon evenly over the m loaded edges and solving for
    N_e gives ceil(x_e * (lhat(x_e) - lhat(0)) * m / epsilon). Edges
    loaded with at most EPS_USE get N_e = 1.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    view = game._arrays
    x = view.loads(view.feasible_vector(flow))
    marginal = view.coeff_banks["marginal"]
    span = view.edge_values(marginal, x) - marginal[:, 0]
    loaded = x > EPS_USE
    budget = epsilon / max(1, int(np.count_nonzero(loaded)))
    # A tiny epsilon can overflow a count to inf; that is reported below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        needed = np.where(loaded & (span > 0), np.ceil(x * span / budget), 1.0)
    counts: dict[str, int] = {}
    for edge_id, n in zip(game.edge_ids, needed.tolist()):
        if not math.isfinite(n):
            raise ValueError(
                f"batch count for edge '{edge_id}' is not finite at epsilon {epsilon!r}"
            )
        counts[edge_id] = max(1, int(n))
    return BatchSystem(counts)


def mechanism_pipeline(
    game: Game, epsilon: float, params: SolverParams | None = None
) -> MechanismReport:
    """Solve for the social optimum and the equilibrium, pick batch counts
    for epsilon, price the optimum, and check both guarantees.

    The optimum is a batch equilibrium exactly when it is a marginal-mode
    Wardrop equilibrium, whatever the batch counts: the binding batch on
    a used edge is its last one, which pays the full-load marginal-cost
    latency, and a deviation always pays full load. So the check reads
    the optimum's own worst used excess, SolveResult.equilibrium_violation.

    Raises MechanismError if that excess is above VERIFY_TOL or the
    realized cost overshoot exceeds epsilon; both indicate a solver or
    selection defect rather than bad input.
    """
    optimum, selfish, ratio = _solve_pair(game, params)
    batch_system = select_batch_system(game, optimum.flow, epsilon)
    report = batch_social_cost(game, optimum.flow, batch_system)
    if optimum.equilibrium_violation > VERIFY_TOL:
        raise MechanismError(
            "solved optimum is not a batch equilibrium "
            f"(violation {optimum.equilibrium_violation:.3e})"
        )
    if report.total_gap > epsilon:
        raise MechanismError(
            f"batch cost overshoot {report.total_gap:.3e} exceeds epsilon {epsilon:.3e}"
        )
    return MechanismReport(
        epsilon=epsilon,
        optimum=optimum,
        batch_system=batch_system,
        batch_report=report,
        selfish_cost=selfish.social_cost_original,
        price_of_anarchy=ratio,
    )
