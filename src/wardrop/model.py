"""Nonatomic congestion games with explicit strategy sets.

A game is a list of edges carrying polynomial latencies plus a list of
player types, each spreading a divisible demand over an ordered list of
strategies (subsets of edges). Flows assign per-strategy amounts, edge
loads aggregate them, and the two scalar functionals (social cost and
per-type cost) are evaluated here.

Every evaluation, here and in the solver and batch pricing, goes through
one dense vector view of the game (_GameArrays), built on first use and
kept on the frozen Game. Its arrays are read-only, since one Game may be
shared by every caller that loads the same file.

All structural invariants are checked by validate_game, which returns a
report instead of raising so a bad input can be diagnosed in full; the
report is computed once per Game and kept with it. The vector view is
built only for a game with an empty report, so every evaluator raises
GameValidationError, with that report, for an invalid game, and
otherwise ValueError only for genuine contract violations (unknown ids,
infeasible flows). Counts and tolerances pass _count and _real.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .latency import MAX_DEGREE, LatencyFunction

# The tolerance policy of every fast path; wardrop.oracle keeps its own.
# All three are absolute.

#: A flow is feasible when each type's amounts sum to its demand within this.
FEASIBILITY_TOL = 1e-9

#: A strategy counts as used, and an edge as loaded, above this much mass.
EPS_USE = 1e-9

#: verify, and the mechanism's own check, accept a flow whose worst used
#: excess is at most this.
VERIFY_TOL = 1e-6


@dataclass(frozen=True)
class Edge:
    id: str
    latency: LatencyFunction


@dataclass(frozen=True)
class PlayerType:
    """A player population with a demand and an ordered strategy list.

    Duplicate strategies (same edge set) collapse to one canonical copy at
    construction; the multiplicity is recorded but has no effect on loads,
    costs or equilibria, since only edge loads matter. Strategy indices in
    Flow refer to the collapsed list.
    """

    id: str
    demand: float
    strategies: tuple[frozenset[str], ...]
    multiplicities: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        # Each distinct edge set and its count, in first-seen order.
        counts: dict[frozenset[str], int] = {}
        for strategy in self.strategies:
            members = frozenset(strategy)
            counts[members] = counts.get(members, 0) + 1
        object.__setattr__(self, "demand", float(self.demand))
        object.__setattr__(self, "strategies", tuple(counts))
        object.__setattr__(self, "multiplicities", tuple(counts.values()))


@dataclass(frozen=True)
class Game:
    edges: tuple[Edge, ...]
    player_types: tuple[PlayerType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "player_types", tuple(self.player_types))
        object.__setattr__(self, "_edges_by_id", {e.id: e for e in self.edges})
        object.__setattr__(self, "_types_by_id", {t.id: t for t in self.player_types})

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edges_by_id[edge_id]
        except KeyError:
            raise ValueError(f"unknown edge id '{edge_id}'") from None

    def player_type(self, type_id: str) -> PlayerType:
        try:
            return self._types_by_id[type_id]
        except KeyError:
            raise ValueError(f"unknown player type '{type_id}'") from None

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    @cached_property
    def _arrays(self) -> _GameArrays:
        if self._violations:
            raise GameValidationError(list(self._violations))
        return _GameArrays(self)

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(_check_game(self))


@dataclass(frozen=True)
class Flow:
    """Per-strategy amounts keyed by (type id, strategy index).

    Missing keys mean zero. A strategy index that is not an integer
    (a float, a bool, a string) is a ValueError naming its key. The dict
    is treated as immutable by convention; all operations in this
    package return fresh flows.
    """

    amounts: dict[tuple[str, int], float]

    def __post_init__(self) -> None:
        normalized = {
            (str(t), _strategy_index(t, s)): float(v) for (t, s), v in self.amounts.items()
        }
        object.__setattr__(self, "amounts", normalized)

    def amount(self, type_id: str, strategy_index: int) -> float:
        return self.amounts.get((type_id, strategy_index), 0.0)


def _strategy_index(type_id: object, index: object) -> int:
    # bool is an int subclass, and int() would truncate a float. The
    # exact-int test first skips the slow ABC check on the common case.
    if type(index) is not int and (
        isinstance(index, bool) or not isinstance(index, numbers.Integral)
    ):
        raise ValueError(f"flow key {(type_id, index)!r}: strategy index must be an integer")
    return int(index)


def _count(value: int, name: str) -> int:
    """value as an int; ValueError naming it unless value equals an
    integer >= 1 (bools, inf, nan and strings such as '3' do not)."""
    try:
        count: int | None = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < 1 or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def _real(value: float, name: str, *, positive: bool = True) -> None:
    """ValueError naming value unless it is a finite real (not a bool),
    and > 0, or >= 0 when positive is False."""
    if (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
        or not math.isfinite(value) or not (value > 0 if positive else value >= 0)
    ):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {sign} and finite, got {value!r}")


@dataclass(frozen=True)
class Violation:
    """One structural defect, addressed by a field path into the game."""

    path: str
    message: str


class GameValidationError(ValueError):
    """A structurally invalid game reached an operation requiring a valid one."""

    def __init__(self, report: list[Violation]):
        detail = "; ".join(f"{v.path}: {v.message}" for v in report)
        super().__init__(f"invalid game: {detail}")
        self.report = tuple(report)


def validate_game(game: Game) -> list[Violation]:
    """Check every structural invariant and return all violations found.

    An empty list means the game is well formed. Checks: nonempty
    coefficient lists, finite nonnegative coefficients, degree cap, unique
    edge and type ids, finite nonnegative demands, strategies present
    whenever demand is positive, nonempty strategies, and strategy edges
    that exist. The checks run on the first call for a game; every call
    returns a new list.
    """
    return list(game._violations)


def _check_game(game: Game) -> list[Violation]:
    violations: list[Violation] = []
    seen_edge_ids: set[str] = set()
    for k, edge in enumerate(game.edges):
        if edge.id in seen_edge_ids:
            violations.append(Violation(f"edges[{k}].id", f"duplicate edge id '{edge.id}'"))
        seen_edge_ids.add(edge.id)
        coeffs = edge.latency.coeffs
        if not coeffs:
            violations.append(Violation(f"edges[{k}].latency.coeffs", "empty coefficient list"))
        if len(coeffs) - 1 > MAX_DEGREE:
            violations.append(
                Violation(
                    f"edges[{k}].latency.coeffs",
                    f"degree {len(coeffs) - 1} exceeds maximum {MAX_DEGREE}",
                )
            )
        for j, c in enumerate(coeffs):
            if not math.isfinite(c):
                violations.append(
                    Violation(f"edges[{k}].latency.coeffs[{j}]", f"non-finite coefficient {c}")
                )
            elif c < 0:
                violations.append(
                    Violation(f"edges[{k}].latency.coeffs[{j}]", f"negative coefficient {c}")
                )
    seen_types: set[str] = set()
    for k, ptype in enumerate(game.player_types):
        if ptype.id in seen_types:
            violations.append(
                Violation(f"player_types[{k}].id", f"duplicate player type id '{ptype.id}'")
            )
        seen_types.add(ptype.id)
        if not math.isfinite(ptype.demand):
            violations.append(
                Violation(f"player_types[{k}].demand", f"non-finite demand {ptype.demand}")
            )
        elif ptype.demand < 0:
            violations.append(
                Violation(f"player_types[{k}].demand", f"negative demand {ptype.demand}")
            )
        if ptype.demand > 0 and not ptype.strategies:
            violations.append(
                Violation(f"player_types[{k}].strategies", "no strategies for positive demand")
            )
        for s, strategy in enumerate(ptype.strategies):
            if not strategy:
                violations.append(
                    Violation(f"player_types[{k}].strategies[{s}]", "empty strategy")
                )
            for edge_id in sorted(strategy - seen_edge_ids):
                violations.append(
                    Violation(
                        f"player_types[{k}].strategies[{s}]", f"unknown edge id '{edge_id}'"
                    )
                )
    return violations


def _horner(bank: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner's rule over the first axis of bank, which holds coefficients
    lowest power first: the values at x.

    x broadcasts against each bank[j], so a stack of banks along the
    other axes evaluates in one pass, each entry bit for bit as its own
    polynomial alone.
    """
    # value = value * x + bank[j], from 0 * x + bank[-1]: so value takes
    # the broadcast shape, and a non-finite x stays non-finite in a constant.
    value = np.multiply(x, 0.0) + bank[-1]
    for j in range(len(bank) - 2, -1, -1):
        value *= x
        value += bank[j]
    return value


class _GameArrays:
    """Dense vector view of a game.

    Flow vectors are indexed by (type, strategy) keys in game order, so
    each type's rows are contiguous. Their per-type layout is kept as two
    index arrays: owner[r] is the type of row r, and slots[t] lists the
    rows of type t, padded with the row count. by_type reads a vector
    through slots with a pad value in that sentinel entry past its end.
    row_range and type_range are the row and type indices in order.

    Loads are flow @ incidence. Each mode's polynomials are padded into
    one array, banks[mode], of shape (width, 2 + width, edges):
    coefficient first, lowest power first. Row 0 is the latency bank,
    row 1 its derivative, and row 2 + k the integral bank shifted down k
    powers, so banks[mode][:, 2] is the integral, whose value times x is
    the edge's potential term. Every polynomial is evaluated by _horner
    over that first axis, a whole load vector at once; the zeros of the
    padding are exact, so every entry equals the scalar Horner value of
    its own polynomial. _horner(banks[mode], x) evaluates every row of a
    mode at loads x in one pass. Rows 2: of its values are the Horner
    partial sums of the integral at x, the quotient that
    potential_change evaluates.

    Every array is read-only: the view lives as long as its Game, which
    load_game hands to every caller that loads the same text.
    """

    def __init__(self, game: Game):
        n_edges = len(game.edges)
        self.edge_index = {e.id: k for k, e in enumerate(game.edges)}
        keys: list[tuple[str, int]] = []
        # The (row, edge) cells of incidence that hold a 1.
        cell_rows: list[int] = []
        cell_cols: list[int] = []
        self.demand = np.array([t.demand for t in game.player_types])
        for ptype in game.player_types:
            for s, strategy in enumerate(ptype.strategies):
                cell_rows.extend([len(keys)] * len(strategy))
                cell_cols.extend(self.edge_index[edge_id] for edge_id in strategy)
                keys.append((ptype.id, s))
        self.keys = keys
        self.row_index = {key: r for r, key in enumerate(keys)}
        sizes = np.array([len(t.strategies) for t in game.player_types], dtype=int)
        self.type_range = np.arange(len(sizes))
        self.owner = np.repeat(self.type_range, sizes)
        self.row_range = np.arange(len(keys))
        # Row r sits in column r - (first row of its type) of slots.
        first = np.cumsum(sizes) - sizes
        self.slots = np.full((len(sizes), max(sizes.max(initial=0), 1)), len(keys))
        self.slots[self.owner, self.row_range - first[self.owner]] = self.row_range
        self.incidence = np.zeros((len(keys), n_edges))
        self.incidence[cell_rows, cell_cols] = 1.0
        original = [e.latency.coeffs for e in game.edges]
        width = max(map(len, original), default=1) or 1
        # banks[m, j, b, e]: coefficient j of bank b (latency, derivative,
        # integral shifted down b - 2 powers) of edge e in mode m
        # (original, marginal).
        banks = np.zeros((2, width, 2 + width, n_edges))
        for k, coeffs in enumerate(original):
            banks[0, : len(coeffs), 0, k] = coeffs
        powers = np.arange(1.0, width + 1.0)[:, None]
        latency = banks[:, :, 0]
        # The marginal-cost transform is a_j -> (j + 1) * a_j.
        latency[1] = latency[0] * powers
        # Derivatives a_j -> j * a_j, shifted down one power, with a zero
        # at the top; integrals a_j / (j + 1).
        banks[:, :-1, 1] = latency[:, 1:] * powers[:-1]
        for k in range(width):
            banks[:, : width - k, 2 + k] = latency[:, k:] / powers[k:]
        banks.flags.writeable = False
        self.banks = {"original": banks[0], "marginal": banks[1]}
        for array in (
            self.demand, self.type_range, self.row_range, self.owner, self.slots,
            self.incidence,
        ):
            array.flags.writeable = False

    @cached_property
    def cold_start(self) -> np.ndarray:
        """The solver's start in both modes, read-only: each type's demand
        on its cheapest strategy at zero loads, ties toward the lowest
        index. At zero load every latency is its constant coefficient,
        which the marginal transform multiplies by 1, so both modes pick
        the same flow bit for bit; a game solved twice builds it once."""
        f = self.all_or_nothing(self.incidence @ self.banks["original"][0, 0])
        f.flags.writeable = False
        return f

    def flow_vector(self, flow: Flow) -> np.ndarray:
        """flow by row; ValueError("infeasible flow") for a key the game lacks."""
        f = np.zeros(len(self.keys))
        try:
            for key, amount in flow.amounts.items():
                f[self.row_index[key]] = amount
        except KeyError:
            raise ValueError("infeasible flow") from None
        return f

    def feasible_vector(self, flow: Flow) -> np.ndarray:
        """flow_vector of a feasible flow: amounts nonnegative, on existing
        strategies, and each type's summing (in row order) to its demand
        within FEASIBILITY_TOL. Raises ValueError("infeasible flow")
        otherwise."""
        f = self.flow_vector(flow)
        sums = np.bincount(self.owner, f, minlength=len(self.demand))
        # min and max propagate NaN, which fails both comparisons.
        worst = np.abs(sums - self.demand).max(initial=0.0)
        if not (f.min(initial=0.0) >= 0 and worst <= FEASIBILITY_TOL):
            raise ValueError("infeasible flow")
        return f

    def to_flow(self, f: np.ndarray) -> Flow:
        return Flow({key: float(v) for key, v in zip(self.keys, f)})

    def loads(self, f: np.ndarray) -> np.ndarray:
        return f @ self.incidence

    def edge_costs(self, x: np.ndarray) -> np.ndarray:
        """Per-edge cost l_e(x_e) * x_e."""
        return _horner(self.banks["original"][:, 0], x) * x

    def strategy_costs(self, x: np.ndarray, mode: str) -> np.ndarray:
        return self.incidence @ _horner(self.banks[mode][:, 0], x)

    def potential_change(self, x: np.ndarray, dx: np.ndarray, quotient: np.ndarray) -> float:
        """The potential at loads x + dx minus that at x, as
        sum_e dx_e * P_e[x_e, x_e + dx_e], with P_e[a, b] the divided
        difference of edge e's potential term P_e(y) = y * I_e(y), I_e
        its integral bank, and quotient _horner(banks[mode], x)[2:].

        Row k of quotient is I_e shifted down k powers at a, which is
        Horner's k-th partial sum of I_e at a and the coefficient of y^k
        in the quotient of P_e by (y - a); that quotient at b is
        P_e[a, b]. At nonnegative loads both Horner passes add
        nonnegative parts, so no term cancels, however small dx is.
        """
        return float(dx @ _horner(quotient, x + dx))

    def by_type(self, values: np.ndarray, pad: float) -> np.ndarray:
        """values laid out as slots (type by padded row), pad in the padding."""
        return np.concatenate((values, (pad,)))[self.slots]

    def excess(self, costs: np.ndarray) -> np.ndarray:
        """Each strategy's cost minus the cheapest cost of its type."""
        cheapest = self.by_type(costs, np.inf).min(axis=1)
        return costs - cheapest[self.owner]

    def all_or_nothing(self, costs: np.ndarray) -> np.ndarray:
        """Each type's demand on its cheapest strategy, ties toward the
        lowest index. A type without strategies picks the sentinel row,
        which is dropped."""
        pick = self.by_type(costs, np.inf).argmin(axis=1)
        rows = self.slots[self.type_range, pick]
        f = np.zeros(len(self.keys) + 1)
        f[rows] = self.demand
        return f[:-1]


def is_feasible(game: Game, flow: Flow) -> bool:
    """True iff all amounts are nonnegative, reference existing strategies,
    and each type's amounts sum to its demand within FEASIBILITY_TOL."""
    try:
        game._arrays.feasible_vector(flow)
    except ValueError:
        return False
    return True


def social_cost(game: Game, flow: Flow) -> float:
    """Total cost sum_e l_e(x_e) * x_e of a feasible flow."""
    view = game._arrays
    return float(view.edge_costs(view.loads(view.feasible_vector(flow))).sum())


def player_cost(game: Game, flow: Flow, type_id: str) -> float:
    """Cost borne by one player type: sum_e l_e(x_e) * x_e^i."""
    strategies = game.player_type(type_id).strategies  # raises for an unknown type
    view = game._arrays
    f = view.feasible_vector(flow)
    latencies = _horner(view.banks["original"][:, 0], view.loads(f))
    start = view.row_index.get((type_id, 0), 0)
    rows = slice(start, start + len(strategies))
    return float(latencies @ (f[rows] @ view.incidence[rows]))
