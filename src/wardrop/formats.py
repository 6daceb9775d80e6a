"""Game and flow files, plus report emission.

Games and flows travel as JSON; batch reports as CSV. File
floats are written with repr precision so every value parses back to the
exact float that was written; fixed 6-decimal formatting is display-only
and lives in the CLI.

Game files go through json.dumps(indent=2). Flow files are written
directly, one formatted string per entry, because json's indented
encoder is pure Python; their bytes are exactly those that
json.dumps(flow_to_dict(flow), indent=2) would give.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .batch import BatchReport
from .latency import LatencyFunction
from .model import Edge, Flow, Game, GameValidationError, PlayerType, validate_game
from .solver import SolveResult


class FormatError(ValueError):
    """A document parsed as JSON but does not match the expected schema."""


#: How many games load_game keeps, keyed by the full text they came from.
GAME_CACHE_SIZE = 4


# The checks below take the field's path as a format template plus its
# indices, and format it only to report an error.


def _list(value: Any, path: str, *where: int) -> list[Any]:
    if type(value) is not list:
        raise FormatError(f"{path.format(*where)}: expected a list, got {value!r}")
    return value


def _number(value: Any, path: str, *where: int) -> float:
    # Exact types: JSON true and false load as bool, a subclass of int.
    if type(value) is not float and type(value) is not int:
        raise FormatError(f"{path.format(*where)}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise FormatError(f"{path.format(*where)}: number out of float range") from None


def _numbers(values: Any, path: str, *where: int) -> list[Any]:
    """values, if it is a list of numbers that fit in a float."""
    for j, value in enumerate(_list(values, path, *where)):
        if type(value) is not float:
            _number(value, path + "[{}]", *where, j)
    return values


def _string(value: Any, path: str, *where: int) -> str:
    if type(value) is not str:
        raise FormatError(f"{path.format(*where)}: expected a string, got {value!r}")
    return value


def _strings(values: Any, path: str, *where: int) -> list[Any]:
    """values, if it is a list of strings."""
    for j, value in enumerate(_list(values, path, *where)):
        if type(value) is not str:
            _string(value, path + "[{}]", *where, j)
    return values


def _index(value: Any, path: str, *where: int) -> int:
    number = _number(value, path, *where)
    if not number.is_integer():
        raise FormatError(f"{path.format(*where)}: expected an integer, got {value!r}")
    return int(number)


def game_from_dict(data: Any) -> Game:
    """Build a game from its JSON document, checking the type of every
    field; structural checks are left to validate_game."""
    try:
        edges = []
        for k, entry in enumerate(_list(data["edges"], "edges")):
            coeffs = _numbers(entry["latency"]["coeffs"], "edges[{}].latency.coeffs", k)
            edge_id = _string(entry["id"], "edges[{}].id", k)
            edges.append(Edge(id=edge_id, latency=LatencyFunction(tuple(coeffs))))
        player_types = []
        for k, entry in enumerate(_list(data["player_types"], "player_types")):
            strategies = _list(entry["strategies"], "player_types[{}].strategies", k)
            members = [
                _strings(strategy, "player_types[{}].strategies[{}]", k, s)
                for s, strategy in enumerate(strategies)
            ]
            player_types.append(
                PlayerType(
                    id=_string(entry["id"], "player_types[{}].id", k),
                    demand=_number(entry["demand"], "player_types[{}].demand", k),
                    strategies=tuple(map(frozenset, members)),
                )
            )
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed game document: {exc!r}") from exc
    return Game(edges=tuple(edges), player_types=tuple(player_types))


def game_to_dict(game: Game) -> dict[str, Any]:
    """Inverse of game_from_dict; duplicate strategies are re-expanded
    from their recorded multiplicities."""
    edges = [
        {"id": e.id, "latency": {"coeffs": list(e.latency.coeffs)}} for e in game.edges
    ]
    player_types = []
    for t in game.player_types:
        strategies: list[list[str]] = []
        for strategy, multiplicity in zip(t.strategies, t.multiplicities):
            strategies.extend([sorted(strategy)] * multiplicity)
        player_types.append({"id": t.id, "demand": t.demand, "strategies": strategies})
    return {"edges": edges, "player_types": player_types}


def load_game(path: str | Path) -> Game:
    """Parse and validate a game file.

    The file is read on every call. A text identical to one of the last
    GAME_CACHE_SIZE distinct texts loaded returns the same immutable Game,
    with its vector view and validation report already built; any change
    to the text parses it anew.

    Raises json.JSONDecodeError (with line and column) on bad JSON,
    FormatError on schema mismatch, and GameValidationError listing every
    structural violation; a text that fails is never kept.
    """
    return _game_from_text(_read_text(path))


@functools.lru_cache(maxsize=GAME_CACHE_SIZE)
def _game_from_text(text: str) -> Game:
    game = game_from_dict(json.loads(text))
    report = validate_game(game)
    if report:
        raise GameValidationError(report)
    return game


def _read_text(path: str | Path) -> str:
    # open() rather than Path.read_text: the same text mode and newline
    # handling, without building a Path on every command.
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_text(text: str, path: str | Path) -> None:
    # open() rather than Path.write_text, as in _read_text.
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_json(document: dict[str, Any], path: str | Path) -> None:
    _write_text(json.dumps(document, indent=2) + "\n", path)


def save_game(game: Game, path: str | Path) -> None:
    _write_json(game_to_dict(game), path)


def load_flow(path: str | Path, game: Game) -> Flow:
    """Parse a flow file against a game.

    Raises FormatError for schema problems, references to unknown types
    or strategies, duplicate entries, or negative or non-finite amounts.
    """
    data = json.loads(_read_text(path))
    try:
        entries = _list(data["amounts"], "amounts")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed flow document: {exc!r}") from exc
    amounts: dict[tuple[str, int], float] = {}
    for k, entry in enumerate(entries):
        try:
            type_id = _string(entry["type"], "amounts[{}].type", k)
            index = _index(entry["strategy"], "amounts[{}].strategy", k)
            amount = _number(entry["x"], "amounts[{}].x", k)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed flow entry {entry!r}: {exc!r}") from exc
        try:
            ptype = game.player_type(type_id)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        if not 0 <= index < len(ptype.strategies):
            raise FormatError(
                f"strategy index {index} out of range for player type '{type_id}'"
            )
        if not math.isfinite(amount):
            raise FormatError(f"non-finite amount {amount} for ('{type_id}', {index})")
        if amount < 0:
            raise FormatError(f"negative amount {amount} for ('{type_id}', {index})")
        if (type_id, index) in amounts:
            raise FormatError(f"duplicate flow entry for ('{type_id}', {index})")
        amounts[(type_id, index)] = amount
    return Flow(amounts)


def flow_to_dict(flow: Flow) -> dict[str, Any]:
    return {
        "amounts": [
            {"type": type_id, "strategy": index, "x": amount}
            for (type_id, index), amount in sorted(flow.amounts.items())
        ]
    }


def _float_text(value: float) -> str:
    """value as json writes it: repr if finite, else NaN or +-Infinity."""
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _amounts_text(flow: Flow) -> str:
    """The "amounts" value of flow_to_dict(flow) as json.dumps(indent=2)
    writes it one level deep."""
    entries = [
        f'    {{\n      "type": {encode_basestring_ascii(type_id)},\n'
        f'      "strategy": {int.__repr__(index)},\n'
        f'      "x": {_float_text(amount)}\n    }}'
        for (type_id, index), amount in sorted(flow.amounts.items())
    ]
    return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"


def save_flow(flow: Flow, path: str | Path) -> None:
    _write_text(f'{{\n  "amounts": {_amounts_text(flow)}\n}}\n', path)


def save_solve_result(result: SolveResult, path: str | Path) -> None:
    """Flow schema plus a metadata block; load_flow reads it back."""
    text = (
        f'{{\n  "amounts": {_amounts_text(result.flow)},\n  "metadata": {{\n'
        f'    "iterations": {int.__repr__(result.iterations)},\n'
        f'    "relative_gap": {_float_text(result.relative_gap)},\n'
        f'    "social_cost_original": {_float_text(result.social_cost_original)}\n'
        "  }\n}\n"
    )
    _write_text(text, path)


def save_batch_report_csv(report: BatchReport, path: str | Path) -> None:
    """Rows in ascending edge id plus a trailing TOTAL summary row."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["edge_id", "N_e", "x_e", "c_e", "batch_c_e", "gap"])
        for edge_id, row in report.per_edge.items():
            writer.writerow(
                [edge_id, row.count, repr(row.load), repr(row.base_cost),
                 repr(row.batch_cost), repr(row.gap)]
            )
        writer.writerow(
            ["TOTAL", "", "", repr(report.total_original_cost),
             repr(report.total_batch_cost), repr(report.total_gap)]
        )
