"""Spans around calls into `wardrop`, recorded from outside the package.

`Tracer.installed()` replaces every public function of `wardrop.__all__`
and every `load_*` / `save_*` function of `wardrop.formats` with a
wrapper, in every `wardrop` module that binds the function, and puts the
originals back on exit. A wrapper records one span per call: name, start,
end, parent and self time (duration minus the time its child spans
cover). Exceptions are counted per span name and re-raised. Counts come
from the returned objects: `SolveResult.iterations` per solve mode and
the batch counts of every `BatchReport` priced.

Nothing inside a function body is visible from here, so the phases of
`solve` (line search, rebalance) show up as the solve span's self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# Per-layer metric -> span names whose self times it adds up. A span name
# is "<module>.<function>", with the solve mode appended for solve.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.self_s": ("cli.run",),
    "formats.load_game_s": ("formats.load_game",),
    "formats.load_flow_s": ("formats.load_flow",),
    "formats.save_s": (
        "formats.save_game",
        "formats.save_flow",
        "formats.save_solve_result",
        "formats.save_batch_report_csv",
        "formats.save_batch_report_json",
    ),
    "model.validate_game_s": ("model.validate_game",),
    "model.edge_loads_s": ("model.edge_loads",),
    "model.is_feasible_s": ("model.is_feasible",),
    "model.social_cost_s": ("model.social_cost",),
    "solver.solve_original_s": ("solver.solve[original]",),
    "solver.solve_marginal_s": ("solver.solve[marginal]",),
    # strategy_latency is called per strategy by wardrop_gap.
    "solver.wardrop_gap_s": ("solver.wardrop_gap", "solver.strategy_latency"),
    "batch.select_s": ("batch.select_batch_system",),
    # batch_edge_cost holds the Riemann sums, one call per edge.
    "batch.price_s": ("batch.batch_social_cost", "batch.batch_edge_cost"),
    # batch_latency is called per strategy edge by the equilibrium check.
    "batch.verify_s": ("batch.verify_batch_equilibrium", "batch.batch_latency"),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1), in the order spans opened.
        self.spans: list[tuple[str, float, float, int]] = []
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        start = time.perf_counter()
        self.spans.append((name, start, start, parent))
        self._open.append(index)
        try:
            yield
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self._open.pop()
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def _wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        module = fn.__module__.rsplit(".", 1)[-1]
        base = f"{module}.{fn.__name__}"
        tracer = self

        if fn.__name__ == "solve":
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                mode = args[1] if len(args) > 1 else kwargs.get("mode")
                with tracer.span(f"{base}[{mode}]"):
                    result = fn(*args, **kwargs)
                tracer.counts[f"iterations_{mode}"] += result.iterations
                return result
        elif fn.__name__ == "batch_social_cost":
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(base):
                    report = fn(*args, **kwargs)
                tracer.counts["batches_priced"] += sum(r.count for r in report.per_edge.values())
                return report
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(base):
                    return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the traced functions for the duration of the block."""
        import wardrop
        from wardrop import formats

        targets = [getattr(wardrop, name) for name in wardrop.__all__]
        targets += [
            fn for name, fn in vars(formats).items() if name.startswith(("load_", "save_"))
        ]
        wrappers = {id(fn): self._wrap(fn) for fn in targets if inspect.isfunction(fn)}
        originals: list[tuple[Any, str, Any]] = []
        modules = [
            m for name, m in sys.modules.items()
            if name == "wardrop" or name.startswith("wardrop.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    originals.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        try:
            yield
        finally:
            for module, attr, value in originals:
                setattr(module, attr, value)

    def self_times(self) -> Counter[str]:
        """Per span name: summed durations minus the time child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter[str] = Counter()
        for (name, start, end, _), children in zip(self.spans, covered):
            totals[name] += end - start - children
        return totals

    def layer_times(self) -> dict[str, float]:
        own = self.self_times()
        return {metric: sum(own[name] for name in names) for metric, names in LAYERS.items()}

    def untracked_spans(self) -> dict[str, float]:
        """Self time of span names that no layer metric covers."""
        covered = {name for names in LAYERS.values() for name in names}
        return {name: t for name, t in self.self_times().items() if name not in covered}
