"""Timing wrappers for the traced run.

The benchmark rebinds hedgelab's public callables to wrappers that aggregate
count, total time and child time per hook, so per-round calls cost no memory.
Coarse hooks (CLI call, harness entry points, play_match, minimize) also keep
one span each with a parent link. A hook whose target is gone is reported as
absent with a note; the run goes on without it.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class Hook:
    key: str  # aggregate name, e.g. "learners.hedge.next_strategy"
    module: str
    attr: str  # "func" or "Class.method"
    coarse: bool = False


HOOKS = (
    Hook("harness.run_experiment", "hedgelab.harness", "run_experiment", coarse=True),
    Hook("harness.verify_bounds", "hedgelab.harness", "verify_bounds", coarse=True),
    Hook("harness.sweep_gamma", "hedgelab.harness", "sweep_gamma", coarse=True),
    Hook("harness.run_metered", "hedgelab.harness", "run_metered", coarse=True),
    Hook("harness.write_csv", "hedgelab.harness", "write_csv"),
    Hook("game.play_match", "hedgelab.game", "play_match", coarse=True),
    Hook("game.load_matrix_file", "hedgelab.game", "load_matrix_file"),
    Hook("learners.hedge.next_strategy", "hedgelab.learners", "OptimisticHedge.next_strategy"),
    Hook("learners.hedge.observe", "hedgelab.learners", "OptimisticHedge.observe"),
    Hook("learners.averaged.next_strategy", "hedgelab.learners", "AveragedHedge.next_strategy"),
    Hook("learners.averaged.observe", "hedgelab.learners", "AveragedHedge.observe"),
    Hook("analysis.meter.update", "hedgelab.analysis", "RegretMeter.update"),
    Hook("analysis.meter.snapshot", "hedgelab.analysis", "RegretMeter.snapshot"),
    Hook("rates.preset_rates", "hedgelab.rates", "preset_rates"),
    Hook("rates.theoretical_upper", "hedgelab.rates", "theoretical_upper"),
    Hook("optim.minimize", "hedgelab.optim", "minimize", coarse=True),
    Hook("optim.minimize_unaware", "hedgelab.optim", "minimize_unaware_coefficients"),
)


class Tracer:
    """Aggregates calls per hook; `stats[key] = [calls, total_s, child_s]`."""

    def __init__(self):
        self.stats = {}
        self.counters = {
            "rounds": 0,
            "matvec_bytes": 0,
            "strategy_entries": 0,
            "underflow_entries": 0,
            "csv_rows": 0,
            "csv_bytes": 0,
            "optim_iterations": 0,
            "optim_unconverged": 0,
        }
        self.absent = {}  # hook key -> note
        self.spans = []  # [id, name, parent, start, end]
        self._child = []  # child-time accumulator per open wrapped call
        self._open = []  # ids of open coarse spans
        self._restore = []  # (owner, attr, original)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, key, fn, coarse=False, after=None):
        """Wrap fn under `key`. The parent is charged the wrapper's whole
        duration, so bookkeeping done here never shows as the parent's self
        time; it shows only in the traced run's overall slowdown."""
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        child_stack = self._child
        spans, open_spans = self.spans, self._open

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            child_stack.append(0.0)
            if coarse:
                span = [len(spans), key, open_spans[-1] if open_spans else None, 0.0, 0.0]
                spans.append(span)
                open_spans.append(span[0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = child_stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += child
                if coarse:
                    open_spans.pop()
                    span[3], span[4] = t0, t1
            if after is not None:
                after(args, kwargs, result)
            if child_stack:
                child_stack[-1] += perf_counter() - t_in
            return result

        return wrapper

    def install(self):
        for hook in HOOKS:
            module = sys.modules.get(hook.module)
            owner_name, _, name = hook.attr.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent[hook.key] = f"hook target {hook.module}.{hook.attr} not found"
                continue
            target = original
            if hook.key == "game.play_match":
                target = self._counted_play_match(original)
            fn = self.wrap(hook.key, target, hook.coarse, self._after_hook(hook.key, original))
            if owner_name:
                self._rebind(owner, name, fn)
                continue
            # Modules import functions by name, so rebind every hedgelab module
            # attribute bound to the original, not only the defining one.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "hedgelab" and getattr(mod, name, None) is original:
                    self._rebind(mod, name, fn)

    def _rebind(self, owner, name, fn):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, fn)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- per-hook counters -------------------------------------------------

    def _after_hook(self, key, original):
        c = self.counters
        if key == "learners.hedge.next_strategy":

            def after(args, kwargs, x):
                c["strategy_entries"] += x.size
                c["underflow_entries"] += int(np.count_nonzero(x < TINY))

            return after
        if key == "optim.minimize":

            def after(args, kwargs, res):
                c["optim_iterations"] += int(getattr(res, "iterations", 0))
                c["optim_unconverged"] += 0 if getattr(res, "converged", True) else 1

            return after
        if key == "harness.write_csv":
            sig = inspect.signature(original)

            def after(args, kwargs, _):
                bound = sig.bind(*args, **kwargs).arguments
                rows = bound.get("rows", ())
                c["csv_rows"] += len(rows) if hasattr(rows, "__len__") else 0
                with open(bound["path"], "rb") as fh:
                    c["csv_bytes"] += fh.seek(0, 2)

            return after
        return None

    def _counted_play_match(self, original):
        """play_match that also counts rounds and the feedback matvecs'
        computed bytes, and wraps the observer it is handed, so the harness's
        per-round callback is not charged to the match loop."""
        sig = inspect.signature(original)
        c = self.counters

        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            arguments = bound.arguments
            payoffs, horizon = arguments["payoffs"], int(arguments["horizon"])
            c["rounds"] += horizon
            c["matvec_bytes"] += 16 * payoffs.m * payoffs.n * horizon
            if arguments.get("observer") is not None:
                arguments["observer"] = self.wrap("harness.observer", arguments["observer"])
            return original(*bound.args, **bound.kwargs)

        return counted

    # -- results -----------------------------------------------------------

    def self_s(self, key) -> float:
        calls, total, child = self.stats.get(key, (0, 0.0, 0.0))
        return total - child

    def calls(self, key) -> int:
        return self.stats.get(key, (0, 0.0, 0.0))[0]
