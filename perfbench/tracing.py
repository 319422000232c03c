"""Span tracing of the ipmlab package from outside it.

`install` wraps every public function and public method of the layer
modules and rebinds the wrapper wherever the original is bound at module
level, so a `from .mechanisms import ipm_price` binding is traced as well.
Private `_...` names are never wrapped: later refactors rename them freely.

Spans are aggregated in memory per (span, parent span); `summary` turns the
aggregate into the per-layer metrics the benchmark reports.  A metric whose
target function no longer exists is dropped and named in
`summary()["dropped"]`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "distributions", "order_statistics", "mechanisms", "agents", "simulation", "theory")
MECHANISMS = ("ipm", "item_price", "het_ipm", "kplus1", "bundle")
CHECK_NAMES = (
    "fact1", "lamb_aux", "optprog", "lemma_main", "facts23", "tau", "claim1",
    "negcontrol_fact1", "negcontrol_optprog",
)
ROOT = "cli.main"
RUN_SCENARIO = "simulation.run_scenario"
EXPECTED_ORDER_STAT = "order_statistics.expected_order_stat"
CACHED_RANKS = ("order_statistics.expected_rank", "order_statistics.expected_max")
ANALYTIC = ("mechanisms.ipm_price", "mechanisms.build_menu", "mechanisms.optimal_item_price")
INVERSE_VV = "distributions.inverse_virtual_value"
GROUPS = "agents.DemandStructure.groups"
# Bytes a quantile call reads and writes per value (float64 in, float64 out).
QUANTILE_BYTES_PER_VALUE = 16


class Tracer:
    def __init__(self):
        self._local = threading.local()
        # (span, parent span) -> [calls, inclusive s, self s, values]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.layer_self = defaultdict(float)
        # mechanism -> [inclusive s, self s, reps]
        self.scenarios = defaultdict(lambda: [0.0, 0.0, 0])
        self.scenario_reps: list[int] = []
        self.installed: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str):
        tracer = self
        is_quantile = name.endswith(".quantile")
        is_scenario = name == RUN_SCENARIO

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                own = dt - frame[1]
                edge = tracer.edges[(name, parent)]
                edge[0] += 1
                edge[1] += dt
                edge[2] += own
                tracer.layer_self[layer] += own
                if is_quantile and len(args) > 1:
                    edge[3] += int(getattr(args[1], "size", 1))
                if is_scenario and args:
                    agg = tracer.scenarios[args[0].mechanism]
                    agg[0] += dt
                    agg[1] += own
                    agg[2] += args[0].reps
                    tracer.scenario_reps.append(args[0].reps)

        return traced

    # ------------------------------------------------------------------

    def _edges_named(self, names, parents=None):
        for (name, parent), edge in self.edges.items():
            if name in names and (parents is None or parent in parents):
                yield name, parent, edge

    def summary(self, traced_wall_s: float) -> dict:
        metrics: dict[str, float] = {}
        dropped: list[str] = []
        have = self.installed

        def need(metric_names, *targets):
            if all(t in have for t in targets):
                return True
            dropped.extend(metric_names)
            return False

        for layer in LAYERS:
            metrics[f"layer.{layer}.self_s"] = self.layer_self.get(layer, 0.0)
        root = sum(e[1] for _, _, e in self._edges_named({ROOT}, {None}))
        metrics["layer.untraced_s"] = traced_wall_s - root
        metrics["trace.self_sum_s"] = sum(self.layer_self.values())
        metrics["trace.accounting_err"] = abs(
            metrics["trace.self_sum_s"] + metrics["layer.untraced_s"] - traced_wall_s
        ) / traced_wall_s

        mech_names = [f"simulation.{m}.{x}" for m in MECHANISMS for x in ("us_per_rep", "engine_s")]
        if need(mech_names, RUN_SCENARIO):
            for m in MECHANISMS:
                incl, own, reps = self.scenarios.get(m, (0.0, 0.0, 0))
                metrics[f"simulation.{m}.us_per_rep"] = 1e6 * incl / reps if reps else 0.0
                metrics[f"simulation.{m}.engine_s"] = own
        batch = getattr(sys.modules.get("ipmlab.simulation"), "BATCH_SIZE", None)
        if RUN_SCENARIO in have and isinstance(batch, int):
            metrics["simulation.batches"] = sum(-(-reps // batch) for reps in self.scenario_reps)
        else:
            dropped.append("simulation.batches")
        if need([f"{GROUPS}.calls"], GROUPS):
            metrics[f"{GROUPS}.calls"] = sum(e[0] for _, _, e in self._edges_named({GROUPS}))

        quantiles = {n for n in have if n.startswith("distributions.") and n.endswith(".quantile")}
        draw = ["distributions.quantile.draw_s", "distributions.quantile.draw_values", "distributions.quantile.draw_mb"]
        if quantiles:
            edges = [e for _, _, e in self._edges_named(quantiles, {RUN_SCENARIO})]
            values = sum(e[3] for e in edges)
            metrics["distributions.quantile.draw_s"] = sum((e[1] for e in edges), 0.0)
            metrics["distributions.quantile.draw_values"] = values
            metrics["distributions.quantile.draw_mb"] = values * QUANTILE_BYTES_PER_VALUE / 1e6
        else:
            dropped.extend(draw)
        if quantiles and EXPECTED_ORDER_STAT in have:
            metrics["distributions.quantile.integrand_calls"] = sum(
                e[0] for _, _, e in self._edges_named(quantiles, {EXPECTED_ORDER_STAT})
            )
        else:
            dropped.append("distributions.quantile.integrand_calls")

        quad = ["order_statistics.expected_order_stat.s", "order_statistics.expected_order_stat.calls"]
        if need(quad, EXPECTED_ORDER_STAT):
            edges = [e for _, _, e in self._edges_named({EXPECTED_ORDER_STAT})]
            metrics[quad[0]] = sum((e[1] for e in edges), 0.0)
            metrics[quad[1]] = sum(e[0] for e in edges)
        ranks = [r for r in CACHED_RANKS if r in have]
        if ranks and EXPECTED_ORDER_STAT in have:
            lookups = sum(e[0] for _, _, e in self._edges_named(set(ranks)))
            misses = sum(e[0] for _, _, e in self._edges_named({EXPECTED_ORDER_STAT}, set(ranks)))
            metrics["order_statistics.cache_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
        else:
            dropped.append("order_statistics.cache_hit_ratio")

        analytic = [a for a in ANALYTIC if a in have]
        if analytic:
            outer = set(analytic)
            metrics["mechanisms.analytic_s"] = sum(
                (e[1] for _, parent, e in self._edges_named(outer) if parent not in outer), 0.0
            )
        else:
            dropped.append("mechanisms.analytic_s")
        if need([f"{INVERSE_VV}.s"], INVERSE_VV):
            metrics[f"{INVERSE_VV}.s"] = sum(
                (e[1] for _, parent, e in self._edges_named({INVERSE_VV}) if parent != INVERSE_VV), 0.0
            )

        for name in CHECK_NAMES:
            span = f"theory.{name}"
            if need([f"{span}.s"], "theory.run_checks"):
                metrics[f"{span}.s"] = sum((e[1] for _, _, e in self._edges_named({span})), 0.0)
        return {"metrics": metrics, "dropped": dropped}


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module in place."""
    modules = {layer: importlib.import_module(f"ipmlab.{layer}") for layer in LAYERS}
    wrapped: dict[int, tuple] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, _wrapper(tracer, obj, name, layer, mod))
                tracer.installed.add(name)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if meth.startswith("_") or not inspect.isfunction(fn):
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    setattr(obj, meth, tracer.wrap(fn, name, layer))
                    tracer.installed.add(name)
    # Rebind at every module-level binding, `from`-imports included.
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ipmlab" or mod_name.startswith("ipmlab.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def _wrapper(tracer: Tracer, fn, name: str, layer: str, mod):
    if name != "theory.run_checks":
        return tracer.wrap(fn, name, layer)
    traced_run = tracer.wrap(fn, name, layer)

    # Time each registry entry through run_checks([name]); the checks share
    # one process-wide cache either way, so the work done is unchanged.
    @functools.wraps(fn)
    def run_checks(names=None):
        names = list(mod.REGISTRY) if names is None else list(names)
        out = []
        for check in names:
            out.extend(tracer.wrap(traced_run, f"theory.{check}", layer)([check]))
        return out

    return run_checks
