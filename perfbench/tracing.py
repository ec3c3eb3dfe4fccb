"""Per-layer spans and counters, recorded around the package's public functions.

`install` replaces each traced function with a timing wrapper wherever a
loaded `wavechannel` module binds it, and returns a callable that puts the
originals back.  A target that no longer exists is skipped, so the traced
run keeps working while the package is refactored; its metrics then read 0.

A span's busy time is its wall time; its self time is the busy time minus
the busy time of the traced spans it encloses.  Like the end-to-end
timings, both are reported scaled to the reference host speed (run.py).
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable, Optional

MODULES = ("polylib", "exterior_basis", "exact_evolution", "radial_solver", "radiation3", "decay_lab", "cli")

# (span name, module, attribute path): functions timed as spans
SPANS = (
    ("polylib.lemma_check", "polylib", "lemma_check"),
    ("polylib.isolate_real_roots", "polylib", "isolate_real_roots"),
    ("exterior_basis.series_norms", "exterior_basis", "series_norms"),
    ("exact_evolution.wave_residual", "exact_evolution", "wave_residual"),
    ("exact_evolution.cone_energy_terms", "exact_evolution", "cone_energy_terms"),
    ("exact_evolution.descriptor_eval", "exact_evolution", "ExteriorDescriptor.eval"),
    ("exact_evolution.exterior_energy", "exact_evolution", "exterior_energy"),
    ("radial_solver.solve", "radial_solver", "solve_mode_linear"),
    ("radial_solver.solve", "radial_solver", "solve_quintic"),
    ("radial_solver.cone_energy", "radial_solver", "cone_energy"),
    ("radial_solver.l6_tail", "radial_solver", "l6_tail"),
    ("radial_solver.energy_series", "radial_solver", "energy_series"),
    ("radiation3.inverse_map", "radiation3", "inverse_map"),
    ("radiation3.forward_map", "radiation3", "forward_map"),
    ("radiation3.tail_S", "radiation3", "tail_S"),
    ("radiation3.channel_identity_check", "radiation3", "channel_identity_check"),
    ("decay_lab.worst_case_S", "decay_lab", "worst_case_S"),
    ("decay_lab.nonlinear_decay_pipeline", "decay_lab", "nonlinear_decay_pipeline"),
    ("cli.run", "cli", "run"),
)


class Tracer:
    """Span and counter totals for one run, kept in memory."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._open: list[float] = []  # child busy time of each open span

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._open.pop()
                if self._open:
                    self._open[-1] += dur
                for key in (name, *(_sub(name, args))):
                    self.calls[key] = self.calls.get(key, 0) + 1
                    self.busy[key] = self.busy.get(key, 0.0) + dur
                    self.self_time[key] = self.self_time.get(key, 0.0) + dur - child
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, import_s: float, speed: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of BENCHMARK.json, as (value, unit); times are scaled by `speed`."""
        calls = lambda k: self.calls.get(k, 0)  # noqa: E731
        busy = lambda k: speed * self.busy.get(k, 0.0)  # noqa: E731
        own = lambda k: speed * self.self_time.get(k, 0.0)  # noqa: E731

        def per_call(k: str, scale: float) -> float:
            return scale * busy(k) / calls(k) if calls(k) else 0.0

        node_steps = self.counters.get("radial_solver.node_steps", 0)
        return {
            "polylib.lemma_check.calls": (calls("polylib.lemma_check"), "count"),
            "polylib.lemma_check.busy_s": (busy("polylib.lemma_check"), "s"),
            "polylib.lemma_check.sup_ms": (per_call("polylib.lemma_check.sup", 1e3), "ms/call"),
            "polylib.lemma_check.deriv_ms": (per_call("polylib.lemma_check.deriv", 1e3), "ms/call"),
            "polylib.isolate_real_roots.calls": (calls("polylib.isolate_real_roots"), "count"),
            "polylib.isolate_real_roots.busy_s": (busy("polylib.isolate_real_roots"), "s"),
            "exterior_basis.series_norms.busy_s": (busy("exterior_basis.series_norms"), "s"),
            "exact_evolution.wave_residual.busy_s": (busy("exact_evolution.wave_residual"), "s"),
            "exact_evolution.cone_energy_terms.busy_s": (busy("exact_evolution.cone_energy_terms"), "s"),
            "exact_evolution.descriptor_eval.calls": (calls("exact_evolution.descriptor_eval"), "count"),
            "exact_evolution.descriptor_eval.busy_s": (busy("exact_evolution.descriptor_eval"), "s"),
            "exact_evolution.descriptor_eval.us_per_call": (per_call("exact_evolution.descriptor_eval", 1e6), "us/call"),
            "exact_evolution.exterior_energy.busy_s": (busy("exact_evolution.exterior_energy"), "s"),
            "radial_solver.node_steps": (node_steps, "count"),
            "radial_solver.solve.self_s": (own("radial_solver.solve"), "s"),
            "radial_solver.ns_per_node_step": (1e9 * own("radial_solver.solve") / node_steps if node_steps else 0.0, "ns"),
            "radial_solver.grid_fields": (self.counters.get("radial_solver.grid_fields", 0), "count"),
            "radial_solver.cone_energy.busy_s": (busy("radial_solver.cone_energy"), "s"),
            "radial_solver.l6_tail.busy_s": (busy("radial_solver.l6_tail"), "s"),
            "radial_solver.energy_series.busy_s": (busy("radial_solver.energy_series"), "s"),
            "radiation3.inverse_map.busy_s": (busy("radiation3.inverse_map"), "s"),
            "radiation3.forward_map.busy_s": (busy("radiation3.forward_map"), "s"),
            "radiation3.tail_S.busy_s": (busy("radiation3.tail_S"), "s"),
            "radiation3.channel_identity_check.self_s": (own("radiation3.channel_identity_check"), "s"),
            "decay_lab.worst_case_S.busy_s": (busy("decay_lab.worst_case_S"), "s"),
            "decay_lab.nonlinear_decay_pipeline.self_s": (own("decay_lab.nonlinear_decay_pipeline"), "s"),
            "cli.run.calls": (calls("cli.run"), "count"),
            "cli.run.self_s": (own("cli.run"), "s"),
            "cli.artifact_bytes": (self.counters.get("cli.artifact_bytes", 0), "bytes"),
            "setup.import_s": (speed * import_s, "s"),
        }


def _sub(name: str, args: tuple) -> tuple[str, ...]:
    """Extra span keys: lemma checks are also split into sup and deriv variants."""
    if name == "polylib.lemma_check" and len(args) > 1 and isinstance(args[1], str):
        return (f"{name}.{args[1].split('_')[0]}",)
    return ()


def _count_solve_steps(tracer: Tracer) -> Callable[[tuple, Any], None]:
    def on_return(args: tuple, traj: Any) -> None:
        # stored times are whole multiples of dt; the last one is the step count
        try:
            cfg = args[1]
            steps = round(float(traj.times[-1]) / cfg.dt)
            tracer.count("radial_solver.node_steps", steps * cfg.n_r)
        except (AttributeError, IndexError, TypeError):  # a refactored signature: count nothing
            pass

    return on_return


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced target that exists; return the function that unwraps them."""
    modules = []
    for short in MODULES:
        try:
            modules.append(importlib.import_module(f"wavechannel.{short}"))
        except ImportError:
            continue
    undo: list[tuple[Any, str, Any]] = []

    def rebind(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for name, short, path in SPANS:
        mod = sys.modules.get(f"wavechannel.{short}")
        if mod is None:
            continue
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name, None)
            if owner is not None and attr in owner.__dict__:
                rebind(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
            continue
        target = getattr(mod, path, None)
        if target is None:
            continue
        hook = _count_solve_steps(tracer) if name == "radial_solver.solve" else None
        wrapped = tracer.wrap(name, target, hook)
        # rebind in every module that imported the function by name
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is target:
                    rebind(m, key, wrapped)

    rs = sys.modules.get("wavechannel.radial_solver")
    field_cls = getattr(rs, "RadialGridField", None) if rs else None
    if field_cls is not None and "__post_init__" in field_cls.__dict__:
        post = field_cls.__dict__["__post_init__"]

        def counted(self, *args, **kwargs):
            tracer.count("radial_solver.grid_fields")
            return post(self, *args, **kwargs)

        rebind(field_cls, "__post_init__", counted)

    def restore() -> None:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore
