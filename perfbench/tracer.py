"""Per-layer timing of the program from outside it.

install() wraps every public function of the seven modules and rebinds the
wrapper under every name a sparkfinger module holds the function by, so
calls the program makes internally (discover_stroke -> solve_position,
cli -> load_config, ...) are timed too. No program file changes. A span's
self time is its duration minus the time of the traced spans it contains.

Tracing is single-threaded: in the CLI workload the spans are taken inside
each child process (see tracedcli.py) and summed here.
"""
from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("mechanism", "kinematics", "dynamics", "statics", "modeswitch",
           "config", "cli")

# Functions whose result has a natural item count: trajectory samples,
# integration steps, table rows.
_ITEMS = {
    "dynamics.simulate_free": lambda trace: len(trace.t) - 1,
}


def _default_items(result):
    return len(result) if isinstance(result, list) else 0


class Tracer:
    """Holds, per traced function: calls, failed calls, total s, self s, items."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._children: list[float] = []
        self._wrappers: dict = {}
        self._bound: list = []

    def install(self):
        """Rebind every public function to its timing wrapper."""
        modules = [importlib.import_module(f"sparkfinger.{m}") for m in MODULES]
        if not self._wrappers:
            for short, module in zip(MODULES, modules):
                for name in getattr(module, "__all__", ()):
                    fn = getattr(module, name)
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        self._wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for module in modules + [importlib.import_module("sparkfinger")]:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    setattr(module, name, self._wrappers[value])
                    self._bound.append((module, name, value))

    def uninstall(self):
        """Put the original functions back."""
        for module, name, fn in self._bound:
            setattr(module, name, fn)
        self._bound.clear()

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0, 0.0, 0.0, 0])
        count_items = _ITEMS.get(key, _default_items)
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[1] += 1
                raise
            else:
                stat[4] += count_items(result)
                return result
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stat[0] += 1
                stat[2] += elapsed
                stat[3] += elapsed - inner
                if children:
                    children[-1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def merge(self, stats):
        """Add a snapshot taken in another process."""
        for key, values in stats.items():
            mine = self.stats.setdefault(key, [0, 0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                mine[i] += v


# Per-layer metrics: (name, unit). All are per operation except the
# per-call self times (`self_us`).
LAYER_METRICS = (
    ("mechanism.discover_stroke.ms", "ms"),
    ("mechanism.discover_stroke.calls", "count"),
    ("mechanism.solve_position.calls", "count"),
    ("mechanism.solve_position.failed", "count"),
    ("mechanism.solve_position.self_us", "us"),
    ("mechanism.solve_position.useful_ratio", "ratio"),
    ("mechanism.fingertip_trajectory.self_ms", "ms"),
    ("mechanism.spark_preset.ms", "ms"),
    ("kinematics.constrained_motion.calls", "count"),
    ("kinematics.constrained_motion.ms", "ms"),
    ("kinematics.forward_kinematics.calls", "count"),
    ("kinematics.forward_kinematics.self_us", "us"),
    ("kinematics.jacobian.self_us", "us"),
    ("dynamics.simulate_free.ms", "ms"),
    ("dynamics.simulate_free.steps", "count"),
    ("dynamics.dynamics_terms.calls", "count"),
    ("dynamics.dynamics_terms.self_us", "us"),
    ("dynamics.kinetic_energy.self_us", "us"),
    ("dynamics.potential_energy.self_us", "us"),
    ("statics.force_sweep.ms", "ms"),
    ("statics.force_sweep.rows", "count"),
    ("modeswitch.mode_trace.ms", "ms"),
    ("modeswitch.mode_trace.rows", "count"),
    ("config.load_config.ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.csv_bytes", "B"),
    ("tracing.op_ms_p50_untraced", "ms"),
    ("tracing.op_ms_p50_traced", "ms"),
    ("tracing.overhead_ms", "ms"),
)


def layer_values(stats, ops, extra):
    """Per-layer metric values from summed stats over `ops` operations.

    `extra` supplies the values not taken from spans (CLI import times, CSV
    bytes, tracing overhead). A function that never ran reads 0.
    """
    def stat(key):
        return stats.get(key, [0, 0, 0.0, 0.0, 0])

    def per_op(key, field, scale=1.0):
        return stat(key)[field] * scale / ops

    def per_call_us(key):
        calls, _, _, self_s, _ = stat(key)
        return self_s * 1e6 / calls if calls else 0.0

    solves = stat("mechanism.solve_position")[0]
    delivered = stat("mechanism.fingertip_trajectory")[4]
    values = {
        "mechanism.discover_stroke.ms": per_op("mechanism.discover_stroke", 2, 1e3),
        "mechanism.discover_stroke.calls": per_op("mechanism.discover_stroke", 0),
        "mechanism.solve_position.calls": per_op("mechanism.solve_position", 0),
        "mechanism.solve_position.failed": per_op("mechanism.solve_position", 1),
        "mechanism.solve_position.self_us": per_call_us("mechanism.solve_position"),
        "mechanism.solve_position.useful_ratio": delivered / solves if solves else 0.0,
        "mechanism.fingertip_trajectory.self_ms":
            per_op("mechanism.fingertip_trajectory", 3, 1e3),
        "mechanism.spark_preset.ms": per_op("mechanism.spark_preset", 2, 1e3),
        "kinematics.constrained_motion.calls": per_op("kinematics.constrained_motion", 0),
        "kinematics.constrained_motion.ms":
            per_op("kinematics.constrained_motion", 2, 1e3),
        "kinematics.forward_kinematics.calls": per_op("kinematics.forward_kinematics", 0),
        "kinematics.forward_kinematics.self_us":
            per_call_us("kinematics.forward_kinematics"),
        "kinematics.jacobian.self_us": per_call_us("kinematics.jacobian"),
        "dynamics.simulate_free.ms": per_op("dynamics.simulate_free", 2, 1e3),
        "dynamics.simulate_free.steps": per_op("dynamics.simulate_free", 4),
        "dynamics.dynamics_terms.calls": per_op("dynamics.dynamics_terms", 0),
        "dynamics.dynamics_terms.self_us": per_call_us("dynamics.dynamics_terms"),
        "dynamics.kinetic_energy.self_us": per_call_us("dynamics.kinetic_energy"),
        "dynamics.potential_energy.self_us": per_call_us("dynamics.potential_energy"),
        "statics.force_sweep.ms": per_op("statics.force_sweep", 2, 1e3),
        "statics.force_sweep.rows": per_op("statics.force_sweep", 4),
        "modeswitch.mode_trace.ms": per_op("modeswitch.mode_trace", 2, 1e3),
        "modeswitch.mode_trace.rows": per_op("modeswitch.mode_trace", 4),
        "config.load_config.ms": per_op("config.load_config", 2, 1e3),
        "cli.main.self_ms": per_op("cli.main", 3, 1e3),
    }
    values.update(extra)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_METRICS}
