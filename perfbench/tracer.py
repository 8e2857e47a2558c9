"""Span tracer that times orbitflow's public functions from outside.

Each traced function is wrapped and rebound in every ``orbitflow`` module
namespace that holds it, including tuples such as ``verification.SUITES``,
because modules import names like ``retract`` directly.  Spans stay in
memory as (name, start, end, parent, unit, self time) and are written out
when the run ends.  A span's self time is its duration minus the durations
of its child spans; the program is single-threaded, so children never
overlap.

The one-line helpers in ``liecore`` and ``util`` and the private batched
kernels in ``thimble`` are not wrapped: their cost shows up in the self
time of the traced function that calls them.
"""

import csv
import functools
import sys
import time
from collections import Counter

LAYERS = {
    "orbit": ("retract", "phi_pair", "split_eigen", "tangent_frame", "tangent_project",
              "potential", "membership_residual"),
    "flow": ("integrate", "z_field", "ad_inverse", "metric_m", "trajectory_csv"),
    "thimble": ("trace_thimble", "lagrangian_check", "kaehler_gradients", "thimble_json",
                "thimble_csv"),
    "graphs": ("graph_membership", "hessian_restricted", "graph_point"),
    "cycles": ("flag_sample", "grad_height", "ham_height"),
    "verification": ("lie_core_suite", "orbit_suite", "flow_suite", "cycles_suite",
                     "graphs_suite", "thimble_suite"),
    "cli": ("dump_report", "main"),
}
SELF_TIME_ONLY = {"verification"}


def _count_steps(counts, traj):
    counts["flow.integrate.steps"] += len(traj.times) - 1


def _count_thimble(counts, samples):
    counts["thimble.flows"] += len({s.flow_index for s in samples})
    counts["thimble.samples"] += len(samples)


COUNTERS = {"flow.integrate": _count_steps, "thimble.trace_thimble": _count_thimble}
COUNT_NAMES = ("flow.integrate.steps", "thimble.flows", "thimble.samples")


def metric_names():
    """Per-layer metric names with their units, in report order."""
    out = []
    for module, functions in LAYERS.items():
        for fn in functions:
            if module not in SELF_TIME_ONLY:
                out.append((f"{module}.{fn}.calls", "count"))
            out.append((f"{module}.{fn}.self_s", "s"))
    out.extend((name, "count") for name in COUNT_NAMES)
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []        # [span index, time covered by children]
        self.unit = -1
        self.counts = {}       # unit -> Counter

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.unit, end - start - frame[1])
                if self.stack:
                    self.stack[-1][1] += end - start
            if counter is not None:
                counter(self.counts.setdefault(self.unit, Counter()), result)
            return result

        return traced

    def install(self):
        """Rebind every traced function; returns an undo list for ``uninstall``."""
        import orbitflow  # noqa: F401  (the package must be loaded to patch it)

        table = {}
        for module, functions in LAYERS.items():
            mod = sys.modules[f"orbitflow.{module}"]
            for fn in functions:
                original = getattr(mod, fn)
                table[id(original)] = (original, self._wrap(f"{module}.{fn}", original))
        undo = []
        for modname, mod in list(sys.modules.items()):
            if modname != "orbitflow" and not modname.startswith("orbitflow."):
                continue
            for attr, value in list(vars(mod).items()):
                swapped = _swap(value, table)
                if swapped is not value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, swapped)
        return undo

    @staticmethod
    def uninstall(undo):
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)

    def per_unit(self, unit):
        """Per-layer metrics of one traced unit."""
        calls, self_s = Counter(), Counter()
        for name, _, _, _, span_unit, own in self.spans:
            if span_unit == unit:
                calls[name] += 1
                self_s[name] += own
        counts = self.counts.get(unit, Counter())
        out = {}
        for metric, _ in metric_names():
            if metric in COUNT_NAMES:
                out[metric] = counts[metric]
            else:
                name, kind = metric.rsplit(".", 1)
                out[metric] = calls[name] if kind == "calls" else float(self_s[name])
        return out

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "unit", "self_s"])
            writer.writerows(self.spans)


def _swap(value, table):
    """``value`` with traced functions replaced, or ``value`` itself if none."""
    entry = table.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    if isinstance(value, tuple):
        items = tuple(_swap(v, table) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value
