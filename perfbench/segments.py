"""Unit timing that is robust to a host whose speed comes and goes.

On a shared host the speed of the processor drops for seconds at a time
while other tenants run, so the wall time of a whole multi-second unit
mostly measures how much of it fell into such a slow spell.  A short stretch
of the same unit, run several times, is almost never slow in every run.

``SegmentClock`` therefore wraps every plain function defined in an
``orbitflow`` module (private ones too) and rebinds it in every
``orbitflow`` namespace that holds it; each call appends the clock at its
entry and exit.  These marks cut a unit into short segments that follow the
program's own call structure, so for a fixed seed every unit is cut into the
same sequence.  After several units, each segment's shortest time is kept;
the unit time reported is the sum of those minima: the wall time of one
unit with every stretch of it run at the host's undisturbed speed.  The
marks cost one clock read each and are part of every timed unit.

If the units of a run are not cut alike (a different number of marks), the
run falls back to the shortest whole unit.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

from tracer import _swap


def _orbitflow_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "orbitflow" or name.startswith("orbitflow.")]


class SegmentClock:
    def __init__(self):
        self.marks = array("d")
        self.best = None          # per-segment minimum over the units so far
        self.whole = []           # wall time of each unit
        self.aligned = True       # every unit was cut into the same segments
        self._undo = None

    def _wrap(self, fn):
        append = self.marks.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                append(clock())

        return marked

    def install(self):
        """Wrap and rebind every orbitflow function; idempotent."""
        if self._undo is not None:
            return
        table = {}
        modules = _orbitflow_modules()
        for mod in modules:
            for value in vars(mod).values():
                if (inspect.isfunction(value) and value.__module__.startswith("orbitflow")
                        and id(value) not in table):
                    table[id(value)] = (value, self._wrap(value))
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                swapped = _swap(value, table)
                if swapped is not value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, swapped)
        self._undo = undo

    def uninstall(self):
        for mod, attr, value in reversed(self._undo or []):
            setattr(mod, attr, value)
        self._undo = None

    def time_unit(self, fn, *args):
        """Run ``fn(*args)`` as one unit and return its result."""
        del self.marks[:]
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.whole.append(end - start)
            cuts = np.concatenate(([start], np.frombuffer(self.marks, dtype=float), [end]))
            segments = np.diff(cuts)
            if self.best is None:
                self.best = segments
            elif len(segments) == len(self.best):
                np.minimum(self.best, segments, out=self.best)
            else:
                self.aligned = False
            del self.marks[:]

    def unit_seconds(self):
        """Sum of the per-segment minima, or the shortest unit if misaligned."""
        if self.best is None:
            return None
        return float(self.best.sum()) if self.aligned else min(self.whole)

    def segment_count(self):
        return 0 if self.best is None else len(self.best)
