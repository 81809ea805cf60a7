"""In-memory span tracer for the traced benchmark run.

Spans are recorded around the module-level names through which one layer
of robustcbf calls the next, by replacing those names for the duration of
a traced run.  Nothing under src/ is edited.  Each span is
[name, start, end, parent index, step id]; the step id counts the
filter_step entries seen so far, so all spans of one control step (or one
replay solve) share it.  The calibrate.HostSpeed blocks that ran while the
spans were recorded are listed in `hosts`; the summaries take their samples
out of every span they fall in and bring each span to the reference speed
with the host speed interpolated at its middle.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

from calibrate import REFERENCE_S, sampling_before

STEP_SPAN = "safety_filter.filter_step"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.observed: dict = defaultdict(list)
        self.not_measured: list = []
        self.hosts: list = []
        self.step = -1
        self._arrays = (0, None)
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name, fn, observe=None):
        """Return fn wrapped in a span; observe(args, kwargs, result) runs
        after the span has closed and its return value is kept per name."""
        spans = self.spans
        stack = self._stack
        observed = self.observed[name]
        clock = time.perf_counter
        starts_step = name == STEP_SPAN

        def traced(*args, **kwargs):
            if starts_step:
                self.step += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observed.append(observe(args, kwargs, result))
            return result

        return traced

    def patch(self, module_name: str, attr: str, name: str, observe=None) -> None:
        """Replace module.attr with a traced wrapper; a missing target is
        recorded as not measured instead of raising."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        target = getattr(module, attr, None)
        if target is None or not callable(target):
            self.not_measured.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, self.wrap(name, target, observe))
        self._patches.append((module, attr, target))

    def restore(self) -> None:
        while self._patches:
            module, attr, target = self._patches.pop()
            setattr(module, attr, target)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- summaries -------------------------------------------------------

    def arrays(self):
        """(names, start, duration, parent, step, speed) as numpy arrays:
        start is on a clock that stops while the host speed is sampled,
        speed is the host speed at the span's middle, and duration is at
        the reference speed."""
        count, cached = self._arrays
        if cached is not None and count == len(self.spans):
            return cached
        names = np.array([s[0] for s in self.spans], dtype=object)
        wall_start = np.array([s[1] for s in self.spans], dtype=float)
        wall_end = np.array([s[2] for s in self.spans], dtype=float)
        parent = np.array([s[3] for s in self.spans], dtype=int)
        step = np.array([s[4] for s in self.spans], dtype=int)
        intervals = [iv for host in self.hosts for iv in host.intervals]
        start = wall_start - sampling_before(wall_start, intervals)
        end = wall_end - sampling_before(wall_end, intervals)
        if intervals:
            middles = np.asarray(intervals).mean(axis=1)
            speeds = REFERENCE_S / np.array([x for host in self.hosts for x in host.samples])
            speed = np.interp(0.5 * (wall_start + wall_end), middles, speeds)
        else:
            speed = np.ones(len(names))
        self._arrays = (len(self.spans), (names, start, (end - start) * speed, parent, step, speed))
        return self._arrays[1]

    def durations(self, name: str) -> np.ndarray:
        names, _, duration, _, _, _ = self.arrays()
        return duration[names == name]

    def self_times(self, name: str) -> np.ndarray:
        """Duration of each `name` span minus the time its direct children
        cover (children never overlap: the program is single-threaded)."""
        names, _, duration, parent, _, _ = self.arrays()
        child_sum = np.zeros(len(names))
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], duration[has_parent])
        mask = names == name
        return duration[mask] - child_sum[mask]

    def step_gaps(self) -> np.ndarray:
        """Time from one filter_step entry to the next under the same
        parent span (so gaps never straddle two closed-loop runs), at the
        host speed of the first of the two steps."""
        names, start, _, parent, _, speed = self.arrays()
        mask = names == STEP_SPAN
        starts, parents, speeds = start[mask], parent[mask], speed[mask]
        same = (parents[1:] == parents[:-1]) & (parents[1:] >= 0)
        return (np.diff(starts) * speeds[:-1])[same]

    def dump(self, path) -> None:
        """Write every span as CSV (gzip when the path ends in .gz)."""
        import gzip

        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,step\n")
            for name, start, end, parent, step in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{step}\n")
