"""Spans and counters around the program's public functions.

The wrappers are installed from the benchmark's own files by replacing
module and class attributes; the program itself is not edited.  A name is
patched everywhere it is looked up (a module that binds a function with
``from x import f`` gets its own patch).  A name that no longer exists is
skipped and simply reports zero calls.

Spans (name, start, end, parent, run id) are kept in flat in-memory arrays
and written once, when the traced pass ends.
"""

from __future__ import annotations

import collections
import time
from array import array

import numpy as np


# Every function the traced run times, as <module>.<attribute path> in the
# handguard package; the span carries this name.
SPANS = (
    "cli.main", "cli._per_participant_rates", "sim.run", "sim.write_trace_csv",
    "geometry.RigidTransform.from_orthonormalized", "geometry.compose",
    "geometry.hand_in_robot_base", "geometry.hand_center",
    "marker_pose.estimate_pose", "marker_pose.project",
    "gimbal.correction_angles", "gimbal.servo_step", "gimbal.marker_deltas",
    "gimbal.marker_rotation", "safety.step", "haptics.render_pattern",
    "analysis.read_trials_csv", "analysis.one_way_anova", "analysis.rm_anova",
    "analysis.paired_t_bonferroni", "analysis.regularized_incomplete_beta",
)


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self.counts = collections.Counter()
        self._stack = []
        self._undo = []

    def _span(self, span: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(span)
        name_ids, starts, ends = self.name, self.start, self.end
        parents, stack, counts, clock = self.parent, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[span + ".failures"] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, home, attr: str, make) -> None:
        raw = vars(home).get(attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        for owner in [home, *self.modules]:
            if vars(owner).get(attr) is raw:
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def span(self, name: str, home, attr: str, on_result=None) -> None:
        """Time every call of ``home.attr``, in ``home`` and in each module
        that imported it by name."""
        self._install(home, attr, lambda fn: self._span(name, fn, on_result))

    def count(self, key: str, home, attr: str) -> None:
        self._install(home, attr, lambda fn: self._counter(key, fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "run": np.array(self.run, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez(path, span_names=np.array(self.names), **self.arrays())

    def stats(self) -> dict:
        """Per span name: calls, self time (duration minus direct children's
        durations, which nest inside it), and p50/p99 of the duration."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, span in enumerate(self.names):
            sel = a["name"] == nid
            d = dur[sel]
            out[span] = {
                "calls": int(sel.sum()),
                "self_s": float(own[sel].sum()),
                "p50_us": float(np.percentile(d, 50) * 1e6) if d.size else 0.0,
                "p99_us": float(np.percentile(d, 99) * 1e6) if d.size else 0.0,
            }
        return out
