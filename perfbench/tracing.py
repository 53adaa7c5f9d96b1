"""Span tracing around the public functions of every wattcount module.

The package binds names with ``from .x import y``, so one function object is
reachable under several module attributes (``keyed_uniforms`` lives in
``wattcount._rng`` and is also bound in ``wattcount.agents``,
``wattcount.simulate`` and ``wattcount.counters``). ``Tracer.install``
replaces the function at every binding it finds in the loaded ``wattcount``
modules, and wraps ``Mlp`` / ``Adam`` methods on the class, so each call is
seen once whichever name it was looked up under. ``Tracer.restore`` puts
the originals back.

Each call records a span: name, start, end, parent span and run id. Spans
are kept in flat in-memory arrays and written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (metric module, python module, attribute path, kind)
# kind "full" reports calls, self_s, p50_ms and tail_ms; "brief" only
# calls and self_s, for functions called a handful of times per pass.
TRACED = (
    ("traces", "wattcount.traces", "load_trace", "full"),
    ("traces", "wattcount.traces", "save_trace", "brief"),
    ("traces", "wattcount.traces", "load_detection_log", "brief"),
    ("traces", "wattcount.traces", "save_detection_log", "brief"),
    ("traces", "wattcount.traces", "trace_from_detections", "brief"),
    ("traces", "wattcount.traces", "synth_trace", "brief"),
    ("rng", "wattcount._rng", "keyed_uniforms", "full"),
    ("rng", "wattcount._rng", "derive_seed", "full"),
    ("counters", "wattcount.counters", "observe_counts", "full"),
    ("counters", "wattcount.counters", "apply_counter", "brief"),
    ("counters", "wattcount.counters", "window_mean_pairs", "brief"),
    ("counters", "wattcount.counters", "profile_errors", "brief"),
    ("ci", "wattcount.ci", "approx_ci", "full"),
    ("ci", "wattcount.ci", "sample_stats", "full"),
    ("fronts", "wattcount.fronts", "build_front", "full"),
    ("fronts", "wattcount.fronts", "action_outcome", "full"),
    ("oracle", "wattcount.oracle", "plan_horizon", "full"),
    ("mlp", "wattcount.mlp", "Mlp.forward", "full"),
    ("mlp", "wattcount.mlp", "Mlp.backward", "full"),
    ("mlp", "wattcount.mlp", "Adam.step", "full"),
    ("agents", "wattcount.agents", "a2c_train", "brief"),
    ("agents", "wattcount.agents", "prepare_training_data", "brief"),
    ("agents", "wattcount.agents", "resolve_action", "full"),
    ("agents", "wattcount.agents", "act", "full"),
    ("simulate", "wattcount.simulate", "run_horizon", "full"),
    ("simulate", "wattcount.simulate", "oracle_fronts", "full"),
    ("simulate", "wattcount.simulate", "select_uni_counter", "brief"),
    ("simulate", "wattcount.simulate", "score", "brief"),
)

PLANNERS = ("oracle", "rl", "uni", "golden")
STAGES = (
    "synth", "profile", "fronts", "plan", "train",
    "simulate_oracle", "simulate_uni", "simulate_golden", "simulate_rl", "report",
)

# counts that must repeat exactly between two traced passes of one seed
EXACT_COUNTS = (
    "rng.keyed_uniforms.calls",
    "fronts.action_outcome.calls",
    "ci.sample_stats.calls",
    "counters.observe_counts.calls",
    "mlp.Mlp.forward.calls",
    "agents.resolve_action.clamped",
)

# percentile levels tried for the tail, highest first
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)


def span_names():
    """Every span name the tracer can emit, with its kind."""
    out = []
    for layer, _, attr, kind in TRACED:
        if attr == "run_horizon":
            out.extend((f"{layer}.{attr}.{p}", kind) for p in PLANNERS)
        else:
            out.append((f"{layer}.{attr}", kind))
    return out


class Tracer:
    """Records nested spans for wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list = []
        self.run_id = 0
        self.counts: dict = {}  # extra per-run counts, keyed (run_id, name)
        self._patches: list = []

    # -- span recording -------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        i = len(self._start)
        self._name.append(self._name_id(name))
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def add(self, name: str, value: float) -> None:
        key = (self.run_id, name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- installing wrappers --------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_hooks(self):
        # each hook sees (positional args, result) of a completed call
        frames = "traces.io_frames"
        return {
            "keyed_uniforms": lambda a, r: self.add("rng.keyed_uniforms.draws", len(r)),
            "observe_counts": lambda a, r: self.add("counters.observe_counts.frames", len(r)),
            "build_front": lambda a, r: self.add("fronts.build_front.kept", len(r.points)),
            "resolve_action": lambda a, r: self.add("agents.resolve_action.clamped", int(r[1])),
            "load_trace": lambda a, r: self.add(frames, r[0].n_frames),
            "save_trace": lambda a, r: self.add(frames, a[0].n_frames),
            "load_detection_log": lambda a, r: self.add(frames, len(r.timestamps)),
            "save_detection_log": lambda a, r: self.add(frames, len(a[0].timestamps)),
            "trace_from_detections": lambda a, r: self.add(frames, len(a[0].timestamps)),
        }

    def install(self, callers=()) -> None:
        """Wrap every traced function at each module binding that holds it.

        `callers` are further modules, outside the package, whose own
        bindings of package functions should be wrapped too.
        """
        hooks = self._after_hooks()
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "wattcount" and m]
        modules.extend(callers)
        for layer, modname, attr, _ in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, f"{layer}.{attr}"))
                continue
            original = getattr(owner, attr)
            if attr == "run_horizon":
                name = lambda args, kwargs: f"simulate.run_horizon.{(args[0] if args else kwargs['planner']).name}"
            else:
                name = f"{layer}.{attr}"
            wrapper = self._wrap(original, name, hooks.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------

    def arrays(self):
        # copies, so the arrays can keep growing while these are alive
        return (
            np.array(self._name, dtype=np.int32),
            np.array(self._parent, dtype=np.int32),
            np.array(self._run, dtype=np.int32),
            np.array(self._start, dtype=np.float64),
            np.array(self._end, dtype=np.float64),
        )

    def summarize(self, run_id: int, wall_s: float) -> dict:
        """Per-name calls, self time and latency percentiles for one run."""
        name, parent, run, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        sel = run == run_id
        roots = sel & ~has_parent
        out = {
            "spans": int(sel.sum()),
            "unattributed_s": float(wall_s - dur[roots].sum()),
            "by_name": {},
        }
        for nid, label in enumerate(self.names):
            mask = sel & (name == nid)
            n = int(mask.sum())
            if n == 0:
                continue
            d_ms = dur[mask] * 1e3
            tail_pct = next((q for q in TAIL_LEVELS if n * (1.0 - q / 100.0) >= 10), None)
            out["by_name"][label] = {
                "calls": n,
                "self_s": float(self_t[mask].sum()),
                "total_s": float(dur[mask].sum()),
                "p50_ms": float(np.percentile(d_ms, 50)),
                "tail_pct": tail_pct,
                "tail_ms": float(np.percentile(d_ms, tail_pct if tail_pct else 50.0)),
            }
        # front points kept over candidates evaluated inside build_front
        if "fronts.action_outcome" in self._name_ids and "fronts.build_front" in self._name_ids:
            bf = self._name_ids["fronts.build_front"]
            ao = sel & (name == self._name_ids["fronts.action_outcome"]) & has_parent
            out["build_front_candidates"] = int((name[parent[ao]] == bf).sum())
        return out

    def save(self, path) -> None:
        name, parent, run, start, end = self.arrays()
        np.savez(path, names=np.asarray(self.names), name=name, parent=parent, run=run,
                 start=start, end=end)
