"""Spans around the calls into each engine layer, recorded from outside it.

For a traced operation the benchmark opens a root span around the public
call and replaces the module-level names that call reaches with timing
wrappers (``LAYER_WRAPS``).  A run_validation root is then cut into its
four contiguous stages at the wrapped calls' boundaries.  Spans stay in
memory and are written out as JSON when the run ends.  A span's self
time is its duration minus the part its child spans cover, so the self
times under one root sum to the root's wall.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import ray

# (module, attribute, span name or None for counters only, hook).  These
# are the names run_validation and write_validated_output look up at call
# time.  A name that no longer exists fails the traced run instead of
# silently dropping a layer.
LAYER_WRAPS = [
    ("pynomaly_ray.pipelines.validation", "fit_drift_scores", "loop_core.fit", "fit"),
    ("pynomaly_ray.pipelines.validation", "merge_partials_df", "stages.stats_merge", None),
    ("pynomaly_ray.pipelines.validation", "hash_aggregate", "functions.exchange", None),
    ("pynomaly_ray.pipelines.validation", "duplicates_from_docparts", "stages.uniqueness", None),
    ("pynomaly_ray.pipelines.validation", "write_manifest_snapshot", "state.manifest", None),
    ("pynomaly_ray.pipelines.validation", "completed_partitions", "state.manifest", None),
    ("pynomaly_ray.pipelines.validation", "read_full_manifest", "state.manifest", None),
    ("pynomaly_ray.state.manifest", "committed_run_ids", "state.manifest", None),
    ("pynomaly_ray.functions.exchange", "hash_aggregate", "functions.exchange", None),
    ("pynomaly_ray.functions.exchange", "hash_anti_join", "functions.exchange", None),
    ("pynomaly_ray.functions.exchange", "auto_num_partitions", None, "fanout"),
    ("pynomaly_ray.pipelines.validation", "_post_scan_local", "pipelines.stage_b", "tagged"),
    ("pynomaly_ray.pipelines.validation", "_post_scan_distributed", "pipelines.stage_b", "tagged"),
    ("pynomaly_ray.pipelines.validation", "_filter_completed", None, "resume"),
]


class _Wrapped:
    """Timing stand-in for a module-level function.  It pickles as the
    original, so a wrapped function handed to a Ray task (as
    ``merge_partials_df`` is on the distributed path) runs unwrapped in
    the worker."""

    def __init__(self, tracer, fn, name, before=None, after=None):
        self.tracer, self.fn, self.name = tracer, fn, name
        self.before, self.after = before, after

    def __call__(self, *args, **kwargs):
        if self.before:
            args = self.before(*args)
        if self.name is None:
            out = self.fn(*args, **kwargs)
        else:
            with self.tracer.span(self.name):
                out = self.fn(*args, **kwargs)
        if self.after:
            out = self.after(args, out)
        return out

    def __reduce__(self):
        return (getattr, (sys.modules[self.fn.__module__], self.fn.__name__))


@ray.remote(num_cpus=0)
class RowCounter:
    def __init__(self):
        self.n = defaultdict(int)

    def add(self, key, n):
        self.n[key] += n

    def take(self):
        out, self.n = dict(self.n), defaultdict(int)
        return out


def _row_tap(counter, key):
    def tap(t):
        ray.get(counter.add.remote(key, t.num_rows))
        return t

    return tap


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []
        self._rows = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    # -- counters taken at the layer boundaries ----------------------
    def _before_fit(self, stats_df, *rest):
        self.counts["loop_core.vectors"] += len(stats_df)
        return (stats_df, *rest)

    def _after_fanout(self, args, p):
        self.counts["functions.exchange_mb"] += args[0] / 1e6
        self.counts["functions.exchange_partitions"] += p
        return p

    def _before_tagged(self, tagged, *rest):
        self.counts["stages.tagged_rows"] += tagged.count()
        self.counts["stages.tagged_mb"] += (tagged.size_bytes() or 0) / 1e6
        self.counts["pipelines.blocks"] += tagged.num_blocks()
        return (tagged, *rest)

    def _before_resume(self, ds, done):
        # the resume filter runs after the scan decoded the rows; count
        # what enters it and what survives, for resumed runs only
        if done:
            ds = ds.map_batches(_row_tap(self._rows, "decoded"), batch_format="pyarrow")
        return (ds, done)

    def _after_resume(self, args, out):
        if args[1]:
            out = out.map_batches(_row_tap(self._rows, "kept"), batch_format="pyarrow")
        return out

    def start(self):
        """Start the row-counting actor (before any timed round)."""
        self._rows = RowCounter.remote()
        ray.get(self._rows.take.remote())

    def take_resume_rows(self) -> dict:
        return ray.get(self._rows.take.remote())

    # -- installing and removing the wrappers ------------------------
    def install(self):
        hooks = {  # hook -> (before the call, after it)
            None: (None, None),
            "fit": (self._before_fit, None),
            "fanout": (None, self._after_fanout),
            "tagged": (self._before_tagged, None),
            "resume": (self._before_resume, self._after_resume),
        }
        for mod_name, attr, name, hook in LAYER_WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, _Wrapped(self, fn, name, *hooks[hook]))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def root(self, name: str, round_no: int):
        """Root span of one operation.  A run_validation root is split
        into its four stages at the boundaries of the wrapped calls:
        Stage A up to the Stage B reduction, Stage B, Stage C up to the
        end of the LoOP fit, Stage D (report and commit) to the end."""
        with self.span(name, round=round_no) as rec:
            yield rec
        if name == "pipelines.run_validation":
            self._add_stages(rec)

    def _add_stages(self, root: dict):
        kids = [s for s in self.spans if s["parent"] == root["id"]]
        b = next(s for s in kids if s["name"] == "pipelines.stage_b")
        fit = next((s for s in kids if s["name"] == "loop_core.fit"), None)
        c_end = fit["end"] if fit else root["end"]
        bounds = [("stage_a", root["start"], b["start"]), ("stage_c", b["end"], c_end)]
        if fit:
            bounds.append(("stage_d", c_end, root["end"]))
        stages = []
        for stage, lo, hi in bounds:
            rec = {
                "id": len(self.spans),
                "name": f"pipelines.{stage}",
                "parent": root["id"],
                "start": lo,
                "end": hi,
            }
            self.spans.append(rec)
            stages.append(rec)
        for s in kids:  # the rest of the root's children go to their stage
            if s is b:
                continue
            mid = (s["start"] + s["end"]) / 2
            for st in stages:
                if st["start"] <= mid <= st["end"]:
                    s["parent"] = st["id"]
                    break

    # -- reading the spans -------------------------------------------
    def _round_spans(self, round_no: int) -> list[dict]:
        by_id = {s["id"]: s for s in self.spans}

        def root_of(s):
            while s["parent"] is not None:
                s = by_id[s["parent"]]
            return s

        return [s for s in self.spans if root_of(s).get("round") == round_no]

    def self_times(self, round_no: int) -> dict[str, float]:
        """Self time per span name, summed over the roots of one round."""
        spans = self._round_spans(round_no)
        covered: defaultdict = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: defaultdict = defaultdict(float)
        for s in spans:
            out[s["name"]] += (s["end"] - s["start"]) - covered[s["id"]]
        return dict(out)

    def outer_total(self, round_no: int, name: str) -> float:
        """Summed duration of ``name`` spans in a round, counting a span
        nested in another of the same name once, through its ancestor."""
        by_id = {s["id"]: s for s in self.spans}
        total = 0.0
        for s in self._round_spans(round_no):
            if s["name"] != name:
                continue
            p, nested = s["parent"], False
            while p is not None:
                nested |= by_id[p]["name"] == name
                p = by_id[p]["parent"]
            if not nested:
                total += s["end"] - s["start"]
        return total

    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


def print_self_time_table(workload: str, self_times: dict, untraced_wall: float):
    total = sum(self_times.values())
    print(f"layer self times, workload {workload}, median traced round:")
    print(f"  {'span':<28}{'self_s':>10}{'share':>8}")
    for name, v in sorted(self_times.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<28}{v:>10.4f}{v / total if total else 0.0:>8.1%}")
    ratio = total / untraced_wall if untraced_wall else float("nan")
    print(
        f"  sum of self times {total:.4f} s; untraced wall (median) "
        f"{untraced_wall:.4f} s; ratio {ratio:.3f}"
    )
