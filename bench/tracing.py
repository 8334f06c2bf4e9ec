"""Spans recorded from outside the simulator.

`auramimo.pipeline` calls its stages through module-level names that it
looks up at call time, so replacing those names with timing wrappers
records a span around every stage call without touching the program.
The harness opens the root spans (run, write, reread) itself. Spans stay
in memory and are written out when the sample ends.

All wrapped names are called from the pipeline's own thread, so one
span stack per tracer is enough.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# auramimo.pipeline attribute -> span name ("<layer>.<stage>").
PIPELINE_HOOKS = {
    "draw_lsp": "lsp.draw",
    "run_segment": "pipeline.segment",
    "share_table_for_segment": "grouping.share_table",
    "assemble_clusters": "clustergen.assemble",
    "attach_focal_points": "spherical.attach",
    "share_clusters": "sharing.share",
    "recalculate_views": "sharing.recalc",
    "synthesize": "coefficients.synthesize",
    "planar_vs_spherical_error": "coefficients.planar_error",
    "correlation_metrics": "metrics.correlation",
    "write_tensor_binary": "tensorio.write",
}


class Tracer:
    """Spans of one sample: id, name, parent id, start and end (seconds
    since the tracer was made); `run_id` names the sample."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, pipeline_module) -> None:
        """Replace every hooked name in `pipeline_module` by a wrapper."""
        for attr, name in PIPELINE_HOOKS.items():
            setattr(pipeline_module, attr, self.wrap(getattr(pipeline_module, attr), name))

    def as_dict(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time (total minus
    the time covered by direct children), both summed over calls."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = s["end"] - s["start"]
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[s["id"]]
    return out
