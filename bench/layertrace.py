"""Outside-in layer trace: spans around the public entry points of each layer.

``Tracer.patched()`` replaces each entry point in ``ENTRY_POINTS`` with a
wrapper that records a span (layer, function, start, end, self time, parent
span and replication) plus the counts the layer's result exposes, and puts
the originals back on exit.  A name is rebound in every ``epirare`` module
that holds it, because ``from .x import f`` copies the binding: the harness
calls splitting and estimators through its own names, and splitting calls
``quantile_levels`` through its own.  Splitting and estimators reach the jump
engines as ``lockstep.<fn>`` at call time, so patching ``epirare.lockstep``
catches their engine calls.

Self time is a span's duration minus the time its child spans cover.  Calls
here run on one thread and children do not overlap, so that is the sum of
the children's durations.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Iterator

from epirare import core, estimators, events, final_size, harness, lockstep, splitting
from epirare.core import SeedSpec

# (layer, owner, attribute): the public entry points on the replication path.
ENTRY_POINTS = (
    ("core", core.SeedSpec, "generator"),
    ("lockstep", lockstep, "sir_ensemble"),
    ("lockstep", lockstep, "hiv_ensemble"),
    ("splitting", splitting, "ibps_estimate"),
    ("splitting", splitting, "temporal_split_estimate"),
    ("estimators", estimators, "ce_estimate"),
    ("estimators", estimators, "cmc"),
    ("events", events, "quantile_levels"),
    ("final_size", final_size, "exact_final_size"),
    ("harness", harness, "run"),
)


@dataclass
class Span:
    layer: str
    function: str
    start: float
    end: float
    self_s: float
    parent: int | None
    replication: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _replication(args: tuple, kwargs: dict) -> int | None:
    for value in (*args, *kwargs.values()):
        if isinstance(value, SeedSpec):
            return value.replication
    return None


def _counts(layer: str, kwargs: dict, result) -> dict:
    """Work done, read from the call's arguments and result."""
    if layer == "lockstep":
        init = kwargs.get("init")
        return {
            "paths": len(result.t),
            "path_events": int(result.n_inf.sum() + result.n_rem.sum()),
            "refilled_slots": len(init[0]) if init is not None else 0,
        }
    if layer == "splitting":
        estimate = result[0] if isinstance(result, tuple) else result
        return {"stages": len(estimate.per_level)}
    return {}


class Tracer:
    """Holds the spans of one traced run in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[tuple[int, float]] = []  # (span index, child seconds)

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            rep = _replication(args, kwargs)
            if rep is None and parent is not None:
                rep = self.spans[parent].replication
            index = len(self.spans)
            self.spans.append(Span(layer, fn.__qualname__, 0.0, 0.0, 0.0, parent, rep))
            self._open.append((index, 0.0))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_s = self._open.pop()
                if self._open:
                    above, above_child = self._open[-1]
                    self._open[-1] = (above, above_child + end - start)
                span = self.spans[index]
                span.start, span.end, span.self_s = start, end, end - start - child_s
            span.counts = _counts(layer, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Route every entry point through a recording wrapper."""
        restore: list[tuple[object, str, object]] = []
        modules = [m for name, m in sys.modules.items()
                   if name == "epirare" or name.startswith("epirare.")]
        try:
            for layer, owner, attr in ENTRY_POINTS:
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, name, original))
                            setattr(module, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy seconds, self seconds and summed counts."""
        out: dict[str, dict[str, float]] = {
            layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for layer, _, _ in ENTRY_POINTS
        }
        for span in self.spans:
            acc = out[span.layer]
            acc["calls"] += 1
            acc["busy_s"] += span.duration
            acc["self_s"] += span.self_s
            for key, value in span.counts.items():
                acc[key] = acc.get(key, 0) + value
        return out

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(totals: dict[str, dict[str, float]], replications: int) -> dict[str, float]:
    """Per-layer metrics of a traced ``harness.run``, per replication.

    A ratio whose base is zero, such as time per refilled slot on a workload
    that never splits, reads 0.
    """
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    per_rep = 1.0 / replications
    run = totals["harness"]
    sp, ls, fs = totals["splitting"], totals["lockstep"], totals["final_size"]
    seeds, ev, est = totals["core"], totals["events"], totals["estimators"]
    refilled = ls.get("refilled_slots", 0)
    path_events = ls.get("path_events", 0)
    return {
        "splitting.self_ms": sp["self_s"] * 1e3 * per_rep,
        "splitting.us_per_refilled_slot": ratio(sp["self_s"] * 1e6, refilled),
        "splitting.refilled_slots": refilled * per_rep,
        "splitting.stages": sp.get("stages", 0) * per_rep,
        "splitting.share": ratio(sp["self_s"], run["busy_s"]),
        "lockstep.calls": ls["calls"] * per_rep,
        "lockstep.paths": ls.get("paths", 0) * per_rep,
        "lockstep.path_events": path_events * per_rep,
        "lockstep.busy_ms": ls["busy_s"] * 1e3 * per_rep,
        "lockstep.ns_per_path_event": ratio(ls["busy_s"] * 1e9, path_events),
        "lockstep.share": ratio(ls["busy_s"], run["busy_s"]),
        "final_size.exact_s": ratio(fs["busy_s"], fs["calls"]),
        "estimators.self_ms": est["self_s"] * 1e3 * per_rep,
        "core.seed_streams": seeds["calls"] * per_rep,
        "core.seed_us": ratio(seeds["busy_s"] * 1e6, seeds["calls"]),
        "events.busy_ms": ev["busy_s"] * 1e3 * per_rep,
        "harness.overhead_ms": run["self_s"] * 1e3 * per_rep,
    }
