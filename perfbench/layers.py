"""Per-layer timing for the traced run, from the benchmark's own side.

:class:`LayerTimer` wraps public methods of single instances (an index's
``search``/``build``/``upsert``/``delete``, SceneRec's representation
methods) with ``perf_counter`` timers.  The wrappers are installed only in
the traced run; the untraced run calls the program unwrapped.  A disabled
timer passes calls straight through, so the traced run can alternate traced
and plain rounds to measure its own overhead.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Registry series the traced run reads (all labelled ``backend=<index name>``).
SEARCH_QUERIES = "repro_index_queries_total"
PROBES = "repro_index_probes_total"
SCANNED = "repro_index_candidates_scanned_total"
RECLUSTER_SECONDS = "repro_index_recluster_seconds"
TRAINING_PHASE_SECONDS = "repro_training_phase_seconds"


class LayerTimer:
    """Accumulates wall time per wrapped method between :meth:`take` calls."""

    def __init__(self) -> None:
        self.enabled = False
        self._totals: "defaultdict[str, float]" = defaultdict(float)

    def wrap(self, owner: object, method: str, name: str) -> None:
        """Replace ``owner.method`` (on that instance only) with a timed call."""
        original = getattr(owner, method)
        totals = self._totals

        def timed(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                totals[name] += perf_counter() - started

        setattr(owner, method, timed)

    def take(self) -> "dict[str, float]":
        """Seconds per wrapped name since the previous call, then reset."""
        taken = dict(self._totals)
        self._totals.clear()
        return taken


def trace_stages(tracer) -> "tuple[dict[str, float], float] | None":
    """``({stage: seconds}, request seconds)`` of the tracer's newest trace."""
    trace = tracer.last_trace()
    if trace is None:
        return None
    return trace.stage_durations(), trace.duration


def index_counts(registry, backend: str) -> "dict[str, float]":
    """Cumulative index work counters of ``backend`` from the obs registry."""
    labels = {"backend": backend}
    return {
        "queries": registry.counter(SEARCH_QUERIES, labels=labels).value,
        "probes": registry.counter(PROBES, labels=labels).value,
        "scanned": registry.counter(SCANNED, labels=labels).value,
        "reclusters": registry.histogram(RECLUSTER_SECONDS, labels=labels).count,
    }


def training_phase_totals(registry, phases) -> "dict[str, float]":
    """Cumulative seconds per trainer phase from the obs registry."""
    return {
        phase: registry.histogram(TRAINING_PHASE_SECONDS, labels={"phase": phase}).sum
        for phase in phases
    }
