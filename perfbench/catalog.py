"""The metrics the benchmark reports: names, units, direction, bounds.

``BENCHMARK.json`` at the repository root declares the same lists; a test
keeps the two in step.  Every workload reports every metric: an untraced run
the end-to-end list, a traced run the per-layer list.  A per-layer metric
reads 0 on a workload that never calls that layer.
"""

from __future__ import annotations

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
#: Units ``ref-ms`` and ``users/ref-s`` are milliseconds and users per second
#: rescaled to the reference host speed (see ``workloads.rescale``).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("single_p50_ms", "ref-ms", "lower", 0.25),
    ("single_tail_ms", "ref-ms", "lower", 0.25),
    ("batch_p50_ms", "ref-ms", "lower", 0.25),
    ("batch_tail_ms", "ref-ms", "lower", 0.25),
    ("users_per_s", "users/ref-s", "higher", 0.25),
    ("write_p50_ms", "ref-ms", "lower", 0.25),
    ("recall_at_10", "fraction", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

#: Serving stages recorded as obs spans by ``RecommendationService``.
SERVING_STAGES = ("score", "retrieve", "filter", "rank", "explain")
SHAPES = ("single", "batch")

#: (name, unit, better)
PER_LAYER = (
    ("data.generate_s", "s", "lower"),
    ("cache.warm_s", "s", "lower"),
    ("cache.refresh_items_ms", "ms", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.search_ms.single", "ms", "lower"),
    ("index.search_ms.batch", "ms", "lower"),
    ("index.probes_per_query", "count", "lower"),
    ("index.scanned_per_query", "count", "lower"),
    ("index.upsert_ms", "ms", "lower"),
    ("index.delete_ms", "ms", "lower"),
    ("index.maintain_s", "s", "lower"),
    ("index.reclusters", "count", "lower"),
    *(
        (f"serving.{stage}_ms.{shape}", "ms", "lower")
        for stage in SERVING_STAGES
        for shape in SHAPES
    ),
    ("serving.stage_coverage.single", "fraction", "higher"),
    ("serving.stage_coverage.batch", "fraction", "higher"),
    ("serving.alloc_peak_mb.batch", "MB", "lower"),
    *(
        (f"scenerec.{part}_ms.{shape}", "ms", "lower")
        for part in ("user_repr", "item_repr", "combine")
        for shape in SHAPES
    ),
    ("explain.affinity_ms", "ms", "lower"),
    ("training.sampling_s", "s", "lower"),
    ("training.forward_s", "s", "lower"),
    ("training.backward_s", "s", "lower"),
    ("training.step_s", "s", "lower"),
    ("training.tiny_params", "count", "lower"),
    ("training.late_serve_ratio.single", "ratio", "lower"),
    ("training.late_serve_ratio.batch", "ratio", "lower"),
    ("bench.ref_kernel_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
