"""Benchmark of the SceneRec reproduction: seeded workloads, oracles, traced per-layer run."""
