"""Benchmark for latticediff: four seeded workloads, end-to-end and per-layer metrics."""
