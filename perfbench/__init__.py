"""Benchmark of wickbench: workload generator, correctness gate, tracing and runner."""
