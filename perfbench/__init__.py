"""Benchmark of the simulator's host-time cost (see README.md)."""
