"""Benchmark for frameparse: workloads, corpus generator, decode model and
an outside-in span tracer.  Run it with ``python3 perfbench/run.py``."""
