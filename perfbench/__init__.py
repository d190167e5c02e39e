"""Benchmark of the graphsampling package; run it with ``python3 perfbench/run.py``."""
