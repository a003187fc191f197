"""Benchmark of the supermech package; run ``python3 perfbench/run.py --help``."""
