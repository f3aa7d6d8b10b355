"""The repository benchmark: three closed-batch workloads over the PAL
simulator, end-to-end metrics from untraced runs and per-layer metrics
from a separately traced run.  Entry point: ``python3 perfbench/run.py``;
``BENCHMARK.json`` at the repository root declares the metric catalog.
"""
