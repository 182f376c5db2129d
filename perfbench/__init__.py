"""MicroGrad's benchmark of record: the paper's tuning loop, end to end
and per layer.  Run it with ``python3 perfbench/run.py`` (see README.md).
"""
