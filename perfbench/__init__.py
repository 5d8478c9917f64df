"""The repository benchmark: closed-loop ingest and serving on the paper's
two estimators, measured end to end and, in a separate traced run, by layer.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; ``perfbench/README.md``
explains the workloads, the metrics and the layer map.
"""
