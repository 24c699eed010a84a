"""The repository benchmark: seeded ingest / retrain / serve workloads.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  ``perfbench/README.md`` lists
the workloads, the metric names and units, and which layer metric should
move which end-to-end metric on which workload.
"""
