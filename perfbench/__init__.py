"""End-to-end benchmark of the Amalur reproduction: CSV files to served predictions.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``perfbench/README.md`` describes the workloads,
metrics and reference figures.
"""
