"""End-to-end and per-layer benchmark of the UHSCM reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the code under ``src/`` and
prints a human-readable report followed by one JSON result line.  See
``perfbench/README.md`` for the workloads, the metrics and how each is
measured.
"""
