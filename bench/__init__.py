"""The repository's end-to-end benchmark, from paper run to served request.

``python3 bench/run.py`` runs one workload once (see :mod:`bench.harness`);
``python -m bench run`` runs every workload several times and writes a
results set. ``bench/README.md`` describes the workloads and metrics.
"""
