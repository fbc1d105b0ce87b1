"""The repo's benchmark: named workloads, named metrics, one command.

``python -m bench.run`` runs it; ``BENCHMARK.json`` at the repository
root is its contract; ``bench/README.md`` is the glossary.  Everything
here measures the ``repro`` package from outside, by timing calls into
public functions — nothing under ``src/`` knows this package exists.
"""
