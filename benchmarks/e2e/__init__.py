"""End-to-end benchmark of the two user paths, ``reproduce`` and ``serve``.

Run ``python -m benchmarks.e2e --help``; ``README.md`` in this directory
describes the workloads, the metrics and their bounds.
"""
