"""perfbench: the repository's speed, setup, memory and fidelity benchmark.

``python -m perfbench`` runs the four workloads of ``BENCHMARK.json``
through ``repro.workloads`` and reports host speed (normalised to a
reference kernel), setup time, peak memory and the simulated results
beside the paper's.  ``python -m perfbench --trace 1`` is the separate
traced run that splits host time across the ``src/repro`` packages.
See ``perfbench/README.md``.
"""
