"""Repository benchmark: end-to-end CLI sweeps plus a traced per-layer run.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) and prints one JSON
result line.  The drivers are importable so other tools can reuse them:

* :func:`perfbench.workloads.measure_end_to_end` launches the real
  ``repro`` CLI and checks its exported cells against ``golden.json``;
* :func:`perfbench.layers.measure_layers` drives the same workload
  in-process through the public API with every layer wrapped by
  :class:`perfbench.tracer.Tracer`.
"""
