"""Declarative public API: predictor specs, the registry, and experiments.

This package is the recommended front door to the library:

* :class:`~repro.api.specs.PredictorSpec` -- a serializable description of
  one predictor variant (base configuration, size profile, parameter
  overrides) with lossless JSON round-trips and grid expansion
  (:meth:`~repro.api.specs.PredictorSpec.sweep`);
* :class:`~repro.api.registry.Registry` -- mutable, decorator-friendly
  registration of configurations and size profiles, replacing the frozen
  module-level ``CONFIGURATIONS`` dict (which remains as a live
  backwards-compatible view of the default registry);
* :class:`~repro.api.experiment.Experiment` /
  :class:`~repro.api.experiment.ResultSet` -- run specs over a workload
  (serially or across a process pool) and analyse / export the results.

See ``docs/API.md`` for a walkthrough.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".experiment": ("Experiment", "ResultSet"),
    ".registry": (
        "Registry", "default_registry", "register_configuration", "register_profile",
    ),
    ".specs": ("PredictorSpec",),
    "repro.predictors.composites": ("CompositeOptions", "SizeProfile"),
})

__all__ = [
    "CompositeOptions",
    "Experiment",
    "PredictorSpec",
    "Registry",
    "ResultSet",
    "SizeProfile",
    "default_registry",
    "register_configuration",
    "register_profile",
]
