"""Branch predictors.

The package is organised bottom-up:

* :mod:`repro.predictors.base` -- the :class:`BranchPredictor` interface.
* :mod:`repro.predictors.simple` -- static, bimodal, gshare and perceptron
  baselines.
* :mod:`repro.predictors.adder` and :mod:`repro.predictors.components` --
  the adder-tree machinery shared by GEHL and the statistical corrector.
* :mod:`repro.predictors.gehl`, :mod:`repro.predictors.tage`,
  :mod:`repro.predictors.statistical_corrector`,
  :mod:`repro.predictors.tage_gsc` -- the two base predictor families of the
  paper.
* :mod:`repro.predictors.loop`, :mod:`repro.predictors.wormhole` -- the side
  predictors (loop exit predictor and the prior-art wormhole predictor).
* :mod:`repro.predictors.composites` -- every named configuration evaluated
  in the paper (``tage-gsc``, ``tage-gsc+imli``, ``gehl+l`` ...).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".adder": ("AdderTree",),
    ".base": ("BranchPredictor",),
    ".components": (
        "BiasComponent", "GlobalHistoryComponent", "IMLICountHashedGlobalComponent",
        "LocalHistoryComponent", "geometric_history_lengths",
    ),
    ".composites": (
        "CONFIGURATIONS", "CompositeOptions", "SidecarPredictor", "SizeProfile",
        "build", "build_named", "configuration_names", "factory",
    ),
    ".gehl": ("GEHLConfig", "GEHLPredictor"),
    ".loop": ("LoopPredictor", "LoopPredictorConfig"),
    ".simple": (
        "AlwaysTakenPredictor", "BimodalPredictor", "GSharePredictor",
        "PerceptronPredictor", "StaticBackwardTakenPredictor",
    ),
    ".statistical_corrector": ("StatisticalCorrector", "StatisticalCorrectorConfig"),
    ".tage": ("TAGEConfig", "TAGEEngine", "TAGEPredictor"),
    ".tage_gsc": ("TAGEGSCConfig", "TAGEGSCPredictor"),
    ".wormhole": ("WormholePredictor", "WormholePredictorConfig"),
})

__all__ = [
    "AdderTree",
    "AlwaysTakenPredictor",
    "BiasComponent",
    "BimodalPredictor",
    "BranchPredictor",
    "CONFIGURATIONS",
    "CompositeOptions",
    "GEHLConfig",
    "GEHLPredictor",
    "GSharePredictor",
    "GlobalHistoryComponent",
    "IMLICountHashedGlobalComponent",
    "LocalHistoryComponent",
    "LoopPredictor",
    "LoopPredictorConfig",
    "PerceptronPredictor",
    "SidecarPredictor",
    "SizeProfile",
    "StaticBackwardTakenPredictor",
    "StatisticalCorrector",
    "StatisticalCorrectorConfig",
    "TAGEConfig",
    "TAGEEngine",
    "TAGEGSCConfig",
    "TAGEGSCPredictor",
    "TAGEPredictor",
    "WormholePredictor",
    "WormholePredictorConfig",
    "build",
    "build_named",
    "configuration_names",
    "factory",
    "geometric_history_lengths",
]
