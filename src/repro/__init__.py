"""repro: a reproduction of "The Inner Most Loop Iteration counter: a new
dimension in branch history" (Seznec, San Miguel, Albericio -- MICRO 2015).

The library provides, in pure Python:

* the paper's contribution -- the IMLI counter and the IMLI-SIC / IMLI-OH
  predictor components (:mod:`repro.core`);
* every substrate the evaluation depends on -- TAGE, the statistical
  corrector, TAGE-GSC, GEHL, the loop predictor, local-history components
  and the wormhole predictor (:mod:`repro.predictors`);
* a trace-driven simulation framework with MPKI metrics, storage accounting
  and speculative-state modelling (:mod:`repro.sim`);
* synthetic CBP-like benchmark suites standing in for the championship
  traces (:mod:`repro.workloads`, see DESIGN.md for the substitution
  rationale);
* ingestion of external trace files and a chunked on-disk layout that
  streams huge traces through simulation in bounded memory
  (:mod:`repro.ingest`, :mod:`repro.trace.chunked`, ``docs/TRACES.md``);
* the reproduced tables and figures of the evaluation section
  (:mod:`repro.analysis`).

Quick start (declarative API, see ``docs/API.md``)::

    from repro import Experiment

    results = Experiment(
        ["tage-gsc", "tage-gsc+imli"], suite="cbp4like",
        length=5000, profile="small",
    ).run(baseline="tage-gsc")
    print(results.report())

or with the lower-level runner::

    from repro.workloads import generate_suite
    from repro.sim import SuiteRunner

    traces = generate_suite("cbp4like", target_conditional_branches=5000)
    runner = SuiteRunner(traces, profile="small")
    base = runner.run("tage-gsc")
    imli = runner.run("tage-gsc+imli")
    print(base.average_mpki, imli.average_mpki)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".api": (
        "CompositeOptions", "Experiment", "PredictorSpec", "Registry", "ResultSet",
        "SizeProfile", "default_registry", "register_configuration", "register_profile",
    ),
    ".core": (
        "IMLIOuterHistoryComponent", "IMLISameIterationComponent", "IMLIState",
        "SpeculativeIMLITracker",
    ),
    ".predictors": (
        "BranchPredictor", "GEHLPredictor", "TAGEGSCPredictor", "TAGEPredictor",
        "build_named", "configuration_names",
    ),
    ".dist": ("Coordinator", "DistBackend", "Worker"),
    ".ingest": ("IngestError", "IngestReport", "ingest_trace"),
    ".sim": ("SimulationResult", "SuiteRunner", "simulate"),
    ".store": ("ResultStore",),
    ".trace": (
        "BranchKind", "BranchRecord", "ChunkedTrace", "Trace", "load_any_trace",
        "write_chunked_trace",
    ),
    ".workloads": ("generate_benchmark", "generate_suite"),
})

__version__ = "1.2.0"

__all__ = [
    "BranchKind",
    "BranchPredictor",
    "BranchRecord",
    "ChunkedTrace",
    "CompositeOptions",
    "Coordinator",
    "DistBackend",
    "Experiment",
    "IngestError",
    "IngestReport",
    "GEHLPredictor",
    "IMLIOuterHistoryComponent",
    "IMLISameIterationComponent",
    "IMLIState",
    "PredictorSpec",
    "Registry",
    "ResultSet",
    "ResultStore",
    "SimulationResult",
    "SizeProfile",
    "SpeculativeIMLITracker",
    "SuiteRunner",
    "TAGEGSCPredictor",
    "TAGEPredictor",
    "Trace",
    "Worker",
    "__version__",
    "build_named",
    "configuration_names",
    "default_registry",
    "generate_benchmark",
    "generate_suite",
    "ingest_trace",
    "load_any_trace",
    "register_configuration",
    "register_profile",
    "simulate",
    "write_chunked_trace",
]
