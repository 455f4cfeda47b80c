"""Tests for the top-level public API of the repro package."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

#: ``repro`` and every subpackage: each re-exports its ``__all__`` lazily.
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert repro.__version__

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert module.__all__
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(module.__all__) <= set(namespace)
        assert set(module.__all__) <= set(dir(module))

    def test_dir_lists_exports_before_they_load(self):
        """In a fresh interpreter ``dir()`` shows names not imported yet."""
        script = (
            "import importlib, json, sys\n"
            "missing = {}\n"
            "for package in json.loads(sys.argv[1]):\n"
            "    module = importlib.import_module(package)\n"
            "    missing[package] = sorted(set(module.__all__) - set(dir(module)))\n"
            "print(json.dumps(missing))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        completed = subprocess.run(
            [sys.executable, "-c", script, json.dumps(PACKAGES)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert json.loads(completed.stdout) == {package: [] for package in PACKAGES}

    def test_unknown_name_is_an_attribute_error(self):
        sim = importlib.import_module("repro.sim")
        with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
            sim.nosuch  # noqa: B018
        from repro.sim import engine  # a submodule, not a re-export

        assert engine.simulate is sim.simulate

    def test_quickstart_flow(self):
        """The README quick-start flow must work end to end."""
        traces = repro.generate_suite(
            "cbp4like", target_conditional_branches=400, benchmarks=["SPEC2K6-00"]
        )
        runner = repro.SuiteRunner(traces, profile="small")
        base = runner.run("tage-gsc")
        imli = runner.run("tage-gsc+imli")
        assert base.average_mpki > 0
        assert imli.average_mpki > 0

    def test_single_benchmark_and_predictor(self):
        from repro.workloads.suites import get_benchmark

        trace = repro.generate_benchmark(
            get_benchmark("cbp4like", "MM-4"), target_conditional_branches=400
        )
        predictor = repro.build_named("gehl+imli", profile="small")
        result = repro.simulate(predictor, trace)
        assert result.trace_name == "MM-4"
        assert 0.0 <= result.accuracy <= 1.0

    def test_configuration_names_exposed(self):
        names = repro.configuration_names()
        assert "tage-gsc+imli" in names
        assert "gehl+l" in names

    def test_imli_state_exposed(self):
        imli = repro.IMLIState()
        assert imli.count == 0
