"""Import hygiene: a ``repro`` process loads only what its verb runs.

Each case runs in a fresh interpreter, calls :func:`repro.cli.main` (or
just ``import repro``) and reports ``sys.modules``.  Package re-exports
resolve on first access and every CLI handler imports its own modules, so
the light verbs must never pull in the predictor stack, the coordinator,
the experiment registry or the HTTP/TLS stack.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import repro
else:
    import repro.cli
    try:
        repro.cli.main(argv)
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""

#: Modules no light verb may load.
HEAVY = (
    "repro.predictors.tage",
    "repro.sim.runner",
    "repro.api.registry",
    "repro.dist.coordinator",
    "repro.analysis.experiments",
    "repro.obs.top",
    "ssl",
    "http.server",
)

#: Modules ``repro sweep`` may not load even though it runs the predictors.
NOT_FOR_SWEEP = (
    "repro.dist.coordinator",
    "repro.analysis.experiments",
    "repro.obs.top",
    "ssl",
)


def loaded_modules(argv: Optional[List[str]]) -> List[str]:
    """``sys.modules`` after ``main(argv)`` (``import repro`` for None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["ingest", "convert", "--help"],
        ["store", "export", "--help"],
    ],
    ids=["import-repro", "ingest-convert-help", "store-export-help"],
)
def test_light_entry_points_skip_heavy_modules(argv):
    modules = loaded_modules(argv)
    assert [name for name in HEAVY if name in modules] == []


def test_ingest_convert_and_store_export_run_light(tmp_path):
    """The real verbs, not just their parsers, stay off the heavy modules."""
    source = tmp_path / "trace.cbp"
    source.write_text(
        "".join(f"{0x1000 + 4 * (i % 7):#x} {i % 3 != 0:d} 0x2000 cond 4\n" for i in range(60))
    )
    convert = loaded_modules(
        ["ingest", "convert", str(source), "-o", str(tmp_path / "chunked"), "--reader", "cbp"]
    )
    assert (tmp_path / "chunked").is_dir()
    export = loaded_modules(
        ["store", "export", "--store", str(tmp_path / "store"),
         "--output", str(tmp_path / "export.json")]
    )
    assert json.loads((tmp_path / "export.json").read_text()) == []
    for modules in (convert, export):
        assert [name for name in HEAVY if name in modules] == []


def test_sweep_help_skips_dist_and_experiments():
    modules = loaded_modules(["sweep", "--help"])
    assert [name for name in NOT_FOR_SWEEP if name in modules] == []
    # The profile and suite choices are listed, so their registries load.
    assert "repro.api.registry" in modules
