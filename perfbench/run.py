"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-shared --seed 1 --seconds 30 --trace 0

``--trace 0`` launches the real ``repro`` CLI and reports the end-to-end
metrics; ``--trace 1`` drives the same workload in-process with every layer
wrapped and reports the per-layer metrics.  Both check every cell against
``perfbench/golden.json``.  Scratch files live under ``.bench_build/`` and
are removed when the run ends; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _log(f"perfbench: no repro sources under {ROOT / 'src'}")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, BenchmarkError, bench_environment, measure_end_to_end

    if args.workload not in WORKLOADS:
        _log(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    env = bench_environment(ROOT, workdir)
    # The traced run executes the workload in this process: same environment.
    os.environ.clear()
    os.environ.update(env)
    tempfile.tempdir = env["TMPDIR"]
    # A terminated run still stops and reaps what it launched (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            from perfbench.layers import measure_layers

            result = measure_layers(
                args.workload, args.seed, args.seconds, workdir, env,
                spans_path=scratch / f"spans-{args.workload}.json", log=_log,
            )
        else:
            result = measure_end_to_end(
                args.workload, args.seed, args.seconds, workdir, env, log=_log
            )
    except BenchmarkError as error:
        _log(f"perfbench: {error}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        _log(f"{name:>28} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
