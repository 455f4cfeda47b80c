"""Benchmark workloads: seeded inputs, the CLI runs, and their output checks.

Three workloads, each a real ``repro`` command line:

``sweep-shared``
    ``repro sweep --jobs 1`` of the 8-spec ``tage-gsc+oh``
    ``oh_update_delay`` grid over four cbp4like traces (20k conditional
    branches each).  Every spec shares one TAGE core, so the heads dominate.
``sweep-solo-mixed``
    ``repro sweep --jobs 2`` of 4 specs with 4 distinct cores over three
    mixed-kind chunked traces derived from cbp3like traces: every cell pays
    its own history upkeep and hashing, plus chunk decode and pool fan-out.
``dist-2w``
    ``repro serve`` + two ``repro worker`` + ``repro submit`` of a 160-cell
    ``gehl+imli`` grid over the 20 cbp4like traces at 5000 branches: short
    cells, so per-cell lease, upload and store costs weigh most.

The seed shuffles trace and grid-value order (cell results do not depend
on order) and, for the mixed workload, picks one of
``Workload.variants`` insertion patterns (``seed % variants``).  Every
(workload, variant) has a committed table of per-cell mispredictions and
instructions in ``golden.json``, computed by ``make_golden.py`` on the
record-based reference path; each run compares the CLI's exported store
cells with it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Size profile of every spec (the paper-scale tables).
PROFILE = "default"
#: Set-up repetitions per run (``setup_s`` is their median): at least 3, and
#: up to 9 while the repetitions so far took under SETUP_SECONDS together.
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 2.0
#: Workload iterations per run at least, however short ``--seconds`` is.
MIN_ITERATIONS = 3
#: Seconds one iteration's commands (or one ingest) may take before they are
#: killed; a healthy iteration takes well under 20.
COMMAND_TIMEOUT = 60.0
#: Interval at which launched processes are polled: a wall-time resolution
#: of 0.1 % of the shortest iteration, at negligible CPU.
POLL_SECONDS = 0.005

#: Records per RPCHUNK1 chunk of the mixed-kind traces.
MIXED_CHUNK_BRANCHES = 4096
#: Chance of inserting one non-conditional record before each conditional
#: one; 0.37 / 1.37 puts about 27 % of the records outside the conditionals.
MIXED_INSERT_RATE = 0.37
#: PC regions of the inserted branches, disjoint from the generators' PCs
#: (which stay below 0x100000).
_CALL_PC, _FUNC_PC, _JUMP_PC, _IND_PC, _IND_TARGET = (
    0x400000, 0x500000, 0x600000, 0x700000, 0x780000,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI grid over a set of generated traces."""

    name: str
    mode: str  # "sweep" (one repro sweep) or "dist" (serve + workers + submit)
    base: str
    grid: Tuple[Tuple[str, tuple], ...]
    suite: str
    benchmarks: Tuple[str, ...]  # empty: the whole suite
    length: int
    jobs: int = 1
    mixed: bool = False
    variants: int = 1
    expected_specs: int = 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sweep-shared",
            mode="sweep",
            base="tage-gsc+oh",
            grid=(("oh_update_delay", (0, 1, 3, 7, 15, 31, 63, 127)),),
            suite="cbp4like",
            benchmarks=("SPEC2K6-04", "SPEC2K6-12", "CLIENT-01", "MM-4"),
            length=20000,
            jobs=1,
            expected_specs=8,
        ),
        Workload(
            name="sweep-solo-mixed",
            mode="sweep",
            base="tage-gsc+imli",
            grid=(("base", ("tage-gsc", "gehl")), ("local", (False, True))),
            suite="cbp3like",
            benchmarks=("CLIENT02", "MM07", "WS04"),
            length=20000,
            jobs=2,
            mixed=True,
            variants=8,
            expected_specs=4,
        ),
        Workload(
            name="dist-2w",
            mode="dist",
            base="gehl+imli",
            grid=(("imli_oh", (False, True)), ("oh_update_delay", (0, 3, 15, 63))),
            suite="cbp4like",
            benchmarks=(),
            length=5000,
            expected_specs=8,
        ),
    )
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run (missing sources, bad golden data, ...)."""


# --------------------------------------------------------------------------- #
# Specs and golden tables
# --------------------------------------------------------------------------- #


def grid_specs(workload: Workload) -> list:
    """The specs ``repro sweep``/``submit`` expand the workload's grid into.

    The base spec first, then every grid point that builds a different
    predictor than the base (the CLI drops base-equal points the same way).
    """
    from repro.api.specs import PredictorSpec

    def options(spec):
        return dataclasses.replace(spec.resolve().base, **spec.overrides)

    base = PredictorSpec.from_named(workload.base, profile=PROFILE)
    grid = {axis: list(values) for axis, values in workload.grid}
    specs = [base] + [
        spec for spec in base.sweep(**grid) if options(spec) != options(base)
    ]
    if len(specs) != workload.expected_specs:
        raise BenchmarkError(
            f"{workload.name}: grid expands to {len(specs)} specs, "
            f"expected {workload.expected_specs}"
        )
    return specs


def cell_key(label: str, trace_name: str) -> str:
    return f"{label}|{trace_name}"


def table_digest(table: Dict[str, Sequence[int]]) -> str:
    """SHA-256 over the sorted ``key=mispredictions,instructions`` lines."""
    lines = "\n".join(
        f"{key}={value[0]},{value[1]}" for key, value in sorted(table.items())
    )
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def load_golden(workload: Workload, variant: int) -> Tuple[Dict[str, list], str]:
    """``(cells, digest)`` of one workload variant from ``golden.json``."""
    try:
        data = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        entry = data["workloads"][workload.name][str(variant)]
    except (OSError, ValueError, KeyError) as error:
        raise BenchmarkError(f"no golden table for {workload.name}/{variant}: {error}")
    cells, digest = entry["cells"], entry["digest"]
    if table_digest(cells) != digest:
        raise BenchmarkError(f"golden table of {workload.name}/{variant} fails its digest")
    return cells, digest


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #


@dataclass
class Inputs:
    """Everything one seeded run of a workload needs."""

    workload: Workload
    seed: int
    variant: int
    trace_paths: List[Path]
    trace_names: List[str]
    conditional: int  # conditional branches summed over the traces
    grid_args: List[str]  # the --param arguments, values in seeded order
    golden: Dict[str, list]
    digest: str

    @property
    def cells(self) -> int:
        return self.workload.expected_specs * len(self.trace_paths)

    @property
    def sim_branches(self) -> int:
        """Conditional branches simulated by all cells together."""
        return self.workload.expected_specs * self.conditional


def repro_command(*args) -> List[str]:
    return [sys.executable, "-m", "repro", *[str(arg) for arg in args]]


def _cli_value(value) -> str:
    return json.dumps(value) if isinstance(value, bool) else str(value)


def mixed_records(trace, variant: int):
    """Yield ``(pc, taken, target, kind, gap)`` of ``trace`` with extra kinds.

    Before each conditional record, with probability
    :data:`MIXED_INSERT_RATE`, one call, return (of an earlier call),
    unconditional jump or indirect jump is inserted, in PC regions of its
    own.  The conditional records are passed through unchanged.
    """
    rng = random.Random(f"{variant}:{trace.name}")
    calls: List[Tuple[int, int]] = []  # (call site, callee) awaiting return
    pcs, targets, takens, kinds, gaps = trace.columns()
    for pc, target, taken, kind, gap in zip(pcs, targets, takens, kinds, gaps):
        if kind != 0:
            raise BenchmarkError(f"{trace.name}: expected an all-conditional trace")
        if rng.random() < MIXED_INSERT_RATE:
            roll = rng.random()
            extra_gap = rng.randrange(4)
            if calls and roll < 0.3:
                site, callee = calls.pop()
                yield callee + 40, True, site + 1, "ret", extra_gap
            elif roll < 0.6 and len(calls) < 8:
                site = _CALL_PC + 8 * rng.randrange(256)
                callee = _FUNC_PC + 64 * rng.randrange(64)
                calls.append((site, callee))
                yield site, True, callee, "call", extra_gap
            elif roll < 0.8:
                jump = _JUMP_PC + 8 * rng.randrange(256)
                yield jump, True, jump + 8 * rng.randrange(1, 16), "uncond", extra_gap
            else:
                jump = _IND_PC + 8 * rng.randrange(32)
                yield jump, True, _IND_TARGET + 64 * rng.randrange(8), "ind", extra_gap
        yield pc, bool(taken), target, "cond", gap


def write_cbp_text(records, path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# pc taken target kind gap\n")
        for pc, taken, target, kind, gap in records:
            handle.write(f"{pc:#x} {int(taken)} {target:#x} {kind} {gap}\n")


def cli_ingest(text: Path, output: Path, name: str, env: Dict[str, str]) -> dict:
    """``repro ingest convert`` of one CBP text file; returns its JSON report."""
    completed = subprocess.run(
        repro_command(
            "ingest", "convert", text, "--output", output, "--reader", "cbp",
            "--chunk-branches", MIXED_CHUNK_BRANCHES, "--name", name, "--json",
        ),
        env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT,
    )
    if completed.returncode != 0:
        raise BenchmarkError(f"ingest of {text.name} failed: {completed.stderr.strip()}")
    return json.loads(completed.stdout)


def build_inputs(
    workload: Workload,
    seed: int,
    directory: Path,
    env: Dict[str, str],
    ingest: Callable[[Path, Path, str, Dict[str, str]], dict] = cli_ingest,
    golden: bool = True,
) -> Inputs:
    """Generate (and for the mixed workload, ingest) the seeded inputs.

    ``golden=False`` skips loading the golden table (``make_golden.py``
    builds inputs before the table exists).
    """
    from repro.trace.trace import save_trace_binary
    from repro.workloads.suites import benchmark_names, generate_benchmark, get_benchmark

    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    variant = seed % workload.variants
    names = list(workload.benchmarks or benchmark_names(workload.suite))
    rng.shuffle(names)
    paths, trace_names, conditional = [], [], 0
    for name in names:
        trace = generate_benchmark(
            get_benchmark(workload.suite, name),
            target_conditional_branches=workload.length,
        )
        if workload.mixed:
            text = directory / f"MIX-{name}.cbp"
            write_cbp_text(mixed_records(trace, variant), text)
            path = directory / f"MIX-{name}"
            report = ingest(text, path, f"MIX-{name}", env)
            other = report["records"] - report["conditional"]
            if report["conditional"] != trace.conditional_count or other < 0.2 * report["records"]:
                raise BenchmarkError(f"mixed trace {path.name} has the wrong shape: {report}")
            trace_names.append(report["name"])
            conditional += report["conditional"]
        else:
            path = directory / f"{name}.bin"
            save_trace_binary(trace, path)
            trace_names.append(trace.name)
            conditional += trace.conditional_count
        paths.append(path)
    grid_args: List[str] = []
    for axis, values in workload.grid:
        values = list(values)
        rng.shuffle(values)
        grid_args += ["--param", f"{axis}=" + ",".join(_cli_value(v) for v in values)]
    cells, digest = load_golden(workload, variant) if golden else ({}, "")
    if golden and len(cells) != workload.expected_specs * len(names):
        raise BenchmarkError(f"golden table of {workload.name} has {len(cells)} cells")
    return Inputs(
        workload, seed, variant, paths, trace_names, conditional, grid_args, cells, digest
    )


# --------------------------------------------------------------------------- #
# Launching the CLI
# --------------------------------------------------------------------------- #


class _Processes:
    """Processes of one iteration: spawned with logs, reaped with ``wait4``.

    Every process is killed once the iteration's deadline passes.
    """

    def __init__(self, directory: Path, env: Dict[str, str], deadline: float) -> None:
        self.directory = directory
        self.env = env
        self.deadline = deadline
        self.live: List[subprocess.Popen] = []
        self.peak_rss_kb = 0
        self.exit_codes: Dict[str, int] = {}

    def spawn(self, name: str, command: List[str]) -> subprocess.Popen:
        with open(self.directory / f"{name}.out", "wb") as out, open(
            self.directory / f"{name}.err", "wb"
        ) as err:
            process = subprocess.Popen(
                command, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
        process.bench_name = name
        self.live.append(process)
        return process

    def poll(self, process: subprocess.Popen, block: bool = False) -> bool:
        """Collect ``process`` if it has exited (or wait for it); whether it had."""
        pid, status, usage = os.wait4(process.pid, 0 if block else os.WNOHANG)
        if not pid:
            return False
        process.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(process)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.exit_codes[process.bench_name] = process.returncode
        return True

    def reap(self, process: subprocess.Popen) -> int:
        """Wait for ``process`` (killing it at the deadline); its exit code."""
        while not self.poll(process):
            if time.monotonic() > self.deadline:
                process.kill()
                self.poll(process, block=True)
                break
            time.sleep(POLL_SECONDS)
        return process.returncode

    def stop_all(self) -> None:
        for process in list(self.live):
            process.kill()
            self.poll(process, block=True)

    def stderr(self, name: str) -> str:
        try:
            return (self.directory / f"{name}.err").read_text(errors="replace")
        except OSError:
            return ""


def _await_port(processes: _Processes, serve: subprocess.Popen) -> int:
    """The port ``repro serve --port 0`` reports once it listens."""
    while time.monotonic() < processes.deadline:
        match = re.search(r"coordinator listening on [^:\s]+:(\d+)", processes.stderr("serve"))
        if match:
            return int(match.group(1))
        if processes.poll(serve):
            break
        time.sleep(POLL_SECONDS)
    raise BenchmarkError(f"repro serve did not start: {processes.stderr('serve')[-500:]}")


def _trace_args(inputs: Inputs) -> List[str]:
    return [arg for path in inputs.trace_paths for arg in ("--trace", str(path))]


def _launch(inputs: Inputs, processes: _Processes, results: Path, store: Path) -> None:
    """Run the workload's commands to completion (exit codes are recorded)."""
    workload = inputs.workload
    grid = ["--base", workload.base, *inputs.grid_args, *_trace_args(inputs), "--profile", PROFILE]
    if workload.mode == "sweep":
        processes.reap(processes.spawn("sweep", repro_command(
            "sweep", *grid, "--jobs", workload.jobs, "--store", store, "--json", results,
        )))
    else:
        serve = processes.spawn("serve", repro_command("serve", "--port", 0, "--store", store))
        address = f"127.0.0.1:{_await_port(processes, serve)}"
        workers = [
            processes.spawn(f"worker{index}", repro_command(
                "worker", "--connect", address, "--name", f"w{index}", "--reconnect", 0,
            ))
            for index in (1, 2)
        ]
        processes.reap(processes.spawn("submit", repro_command(
            "submit", "--connect", address, *grid, "--json", results,
        )))
        serve.send_signal(signal.SIGINT)
        for process in workers + [serve]:
            processes.reap(process)
    processes.reap(processes.spawn("export", repro_command(
        "store", "export", "--store", store, "--output", store.parent / "export.json",
    )))


@dataclass
class Iteration:
    """One launch of a workload's commands."""

    wall_s: float
    peak_rss_mb: float
    failed: int
    problems: List[str]


def exported_table(path: Path) -> Dict[str, list]:
    """``cell key -> [mispredictions, instructions]`` of a store export."""
    table = {}
    for record in json.loads(path.read_text(encoding="utf-8")):
        result = record["result"]
        key = cell_key(record["label"], result["trace_name"])
        table[key] = [int(result["mispredictions"]), int(result["instructions"])]
    return table


def check_outputs(inputs: Inputs, results: Path, export: Path) -> Tuple[int, List[str]]:
    """``(failed cells, problems)`` of one iteration's outputs."""
    expected = inputs.golden
    try:
        report = json.loads(results.read_text(encoding="utf-8"))
        table = exported_table(export)
    except (OSError, ValueError, KeyError, TypeError) as error:
        return len(expected), [f"unreadable outputs: {error}"]
    problems = []
    labels = {cell.split("|", 1)[0] for cell in expected}
    if report.get("traces") != inputs.trace_names:
        problems.append(f"ran traces {report.get('traces')}, expected {inputs.trace_names}")
    if {entry.get("label") for entry in report.get("results", [])} != labels:
        problems.append("the result labels differ from the grid's specs")
    if problems:
        return len(expected), problems
    if table_digest(table) == inputs.digest:
        return 0, []
    wrong = [key for key, value in expected.items() if table.get(key) != value]
    extra = set(table) - set(expected)
    problems.append(
        f"{len(wrong)} cell(s) differ from the golden table (e.g. {wrong[:2]}), "
        f"{len(extra)} unexpected"
    )
    return max(1, min(len(expected), len(wrong) + len(extra))), problems


def run_iteration(inputs: Inputs, directory: Path, env: Dict[str, str]) -> Iteration:
    """Launch the workload's commands once, time them and check the outputs."""
    directory.mkdir(parents=True)
    processes = _Processes(directory, env, time.monotonic() + COMMAND_TIMEOUT)
    store, results = directory / "store", directory / "results.json"
    problems: List[str] = []
    started = time.perf_counter()
    try:
        _launch(inputs, processes, results, store)
    except BenchmarkError as error:
        problems.append(str(error))
    finally:
        processes.stop_all()
    wall = time.perf_counter() - started
    failed_commands = {name: code for name, code in processes.exit_codes.items() if code != 0}
    if failed_commands:
        problems.append(f"commands failed: {failed_commands}")
        for name in failed_commands:
            problems.append(f"{name}: {processes.stderr(name)[-400:].strip()}")
    failed = inputs.cells
    if not problems:
        failed, problems = check_outputs(inputs, results, directory / "export.json")
    return Iteration(wall, processes.peak_rss_kb / 1024.0, failed, problems)


# --------------------------------------------------------------------------- #
# The end-to-end driver
# --------------------------------------------------------------------------- #


def timed_setups(
    workload: Workload, seed: int, workdir: Path, env: Dict[str, str], **kwargs
) -> Tuple[Inputs, List[float]]:
    """Build the inputs repeatedly (see :data:`SETUP_REPEATS`); the last inputs
    and every repetition's time."""
    fewest, most = SETUP_REPEATS
    times, inputs = [], None
    while len(times) < fewest or (sum(times) < SETUP_SECONDS and len(times) < most):
        directory = workdir / f"setup{len(times)}"
        started = time.perf_counter()
        inputs = build_inputs(workload, seed, directory, env, **kwargs)
        times.append(time.perf_counter() - started)
        if len(times) > 1:
            shutil.rmtree(workdir / f"setup{len(times) - 2}", ignore_errors=True)
    return inputs, times


def measure_end_to_end(
    name: str, seed: int, seconds: float, workdir: Path, env: Dict[str, str],
    log: Callable[[str], None] = lambda message: None,
) -> dict:
    """Run workload ``name`` through the CLI for about ``seconds``; the result dict.

    Iterations start while the previous one's wall still fits in the
    budget, and at least :data:`MIN_ITERATIONS` run.
    """
    workload = WORKLOADS[name]
    inputs, setups = timed_setups(workload, seed, workdir, env)
    iterations: List[Iteration] = []
    deadline = time.monotonic() + seconds
    while (
        len(iterations) < MIN_ITERATIONS
        or time.monotonic() + iterations[-1].wall_s <= deadline
    ):
        directory = workdir / f"iteration{len(iterations)}"
        iteration = run_iteration(inputs, directory, env)
        iterations.append(iteration)
        log(f"iteration {len(iterations)}: {iteration.wall_s:.3f} s, "
            f"{iteration.peak_rss_mb:.1f} MB, {iteration.failed} failed")
        for problem in iteration.problems:
            log(f"  {problem}")
        if not iteration.problems:
            shutil.rmtree(directory, ignore_errors=True)
    walls = [iteration.wall_s for iteration in iterations]
    failed = sum(iteration.failed for iteration in iterations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cells_per_s": (statistics.median(inputs.cells / wall for wall in walls), "1/s"),
        "sim_branches_per_s": (
            statistics.median(inputs.sim_branches / wall for wall in walls), "1/s"
        ),
        "peak_rss_mb": (
            statistics.median(iteration.peak_rss_mb for iteration in iterations), "MB"
        ),
    }
    return {
        "correct": failed == 0,
        "attempted": inputs.cells * len(iterations),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def bench_environment(root: Path, workdir: Path) -> Dict[str, str]:
    """Environment of every launched command: sources from ``root``, files in ``workdir``."""
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env.update(
        PYTHONPATH=str(root / "src"),
        TMPDIR=str(tmp),
        REPRO_TRACE_CACHE="0",
    )
    return env
