"""Shared fixtures for the test suite.

The fixtures build small traces (a few thousand branches at most) so that
even the integration tests that exercise full TAGE-GSC / GEHL composites
run in seconds.  All traces are deterministic.
"""

from __future__ import annotations

import random

import pytest

from repro.trace.branch import BranchKind, BranchRecord, conditional_branch
from repro.trace.trace import Trace
from repro.workloads.emitter import KernelEmitter
from repro.workloads.kernels import (
    BiasedMixKernel,
    LocalPeriodicKernel,
    SameIterationKernel,
    WormholeDiagonalKernel,
)
from repro.workloads.suites import generate_benchmark, get_benchmark


def _trace_from_kernel(kernel, rounds: int, name: str) -> Trace:
    emitter = KernelEmitter(base_pc=0x4000, instruction_gap=9)
    for _ in range(rounds):
        kernel.emit_round(emitter)
    return Trace(name=name, records=emitter.drain())


def _mixed_kind(trace: Trace, seed: int) -> Trace:
    """``trace`` with calls, returns, jumps and indirect branches inserted.

    About 40 % of the conditional records get one non-conditional record
    in front of them, from PC and target regions the generators never use.
    """
    rng = random.Random(seed)
    kinds = [BranchKind.CALL, BranchKind.RETURN, BranchKind.UNCONDITIONAL, BranchKind.INDIRECT]
    records = []
    for record in trace:
        if rng.random() < 0.4:
            records.append(BranchRecord(
                pc=0x400000 + 4 * rng.randrange(64),
                target=0x500000 + 4 * rng.randrange(64),
                taken=True,
                kind=rng.choice(kinds),
                instruction_gap=rng.randrange(8),
            ))
        records.append(record)
    return Trace(f"{trace.name}-mixed", records)


@pytest.fixture(scope="session")
def mixed_kind():
    """The ``mixed_kind(trace, seed)`` transform: every branch kind in a trace.

    The synthetic suites are all conditional; this adds the calls,
    returns, unconditional and indirect branches that drive
    ``observe_pc`` and the path-history pushes.
    """
    return _mixed_kind


@pytest.fixture(scope="session")
def sic_trace() -> Trace:
    """Nested loop with same-iteration correlation (IMLI-SIC target)."""
    kernel = SameIterationKernel(
        seed=7, max_trip=24, outer_iterations=10, variable_trip=True, noise_branches=1
    )
    return _trace_from_kernel(kernel, rounds=4, name="sic-kernel")


@pytest.fixture(scope="session")
def wormhole_trace() -> Trace:
    """Nested loop with Out[N][M] == Out[N-1][M-1] (wormhole/IMLI-OH target)."""
    kernel = WormholeDiagonalKernel(seed=11, trip=20, outer_iterations=30, noise_branches=1)
    return _trace_from_kernel(kernel, rounds=2, name="wormhole-kernel")


@pytest.fixture(scope="session")
def local_trace() -> Trace:
    """Locally periodic branches behind noise (local-history target)."""
    kernel = LocalPeriodicKernel(seed=13, branch_count=3, period=5, iterations_per_round=40)
    return _trace_from_kernel(kernel, rounds=4, name="local-kernel")


@pytest.fixture(scope="session")
def easy_trace() -> Trace:
    """Strongly biased branches (easy for every predictor)."""
    kernel = BiasedMixKernel(seed=17, branch_count=16, executions_per_round=40, minimum_bias=0.95)
    return _trace_from_kernel(kernel, rounds=3, name="easy-kernel")


@pytest.fixture(scope="session")
def spec2k6_04_trace() -> Trace:
    """A small rendering of the SPEC2K6-04 benchmark (IMLI-SIC showcase)."""
    return generate_benchmark(
        get_benchmark("cbp4like", "SPEC2K6-04"), target_conditional_branches=2500
    )


@pytest.fixture(scope="session")
def spec2k6_12_trace() -> Trace:
    """A small rendering of the SPEC2K6-12 benchmark (wormhole showcase)."""
    return generate_benchmark(
        get_benchmark("cbp4like", "SPEC2K6-12"), target_conditional_branches=2500
    )


@pytest.fixture
def alternating_records() -> list:
    """A hand-written T/N/T/N... conditional branch sequence at one PC."""
    return [conditional_branch(pc=0x100, target=0x140, taken=bool(i % 2)) for i in range(64)]


@pytest.fixture
def simple_loop_records() -> list:
    """A backward loop branch executing 3 loops of 5 iterations each."""
    records = []
    for _ in range(3):
        for iteration in range(5):
            records.append(
                BranchRecord(
                    pc=0x200,
                    target=0x180,
                    taken=iteration < 4,
                    kind=BranchKind.CONDITIONAL,
                )
            )
    return records
