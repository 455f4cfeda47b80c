"""Workload kernels.

Each kernel models one small program fragment whose branch stream exhibits
a specific, well-understood correlation structure.  The benchmark suites in
:mod:`repro.workloads.suites` compose several kernels into one benchmark.

The kernels map onto the branch classes analysed by the paper:

=========================  ====================================================
Kernel                     Correlation structure (who can predict it)
=========================  ====================================================
SameIterationKernel        ``Out[N][M] == pattern[M]`` in a nested loop with a
                           (possibly varying) inner trip count and noisy loop
                           body.  Captured by IMLI-SIC; *not* captured by the
                           wormhole predictor when the trip count varies.
WormholeDiagonalKernel     ``Out[N][M] == Out[N-1][M-1]`` with a constant trip
                           count.  Captured by IMLI-OH and by the wormhole
                           predictor.
AlternatingOuterKernel     ``Out[N][M] == not Out[N-1][M]``.  Captured by
                           IMLI-OH; missed by IMLI-SIC.
LocalPeriodicKernel        Short per-branch periodic patterns hidden behind
                           noise.  Captured by local-history components.
LoopExitKernel             Constant-trip-count loops with noisy bodies.  The
                           exit is captured by the loop predictor and by
                           IMLI-SIC.
GlobalCorrelatedKernel     Branches correlated with recent global history.
                           Captured by any global-history predictor (TAGE,
                           GEHL, gshare).
BiasedMixKernel            Statically biased branches of varying bias.
NoiseKernel                Data-dependent, effectively random branches; an
                           irreducible MPKI floor.
=========================  ====================================================
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.workloads.emitter import KernelEmitter

__all__ = [
    "Kernel",
    "SameIterationKernel",
    "WormholeDiagonalKernel",
    "AlternatingOuterKernel",
    "LocalPeriodicKernel",
    "LoopExitKernel",
    "GlobalCorrelatedKernel",
    "BiasedMixKernel",
    "NoiseKernel",
]


class Kernel(ABC):
    """A stateful program fragment that emits branch records in rounds.

    A *round* is one natural repetition unit of the kernel (for the nested
    loop kernels, one full execution of the outer loop body).  Kernel state
    (data arrays, phase counters) persists across rounds so that learned
    correlations stay stable throughout the benchmark, just as they would in
    a real program operating on the same data structures.
    """

    #: Prefix used for branch labels so different kernels never share PCs.
    label_prefix: str = "kernel"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    @abstractmethod
    def emit_round(self, emitter: KernelEmitter) -> None:
        """Emit one round of branch records into ``emitter``."""

    def _label(self, suffix: str) -> str:
        return f"{self.label_prefix}.{suffix}"

    def _labels(self, stem: str, count: int) -> List[str]:
        """Labels ``stem0`` .. ``stem{count-1}``, formatted once per round."""
        return [self._label(f"{stem}{index}") for index in range(count)]


def _random_bits(rng: random.Random, count: int) -> List[bool]:
    return [rng.random() < 0.5 for _ in range(count)]


class SameIterationKernel(Kernel):
    """Nested loop whose inner branch outcome depends only on the iteration index.

    The program shape is the one in Figure 1 of the paper::

        for n in range(outer_iterations):
            for m in range(trip_counts[n]):          # trip count may vary
                ...noise branches...
                if pattern[m]: ...                   # the IMLI-SIC target
            # inner loop exits (backward branch not taken)
        # outer loop back-edge

    ``pattern`` is a fixed random bit-vector, so ``Out[N][M] == Out[N-1][M]``
    holds exactly.  The noise branches in the body make the number of global
    paths from the correlator to the target branch explode, which is what
    defeats global-history predictors.  When ``variable_trip`` is true the
    trip count changes every outer iteration, which defeats the wormhole
    predictor and the loop predictor but not IMLI-SIC.
    """

    label_prefix = "sic"

    def __init__(
        self,
        seed: int,
        max_trip: int = 48,
        outer_iterations: int = 8,
        variable_trip: bool = True,
        noise_branches: int = 2,
        noise_bias: float = 0.78,
        pattern_bias: float = 0.5,
    ) -> None:
        super().__init__(seed)
        if max_trip < 4:
            raise ValueError(f"max trip count must be at least 4, got {max_trip}")
        if outer_iterations < 1:
            raise ValueError(
                f"outer iterations must be positive, got {outer_iterations}"
            )
        self.max_trip = max_trip
        self.outer_iterations = outer_iterations
        self.variable_trip = variable_trip
        self.noise_branches = noise_branches
        self.noise_bias = noise_bias
        self.pattern: List[bool] = [
            self.rng.random() < pattern_bias for _ in range(max_trip)
        ]

    def _trip_count(self) -> int:
        if not self.variable_trip:
            return self.max_trip
        low = max(4, int(self.max_trip * 0.7))
        return self.rng.randint(low, self.max_trip)

    def emit_round(self, emitter: KernelEmitter) -> None:
        noise = self._labels("noise", self.noise_branches)
        target, inner_back = self._label("target"), self._label("inner_back")
        outer_back = self._label("outer_back")
        for outer in range(self.outer_iterations):
            trip = self._trip_count()
            for inner in range(trip):
                for label in noise:
                    emitter.branch(label, self.rng.random() < self.noise_bias)
                emitter.branch(target, self.pattern[inner])
                emitter.loop_branch(inner_back, inner < trip - 1)
            emitter.loop_branch(outer_back, outer < self.outer_iterations - 1)


class WormholeDiagonalKernel(Kernel):
    """Nested loop with the diagonal correlation targeted by the wormhole predictor.

    The inner branch tests a matrix element that shifts diagonally from one
    outer iteration to the next, so ``Out[N][M] == Out[N-1][M-1]``.  The trip
    count is constant, which is the case the wormhole predictor requires.
    IMLI-OH recovers the same correlation through the IMLI outer-history
    table and the PIPE vector.
    """

    label_prefix = "wormhole"

    def __init__(
        self,
        seed: int,
        trip: int = 32,
        outer_iterations: int = 12,
        noise_branches: int = 1,
        noise_bias: float = 0.78,
    ) -> None:
        super().__init__(seed)
        if trip < 4:
            raise ValueError(f"trip count must be at least 4, got {trip}")
        self.trip = trip
        self.outer_iterations = outer_iterations
        self.noise_branches = noise_branches
        self.noise_bias = noise_bias
        # Row of outcomes for the previous outer iteration.  Out[N][M] is
        # previous_row[M-1]; a fresh random bit enters at M == 0.
        self.previous_row: List[bool] = _random_bits(self.rng, trip)

    def emit_round(self, emitter: KernelEmitter) -> None:
        noise = self._labels("noise", self.noise_branches)
        target, inner_back = self._label("target"), self._label("inner_back")
        outer_back = self._label("outer_back")
        for outer in range(self.outer_iterations):
            current_row: List[bool] = [False] * self.trip
            for inner in range(self.trip):
                if inner == 0:
                    outcome = self.rng.random() < 0.5
                else:
                    outcome = self.previous_row[inner - 1]
                current_row[inner] = outcome
                for label in noise:
                    emitter.branch(label, self.rng.random() < self.noise_bias)
                emitter.branch(target, outcome)
                emitter.loop_branch(inner_back, inner < self.trip - 1)
            self.previous_row = current_row
            emitter.loop_branch(outer_back, outer < self.outer_iterations - 1)


class AlternatingOuterKernel(Kernel):
    """Nested loop where the inner branch flips every outer iteration.

    ``Out[N][M] == not Out[N-1][M]``: the per-iteration pattern is inverted
    on every pass of the outer loop.  The paper identifies this as the MM-4
    behaviour that IMLI-SIC misses (the per-``M`` counter keeps flipping)
    but IMLI-OH and the wormhole predictor capture.
    """

    label_prefix = "alt"

    def __init__(
        self,
        seed: int,
        trip: int = 24,
        outer_iterations: int = 12,
        noise_branches: int = 1,
        noise_bias: float = 0.82,
    ) -> None:
        super().__init__(seed)
        if trip < 4:
            raise ValueError(f"trip count must be at least 4, got {trip}")
        self.trip = trip
        self.outer_iterations = outer_iterations
        self.noise_branches = noise_branches
        self.noise_bias = noise_bias
        self.pattern: List[bool] = _random_bits(self.rng, trip)
        self.parity = False

    def emit_round(self, emitter: KernelEmitter) -> None:
        noise = self._labels("noise", self.noise_branches)
        target, inner_back = self._label("target"), self._label("inner_back")
        outer_back = self._label("outer_back")
        for outer in range(self.outer_iterations):
            for inner in range(self.trip):
                outcome = self.pattern[inner] ^ self.parity
                for label in noise:
                    emitter.branch(label, self.rng.random() < self.noise_bias)
                emitter.branch(target, outcome)
                emitter.loop_branch(inner_back, inner < self.trip - 1)
            self.parity = not self.parity
            emitter.loop_branch(outer_back, outer < self.outer_iterations - 1)


class LocalPeriodicKernel(Kernel):
    """Branches with short per-branch periodic patterns hidden behind noise.

    Each target branch repeats a fixed pattern of period ``period`` (for
    example ``T T N T N``), while unrelated noisy branches execute in
    between.  A local-history component predicts these branches from their
    own history; global-history predictors are disturbed by the interleaved
    noise.  This is the branch class that motivates local history in
    TAGE-SC-L and FTL (Section 5 of the paper).
    """

    label_prefix = "local"

    def __init__(
        self,
        seed: int,
        branch_count: int = 4,
        period: int = 7,
        iterations_per_round: int = 28,
        noise_branches: int = 1,
        noise_bias: float = 0.8,
    ) -> None:
        super().__init__(seed)
        if branch_count < 1:
            raise ValueError(f"branch count must be positive, got {branch_count}")
        if period < 2:
            raise ValueError(f"period must be at least 2, got {period}")
        self.branch_count = branch_count
        self.period = period
        self.iterations_per_round = iterations_per_round
        self.noise_branches = noise_branches
        self.noise_bias = noise_bias
        self.patterns: List[List[bool]] = []
        for _ in range(branch_count):
            pattern = _random_bits(self.rng, period)
            # Avoid degenerate always-taken / never-taken patterns, which a
            # bimodal table would capture anyway.
            if all(pattern) or not any(pattern):
                pattern[0] = not pattern[0]
            self.patterns.append(pattern)
        self.positions: List[int] = [0] * branch_count

    def emit_round(self, emitter: KernelEmitter) -> None:
        noise = [
            self._labels(f"noise{branch_index}_", self.noise_branches)
            for branch_index in range(self.branch_count)
        ]
        targets = self._labels("target", self.branch_count)
        round_back = self._label("round_back")
        for _ in range(self.iterations_per_round):
            for branch_index in range(self.branch_count):
                for label in noise[branch_index]:
                    emitter.branch(label, self.rng.random() < self.noise_bias)
                pattern = self.patterns[branch_index]
                position = self.positions[branch_index]
                emitter.branch(targets[branch_index], pattern[position])
                self.positions[branch_index] = (position + 1) % self.period
            emitter.loop_branch(round_back, True)
        emitter.loop_branch(round_back, False)


class LoopExitKernel(Kernel):
    """Loops with a constant trip count and a noisy body.

    The only systematically mispredictable branch (for a global-history
    predictor) is the loop exit, once per loop execution.  A loop predictor
    counts iterations and removes that misprediction; IMLI-SIC does the same
    because the exit always happens at the same IMLI counter value.
    """

    label_prefix = "loopexit"

    def __init__(
        self,
        seed: int,
        trip: int = 40,
        executions_per_round: int = 8,
        noise_branches: int = 1,
        noise_bias: float = 0.88,
    ) -> None:
        super().__init__(seed)
        if trip < 4:
            raise ValueError(f"trip count must be at least 4, got {trip}")
        self.trip = trip
        self.executions_per_round = executions_per_round
        self.noise_branches = noise_branches
        self.noise_bias = noise_bias

    def emit_round(self, emitter: KernelEmitter) -> None:
        noise = self._labels("noise", self.noise_branches)
        back = self._label("back")
        for _ in range(self.executions_per_round):
            for inner in range(self.trip):
                for label in noise:
                    emitter.branch(label, self.rng.random() < self.noise_bias)
                emitter.loop_branch(back, inner < self.trip - 1)


class GlobalCorrelatedKernel(Kernel):
    """Branches whose outcome is a function of recent global history.

    A chain of ``depth`` moderately biased, data-dependent "source" branches
    is followed by several "sink" branches whose outcomes are boolean
    functions of the sources (copies, negations, parities).  Any
    global-history predictor with a few bits of history captures the sinks
    exactly; the sources themselves carry the (bounded) data-dependent
    noise.  This populates the large class of branches for which neither
    local history nor IMLI components matter.
    """

    label_prefix = "gcorr"

    def __init__(
        self,
        seed: int,
        depth: int = 2,
        sink_count: int = 4,
        groups_per_round: int = 120,
        source_bias: float = 0.85,
    ) -> None:
        super().__init__(seed)
        if depth < 1:
            raise ValueError(f"depth must be positive, got {depth}")
        if sink_count < 1:
            raise ValueError(f"sink count must be positive, got {sink_count}")
        if not 0.0 < source_bias < 1.0:
            raise ValueError(f"source bias must be in (0, 1), got {source_bias}")
        self.depth = depth
        self.sink_count = sink_count
        self.groups_per_round = groups_per_round
        self.source_bias = source_bias

    def emit_round(self, emitter: KernelEmitter) -> None:
        source_labels = self._labels("source", self.depth)
        sinks = self._labels("sink", self.sink_count)
        for _ in range(self.groups_per_round):
            sources: List[bool] = []
            for label in source_labels:
                outcome = self.rng.random() < self.source_bias
                sources.append(outcome)
                emitter.branch(label, outcome)
            parity = False
            for value in sources:
                parity ^= value
            for sink_index in range(self.sink_count):
                if sink_index % 3 == 0:
                    outcome = parity
                elif sink_index % 3 == 1:
                    outcome = sources[sink_index % self.depth]
                else:
                    outcome = not sources[sink_index % self.depth]
                emitter.branch(sinks[sink_index], outcome)


class BiasedMixKernel(Kernel):
    """A population of statically biased branches.

    Models the bulk of "easy" branches in real programs: error checks that
    almost never fire, bounds checks, mode flags.  Bimodal counters capture
    these; they mostly dilute MPKI and exercise table capacity.
    """

    label_prefix = "bias"

    def __init__(
        self,
        seed: int,
        branch_count: int = 24,
        executions_per_round: int = 40,
        minimum_bias: float = 0.93,
    ) -> None:
        super().__init__(seed)
        if branch_count < 1:
            raise ValueError(f"branch count must be positive, got {branch_count}")
        if not 0.5 <= minimum_bias <= 1.0:
            raise ValueError(f"minimum bias must be in [0.5, 1], got {minimum_bias}")
        self.branch_count = branch_count
        self.executions_per_round = executions_per_round
        self.biases: List[float] = []
        for _ in range(branch_count):
            bias = self.rng.uniform(minimum_bias, 0.995)
            if self.rng.random() < 0.5:
                bias = 1.0 - bias
            self.biases.append(bias)

    def emit_round(self, emitter: KernelEmitter) -> None:
        branches = list(zip(self._labels("b", self.branch_count), self.biases))
        for _ in range(self.executions_per_round):
            for label, bias in branches:
                emitter.branch(label, self.rng.random() < bias)


class NoiseKernel(Kernel):
    """Effectively random, data-dependent branches.

    These set an irreducible misprediction floor and model the
    hard-to-predict, uncorrelated branches present in every real workload.
    """

    label_prefix = "noise"

    def __init__(
        self,
        seed: int,
        branch_count: int = 6,
        executions_per_round: int = 60,
        taken_probability: float = 0.75,
    ) -> None:
        super().__init__(seed)
        if branch_count < 1:
            raise ValueError(f"branch count must be positive, got {branch_count}")
        if not 0.0 < taken_probability < 1.0:
            raise ValueError(
                f"taken probability must be in (0, 1), got {taken_probability}"
            )
        self.branch_count = branch_count
        self.executions_per_round = executions_per_round
        self.taken_probability = taken_probability

    def emit_round(self, emitter: KernelEmitter) -> None:
        labels = self._labels("n", self.branch_count)
        for _ in range(self.executions_per_round):
            for label in labels:
                emitter.branch(label, self.rng.random() < self.taken_probability)


def build_kernel(name: str, seed: int, **params: object) -> Kernel:
    """Construct a kernel by registry name (used by suite specifications)."""
    registry = {
        "same_iteration": SameIterationKernel,
        "wormhole_diagonal": WormholeDiagonalKernel,
        "alternating_outer": AlternatingOuterKernel,
        "local_periodic": LocalPeriodicKernel,
        "loop_exit": LoopExitKernel,
        "global_correlated": GlobalCorrelatedKernel,
        "biased_mix": BiasedMixKernel,
        "noise": NoiseKernel,
    }
    if name not in registry:
        raise KeyError(f"unknown kernel {name!r}; known: {sorted(registry)}")
    return registry[name](seed, **params)  # type: ignore[arg-type]


KERNEL_NAMES: Sequence[str] = (
    "same_iteration",
    "wormhole_diagonal",
    "alternating_outer",
    "local_periodic",
    "loop_exit",
    "global_correlated",
    "biased_mix",
    "noise",
)
