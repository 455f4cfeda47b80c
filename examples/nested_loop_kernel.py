"""The Figure-1 scenario: branches inside a two-dimensional loop nest.

This example builds the two loop-nest kernels the paper analyses --
same-iteration correlation (``Out[N][M] == Out[N-1][M]``) and wormhole
correlation (``Out[N][M] == Out[N-1][M-1]``) -- and shows:

* how the IMLI counter tracks the inner-most loop iteration at fetch time;
* which predictor component captures which kernel: IMLI-SIC for the first,
  IMLI-OH (and the wormhole predictor) for the second;
* that the wormhole predictor goes blind when the trip count varies while
  IMLI-SIC does not (Section 4.2.2 of the paper).

Run with::

    python examples/nested_loop_kernel.py
"""

from __future__ import annotations

from repro import Experiment, PredictorSpec
from repro.analysis.tables import format_table
from repro.core import IMLIState
from repro.trace import Trace
from repro.trace.stats import compute_statistics
from repro.workloads import KernelEmitter, SameIterationKernel, WormholeDiagonalKernel


def build_trace(kernel, rounds: int, name: str) -> Trace:
    emitter = KernelEmitter(base_pc=0x8000, instruction_gap=9)
    for _ in range(rounds):
        kernel.emit_round(emitter)
    return Trace(name=name, records=emitter.drain())


def show_imli_counter(trace: Trace) -> None:
    """Print the IMLI counter for the first few inner-loop iterations."""
    imli = IMLIState()
    samples = []
    for record in trace.records[:60]:
        if record.is_conditional:
            samples.append((hex(record.pc), "backward" if record.is_backward else "forward",
                            "T" if record.taken else "N", imli.count))
            imli.observe(record.is_backward, record.taken)
    print(format_table(
        ["pc", "kind", "outcome", "IMLI count at fetch"],
        samples[:18],
        title="IMLI counter tracking (first inner-loop iterations)",
    ))
    print()


def evaluate(trace: Trace, configurations) -> None:
    """Run the configurations over one hand-built trace (no suite needed)."""
    stats = compute_statistics(trace)
    print(f"trace {trace.name}: {stats.conditional_branches} conditional branches, "
          f"mean inner-loop trip count {stats.mean_inner_loop_trip_count:.1f}")
    specs = [PredictorSpec.from_named(c, profile="small") for c in configurations]
    results = Experiment(specs, traces=[trace], profile="small").run()
    rows = []
    for spec in specs:
        result = results.run_for(spec.label).result_for(trace.name)
        rows.append((spec.label, result.mpki, f"{100 * result.accuracy:.1f} %"))
    print(format_table(["configuration", "MPKI", "accuracy"], rows))
    print()


def main() -> None:
    same_iteration = build_trace(
        SameIterationKernel(seed=1, max_trip=32, outer_iterations=20,
                            variable_trip=True, noise_branches=1),
        rounds=3, name="same-iteration (variable trip count)",
    )
    wormhole = build_trace(
        WormholeDiagonalKernel(seed=2, trip=24, outer_iterations=40, noise_branches=1),
        rounds=2, name="wormhole diagonal (constant trip count)",
    )

    show_imli_counter(same_iteration)

    print("=== Same-iteration correlation: IMLI-SIC captures it, WH cannot ===")
    evaluate(same_iteration, ["tage-gsc", "tage-gsc+sic", "tage-gsc+wh", "tage-gsc+imli"])

    print("=== Wormhole correlation: IMLI-OH and WH both capture it ===")
    evaluate(wormhole, ["gehl", "gehl+oh", "gehl+wh", "gehl+imli"])


if __name__ == "__main__":
    main()
