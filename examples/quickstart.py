#!/usr/bin/env python
"""Quickstart: estimate a full application from its barrier points.

Runs the complete BarrierPoint workflow (Section V-A of the paper) on
miniFE with 8 threads: discover representative barrier points on the
x86_64 binary, measure them natively on both platforms, reconstruct the
whole-program counters and validate against the full run — assembled
through the stage-based ``repro.api``.

Usage::

    python examples/quickstart.py
"""

from repro import ISA, PMU_METRICS, PipelineConfig, build_pipeline, create


def main() -> None:
    app = create("miniFE")
    print(f"Application : {app.name} — {app.description}")
    print(f"Input       : {app.input_args}")

    # Assemble the five-stage graph: profile → signature → cluster →
    # select on x86_64, then measure (which also reconstructs and
    # validates) per target.
    pipeline = (
        build_pipeline(app, threads=8, config=PipelineConfig(discovery_runs=5))
        .on(ISA.X86_64, ISA.ARMV8)
        .build()
    )

    # Step 2: barrier point discovery & clustering (x86_64 only).
    selections = pipeline.discover()
    best = min(selections, key=lambda s: s.k)
    print(f"\nBarrier points  : {best.n_barrier_points} total")
    print(f"Selected        : {best.k} representatives "
          f"({100 * best.selected_instruction_fraction:.2f}% of instructions)")
    print(f"Speed-up        : {best.speedup:.0f}x "
          f"(largest barrier point {100 * best.largest_instruction_fraction:.2f}%)")

    # Steps 3-5: measure, reconstruct and validate — on both platforms,
    # through the same arithmetic the graph's measure stage runs.
    for isa in (ISA.X86_64, ISA.ARMV8):
        result = pipeline.evaluate(best, isa)
        errors = ", ".join(
            f"{metric}={result.report.error_pct(metric):.2f}%"
            for metric in PMU_METRICS
        )
        print(f"\n{result.label:8s}: {errors}")

    print(
        "\nThe x86_64-discovered representatives transfer to ARMv8 — the "
        "paper's cross-architectural result."
    )


if __name__ == "__main__":
    main()
