#!/usr/bin/env python
"""Perf gate: fail when a fresh bench report regresses past tolerance.

Compares a freshly generated bench report against the committed
baseline at the repository root and exits non-zero if any gated metric
regressed by more than the tolerance (default 25%, the CI contract).
Two suites are gated, selected by ``--suite`` (or inferred from the
candidate report's ``bench`` field):

``scaling-grid`` (baseline ``BENCH_bench_scaling_grid.json``)::

    grid.cold_seconds / grid.warm_seconds              lower is better
    kernels.*.seconds_per_run / *.seconds_per_sweep    lower is better
    kernels.*.accesses_per_second / *_mib_per_second   higher is better

``serve`` (baseline ``BENCH_serve.json``)::

    serve.cold_seconds / serve.warm_get_p{50,99}_ms    lower is better
    serve.*_requests_per_second                        higher is better

Every gated metric carries an explicit ``higher_is_better`` direction —
a served-throughput metric (requests/second) must gate on *drops*, a
latency metric on *rises*; mixing the two up would wave regressions
through while failing improvements.

Absolute wall times are machine-dependent, so both reports carry a
``meta.calibration_score`` (a fixed numpy workload timed on the same
host, higher = faster): seconds-like metrics are normalised to
machine-invariant work units (``seconds * score``) and throughputs to
``value / score`` before comparing, which keeps a baseline committed
from one machine meaningful on a differently-sized CI runner.  On top
of that the tolerance is generous — the gate is meant to catch *step*
regressions (an accidental re-serialisation, a vectorised path falling
back to scalar, a serialised coalescer), not 5% noise.  Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_bench_scaling_grid.json \
        --candidate bench-scaling-grid.json [--tolerance 0.25]
    python benchmarks/check_regression.py --suite serve \
        --candidate bench-serve.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Per-suite gated metrics: (dotted path, higher_is_better).
GATED_SUITES = {
    "scaling-grid": (
        ("grid.cold_seconds", False),
        ("grid.warm_seconds", False),
        ("kernels.bbv_collect.seconds_per_run", False),
        ("kernels.simpoint_sweep.seconds_per_sweep", False),
        ("kernels.cache_lockstep.accesses_per_second", True),
        ("kernels.payload_codec.encode_mib_per_second", True),
        ("kernels.payload_codec.decode_mib_per_second", True),
        ("kernels.reuse_distances.accesses_per_second", True),
        ("kernels.reuse_streamed.accesses_per_second", True),
        ("kernels.cache_tiled.accesses_per_second", True),
    ),
    "serve": (
        ("serve.cold_seconds", False),
        ("serve.warm_get_p50_ms", False),
        ("serve.warm_get_p99_ms", False),
        ("serve.warm_requests_per_second", True),
        ("serve.coalesced_requests_per_second", True),
        ("serve.distinct_requests_per_second", True),
    ),
}

#: Committed baseline file per suite (repository root).
SUITE_BASELINES = {
    "scaling-grid": "BENCH_bench_scaling_grid.json",
    "serve": "BENCH_serve.json",
}

#: Back-compat alias: the original single-suite constant.
GATED_METRICS = GATED_SUITES["scaling-grid"]


def _lookup(report: dict, dotted: str):
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check(
    baseline: dict,
    candidate: dict,
    tolerance: float,
    metrics: tuple = GATED_METRICS,
) -> tuple[list[str], list[str]]:
    """``(failures, warnings)``: gate failures and skipped-metric notes.

    A gated metric present in only one report is *warned about and
    skipped*, never fatal: a PR that adds a new microbench must be able
    to land before the committed baseline knows about it (the baseline
    catches up when it is regenerated), and an old candidate must stay
    comparable against a newer baseline.
    """
    base_score = _lookup(baseline, "meta.calibration_score")
    cand_score = _lookup(candidate, "meta.calibration_score")
    # Host-speed normalisation factor applied to the candidate; 1.0
    # (raw comparison) when either report predates the calibration.
    speed_ratio = (
        cand_score / base_score if base_score and cand_score else 1.0
    )

    failures = []
    warnings = []
    for dotted, higher_is_better in metrics:
        base = _lookup(baseline, dotted)
        cand = _lookup(candidate, dotted)
        if base is None or cand is None or not base:
            if base is None and cand is not None:
                warnings.append(
                    f"{dotted}: absent from baseline (new metric?) — "
                    "skipped; regenerate the committed baseline to gate it"
                )
            elif base is not None and cand is None:
                warnings.append(
                    f"{dotted}: absent from candidate — skipped"
                )
            continue  # metric absent in one report: not comparable
        if higher_is_better:
            # Throughput on a host `speed_ratio`× as fast should be
            # `speed_ratio`× the baseline's; compare in baseline units.
            regression = (base - cand / speed_ratio) / base
        else:
            regression = (cand * speed_ratio - base) / base
        if regression > tolerance:
            failures.append(
                f"{dotted}: {base} -> {cand} "
                f"(host-normalised {regression * 100.0:+.1f}% worse, "
                f"speed ratio {speed_ratio:.2f}, tolerance "
                f"{tolerance * 100.0:.0f}%)"
            )
    return failures, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=sorted(GATED_SUITES),
        default=None,
        help="metric suite (default: the candidate report's 'bench' field, "
        "else scaling-grid)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline report (default: the suite's file at the "
        "repository root)",
    )
    parser.add_argument("--candidate", default="bench-scaling-grid.json")
    parser.add_argument("--tolerance", type=float, default=0.25)
    args = parser.parse_args(argv)

    candidate = json.loads(Path(args.candidate).read_text())
    suite = args.suite or candidate.get("bench", "scaling-grid")
    if suite not in GATED_SUITES:
        print(
            f"error: unknown suite {suite!r} (known: "
            f"{', '.join(sorted(GATED_SUITES))})",
            file=sys.stderr,
        )
        return 2
    baseline_path = args.baseline or str(
        Path(__file__).resolve().parent.parent / SUITE_BASELINES[suite]
    )
    baseline = json.loads(Path(baseline_path).read_text())
    if baseline.get("meta", {}).get("scale") != candidate.get("meta", {}).get("scale"):
        print(
            "error: baseline and candidate were run at different scales "
            f"({baseline.get('meta', {}).get('scale')!r} vs "
            f"{candidate.get('meta', {}).get('scale')!r})",
            file=sys.stderr,
        )
        return 2

    metrics = GATED_SUITES[suite]
    failures, warnings = check(baseline, candidate, args.tolerance, metrics)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    if failures:
        print(f"perf gate FAILED ({suite}):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    compared = len(metrics) - len(warnings)
    print(
        f"perf gate ({suite}) passed ({compared} metrics within "
        f"{args.tolerance * 100.0:.0f}% of baseline"
        + (f", {len(warnings)} skipped" if warnings else "")
        + ")"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
