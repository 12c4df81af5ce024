"""Command-line entry point: ``repro <experiment>``.

Regenerates any of the paper's tables/figures from the terminal::

    repro table1          # applications (Table I)
    repro table2          # machines (Table II)
    repro table3          # barrier points per app (Table III)
    repro table4          # 8-thread errors and speed-ups (Table IV)
    repro figure1         # MCB phase drift (Figure 1)
    repro figure2         # error grid behind Figures 2a-2g
    repro variability     # Section V-C variability/overhead
    repro limitations     # Section V-B applicability
    repro coalesce        # future work: barrier-point coalescing
    repro coretypes       # future work: in-order vs out-of-order
    repro scaling         # strong-scaling grid: threads x machines
    repro ranks           # distributed-memory grid: ranks x machines
    repro trace           # streamed exact traces (out-of-core tiles)
    repro all             # every artefact from one scheduled pass
    repro workloads       # registered workload plugins
    repro machines        # registered machine plugins
    repro machines ingest # ingest a captured host (or '-' for live /sys)
    repro stages          # registered pipeline stages
    repro serve           # always-on artifact service (JSON over HTTP)
    repro client          # command-line client for a running daemon
    repro lint            # RPR invariant checker (static analysis)
    repro chaos           # seeded fault-injection run (resilience drill)

``--scale quick`` (or the ``--quick`` shorthand) shrinks the protocol
(3 discovery runs, 5 repetitions) for a fast look; the default
reproduces the paper's 10 × 20 protocol.  Independent study cells fan
out over one worker process per CPU the process may run on, as many as
the available memory holds at full scale's per-worker peak; ``--jobs
N`` sets the worker count (``--jobs 1`` runs serially, in this
process).  That default belongs to the ``repro`` command: a Python
caller of :func:`main` that passes ``argv`` runs serially unless it
passes ``--jobs``.  Results are bit-identical regardless of worker
count.  ``repro all`` deduplicates cells shared between artefacts —
Table III, Table IV and Figure 2 reuse the same studies — and renders
everything from a single scheduled pass.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.exec.scheduler import StudyScheduler
from repro.exec.store import ArtifactStore
from repro.exec.supervise import QuarantinedCellError
from repro.experiments import (
    coalesce,
    coretypes,
    figure1,
    figure2,
    limitations,
    table1,
    table2,
    table3,
    table4,
    trace,
    variability,
)
from repro.experiments.config import SCALES, default_config
from repro.experiments.sweep import ranks, scaling

__all__ = ["main"]

#: Render order of ``repro all`` (the paper's artefact order).
_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "figure1": figure1,
    "figure2": figure2,
    "variability": variability,
    "limitations": limitations,
    "coalesce": coalesce,
    "coretypes": coretypes,
    "scaling": scaling,
    "ranks": ranks,
    "trace": trace,
}


#: Peak RSS of one worker, rounded up from the heaviest process of a
#: cold ``all --scale full`` (279 MiB: a worker running the 10**7-access
#: ``trace`` cells; the heaviest discovery cell, 8-rank LULESH, peaks
#: at 101 MiB); the command's default worker count never plans more of
#: them than the available memory.
_WORKER_PEAK_BYTES = 320 * 2**20


def _available_memory() -> int | None:
    """``MemAvailable`` of ``/proc/meminfo`` in bytes; None where unreadable."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _default_jobs() -> int:
    """The ``repro`` command's ``--jobs`` default.

    One worker per CPU this process may run on, at most one per
    :data:`_WORKER_PEAK_BYTES` of available memory, and at least one.
    """
    try:
        jobs = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        jobs = os.cpu_count() or 1
    available = _available_memory()
    if available is not None:
        jobs = min(jobs, available // _WORKER_PEAK_BYTES)
    return max(1, jobs)


def _build_parser(jobs_default: int = 1) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of the cross-architectural "
        "BarrierPoint paper (ISPASS 2017).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all", "workloads", "machines", "stages"],
        help="which artefact to regenerate ('all' renders every one); "
        "'workloads'/'machines'/'stages' list the registered plugins",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default=None,
        help="protocol scale (default: $REPRO_SCALE, else 'full')",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --scale quick (3 discovery runs, 5 repetitions)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="root random seed (default 2017)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=jobs_default,
        metavar="N",
        help="study cells executed concurrently (default: one per usable "
        "CPU, bounded by available memory, here %(default)s; 1 runs "
        "serially)",
    )
    parser.add_argument(
        "--backend",
        choices=("processes", "serial"),
        default="processes",
        help="'serial' is shorthand for --jobs 1; 'processes' (the "
        "default) leaves --jobs as it is",
    )
    parser.add_argument(
        "--max-k",
        type=int,
        default=None,
        metavar="K",
        help="cap the SimPoint cluster sweep (default 20, minimum 2); "
        "changing it re-runs discovery and every stage after it",
    )
    parser.add_argument(
        "--trace-accesses",
        type=int,
        default=None,
        metavar="N",
        help="accesses per streamed-trace cell (default: 10^7 at full "
        "scale, 200k at quick scale)",
    )
    parser.add_argument(
        "--machine-spec",
        action="append",
        default=None,
        metavar="PATH",
        dest="machine_specs",
        help="register an ingested machine spec file (repeatable; see "
        "'repro machines ingest --save')",
    )
    parser.add_argument(
        "--machines",
        default=None,
        metavar="NAME[,NAME...]",
        help="extra machine names appended to the scaling/ranks/trace "
        "grids (must be registered, e.g. via --machine-spec)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk study cache"
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject a seeded fault schedule, e.g. "
        "'seed=7,kill=0.3,torn=0.2' (keys: seed, kill, exc, torn, "
        "enospc, latency, latency_rate, max); results stay "
        "byte-identical to a fault-free run",
    )
    parser.add_argument(
        "--cell-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per failed cell before quarantine (default 2)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; overrunning workers are "
        "killed and the cell retried (0 disables, the default)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print scheduler statistics to stderr",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage wall-time / bytes-encoded / bytes-decoded "
        "table after the run (backed by the stage store's counters)",
    )
    return parser


def _config_from_args(args: argparse.Namespace):
    if args.quick and args.scale == "full":
        raise SystemExit("error: --quick conflicts with --scale full")
    scale = "quick" if args.quick else args.scale
    jobs = 1 if args.backend == "serial" else args.jobs
    overrides: dict[str, object] = {"jobs": jobs}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.no_cache:
        overrides["cache_dir"] = ""
    if getattr(args, "trace_accesses", None) is not None:
        if args.trace_accesses < 0:
            raise SystemExit(
                f"error: --trace-accesses must be >= 0, got {args.trace_accesses}"
            )
        overrides["trace_accesses"] = args.trace_accesses
    if getattr(args, "machine_specs", None):
        overrides["machine_specs"] = tuple(args.machine_specs)
    if getattr(args, "machines", None):
        overrides["machines"] = tuple(
            name.strip() for name in args.machines.split(",") if name.strip()
        )
    if getattr(args, "faults", None):
        from repro.exec.faults import FaultPlan

        try:
            FaultPlan.parse(args.faults)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        overrides["faults"] = args.faults
    if getattr(args, "cell_retries", None) is not None:
        if args.cell_retries < 0:
            raise SystemExit(
                f"error: --cell-retries must be >= 0, got {args.cell_retries}"
            )
        overrides["cell_retries"] = args.cell_retries
    if getattr(args, "cell_timeout", None) is not None:
        if args.cell_timeout < 0:
            raise SystemExit(
                f"error: --cell-timeout must be >= 0, got {args.cell_timeout}"
            )
        overrides["cell_timeout"] = args.cell_timeout
    if getattr(args, "max_k", None) is not None:
        from repro.clustering.simpoint import SimPointOptions

        # Both scales share the default options, so the cap is all
        # that --max-k changes.
        overrides["simpoint"] = SimPointOptions(max_k=args.max_k)
    return default_config(scale, **overrides)


def _print_registry(which: str) -> None:
    """List one plugin registry."""
    from repro.api.registry import (
        machine_registry,
        stage_registry,
        workload_registry,
    )

    registry = {
        "workloads": workload_registry,
        "machines": machine_registry,
        "stages": stage_registry,
    }[which]
    ordered = registry.names()
    if registry is workload_registry:
        # Preserve Table I order, then any third-party registrations.
        from repro.workloads.registry import TABLE1_ORDER

        ordered = TABLE1_ORDER + tuple(
            name for name in ordered if name not in TABLE1_ORDER
        )
    entries = [registry.entry(name) for name in ordered]
    width = max(len(entry.name) for entry in entries)
    for entry in entries:
        print(f"{entry.name:{width}s}  {entry.description}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Run as the ``repro`` command (``argv`` None, read from
    ``sys.argv``), ``--jobs`` defaults to :func:`_default_jobs`.  A
    Python caller that passes ``argv`` keeps ``ExperimentConfig``'s
    serial default: whatever observes it in-process (test doubles, a
    tracer wrapping entry points) sees no worker process.
    """
    command = argv is None
    if command:
        argv = sys.argv[1:]
    # The serve/client/lint subcommands have their own option namespaces
    # (ports, budgets, baselines...), so they dispatch before the
    # experiment parser.
    if argv and argv[0] in ("serve", "client"):
        from repro.serve.cli import client_main, serve_main

        runner = serve_main if argv[0] == "serve" else client_main
        return runner(argv[1:])
    if argv and argv[0] == "lint":
        from repro.lint.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.exec.chaos import chaos_main

        return chaos_main(argv[1:])
    if argv[:2] == ["machines", "ingest"]:
        from repro.hw.ingest.cli import ingest_main

        return ingest_main(argv[2:])

    args = _build_parser(_default_jobs() if command else 1).parse_args(argv)

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    if args.max_k is not None and args.max_k < 2:
        # SimPoint caps its k grid at max(n_points // 2, 1), so maxK = 1
        # silently degenerates to a single-cluster sweep: every barrier
        # point lands in one cluster and the "selection" is one
        # representative with a multiplier covering the whole region —
        # technically valid output, practically a confusing non-result.
        # Reject it up front instead.
        print(
            f"error: --max-k must be >= 2, got {args.max_k} (a one-cluster "
            "sweep selects a single representative for the whole region, "
            "which defeats the methodology)",
            file=sys.stderr,
        )
        return 2

    if args.experiment in ("workloads", "machines", "stages"):
        _print_registry(args.experiment)
        return 0

    config = _config_from_args(args)

    if config.machine_specs or config.machines:
        # Fail fast on a bad spec path or a typo'd machine name before
        # any cell is scheduled; the executors re-register in workers.
        from repro.api.registry import machine_registry
        from repro.experiments.config import register_config_machines

        try:
            register_config_machines(config)
            for name in config.machines:
                machine_registry.get(name)
        except (OSError, ValueError, KeyError) as exc:
            # str(KeyError) wraps the name in quotes; str(OSError) keeps
            # the filename, which args[0] (the bare errno) would lose.
            message = exc.args[0] if isinstance(exc, KeyError) else exc
            print(f"error: {message}", file=sys.stderr)
            return 2

    if config.cache_dir:
        stale = ArtifactStore(config.cache_dir).prune()
        if stale and args.verbose:
            print("[cache] removed stale layouts:", *(f"{name}/" for name in stale),
                  file=sys.stderr)

    scheduler = StudyScheduler(config)
    code = 0
    try:
        if args.experiment == "all":
            # One deduplicated scheduled pass over every artefact's
            # cells, then render each artefact from the shared results.
            requests = []
            for module in _EXPERIMENTS.values():
                if hasattr(module, "requests"):
                    requests.extend(module.requests(config))
            scheduler.run(requests)
            renders = [
                module.run(config, scheduler=scheduler)
                if hasattr(module, "requests")
                else module.run(config)
                for module in _EXPERIMENTS.values()
            ]
            print("\n\n".join(result.render() for result in renders))
        else:
            module = _EXPERIMENTS[args.experiment]
            if hasattr(module, "requests"):
                result = module.run(config, scheduler=scheduler)
            else:
                result = module.run(config)
            print(result.render())
    except QuarantinedCellError as exc:
        # Every other cell finished (and is stored, unless --no-cache);
        # the counters below say how the run got here.
        print(f"error: {exc}", file=sys.stderr)
        code = 1

    if args.verbose or args.profile:
        from repro.exec.stagestore import stage_store_for

        # Worker-process counter deltas are merged back into this
        # process's store by the scheduler, so the stage-cache summary
        # and the profile table are accurate at every worker count.
        stats = stage_store_for(config).stats
        if args.verbose:
            supervision = scheduler.supervision
            print(
                f"[scheduler] {supervision.name} × {supervision.jobs}: "
                f"{scheduler.stats.describe()}",
                file=sys.stderr,
            )
            print(f"[stage-cache] {stats.describe()}", file=sys.stderr)
        if args.profile:
            print()
            print(stats.profile_table())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
