"""``repro chaos`` — a seeded fault-injection drill with a verdict.

Runs one artefact grid twice in throwaway cache directories: once
fault-free (the reference) and once under a seeded
:class:`~repro.exec.faults.FaultPlan`, with per-cell supervision doing
the surviving.  The drill then gates on the property the whole
resilience plane exists to uphold: **the chaos run's rendered artefact
is byte-identical to the fault-free run's**, faults may cost retries
but never change a number.  The report shows what the run survived —
injected-fault firings, retries, pool respawns, self-heals, quarantines
— so CI can additionally gate on "the drill actually drilled"
(nonzero fault/retry counters).

Exit status: 0 when byte-identity holds and nothing was quarantined,
1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro.exec.faults import FaultPlan, install_plan, reset_fault_state

__all__ = ["chaos_main", "DEFAULT_FAULTS"]

#: The default drill: every fault class armed, seeded, one firing per
#: (site, key) so the schedule is convergent under the default retry
#: budget.
DEFAULT_FAULTS = "seed=2017,kill=0.4,exc=0.4,torn=0.4,enospc=0.2,max=1"


def _build_parser() -> argparse.ArgumentParser:
    from repro.cli import _EXPERIMENTS  # lazy: repro.cli dispatches to us
    from repro.experiments.config import SCALES

    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Run one artefact grid under a seeded fault schedule "
        "and verify the output is byte-identical to a fault-free run.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="figure2",
        choices=sorted(name for name, mod in _EXPERIMENTS.items() if hasattr(mod, "requests")),
        help="which grid to drill (default: figure2)",
    )
    parser.add_argument(
        "--faults",
        default=DEFAULT_FAULTS,
        metavar="SPEC",
        help=f"fault schedule (default: {DEFAULT_FAULTS})",
    )
    parser.add_argument("--scale", choices=SCALES, default=None)
    parser.add_argument(
        "--quick", action="store_true", help="shorthand for --scale quick"
    )
    parser.add_argument("--seed", type=int, default=None, help="protocol seed")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument(
        "--cell-retries", type=int, default=None, metavar="N",
        help="retries per failed cell before quarantine (default 2)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="root for the drill's two cache areas (default: a "
        "temporary directory, removed afterwards)",
    )
    return parser


def _run_once(experiment: str, config):
    """Render one artefact under ``config``.

    Returns ``(text, scheduler, quarantine_error)`` — the scheduler
    comes back even when the run quarantined, so the drill report can
    show how far supervision got before giving up.
    """
    from repro.cli import _EXPERIMENTS
    from repro.exec.scheduler import StudyScheduler
    from repro.exec.supervise import QuarantinedCellError

    reset_fault_state()
    install_plan(None)
    scheduler = StudyScheduler(config)
    text, error = None, None
    try:
        result = _EXPERIMENTS[experiment].run(config, scheduler=scheduler)
        text = result.render()
    except QuarantinedCellError as exc:
        error = exc
    finally:
        install_plan(None)
    return text, scheduler, error


def chaos_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro chaos``; returns a process exit code."""
    from repro.exec.health import FAULTS, HEALS
    from repro.experiments.config import default_config

    args = _build_parser().parse_args(argv)
    if args.quick and args.scale == "full":
        print("error: --quick conflicts with --scale full", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.cell_retries is not None and args.cell_retries < 0:
        print(
            f"error: --cell-retries must be >= 0, got {args.cell_retries}",
            file=sys.stderr,
        )
        return 2
    try:
        plan = FaultPlan.parse(args.faults)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not plan.active:
        print("error: the fault spec never fires; nothing to drill", file=sys.stderr)
        return 2

    scale = "quick" if args.quick else args.scale
    overrides: dict[str, object] = {"jobs": args.jobs}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.cell_retries is not None:
        overrides["cell_retries"] = args.cell_retries

    keep_dir = args.cache_dir is not None
    root = Path(args.cache_dir) if keep_dir else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    try:
        clean_config = default_config(
            scale, cache_dir=str(root / "clean"), **overrides
        )
        chaos_config = default_config(
            scale, cache_dir=str(root / "chaos"), faults=args.faults, **overrides
        )
        print(f"chaos drill: {args.experiment} (plan {plan.spec()})")
        reference, _, clean_error = _run_once(args.experiment, clean_config)
        if clean_error is not None:  # pragma: no cover - broken baseline
            print(f"FAIL: fault-free reference run failed: {clean_error}", file=sys.stderr)
            return 1
        # The tallies are process-wide: report what the chaos run added.
        faults_before, heals_before = Counter(FAULTS), Counter(HEALS)
        survived, scheduler, quarantined_error = _run_once(
            args.experiment, chaos_config
        )

        stats = scheduler.stats
        fired = " ".join(
            f"{site}:{count}" for site, count in sorted((FAULTS - faults_before).items())
        )
        heals = " ".join(
            f"{site}:{count}" for site, count in sorted((HEALS - heals_before).items())
        )
        print(f"injected faults: {fired or 'none fired'}")
        print(f"self-heals: {heals or 'none'}")
        print(
            f"survival: {stats.executed} executed, {stats.retries} retries, "
            f"{stats.respawns} respawns, {stats.timeouts} timeouts, "
            f"{stats.quarantined} quarantined, "
            f"{stats.store_failures} store-failures"
        )
        if quarantined_error is not None:
            print(f"FAIL: {quarantined_error}", file=sys.stderr)
            return 1
        if survived != reference:
            print(
                "FAIL: chaos output diverged from the fault-free reference",
                file=sys.stderr,
            )
            return 1
        print("byte-identity vs fault-free run: OK")
        return 0
    finally:
        if not keep_dir:
            import shutil

            shutil.rmtree(root, ignore_errors=True)
