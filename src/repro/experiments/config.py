"""Experiment-level configuration.

The paper's protocol is 10 discovery runs × 20 measurement repetitions
over thread counts 1, 2, 4, 8.  ``REPRO_SCALE=quick`` (or
``--scale quick`` on the CLI) shrinks the protocol for fast smoke runs;
benches default to the full protocol.  :func:`default_config` is the
single factory both the CLI and the benchmark suite go through, so the
two can never drift apart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.api.types import PipelineConfig
from repro.clustering.simpoint import SimPointOptions
from repro.hw.measure import MeasurementProtocol

__all__ = [
    "ExperimentConfig",
    "default_config",
    "register_config_machines",
    "grid_machines",
    "SCALES",
]

#: Recognised protocol scales.
SCALES = ("full", "quick")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared parameters of the experiment drivers.

    Attributes
    ----------
    thread_counts:
        Team widths swept in Figure 2 (paper: 1, 2, 4, 8).
    discovery_runs / repetitions:
        The paper's 10-run discovery and 20-repetition measurement.
    seed:
        Root seed; the same seed reproduces every number exactly.
    cache_dir:
        Where the :class:`repro.exec.store.StudyStore` persists study
        cell payloads ('' disables the disk cache).
    simpoint / bbv_weight:
        Clustering options and BBV/LDV signature balance — part of the
        cache fingerprint, so changing e.g. ``max_k`` can never serve a
        stale summary.
    jobs:
        Study-graph execution: worker processes (1 runs every cell
        inline, see :class:`repro.exec.supervise.ProcessSupervision`).
        Execution-only — it affects neither any computed number nor the
        cache fingerprint.
    trace_accesses:
        Accesses per streamed-trace cell (the ``trace`` artefact).  Part
        of each trace request's identity (cache-addressed through the
        request params), scaled with the protocol: the quick grid stays
        smoke-test sized, the full grid runs paper-scale 10⁷-access
        streams out of core.
    machine_specs:
        Paths of ingested machine spec files (``repro machines ingest
        --save``; see :mod:`repro.hw.ingest`).  Loaded and registered by
        :func:`register_config_machines` — called by the CLI and at the
        top of every grid-cell executor, because worker processes start
        with only the built-in machines.
    machines:
        Extra machine names appended to the scaling/ranks/trace grids —
        the way ingested machines become first-class grid citizens.
        Names must be registered (built-in or via ``machine_specs``).
    faults:
        Fault-injection spec string (``"seed=7,kill=0.3,torn=0.2"``;
        see :class:`repro.exec.faults.FaultPlan`).  Execution-only by
        contract: an injected fault may make a cell *fail and retry*,
        never change what a successful cell computes — the chaos suite
        asserts byte-identity against fault-free runs.
    cell_retries / cell_timeout / retry_backoff:
        Per-cell supervision budget (see :mod:`repro.exec.supervise`):
        retries after the first attempt, per-attempt wall-clock seconds
        (0 disables) and the base backoff delay.  Execution-only.

    All four resilience knobs are deliberately outside
    :meth:`pipeline_config`, so they never enter the cache fingerprint:
    a chaos run and a fault-free run address the *same* cells.
    """

    thread_counts: tuple[int, ...] = (1, 2, 4, 8)
    discovery_runs: int = 10
    repetitions: int = 20
    seed: int = 2017
    cache_dir: str = ".repro-cache"
    simpoint: SimPointOptions = field(default_factory=SimPointOptions)
    bbv_weight: float = 0.5
    jobs: int = 1
    trace_accesses: int = 10_000_000
    machine_specs: tuple[str, ...] = ()
    machines: tuple[str, ...] = ()
    faults: str = ""
    cell_retries: int = 2
    cell_timeout: float = 0.0
    retry_backoff: float = 0.05

    def pipeline_config(self) -> PipelineConfig:
        """The per-configuration pipeline parameters."""
        return PipelineConfig(
            discovery_runs=self.discovery_runs,
            simpoint=self.simpoint,
            protocol=MeasurementProtocol(repetitions=self.repetitions),
            bbv_weight=self.bbv_weight,
            seed=self.seed,
        )


def register_config_machines(config: ExperimentConfig) -> None:
    """Register the config's ingested machine specs (idempotent).

    Every grid-cell executor calls this first: study cells run in
    worker processes whose registries hold only the built-in machines,
    and the spec files in ``config.machine_specs`` are how ingested
    machines travel across the process boundary.
    """
    if config.machine_specs:
        from repro.hw.ingest.spec import ensure_registered

        ensure_registered(config.machine_specs)


def grid_machines(
    config: ExperimentConfig, base: tuple[str, ...]
) -> tuple[str, ...]:
    """A grid's machine axis: the built-in base plus config extras."""
    return base + tuple(
        name for name in config.machines if name not in base
    )


def default_config(scale: str | None = None, **overrides) -> ExperimentConfig:
    """Build the configuration for one protocol scale.

    Parameters
    ----------
    scale:
        ``"full"`` (paper protocol) or ``"quick"`` (3 discovery runs,
        5 repetitions, thread counts 1 and 8).  None reads
        ``REPRO_SCALE`` from the environment, defaulting to ``full``.
        Both scales cluster with the same :class:`SimPointOptions`.
    overrides:
        Any :class:`ExperimentConfig` field, applied on top of the
        scale's base values (e.g. ``seed=7``, ``jobs=4``,
        ``cache_dir=''``, ``simpoint=SimPointOptions(max_k=10)``).
    """
    if scale is None:
        scale = os.environ.get("REPRO_SCALE", "full")
    scale = scale.lower()
    if scale == "quick":
        base = ExperimentConfig(
            thread_counts=(1, 8),
            discovery_runs=3,
            repetitions=5,
            trace_accesses=200_000,
        )
    elif scale == "full":
        base = ExperimentConfig()
    else:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return replace(base, **overrides) if overrides else base
