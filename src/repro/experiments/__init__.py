"""Experiment drivers: one module per paper artefact.

Each driver regenerates one table or figure from the paper's evaluation
(see ``docs/paper-map.md`` for the experiment index) and renders it as
an ASCII table/series.  Drivers *declare* the study cells they need
(:func:`requests`) and assemble artefacts from executed payloads
(:func:`build`); the :class:`~repro.exec.scheduler.StudyScheduler`
deduplicates cells shared between artefacts, executes them inline or
on a process pool and caches the payloads on disk.
"""

from repro.exec.request import StudyRequest
from repro.exec.scheduler import StudyScheduler
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.runner import StudySummary

__all__ = [
    "ExperimentConfig",
    "default_config",
    "StudyRequest",
    "StudyScheduler",
    "StudySummary",
]
