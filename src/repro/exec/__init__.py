"""Study-graph execution engine.

The experiment layer used to walk its study cells serially and
imperatively; this package turns the sweep inside out.  Experiments
*declare* the cells they need as :class:`~repro.exec.request.StudyRequest`
values, and the :class:`~repro.exec.scheduler.StudyScheduler` deduplicates
cells shared across experiments, executes the misses inline or on a
process pool (``--jobs`` workers), and persists every result in a
content-addressed, atomically-written cache store.

Because all randomness flows through path-addressed
:class:`~repro.util.rng.RngTree` streams, a cell's result is independent
of where and in what order it executes: parallel runs are bit-identical
to serial ones.
"""

from repro.exec.request import StudyRequest
from repro.exec.scheduler import SchedulerStats, StudyScheduler
from repro.exec.store import StudyStore, config_fingerprint

__all__ = [
    "StudyRequest",
    "SchedulerStats",
    "StudyScheduler",
    "StudyStore",
    "config_fingerprint",
]
