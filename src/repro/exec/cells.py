"""Cell executor registry.

Each :class:`~repro.exec.request.StudyRequest` kind maps to a pure
function ``executor(request, config) -> payload`` living next to the
experiment that owns the computation.  Executors return JSON-shaped
payloads (dicts/lists/numbers/strings only) so the scheduler can cache
them on disk and ship them across process boundaries without custom
picklers.

The registry stores dotted ``module:function`` paths and resolves them
lazily: experiment modules import the scheduler, so importing them
eagerly here would be circular, and worker processes resolve executors
on first use anyway.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable

from repro.exec.request import StudyRequest

__all__ = [
    "CELL_KINDS", "CELL_LEVEL_UNCACHED", "discovery_group", "resolve_executor",
    "execute_request",
]

#: kind → "module:function" executor address.
CELL_KINDS: dict[str, str] = {
    "crossarch": "repro.experiments.runner:crossarch_cell",
    "figure1": "repro.experiments.figure1:figure1_cell",
    "variability": "repro.experiments.variability:variability_cell",
    "limitations": "repro.experiments.limitations:limitation_cell",
    "coalesce": "repro.experiments.coalesce:coalesce_cell",
    "coretypes": "repro.experiments.coretypes:coretype_cell",
    "scaling": "repro.experiments.sweep:sweep_cell",
    "ranks": "repro.experiments.sweep:sweep_cell",
    "trace": "repro.experiments.trace:trace_cell",
}

#: Cell kinds excluded from the cell-level StudyStore.  Scaling and
#: rank cells are thin derivations over stage-cached artifacts: one
#: cell per (app, threads) or (app, ranks) measures every machine of the
#: grid, and its ``select`` and ``measure`` payloads are already
#: content-addressed in the StageStore (``select`` shared with the
#: crossarch cells' scalar half), so caching the derived rows a second
#: time would only duplicate bytes and hide the stage-cache traffic the
#: verbose report accounts for.  Their rows also follow the config's
#: ``machines``, which a cell digest does not name; the ``measure`` key
#: does.  Invariant: a cache-exempt cell reads
#: every number it reports from stage payloads, so a warm run executes
#: no trace and no perf model (a number a cell needs is recorded by the
#: stage that computes it, as ``measure`` records the rank cells'
#: communication cycles).
CELL_LEVEL_UNCACHED: frozenset[str] = frozenset({"scaling", "ranks"})


#: Kinds whose cells read one x86_64 discovery through the stage store:
#: the ``select`` entry of the discovery (``profile`` → ``cluster`` →
#: ``select``) of their (app, threads), or of their (app, threads,
#: ranks) for a rank cell — a crossarch cell stores its scalar one next
#: to its vectorised one.
_DISCOVERY: frozenset[str] = frozenset(
    {"crossarch", "coretypes", "figure1", "scaling", "ranks"}
)


def discovery_group(request: StudyRequest) -> tuple | None:
    """The cells ``request`` shares its discovery with, as a hashable key.

    Cells of one group read one stage-stored discovery (a rank cell's
    ``ranks`` param keeps it apart from a thread cell).  A pooled run
    holds all but one of them until that one has stored it.  Kinds that
    discover nothing through the store share none: ``None``.
    """
    if request.kind not in _DISCOVERY:
        return None
    return (request.app, request.threads, request.params)


_RESOLVED: dict[str, Callable] = {}


def resolve_executor(kind: str) -> Callable:
    """Import and memoise the executor function for one cell kind."""
    if kind not in _RESOLVED:
        try:
            address = CELL_KINDS[kind]
        except KeyError:
            known = ", ".join(sorted(CELL_KINDS))
            raise ValueError(f"unknown cell kind {kind!r} (known: {known})") from None
        module_name, _, func_name = address.partition(":")
        _RESOLVED[kind] = getattr(import_module(module_name), func_name)
    return _RESOLVED[kind]


def execute_request(request: StudyRequest, config):
    """Run one cell to completion and return its JSON payload."""
    return resolve_executor(request.kind)(request, config)
