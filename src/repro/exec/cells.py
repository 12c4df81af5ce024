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
#: rank cells are thin derivations over stage-cached artifacts: the
#: expensive stages (profile/rankify → measure) are already
#: content-addressed in the StageStore and *shared* across the grid
#: (three machines per (app, threads) or (app, ranks), plus the
#: crossarch cells' scalar half), so caching the derived payload a
#: second time would only duplicate bytes and hide the stage-cache
#: traffic the verbose report accounts for.  Invariant: a cache-exempt
#: cell reads every number it reports from stage payloads, so a warm
#: run executes no trace and no perf model (a number a cell needs is
#: recorded by the stage that computes it, as ``measure`` records the
#: rank cells' communication cycles).
CELL_LEVEL_UNCACHED: frozenset[str] = frozenset({"scaling", "ranks"})


#: kind → the discovery its cells read through the stage store.  Every
#: listed kind but ``ranks`` reads the scalar x86_64 discovery
#: (``profile`` → ``cluster`` → ``select``) of its (app, threads) —
#: a crossarch cell stores it next to its vectorised one — and a rank
#: cell reads the ``rankify`` discovery of its (app, threads, ranks).
_DISCOVERY: dict[str, str] = {
    "crossarch": "x86_64",
    "coretypes": "x86_64",
    "figure1": "x86_64",
    "scaling": "x86_64",
    "ranks": "rankify",
}


def discovery_group(request: StudyRequest) -> tuple | None:
    """The cells ``request`` shares its discovery with, as a hashable key.

    Cells of one group read one stage-stored discovery (a sweep cell's
    ``machine`` param names only where it is evaluated).  A pooled run
    holds all but one of them until that one has stored it.  Kinds that
    discover nothing through the store share none: ``None``.
    """
    discovery = _DISCOVERY.get(request.kind)
    if discovery is None:
        return None
    params = tuple(item for item in request.params if item[0] != "machine")
    return (discovery, request.app, request.threads, params)


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
