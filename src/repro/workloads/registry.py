"""Workload registry (Table I).

Importing this module registers the eleven Table I applications into
the open :data:`repro.api.registry.workload_registry` (each class
carries an ``@register_workload`` decorator); third-party workloads
register the same way without touching this file.  The module keeps the
paper-facing views: Table I's ordering, the evaluation subsets used
throughout Section VI — the seven applications that pass the early
workflow stages, the six that validate within 5%, and the limitation
groups — and the :func:`create` helper, whose lookup is
case-insensitive and suggests the closest name on a miss (Table I
prints ``miniFE``; ``create("minife")`` should not fail opaquely).
"""

from __future__ import annotations

from repro.api.registry import workload_registry
from repro.workloads import (  # noqa: F401  (imported for registration)
    amgmk,
    comd,
    graph500,
    hpcg,
    hpgmg,
    lulesh,
    mcb,
    minife,
    montecarlo,
    pathfinder,
)
from repro.workloads.base import ProxyApp

__all__ = [
    "TABLE1_ORDER",
    "EVALUATED_APPS",
    "ACCURATE_APPS",
    "SINGLE_REGION_APPS",
    "FINE_GRAINED_APPS",
    "create",
    "all_apps",
]

#: Table I's print order (registration order is import order, which is
#: alphabetical by module; the paper's table is not).
TABLE1_ORDER = (
    "AMGMk",
    "CoMD",
    "graph500",
    "HPCG",
    "HPGMG-FV",
    "LULESH",
    "MCB",
    "miniFE",
    "PathFinder",
    "RSBench",
    "XSBench",
)

#: The seven applications that pass the first workflow stages
#: (Section VI: the single-region trio is excluded, HPGMG-FV is dropped
#: for overhead/mismatch).
EVALUATED_APPS = ("AMGMk", "CoMD", "graph500", "HPCG", "LULESH", "MCB", "miniFE")

#: The six applications with errors below 5% for all metrics.
ACCURATE_APPS = ("AMGMk", "CoMD", "graph500", "HPCG", "MCB", "miniFE")

#: Embarrassingly parallel applications: one barrier point, no gain.
SINGLE_REGION_APPS = ("PathFinder", "RSBench", "XSBench")

#: Applications with too many short regions (overhead-dominated).
FINE_GRAINED_APPS = ("HPGMG-FV", "LULESH")


def create(name: str) -> ProxyApp:
    """Instantiate a workload by its Table I name.

    Lookup is case-insensitive and a miss raises a :class:`KeyError`
    with the known names and a did-you-mean suggestion.
    """
    return workload_registry.get(name)()


def all_apps() -> list[ProxyApp]:
    """Instantiate every workload, in Table I order."""
    return [create(name) for name in TABLE1_ORDER]
