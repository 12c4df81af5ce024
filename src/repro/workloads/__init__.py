"""The eleven OpenMP HPC proxy- and mini-applications (Table I).

Each module models one application's phase structure — region kinds,
size distribution, drift and failure modes — and its docstring ties
that structure to the paper's Table III/IV numbers.  The registry
reproduces Table I and the evaluation subsets of Section VI.
"""

from repro.workloads.amgmk import AMGMk
from repro.workloads.base import ProxyApp, build_region, flatten_sequence
from repro.workloads.comd import CoMD
from repro.workloads.graph500 import Graph500
from repro.workloads.hpcg import HPCG
from repro.workloads.hpgmg import HPGMGFV, vcycles_to_converge
from repro.workloads.lulesh import LULESH
from repro.workloads.mcb import MCB
from repro.workloads.minife import MiniFE
from repro.workloads.montecarlo import RSBench, XSBench
from repro.workloads.pathfinder import PathFinder
from repro.workloads.registry import (
    ACCURATE_APPS,
    EVALUATED_APPS,
    FINE_GRAINED_APPS,
    SINGLE_REGION_APPS,
    TABLE1_ORDER,
    all_apps,
    create,
)

__all__ = [
    "ProxyApp",
    "build_region",
    "flatten_sequence",
    "AMGMk",
    "CoMD",
    "Graph500",
    "HPCG",
    "HPGMGFV",
    "vcycles_to_converge",
    "LULESH",
    "MCB",
    "MiniFE",
    "PathFinder",
    "RSBench",
    "XSBench",
    "TABLE1_ORDER",
    "EVALUATED_APPS",
    "ACCURATE_APPS",
    "SINGLE_REGION_APPS",
    "FINE_GRAINED_APPS",
    "create",
    "all_apps",
]
