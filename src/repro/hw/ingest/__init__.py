"""Real-hardware machine ingestion (pepc-style).

The three built-in :class:`~repro.hw.machines.Machine` specs are
hand-written from Table II.  This package grows the other direction:
parse what a *real* host says about itself — ``lscpu`` key-value
output, the ``/sys/devices/system/cpu`` topology tree (core/package
ids, SMT sibling masks, per-CPU cache instances), the
``/sys/devices/system/node`` NUMA cpumaps and distance matrix, and
cpufreq min/max/base frequencies — and lower it into a registered
``Machine`` with the ``nodes``/``numa_distance`` topology extension,
so placement scatters across NUMA nodes first and the L3/bandwidth
model shares per node.

Every parser is a pure function over captured text, which is what
makes the committed fixture corpus under ``tests/data/hosts/``
possible: a captured host is three plain files (``lscpu.txt`` plus
flat ``path:value`` dumps of the two sysfs subtrees), reviewable in a
diff and replayable forever.  ``repro machines ingest <dir|->`` drives
the whole path from the CLI — ``-`` captures the live host through the
same virtual-tree interface the fixtures use.

Layering (strictly bottom-up, no cycles):

``tree``
    :class:`VirtualTree` — the flat path→text view both captured dumps
    and the live ``/sys`` walk produce; cpu-list and size parsing.
``lscpu`` / ``cputopo`` / ``numa``
    One parser per source: ``lscpu.txt``, the cpu subtree (topology +
    cache instances + cpufreq), the node subtree.
``descriptor``
    :class:`HostDescriptor` composing the three, with cross-source
    consistency notes.
``lower``
    ``HostDescriptor`` → ``Machine``: geometry from the host,
    behavioural knobs (CPI, penalties, prefetch tables, PMU) from a
    donor machine template selected by ISA.
``spec``
    ``Machine`` ↔ JSON spec files (``--save`` / ``--machine-spec``),
    plus idempotent registration.
``synth``
    Synthetic topology rendering — the inverse of the parsers — for
    the round-trip property tests and the render-from-machine golden
    tests.
"""

from repro.hw.ingest.cputopo import CacheInstance, CpuRecord, CpuTopology, FreqInfo
from repro.hw.ingest.descriptor import HostDescriptor
from repro.hw.ingest.lower import LoweredMachine, donor_for, lower_descriptor
from repro.hw.ingest.lscpu import LscpuInfo
from repro.hw.ingest.numa import NumaInfo
from repro.hw.ingest.spec import (
    ensure_registered,
    load_machine_spec,
    machine_from_spec,
    machine_to_spec,
    save_machine_spec,
)
from repro.hw.ingest.synth import SynthHost, render_host, synth_from_machine
from repro.hw.ingest.tree import (
    VirtualTree,
    format_cpu_list,
    parse_cpu_list,
    parse_size,
)

__all__ = [
    "VirtualTree",
    "parse_cpu_list",
    "format_cpu_list",
    "parse_size",
    "LscpuInfo",
    "CpuRecord",
    "CacheInstance",
    "FreqInfo",
    "CpuTopology",
    "NumaInfo",
    "HostDescriptor",
    "LoweredMachine",
    "donor_for",
    "lower_descriptor",
    "machine_to_spec",
    "machine_from_spec",
    "save_machine_spec",
    "load_machine_spec",
    "ensure_registered",
    "SynthHost",
    "render_host",
    "synth_from_machine",
]
