"""Synthetic host rendering: the exact inverse of the parsers.

A :class:`SynthHost` is the minimal parameterisation of a host the
lowering can see — topology counts, cache geometry, NUMA layout,
frequency — and :func:`render_host` emits the three capture files
(``lscpu.txt``, ``cpu.txt``, ``node.txt``) such a host would produce.
Rendering follows the same layout conventions the lowering and
:meth:`Machine.placement` assume:

* CPU ``t * cores + c`` is SMT thread ``t`` of core ``c`` — sibling
  sets are ``(c, c + cores, ...)``, the classic Linux enumeration;
* core ``c`` lives in L2 cluster ``c % clusters`` and cluster ``k`` on
  NUMA node ``k % nodes``, so node cpulists come out interleaved
  exactly like real sub-NUMA-clustered captures;
* each node owns one L3 instance (its slice).

This makes render → parse → lower the identity on the parameters — the
property tests sample random geometries through it, and
:func:`synth_from_machine` renders a built-in machine back into a
descriptor tree for the bit-identity golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.ingest.descriptor import LSCPU_FILE
from repro.hw.ingest.tree import format_cpu_list
from repro.hw.machines import Machine
from repro.isa.descriptors import ISA

__all__ = ["SynthHost", "render_host", "synth_from_machine"]

_ARCH_FOR_ISA = {ISA.X86_64: "x86_64", ISA.ARMV8: "aarch64"}


def _size_text(size_bytes: int) -> str:
    """Kernel-style cache size leaf (``32K`` when even, bytes otherwise)."""
    if size_bytes % 1024 == 0:
        return f"{size_bytes // 1024}K"
    return f"{size_bytes}"


@dataclass(frozen=True)
class SynthHost:
    """Parameters of a synthetic host, in lowering's own vocabulary.

    ``clusters`` counts L2 sharing domains; ``l2_shared`` False renders
    one L2 per core (and lowering then reports ``clusters == cores``
    regardless of the value here, matching the per-core-L2 rule).
    ``l3_bytes`` is the size of **one node's** L3 slice; the render
    emits one instance per node.
    """

    name: str
    architecture: str
    cores: int
    smt: int = 1
    clusters: int = 1
    nodes: int = 1
    l2_shared: bool = False
    l1d_bytes: int = 32 * 1024
    l1_ways: int = 8
    l2_bytes: int = 256 * 1024
    l2_ways: int = 8
    l3_bytes: int = 8 * 1024 * 1024
    l3_ways: int = 16
    line_bytes: int = 64
    base_khz: int = 2_000_000
    min_khz: int | None = None
    max_khz: int | None = None
    model_name: str | None = None
    numa_distance: tuple[tuple[float, ...], ...] | None = None

    @property
    def n_cpus(self) -> int:
        return self.cores * self.smt

    def cpus_of_core(self, core: int) -> tuple[int, ...]:
        """SMT sibling set of one core under the t*cores+c enumeration."""
        return tuple(core + t * self.cores for t in range(self.smt))

    def cores_of_cluster(self, cluster: int) -> tuple[int, ...]:
        return tuple(c for c in range(self.cores) if c % self.clusters == cluster)

    def cpus_of_node(self, node: int) -> tuple[int, ...]:
        cpus: list[int] = []
        for cluster in range(self.clusters):
            if cluster % self.nodes != node:
                continue
            for core in self.cores_of_cluster(cluster):
                cpus.extend(self.cpus_of_core(core))
        return tuple(sorted(cpus))


def render_host(host: SynthHost) -> dict[str, str]:
    """Render the three capture files a :class:`SynthHost` would produce."""
    lscpu = _render_lscpu(host)
    cpu_lines: list[str] = []
    for core in range(host.cores):
        siblings = format_cpu_list(host.cpus_of_core(core))
        for cpu in host.cpus_of_core(core):
            prefix = f"cpu/cpu{cpu}/topology"
            cpu_lines.append(f"{prefix}/core_id:{core}")
            cpu_lines.append(f"{prefix}/physical_package_id:0")
            cpu_lines.append(f"{prefix}/die_id:0")
            cpu_lines.append(f"{prefix}/thread_siblings_list:{siblings}")
            cache_prefix = f"cpu/cpu{cpu}/cache"
            cluster = core % host.clusters
            l2_cpus = (
                format_cpu_list(
                    tuple(
                        sib
                        for c in host.cores_of_cluster(cluster)
                        for sib in host.cpus_of_core(c)
                    )
                )
                if host.l2_shared
                else siblings
            )
            node = cluster % host.nodes
            levels = (
                ("index0", 1, "Data", host.l1d_bytes, host.l1_ways, siblings),
                ("index1", 1, "Instruction", host.l1d_bytes, host.l1_ways, siblings),
                ("index2", 2, "Unified", host.l2_bytes, host.l2_ways, l2_cpus),
                (
                    "index3",
                    3,
                    "Unified",
                    host.l3_bytes,
                    host.l3_ways,
                    format_cpu_list(host.cpus_of_node(node)),
                ),
            )
            for index, level, cache_type, size, ways, shared in levels:
                entry = f"{cache_prefix}/{index}"
                cpu_lines.append(f"{entry}/level:{level}")
                cpu_lines.append(f"{entry}/type:{cache_type}")
                cpu_lines.append(f"{entry}/size:{_size_text(size)}")
                cpu_lines.append(f"{entry}/ways_of_associativity:{ways}")
                cpu_lines.append(f"{entry}/coherency_line_size:{host.line_bytes}")
                cpu_lines.append(f"{entry}/shared_cpu_list:{shared}")
            freq_prefix = f"cpu/cpu{cpu}/cpufreq"
            cpu_lines.append(f"{freq_prefix}/base_frequency:{host.base_khz}")
            if host.min_khz is not None:
                cpu_lines.append(f"{freq_prefix}/cpuinfo_min_freq:{host.min_khz}")
            if host.max_khz is not None:
                cpu_lines.append(f"{freq_prefix}/cpuinfo_max_freq:{host.max_khz}")

    node_lines: list[str] = []
    for node in range(host.nodes):
        cpulist = format_cpu_list(host.cpus_of_node(node))
        node_lines.append(f"node/node{node}/cpulist:{cpulist}")
        if host.numa_distance is not None:
            row = " ".join(f"{value:g}" for value in host.numa_distance[node])
            node_lines.append(f"node/node{node}/distance:{row}")

    return {
        LSCPU_FILE: lscpu,
        "cpu.txt": "\n".join(cpu_lines) + "\n",
        "node.txt": "\n".join(node_lines) + ("\n" if node_lines else ""),
    }


def _render_lscpu(host: SynthHost) -> str:
    lines = [
        f"Architecture:            {host.architecture}",
        f"CPU(s):                  {host.n_cpus}",
        f"On-line CPU(s) list:     {format_cpu_list(tuple(range(host.n_cpus)))}",
        f"Model name:              {host.model_name or host.name}",
        f"Thread(s) per core:      {host.smt}",
        f"Core(s) per socket:      {host.cores}",
        "Socket(s):               1",
        f"NUMA node(s):            {host.nodes}",
    ]
    if host.max_khz is not None:
        lines.append(f"CPU max MHz:             {host.max_khz / 1000:.4f}")
    if host.min_khz is not None:
        lines.append(f"CPU min MHz:             {host.min_khz / 1000:.4f}")
    for label, total, count in (
        ("L1d", host.l1d_bytes * host.cores, host.cores),
        ("L1i", host.l1d_bytes * host.cores, host.cores),
        (
            "L2",
            host.l2_bytes * (host.clusters if host.l2_shared else host.cores),
            host.clusters if host.l2_shared else host.cores,
        ),
        ("L3", host.l3_bytes * host.nodes, host.nodes),
    ):
        if total % 1024 == 0:
            size_text = f"{total // 1024} KiB"
        else:
            size_text = f"{total} B"
        lines.append(f"{label} cache:               {size_text} ({count} instances)")
    for node in range(host.nodes):
        cpulist = format_cpu_list(host.cpus_of_node(node))
        lines.append(f"NUMA node{node} CPU(s):       {cpulist}")
    return "\n".join(lines) + "\n"


def synth_from_machine(machine: Machine) -> SynthHost:
    """The synthetic host whose render lowers back to ``machine``.

    With ``donor=machine`` at lowering time the round trip is exact —
    geometry is re-derived from the render, behavioural knobs come back
    from the donor — which is what the golden tests assert for every
    built-in machine.
    """
    return SynthHost(
        name=machine.name,
        architecture=_ARCH_FOR_ISA[machine.isa],
        model_name=machine.name,
        cores=machine.cores,
        smt=machine.smt_per_core,
        clusters=machine.clusters,
        nodes=machine.nodes,
        l2_shared=machine.l2_shared_by_cluster,
        l1d_bytes=machine.l1d.size_bytes,
        l1_ways=machine.l1d.associativity,
        l2_bytes=machine.l2.size_bytes,
        l2_ways=machine.l2.associativity,
        l3_bytes=machine.l3.size_bytes,
        l3_ways=machine.l3.associativity,
        line_bytes=machine.l1d.line_bytes,
        base_khz=int(round(machine.freq_ghz * 1_000_000)),
        numa_distance=machine.numa_distance,
    )
