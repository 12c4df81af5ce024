"""The two evaluation machines (Table II).

======  ==========================================================
x86_64  Intel Core i7-3770 @ 3.4 GHz (4 cores × 2 SMT threads)
        32 KB L1D + 32 KB L1I, 256 KB L2 per core, 8 MB shared L3
ARMv8   AppliedMicro X-Gene @ 2.4 GHz (4 clusters × 2 cores)
        32 KB L1D + 32 KB L1I per core, 256 KB L2 per cluster,
        8 MB shared L3
======  ==========================================================

Thread placement follows the paper's pinning (Section V-A Step 3) with a
scatter-first policy: one thread per physical core/cluster while
possible.  :meth:`Machine.placement` spells the policy out per thread
for every supported team width, not just the paper's powers of two:

* Intel, ≤4 threads: every thread owns its core, caches private.
* Intel, 5–8 threads: ``threads - 4`` cores host SMT pairs — those
  threads see halved L1D/L2 capacity and SMT-inflated CPI, while the
  remaining threads keep private caches (non-uniform sharing; at
  8 threads every core is paired and sharing is uniform again).
* X-Gene, ≤4 threads: one thread per cluster, all caches private.
* X-Gene, 5–8 threads: ``threads - 4`` clusters host core pairs sharing
  the cluster's 256 KiB L2; L1D stays private at every thread count.

Counts above the hardware contexts (>8 on both machines) are rejected
with an explicit error — oversubscription is outside the paper's
protocol — so the strong-scaling sweep marks such cells unsupported
instead of silently clamping them.

Distributed-memory jobs add a **rank** axis on top: one MPI rank per
node, each node an identical copy of the machine, connected by the
machine's :class:`~repro.hw.network.NetworkSpec`.
:meth:`Machine.hybrid_placement` pins a ranks × threads hybrid job by
tiling the single-node scatter-first placement across nodes — cache
sharing never crosses a node boundary, and each node's L3 is shared
only by that rank's team.

CPI and penalty figures are order-of-magnitude realistic for Ivy Bridge
and the first-generation X-Gene; absolute fidelity is not required
because the methodology's error metrics compare a machine against
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.caches import CacheLevelSpec
from repro.hw.network import NetworkSpec
from repro.hw.pmu import PmuNoiseSpec
from repro.ir.memory import PatternKind
from repro.isa.descriptors import ISA

__all__ = [
    "Machine",
    "ThreadPlacement",
    "INTEL_I7_3770",
    "APM_XGENE",
    "ARMV8_IN_ORDER",
    "machine_for",
]

_K = PatternKind


@dataclass(frozen=True)
class ThreadPlacement:
    """Scatter-first pinning of one team (Section V-A Step 3), per thread.

    Attributes
    ----------
    core / cluster / node:
        ``(threads,)`` physical core, cluster and NUMA node index of
        each thread.  Single-node machines (every Table II platform)
        place the whole team on node 0.
    l1_sharers / l2_sharers:
        ``(threads,)`` how many team threads share that thread's L1D /
        L2.  Non-uniform for team widths that only partially fill a
        sharing domain (5..7 threads on the i7's SMT pairs, 5..7 on the
        X-Gene's clusters): the threads that landed on a shared domain
        see the sharer count, the rest keep their caches private.
    l3_sharers:
        ``(threads,)`` how many team threads share that thread's NUMA
        node — and therefore its L3 slice and memory bandwidth.  On a
        single-node machine this is the team width for every thread
        (the L3 is chip-wide); on an ingested multi-node machine it is
        the node census, so partially-filled node counts are
        non-uniform exactly like the L1/L2 maps.
    smt_corun:
        ``(threads,)`` whether an SMT sibling co-runs on that thread's
        core (drives the per-thread CPI inflation).
    """

    core: np.ndarray
    cluster: np.ndarray
    node: np.ndarray
    l1_sharers: np.ndarray
    l2_sharers: np.ndarray
    l3_sharers: np.ndarray
    smt_corun: np.ndarray

    @property
    def threads(self) -> int:
        """Team width placed."""
        return int(self.core.size)

    def uniform(self) -> bool:
        """Whether every thread sees identical sharing (1, 2, 4, 8...)."""
        return (
            np.all(self.l1_sharers == self.l1_sharers[0])
            and np.all(self.l2_sharers == self.l2_sharers[0])
            and np.all(self.l3_sharers == self.l3_sharers[0])
        )


@dataclass(frozen=True)
class Machine:
    """A hardware platform as seen by the performance and PMU models.

    Attributes
    ----------
    name / isa / freq_ghz / cores / smt_per_core / clusters:
        Identity and topology (Table II).
    l1d, l2, l3:
        Cache level specs, including prefetch behaviour.
    cpi:
        Base cycles-per-instruction per lowered instruction class
        (keys match :class:`repro.isa.lowering.LoweredCounts` fields).
    penalty_l2 / penalty_l3 / penalty_mem:
        Cycles to fetch from the next level on an L1 / L2 / L3 miss.
    stall_overlap:
        Fraction of miss latency hidden by out-of-order overlap and
        MLP, per access-pattern kind.
    smt_cpi_penalty:
        Per-thread CPI multiplier when two SMT threads share a core.
    bandwidth_slope:
        Memory-penalty growth per additional active thread (bandwidth
        contention).
    uarch_sigma_cycles / uarch_sigma_misses:
        Sigma of the per-instance, ISA-specific behavioural jitter
        (code layout, branch aliasing, TLB state) — invisible to the
        x86-side clustering, hence a source of cross-ISA error.
    cliff_boost:
        Relative miss inflation of a thrashing instance near a
        cache-capacity cliff (working set ~ effective capacity); the
        bimodal thrash mixture reproduces the AMGMk 1-thread L2D
        anomaly.
    pmu:
        PMU noise parameters.
    network:
        Inter-host interconnect parameters for distributed-memory
        (rank) jobs; see :mod:`repro.hw.network`.
    nodes:
        NUMA nodes on the chip (1 on every Table II machine; ingested
        hosts report theirs — see :mod:`repro.hw.ingest`).  Clusters
        are assigned to nodes round-robin (cluster ``c`` lives on node
        ``c % nodes``), so the existing cluster-major scatter order
        naturally scatters across nodes first; each node owns a private
        L3 slice (``l3`` describes one instance) and its own memory
        bandwidth domain.  Distinct from *rank* nodes: NUMA nodes share
        one host, rank nodes are whole separate hosts.
    numa_distance:
        Optional ``nodes × nodes`` ACPI SLIT-style distance matrix
        (diagonal is the local distance, conventionally 10).  Carried
        from ingestion for reporting and spec round-trips; the
        performance model keys sharing on node census, not distance.
    """

    name: str
    isa: ISA
    freq_ghz: float
    cores: int
    smt_per_core: int
    clusters: int
    l1d: CacheLevelSpec
    l2: CacheLevelSpec
    l3: CacheLevelSpec
    cpi: dict[str, float]
    penalty_l2: float
    penalty_l3: float
    penalty_mem: float
    stall_overlap: dict[PatternKind, float]
    smt_cpi_penalty: float
    bandwidth_slope: float
    uarch_sigma_cycles: float
    uarch_sigma_misses: float
    cliff_boost: float
    pmu: PmuNoiseSpec
    l2_shared_by_cluster: bool = False
    network: NetworkSpec = NetworkSpec()
    nodes: int = 1
    numa_distance: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.cores < 1 or self.smt_per_core < 1 or self.clusters < 1:
            raise ValueError(
                f"{self.name}: cores/smt_per_core/clusters must be >= 1"
            )
        if not 1 <= self.nodes <= self.clusters:
            raise ValueError(
                f"{self.name}: nodes must be in 1..clusters "
                f"({self.clusters}), got {self.nodes} — every NUMA node "
                f"must own at least one cluster"
            )
        if self.numa_distance is not None:
            rows = self.numa_distance
            if len(rows) != self.nodes or any(
                len(row) != self.nodes for row in rows
            ):
                raise ValueError(
                    f"{self.name}: numa_distance must be a "
                    f"{self.nodes}x{self.nodes} matrix, got "
                    f"{len(rows)}x{tuple(len(row) for row in rows)}"
                )
            for i, row in enumerate(rows):
                if any(value <= 0 for value in row):
                    raise ValueError(
                        f"{self.name}: numa_distance entries must be positive"
                    )
                if min(row) < row[i]:
                    raise ValueError(
                        f"{self.name}: numa_distance row {i} has an entry "
                        f"below the local distance {row[i]} — remote nodes "
                        f"cannot be closer than the node itself"
                    )

    @property
    def max_threads(self) -> int:
        """Hardware thread capacity (the paper stops at 8)."""
        return self.cores * self.smt_per_core

    def validate_threads(self, threads: int) -> None:
        """Raise if a team is wider than the machine's hardware contexts.

        Scatter-first pinning needs one hardware context per thread;
        oversubscription is outside the paper's protocol, so counts
        above ``max_threads`` are rejected explicitly rather than
        silently clamped (the scaling sweep renders such cells as
        unsupported instead of scheduling them).  The error names the
        machine, the requested width and the capacity — including the
        topology behind the capacity, so ragged geometries (clusters or
        nodes that do not divide the cores evenly) explain themselves.
        """
        if threads < 1 or threads > self.max_threads:
            numa = f" across {self.nodes} NUMA nodes" if self.nodes > 1 else ""
            raise ValueError(
                f"{self.name} exposes {self.max_threads} hardware contexts "
                f"({self.cores} cores x {self.smt_per_core} SMT in "
                f"{self.clusters} clusters{numa}); a team of "
                f"{threads} cannot be pinned scatter-first — use 1.."
                f"{self.max_threads} threads"
            )

    def placement(self, threads: int) -> ThreadPlacement:
        """Scatter-first placement of a team, thread by thread.

        Threads fill one hardware context per core before doubling up on
        SMT siblings, round-robining over clusters so cluster-shared L2s
        are filled last — the paper's pinning.  Because clusters map to
        NUMA nodes round-robin (cluster ``c`` → node ``c % nodes``),
        consecutive clusters land on consecutive nodes and the team
        scatters across nodes first: no node hosts a second thread
        before every node hosts its first.  Valid (and correct) for
        *every* ``1..max_threads`` count, including the odd and
        partially-filled widths (3, 5, 6, 7) where sharing is
        non-uniform across the team.
        """
        self.validate_threads(threads)
        # Hardware contexts in scatter order: context 0 of one core per
        # cluster, then the remaining cores, then the SMT siblings.
        # Core c lives in cluster c % clusters; iterating cluster-major
        # per rank (and filtering ranks past a cluster's last core)
        # covers every core even when clusters don't divide the core
        # count evenly — a registered third-party machine may be ragged.
        ranks = -(-self.cores // self.clusters)  # ceil
        order = [
            core
            for _ in range(self.smt_per_core)
            for rank in range(ranks)
            for cluster in range(self.clusters)
            if (core := cluster + self.clusters * rank) < self.cores
        ]
        core = np.array(order[:threads], dtype=np.int64)
        cluster = core % self.clusters
        node = cluster % self.nodes
        core_counts = np.bincount(core, minlength=self.cores)
        cluster_counts = np.bincount(cluster, minlength=self.clusters)
        node_counts = np.bincount(node, minlength=self.nodes)
        l1_sharers = core_counts[core]
        l2_sharers = cluster_counts[cluster] if self.l2_shared_by_cluster else l1_sharers
        return ThreadPlacement(
            core=core,
            cluster=cluster,
            node=node,
            l1_sharers=l1_sharers,
            l2_sharers=l2_sharers,
            l3_sharers=node_counts[node],
            smt_corun=(l1_sharers > 1),
        )

    def l1_sharers(self, threads: int) -> int:
        """Most threads sharing one L1D under scatter-first pinning.

        Scalar worst case over the team; the per-thread truth (sharing
        is non-uniform at partially-filled widths) is
        ``placement(threads).l1_sharers``.
        """
        return int(self.placement(threads).l1_sharers.max())

    def l2_sharers(self, threads: int) -> int:
        """Most threads sharing one L2 under scatter-first pinning.

        Scalar worst case over the team; see :meth:`placement` for the
        per-thread values.
        """
        return int(self.placement(threads).l2_sharers.max())

    def l3_sharers(self, threads: int) -> int:
        """Most threads sharing one L3 slice under scatter-first pinning.

        On a single-node machine the L3 is chip-wide, so this is the
        team width; on a multi-node machine it is the largest node
        census (scatter-first keeps nodes balanced to within one
        thread).  The per-thread truth is ``placement(threads).l3_sharers``.
        """
        if self.nodes == 1:
            self.validate_threads(threads)
            return threads
        return int(self.placement(threads).l3_sharers.max())

    def smt_active(self, threads: int) -> bool:
        """Whether any SMT pair co-runs at this team width."""
        self.validate_threads(threads)
        return self.smt_per_core > 1 and threads > self.cores

    def supports_threads(self, threads: int) -> bool:
        """Whether a team of this width fits the hardware contexts."""
        return 1 <= threads <= self.max_threads

    def validate_hybrid(self, ranks: int, threads: int) -> None:
        """Raise unless a ranks × threads hybrid job can be placed.

        Ranks land one per node, so the rank count is unbounded; each
        rank's team must fit its node's hardware contexts exactly as in
        the shared-memory case.
        """
        if ranks < 1:
            raise ValueError(
                f"{self.name}: ranks must be >= 1, got {ranks}"
            )
        self.validate_threads(threads)

    def supports_hybrid(self, ranks: int, threads: int) -> bool:
        """Whether a ranks × threads hybrid job can be placed."""
        return ranks >= 1 and self.supports_threads(threads)

    def hybrid_placement(self, ranks: int, threads: int) -> ThreadPlacement:
        """Scatter-first pinning of a ranks × threads hybrid job.

        One rank per node: rank ``r``'s team receives the single-node
        :meth:`placement` with core/cluster indices offset into node
        ``r``'s private hardware, so sharer maps and SMT pairing are
        node-local and identical across ranks.  The returned placement
        is rank-major — hardware context ``r * threads + t`` is thread
        ``t`` of rank ``r`` — matching the thread-axis layout of
        coalesced distributed traces.
        """
        self.validate_hybrid(ranks, threads)
        team = self.placement(threads)
        return ThreadPlacement(
            core=np.concatenate(
                [team.core + r * self.cores for r in range(ranks)]
            ),
            cluster=np.concatenate(
                [team.cluster + r * self.clusters for r in range(ranks)]
            ),
            node=np.concatenate(
                [team.node + r * self.nodes for r in range(ranks)]
            ),
            l1_sharers=np.tile(team.l1_sharers, ranks),
            l2_sharers=np.tile(team.l2_sharers, ranks),
            l3_sharers=np.tile(team.l3_sharers, ranks),
            smt_corun=np.tile(team.smt_corun, ranks),
        )

    def memory_penalty(self, threads: int) -> float:
        """L3-miss penalty including bandwidth contention (whole team).

        Uniform single-domain contention — correct for single-node
        machines where the whole team shares one memory interface.  On
        multi-node machines bandwidth is per node: use
        :meth:`node_memory_penalty` with a node's census (the
        performance model does, via ``placement().l3_sharers``).
        """
        self.validate_threads(threads)
        return self.node_memory_penalty(threads)

    def node_memory_penalty(self, sharers: int) -> float:
        """L3-miss penalty when ``sharers`` threads contend on one node.

        Bandwidth contention scales with the threads sharing a node's
        memory interface, not the whole team — on a single-node machine
        the two coincide.
        """
        if sharers < 1:
            raise ValueError(
                f"{self.name}: node sharers must be >= 1, got {sharers}"
            )
        return self.penalty_mem * (1.0 + self.bandwidth_slope * (sharers - 1))

    def table_row(self) -> tuple[str, str]:
        """(platform, description) row reproducing Table II."""
        if self.smt_per_core > 1:
            topo = f"{self.cores} cores x {self.smt_per_core} threads"
        else:
            topo = f"{self.clusters} clusters x {self.cores // self.clusters} cores"
        lines = [
            f"{self.name} @ {self.freq_ghz} GHz ({topo})",
            f"{self.l1d.describe()} per core, {self.l2.describe()}"
            + (" per cluster" if self.l2_shared_by_cluster else " per core"),
            f"{self.l3.describe()} shared",
        ]
        return (self.isa.value, "; ".join(lines))


INTEL_I7_3770 = Machine(
    name="Intel Core i7-3770",
    isa=ISA.X86_64,
    freq_ghz=3.4,
    cores=4,
    smt_per_core=2,
    clusters=4,
    l1d=CacheLevelSpec(
        name="L1D",
        size_bytes=32 * 1024,
        associativity=8,
        prefetch_effectiveness={
            _K.STREAM: 0.70,
            _K.STRIDED: 0.50,
            _K.STENCIL: 0.35,
            _K.GATHER: 0.08,
            _K.RANDOM: 0.0,
            _K.POINTER_CHASE: 0.0,
        },
        pollution_rate={
            _K.STREAM: 0.0015,
            _K.STRIDED: 0.002,
            _K.STENCIL: 0.006,
            _K.GATHER: 0.002,
            _K.RANDOM: 0.001,
            _K.POINTER_CHASE: 0.0005,
        },
    ),
    l2=CacheLevelSpec(
        name="L2",
        size_bytes=256 * 1024,
        associativity=8,
        prefetch_effectiveness={
            _K.STREAM: 0.85,
            _K.STRIDED: 0.65,
            _K.STENCIL: 0.50,
            _K.GATHER: 0.12,
            _K.RANDOM: 0.0,
            _K.POINTER_CHASE: 0.0,
        },
        pollution_rate={
            _K.STREAM: 0.0006,
            _K.STRIDED: 0.0008,
            _K.STENCIL: 0.002,
            _K.GATHER: 0.0008,
            _K.RANDOM: 0.0004,
            _K.POINTER_CHASE: 0.0002,
        },
    ),
    l3=CacheLevelSpec(
        name="L3",
        size_bytes=8 * 1024 * 1024,
        associativity=16,
        prefetch_effectiveness={
            _K.STREAM: 0.80,
            _K.STRIDED: 0.60,
            _K.STENCIL: 0.45,
            _K.GATHER: 0.10,
            _K.RANDOM: 0.0,
            _K.POINTER_CHASE: 0.0,
        },
    ),
    cpi={
        "scalar_flops": 0.50,
        "vector_flops": 0.55,
        "int_ops": 0.33,
        "scalar_mem": 0.50,
        "vector_mem": 0.60,
        "branches": 0.55,
        "simd_overhead": 0.45,
    },
    penalty_l2=10.0,
    penalty_l3=26.0,
    penalty_mem=190.0,
    stall_overlap={
        _K.STREAM: 0.75,
        _K.STRIDED: 0.65,
        _K.STENCIL: 0.60,
        _K.GATHER: 0.35,
        _K.RANDOM: 0.25,
        _K.POINTER_CHASE: 0.05,
    },
    smt_cpi_penalty=1.5,
    bandwidth_slope=0.05,
    uarch_sigma_cycles=0.004,
    uarch_sigma_misses=0.008,
    cliff_boost=1.10,
    pmu=PmuNoiseSpec(
        sigma_rel=(0.004, 0.002, 0.010, 0.020),
        sigma_abs=(8000.0, 3000.0, 300.0, 120.0),
        interference_slope=0.05,
        unpinned_factor=3.0,
    ),
    # QDR-InfiniBand-class fabric at 3.4 GHz: ~1.5 us small-message
    # latency, ~6.8 GB/s sustained point-to-point.
    network=NetworkSpec(latency_cycles=5100.0, bytes_per_cycle=2.0),
)

APM_XGENE = Machine(
    name="ARMv8 AppliedMicro X-Gene",
    isa=ISA.ARMV8,
    freq_ghz=2.4,
    cores=8,
    smt_per_core=1,
    clusters=4,
    l1d=CacheLevelSpec(
        name="L1D",
        size_bytes=32 * 1024,
        associativity=8,
        prefetch_effectiveness={
            _K.STREAM: 0.45,
            _K.STRIDED: 0.25,
            _K.STENCIL: 0.12,
            _K.GATHER: 0.03,
            _K.RANDOM: 0.0,
            _K.POINTER_CHASE: 0.0,
        },
        pollution_rate={kind: 0.0002 for kind in PatternKind},
        # The X-Gene L1D refill event merges regular-stride refills into
        # read-allocate bursts: streaming misses are undercounted ~10x.
        # Irregular refills (random/gather/chase) count one-for-one.
        pmu_capture={
            _K.STREAM: 0.07,
            _K.STRIDED: 0.10,
            _K.STENCIL: 0.12,
            _K.GATHER: 1.0,
            _K.RANDOM: 1.0,
            _K.POINTER_CHASE: 1.0,
        },
    ),
    l2=CacheLevelSpec(
        name="L2",
        size_bytes=256 * 1024,
        associativity=8,
        prefetch_effectiveness={
            _K.STREAM: 0.60,
            _K.STRIDED: 0.40,
            _K.STENCIL: 0.25,
            _K.GATHER: 0.05,
            _K.RANDOM: 0.0,
            _K.POINTER_CHASE: 0.0,
        },
        pollution_rate={kind: 0.0001 for kind in PatternKind},
    ),
    l3=CacheLevelSpec(
        name="L3",
        size_bytes=8 * 1024 * 1024,
        associativity=32,
        prefetch_effectiveness={
            _K.STREAM: 0.55,
            _K.STRIDED: 0.35,
            _K.STENCIL: 0.20,
            _K.GATHER: 0.04,
            _K.RANDOM: 0.0,
            _K.POINTER_CHASE: 0.0,
        },
    ),
    cpi={
        "scalar_flops": 0.80,
        "vector_flops": 0.90,
        "int_ops": 0.50,
        "scalar_mem": 0.75,
        "vector_mem": 0.95,
        "branches": 0.75,
        "simd_overhead": 0.70,
    },
    penalty_l2=12.0,
    penalty_l3=32.0,
    penalty_mem=200.0,
    stall_overlap={
        _K.STREAM: 0.60,
        _K.STRIDED: 0.50,
        _K.STENCIL: 0.45,
        _K.GATHER: 0.25,
        _K.RANDOM: 0.18,
        _K.POINTER_CHASE: 0.03,
    },
    smt_cpi_penalty=1.0,
    bandwidth_slope=0.07,
    uarch_sigma_cycles=0.006,
    uarch_sigma_misses=0.010,
    cliff_boost=1.25,
    pmu=PmuNoiseSpec(
        sigma_rel=(0.006, 0.003, 0.012, 0.025),
        sigma_abs=(10000.0, 4000.0, 350.0, 150.0),
        interference_slope=0.05,
        unpinned_factor=3.0,
    ),
    l2_shared_by_cluster=True,
    # FDR-class fabric at 2.4 GHz: ~1.7 us small-message latency,
    # ~3.4 GB/s sustained point-to-point.
    network=NetworkSpec(latency_cycles=4100.0, bytes_per_cycle=1.4),
)



#: Hypothetical in-order ARMv8 part (Cortex-A53 class) for the paper's
#: Section VIII core-type study: same ISA and cache geometry as the
#: X-Gene, but a narrow in-order pipeline — higher base CPI, almost no
#: memory-latency overlap, and a simpler (less polluting) prefetcher.
ARMV8_IN_ORDER = Machine(
    name="ARMv8 in-order (A53-class)",
    isa=ISA.ARMV8,
    freq_ghz=1.5,
    cores=8,
    smt_per_core=1,
    clusters=4,
    l1d=APM_XGENE.l1d,
    l2=APM_XGENE.l2,
    l3=APM_XGENE.l3,
    cpi={
        "scalar_flops": 1.6,
        "vector_flops": 1.8,
        "int_ops": 1.0,
        "scalar_mem": 1.3,
        "vector_mem": 1.9,
        "branches": 1.5,
        "simd_overhead": 1.4,
    },
    penalty_l2=14.0,
    penalty_l3=40.0,
    penalty_mem=220.0,
    stall_overlap={
        _K.STREAM: 0.25,
        _K.STRIDED: 0.20,
        _K.STENCIL: 0.18,
        _K.GATHER: 0.08,
        _K.RANDOM: 0.05,
        _K.POINTER_CHASE: 0.0,
    },
    smt_cpi_penalty=1.0,
    bandwidth_slope=0.08,
    uarch_sigma_cycles=0.005,
    uarch_sigma_misses=0.010,
    cliff_boost=1.25,
    pmu=PmuNoiseSpec(
        sigma_rel=(0.005, 0.003, 0.012, 0.025),
        sigma_abs=(9000.0, 4000.0, 350.0, 150.0),
        interference_slope=0.05,
        unpinned_factor=3.0,
    ),
    l2_shared_by_cluster=True,
    # Modest 10 GbE-class fabric at 1.5 GHz: higher relative latency,
    # ~1.8 GB/s per link — communication costs bite earliest here.
    network=NetworkSpec(latency_cycles=4500.0, bytes_per_cycle=1.2),
)


def machine_for(isa: ISA) -> Machine:
    """Return the paper's evaluation machine for an ISA."""
    if isa is ISA.X86_64:
        return INTEL_I7_3770
    if isa is ISA.ARMV8:
        return APM_XGENE
    raise ValueError(f"no machine registered for ISA {isa!r}")


def _register_builtin_machines() -> None:
    # Imported here, not at module top: repro.api's package init pulls in
    # this module, so a top-level import would be circular.  By this
    # point every public name above exists, so re-entry is safe.
    from repro.api.registry import register_machine

    register_machine(
        INTEL_I7_3770,
        description="Table II x86_64 platform: Ivy Bridge, 4 cores x 2 SMT threads",
    )
    register_machine(
        APM_XGENE,
        description=(
            "Table II ARMv8 platform: first-generation X-Gene, 4 clusters x 2 cores"
        ),
    )
    register_machine(
        ARMV8_IN_ORDER,
        description="Section VIII core-type study: hypothetical in-order A53-class part",
    )


_register_builtin_machines()
