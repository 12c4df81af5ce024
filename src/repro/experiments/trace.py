"""Streamed-trace artefact: paper-scale exact signatures, out of core.

The arXiv version of the paper profiles LULESH at ~9,840 barrier points;
a production deployment of the methodology sees 10⁷–10⁸ *accesses* per
trace.  This artefact runs the exact path at that scale: for every
evaluated application it expands each static block's memory pattern into
a concrete address stream, tiles it through the streaming generators
(:func:`repro.mem.streams.iter_stream_tiles`), and collects the exact
BBV/LDV/cache signature with the carried-state streaming kernels — one
tile of :data:`TILE_ACCESSES` in memory at a time, peak RSS bounded
regardless of stream length.  The row is all a cell computes: the
streamed kernels' bit-identity with the monolithic oracles is a test
(``tests/unit/test_trace_tier.py``), not a step of every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.exec.request import StudyRequest
from repro.exec.scheduler import StudyScheduler
from repro.experiments.config import (
    ExperimentConfig,
    default_config,
    register_config_machines,
)
from repro.util.tables import render_table
from repro.workloads.registry import EVALUATED_APPS

__all__ = [
    "TRACE_THREADS",
    "TILE_ACCESSES",
    "TraceTable",
    "trace_request",
    "trace_cell",
    "requests",
    "build",
    "run",
]

#: Team width the streamed traces model (the paper's Table IV width).
TRACE_THREADS = 8

#: Accesses per tile the streaming kernels consume.  Every streamed
#: kernel is bit-identical across tile sizes (the stream itself is
#: generated in fixed granules, see :data:`repro.mem.streams.GEN_BLOCK`),
#: so the tile bounds a cell's peak memory and nothing else.
TILE_ACCESSES = 1 << 20

_HEADERS = (
    "App",
    "Accesses",
    "Distinct lines",
    "L1D miss (%)",
    "L2 miss (%)",
    "Hot block share (%)",
)


def trace_request(
    app: str, accesses: int, machine: str | None = None
) -> StudyRequest:
    """Declare the streamed-trace cell for one application.

    ``machine`` switches the streamed cache hierarchy to an ingested
    machine's L1D/L2 geometry.  The parameter enters the request only
    when set, so default cells keep their original cache identity.
    """
    params: tuple = (("accesses", int(accesses)),)
    if machine is not None:
        params += (("machine", machine),)
    return StudyRequest(
        kind="trace", app=app, threads=TRACE_THREADS, params=params
    )


def requests(config: ExperimentConfig) -> list[StudyRequest]:
    """One streamed-trace cell per application — and per extra machine."""
    register_config_machines(config)
    default_rows = [
        trace_request(app, config.trace_accesses) for app in EVALUATED_APPS
    ]
    machine_rows = [
        trace_request(app, config.trace_accesses, machine)
        for machine in config.machines
        for app in EVALUATED_APPS
    ]
    return default_rows + machine_rows


def _trace_blocks(app: str, threads: int):
    """The app's static block universe: ``(uid, pattern, instr/access)``."""
    from repro.isa.descriptors import ISA
    from repro.workloads.registry import create

    program = create(app).program(threads, ISA.X86_64)
    blocks = []
    for template in program.templates:
        for block in template.blocks:
            accesses = max(float(block.mix.memory_accesses), 1e-9)
            blocks.append(
                (block.uid, block.pattern, block.static_instructions / accesses)
            )
    return blocks


def trace_cell(request: StudyRequest, config: ExperimentConfig) -> dict:
    """Executor for ``"trace"`` cells: stream the accesses, return the row."""
    from repro.exec.stagestore import maxrss_kib, stage_store_for
    from repro.instrumentation.streamed import StreamedSignatureCollector

    started, maxrss = time.perf_counter(), maxrss_kib()
    register_config_machines(config)
    machine_name = request.param("machine")
    blocks = _trace_blocks(request.app, request.threads)
    if machine_name is None:
        collector = StreamedSignatureCollector(n_blocks=len(blocks))
    else:
        # Ingested-machine cells stream through that machine's L1D/L2
        # geometry instead of the default hierarchy.
        from repro.api.registry import machine_registry

        m = machine_registry.get(str(machine_name))
        levels = (
            ("L1D", m.l1d.size_bytes, m.l1d.associativity),
            ("L2", m.l2.size_bytes, m.l2.associativity),
        )
        collector = StreamedSignatureCollector(n_blocks=len(blocks), levels=levels)
    for index, ipa, tile in _block_tiles(request, blocks, config.seed, TILE_ACCESSES):
        collector.feed(index, tile, instructions_per_access=ipa)

    payload = dict(collector.result())
    payload["app"] = request.app
    payload["threads"] = request.threads
    payload["machine"] = machine_name
    # The whole point of the tiled kernels is a bounded RSS; record the
    # cell's time and how far it raised the high-water mark under its
    # own stage name so the --profile table carries the evidence
    # (worker deltas merge it back).
    stage_store_for(config).stats.record_run(
        "trace", time.perf_counter() - started, maxrss
    )
    return payload


def _block_tiles(request: StudyRequest, blocks, seed: int, tile_size: int):
    """Yield the cell's stream as ``(block index, instr/access, tile)``.

    The ``accesses`` budget splits evenly over the blocks (the first
    takes the remainder); each block streams from its own seed.
    """
    from repro.mem.streams import iter_stream_tiles

    accesses = int(request.param("accesses"))
    share = accesses // len(blocks)
    budgets = [share] * len(blocks)
    budgets[0] += accesses - share * len(blocks)
    for index, ((_uid, pattern, ipa), budget) in enumerate(
        zip(blocks, budgets, strict=True)
    ):
        if budget <= 0:
            continue
        block_seed = _block_seed(seed, request.app, index)
        for tile in iter_stream_tiles(
            pattern, budget, block_seed, tile_size, threads=request.threads
        ):
            yield index, ipa, tile


def _block_seed(root_seed: int, app: str, block_index: int) -> int:
    """Deterministic, collision-resistant per-block stream seed."""
    import hashlib

    digest = hashlib.sha256(f"{root_seed}/{app}/{block_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class TraceTable:
    """The streamed-trace artefact: one row per application."""

    rows: list[dict]
    accesses: int

    def row(self, app: str) -> dict:
        """Lookup one application's payload."""
        for row in self.rows:
            if row["app"] == app:
                return row
        raise KeyError(f"no trace row for {app!r}")

    def render(self) -> str:
        """ASCII table of the streamed exact signatures."""
        out = []
        for row in self.rows:
            l1 = row["levels"]["L1D"]
            l2 = row["levels"]["L2"]
            bbv = row["bbv"]
            hot_share = 100.0 * max(bbv) / max(sum(bbv), 1)
            machine = row.get("machine")
            label = f"{row['app']} @ {machine}" if machine else row["app"]
            out.append(
                (
                    label,
                    f"{row['n_accesses']:,}",
                    f"{row['distinct_lines']:,}",
                    f"{100.0 * l1['misses'] / max(l1['accesses'], 1):.2f}",
                    f"{100.0 * l2['misses'] / max(l2['accesses'], 1):.2f}",
                    f"{hot_share:.1f}",
                )
            )
        return render_table(
            _HEADERS,
            out,
            title=(
                "Streamed exact traces — tiled out-of-core kernels "
                f"({TRACE_THREADS} threads)"
            ),
        )


def build(results, config: ExperimentConfig) -> TraceTable:
    """Assemble the trace table from executed study cells.

    Default-hierarchy rows first (the original artefact), then one row
    block per extra machine the config names.
    """
    rows = []
    by_key = {}
    for request, payload in results.items():
        if request.kind == "trace":
            by_key[(request.app, request.param("machine"))] = payload
    for machine in (None, *config.machines):
        for app in EVALUATED_APPS:
            payload = by_key.get((app, machine))
            if payload is not None:
                rows.append(payload)
    return TraceTable(rows=rows, accesses=config.trace_accesses)


def run(
    config: ExperimentConfig | None = None,
    scheduler: StudyScheduler | None = None,
) -> TraceTable:
    """Build the streamed-trace table from the scheduled grid."""
    config = config or default_config()
    scheduler = scheduler or StudyScheduler(config)
    return build(scheduler.run(requests(config)), config)
