"""Streamed-trace artefact: paper-scale exact signatures, out of core.

The arXiv version of the paper profiles LULESH at ~9,840 barrier points;
a production deployment of the methodology sees 10⁷–10⁸ *accesses* per
trace.  This artefact runs the exact path at that scale: for every
evaluated application it expands each static block's memory pattern into
a concrete address stream, tiles it through the streaming generators
(:func:`repro.mem.streams.iter_stream_tiles`), and collects the exact
BBV/LDV/cache signature with the carried-state streaming kernels — one
tile in memory at a time, peak RSS bounded by ``--trace-tile-size``
regardless of stream length.

Each cell also writes the tiled trace container
(:class:`repro.exec.columnar.TraceTileWriter`): per-tile BBV and LDV
rows plus L1 miss counts always, and the raw access tiles themselves at
smoke scales (full-scale line tiles would be disk-heavy and are
regenerable bit-identically from the seed).  At smoke scales the cell
additionally replays the container through the **monolithic** golden
oracles and asserts bit-identity — the PR 3/5 pattern of keeping the
slow path as the checker for the fast one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

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
    "TraceTable",
    "trace_request",
    "trace_cell",
    "requests",
    "build",
    "run",
]

#: Team width the streamed traces model (the paper's Table IV width).
TRACE_THREADS = 8

#: Raw access tiles are persisted in the container only below this
#: stream length; larger streams store the per-tile signature columns
#: and regenerate lines from the seed when re-walked.
_STORE_LINES_MAX = 1 << 22

_HEADERS = (
    "App",
    "Accesses",
    "Tiles",
    "Distinct lines",
    "L1D miss (%)",
    "L2 miss (%)",
    "Hot block share (%)",
    "Oracle",
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


def _container_path(config: ExperimentConfig, request: StudyRequest):
    from pathlib import Path

    if not config.cache_dir:
        return None
    accesses = request.param("accesses")
    machine = request.param("machine")
    suffix = ""
    if machine is not None:
        slug = "".join(c if c.isalnum() else "-" for c in str(machine))
        suffix = f"_m{slug}"
    return (
        Path(config.cache_dir)
        / "traces"
        / f"{request.app}_t{request.threads}_a{accesses}{suffix}.rpt"
    )


def trace_cell(request: StudyRequest, config: ExperimentConfig) -> dict:
    """Executor for ``"trace"`` cells: stream, collect, verify, persist."""
    from repro.exec.columnar import TraceTileWriter
    from repro.instrumentation.streamed import StreamedSignatureCollector
    from repro.mem.streams import iter_stream_tiles

    started = time.perf_counter()
    accesses = int(request.param("accesses"))
    tile_size = int(config.trace_tile_size)
    register_config_machines(config)
    machine_name = request.param("machine")
    levels = None
    if machine_name is not None:
        # Ingested-machine cells stream through that machine's L1D/L2
        # geometry instead of the default hierarchy.
        from repro.api.registry import machine_registry

        m = machine_registry.get(str(machine_name))
        levels = (
            ("L1D", m.l1d.size_bytes, m.l1d.associativity),
            ("L2", m.l2.size_bytes, m.l2.associativity),
        )
    blocks = _trace_blocks(request.app, request.threads)
    share = accesses // len(blocks)
    budgets = [share] * len(blocks)
    budgets[0] += accesses - share * len(blocks)

    store_lines = accesses <= _STORE_LINES_MAX
    path = _container_path(config, request)
    writer = None
    if path is not None:
        writer = TraceTileWriter(
            path,
            meta={
                "app": request.app,
                "threads": request.threads,
                "accesses": accesses,
                "seed": config.seed,
                "blocks": [uid for uid, _, _ in blocks],
                "stores_lines": store_lines,
                "machine": machine_name,
            },
        )

    if levels is not None:
        collector = StreamedSignatureCollector(n_blocks=len(blocks), levels=levels)
    else:
        collector = StreamedSignatureCollector(n_blocks=len(blocks))
    try:
        for index, ((_uid, pattern, ipa), budget) in enumerate(
            zip(blocks, budgets, strict=True)
        ):
            if budget <= 0:
                continue
            seed = _block_seed(config.seed, request.app, index)
            for tile in iter_stream_tiles(
                pattern, budget, seed, tile_size, threads=request.threads
            ):
                artifacts = collector.feed(index, tile, instructions_per_access=ipa)
                if writer is not None:
                    columns = {
                        "block": np.array([index], dtype=np.int64),
                        "bbv": artifacts["bbv"],
                        "ldv": artifacts["ldv"],
                        "miss_count": np.array(
                            [int(artifacts["miss_mask"].sum())], dtype=np.int64
                        ),
                    }
                    if store_lines:
                        columns["lines"] = tile
                    writer.append(columns)
    except BaseException:
        if writer is not None:
            writer.abort()
        raise
    if writer is not None:
        writer.close()

    payload = dict(collector.result())
    payload["app"] = request.app
    payload["threads"] = request.threads
    payload["machine"] = machine_name
    payload["oracle_checked"] = False
    if store_lines:
        _assert_matches_oracles(request, config, blocks, budgets, payload, levels)
        payload["oracle_checked"] = True
    # The whole point of the tiled kernels is a bounded RSS; record the
    # cell's time and high-water mark under its own stage name so the
    # --profile table carries the evidence (worker deltas merge it back).
    from repro.exec.stagestore import stage_store_for

    stage_store_for(config).stats.record_run("trace", time.perf_counter() - started)
    return payload


def _block_seed(root_seed: int, app: str, block_index: int) -> int:
    """Deterministic, collision-resistant per-block stream seed."""
    import hashlib

    digest = hashlib.sha256(f"{root_seed}/{app}/{block_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _assert_matches_oracles(
    request, config, blocks, budgets, payload, levels=None
) -> None:
    """Replay the whole stream through the monolithic golden kernels."""
    from repro.instrumentation.streamed import StreamedSignatureCollector
    from repro.mem.cache import CacheSimulator
    from repro.mem.ldv import N_DISTANCE_BINS
    from repro.mem.reuse import reuse_distances, reuse_histogram
    from repro.mem.streams import iter_stream_tiles

    parts = []
    for index, ((_, pattern, _), budget) in enumerate(zip(blocks, budgets, strict=True)):
        if budget <= 0:
            continue
        seed = _block_seed(config.seed, request.app, index)
        parts.extend(
            iter_stream_tiles(
                pattern, budget, seed, budget, threads=request.threads
            )
        )
    stream = np.concatenate(parts)
    ldv = reuse_histogram(reuse_distances(stream), N_DISTANCE_BINS)
    if not np.allclose(ldv, payload["ldv"]):
        raise AssertionError(f"streamed LDV diverged from oracle for {request.app}")
    if levels is not None:
        level_sims = StreamedSignatureCollector(1, levels=levels)._levels
    else:
        level_sims = StreamedSignatureCollector(1)._levels
    substream = stream
    for name, sim in level_sims:
        oracle = CacheSimulator(
            sim.n_sets * sim.associativity * 64, sim.associativity
        ).miss_mask(substream)
        got = payload["levels"][name]
        if got["accesses"] != substream.size or got["misses"] != int(oracle.sum()):
            raise AssertionError(
                f"streamed {name} misses diverged from oracle for {request.app}"
            )
        substream = substream[oracle]


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
                    row["n_tiles"],
                    f"{row['distinct_lines']:,}",
                    f"{100.0 * l1['misses'] / max(l1['accesses'], 1):.2f}",
                    f"{100.0 * l2['misses'] / max(l2['accesses'], 1):.2f}",
                    f"{hot_share:.1f}",
                    "checked" if row.get("oracle_checked") else "streamed",
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
