"""E-SCALE — the strong-scaling grid, timed, as a JSON perf baseline.

Unlike the pytest-benchmark suites, this is a standalone script: CI
runs it on every push and uploads the emitted JSON as an artifact, so
the repository accumulates a perf trajectory the next optimisation PR
can compare against (this file records the first point of it).

Three sections land in the JSON:

* ``grid``      — wall time of the scheduled apps × threads sweep
  (cold and stage-cached re-render) plus its shape: ``cells`` counts
  its (app, width) cells, each measured on the ``machines`` registered
  sweep machines;
* ``kernels``   — microbenchmarks of the vectorised kernels the sweep
  leans on: BBV/signature accumulation, one exact SimPoint clustering
  sweep at LULESH's signature shape, the exact set-associative LRU
  simulator's lockstep path, the columnar payload codec
  (encode/decode round trip through a real container file), the
  vectorised exact reuse-distance engine, and the two *streamed*
  kernels at paper scale (10⁷-access streams): the tiled
  reuse-distance engine and the tiled cache simulator, each checked
  bit-identical against its monolithic oracle on a shared prefix;
* ``meta``      — scale, python/numpy versions, cpu count.

``benchmarks/check_regression.py`` compares a fresh report against the
committed ``BENCH_bench_scaling_grid.json`` baseline; CI fails on >25%
regression of any gated metric.

Usage::

    python benchmarks/bench_scaling_grid.py --scale smoke
    python benchmarks/bench_scaling_grid.py --scale quick --jobs 4 \
        --output bench-scaling-grid.json

``smoke`` trims the grid to two apps × widths (1, 2, 4) on the quick
protocol — small enough for a CI runner; ``quick`` and ``full`` run the
whole grid on the corresponding protocol scale.  Every scale measures
the three registered sweep machines: one cell per (app, width) runs one
discovery and measures it on each of them.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.api.sweep import SCALING_MACHINES, SCALING_THREAD_COUNTS, ThreadAxis
from repro.exec.scheduler import StudyScheduler
from repro.experiments.config import default_config
from repro.experiments.sweep import SweepGrid
from repro.workloads.registry import EVALUATED_APPS

#: Bench scales: (protocol scale, apps, thread counts).
BENCH_SCALES = {
    "smoke": ("quick", EVALUATED_APPS[:2], (1, 2, 4)),
    "quick": ("quick", EVALUATED_APPS, SCALING_THREAD_COUNTS),
    "full": ("full", EVALUATED_APPS, SCALING_THREAD_COUNTS),
}


def bench_grid(scale: str, jobs: int, cache_dir: str) -> dict:
    """Time the scheduled scaling grid, cold and stage-cached."""
    protocol, apps, thread_counts = BENCH_SCALES[scale]
    config = default_config(protocol, cache_dir=cache_dir, jobs=jobs)
    machines = SCALING_MACHINES
    requests = SweepGrid(ThreadAxis(), thread_counts).requests_for(apps, machines)

    t0 = time.perf_counter()
    cold = StudyScheduler(config).run(requests)
    cold_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = StudyScheduler(config).run(requests)
    warm_seconds = time.perf_counter() - t0
    assert warm == cold, "stage-cached re-render must be bit-identical"

    return {
        "apps": len(apps),
        "machines": len(machines),
        "thread_counts": list(thread_counts),
        "cells": len(requests),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "cells_per_second_cold": round(len(requests) / cold_seconds, 3),
    }


def bench_bbv_kernel() -> dict:
    """Microbenchmark: BBV collection over a real trace, per run."""
    from repro.api.context import StageContext
    from repro.instrumentation.bbv import collect_bbv
    from repro.isa.descriptors import ISA
    from repro.workloads.registry import create

    ctx = StageContext(create("LULESH"), threads=8)
    trace = ctx.trace(ISA.X86_64)
    collect_bbv(trace)  # an untimed first call warms the allocator
    t0 = time.perf_counter()
    rounds = 5
    for _ in range(rounds):
        bbv = collect_bbv(trace)
    seconds = (time.perf_counter() - t0) / rounds
    return {
        "workload": "LULESH",
        "barrier_points": int(bbv.shape[0]),
        "dimensions": int(bbv.shape[1]),
        "seconds_per_run": round(seconds, 5),
    }


def bench_simpoint_kernel() -> dict:
    """Microbenchmark: one exact SimPoint sweep at LULESH's shape.

    A seeded 9,840 × 352 signature matrix (LULESH's barrier points × its
    8-thread BBV ⊕ LDV width) goes through :func:`run_simpoint` with the
    default exact options: projection, then for every k of the grid the
    k-means++ seeding, Lloyd update and BIC score of each restart.  Per-
    cluster masks or per-call ``(n, k)`` temporaries in those kernels
    show up here first.
    """
    from repro.clustering.simpoint import SimPointOptions, run_simpoint

    gen = np.random.default_rng(2017)
    archetypes = gen.random((16, 352))
    signatures = archetypes[gen.integers(0, 16, size=9840)] * gen.lognormal(
        0.0, 0.1, (9840, 352)
    )
    weights = gen.integers(1_000, 100_000, size=9840).astype(float)
    options = SimPointOptions()
    run_simpoint(signatures, weights, np.random.default_rng(0), options)  # warm
    rounds = 5
    t0 = time.perf_counter()
    for seed in range(rounds):
        choice = run_simpoint(signatures, weights, np.random.default_rng(seed), options)
    seconds = (time.perf_counter() - t0) / rounds
    return {
        "barrier_points": int(signatures.shape[0]),
        "dimensions": int(signatures.shape[1]),
        "k_examined": len(choice.bic_by_k),
        "seconds_per_sweep": round(seconds, 5),
    }


def bench_cache_kernel() -> dict:
    """Microbenchmark: lockstep LRU simulation throughput (L1-sized)."""
    from repro.mem.cache import CacheSimulator

    gen = np.random.default_rng(2017)
    lines = gen.integers(0, 8192, size=1_000_000)
    cache = CacheSimulator(32 * 1024, 8)
    cache.miss_mask(lines[:1000])  # touch the code paths once
    t0 = time.perf_counter()
    mask = cache.miss_mask(lines)
    seconds = time.perf_counter() - t0
    return {
        "accesses": int(lines.size),
        "misses": int(mask.sum()),
        "accesses_per_second": round(lines.size / seconds),
    }


def bench_codec_kernel() -> dict:
    """Microbenchmark: columnar container encode/decode throughput."""
    import tempfile
    from pathlib import Path as _Path

    from repro.exec.columnar import read_payload_file, write_payload_atomic

    gen = np.random.default_rng(2017)
    payload = {
        "observations": [
            {
                "bbv": gen.random((1200, 256)),
                "ldv": gen.random((1200, 224)),
                "weights": gen.random(1200),
                "run_index": run,
            }
            for run in range(3)
        ]
    }
    nbytes = sum(
        arr.nbytes
        for obs in payload["observations"]
        for arr in (obs["bbv"], obs["ldv"], obs["weights"])
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = _Path(tmp) / "bench.rpb"
        write_payload_atomic(path, payload, durable=False)  # warm
        rounds = 5
        t0 = time.perf_counter()
        for _ in range(rounds):
            write_payload_atomic(path, payload, durable=False)
        encode_seconds = (time.perf_counter() - t0) / rounds
        t0 = time.perf_counter()
        for _ in range(rounds):
            decoded, _size = read_payload_file(path)
        decode_seconds = (time.perf_counter() - t0) / rounds
        assert np.array_equal(
            decoded["observations"][0]["bbv"], payload["observations"][0]["bbv"]
        )
    return {
        "payload_mib": round(nbytes / 2**20, 1),
        "encode_mib_per_second": round(nbytes / 2**20 / encode_seconds, 1),
        "decode_mib_per_second": round(nbytes / 2**20 / decode_seconds, 1),
    }


def bench_reuse_kernel() -> dict:
    """Microbenchmark: vectorised exact reuse distances vs the oracle."""
    from repro.mem.reuse import reuse_distances_vectorised

    gen = np.random.default_rng(2017)
    lines = gen.integers(0, 4096, size=200_000)
    reuse_distances_vectorised(lines[:1000])  # touch the code paths once
    t0 = time.perf_counter()
    distances = reuse_distances_vectorised(lines)
    seconds = time.perf_counter() - t0
    return {
        "accesses": int(lines.size),
        "cold": int((distances < 0).sum()),
        "accesses_per_second": round(lines.size / seconds),
    }


#: Stream length of the streamed-kernel microbenches.  Deliberately
#: paper-scale (10⁷ accesses): the whole point of the tiled kernels is
#: throughput *at* the lengths the monolithic paths choke on, so the
#: committed baseline carries the at-scale numbers even on the smoke
#: grid.
STREAM_ACCESSES = 10_000_000

#: Monolithic-oracle reference prefix: long enough for a meaningful
#: reference throughput, short enough that the O(n·distinct)-ish oracle
#: doesn't dominate CI wall time.
REFERENCE_PREFIX = 1_000_000


def _streamed_bench_stream(n: int) -> np.ndarray:
    """The streamed-kernel bench stream: 60% hot lines, 40% cold sweep.

    Mixes a 4096-line hot set with a 2M-line cold footprint — hot reuse
    exercises the fast hit paths, the cold mass the eviction/compose
    machinery.  Seeded, so the miss counts below are stable constants.
    """
    rng = np.random.default_rng(1)
    hot = np.arange(n, dtype=np.int64) % 4096
    cold = rng.integers(0, 2_000_000, size=n)
    pick = rng.random(n) < 0.6
    return np.where(pick, hot, 4096 + cold)


def bench_reuse_streamed() -> dict:
    """Microbenchmark: tiled reuse-distance engine at paper scale.

    Times the carried-state streaming engine over a 10⁷-access stream,
    then the monolithic golden oracle over a 10⁶ prefix, and asserts
    the two are bit-identical on that prefix.  The monolithic engine's
    throughput *degrades* with stream length (its per-call sort spans
    the whole history), so the recorded speedup is a lower bound on the
    at-scale one.
    """
    from repro.mem.reuse import reuse_distances_vectorised
    from repro.mem.streaming import reuse_distances_streamed

    lines = _streamed_bench_stream(STREAM_ACCESSES)
    reuse_distances_streamed(lines[:100_000])  # touch the code paths once
    t0 = time.perf_counter()
    distances = reuse_distances_streamed(lines)
    seconds = time.perf_counter() - t0

    prefix = lines[:REFERENCE_PREFIX]
    t0 = time.perf_counter()
    reference = reuse_distances_vectorised(prefix)
    ref_seconds = time.perf_counter() - t0
    assert np.array_equal(distances[: prefix.size], reference), (
        "streamed reuse distances diverged from the monolithic oracle"
    )
    per_second = lines.size / seconds
    ref_per_second = prefix.size / ref_seconds
    return {
        "accesses": int(lines.size),
        "cold": int((distances < 0).sum()),
        "accesses_per_second": round(per_second),
        "reference_accesses": int(prefix.size),
        "reference_accesses_per_second": round(ref_per_second),
        "speedup_vs_reference": round(per_second / ref_per_second, 2),
    }


def bench_cache_tiled() -> dict:
    """Microbenchmark: tiled set-associative LRU at paper scale.

    Times the carried-state tile path (packed uint64 fast path with
    lockstep fallback) over a 10⁷-access stream on an L2-like geometry
    (2 MiB, 8-way), then the monolithic lockstep path over a 10⁶ prefix
    and asserts identical miss counts on that prefix.
    """
    from repro.mem.cache import CacheSimulator
    from repro.mem.streaming import iter_array_tiles

    lines = _streamed_bench_stream(STREAM_ACCESSES)
    cache = CacheSimulator(2 * 1024 * 1024, 8)
    cache.simulate_tiled(iter_array_tiles(lines[:100_000]))  # warm
    cache = CacheSimulator(2 * 1024 * 1024, 8)
    t0 = time.perf_counter()
    result = cache.simulate_tiled(iter_array_tiles(lines))
    seconds = time.perf_counter() - t0

    prefix = lines[:REFERENCE_PREFIX]
    reference_cache = CacheSimulator(2 * 1024 * 1024, 8)
    t0 = time.perf_counter()
    reference_misses = int(reference_cache.miss_mask(prefix).sum())
    ref_seconds = time.perf_counter() - t0
    prefix_cache = CacheSimulator(2 * 1024 * 1024, 8)
    prefix_result = prefix_cache.simulate_tiled(iter_array_tiles(prefix))
    assert prefix_result.misses == reference_misses, (
        "tiled cache misses diverged from the monolithic oracle"
    )
    per_second = lines.size / seconds
    ref_per_second = prefix.size / ref_seconds
    return {
        "accesses": int(result.accesses),
        "misses": int(result.misses),
        "accesses_per_second": round(per_second),
        "reference_accesses": int(prefix.size),
        "reference_accesses_per_second": round(ref_per_second),
        "speedup_vs_reference": round(per_second / ref_per_second, 2),
    }


def calibration_score() -> float:
    """Machine-speed proxy: fixed numpy workload, higher = faster host.

    The perf gate normalises wall-time and throughput metrics by this
    score, so a committed baseline from one machine remains comparable
    on a differently-sized CI runner; see
    ``benchmarks/check_regression.py``.  The score is the median of
    five timed rounds, so one slow round on a noisy host does not
    rescale the whole gate.
    """
    gen = np.random.default_rng(7)
    a = gen.random((256, 256))
    vec = gen.random(1_250_000)  # ~10 MB: memory-bandwidth half
    a @ a
    vec.sum()
    iterations = 10
    scores = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(iterations):
            (a @ a).sum()
            vec.cumsum()
        scores.append(iterations / (time.perf_counter() - t0))
    return round(statistics.median(scores), 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(BENCH_SCALES), default="smoke")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="stage/study cache directory ('' disables caching)",
    )
    parser.add_argument(
        "--output",
        default="bench-scaling-grid.json",
        metavar="PATH",
        help="where to write the JSON baseline",
    )
    args = parser.parse_args(argv)

    report = {
        "bench": "scaling-grid",
        "meta": {
            "scale": args.scale,
            "jobs": args.jobs,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "calibration_score": calibration_score(),
        },
        "grid": bench_grid(args.scale, args.jobs, args.cache_dir),
        "kernels": {
            "bbv_collect": bench_bbv_kernel(),
            "simpoint_sweep": bench_simpoint_kernel(),
            "cache_lockstep": bench_cache_kernel(),
            "payload_codec": bench_codec_kernel(),
            "reuse_distances": bench_reuse_kernel(),
            "reuse_streamed": bench_reuse_streamed(),
            "cache_tiled": bench_cache_tiled(),
        },
    }
    text = json.dumps(report, indent=2)
    Path(args.output).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
