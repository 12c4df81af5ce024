"""Unit tests for the size-budgeted LRU store evictor.

The three properties the serve daemon leans on:

* eviction unlinks coldest-first and stops at the byte budget;
* an entry with live mmap readers is *never* unlinked, no matter how
  cold (and its bytes keep counting against the budget);
* eviction is loss-free — an evicted cell is a cache miss whose
  recompute/refetch is byte-identical to what was dropped.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import numpy as np

from repro.exec.columnar import (
    open_reader_count,
    read_payload_file,
    write_payload_atomic,
)
from repro.exec.eviction import StoreEvictor
from repro.exec.store import CELLS, SPILL, STAGES, ArtifactStore

KIB = 1024


def _entry(
    root: Path, namespace: str, name: str, nbytes: int, age: float, shard: str = "aa"
) -> Path:
    """Create one fake store entry `age` seconds cold."""
    path = ArtifactStore(root).path(namespace, name, shard + "0" * 62)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"\0" * nbytes)
    stamp = 1_700_000_000.0 - age
    os.utime(path, (stamp, stamp))
    return path


class TestScan:
    def test_orders_coldest_first(self, tmp_path):
        x = _entry(tmp_path, STAGES, "x", KIB, age=10.0)
        y = _entry(tmp_path, CELLS, "y", KIB, age=30.0, shard="bb")
        z = _entry(tmp_path, CELLS, "z", KIB, age=20.0, shard="cc")
        evictor = StoreEvictor(tmp_path, budget_bytes=10 * KIB)
        assert [entry.path for entry in evictor.scan()] == [y, z, x]

    def test_ignores_non_entry_files(self, tmp_path):
        entry = _entry(tmp_path, STAGES, "x", KIB, age=0.0)
        temp = entry.with_name(entry.name + "123.tmp")  # a write in flight
        temp.write_bytes(b"\0" * KIB)
        _entry(tmp_path, SPILL, "payload", KIB, age=0.0)  # a hand-off, not cache
        evictor = StoreEvictor(tmp_path, budget_bytes=1)
        assert [e.path for e in evictor.scan()] == [entry]

    def test_disabled_without_budget(self, tmp_path):
        assert not StoreEvictor(tmp_path, budget_bytes=0).enabled
        assert not StoreEvictor("", budget_bytes=100).enabled
        assert StoreEvictor(tmp_path, budget_bytes=100).enabled


class TestEvict:
    def test_lru_until_under_budget(self, tmp_path):
        cold = _entry(tmp_path, STAGES, "cold", 4 * KIB, age=100.0)
        mid = _entry(tmp_path, STAGES, "mid", 4 * KIB, age=50.0, shard="bb")
        hot = _entry(tmp_path, CELLS, "hot", 4 * KIB, age=1.0, shard="cc")
        evictor = StoreEvictor(tmp_path, budget_bytes=8 * KIB)
        report = evictor.evict()
        assert not cold.exists() and mid.exists() and hot.exists()
        assert report.evicted_files == 1
        assert report.evicted_bytes == 4 * KIB
        assert report.remaining_bytes <= 8 * KIB

    def test_noop_when_under_budget(self, tmp_path):
        path = _entry(tmp_path, STAGES, "x", KIB, age=100.0)
        report = StoreEvictor(tmp_path, budget_bytes=64 * KIB).evict()
        assert path.exists() and report.evicted_files == 0

    def test_hit_refreshes_lru_clock(self, tmp_path):
        """A recently hit entry outlives an untouched one."""
        store = ArtifactStore(tmp_path)
        digest = "aa" + "0" * 62
        store.write(STAGES, "touched", digest, {"k": 1})
        touched = store.path(STAGES, "touched", digest)
        os.utime(touched, (1_700_000_000.0 - 100.0,) * 2)
        other = _entry(tmp_path, STAGES, "other", touched.stat().st_size, age=50.0)
        assert store.read(STAGES, "touched", digest)  # the hit: now newer
        StoreEvictor(tmp_path, budget_bytes=touched.stat().st_size).evict()
        assert touched.exists() and not other.exists()

    def test_open_reader_is_never_evicted(self, tmp_path):
        """The 64 MiB-budget property: mapped containers are untouchable."""
        payload = {"big": np.arange(32 * KIB, dtype=np.int64)}
        target = ArtifactStore(tmp_path).path(STAGES, "mapped", "aa" + "0" * 62)
        write_payload_atomic(target, payload)
        os.utime(target, (1.0, 1.0))  # coldest possible
        loaded, _ = read_payload_file(target)  # zero-copy views hold the mmap
        assert open_reader_count(target) == 1

        evictor = StoreEvictor(tmp_path, budget_bytes=1)
        report = evictor.evict()
        assert target.exists()
        assert report.skipped_open == 1
        assert report.evicted_files == 0
        # The payload stays readable *through* the eviction pass.
        assert np.array_equal(loaded["big"], payload["big"])

        # Once the views die the entry is fair game again.
        del loaded
        gc.collect()
        assert open_reader_count(target) == 0
        report = evictor.evict()
        assert not target.exists()
        assert report.evicted_files == 1

    def test_eviction_is_loss_free(self, tmp_path):
        """Evict → refetch reproduces the container byte-identically."""
        payload = {
            "weights": np.linspace(0.0, 1.0, 4096),
            "counts": np.arange(4096, dtype=np.int64),
            "meta": {"k": 7},
        }
        target = ArtifactStore(tmp_path).path(STAGES, "roundtrip", "aa" + "0" * 62)
        write_payload_atomic(target, payload)
        before = target.read_bytes()

        StoreEvictor(tmp_path, budget_bytes=1).evict()
        assert not target.exists()

        # The refetch is a deterministic re-encode of the same payload.
        write_payload_atomic(target, payload)
        assert target.read_bytes() == before
        after, _ = read_payload_file(target)
        assert np.array_equal(after["weights"], payload["weights"])
        assert np.array_equal(after["counts"], payload["counts"])
        assert after["meta"] == {"k": 7}
