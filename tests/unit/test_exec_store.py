"""Tests for the content-addressed study cache store."""

import json

import pytest

from repro.clustering.simpoint import SimPointOptions
from repro.exec.request import StudyRequest
from repro.exec.store import (
    CELLS,
    SPILL,
    STAGES,
    ArtifactStore,
    StudyStore,
    cache_version,
    config_fingerprint,
)
from repro.experiments.config import ExperimentConfig

REQUEST = StudyRequest("crossarch", "MCB", 4)


def _config(**overrides):
    base = dict(thread_counts=(4,), discovery_runs=2, repetitions=5, cache_dir="")
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigFingerprint:
    def test_stable_for_equal_configs(self):
        assert config_fingerprint(_config()) == config_fingerprint(_config())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"discovery_runs": 3},
            {"repetitions": 9},
            {"seed": 7},
            {"bbv_weight": 0.25},
            {"simpoint": SimPointOptions(max_k=10)},
            {"simpoint": SimPointOptions(projected_dims=11)},
        ],
    )
    def test_sensitive_to_protocol_knobs(self, overrides):
        # The old filename-based key omitted SimPointOptions and
        # bbv_weight entirely — changing maxK served stale summaries.
        assert config_fingerprint(_config(**overrides)) != config_fingerprint(
            _config()
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"thread_counts": (1, 8)},
            {"cache_dir": "/elsewhere"},
            {"jobs": 8},
            {"faults": "seed=7,kill=0.5,torn=0.5", "cell_retries": 5},
        ],
    )
    def test_insensitive_to_execution_knobs(self, overrides):
        assert config_fingerprint(_config(**overrides)) == config_fingerprint(
            _config()
        )


class TestStudyStore:
    def test_roundtrip(self, tmp_path):
        store = StudyStore(tmp_path, _config())
        assert store.load(REQUEST) is None
        store.store(REQUEST, {"answer": [1, 2, 3]})
        assert store.load(REQUEST) == {"answer": [1, 2, 3]}

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = StudyStore(tmp_path, _config())
        store.store(REQUEST, {"x": 1})
        store.store(REQUEST, {"x": 2})  # overwrite in place
        assert store.load(REQUEST) == {"x": 2}
        assert not list(tmp_path.rglob("*.tmp"))
        assert len(list(tmp_path.rglob("*.rpb"))) == 1

    def test_config_change_misses(self, tmp_path):
        StudyStore(tmp_path, _config()).store(REQUEST, {"x": 1})
        changed = StudyStore(tmp_path, _config(simpoint=SimPointOptions(max_k=10)))
        assert changed.load(REQUEST) is None

    def test_distinct_requests_distinct_paths(self, tmp_path):
        store = StudyStore(tmp_path, _config())
        other = StudyRequest("crossarch", "MCB", 8)
        with_params = StudyRequest("coalesce", "MCB", 4, params=(("threshold", 1.0),))
        paths = {store.path(r) for r in (REQUEST, other, with_params)}
        assert len(paths) == 3

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = StudyStore(tmp_path, _config())
        store.store(REQUEST, {"x": 1})
        path = store.path(REQUEST)
        path.write_bytes(path.read_bytes()[:10])  # a torn container
        assert store.load(REQUEST) is None
        assert not path.exists()
        store.store(REQUEST, {"x": 3})  # slot is writable again
        assert store.load(REQUEST) == {"x": 3}

    def test_disabled_store(self):
        store = StudyStore("", _config())
        assert not store.enabled
        assert store.path(REQUEST) is None
        store.store(REQUEST, {"x": 1})  # no-op
        assert store.load(REQUEST) is None

    def test_payloads_survive_json_roundtrip(self, tmp_path):
        store = StudyStore(tmp_path, _config())
        payload = {"floats": [0.1, 2.5e-17], "nested": {"k": 3}}
        store.store(REQUEST, payload)
        loaded = store.load(REQUEST)
        assert loaded == payload
        # Exact float preservation matters for bit-reproducibility.
        assert json.dumps(loaded, sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )


class TestArtifactStore:
    DIGEST = "ab" + "0" * 62

    def test_layout_is_one_versioned_root(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write(STAGES, "profile", self.DIGEST, {"k": 1})
        (entry,) = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert entry.relative_to(tmp_path).parts == (
            f"v{cache_version()}", STAGES, "ab", f"profile_{self.DIGEST}.rpb"
        )
        assert store.read(STAGES, "profile", self.DIGEST)[0] == {"k": 1}

    def test_find_matches_the_full_digest_only(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write(CELLS, "crossarch_MCB_t4", self.DIGEST, {"k": 2})
        assert store.find(CELLS, self.DIGEST)[0] == {"k": 2}
        assert store.find(CELLS, self.DIGEST[:20]) is None
        assert store.find(STAGES, self.DIGEST) is None

    def test_entries_are_cells_and_stages_not_spill(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for namespace in (CELLS, STAGES, SPILL):
            store.write(namespace, namespace, self.DIGEST, {"k": 3})
        names = sorted(path.name.split("_")[0] for path in store.entries())
        assert names == [CELLS, STAGES]

    def test_prune_removes_stale_layouts_only(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write(CELLS, "current", self.DIGEST, {"k": 4})
        stale = ["v0.1", "v10.2", "cells", "stages", "traces", "checkpoints", "spill"]
        for name in stale:
            (tmp_path / name / "aa").mkdir(parents=True)
            (tmp_path / name / "aa" / "entry").write_bytes(b"old")
        (tmp_path / "serve").mkdir()
        (tmp_path / "serve" / "serve.journal").write_bytes(b"journal")
        (tmp_path / "v1.x").mkdir()  # not a version: an unknown name
        (tmp_path / "notes.txt").write_text("mine")
        assert store.prune() == sorted(stale)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "notes.txt", "serve", "v1.x", f"v{cache_version()}"
        ]
        assert store.read(CELLS, "current", self.DIGEST)[0] == {"k": 4}
        assert store.prune() == []

    def test_disabled_store_touches_nothing(self):
        store = ArtifactStore("")
        assert not store.enabled and store.root is None
        assert store.write(CELLS, "x", self.DIGEST, {"k": 5}) == 0
        assert store.read(CELLS, "x", self.DIGEST) is None
        assert list(store.entries()) == [] and store.prune() == []
