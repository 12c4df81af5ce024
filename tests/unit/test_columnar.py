"""Unit tests: the binary columnar container and the codec planes."""

import os

import numpy as np
import pytest

from repro.api.codec import (
    CODEC_VERSION,
    decode_payload,
    encode_payload,
    payload_from_jsonable,
    payload_nbytes,
    payload_to_jsonable,
)
from repro.exec.columnar import MAGIC, read_payload_file, write_payload_atomic
from repro.exec.request import StudyRequest
from repro.exec.stagestore import StageStore
from repro.exec.store import CACHE_VERSION, StudyStore, cache_version
from repro.experiments.config import ExperimentConfig

PAYLOAD = {
    "observations": [
        {
            "bbv": np.arange(24, dtype=np.float64).reshape(4, 6),
            "ldv": np.zeros((4, 3)),
            "weights": np.array([1.5, 2.5, 3.5, 4.5]),
            "run_index": 0,
        }
    ],
    "failures": {"ARMv8": "mismatch"},
    "scalar": np.array(2.75),
    "empty": np.empty((0, 28)),
}


def _assert_payload_equal(left, right):
    assert left["failures"] == right["failures"]
    obs_l, obs_r = left["observations"][0], right["observations"][0]
    for key in ("bbv", "ldv", "weights"):
        assert obs_l[key].dtype == obs_r[key].dtype
        assert obs_l[key].shape == obs_r[key].shape
        assert np.array_equal(obs_l[key], obs_r[key])
    assert obs_l["run_index"] == obs_r["run_index"]
    assert left["scalar"].shape == () and left["scalar"] == right["scalar"]
    assert left["empty"].shape == right["empty"].shape


class TestEncodePayload:
    def test_splits_arrays_from_metadata(self):
        meta, arrays = encode_payload(PAYLOAD)
        assert len(arrays) == 5
        assert meta["observations"][0]["bbv"] == {"__ndarray__": 0}
        assert meta["failures"] == {"ARMv8": "mismatch"}

    def test_decode_is_inverse(self):
        meta, arrays = encode_payload(PAYLOAD)
        _assert_payload_equal(decode_payload(meta, arrays), PAYLOAD)

    def test_payload_nbytes_counts_array_mass(self):
        assert payload_nbytes(PAYLOAD) == sum(
            a.nbytes for a in encode_payload(PAYLOAD)[1]
        )
        assert payload_nbytes({"just": "json", "k": [1, 2]}) == 0

    def test_json_wire_plane_is_inverse_too(self):
        jsonable = payload_to_jsonable(PAYLOAD)
        assert jsonable["observations"][0]["bbv"]["dtype"] == "<f8"
        _assert_payload_equal(payload_from_jsonable(jsonable), PAYLOAD)


class TestContainer:
    def test_roundtrip_and_reported_size(self, tmp_path):
        path = tmp_path / "payload.rpb"
        nbytes = write_payload_atomic(path, PAYLOAD)
        payload, size = read_payload_file(path)
        assert size == nbytes == path.stat().st_size
        _assert_payload_equal(payload, PAYLOAD)

    def test_reads_are_zero_copy_and_read_only(self, tmp_path):
        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, PAYLOAD)
        payload, _ = read_payload_file(path)
        bbv = payload["observations"][0]["bbv"]
        assert not bbv.flags.owndata  # a view into the bytes read
        assert not bbv.flags.writeable
        with pytest.raises(ValueError):
            bbv[0, 0] = 1.0

    def test_segments_are_aligned(self, tmp_path):
        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, PAYLOAD)
        import json as _json
        import struct

        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        (header_len,) = struct.unpack("<I", blob[4:8])
        header = _json.loads(blob[8 : 8 + header_len])
        for descriptor in header["arrays"]:
            assert descriptor["offset"] % 64 == 0

    def test_missing_file_is_none(self, tmp_path):
        assert read_payload_file(tmp_path / "absent.rpb") is None

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"RPB",
            b"JUNKJUNKJUNK",
            MAGIC + b"\xff\xff\xff\xff",
            MAGIC + b"\x05\x00\x00\x00{tor",
        ],
    )
    def test_corrupt_container_is_deleted_miss(self, tmp_path, blob):
        path = tmp_path / "torn.rpb"
        path.write_bytes(blob)
        assert read_payload_file(path) is None
        assert not path.exists()

    def test_out_of_range_array_index_is_deleted_miss(self, tmp_path):
        # A bit-flipped "__ndarray__" index in an otherwise-valid header
        # must self-heal as a miss, not crash the load.
        import json as _json
        import struct

        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, {"x": np.arange(4)})
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[4:8])
        header = _json.loads(blob[8 : 8 + header_len])
        header["meta"]["x"]["__ndarray__"] = 7  # table has one entry
        raw = _json.dumps(header, sort_keys=True).encode()
        raw += b" " * (header_len - len(raw))  # keep offsets valid
        path.write_bytes(blob[:8] + raw + blob[8 + header_len :])
        assert read_payload_file(path) is None
        assert not path.exists()

    def test_truncated_segment_is_deleted_miss(self, tmp_path):
        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, PAYLOAD)
        path.write_bytes(path.read_bytes()[:-64])
        assert read_payload_file(path) is None
        assert not path.exists()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "payload.rpb"
        write_payload_atomic(path, PAYLOAD)
        write_payload_atomic(path, PAYLOAD)  # overwrite in place
        assert not list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("*"))) == 1


class TestCodecSelection:
    def test_binary_codec_is_default(self):
        assert CODEC_VERSION == 2
        assert cache_version() == f"{CACHE_VERSION}.{CODEC_VERSION}"


class TestStageStoreCodecs:
    def test_binary_entries_are_containers(self, tmp_path):
        store = StageStore(tmp_path)
        store.store("d" * 64, "profile", PAYLOAD)
        (entry,) = store.artifacts.root.rglob("*.*")
        assert entry.suffix == ".rpb"
        _assert_payload_equal(store.load("d" * 64, "profile"), PAYLOAD)
        assert store.stats.bytes_encoded["profile"] > 0
        assert store.stats.bytes_decoded["profile"] > 0


class TestStudyStoreArrays:
    REQUEST = StudyRequest("scaling", "MCB", 4)

    def _config(self):
        return ExperimentConfig(discovery_runs=2, repetitions=3, cache_dir="")

    def test_array_payloads_roundtrip_binary(self, tmp_path):
        store = StudyStore(tmp_path, self._config())
        store.store(self.REQUEST, PAYLOAD)
        (entry,) = store.artifacts.root.rglob("*.*")
        assert entry.suffix == ".rpb" and entry.read_bytes()[:4] == MAGIC
        _assert_payload_equal(store.load(self.REQUEST), PAYLOAD)

    # "json": a JSON-shaped payload without arrays, like every cell
    # payload of a quick run; "container": one with array segments.
    @pytest.mark.parametrize("payload", [{"k": 7}, PAYLOAD], ids=["json", "container"])
    @pytest.mark.parametrize("read", ["load", "load_by_digest"])
    def test_read_refreshes_lru_clock(self, tmp_path, payload, read):
        # Serve's warm-disk GET and post-restart hydration read by
        # digest; a cell they just served must not look cold to the
        # eviction scan (mtime is its clock on noatime mounts).
        store = StudyStore(tmp_path, self._config())
        store.store(self.REQUEST, payload)
        (entry,) = store.artifacts.root.rglob("*.*")
        os.utime(entry, (1000.0, 1000.0))
        if read == "load":
            loaded = store.load(self.REQUEST)
        else:
            loaded = store.load_by_digest(store.digest(self.REQUEST))
        assert loaded is not None
        assert entry.stat().st_mtime > 1000.0

    def test_all_empty_arrays_still_route_to_a_container(self, tmp_path):
        # payload_nbytes is 0, yet the leaves must come back as arrays,
        # not as the lists a JSON round trip would make of them.
        store = StudyStore(tmp_path, self._config())
        payload = {"x": np.array([]), "n": 1}
        store.store(self.REQUEST, payload)
        loaded = store.load(self.REQUEST)
        assert loaded["n"] == 1
        assert isinstance(loaded["x"], np.ndarray) and loaded["x"].size == 0

    def test_spill_reclaim_roundtrip_and_cleanup(self, tmp_path):
        store = StudyStore(tmp_path, self._config())
        ref = store.spill(self.REQUEST, PAYLOAD)
        assert ref is not None and os.path.exists(ref)
        _assert_payload_equal(store.reclaim(ref), PAYLOAD)
        assert not os.path.exists(ref)

    def test_reclaim_of_torn_spill_raises(self, tmp_path):
        store = StudyStore(tmp_path, self._config())
        ref = store.spill(self.REQUEST, PAYLOAD)
        with open(ref, "wb") as handle:
            handle.write(b"torn")
        with pytest.raises(RuntimeError):
            store.reclaim(ref)

    def test_spill_disabled_store(self):
        store = StudyStore("", self._config())
        assert store.spill(self.REQUEST, PAYLOAD) is None
