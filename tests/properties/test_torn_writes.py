"""Property: a write torn at *any* byte boundary is a clean miss/heal.

The self-healing contract of the durable artifact format — the
columnar payload container (``.rpb``) — is exhaustive, not
probabilistic: for **every** prefix of the on-disk bytes, reading back
must yield a clean miss and delete the torn file.  Never an unhandled
exception, and never wrong bytes.  The test enumerates every
truncation point of a small-but-representative file, which is the
whole space a torn ``write()`` + crash can produce.
"""

import numpy as np

from repro.exec.columnar import read_payload_file, write_payload_atomic

PAYLOAD = {
    "bbv": np.arange(24, dtype=np.float64).reshape(4, 6),
    "weights": np.array([1.5, 2.5, 3.5]),
    "note": "torn-write property",
}


class TestPayloadContainerTruncation:
    def test_every_prefix_reads_as_self_healing_miss(self, tmp_path):
        path = tmp_path / "cell.rpb"
        total = write_payload_atomic(path, PAYLOAD)
        blob = path.read_bytes()
        assert len(blob) == total

        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            assert read_payload_file(path) is None, (
                f"truncation at byte {size} did not read as a miss"
            )
            assert not path.exists(), (
                f"corrupt container survived heal at byte {size}"
            )

        # The intact container still round-trips after all that.
        path.write_bytes(blob)
        loaded = read_payload_file(path)
        assert loaded is not None
        payload, _ = loaded
        assert np.array_equal(payload["bbv"], PAYLOAD["bbv"])
