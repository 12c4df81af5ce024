"""Property: a write torn at *any* byte boundary is a clean miss/heal.

The self-healing contract of every durable artifact format — the
columnar payload container (``.rpb``) and the CRC-framed record log
(the serve journal) — is exhaustive, not probabilistic: for
**every** prefix of the on-disk bytes, reading back must yield a clean
miss (payloads), or an exact record *prefix* plus a healed tail (record
logs).  Never an unhandled exception, and never wrong bytes.  These
tests enumerate every truncation point of small-but-representative
files, which is the whole space a torn ``write()`` + crash can produce.
"""

import numpy as np

from repro.exec.columnar import read_payload_file, write_payload_atomic
from repro.util.recordlog import RECORDLOG_MAGIC, RecordLog

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


class TestRecordLogTruncation:
    def test_every_prefix_replays_an_exact_record_prefix(self, tmp_path):
        path = tmp_path / "serve.journal"
        log = RecordLog(path)
        records = [{"i": i, "pad": "x" * (3 * i)} for i in range(8)]
        for record in records:
            log.append(record)
        log.close()
        blob = path.read_bytes()

        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            report = RecordLog(path).replay()
            got = report.records
            assert got == records[: len(got)], (
                f"truncation at byte {size} replayed non-prefix records"
            )
            if size < len(RECORDLOG_MAGIC):
                # Header never landed: quarantined aside, empty replay.
                assert got == []
                corrupt = path.with_suffix(".corrupt")
                if corrupt.exists():
                    corrupt.unlink()
            else:
                # Torn tail: healed in place, and the heal is
                # idempotent — a second replay sees a clean log.
                again = RecordLog(path).replay()
                assert again.records == got
                assert again.healed_bytes == 0

        path.write_bytes(blob)
        assert RecordLog(path).replay().records == records

    def test_corrupted_middle_frame_stops_at_last_good_record(self, tmp_path):
        """A bit-flip (not just truncation) can never smuggle bytes."""
        path = tmp_path / "serve.journal"
        log = RecordLog(path)
        records = [{"i": i} for i in range(4)]
        for record in records:
            log.append(record)
        log.close()
        blob = bytearray(path.read_bytes())

        # Flip one byte somewhere past the header on each pass.
        for position in range(len(RECORDLOG_MAGIC), len(blob)):
            flipped = bytearray(blob)
            flipped[position] ^= 0xFF
            path.write_bytes(bytes(flipped))
            got = RecordLog(path).replay().records
            assert got == records[: len(got)], (
                f"bit-flip at byte {position} replayed non-prefix records"
            )
