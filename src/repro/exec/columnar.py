"""The binary columnar payload container (``.rpb``).

One file per cached payload, self-describing and mmap-readable::

    offset 0   magic  b"RPB1"
    offset 4   uint32 little-endian header length H
    offset 8   header: UTF-8 JSON, sorted keys
    ...        zero padding to the first 64-byte boundary
    ...        array segments, contiguous little-endian bytes,
               each starting on a 64-byte boundary

The header carries the codec version, the payload's metadata plane (the
JSON tree with ``{"__ndarray__": i}`` placeholders — see
:mod:`repro.api.codec`), and one ``{dtype, shape, offset, nbytes}``
descriptor per segment with *absolute* file offsets.  Readers therefore
need nothing but this file: :func:`read_payload_file` maps it once and
rebuilds every array as a zero-copy ``np.frombuffer`` view into the
mapping — decoding cost is one JSON header parse regardless of how many
megabytes of arrays the payload carries.

Writes go to a temp file in the same directory, are fsynced unless
the caller opts out, and land via ``os.replace``; a torn or truncated
file is treated as a miss and deleted so the next write heals the
slot.  Decoded arrays are
**read-only** (they alias the shared mapping); consumers that want to
mutate must copy, which none of the pipeline stages do.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import tempfile
import weakref
from pathlib import Path

import numpy as np

__all__ = [
    "MAGIC",
    "SEGMENT_ALIGN",
    "write_payload_atomic",
    "read_payload_file",
    "open_reader_count",
    "unlink_when_closed",
]

MAGIC = b"RPB1"
#: Segments start on cache-line boundaries so views are alignment-safe
#: for every dtype the pipeline emits.
SEGMENT_ALIGN = 64

_HEADER_LEN = struct.Struct("<I")


def _align(offset: int) -> int:
    return (offset + SEGMENT_ALIGN - 1) // SEGMENT_ALIGN * SEGMENT_ALIGN


def write_payload_atomic(path: Path, payload, durable: bool = True) -> int:
    """Persist one payload as a columnar container; returns bytes written.

    Atomic against concurrent readers and crashes: temp file in the
    same directory, fsync, then ``os.replace``.  ``durable=False`` skips
    the fsync — right for *self-healing* cache entries, where a
    power-cut torn container costs a recompute (bad magic/truncated
    segment → miss, see :func:`read_payload_file`), never a wrong
    result, and fsyncing hundreds of MiB of stage payloads would
    dominate the cold path it exists to accelerate.
    """
    # Imported lazily: the exec layer must not import repro.api at
    # module scope (api.builder imports exec.stagestore, which imports
    # this module — a top-level import would close that cycle).
    from repro.api.codec import encode_payload
    from repro.exec.faults import active_plan

    # Consult the fault plane up front: an injected ``enospc`` raises
    # before any byte lands; an injected ``torn`` write publishes a
    # truncated container the reader must heal back to a miss.
    fault = active_plan().on_write(path.name)

    meta, arrays = encode_payload(payload)
    descriptors = []
    body_parts: list[bytes] = []

    # Lay the segments out twice: a dry pass to learn the header length
    # (descriptors carry absolute offsets, which depend on it), then the
    # real pass.  Descriptor digit widths could drift between passes, so
    # the second pass re-pads the header to the precomputed data start.
    for array in arrays:
        descriptors.append(
            {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": 0,
                "nbytes": int(array.nbytes),
            }
        )
    header = {"codec": 2, "meta": meta, "arrays": descriptors}
    probe = json.dumps(header, sort_keys=True).encode("utf-8")
    # Generous slack: offsets rendered at their widest plausible width.
    data_start = _align(4 + _HEADER_LEN.size + len(probe) + 16 * len(arrays) + 16)

    offset = data_start
    for descriptor, array in zip(descriptors, arrays, strict=True):
        descriptor["offset"] = offset
        offset = _align(offset + array.nbytes) if array.nbytes else offset
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    header_end = 4 + _HEADER_LEN.size + len(header_bytes)
    if header_end > data_start:  # pragma: no cover - slack is generous
        raise ValueError("columnar header overflowed its offset slack")

    body_parts.append(MAGIC)
    body_parts.append(_HEADER_LEN.pack(len(header_bytes)))
    body_parts.append(header_bytes)
    body_parts.append(b"\x00" * (data_start - header_end))
    cursor = data_start
    for descriptor, array in zip(descriptors, arrays, strict=True):
        if array.nbytes == 0:
            continue
        body_parts.append(b"\x00" * (descriptor["offset"] - cursor))
        # memoryview, not tobytes(): segments stream to the file without
        # an extra in-memory copy of potentially hundreds of MiB.
        body_parts.append(memoryview(array).cast("B"))
        cursor = descriptor["offset"] + array.nbytes
    total = cursor if arrays else data_start

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in body_parts:
                handle.write(part)
            if fault == "torn":
                # A truncated container reads as bad magic / truncated
                # header / truncated segment — every case a self-healing
                # miss, never wrong bytes (asserted by the torn-write
                # property suite at every byte boundary).
                handle.flush()
                handle.truncate(max(1, total // 2))
            if durable:
                handle.flush()
                # fsync before rename: os.replace is atomic in the
                # namespace but only durable once the temp file's data
                # has hit disk.
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return total


def read_payload_file(path: Path) -> tuple[object, int] | None:
    """Load one container zero-copy; ``(payload, nbytes)``, None on miss.

    The file is mapped read-only and every array in the payload is a
    view into that mapping (``np.frombuffer``); the mapping stays alive
    for as long as any view does.  A corrupt container (bad magic,
    truncated, undecodable header) is deleted and treated as a miss.
    """
    from repro.api.codec import decode_payload  # lazy: see write side

    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < 4 + _HEADER_LEN.size:
                raise ValueError("truncated container")
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        if buffer[:4] != MAGIC:
            raise ValueError("bad magic")
        (header_len,) = _HEADER_LEN.unpack(buffer[4 : 4 + _HEADER_LEN.size])
        header_end = 4 + _HEADER_LEN.size + header_len
        if header_end > size:
            raise ValueError("truncated header")
        header = json.loads(buffer[4 + _HEADER_LEN.size : header_end])
        arrays = []
        for descriptor in header["arrays"]:
            dtype = np.dtype(descriptor["dtype"])
            shape = tuple(descriptor["shape"])
            nbytes = int(descriptor["nbytes"])
            offset = int(descriptor["offset"])
            if nbytes == 0:
                arrays.append(np.empty(shape, dtype=dtype))
                continue
            if offset + nbytes > size:
                raise ValueError("truncated segment")
            view = np.frombuffer(
                buffer, dtype=dtype, count=nbytes // dtype.itemsize, offset=offset
            )
            arrays.append(view.reshape(shape))
        if any(array.nbytes for array in arrays):
            # The decoded payload aliases the mapping through zero-copy
            # views.  Register the mapping in the open-reader registry so
            # reclaim/eviction defer deletion until the last view (and
            # with it the mmap) dies; the finalizer is the reader's
            # implicit close().
            key = os.path.abspath(path)
            _track_reader_open(key)
            weakref.finalize(buffer, _track_reader_close, key)
        return decode_payload(header["meta"], arrays), size
    except FileNotFoundError:
        return None
    except (
        OSError,
        ValueError,
        KeyError,
        IndexError,  # corrupt header: out-of-range "__ndarray__" index
        TypeError,
        json.JSONDecodeError,
    ):
        from repro.exec.health import record_heal

        try:
            path.unlink()
        except OSError:
            pass
        record_heal("container")
        return None


# Open-reader registry: cache reclamation must not delete a container
# whose mapping live views still alias (a view would fault on platforms
# without POSIX unlink-while-open semantics, and on POSIX the store
# would silently free nothing until the mapping dies anyway).
# ``unlink_when_closed`` defers deletion to the final close.  Every
# ``.rpb`` payload read with array segments registers here, and a
# ``weakref.finalize`` on its mapping closes it once the last zero-copy
# view dies.
_OPEN_READERS: dict[str, int] = {}
_DEFERRED_UNLINKS: set[str] = set()


def _track_reader_open(key: str) -> None:
    _OPEN_READERS[key] = _OPEN_READERS.get(key, 0) + 1


def _track_reader_close(key: str) -> None:
    count = _OPEN_READERS.get(key, 0) - 1
    if count > 0:
        _OPEN_READERS[key] = count
        return
    _OPEN_READERS.pop(key, None)
    if key in _DEFERRED_UNLINKS:
        _DEFERRED_UNLINKS.discard(key)
        try:
            os.unlink(key)
        except OSError:
            pass


def open_reader_count(path: Path | str) -> int:
    """Live mappings of ``path`` still held by payload views (0 when free)."""
    return _OPEN_READERS.get(os.path.abspath(path), 0)


def unlink_when_closed(path: Path | str) -> bool:
    """Delete ``path`` now, or defer until its last open reader closes.

    Returns True when the file was unlinked immediately, False when the
    deletion was deferred (or the file was already gone).
    """
    key = os.path.abspath(path)
    if _OPEN_READERS.get(key, 0) > 0:
        _DEFERRED_UNLINKS.add(key)
        return False
    try:
        os.unlink(key)
        return True
    except OSError:
        return False
