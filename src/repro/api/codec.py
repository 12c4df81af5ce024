"""Bit-exact payload codecs for stage and cell artifacts.

Two planes, one contract: a decoded payload is indistinguishable from a
freshly computed one, to the bit.

* **Columnar plane** (the cache format, ``CODEC_VERSION`` 2) —
  :func:`encode_payload` splits a JSON-shaped tree with
  :class:`numpy.ndarray` leaves into a pure-JSON *metadata plane* (the
  tree with each array replaced by an index placeholder) and an *array
  table* of contiguous little-endian buffers.  The binary container in
  :mod:`repro.exec.columnar` lays those buffers out as aligned segments
  behind a small header, so :func:`decode_payload` can rebuild the tree
  from zero-copy ``np.frombuffer`` views over an ``mmap`` — no base64,
  no ``tolist``, no text parsing of array data.

* **JSON wire plane** — arrays become ``{dtype, shape, data}`` dicts
  with base64 payloads inside ordinary JSON
  (:func:`encode_array`/:func:`decode_array`);
  :func:`payload_to_jsonable`/:func:`payload_from_jsonable` apply that
  encoding over a whole tree.  The serve daemon's ``/v1/cells``
  responses and the scheduler's byte-identity witness use it.  Decimal
  text would be ~3x larger than the data and float round-tripping
  mistakes are a classic source of result drift, which is why even the
  wire plane ships raw little-endian bytes.

The codec version is part of the cache version
(:func:`repro.exec.store.cache_version`), so a codec change relocates
every cache address instead of raising on a format it cannot decode.
"""

from __future__ import annotations

import base64

import numpy as np

__all__ = [
    "CODEC_VERSION",
    "encode_array",
    "decode_array",
    "encode_payload",
    "decode_payload",
    "payload_to_jsonable",
    "payload_from_jsonable",
    "payload_nbytes",
    "payload_has_arrays",
]

#: The binary columnar codec (metadata JSON + little-endian segments).
CODEC_VERSION = 2

#: Placeholder key marking an array slot in the metadata plane.  The
#: JSON wire plane never produces single-key dicts with this key, and
#: stage payloads are built from dataclass fields, so the sentinel
#: cannot collide with real data.
_ARRAY_KEY = "__ndarray__"


def _as_little_endian(array: np.ndarray) -> np.ndarray:
    """Contiguous little-endian view/copy of one array.

    Shape-preserving: ``np.ascontiguousarray`` would promote 0-d arrays
    to ``(1,)``, so it only runs when the input isn't contiguous already
    (0-d arrays always are).
    """
    array = np.asarray(array)
    if not array.flags.c_contiguous:
        array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts only
        array = array.astype(array.dtype.newbyteorder("<"))
    return array


# -------------------------------------------------------- JSON wire plane
def encode_array(array: np.ndarray) -> dict:
    """Encode one array as ``{dtype, shape, data}`` with base64 payload.

    Example
    -------
    >>> import numpy as np
    >>> from repro.api.codec import decode_array, encode_array
    >>> original = np.linspace(0.0, 1.0, 7)
    >>> bool(np.array_equal(decode_array(encode_array(original)), original))
    True
    """
    array = _as_little_endian(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Rebuild the exact array :func:`encode_array` saw."""
    raw = base64.b64decode(payload["data"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape(tuple(payload["shape"])).copy()


def _is_encoded_array(node: dict) -> bool:
    return set(node) == {"dtype", "shape", "data"} and isinstance(
        node.get("data"), str
    )


def payload_to_jsonable(payload):
    """JSON wire plane: replace every ndarray leaf with its base64 dict."""
    if isinstance(payload, np.ndarray):
        return encode_array(payload)
    if isinstance(payload, dict):
        return {key: payload_to_jsonable(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [payload_to_jsonable(value) for value in payload]
    return payload


def payload_from_jsonable(payload):
    """Inverse of :func:`payload_to_jsonable` (sniffs the array dicts)."""
    if isinstance(payload, dict):
        if _is_encoded_array(payload):
            return decode_array(payload)
        return {key: payload_from_jsonable(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [payload_from_jsonable(value) for value in payload]
    return payload


# ---------------------------------------------------------- columnar plane
def encode_payload(payload) -> tuple[object, list[np.ndarray]]:
    """Split a payload tree into its metadata plane and array table.

    Every :class:`numpy.ndarray` leaf is replaced by
    ``{"__ndarray__": index}`` and appended (contiguous, little-endian)
    to the returned table; scalars, strings, dicts and lists pass
    through untouched, so the metadata plane is plain JSON.

    Example
    -------
    >>> import numpy as np
    >>> meta, arrays = encode_payload({"x": np.arange(3), "k": 7})
    >>> meta == {"x": {"__ndarray__": 0}, "k": 7} and len(arrays) == 1
    True
    """
    arrays: list[np.ndarray] = []

    def walk(node):
        if isinstance(node, np.ndarray):
            arrays.append(_as_little_endian(node))
            return {_ARRAY_KEY: len(arrays) - 1}
        if isinstance(node, dict):
            return {key: walk(value) for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            return [walk(value) for value in node]
        return node

    return walk(payload), arrays


def decode_payload(meta, arrays: list[np.ndarray]):
    """Rebuild the payload tree :func:`encode_payload` split apart.

    ``arrays`` may be zero-copy views (the columnar container hands in
    mmap-backed buffers); they are attached as-is, so a decoded payload
    costs no array copies.
    """
    if isinstance(meta, dict):
        if set(meta) == {_ARRAY_KEY}:
            return arrays[meta[_ARRAY_KEY]]
        return {key: decode_payload(value, arrays) for key, value in meta.items()}
    if isinstance(meta, list):
        return [decode_payload(value, arrays) for value in meta]
    return meta


def payload_nbytes(payload) -> int:
    """Total array bytes in a payload tree (the transport-size estimate).

    The scheduler uses this to decide whether a cell payload should ride
    the pickle boundary or be reattached by file handle.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, dict):
        return sum(payload_nbytes(value) for value in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(value) for value in payload)
    return 0


def payload_has_arrays(payload) -> bool:
    """Whether any :class:`numpy.ndarray` (even empty) is in the tree.

    Distinct from ``payload_nbytes(payload) > 0``: an all-empty-array
    payload carries zero bytes but still cannot ride a plain-JSON plane.
    """
    if isinstance(payload, np.ndarray):
        return True
    if isinstance(payload, dict):
        return any(payload_has_arrays(value) for value in payload.values())
    if isinstance(payload, (list, tuple)):
        return any(payload_has_arrays(value) for value in payload)
    return False
