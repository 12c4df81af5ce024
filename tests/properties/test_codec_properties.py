"""Property tests: the payload codecs round-trip exactly.

The five registered stages emit float64/int64/int32/bool arrays in 0-d,
1-d and 2-d shapes (including empty axes); the strategies below cover
that envelope plus the adjacent dtypes, and every draw must survive both
the columnar container and the JSON wire plane bit-for-bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, from_dtype

from repro.api.codec import (
    decode_payload,
    encode_payload,
    payload_from_jsonable,
    payload_to_jsonable,
)
from repro.exec.columnar import read_payload_file, write_payload_atomic

#: The dtype envelope the registered stages emit (plus neighbours).
STAGE_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]
)

#: 0-d through 3-d, explicitly allowing empty axes.
SHAPES = st.one_of(
    st.just(()),
    array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5),
)


@st.composite
def stage_arrays(draw):
    dtype = np.dtype(draw(STAGE_DTYPES))
    shape = draw(SHAPES)
    return draw(
        arrays(dtype, shape, elements=from_dtype(dtype, allow_nan=False))
    )


@st.composite
def payload_trees(draw):
    """Payload trees shaped like stage encodes: dicts/lists over arrays
    and JSON scalars."""
    leaves = st.one_of(
        stage_arrays(),
        st.integers(-(2**40), 2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
    )
    return draw(
        st.recursive(
            leaves,
            lambda children: st.one_of(
                st.lists(children, max_size=3),
                st.dictionaries(st.text(max_size=6), children, max_size=3),
            ),
            max_leaves=8,
        )
    )


def _trees_equal(left, right) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (
            isinstance(left, np.ndarray)
            and isinstance(right, np.ndarray)
            and left.dtype == right.dtype
            and left.shape == right.shape
            and left.tobytes() == right.tobytes()
        )
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and left.keys() == right.keys()
            and all(_trees_equal(left[k], right[k]) for k in left)
        )
    if isinstance(left, (list, tuple)):
        return (
            isinstance(right, (list, tuple))
            and len(left) == len(right)
            and all(_trees_equal(a, b) for a, b in zip(left, right, strict=True))
        )
    return left == right or (left != left and right != right)


@given(array=stage_arrays())
@settings(max_examples=150, deadline=None)
def test_single_array_roundtrips_columnar_and_wire_planes(array, tmp_path_factory):
    payload = {"a": array}
    meta, table = encode_payload(payload)
    assert _trees_equal(decode_payload(meta, table), payload)
    assert _trees_equal(payload_from_jsonable(payload_to_jsonable(payload)), payload)

    path = tmp_path_factory.mktemp("codec") / "one.rpb"
    write_payload_atomic(path, payload)
    loaded, _ = read_payload_file(path)
    assert _trees_equal(loaded, payload)


@given(tree=payload_trees())
@settings(max_examples=75, deadline=None)
def test_payload_tree_roundtrips_container(tree, tmp_path_factory):
    path = tmp_path_factory.mktemp("codec") / "tree.rpb"
    write_payload_atomic(path, tree)
    loaded, _ = read_payload_file(path)
    # The container's metadata plane is JSON: tuples come back as lists,
    # which _trees_equal treats as equal (stage payloads never rely on
    # tuple identity).
    assert _trees_equal(loaded, tree)


def test_registered_stage_payloads_roundtrip(tmp_path):
    """Every cacheable registered stage's real encode survives the
    container and the JSON wire plane bit-for-bit (the end-to-end
    version of the property)."""
    from repro.api import PipelineConfig, build_pipeline
    from repro.hw.measure import MeasurementProtocol
    from repro.isa.descriptors import ISA

    config = PipelineConfig(
        discovery_runs=2, protocol=MeasurementProtocol(repetitions=2)
    )
    pipeline = (
        build_pipeline("MCB", threads=2, config=config).on(ISA.X86_64).build()
    )
    pipeline.run()
    for stage in pipeline.stages:
        if not stage.cacheable:
            continue
        payload = stage.encode(pipeline.context)
        path = tmp_path / f"{stage.name}.rpb"
        write_payload_atomic(path, payload)
        loaded, _ = read_payload_file(path)
        assert _trees_equal(loaded, payload), stage.name
        wire = payload_from_jsonable(payload_to_jsonable(payload))
        assert _trees_equal(wire, payload), stage.name
