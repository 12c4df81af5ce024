"""Vectorised discovery-path kernels equal the expressions they replace.

* ``Program.instance_index`` sorts once instead of looping over every
  barrier point; it must give the loop's int64 array.
* ``CleanSignatures.observe`` jitters only the clean nonzeros, drawing
  ``z`` a chunk of rows at a time; the dense form of what it keeps must
  be the expression ``clean * np.exp(sigma[:, None] * z)`` bit for bit
  (a zero's sign included), and it must leave the generator where that
  expression leaves it, since the LDV draws follow the BBV draws.
* ``aggregate_observation`` sums only the kept entries of each half;
  their dense form must be ``aggregate_values`` of the dense halves,
  bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.coalesce import aggregate_observation, aggregate_values
from repro.instrumentation.collector import (
    _DRAW_ROWS,
    CleanSignatures,
    DiscoveryObservation,
    Nonzeros,
)
from repro.ir.blocks import BasicBlock
from repro.ir.memory import MemoryPattern, PatternKind
from repro.ir.mix import InstructionMix
from repro.ir.program import Program
from repro.ir.regions import RegionTemplate

pytestmark = pytest.mark.properties


def _instance_index_loop(program: Program) -> np.ndarray:
    """The reference: count each template's instances in sequence order."""
    counters = np.zeros(program.n_templates, dtype=np.int64)
    result = np.empty_like(program.sequence)
    for pos, tmpl in enumerate(program.sequence):
        result[pos] = counters[tmpl]
        counters[tmpl] += 1
    return result


def _program(n_templates: int, sequence: list[int]) -> Program:
    mix = InstructionMix(flops=1, loads=1)
    pattern = MemoryPattern(PatternKind.STREAM, footprint_bytes=2**12)
    templates = tuple(
        RegionTemplate(f"t{t}", (BasicBlock(f"p/t{t}/b", "b", mix, pattern),), (1.0,))
        for t in range(n_templates)
    )
    return Program("p", templates, np.asarray(sequence))


@st.composite
def _programs(draw) -> Program:
    # Templates are drawn from a random subset, so some have no instance.
    n_templates = draw(st.integers(1, 8))
    used = draw(
        st.lists(st.integers(0, n_templates - 1), min_size=1, max_size=n_templates, unique=True)
    )
    sequence = draw(st.lists(st.sampled_from(used), min_size=1, max_size=200))
    return _program(n_templates, sequence)


@given(_programs())
@example(_program(3, [2, 2, 0, 2]))
@settings(max_examples=150, deadline=None)
def test_instance_index_matches_the_loop(program):
    got = program.instance_index()
    assert got.dtype == np.int64
    assert np.array_equal(got, _instance_index_loop(program))


def _bits(array: np.ndarray) -> np.ndarray:
    return array.view(np.int64)


def _dense(half: Nonzeros) -> np.ndarray:
    return half.rows(0, half.shape[0])


# Clean entries as collected (nonnegative) plus what must survive
# anyway: signed zeros, negatives, subnormals.
_ENTRIES = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
)


@st.composite
def _halves(draw, n_bp: int) -> np.ndarray:
    """One clean half: mixed, all zero, fully dense, or with zero rows."""
    cols = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["mixed", "zero", "dense", "zero_rows"]))
    if kind == "zero":
        return np.zeros((n_bp, cols))
    if kind == "dense":
        return draw(arrays(np.float64, (n_bp, cols), elements=st.floats(1e-3, 1e12)))
    half = draw(arrays(np.float64, (n_bp, cols), elements=_ENTRIES))
    if kind == "zero_rows":
        half[draw(arrays(np.bool_, n_bp))] = 0.0
    return half


@st.composite
def _clean_pairs(draw):
    n_bp = draw(st.integers(1, 10))
    sigma = draw(arrays(np.float64, n_bp, elements=st.floats(0.0, 1.0)))
    return draw(_halves(n_bp)), draw(_halves(n_bp)), sigma


def _dense_run(bbv, ldv, sigma, gen):
    """The dense per-run expression: BBV, then LDV, from one generator."""
    bbv = bbv * np.exp(sigma[:, None] * gen.standard_normal(bbv.shape))
    ldv = ldv * np.exp(sigma[:, None] * gen.standard_normal(ldv.shape))
    return bbv, ldv


#: A run that spans two draw chunks; the BBV keeps nothing in the
#: first 1,000 rows, so its kept entries start late in the first chunk.
_TWO_CHUNKS = _DRAW_ROWS + 9
_SPANNING = (
    np.vstack(
        [np.zeros((1_000, 5)), np.tile([0.0, 2.0, -0.0, 7.5, 0.0], (_TWO_CHUNKS - 1_000, 1))]
    ),
    np.tile([1.0, 0.0, 3.0], (_TWO_CHUNKS, 1)),
    np.linspace(0.0, 1.0, _TWO_CHUNKS),
)


@given(_clean_pairs(), st.integers(0, 2**32 - 1))
@example((np.zeros((3, 4)), np.zeros((3, 2)), np.full(3, 0.3)), 1)
@example((np.arange(1.0, 13.0).reshape(3, 4), np.eye(3), np.full(3, 0.3)), 2)
@example(_SPANNING, 3)
@settings(max_examples=150, deadline=None)
def test_sparse_observe_is_the_dense_expression(clean, seed):
    bbv, ldv, sigma = clean
    signatures = CleanSignatures(
        bbv=Nonzeros.of(bbv), ldv=Nonzeros.of(ldv), weights=np.ones(len(sigma)), sigma=sigma
    )
    sparse_gen = np.random.default_rng(seed)
    dense_gen = np.random.default_rng(seed)

    obs = signatures.observe(sparse_gen, run_index=0)
    want_bbv, want_ldv = _dense_run(bbv, ldv, sigma, dense_gen)

    assert np.array_equal(_bits(_dense(obs.bbv)), _bits(want_bbv))
    assert np.array_equal(_bits(_dense(obs.ldv)), _bits(want_ldv))
    assert sparse_gen.bit_generator.state == dense_gen.bit_generator.state


@st.composite
def _grouped(draw):
    """Two clean halves and a group per barrier point (any order)."""
    bbv, ldv, _ = draw(_clean_pairs())
    groups = draw(arrays(np.int64, len(bbv), elements=st.integers(0, 3)))
    return bbv, ldv, groups


@given(_grouped())
@example(
    (np.array([[-0.0, 1.0], [0.0, -1.0]]), np.array([[-0.0], [-0.0]]), np.zeros(2, np.int64))
)
@settings(max_examples=150, deadline=None)
def test_sparse_aggregate_is_the_dense_sum(grouped):
    bbv, ldv, groups = grouped
    observation = DiscoveryObservation(
        bbv=Nonzeros.of(bbv), ldv=Nonzeros.of(ldv), weights=np.ones(len(bbv)), run_index=0
    )

    merged = aggregate_observation(observation, groups)

    assert np.array_equal(_bits(_dense(merged.bbv)), _bits(aggregate_values(bbv, groups)))
    assert np.array_equal(_bits(_dense(merged.ldv)), _bits(aggregate_values(ldv, groups)))
