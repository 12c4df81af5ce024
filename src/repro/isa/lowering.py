"""Lowering abstract instruction mixes to dynamic instruction counts.

This is the model of "what the compiler emitted".  It converts the
ISA-neutral :class:`~repro.ir.mix.InstructionMix` of a basic-block
iteration into per-class dynamic instruction counts for one of the four
binary variants the paper builds.

Modelling choices:

* Scalar instruction counts are *close* across ISAs — Blem et al. (HPCA
  2013), cited by the paper, found ISA effects on instruction count
  indistinguishable.  We keep small class-level deltas: x86_64's complex
  addressing folds some address arithmetic into memory operands, while
  ARMv8's load/store architecture pays a few extra ALU ops.
* Vectorisation packs the ``vectorisable`` fraction of FP and memory
  work into SIMD instructions with the extension's double-precision lane
  count: 4 lanes for AVX-256, 2 for AdvSIMD-128.  Packing adds the
  extension's shuffle/permute overhead, and loop control (a share of the
  integer and branch work) shrinks because each vector iteration retires
  ``lanes`` scalar iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.isa.descriptors import ISA, BinaryConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.mix import InstructionMix

__all__ = ["LoweredCounts", "lower_mix", "lowered_totals", "ISA_CLASS_FACTORS"]

#: Per-ISA multipliers applied to abstract operation counts, per class.
#: Values are deliberately close to 1.0 (Blem et al.).
ISA_CLASS_FACTORS: dict[ISA, dict[str, float]] = {
    ISA.X86_64: {"flops": 1.00, "int_ops": 0.92, "mem": 1.00, "branches": 1.00},
    ISA.ARMV8: {"flops": 1.00, "int_ops": 1.06, "mem": 1.04, "branches": 1.02},
}

#: Share of a block's integer/branch work that is loop control and
#: therefore shrinks when the loop is vectorised.
_LOOP_CONTROL_SHARE = 0.5


@dataclass(frozen=True)
class LoweredCounts:
    """Dynamic instruction counts per class for one block iteration.

    All values are averages per abstract iteration (fractions are fine:
    a 4-lane vector FP instruction contributes 0.25 per scalar flop).
    """

    scalar_flops: float
    vector_flops: float
    int_ops: float
    scalar_mem: float
    vector_mem: float
    branches: float
    simd_overhead: float

    @property
    def total(self) -> float:
        """Total dynamic instructions per abstract iteration."""
        return (
            self.scalar_flops
            + self.vector_flops
            + self.int_ops
            + self.scalar_mem
            + self.vector_mem
            + self.branches
            + self.simd_overhead
        )

    @property
    def vector_instructions(self) -> float:
        """SIMD instructions (FP + memory + packing) per iteration."""
        return self.vector_flops + self.vector_mem + self.simd_overhead


def lower_mix(mix: "InstructionMix", binary: BinaryConfig) -> LoweredCounts:
    """Lower an abstract mix to dynamic instruction counts for a binary.

    Parameters
    ----------
    mix:
        Abstract per-iteration operation counts.
    binary:
        Target ISA and vectorisation setting.

    Returns
    -------
    LoweredCounts
        Per-class dynamic instruction counts for one abstract iteration.
    """
    factors = ISA_CLASS_FACTORS[binary.isa]
    flops = mix.flops * factors["flops"]
    int_ops = mix.int_ops * factors["int_ops"]
    mem = (mix.loads + mix.stores) * factors["mem"]
    branches = mix.branches * factors["branches"]

    ext = binary.vector_extension
    if ext is None or mix.vectorisable == 0.0:
        return LoweredCounts(
            scalar_flops=flops,
            vector_flops=0.0,
            int_ops=int_ops,
            scalar_mem=mem,
            vector_mem=0.0,
            branches=branches,
            simd_overhead=0.0,
        )

    lanes = ext.f64_lanes
    vec = mix.vectorisable
    vector_flops = vec * flops / lanes
    scalar_flops = (1.0 - vec) * flops
    vector_mem = vec * mem / lanes
    scalar_mem = (1.0 - vec) * mem
    simd_overhead = ext.pack_overhead * (vector_flops + vector_mem)

    # Loop control retires `lanes` scalar iterations per vector iteration.
    control_shrink = 1.0 - _LOOP_CONTROL_SHARE * vec * (1.0 - 1.0 / lanes)
    int_ops *= control_shrink
    branches *= control_shrink

    return LoweredCounts(
        scalar_flops=scalar_flops,
        vector_flops=vector_flops,
        int_ops=int_ops,
        scalar_mem=scalar_mem,
        vector_mem=vector_mem,
        branches=branches,
        simd_overhead=simd_overhead,
    )


def lowered_totals(mixes: Sequence["InstructionMix"], binary: BinaryConfig) -> np.ndarray:
    """Total dynamic instructions per iteration for many mixes at once.

    The batched form of ``lower_mix(mix, binary).total``: one numpy pass
    over a whole block universe instead of one :class:`LoweredCounts`
    object per block.  BBV collection calls this once per trace (the
    BBV dimensions follow the block universe), so the per-block Python
    loop disappears from the discovery hot path.  Element ``i`` is
    bit-identical to the scalar path for ``mixes[i]``.
    """
    factors = ISA_CLASS_FACTORS[binary.isa]
    flops = np.array([m.flops for m in mixes], dtype=float) * factors["flops"]
    int_ops = np.array([m.int_ops for m in mixes], dtype=float) * factors["int_ops"]
    mem = np.array([m.loads + m.stores for m in mixes], dtype=float) * factors["mem"]
    branches = np.array([m.branches for m in mixes], dtype=float) * factors["branches"]
    scalar_total = flops + int_ops + mem + branches

    ext = binary.vector_extension
    if ext is None:
        return scalar_total

    lanes = ext.f64_lanes
    vec = np.array([m.vectorisable for m in mixes], dtype=float)
    vector_flops = vec * flops / lanes
    scalar_flops = (1.0 - vec) * flops
    vector_mem = vec * mem / lanes
    scalar_mem = (1.0 - vec) * mem
    simd_overhead = ext.pack_overhead * (vector_flops + vector_mem)
    control_shrink = 1.0 - _LOOP_CONTROL_SHARE * vec * (1.0 - 1.0 / lanes)
    vec_total = (
        scalar_flops
        + vector_flops
        + int_ops * control_shrink
        + scalar_mem
        + vector_mem
        + branches * control_shrink
        + simd_overhead
    )
    return np.where(vec == 0.0, scalar_total, vec_total)
