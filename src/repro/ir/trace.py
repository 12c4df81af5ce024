"""Execution traces: one dynamic run of a program.

A trace is what the Pin-style instrumentation (and later the hardware
model) consumes: for every dynamic barrier point, the per-thread
iteration counts of every basic block, plus the per-instance drift state
(footprint/hot-set scaling, phase).  Traces are produced by
:func:`repro.runtime.execution.execute_program` and are numpy-backed so
LULESH's 9,840 barrier points stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.ir.blocks import BasicBlock
from repro.ir.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.descriptors import BinaryConfig

__all__ = ["TemplateTrace", "ExecutionTrace"]


@dataclass(frozen=True)
class TemplateTrace:
    """Dynamic state of every instance of one region template.

    Attributes
    ----------
    iters:
        ``(n_instances, n_blocks, n_threads)`` — iterations each thread
        executed of each block, per dynamic instance.
    footprint_scale:
        ``(n_instances,)`` — drift multiplier on the blocks' footprints.
    hot_scale:
        ``(n_instances,)`` — drift multiplier on the blocks' hot fraction.
    phase:
        ``(n_instances,)`` — instance phase in [0, 1].
    """

    iters: np.ndarray
    footprint_scale: np.ndarray
    hot_scale: np.ndarray
    phase: np.ndarray

    def __post_init__(self) -> None:
        n_inst = self.iters.shape[0]
        if self.iters.ndim != 3:
            raise ValueError(f"iters must be 3-D, got shape {self.iters.shape}")
        for name in ("footprint_scale", "hot_scale", "phase"):
            arr = getattr(self, name)
            if arr.shape != (n_inst,):
                raise ValueError(
                    f"{name} must have shape ({n_inst},), got {arr.shape}"
                )

    @property
    def n_instances(self) -> int:
        """Number of dynamic instances of this template."""
        return int(self.iters.shape[0])

    @property
    def n_threads(self) -> int:
        """Team width the trace was generated for."""
        return int(self.iters.shape[2])


@dataclass(frozen=True)
class ExecutionTrace:
    """One dynamic execution of a program on one binary configuration.

    Attributes
    ----------
    program:
        The static program.
    binary:
        Which of the four binary variants executed.
    threads:
        OpenMP team width.
    template_traces:
        Per-template dynamic state, aligned with ``program.templates``.
    bp_template / bp_instance:
        ``(n_bp,)`` coordinates of every dynamic barrier point: the
        template index and the instance index within that template.
    """

    program: Program
    binary: "BinaryConfig"
    threads: int
    template_traces: tuple[TemplateTrace, ...]
    bp_template: np.ndarray
    bp_instance: np.ndarray

    def __post_init__(self) -> None:
        if len(self.template_traces) != self.program.n_templates:
            raise ValueError(
                f"{len(self.template_traces)} template traces for "
                f"{self.program.n_templates} templates"
            )
        if self.bp_template.shape != self.bp_instance.shape:
            raise ValueError("bp_template and bp_instance must align")

    @property
    def n_barrier_points(self) -> int:
        """Number of dynamic barrier points in the region of interest."""
        return int(self.bp_template.size)

    def block_universe(self) -> list[tuple[int, BasicBlock]]:
        """Global block ordering: ``[(template_index, block), ...]``.

        BBV dimensions follow this ordering (times the thread count when
        per-thread vectors are concatenated).
        """
        universe: list[tuple[int, BasicBlock]] = []
        for t_idx, template in enumerate(self.program.templates):
            for block in template.blocks:
                universe.append((t_idx, block))
        return universe

    @property
    def n_blocks_total(self) -> int:
        """Number of distinct static blocks across all templates."""
        return sum(t.n_blocks for t in self.program.templates)

    def gather_instance_values(self, per_template: list[np.ndarray]) -> np.ndarray:
        """Map per-(template, instance) arrays into barrier-point order.

        ``per_template[t]`` must have leading dimension ``n_instances`` of
        template ``t``; the result has leading dimension ``n_bp``.
        """
        if len(per_template) != self.program.n_templates:
            raise ValueError("one array per template required")
        first = np.asarray(per_template[self.bp_template[0]])
        out = np.zeros((self.n_barrier_points,) + first.shape[1:], dtype=float)
        for t_idx, values in enumerate(per_template):
            values = np.asarray(values)
            mask = self.bp_template == t_idx
            out[mask] = values[self.bp_instance[mask]]
        return out
