"""A program: region templates plus the dynamic barrier-point sequence.

The sequence is the ordered list of parallel-region executions inside the
region of interest — exactly the partitioning the BarrierPoint tool sees.
Applications construct it from their phase structure (e.g. HPCG emits the
regions of one CG iteration 38 times; LULESH emits ~492 regions per time
step).  The sequence length is the *total number of barrier points*
reported in Table III.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.regions import RegionTemplate

__all__ = ["Program"]


@dataclass(frozen=True)
class Program:
    """Static templates and the dynamic order they execute in.

    Attributes
    ----------
    name:
        Application name (registry key).
    templates:
        The static parallel regions.
    sequence:
        ``int`` array, one entry per dynamic barrier point, holding the
        index of the template executed at that position.
    """

    name: str
    templates: tuple[RegionTemplate, ...]
    sequence: np.ndarray

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError(f"program {self.name!r} has no templates")
        seq = np.asarray(self.sequence, dtype=np.int64)
        if seq.ndim != 1 or seq.size == 0:
            raise ValueError(f"program {self.name!r}: sequence must be non-empty 1-D")
        if seq.min() < 0 or seq.max() >= len(self.templates):
            raise ValueError(
                f"program {self.name!r}: sequence references template "
                f"{int(seq.max())} but only {len(self.templates)} exist"
            )
        object.__setattr__(self, "sequence", seq)

    @property
    def n_barrier_points(self) -> int:
        """Total number of dynamic barrier points (Table III 'Total')."""
        return int(self.sequence.size)

    @property
    def n_templates(self) -> int:
        """Number of static parallel regions."""
        return len(self.templates)

    def instance_counts(self) -> np.ndarray:
        """Dynamic instance count per template, aligned with ``templates``."""
        return np.bincount(self.sequence, minlength=len(self.templates))

    def instance_index(self) -> np.ndarray:
        """For each barrier point, its 0-based instance number within its template.

        Together with :attr:`sequence` this gives the (template, instance)
        coordinates used by :class:`~repro.ir.trace.ExecutionTrace`.
        """
        # A stable sort lists each template's barrier points in order;
        # an instance number is its rank past its template's first one.
        order = np.argsort(self.sequence, kind="stable")
        counts = self.instance_counts()
        starts = np.cumsum(counts) - counts
        result = np.empty_like(self.sequence)
        result[order] = np.arange(self.sequence.size) - np.repeat(starts, counts)
        return result

    def phases(self) -> np.ndarray:
        """Per-barrier-point phase in [0, 1] within its template's lifetime."""
        counts = self.instance_counts()
        inst = self.instance_index()
        denom = np.maximum(counts[self.sequence] - 1, 1)
        return inst / denom

    def nominal_instructions(self) -> float:
        """Abstract operations of the whole region of interest (nominal)."""
        counts = self.instance_counts()
        return float(
            sum(
                int(c) * t.abstract_instructions()
                for c, t in zip(counts, self.templates, strict=True)
            )
        )
