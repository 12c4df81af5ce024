"""The Stage protocol: one composable step of the methodology.

A stage is a named transformation over a :class:`~repro.api.context.StageContext`:
it declares which artifacts it consumes (``inputs``) and publishes
(``outputs``), contributes the configuration knobs it depends on to the
content address of its payload (``cache_key``), and — when
``cacheable`` — can round-trip its outputs through a JSON payload so the
execution layer can cache the pipeline at stage granularity.

Stage identity is the chain of cache keys up to and including a stage,
so changing a knob re-runs exactly the stages downstream of it: a
``maxK`` change re-clusters but reuses the cached profile payload,
from which the signatures are re-derived.
"""

from __future__ import annotations

import abc

from repro.api.context import StageContext

__all__ = ["Stage"]


class Stage(abc.ABC):
    """Base class of pipeline stages (subclass and register to extend).

    Example
    -------
    A minimal custom stage that derives an artifact from the built-in
    ``selections`` and plugs into any pipeline::

        from repro.api import Stage, register_stage

        @register_stage
        class CountStage(Stage):
            name = "count"
            inputs = ("selections",)
            outputs = ("selection_sizes",)
            description = "record each selection's representative count"

            def run(self, ctx):
                ctx.put("selection_sizes",
                        [s.k for s in ctx.require("selections")])
                return ctx

        build_pipeline("miniFE").with_stage(CountStage()).run()

    Class attributes
    ----------------
    name:
        Stage identity; a builder's ``with_stage`` replaces the stage
        holding the same name, so a custom clustering stage subclasses
        with ``name = "cluster"`` (or registers under a new name and is
        inserted explicitly).
    inputs / outputs:
        Artifact names consumed / published, for introspection,
        CLI listings and graph validation.
    description:
        One line for ``repro stages``.
    cacheable:
        Whether the execution layer may persist this stage's payload.
    """

    name: str = ""
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    description: str = ""
    cacheable: bool = False

    @abc.abstractmethod
    def run(self, ctx: StageContext) -> StageContext:
        """Execute the stage, publishing ``outputs`` into the context."""

    def cache_key(self, ctx: StageContext) -> dict:
        """JSON-shaped contribution to the stage's content address.

        Must cover every configuration knob that can change this stage's
        outputs *given identical inputs* — read from ``ctx.config`` or
        constructor overrides; upstream knobs are already in the address
        through the digest chain.
        """
        return {}

    def encode(self, ctx: StageContext) -> dict:
        """Payload tree reproducing this stage's outputs (cacheable only).

        JSON-shaped scalars/dicts/lists with raw :class:`numpy.ndarray`
        leaves — the store moves the arrays into the binary columnar
        plane, so stages never serialise array data themselves.
        """
        raise NotImplementedError(f"stage {self.name!r} is not cacheable")

    def decode(self, payload: dict, ctx: StageContext) -> None:
        """Publish outputs from a cached payload instead of running.

        Arrays in ``payload`` may be read-only zero-copy views into the
        store's mmap; copy before mutating (pipeline stages never do).
        """
        raise NotImplementedError(f"stage {self.name!r} is not cacheable")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
