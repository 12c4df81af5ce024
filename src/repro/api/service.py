"""Typed request/response models of the ``repro serve`` JSON API.

The serve daemon, the ``repro client`` CLI, the benchmark harness and
the tests all speak the same wire shapes; this module is the single
definition of them.  Everything is a frozen dataclass with explicit
``to_json``/``from_json`` methods — the wire format is plain JSON, the
typed layer exists so the five call sites cannot drift apart.

A :class:`CellSubmission` names one study cell the way the CLI does
(kind, app, machine, threads, ranks, protocol scale, stage overrides)
and lowers to the *same* :class:`~repro.exec.request.StudyRequest` the
batch experiments declare — which is what makes the service's dedup
digest identical to the scheduler's: a cell computed by ``repro all``
is a warm hit for a served client and vice versa.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.exec.request import StudyRequest

__all__ = [
    "SUBMISSION_KINDS",
    "CELL_STATES",
    "SubmissionError",
    "CellSubmission",
    "CellStatus",
    "ServerStatus",
]

#: Cell kinds a client may submit.  Deliberately the service-relevant
#: subset of :data:`repro.exec.cells.CELL_KINDS`: the figure/table cells
#: exist to render one specific artefact and are reachable via
#: ``crossarch``, which is what they derive from.
SUBMISSION_KINDS = ("crossarch", "scaling", "ranks", "trace")

#: Lifecycle of one served cell.
CELL_STATES = ("queued", "running", "done", "failed")


class SubmissionError(ValueError):
    """A submission that cannot be lowered to a valid study request.

    The server maps this to a 400 response carrying the message, so
    validation detail (including the registries' did-you-mean hints)
    reaches the client verbatim.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SubmissionError(message)


@dataclass(frozen=True)
class CellSubmission:
    """One study-cell request as a client poses it.

    Attributes
    ----------
    kind:
        One of :data:`SUBMISSION_KINDS`.
    app:
        Workload registry name (case-insensitive, like the CLI).
    threads:
        Team width (``crossarch``/``scaling``; ``ranks`` cells use the
        rank grid's fixed per-rank width, ``trace`` cells the trace
        grid's).
    machine:
        Machine registry name — required for ``scaling`` and ``ranks``,
        where it names the result row the client reads: the cell of one
        (app, width) holds a row per grid machine that can host it.
    ranks:
        Rank count — required for ``ranks``.
    accesses:
        Stream length for ``trace`` cells (None: the scale's default).
    scale:
        Protocol scale (``quick``/``full``) the serving config runs at.
    max_k:
        Optional SimPoint sweep cap — the stage override the CLI's
        ``--max-k`` exposes; folded into the configuration fingerprint,
        so two submissions differing only here are distinct cells.
    """

    kind: str
    app: str
    threads: int = 8
    machine: str | None = None
    ranks: int | None = None
    accesses: int | None = None
    scale: str = "quick"
    max_k: int | None = None

    @classmethod
    def from_json(cls, raw: object) -> "CellSubmission":
        """Validate one decoded JSON body into a submission."""
        _require(isinstance(raw, dict), "body must be a JSON object")
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        _require(not unknown, f"unknown fields: {', '.join(sorted(unknown))}")
        _require("kind" in raw and "app" in raw, "kind and app are required")
        try:
            submission = cls(**raw)
        except TypeError as exc:
            raise SubmissionError(str(exc)) from None
        submission.validate()
        return submission

    def to_json(self) -> dict:
        """Wire shape (drops unset optionals to keep bodies small)."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Raise :class:`SubmissionError` on anything unloadable."""
        from repro.api.registry import machine_registry, workload_registry
        from repro.experiments.config import SCALES

        _require(
            self.kind in SUBMISSION_KINDS,
            f"unknown kind {self.kind!r} (known: {', '.join(SUBMISSION_KINDS)})",
        )
        _require(
            self.scale in SCALES,
            f"unknown scale {self.scale!r} (known: {', '.join(SCALES)})",
        )
        try:
            workload_registry.get(self.app)
        except KeyError as exc:
            raise SubmissionError(str(exc).strip('"')) from None
        _require(
            isinstance(self.threads, int) and self.threads >= 1,
            f"threads must be a positive integer, got {self.threads!r}",
        )
        if self.max_k is not None:
            _require(
                isinstance(self.max_k, int) and self.max_k >= 2,
                f"max_k must be an integer >= 2, got {self.max_k!r} (a "
                "one-cluster sweep selects a single representative for the "
                "whole region, which defeats the methodology)",
            )
        if self.kind in ("scaling", "ranks"):
            _require(
                self.machine is not None, f"{self.kind} cells require a machine"
            )
            try:
                machine_registry.get(self.machine)
            except KeyError as exc:
                raise SubmissionError(str(exc).strip('"')) from None
        if self.kind == "ranks":
            _require(
                isinstance(self.ranks, int) and self.ranks >= 1,
                "ranks cells require a positive integer rank count",
            )
        if self.kind == "trace" and self.accesses is not None:
            _require(
                isinstance(self.accesses, int) and self.accesses >= 0,
                f"accesses must be a non-negative integer, got {self.accesses!r}",
            )

    # ------------------------------------------------------------- lowering
    def canonical_app(self) -> str:
        """The registry-cased application name."""
        from repro.api.registry import workload_registry

        return workload_registry.entry(self.app).name

    def to_request(self, config) -> StudyRequest:
        """Lower to the exact request the batch experiments declare.

        ``config`` supplies scale-dependent defaults (trace stream
        length).  Using the experiment modules' own request builders —
        not a parallel construction — is what guarantees the service
        digest equals the scheduler's dedup digest for the same cell.
        """
        app = self.canonical_app()
        if self.kind == "crossarch":
            from repro.experiments.runner import crossarch_request

            return crossarch_request(app, self.threads)
        if self.kind == "scaling":
            from repro.experiments.sweep import scaling_request

            return scaling_request(app, self.threads)
        if self.kind == "ranks":
            from repro.experiments.sweep import rank_request

            return rank_request(app, int(self.ranks))
        from repro.experiments.trace import trace_request

        accesses = self.accesses if self.accesses is not None else config.trace_accesses
        return trace_request(app, accesses)

    def describe(self) -> str:
        """Human-readable cell label (logs, CLI output)."""
        parts = [self.kind, self.app, f"t{self.threads}", self.scale]
        if self.machine:
            parts.append(self.machine)
        if self.ranks:
            parts.append(f"r{self.ranks}")
        if self.accesses is not None:
            parts.append(f"a{self.accesses}")
        if self.max_k is not None:
            parts.append(f"k{self.max_k}")
        return "/".join(parts)


@dataclass(frozen=True)
class CellStatus:
    """Lifecycle snapshot of one served cell (``POST``/``GET`` answers).

    ``source`` records how the result materialised — ``"memo"`` (server
    memory), ``"disk"`` (stored container), ``"computed"`` (scheduled
    execution) — and ``coalesced`` how many submissions shared that one
    execution.
    """

    digest: str
    state: str
    submission: CellSubmission | None = None
    source: str | None = None
    coalesced: int = 0
    error: str | None = None
    seconds: float | None = None

    def to_json(self) -> dict:
        body = {
            "digest": self.digest,
            "state": self.state,
            "coalesced": self.coalesced,
        }
        if self.submission is not None:
            body["submission"] = self.submission.to_json()
        for name in ("source", "error", "seconds"):
            value = getattr(self, name)
            if value is not None:
                body[name] = value
        return body

    @classmethod
    def from_json(cls, raw: dict) -> "CellStatus":
        submission = raw.get("submission")
        return cls(
            digest=raw["digest"],
            state=raw["state"],
            submission=(
                CellSubmission.from_json(submission) if submission else None
            ),
            source=raw.get("source"),
            coalesced=int(raw.get("coalesced", 0)),
            error=raw.get("error"),
            seconds=raw.get("seconds"),
        )


@dataclass(frozen=True)
class ServerStatus:
    """The ``GET /v1/status`` answer.

    ``counters`` carries the request-level tallies (requests served,
    submissions coalesced, rate-limit rejections, evictions...),
    ``stage_cache`` the :class:`~repro.exec.stagestore.StageCacheStats`
    snapshot of the serving process, and ``store`` the sharded store's
    size/shape as last scanned.
    """

    cache_version: str
    uptime_seconds: float
    in_flight: int
    counters: dict = field(default_factory=dict)
    stage_cache: dict = field(default_factory=dict)
    store: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, raw: dict) -> "ServerStatus":
        return cls(
            cache_version=raw["cache_version"],
            uptime_seconds=float(raw["uptime_seconds"]),
            in_flight=int(raw["in_flight"]),
            counters=dict(raw.get("counters", {})),
            stage_cache=dict(raw.get("stage_cache", {})),
            store=dict(raw.get("store", {})),
        )
