"""The deterministic fault-injection plane.

A :class:`FaultPlan` is a seeded schedule of failures — worker
SIGKILLs, raised exceptions, torn/short writes, ``ENOSPC``, injected
latency — that the execution path must survive byte-identically.  The
plan is *deterministic by construction*: whether a fault fires at a
site is a pure function of ``(plan seed, site, key, occurrence index)``
through SHA-256, so a chaos run is replayable from its seed (exactly
under the ``serial`` backend, distributionally under parallel ones,
where per-site occurrence order depends on scheduling).

The plan travels two ways:

* through :class:`~repro.experiments.config.ExperimentConfig.faults`
  (a compact spec string, e.g. ``"seed=7,kill=0.3,torn=0.2"``) — the
  config is pickled to worker processes, so the plan follows the cells;
* through the ``REPRO_FAULTS`` environment variable, which lets CI
  inject chaos underneath an unmodified test suite or CLI invocation.

Sites:

``cell``
    Consulted by the scheduler's worker entry point before a cell
    executes.  May sleep (``latency``), raise :class:`InjectedFault`
    (``exc``), or SIGKILL the *worker* process (``kill``).  In the
    serial/threads backends — where a SIGKILL would take down the
    driver — a scheduled kill degrades to a raised
    :class:`InjectedWorkerKill`, so the retry path is still exercised.
``write``
    Consulted by the atomic container writer
    (:func:`repro.exec.columnar.write_payload_atomic`), which every
    :class:`~repro.exec.store.ArtifactStore` entry goes through.
    ``torn`` publishes a deliberately truncated entry (the self-heal
    path must recover it as a miss); ``enospc`` raises
    ``OSError(ENOSPC)`` before any byte lands.

Every firing is counted through :func:`repro.exec.health.record_fault`,
so it ships across the ``processes`` boundary with the stage-cache
counters and surfaces in the ``repro chaos`` report.

``max_per_key`` (default 1) bounds how often one (site, key) pair may
fire, which is what makes a 100%-rate plan *convergent*: the first
attempt fails, the retry succeeds, and the run's output stays
byte-identical to the fault-free run — the property the chaos CI job
gates.
"""

from __future__ import annotations

import errno
import hashlib
import os
import signal
import time
from collections import Counter
from dataclasses import dataclass

from repro.exec.health import record_fault

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "InjectedWorkerKill",
    "active_plan",
    "install_plan",
    "reset_fault_state",
    "backoff_delay",
]


class InjectedFault(RuntimeError):
    """A failure raised by the fault plane (``exc`` faults)."""


class InjectedWorkerKill(InjectedFault):
    """A scheduled worker SIGKILL degraded to an exception.

    Raised instead of killing the process when the cell runs in the
    driver itself (serial backend, inline thread) — taking down the
    process under supervision test would kill the supervisor too.
    """


_RATE_FIELDS = ("kill", "exc", "torn", "enospc", "latency_rate")


@dataclass(frozen=True)
class FaultPlan:
    """One seeded, replayable fault schedule.

    Attributes
    ----------
    seed:
        Root of every firing decision.
    kill / exc / torn / enospc:
        Per-site firing probabilities in [0, 1].
    latency_rate / latency:
        Probability and duration (seconds) of injected sleeps at the
        ``cell`` site.
    max_per_key:
        Cap on firings per (site, key); 0 means unbounded.  The default
        of 1 makes any plan convergent under retries.
    """

    seed: int = 0
    kill: float = 0.0
    exc: float = 0.0
    torn: float = 0.0
    enospc: float = 0.0
    latency_rate: float = 0.0
    latency: float = 0.0
    max_per_key: int = 1

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    # ------------------------------------------------------------- spec
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``"seed=7,kill=0.3,torn=0.2,max=1"`` spec string.

        Keys: ``seed``, ``kill``, ``exc``, ``torn``, ``enospc``,
        ``latency`` (seconds), ``latency_rate`` (defaults to 1.0 when
        ``latency`` is set without it), ``max`` (firings per site/key;
        0 unbounded).  An empty spec is the inert plan.
        """
        spec = spec.strip()
        if not spec:
            return cls()
        values: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip().lower()
            if not sep:
                raise ValueError(f"fault spec entry {part!r} is not key=value")
            try:
                if key == "seed":
                    values["seed"] = int(raw)
                elif key == "max":
                    values["max_per_key"] = int(raw)
                elif key in ("kill", "exc", "torn", "enospc", "latency_rate"):
                    values[key] = float(raw)
                elif key == "latency":
                    values["latency"] = float(raw)
                else:
                    known = "seed, kill, exc, torn, enospc, latency, latency_rate, max"
                    raise ValueError(
                        f"unknown fault spec key {key!r} (known: {known})"
                    )
            except ValueError as exc:
                if "fault spec" in str(exc):
                    raise
                raise ValueError(
                    f"unparseable fault spec value {part!r}"
                ) from None
        plan = cls(**values)
        if plan.latency > 0.0 and plan.latency_rate == 0.0:
            plan = cls(**{**values, "latency_rate": 1.0})
        for name in _RATE_FIELDS:
            rate = getattr(plan, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate {name}={rate} outside [0, 1]")
        return plan

    def spec(self) -> str:
        """The canonical spec string (inverse of :meth:`parse`)."""
        parts = [f"seed={self.seed}"]
        for name in ("kill", "exc", "torn", "enospc"):
            if getattr(self, name) > 0.0:
                parts.append(f"{name}={getattr(self, name):g}")
        if self.latency > 0.0:
            parts.append(f"latency={self.latency:g}")
            if self.latency_rate != 1.0:
                parts.append(f"latency_rate={self.latency_rate:g}")
        parts.append(f"max={self.max_per_key}")
        return ",".join(parts)

    # -------------------------------------------------------- decisions
    def _draw(self, site: str, key: str, occurrence: int) -> float:
        blob = f"{self.seed}:{site}:{key}:{occurrence}".encode()
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "little") / 2**64

    def _fires(self, site: str, key: str, rate: float) -> bool:
        """Stateful decision (``write`` sites): process-local counters."""
        if rate <= 0.0:
            return False
        fired = _FIRED[(site, key)]
        if self.max_per_key and fired >= self.max_per_key:
            return False
        count = _OCCURRENCES[(site, key)]
        _OCCURRENCES[(site, key)] = count + 1
        if self._draw(site, key, count) >= rate:
            return False
        _FIRED[(site, key)] = fired + 1
        record_fault(site)
        return True

    def _fires_at(self, site: str, key: str, rate: float, occurrence: int) -> bool:
        """Stateless decision (``cell`` site): attempt-indexed.

        A killed worker takes its in-memory firing counters with it, so
        ``max_per_key`` cannot rely on process state here.  Because
        every draw is a pure function of (seed, site, key, occurrence),
        the firing *history* of earlier attempts is reconstructed
        instead — any process arrives at the same verdict, which is
        what makes a 100 %-rate kill plan convergent across respawned
        workers.
        """
        if rate <= 0.0:
            return False
        fired = sum(
            1 for occ in range(occurrence) if self._draw(site, key, occ) < rate
        )
        if self.max_per_key and fired >= self.max_per_key:
            return False
        if self._draw(site, key, occurrence) >= rate:
            return False
        record_fault(site)
        return True

    def on_cell(self, key: str, in_worker: bool, attempt: int = 1) -> None:
        """Consult the ``cell`` site before one cell executes.

        ``attempt`` is the supervisor's 1-based attempt counter; it
        indexes the decision draw, so a retried cell re-rolls instead
        of deterministically re-firing.  May sleep, raise
        :class:`InjectedFault`, or — only when the cell runs in a
        disposable worker process — SIGKILL the worker.
        """
        occurrence = max(0, attempt - 1)
        if (
            self._fires_at("latency", key, self.latency_rate, occurrence)
            and self.latency > 0
        ):
            time.sleep(self.latency)
        if self._fires_at("kill", key, self.kill, occurrence):
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            raise InjectedWorkerKill(f"injected worker kill for {key}")
        if self._fires_at("exc", key, self.exc, occurrence):
            raise InjectedFault(f"injected failure for {key}")

    def on_write(self, key: str) -> str | None:
        """Consult the ``write`` site; returns ``'torn'``/``'enospc'``/None.

        ``enospc`` is raised here (before any byte lands); ``torn`` is
        returned so the writer itself can publish a truncated entry —
        only the writer knows its framing.
        """
        if self._fires("enospc", key, self.enospc):
            raise OSError(errno.ENOSPC, f"No space left on device (injected for {key})")
        if self._fires("torn", key, self.torn):
            return "torn"
        return None


#: Per-(site, key) decision-draw and firing counts of this process.
#: Process-local by design: worker processes replay their own sequence
#: from the shared seed, which keeps serial chaos runs exactly
#: reproducible and parallel ones reproducible per worker schedule.
_OCCURRENCES: Counter = Counter()
_FIRED: Counter = Counter()

_INERT = FaultPlan()
_ACTIVE: FaultPlan | None = None


def install_plan(plan: FaultPlan | None) -> None:
    """Set this process's active plan (None reverts to env/inert)."""
    global _ACTIVE
    _ACTIVE = plan


def active_plan(config=None) -> FaultPlan:
    """The plan in effect for this process.

    Precedence: an explicitly installed plan, then the ``faults`` field
    of ``config`` (when given), then ``$REPRO_FAULTS``, then inert.
    The scheduler's worker entry point passes its pickled config here,
    which is how a plan follows cells into the ``processes`` backend.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    spec = getattr(config, "faults", "") if config is not None else ""
    if not spec:
        spec = os.environ.get("REPRO_FAULTS", "")
    if not spec:
        return _INERT
    return FaultPlan.parse(spec)


def reset_fault_state() -> None:
    """Forget per-site occurrence counts (test isolation)."""
    _OCCURRENCES.clear()
    _FIRED.clear()


def backoff_delay(
    seed: int, key: str, attempt: int, base: float, cap: float = 2.0
) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2**(attempt-1)`` scaled by a jitter factor in [0.5, 1.0)
    drawn from SHA-256 of ``(seed, key, attempt)`` — retries of the
    same cell under the same root seed sleep the same schedule, so
    chaos runs replay, while distinct cells decorrelate instead of
    thundering back in lockstep.
    """
    if attempt < 1 or base <= 0.0:
        return 0.0
    digest = hashlib.sha256(f"{seed}:{key}:{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "little") / 2**65
    return min(cap, base * (2 ** (attempt - 1))) * jitter
