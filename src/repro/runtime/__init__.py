"""OpenMP-style runtime model.

The paper's unit of sampling is the OpenMP barrier: barrier points are
the inter-barrier regions of a worksharing program.  This package models
the runtime behaviour that shapes those regions:

* :mod:`repro.runtime.scheduler` — static loop scheduling: how a
  region's work divides over the thread team, with data-dependent
  imbalance.
* :mod:`repro.runtime.barriers` — barrier spin: threads that finish
  early busy-wait, which burns cycles (and a few instructions) until the
  slowest thread arrives.  This couples per-thread cycle counts exactly
  the way pinned native runs couple them.
* :mod:`repro.runtime.interleave` — run-to-run interleaving jitter: the
  reason the paper performs 10 barrier-point discovery runs per
  configuration and observes different barrier-point sets.
* :mod:`repro.runtime.execution` — drives a :class:`~repro.ir.program.Program`
  into an :class:`~repro.ir.trace.ExecutionTrace`.
"""

from repro.runtime.barriers import SPIN_IPC, barrier_spin
from repro.runtime.execution import execute_program
from repro.runtime.interleave import signature_jitter_sigma
from repro.runtime.scheduler import thread_shares

__all__ = [
    "thread_shares",
    "barrier_spin",
    "SPIN_IPC",
    "signature_jitter_sigma",
    "execute_program",
]
