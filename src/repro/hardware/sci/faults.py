"""Deterministic fault injection for the SCI fabric.

The paper leans on SCI's hardware reliability story — CRC-checked
transactions with transparent link-level retries (Sec. 2) — but a cable
network still loses transfers outright, delivers torn prefixes when a
stream is interrupted mid-flight, revokes segment mappings when a driver
tears down an export, and stalls when a node's CPU is descheduled.  A
:class:`FaultPlan` injects exactly those four fault classes into the
fabric, deterministically (seeded RNG drawn in engine event order), so
the recovery machinery in :mod:`repro.mpi.transport` is testable and
benchmarkable.

Fault classes
-------------

* **transient** — a data transfer is lost end to end (the CRC check at
  the store barrier reports it); no payload bytes arrive.  Raised as
  :class:`SCITransientError` after the failed attempt's wire time has
  been charged.
* **torn** — a transfer is interrupted mid-stream: a prefix of the
  payload arrives, the rest is lost.  Raised as
  :class:`TornTransferError` carrying ``delivered`` (the intact prefix
  length), which the transport layer uses to *resume* the stream at that
  byte offset instead of retransmitting the whole chunk.  Only drawn for
  transfers that declare themselves ``tearable`` (the packed chunk
  stream); everything else degrades the draw to a transient loss.
* **unmap** — an exported segment is revoked mid-epoch (driver teardown,
  peer restart).  Accesses through stale imports raise
  :class:`~repro.hardware.sci.segments.SegmentUnmappedError` until the
  importer maps the segment afresh.
* **stall** — a node's receive path is descheduled for ``stall_time``
  µs; nothing is lost, but credits arrive late, which is what the
  transport's per-chunk timeout + retransmission path exists for.

Boundedness
-----------

``max_consecutive`` caps the number of *consecutive* faults injected on
one (src, dst) path: after that many back-to-back failures the next
attempt is forced clean.  Together with the transport's bounded
retransmission (``repro.mpi.transport.store.MAX_RETRANSMITS``) this
guarantees every seeded plan converges — the differential oracle in
``tests/test_fault_recovery.py`` relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "SCITransientError",
    "TornTransferError",
]


class SCITransientError(ConnectionError):
    """A data transfer was lost (CRC failure past the hardware retry
    budget); no payload arrived.  Recoverable by retransmission."""


class TornTransferError(ConnectionError):
    """A data transfer was interrupted mid-stream: ``delivered`` payload
    bytes arrived intact, the rest was lost.  Recoverable by resuming the
    stream at byte ``delivered``."""

    def __init__(self, delivered: int, nbytes: int):
        super().__init__(f"transfer torn after {delivered} of {nbytes} B")
        self.delivered = delivered
        self.nbytes = nbytes


class FaultKind:
    """The four injected fault classes."""

    TRANSIENT = "transient"
    TORN = "torn"
    UNMAP = "unmap"
    STALL = "stall"

    ALL = (TRANSIENT, TORN, UNMAP, STALL)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (the plan's replay log)."""

    index: int          # nth injected fault of this plan
    kind: str           # FaultKind.*
    detail: dict = field(default_factory=dict)


class FaultPlan:
    """A seeded, deterministic schedule of fabric faults.

    Install on a fabric (``fabric.install_fault_plan(plan)`` or
    ``Cluster(..., faults=plan)``); the fabric and the segment layer
    consult it on every remote data access.  All draws use one
    ``numpy`` generator seeded with ``seed``, and the simulation engine
    processes events in deterministic order, so a given (program, plan)
    pair always injects the same faults at the same points.
    """

    def __init__(
        self,
        seed: int = 0,
        transient_rate: float = 0.0,
        torn_rate: float = 0.0,
        stall_rate: float = 0.0,
        stall_time: float = 5000.0,
        unmap_after: Optional[int] = None,
        max_faults: Optional[int] = None,
        max_consecutive: int = 2,
    ):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        for name, rate in (("transient_rate", transient_rate),
                           ("torn_rate", torn_rate),
                           ("stall_rate", stall_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if transient_rate + torn_rate > 1.0:
            raise ValueError("transient_rate + torn_rate must be <= 1")
        if stall_time < 0:
            raise ValueError(f"negative stall_time: {stall_time}")
        if unmap_after is not None and unmap_after < 1:
            raise ValueError(f"unmap_after must be >= 1, got {unmap_after}")
        if max_consecutive < 1:
            raise ValueError(f"max_consecutive must be >= 1, got {max_consecutive}")
        self.seed = seed
        self.transient_rate = transient_rate
        self.torn_rate = torn_rate
        self.stall_rate = stall_rate
        self.stall_time = stall_time
        self.unmap_after = unmap_after
        self.max_faults = max_faults
        self.max_consecutive = max_consecutive

        self._rng = np.random.default_rng(seed)
        #: Injected faults by kind.
        self.counters: dict[str, int] = {kind: 0 for kind in FaultKind.ALL}
        #: Replay log of every injected fault.
        self.events: list[FaultEvent] = []
        self._consecutive: dict[tuple[int, int], int] = {}
        self._accesses = 0          # remote segment accesses (unmap clock)
        self._unmapped = False      # unmap_after is a one-shot event

    # -- bookkeeping ----------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.counters.values())

    def _budget_open(self) -> bool:
        return self.max_faults is None or self.total_injected < self.max_faults

    def _record(self, kind: str, **detail) -> None:
        self.counters[kind] += 1
        self.events.append(FaultEvent(len(self.events), kind, detail))

    # -- draws (called by the fabric / segment layer) -------------------------

    def draw_transfer(self, src: int, dst: int, nbytes: int,
                      tearable: bool = False) -> Optional[tuple[str, int]]:
        """Fault decision for one data transfer: ``(kind, delivered)`` or
        ``None``.  ``delivered`` is nonzero only for torn transfers."""
        if nbytes <= 0 or not self._budget_open():
            return None
        key = (src, dst)
        if self._consecutive.get(key, 0) >= self.max_consecutive:
            # Force a clean attempt: bounded retransmission must converge.
            self._consecutive[key] = 0
            return None
        draw = self._rng.random()
        if draw < self.transient_rate:
            kind, delivered = FaultKind.TRANSIENT, 0
        elif draw < self.transient_rate + self.torn_rate:
            if tearable and nbytes >= 2:
                # Tear somewhere in the middle of the stream.
                delivered = int(nbytes * self._rng.uniform(0.2, 0.8))
                delivered = min(max(delivered, 1), nbytes - 1)
                kind = FaultKind.TORN
            else:
                kind, delivered = FaultKind.TRANSIENT, 0
        else:
            self._consecutive[key] = 0
            return None
        self._consecutive[key] = self._consecutive.get(key, 0) + 1
        self._record(kind, src=src, dst=dst, nbytes=nbytes, delivered=delivered)
        return kind, delivered

    def draw_stall(self, node: int) -> float:
        """Extra µs a node's receive path is descheduled (0.0 = no stall)."""
        if self.stall_rate == 0.0 or not self._budget_open():
            return 0.0
        if self._rng.random() < self.stall_rate:
            self._record(FaultKind.STALL, node=node, time=self.stall_time)
            return self.stall_time
        return 0.0

    def draw_unmap(self, segment) -> bool:
        """Should this remote access find its segment revoked?

        ``unmap_after=N`` revokes the segment touched by the Nth remote
        segment access — a one-shot event per plan.
        """
        if self.unmap_after is None or self._unmapped or not self._budget_open():
            return False
        self._accesses += 1
        if self._accesses >= self.unmap_after:
            self._unmapped = True
            self._record(FaultKind.UNMAP, segment=getattr(segment, "seg_id", None))
            return True
        return False

    # -- reporting ------------------------------------------------------------

    def one_line(self) -> str:
        """Compact counter line for trace summaries."""
        return " ".join(f"{kind}={self.counters[kind]}" for kind in FaultKind.ALL)

    def summary(self) -> str:
        """Multi-line report of every injected fault (the replay log)."""
        lines = [f"fault plan (seed={self.seed}): {self.one_line()}"]
        for ev in self.events:
            detail = " ".join(f"{k}={v}" for k, v in ev.detail.items())
            lines.append(f"  [{ev.index}] {ev.kind} {detail}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-safe dump: configuration, counters, and the replay log.

        The timeline exporter embeds this in the trace's ``otherData`` so
        a trace taken under fault injection carries the exact schedule
        that produced it.
        """
        return {
            "seed": self.seed,
            "rates": {
                "transient": self.transient_rate,
                "torn": self.torn_rate,
                "stall": self.stall_rate,
            },
            "stall_time": self.stall_time,
            "unmap_after": self.unmap_after,
            "max_faults": self.max_faults,
            "max_consecutive": self.max_consecutive,
            "counters": dict(self.counters),
            "events": [
                {"index": ev.index, "kind": ev.kind, **ev.detail}
                for ev in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultPlan seed={self.seed} transient={self.transient_rate} "
            f"torn={self.torn_rate} stall={self.stall_rate} "
            f"unmap_after={self.unmap_after} injected={self.total_injected}>"
        )
