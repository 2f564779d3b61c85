"""Control messages and matching queues of the point-to-point device.

Control packets are small descriptors written into the receiver's control
packet ring; here they are Python objects delivered through a DES channel,
with the write/poll costs charged by the engine.  Message matching follows
MPI semantics: (source, tag) with wildcards, arrival order preserved per
sender (non-overtaking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ...sim import Channel, Engine, Event

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Envelope",
    "ShortMsg",
    "EagerMsg",
    "RndvRequest",
    "CreditReturn",
    "MatchQueues",
    "PostedRecv",
]

#: Wildcards (MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY_SOURCE: int = -1
ANY_TAG: int = -1


@dataclass(frozen=True)
class Envelope:
    """Match information carried by every message.

    ``context`` isolates communicators (MPI context id): messages only
    match receives posted on the same context.
    """

    source: int
    tag: int
    context: int = 0

    def matches(self, want_source: int, want_tag: int, want_context: int = 0) -> bool:
        return (
            self.context == want_context
            and (want_source in (ANY_SOURCE, self.source))
            and (want_tag in (ANY_TAG, self.tag))
        )


@dataclass
class ShortMsg:
    """Payload travels inline in the control packet.

    ``sync_reply``: set for synchronous-mode sends; the receiver posts an
    acknowledgement into it when the message is matched.
    """

    envelope: Envelope
    data: np.ndarray  # packed bytes
    sync_reply: Optional[Channel] = None


@dataclass
class EagerMsg:
    """Payload already written into the receiver's eager slot."""

    envelope: Envelope
    slot_offset: int
    nbytes: int
    slot_index: int
    sync_reply: Optional[Channel] = None


@dataclass
class RndvRequest:
    """Rendezvous handshake: announce a large message."""

    envelope: Envelope
    nbytes: int
    #: Channel the sender listens on for the ack and per-chunk credits.
    reply: Channel


@dataclass
class CreditReturn:
    """Receiver returns an eager slot credit to the sender."""

    slot_index: int


@dataclass
class PostedRecv:
    """A receive (or probe) posted by the application, awaiting a match."""

    source: int
    tag: int
    context: int
    event: Event  # fires with the matched message


class MatchQueues:
    """Posted-receive and unexpected-message queues of one rank."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._posted: list[PostedRecv] = []
        self._probes: list[PostedRecv] = []
        self._unexpected: list[Any] = []

    def deliver(self, message: Any) -> None:
        """An incoming message: satisfy pending probes (non-consuming),
        then hand to the oldest matching posted recv or queue as
        unexpected."""
        env: Envelope = message.envelope
        still_waiting = []
        for probe in self._probes:
            if env.matches(probe.source, probe.tag, probe.context):
                probe.event.succeed(message)
            else:
                still_waiting.append(probe)
        self._probes = still_waiting
        for i, posted in enumerate(self._posted):
            if env.matches(posted.source, posted.tag, posted.context):
                del self._posted[i]
                posted.event.succeed(message)
                return
        self._unexpected.append(message)

    def post(self, source: int, tag: int, context: int = 0) -> Event:
        """Post a receive; the event fires with the matching message."""
        for i, message in enumerate(self._unexpected):
            if message.envelope.matches(source, tag, context):
                del self._unexpected[i]
                ev = Event(self.engine, name="recv-match")
                ev.succeed(message)
                return ev
        posted = PostedRecv(source, tag, context, Event(self.engine, name="recv-match"))
        self._posted.append(posted)
        return posted.event

    def post_probe(self, source: int, tag: int, context: int = 0) -> Event:
        """Blocking-probe registration: fires with a matching message
        *without consuming it* (MPI_Probe semantics)."""
        for message in self._unexpected:
            if message.envelope.matches(source, tag, context):
                ev = Event(self.engine, name="probe-match")
                ev.succeed(message)
                return ev
        probe = PostedRecv(source, tag, context, Event(self.engine, name="probe-match"))
        self._probes.append(probe)
        return probe.event

    def probe(self, source: int, tag: int, context: int = 0) -> Optional[Any]:
        """Non-destructive, non-blocking check (MPI_Iprobe semantics)."""
        for message in self._unexpected:
            if message.envelope.matches(source, tag, context):
                return message
        return None
