"""Transfer policies: every data-path decision in one pluggable object.

The paper's protocol machinery is a collection of thresholds — short vs.
eager vs. rendezvous (Sec. 3.3), generic vs. direct_pack_ff vs. DMA
(Fig. 4, footnote 1), direct one-sided access vs. remote-put vs.
emulation (Sec. 4.2) — that the seed implementation had scattered across
``pt2pt/engine.py``, ``osc/window.py`` and the collectives.  A
:class:`TransferPolicy` centralizes them: the device, the window and the
collectives all *ask the policy* instead of comparing against config
fields themselves, so the paper's threshold experiments (and
``benchmarks/test_ablations.py``) become one-line policy swaps.

Policies are frozen dataclasses around a :class:`ProtocolConfig`;
subclasses override individual decisions (see
:class:`ChunkedCollectivesPolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from ...qos.lanes import DEFAULT_LANES, QosLanePolicy
from ..pt2pt.config import DEFAULT_PROTOCOL, NonContigMode, ProtocolConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...hardware.node import Node
    from ..datatypes.base import Datatype

__all__ = [
    "ChunkedCollectivesPolicy",
    "DEFAULT_POLICY",
    "DEFAULT_RECOVERY",
    "OSCStrategy",
    "Protocol",
    "QosLanePolicy",
    "RecoveryPolicy",
    "TransferMode",
    "TransferPolicy",
]


class Protocol:
    """Point-to-point protocol names (by packed payload size)."""

    SHORT = "short"
    EAGER = "eager"
    RNDV = "rndv"


class TransferMode:
    """How the bytes of one message cross the wire (Fig. 4 paths)."""

    CONTIGUOUS = "contiguous"
    GENERIC = NonContigMode.GENERIC
    DIRECT = NonContigMode.DIRECT
    DMA = NonContigMode.DMA


class OSCStrategy:
    """How a one-sided operation reaches the target window (Sec. 4.2)."""

    DIRECT = "direct"          # transparent remote stores / loads
    REMOTE_PUT = "remote_put"  # target pushes into the origin's response region
    EMULATED = "emulated"      # control message + remote interrupt + handler


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the fault-recovery state machine (see ``docs/FAULTS.md``).

    All times are simulated µs.  ``max_retransmits`` bounds the retries
    of one chunk/operation; together with
    :attr:`~repro.hardware.sci.faults.FaultPlan.max_consecutive` it
    guarantees convergence.  ``resume_torn=False`` disables the
    range-resume optimisation (torn chunks retransmit whole) — the knob
    the recovery-overhead ablation flips.
    """

    max_retransmits: int = 6
    retry_backoff: float = 5.0       # first-retry delay
    backoff_factor: float = 2.0      # exponential growth per retry
    chunk_timeout: float = 2000.0    # rndv per-chunk credit timeout
    remap_cost: float = 25.0         # driver cost of re-importing a segment
    resume_torn: bool = True         # resume torn chunks at the tear offset

    def backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based)."""
        return self.retry_backoff * self.backoff_factor ** (attempt - 1)


DEFAULT_RECOVERY = RecoveryPolicy()


@dataclass(frozen=True)
class TransferPolicy:
    """The decision table of the unified transport layer.

    One instance serves a whole :class:`~repro.mpi.pt2pt.engine.MPIWorld`;
    it is stateless (all state lives in the scheduler and the device).
    """

    config: ProtocolConfig = DEFAULT_PROTOCOL
    recovery: RecoveryPolicy = DEFAULT_RECOVERY
    #: RMA payloads at or below this size are latency-bound: one PIO
    #: transaction beats an interrupt round-trip regardless of the
    #: coarse put/get split (the ``repro.svc`` slot accesses live here).
    small_rma_threshold: int = 256
    #: Use hierarchical collective algorithms (ringlet-local aggregation
    #: before cross-switch hops) on topologies with more than one
    #: locality domain.  Single-domain topologies (plain ring) always
    #: run the flat algorithms regardless of this flag.
    hier_collectives: bool = True
    #: Segment size for the cross-switch leader stage of hierarchical
    #: collectives: crossbar/spine hops are the scarce links, so leader
    #: exchanges pipeline in chunks of this size once payloads exceed it.
    cross_chunk: int = 128 * 1024
    #: QoS lane knobs (reserved-share budget, best-effort throttle floor,
    #: credit priority; see ``docs/QOS.md``).  Only consulted while a
    #: :class:`~repro.qos.QosManager` is installed on the fabric *and*
    #: holds an ACTIVE reservation — otherwise the data path is
    #: bit-identical to a QoS-free build.
    qos: QosLanePolicy = DEFAULT_LANES

    def bind(self, config: ProtocolConfig) -> "TransferPolicy":
        """This policy rebound to another protocol config (keeps subclass)."""
        if config is self.config:
            return self
        return replace(self, config=config)

    # -- point-to-point ------------------------------------------------------------

    def protocol(self, total: int) -> str:
        """Short / eager / rendezvous selection by packed payload size."""
        cfg = self.config
        if total <= cfg.short_threshold:
            return Protocol.SHORT
        if total <= cfg.eager_threshold:
            return Protocol.EAGER
        return Protocol.RNDV

    def transfer_mode(self, dtype: "Datatype") -> str:
        """Generic / direct_pack_ff / DMA selection for one datatype."""
        if dtype.is_contiguous:
            return TransferMode.CONTIGUOUS
        mode = self.config.noncontig_mode
        if mode == NonContigMode.GENERIC:
            return TransferMode.GENERIC
        if mode == NonContigMode.DIRECT:
            return TransferMode.DIRECT
        if mode == NonContigMode.DMA:
            return TransferMode.DMA
        # AUTO: direct if the smallest basic block is big enough (the
        # footnote-1 minimal-block-size knob).
        if dtype.flattened.min_block >= self.config.direct_min_block:
            return TransferMode.DIRECT
        return TransferMode.GENERIC

    def chunk_size(self) -> int:
        """Rendezvous handshake-cycle size (kept below L2, Sec. 3.3.2)."""
        return self.config.rendezvous_chunk

    def eager_slots(self) -> int:
        """Credit window: eager slots per (sender, receiver) pair."""
        return self.config.eager_slots

    def src_cached(self, total: int, node: "Node") -> bool:
        """Is the source likely still in L2 while being fed to the wire?"""
        return 2 * total <= node.params.memory.caches.l2_size

    # -- one-sided -----------------------------------------------------------------

    def put_strategy(self, shared: bool, simple_run: bool) -> str:
        """Direct remote stores, or emulation via the target's handler."""
        if shared and simple_run:
            return OSCStrategy.DIRECT
        return OSCStrategy.EMULATED

    def get_strategy(self, nbytes: int, shared: bool, simple_run: bool) -> str:
        """Direct remote loads, remote-put conversion, or emulation.

        SCI remote reads stall the CPU per transaction, so direct reading
        "will only be effective up to a certain amount of data".
        """
        if shared and simple_run and nbytes <= self.config.remote_put_threshold:
            return OSCStrategy.DIRECT
        if shared:
            return OSCStrategy.REMOTE_PUT
        return OSCStrategy.EMULATED

    def osc_op_strategy(self, op: str, nbytes: int, shared: bool,
                        simple_run: bool) -> str:
        """Per-operation strategy for one RMA access.

        The window layer (and the ``repro.svc`` hot path) ask here instead
        of the coarse put/get split: accumulate-class operations always
        run at the target (read-modify-write needs the target CPU, SCI has
        no remote atomics); small single-run accesses on shared windows
        (``nbytes <= small_rma_threshold``) always go DIRECT — at that
        size the per-transaction CPU stall of a remote load is cheaper
        than an interrupt round-trip, for reads as well as writes;
        everything else falls through to :meth:`put_strategy` /
        :meth:`get_strategy`.
        """
        if op in ("accumulate", "fetch_and_op"):
            return OSCStrategy.EMULATED
        if shared and simple_run and nbytes <= self.small_rma_threshold:
            return OSCStrategy.DIRECT
        if op == "put":
            return self.put_strategy(shared, simple_run)
        if op == "get":
            return self.get_strategy(nbytes, shared, simple_run)
        raise ValueError(f"unknown RMA operation {op!r}")

    def degraded_strategy(self, strategy: str) -> str:
        """Fallback strategy once a target segment became unmappable.

        Direct stores/loads and remote-put all need a valid mapping of
        the peer's window; when the mapping is revoked mid-epoch the only
        path that still works is emulation (control message + interrupt +
        target-side handler), which maps nothing remotely.
        """
        del strategy  # every degraded path lands on emulation
        return OSCStrategy.EMULATED

    # -- collectives ---------------------------------------------------------------

    def collective_chunk(self, nbytes: int, size: int) -> Optional[int]:
        """Segment size for chunked collectives; ``None`` keeps the
        monolithic algorithms.

        The base policy never chunks — the seed behaviour.  Chunking only
        pays where segments *pipeline* across ranks (see
        :class:`ChunkedCollectivesPolicy`); the ring allgather and the
        pairwise alltoall are already pipelined at message granularity.
        """
        return None

    def hierarchical_collective(self, kind: str, nbytes: int, size: int,
                                n_groups: int) -> bool:
        """Run ``kind`` (``bcast`` / ``allreduce``) hierarchically?

        Hierarchical algorithms aggregate within each locality domain
        (ringlet, leaf switch) before touching a cross-switch link, so
        the scarce crossbar carries one message per group instead of one
        per rank.  They only exist where the topology *has* groups: on a
        single-domain topology (``n_groups <= 1``) this always returns
        ``False`` and the flat algorithms run bit-identically to the
        pre-topology code.  A group must also be non-trivial on average
        (``size > n_groups``) for local aggregation to save anything.
        """
        del kind, nbytes
        if not self.hier_collectives or n_groups <= 1:
            return False
        return size > n_groups

    def cross_switch_chunk(self, nbytes: int) -> Optional[int]:
        """Pipeline chunk for cross-switch leader exchanges, or ``None``.

        Below ``cross_chunk`` the handshake overhead of segmenting beats
        any overlap; above it, chunking lets a leader forward segment
        ``k`` while receiving ``k + 1`` across the switch.
        """
        if nbytes <= self.cross_chunk:
            return None
        return self.cross_chunk

    # -- observability -------------------------------------------------------------

    def describe(self) -> dict[str, int]:
        """The numeric decision knobs, for the metrics registry.

        Exported as ``policy.*`` gauges (bytes unless noted) so every
        metrics snapshot records which threshold regime produced it.
        """
        cfg = self.config
        return {
            "short_threshold": cfg.short_threshold,
            "eager_threshold": cfg.eager_threshold,
            "eager_slots": cfg.eager_slots,
            "rendezvous_chunk": cfg.rendezvous_chunk,
            "direct_min_block": cfg.direct_min_block,
            "remote_put_threshold": cfg.remote_put_threshold,
            "small_rma_threshold": self.small_rma_threshold,
            "hier_collectives": int(self.hier_collectives),
            "cross_chunk": self.cross_chunk,
            **self.qos.describe(),
        }


@dataclass(frozen=True)
class ChunkedCollectivesPolicy(TransferPolicy):
    """Chunk large collective payloads through the transport scheduler.

    Broadcasts above ``coll_pipeline_threshold`` are split into
    ``coll_chunk``-sized packed-stream segments and streamed down a chain
    of ranks, so rank ``r`` forwards segment ``k`` while receiving segment
    ``k + 1`` — the transport-level analogue of the rendezvous handshake
    cycle, but across ranks.  With fewer than three ranks there is nothing
    to pipeline and the policy falls back to monolithic sends.
    """

    coll_chunk: int = 64 * 1024
    coll_pipeline_threshold: int = 64 * 1024

    def collective_chunk(self, nbytes: int, size: int) -> Optional[int]:
        if size < 3 or nbytes <= self.coll_pipeline_threshold:
            return None
        return self.coll_chunk


DEFAULT_POLICY = TransferPolicy()
