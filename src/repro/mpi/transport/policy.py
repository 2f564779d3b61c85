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

Policies are frozen, keyword-only dataclasses of decision knobs; the
protocol thresholds they apply are the world's :class:`ProtocolConfig`,
handed to each decision.  Subclasses force a priced decision through
the one hook :meth:`TransferPolicy.force` (see
:class:`ChunkedCollectivesPolicy` and :class:`PaperThresholdPolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Optional

from ..._units import KiB
from ..pt2pt.config import NonContigMode, ProtocolConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datatypes.base import Datatype

__all__ = [
    "ChunkedCollectivesPolicy",
    "DEFAULT_POLICY",
    "OSCStrategy",
    "PaperThresholdPolicy",
    "Protocol",
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
    BATCHED = "batched"        # emulated at the next completion point, with
                               # the target's other queued puts or gets


@dataclass(frozen=True, kw_only=True)
class TransferPolicy:
    """The decision table of the unified transport layer.

    One instance serves a whole :class:`~repro.mpi.pt2pt.engine.MPIWorld`;
    it is stateless (all state lives in the scheduler and the device).
    """

    #: Use hierarchical collective algorithms (ringlet-local aggregation
    #: before cross-switch hops) on topologies with more than one
    #: locality domain.  Single-domain topologies (plain ring) always
    #: run the flat algorithms regardless of this flag.
    hier_collectives: bool = True
    #: Resume a torn chunk at the tear offset; ``False`` retransmits it
    #: whole (the recovery-overhead ablation; see ``docs/FAULTS.md``).
    resume_torn: bool = True

    # -- point-to-point ------------------------------------------------------------

    def protocol(self, cfg: ProtocolConfig, total: int) -> str:
        """Short / eager / rendezvous selection by packed payload size."""
        if total <= cfg.short_threshold:
            return Protocol.SHORT
        if total <= cfg.eager_threshold:
            return Protocol.EAGER
        return Protocol.RNDV

    def transfer_mode(self, cfg: ProtocolConfig, dtype: "Datatype",
                      protocol: str) -> Optional[str]:
        """Generic / direct_pack_ff / DMA for one side of one message.

        A forced ``noncontig_mode`` answers itself.  Under AUTO (the
        default) a short message packs inline whatever the mode, so it is
        DIRECT unpriced; any other returns ``None``, and the caller takes
        this side's cheapest mode from :meth:`TransferScheduler.verdict
        <repro.mpi.transport.scheduler.TransferScheduler.verdict>`.  The
        packed stream is the same in every mode, so sender and receiver
        each decide their own half.
        """
        if dtype.is_contiguous:
            return TransferMode.CONTIGUOUS
        mode = cfg.noncontig_mode
        if mode != NonContigMode.AUTO:
            return mode
        if protocol == Protocol.SHORT:
            return TransferMode.DIRECT
        return None

    # -- verdicts ------------------------------------------------------------------

    def force(self, key: tuple) -> Optional[Any]:
        """The candidate the verdict at ``key`` takes, or ``None`` to price
        it.  The key starts with the decision's name.  Asked on a memo
        miss only, so it may depend on the key alone (docs/PROTOCOLS.md,
        "Verdicts"): ``("mode", ft, count, total, local, sending)`` for a
        :class:`TransferMode`, ``("osc", op, nbytes, single_run, shape,
        align, node, mapped)`` for an :class:`OSCStrategy`, ``("coll",
        flat, reduction, total, members)`` for ``"tree"`` or ``"chain"``.
        A forced answer is one of the key's candidates."""
        return None

    # -- collectives ---------------------------------------------------------------

    def hierarchical_collective(self, size: int, n_groups: int) -> bool:
        """Run bcast / allreduce over ``size`` ranks in ``n_groups``
        locality domains hierarchically?

        Hierarchical algorithms aggregate within each locality domain
        (ringlet, leaf switch) before touching a cross-switch link, so
        the scarce crossbar carries one message per group instead of one
        per rank.  They only exist where the topology *has* groups: on a
        single-domain topology (``n_groups <= 1``) this always returns
        ``False`` and the flat algorithms run bit-identically to the
        pre-topology code.  A group must also be non-trivial on average
        (``size > n_groups``) for local aggregation to save anything.
        """
        if not self.hier_collectives or n_groups <= 1:
            return False
        return size > n_groups

    # -- observability -------------------------------------------------------------

    def describe(self, cfg: ProtocolConfig) -> dict[str, int]:
        """The numeric decision knobs under protocol config ``cfg``, for
        the metrics registry.

        Exported as ``policy.*`` gauges (bytes unless noted) so every
        metrics snapshot records which threshold regime produced it.
        """
        return {
            "short_threshold": cfg.short_threshold,
            "eager_threshold": cfg.eager_threshold,
            "eager_slots": cfg.eager_slots,
            "rendezvous_chunk": cfg.rendezvous_chunk,
            "hier_collectives": int(self.hier_collectives),
        }


@dataclass(frozen=True)
class ChunkedCollectivesPolicy(TransferPolicy):
    """The flat broadcast chains wherever a chain can pipeline, whatever
    the verdict: each rank forwards every rendezvous chunk as it lands.
    The benchmarks' flat baseline against the hierarchical algorithm."""

    def force(self, key: tuple) -> Optional[str]:
        return "chain" if key[:3] == ("coll", True, False) else None


@dataclass(frozen=True)
class PaperThresholdPolicy(TransferPolicy):
    """SCI-MPICH's one-sided rule (Sec. 4.2), whatever the verdict: any
    access to private memory (or a degraded target) is emulated on its
    own call; a put to a shared window stores directly into one strided
    run and is emulated into anything richer; a get loads directly up to
    ``remote_put_threshold`` and becomes a remote-put above it or for a
    richer target.  The paper-figure benchmarks name it."""

    remote_put_threshold: ClassVar[int] = 2 * KiB

    def force(self, key: tuple) -> Optional[str]:
        if key[0] != "osc":
            return None
        _, op, nbytes, single_run, *_, mapped = key
        if not mapped:
            return OSCStrategy.EMULATED
        if op == "put":
            return OSCStrategy.DIRECT if single_run else OSCStrategy.EMULATED
        direct = single_run and nbytes <= self.remote_put_threshold
        return OSCStrategy.DIRECT if direct else OSCStrategy.REMOTE_PUT


DEFAULT_POLICY = TransferPolicy()
