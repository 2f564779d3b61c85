"""Protocol configuration and software-cost constants of the MPI device.

This is the simulation analogue of SCI-MPICH's device configuration file:
protocol thresholds (short/eager/rendezvous), the rendezvous chunk size
(which the paper says should stay below the L2 size to avoid cache-line
thrashing with direct_pack_ff, Sec. 3.3.2), and the per-block software
costs that differentiate the *generic* (recursive traversal) pack from the
*direct_pack_ff* (flat stack) pack — the paper's first claimed win.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..._units import KiB

__all__ = ["ProtocolConfig", "NonContigMode", "DEFAULT_PROTOCOL"]


class NonContigMode:
    """How non-contiguous datatypes are transmitted."""

    #: Pack into a local buffer, send contiguously, unpack at the receiver
    #: (the generic MPICH path; Fig. 4 top).
    GENERIC = "generic"
    #: Pack directly into the remote packet buffer (Fig. 4 bottom).
    DIRECT = "direct"
    #: Each side of each message takes the cheapest of the three modes
    #: (the default; see ``TransferPolicy.transfer_mode``).
    AUTO = "auto"
    #: Pack locally, then ship rendezvous chunks with the adapter's DMA
    #: engine instead of PIO stores — the paper's outlook experiment
    #: ("it will be interesting to evaluate the possibilities of
    #: non-contiguous data transfers with DMA-based interconnects",
    #: Sec. 6).  An eager sender packs generically and writes by PIO
    #: (DMA setup costs dwarf the slot) while the receiver still unpacks
    #: with the ff loop.
    DMA = "dma"


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables of the point-to-point device."""

    #: Payloads up to this travel inside the control packet.
    short_threshold: int = 128
    #: Payloads up to this go through preallocated eager slots.
    eager_threshold: int = 16 * KiB
    #: Eager slots per (sender, receiver) pair (flow-control credits).
    eager_slots: int = 2
    #: Rendezvous chunk ("handshake cycle") size; the paper requires it
    #: below the L2 size for direct_pack_ff (Sec. 3.3.2).
    rendezvous_chunk: int = 64 * KiB
    #: How non-contiguous sends are handled.
    noncontig_mode: str = NonContigMode.AUTO

    # -- software costs (µs) -------------------------------------------------------
    #: Per-basic-element cost of the generic *recursive* datatype
    #: traversal (the old MPICH segment code walks element by element —
    #: "the time consuming repeated recursive traversal of the datatype
    #: tree", Sec. 3.3.2).
    generic_pack_element_cost: float = 0.05
    #: Additional per-block cost of the generic traversal.
    generic_pack_block_cost: float = 0.04
    #: Width of one basic element for the generic element-cost accounting.
    generic_element_size: int = 8
    #: Per-block cost of the direct_pack_ff stack loop (two nested loops,
    #: "only simple stack (array) operations").
    direct_pack_block_cost: float = 0.015
    #: Basic blocks smaller than this defeat the adapter's stream
    #: gathering when written block-by-block (each sub-line burst becomes
    #: its own SCI transaction) — the reason the generic technique wins at
    #: 8-byte blocks inter-node (Sec. 3.4).
    direct_gather_min_block: int = 16
    #: Extra per-transaction cost of those non-gathered sub-line bursts
    #: (stream-buffer allocate/flush per burst).
    direct_gather_miss_cost: float = 0.08
    #: Cost of posting one control packet (remote write of a descriptor).
    ctrl_send_cost: float = 0.45
    #: Same, for an intra-node (shared-memory) control packet.
    ctrl_send_cost_local: float = 0.15
    #: Receiver-side polling latency before a control packet is noticed.
    poll_latency: float = 0.9
    #: Fixed software overhead per MPI call (argument checks, matching).
    call_overhead: float = 0.25

    # -- one-sided communication (Sec. 4.2) ------------------------------------------
    #: Per-RMA-call software overhead (window checks, address translation).
    osc_call_overhead: float = 0.30
    #: Size of each rank's response staging region for emulated/remote-put
    #: transfers (bigger gets are chunked through it).
    osc_response_size: int = 256 * KiB

    def with_mode(self, mode: str) -> "ProtocolConfig":
        return replace(self, noncontig_mode=mode)

    def replace(self, **kw) -> "ProtocolConfig":
        return replace(self, **kw)


DEFAULT_PROTOCOL = ProtocolConfig()
