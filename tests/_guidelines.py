"""The self-consistent performance guidelines, written once.

A default may not be slower than an alternative the library could have
taken itself (Träff, Gropp and Thakur, "Self-consistent MPI performance
guidelines", IEEE TPDS 2010; Hunold, Carpen-Amarie and Träff,
arXiv 1607.00178).  Every priced decision of the transport — the
transfer mode, the one-sided strategy, the collective algorithm — is held
to it: the default within :data:`BOUND` of each candidate forced through
``TransferPolicy.force`` (:class:`Forced`) or, for the transfer mode,
through ``ProtocolConfig.noncontig_mode``.
"""

from dataclasses import dataclass
from typing import Optional

from repro.mpi.transport import TransferPolicy

#: How much slower than a forced alternative the default may be.
BOUND = 1.05


@dataclass(frozen=True)
class Forced(TransferPolicy):
    """Every verdict of a named decision takes the given candidate:
    ``Forced(coll="tree")`` keeps every collective stage a binomial tree,
    ``Forced(osc=OSCStrategy.EMULATED)`` emulates every remote put and
    get on a shared window and every put into private memory on its own
    call."""

    osc: Optional[str] = None
    coll: Optional[str] = None

    def force(self, key):
        return getattr(self, key[0], None)


def assert_within_bound(default, forced, *context):
    """The default's time is within :data:`BOUND` of a forced one's."""
    assert default <= BOUND * forced, (*context, default / forced)
