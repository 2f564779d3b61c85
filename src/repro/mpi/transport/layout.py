"""Target-layout resolution for one-sided transfers.

Whether a one-sided operation can use direct remote stores depends on the
*target* datatype collapsing to a single strided access run the SCI
adapter can stream (``as_access_run``); anything richer goes through the
emulated path with a full packing plan.  This is the transport layer's
one place that makes the call — ``osc/window.py`` used to duplicate it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...hardware.sci.transactions import AccessRun
from ..errors import RMAError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datatypes.base import Datatype
    from ..flatten import FlattenedType

__all__ = ["as_access_run", "resolve_target_run"]


def as_access_run(
    ft: "FlattenedType", count: int, base: int = 0
) -> Optional[AccessRun]:
    """Represent the layout as a single strided AccessRun, if possible.

    Works for a single leaf with at most one level when ``count`` either
    is 1 or tiles gap-free (instance extent == span).  This is the case
    the hardware write model can cost directly (e.g. the *sparse*
    benchmark's strided window accesses).
    """
    if len(ft.leaves) != 1:
        return None
    leaf = ft.leaves[0]
    if len(leaf.levels) > 1:
        return None
    if not leaf.levels:
        size, stride, blocks = leaf.size, leaf.size, 1
    else:
        level = leaf.levels[0]
        size, stride, blocks = leaf.size, level.extent, level.count
        if stride < size:
            return None
    if count == 1:
        return AccessRun(base=base + leaf.offset, size=size, stride=stride, count=blocks)
    # Multiple instances only collapse when consecutive instances keep the
    # same block stride going.
    if blocks == 1:
        if ft.extent < size:
            return None  # overlapping instances (shrunk Resized extent)
        return AccessRun(base=base + leaf.offset, size=size, stride=ft.extent, count=count)
    if blocks * stride == ft.extent:
        return AccessRun(
            base=base + leaf.offset, size=size, stride=stride, count=blocks * count
        )
    return None


def resolve_target_run(disp: int, nbytes: int,
                       target_datatype: Optional["Datatype"],
                       target_count: int) -> Optional[AccessRun]:
    """The single strided run of a one-sided target layout, if one exists.

    Returns a contiguous run for untyped targets, a strided run when the
    (committed) target datatype collapses to one, and ``None`` when the
    layout is too complex for transparent stores (emulation required).
    Raises :class:`RMAError` when the origin byte count does not match the
    target type's packed size.
    """
    if target_datatype is None:
        return AccessRun.contiguous(disp, nbytes)
    target_datatype.commit()
    run = as_access_run(target_datatype.flattened, target_count, base=disp)
    if run is not None and run.total_bytes != nbytes:
        raise RMAError(
            f"origin data of {nbytes} B does not match target type of "
            f"{run.total_bytes} B"
        )
    return run
