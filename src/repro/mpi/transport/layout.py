"""Target-layout resolution for one-sided transfers.

Whether a one-sided operation can use direct remote stores depends on the
*target* datatype collapsing to a single strided access run the SCI
adapter can stream (``as_access_run``); anything richer goes through the
emulated path with a full packing plan.  :func:`resolve_target` is the
one place that resolves a target layout: size check, bounds check, run
and plan, for local and remote targets alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...hardware.sci.transactions import AccessRun
from ..errors import RMAError
from ..flatten import get_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datatypes.base import Datatype
    from ..flatten import FlattenedType, PackPlan

__all__ = ["as_access_run", "resolve_target"]


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


def resolve_target(part, disp: int, nbytes: int,
                   target_datatype: Optional["Datatype"],
                   target_count: int
                   ) -> tuple[Optional[AccessRun], Optional["PackPlan"]]:
    """Resolve a one-sided target layout: the one check every put, get and
    accumulate makes, whether its target is local or remote.

    Commits the target type, rejects an origin byte count that differs
    from the type's packed size, and bounds-checks the footprint against
    ``part`` (the target's window part: its ``nbytes`` and
    ``world_rank``).  Returns ``(run, plan)``: ``run`` is the single
    strided run direct stores and loads stream (``None`` when the layout
    needs emulation); ``plan`` is the packing plan of a typed target
    (``None`` for an untyped one, whose bytes are the contiguous run).
    """
    if target_datatype is None:
        run, plan = AccessRun.contiguous(disp, nbytes), None
        low, high = disp, disp + nbytes
    else:
        target_datatype.commit()
        ft = target_datatype.flattened
        plan = get_plan(ft, target_count)
        if plan.total != nbytes:
            raise RMAError(
                f"origin data of {nbytes} B does not match target type of "
                f"{plan.total} B"
            )
        run = as_access_run(ft, target_count, base=disp)
        low, high = disp + plan.bounds[0], disp + plan.bounds[1]
    if low < 0 or high > part.nbytes:
        raise RMAError(
            f"RMA access [{low}, {high}) outside window part of "
            f"{part.nbytes} B at world rank {part.world_rank}"
        )
    return run, plan
