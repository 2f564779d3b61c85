"""direct_pack_ff (S7): flattened datatypes and the plans that move their bytes.

The representation (:mod:`stack`), its commit-time construction and merge
optimizations (:mod:`build`), and the memoized packing plans (:mod:`plan`)
— the one executor of the packed stream that the generic and direct
transfer paths, one-sided targets and ``Datatype.pack_from`` share.
"""

from .build import build_flattened, leaves_of
from .plan import (
    PackError,
    PackPlan,
    get_plan,
    plan_cache_disabled,
    plan_cache_stats,
    reset_plan_cache,
)
from .stack import FlattenedType, LeafSpec, Level

__all__ = [
    "FlattenedType",
    "LeafSpec",
    "Level",
    "PackError",
    "PackPlan",
    "build_flattened",
    "get_plan",
    "leaves_of",
    "plan_cache_disabled",
    "plan_cache_stats",
    "reset_plan_cache",
]
