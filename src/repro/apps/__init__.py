"""Reusable application kernels built on the public API.

* :mod:`~repro.apps.halo` — n-D halo exchange with Subarray datatypes (the
  paper's motivating grid-code pattern);
* :mod:`~repro.apps.spmv` — distributed sparse matrix-vector products over
  one-sided communication (the paper's Sec. 4 motivation); it imports
  ``scipy.sparse`` when an operator is created, not with this package.
"""

from .halo import CartDecomposition, HaloExchanger
from .spmv import DistributedSpMV

__all__ = ["CartDecomposition", "DistributedSpMV", "HaloExchanger"]
