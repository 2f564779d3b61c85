"""Unit conventions and conversion helpers used throughout the package.

Conventions
-----------
* **Time** is measured in *microseconds* (µs) as ``float``.  Micro-benchmark
  latencies in the reproduced paper are single-digit µs, so µs keeps the
  numbers readable while ``float`` precision (2^53 µs ≈ 285 years) is ample.
* **Sizes** are measured in *bytes* as ``int``.
* **Bandwidth** is carried internally as *bytes per microsecond* (B/µs).
  1 B/µs equals 10^6 B/s; the paper reports MiB/s, so helpers convert.

The paper consistently uses binary prefixes (kiB, MiB) which we mirror.
"""

from __future__ import annotations

#: Binary size prefixes (the paper reports kiB / MiB).
KiB: int = 1024
MiB: int = 1024 * 1024
GiB: int = 1024 * 1024 * 1024

#: One second / millisecond expressed in the internal time unit (µs).
USEC: float = 1.0
MSEC: float = 1_000.0
SEC: float = 1_000_000.0


def mib_s(bandwidth_mib_per_s: float) -> float:
    """Convert a bandwidth in MiB/s to internal B/µs."""
    return bandwidth_mib_per_s * MiB / SEC


def to_mib_s(bytes_per_usec: float) -> float:
    """Convert an internal B/µs bandwidth to MiB/s for reporting."""
    return bytes_per_usec * SEC / MiB


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment`` (a power of 2)."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a positive power of two: {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)


def fmt_size(nbytes: int) -> str:
    """Human-readable binary size string (``8 B``, ``2 kiB``, ``1.5 MiB``)."""
    if nbytes < KiB:
        return f"{nbytes} B"
    if nbytes < MiB:
        value = nbytes / KiB
        return f"{value:g} kiB"
    value = nbytes / MiB
    return f"{value:g} MiB"
