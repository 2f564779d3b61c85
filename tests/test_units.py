"""Tests for the unit helpers (repro._units)."""

import pytest

from repro._units import (
    KiB,
    MiB,
    align_up,
    fmt_size,
    mib_s,
    to_mib_s,
)


def test_mib_s_roundtrip():
    assert to_mib_s(mib_s(123.0)) == pytest.approx(123.0)


def test_mib_s_value():
    # 1 MiB/s = 1048576 bytes / 1e6 µs.
    assert mib_s(1.0) == pytest.approx(1.048576)


def test_align_up():
    assert align_up(13, 8) == 16
    assert align_up(16, 8) == 16
    with pytest.raises(ValueError):
        align_up(3, 6)  # not a power of two
    with pytest.raises(ValueError):
        align_up(3, 0)


def test_fmt_size():
    assert fmt_size(8) == "8 B"
    assert fmt_size(KiB) == "1 kiB"
    assert fmt_size(2 * KiB) == "2 kiB"
    assert fmt_size(int(1.5 * MiB)) == "1.5 MiB"
