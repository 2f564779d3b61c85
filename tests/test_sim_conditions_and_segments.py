"""Coverage tests: condition failure paths, segment handle extras, layout."""

import numpy as np
import pytest

from repro._units import KiB, MiB
from repro.hardware import Node
from repro.hardware.sci import AccessRun, RingTopology, SCIFabric
from repro.hardware.sci.segments import SegmentDirectory
from repro.memlib import iter_span, strided_blocks
from repro.sim import Engine


class TestConditionFailures:
    def test_all_of_fails_fast_on_child_failure(self):
        eng = Engine()
        good = eng.timeout(10.0)
        bad = eng.event()

        def failer():
            yield eng.timeout(1.0)
            bad.fail(RuntimeError("child broke"))

        def waiter():
            try:
                yield eng.all_of([good, bad])
            except RuntimeError as exc:
                return (str(exc), eng.now)

        eng.process(failer())
        message, when = eng.run_process(waiter())
        assert message == "child broke"
        assert when == 1.0  # did not wait for the 10 µs timeout

    def test_any_of_failure_propagates(self):
        eng = Engine()
        bad = eng.event()

        def failer():
            yield eng.timeout(1.0)
            bad.fail(ValueError("early"))

        def waiter():
            try:
                yield eng.any_of([bad, eng.timeout(5.0)])
            except ValueError:
                return "caught"

        eng.process(failer())
        assert eng.run_process(waiter()) == "caught"

    def test_unwaited_failed_event_crashes_engine(self):
        """A failure nobody handles is surfaced, not swallowed."""
        eng = Engine()
        eng.event().fail(ValueError("nobody listened"))
        with pytest.raises(ValueError, match="nobody listened"):
            eng.run()

    def test_condition_engines_must_match(self):
        eng_a, eng_b = Engine(), Engine()
        ev = eng_b.event()
        with pytest.raises(ValueError):
            eng_a.all_of([ev])


class TestSegmentHandleExtras:
    def _setup(self):
        eng = Engine()
        nodes = [Node(i, mem_size=4 * MiB) for i in range(2)]
        fabric = SCIFabric(eng, RingTopology(2))
        directory = SegmentDirectory(fabric)
        seg = directory.export(nodes[1], nodes[1].space.alloc(64 * KiB))
        return eng, nodes, directory, seg

    def test_read_bytes(self):
        eng, nodes, directory, seg = self._setup()
        seg.local_view()[:16] = np.arange(16, dtype=np.uint8)
        handle = directory.import_segment(nodes[0], seg)

        def body():
            data = yield from handle.read_bytes(4, 8)
            return data.tobytes()

        assert eng.run_process(body()) == bytes(range(4, 12))

    def test_lookup(self):
        eng, nodes, directory, seg = self._setup()
        assert directory.lookup(seg.seg_id) is seg
        from repro.hardware.sci.segments import SegmentError

        with pytest.raises(SegmentError):
            directory.lookup(999)

    def test_strided_read_of_partial_runs(self):
        eng, nodes, directory, seg = self._setup()
        view = seg.local_view()
        view[:64] = np.arange(64, dtype=np.uint8)
        handle = directory.import_segment(nodes[0], seg)
        run = AccessRun(base=2, size=3, stride=10, count=4)

        def body():
            data = yield from handle.read(run)
            return data

        data = eng.run_process(body())
        expected = np.concatenate([view[2 + i * 10 : 5 + i * 10] for i in range(4)])
        assert np.array_equal(data, expected)

    def test_write_payload_mismatch(self):
        eng, nodes, directory, seg = self._setup()
        handle = directory.import_segment(nodes[0], seg)
        from repro.hardware.sci.segments import SegmentError

        def body():
            yield from handle.write(
                np.zeros(10, dtype=np.uint8), AccessRun.contiguous(0, 8)
            )

        with pytest.raises(SegmentError):
            eng.run_process(body())


class TestRunViews:
    """scatter_run / gather_run over the shared bounds-checked view."""

    @staticmethod
    def _mem(n=64):
        return np.arange(n, dtype=np.uint8)

    @pytest.mark.parametrize("run", [
        AccessRun(base=2, size=3, stride=10, count=4),   # strided
        AccessRun(base=5, size=4, stride=4, count=6),    # back to back
        AccessRun(base=7, size=9, stride=0, count=1),    # a single block
        AccessRun(base=54, size=2, stride=4, count=3),   # ends at the segment end
        AccessRun(base=60, size=4, stride=4, count=1),   # ... contiguously
    ])
    def test_gather_scatter_roundtrip(self, run):
        from repro.hardware.sci.segments import gather_run, scatter_run

        mem = self._mem()
        want = np.concatenate([mem[run.base + i * run.stride:][:run.size]
                               for i in range(run.count)])
        got = gather_run(mem, run)
        assert got.shape == (run.total_bytes,) and np.array_equal(got, want)
        target = np.zeros(64, dtype=np.uint8)
        scatter_run(target, run, got)
        touched = np.zeros(64, dtype=bool)
        for i in range(run.count):
            touched[run.base + i * run.stride:][:run.size] = True
        assert np.array_equal(target[touched], want)
        assert not target[~touched].any()

    @pytest.mark.parametrize("run", [
        AccessRun(base=62, size=4, stride=4, count=1),    # one block past the end
        AccessRun(base=50, size=4, stride=4, count=4),    # back-to-back past the end
        AccessRun(base=41, size=4, stride=10, count=3),   # last strided block past it
        AccessRun(base=64, size=1, stride=2, count=2),    # base at the end
        AccessRun(base=900, size=2, stride=8, count=2),   # base far outside
        AccessRun(base=-1, size=2, stride=2, count=1),    # negative base
        AccessRun(base=-8, size=2, stride=8, count=3),
    ])
    def test_out_of_range_runs_are_rejected(self, run):
        from repro.hardware.sci.segments import SegmentError, gather_run, scatter_run

        mem = self._mem()
        with pytest.raises(SegmentError, match="outside segment"):
            gather_run(mem, run)
        with pytest.raises(SegmentError, match="outside segment"):
            scatter_run(mem, run, np.zeros(run.total_bytes, dtype=np.uint8))
        assert np.array_equal(mem, self._mem())  # nothing was written

    @pytest.mark.parametrize("run", [
        AccessRun(base=3, size=0, stride=8, count=5),
        AccessRun(base=3, size=4, stride=8, count=0),
        AccessRun(base=900, size=0, stride=0, count=0),
    ])
    def test_empty_runs_touch_nothing(self, run):
        from repro.hardware.sci.segments import gather_run, scatter_run

        mem = self._mem()
        assert gather_run(mem, run).shape == (0,)
        scatter_run(mem, run, np.empty(0, dtype=np.uint8))
        assert np.array_equal(mem, self._mem())

    @pytest.mark.parametrize("run", [
        AccessRun(base=2, size=3, stride=10, count=4),
        AccessRun(base=5, size=4, stride=4, count=6),
    ])
    def test_read_only_segment_stays_read_only(self, run):
        from repro.hardware.sci.segments import gather_run, scatter_run

        mem = self._mem()
        mem.flags.writeable = False
        assert gather_run(mem, run).nbytes == run.total_bytes
        with pytest.raises(ValueError, match="read-only"):
            scatter_run(mem, run, np.zeros(run.total_bytes, dtype=np.uint8))
        assert np.array_equal(mem, self._mem())


class TestLayoutHelpers:
    def test_iter_span(self):
        blocks = strided_blocks(count=2, blocklen=3, stride=8, base=1)
        assert list(iter_span(blocks)) == [1, 2, 3, 9, 10, 11]
