"""Assorted coverage: PSCW multi-origin, datatype collectives, configs."""

import numpy as np
import pytest

from repro._units import KiB
from repro.cluster import Cluster
from repro.mpi.datatypes import DOUBLE, Vector
from repro.mpi.pt2pt import NonContigMode, ProtocolConfig


class TestPSCWMultiOrigin:
    def test_one_target_two_origins(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(256, shared=True)
            if comm.rank == 0:
                yield from win.post([1, 2])
                yield from win.wait([1, 2])
                return win.local_view()[:2].tobytes()
            yield from win.start([0])
            yield from win.put(
                np.array([comm.rank * 11], dtype=np.uint8), 0, comm.rank - 1
            )
            yield from win.complete([0])
            return None

        run = Cluster(n_nodes=3).run(program)
        assert run.results[0] == bytes([11, 22])

    def test_one_origin_two_targets(self):
        def program(ctx):
            comm = ctx.comm
            win = yield from comm.win_create(64, shared=True)
            if comm.rank == 0:
                yield from win.start([1, 2])
                for target in (1, 2):
                    yield from win.put(
                        np.array([target + 40], dtype=np.uint8), target, 0
                    )
                yield from win.complete([1, 2])
                return None
            yield from win.post([0])
            yield from win.wait([0])
            return int(win.local_view()[0])

        run = Cluster(n_nodes=3).run(program)
        assert run.results[1] == 41 and run.results[2] == 42


class TestDatatypeCollectives:
    def test_bcast_with_vector_datatype(self):
        vec = Vector(32, 1, 2, DOUBLE).commit()

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(vec.extent)
            view = buf.as_array(np.float64)
            if comm.rank == 1:
                view[::2] = np.arange(32, dtype=np.float64) * 2.0
            yield from comm.bcast(buf, root=1, datatype=vec, count=1)
            return np.array(view[::2], copy=True)

        run = Cluster(n_nodes=4).run(program)
        expected = np.arange(32, dtype=np.float64) * 2.0
        for got in run.results:
            assert np.array_equal(got, expected)

    def test_bcast_datatype_gaps_untouched(self):
        vec = Vector(8, 1, 2, DOUBLE).commit()

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(vec.extent)
            view = buf.as_array(np.float64)
            view[:] = -5.0  # gap sentinel everywhere
            if comm.rank == 0:
                view[::2] = 1.0
            yield from comm.bcast(buf, root=0, datatype=vec, count=1)
            return np.array(view, copy=True)

        run = Cluster(n_nodes=2).run(program)
        got = run.results[1]
        assert (got[::2] == 1.0).all()
        assert (got[1::2][:-1] == -5.0).all()  # gaps stayed local


class TestProtocolConfigUtilities:
    def test_with_mode(self):
        cfg = ProtocolConfig().with_mode(NonContigMode.GENERIC)
        assert cfg.noncontig_mode == NonContigMode.GENERIC

    def test_replace(self):
        cfg = ProtocolConfig().replace(eager_threshold=4 * KiB, eager_slots=3)
        assert cfg.eager_threshold == 4 * KiB
        assert cfg.eager_slots == 3
        # Frozen dataclass: originals untouched.
        assert ProtocolConfig().eager_threshold == 16 * KiB

    def test_frozen(self):
        cfg = ProtocolConfig()
        with pytest.raises(Exception):
            cfg.eager_threshold = 1


class TestNodeParamsUtilities:
    def test_with_link_mhz_is_pure(self):
        from repro.hardware import DEFAULT_NODE

        fast = DEFAULT_NODE.with_link_mhz(200.0)
        assert DEFAULT_NODE.link.frequency_mhz == 166.0
        assert fast.link.frequency_mhz == 200.0
        assert fast.adapter is DEFAULT_NODE.adapter  # rest shared

    def test_with_write_combining_is_pure(self):
        from repro.hardware import DEFAULT_NODE

        off = DEFAULT_NODE.with_write_combining(False)
        assert DEFAULT_NODE.write_combine.enabled
        assert not off.write_combine.enabled


class TestImportGraph:
    def test_the_package_imports_neither_scipy_nor_unittest(self):
        """Every process that imports the scenarios, the service or the
        bench pays for the import graph: numpy, repro and a few small
        stdlib modules.  `scipy.sparse` (some 340 modules, `unittest` among
        them) is `DistributedSpMV.create`'s alone — tests/test_apps.py
        shows it still finds it."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = pathlib.Path(repro.__file__).resolve().parent.parent
        probe = ("import sys; "
                 "import repro, repro.apps, repro.scenarios, repro.svc, repro.bench; "
                 "print(sorted({name.split('.')[0] for name in sys.modules}"
                 " & {'scipy', 'unittest'}), len(sys.modules))")
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        heavy, count = done.stdout.rsplit(" ", 1)
        assert heavy == "[]"
        assert int(count) < 400     # 284 here; 627 with scipy.sparse
