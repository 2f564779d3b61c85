"""Tests for the application kernels (repro.apps) and the Subarray datatype."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import DOUBLE, INT, Cluster, Subarray
from repro.apps import CartDecomposition, DistributedSpMV, HaloExchanger
from repro.mpi.datatypes import DatatypeError
from repro.mpi.flatten import get_plan


def pack(mem, dtype):
    return get_plan(dtype.flattened, 1).execute_pack(mem, 0)


class TestSubarray:
    def test_2d_selection_packs_correct_bytes(self):
        full = np.arange(4 * 6, dtype=np.float64).reshape(4, 6)
        sub = Subarray((4, 6), (2, 3), (1, 2), DOUBLE).commit()
        mem = full.reshape(-1).view(np.uint8)
        packed = pack(mem, sub).view(np.float64)
        assert np.array_equal(packed, full[1:3, 2:5].reshape(-1))

    def test_3d_face(self):
        full = np.arange(3 * 4 * 5, dtype=np.float64).reshape(3, 4, 5)
        sub = Subarray((3, 4, 5), (3, 4, 1), (0, 0, 2), DOUBLE).commit()
        mem = full.reshape(-1).view(np.uint8)
        packed = pack(mem, sub).view(np.float64)
        assert np.array_equal(packed, full[:, :, 2].reshape(-1))

    def test_full_selection_is_contiguous(self):
        sub = Subarray((4, 4), (4, 4), (0, 0), DOUBLE).commit()
        assert sub.is_contiguous

    def test_extent_covers_full_array(self):
        sub = Subarray((8, 8), (2, 2), (0, 0), INT)
        assert sub.extent == 64 * 4
        assert sub.size == 4 * 4

    def test_invalid_slices(self):
        with pytest.raises(DatatypeError):
            Subarray((4,), (5,), (0,), INT)
        with pytest.raises(DatatypeError):
            Subarray((4,), (2,), (3,), INT)
        with pytest.raises(DatatypeError):
            Subarray((4, 4), (2,), (0, 0), INT)

    def test_dim_strides_row_major(self):
        sub = Subarray((3, 4, 5), (1, 1, 1), (0, 0, 0), DOUBLE)
        assert sub.dim_strides() == (160, 40, 8)

    def test_send_recv_with_subarray(self):
        send_t = Subarray((6, 6), (2, 2), (2, 2), DOUBLE).commit()
        recv_t = Subarray((6, 6), (2, 2), (0, 0), DOUBLE).commit()

        def program(ctx):
            comm = ctx.comm
            buf = ctx.alloc(6 * 6 * 8)
            grid = buf.as_array(np.float64).reshape(6, 6)
            if comm.rank == 0:
                grid[2:4, 2:4] = [[1.0, 2.0], [3.0, 4.0]]
                yield from comm.send(buf, dest=1, tag=0, datatype=send_t, count=1)
                return None
            yield from comm.recv(buf, source=0, tag=0, datatype=recv_t, count=1)
            return grid[0:2, 0:2].copy()

        run = Cluster(n_nodes=2).run(program)
        assert np.array_equal(run.results[1], [[1.0, 2.0], [3.0, 4.0]])


class TestCartDecomposition:
    def test_coords_roundtrip(self):
        cart = CartDecomposition((2, 3))
        for rank in range(6):
            assert cart.rank_at(cart.coords(rank)) == rank

    def test_neighbours_non_periodic(self):
        cart = CartDecomposition((2, 2))
        assert cart.neighbour(0, 0, +1) == 2
        assert cart.neighbour(0, 0, -1) is None
        assert cart.neighbour(3, 1, -1) == 2

    def test_neighbours_periodic(self):
        cart = CartDecomposition((3,), periodic=True)
        assert cart.neighbour(0, 0, -1) == 2
        assert cart.neighbour(2, 0, +1) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            CartDecomposition((0, 2))


class TestHaloExchanger:
    def run_exchange(self, proc_shape, interior, halo=1, periodic=False):
        def program(ctx):
            comm = ctx.comm
            ex = HaloExchanger(comm, proc_shape, interior, halo=halo,
                               periodic=periodic)
            buf = ctx.alloc(ex.nbytes)
            grid = ex.view(buf)
            grid[:] = -1.0
            ex.interior_view(buf)[:] = comm.rank + 1
            yield from ex.exchange(buf)
            return grid.copy()

        nprocs = 1
        for p in proc_shape:
            nprocs *= p
        return Cluster(n_nodes=nprocs).run(program).results

    def test_2d_halo_values(self):
        grids = self.run_exchange((2, 2), (4, 4))
        # Rank 0 (top-left): lower halo row comes from rank 2 (value 3),
        # right halo column from rank 1 (value 2); corners untouched (-1).
        g0 = grids[0]
        assert (g0[-1, 1:-1] == 3.0).all()
        assert (g0[1:-1, -1] == 2.0).all()
        assert (g0[0, 1:-1] == -1.0).all()   # no north neighbour
        assert g0[0, 0] == -1.0

    def test_1d_periodic_ring(self):
        grids = self.run_exchange((4,), (8,), periodic=True)
        for rank, grid in enumerate(grids):
            left = (rank - 1) % 4 + 1
            right = (rank + 1) % 4 + 1
            assert grid[0] == left
            assert grid[-1] == right

    def test_3d_exchange(self):
        grids = self.run_exchange((2, 1, 2), (4, 4, 4))
        g0 = grids[0]
        # +z neighbour of rank 0 in a (2,1,2) grid is rank 1.
        assert (g0[1:-1, 1:-1, -1] == 2.0).all()
        # +x neighbour is rank 2.
        assert (g0[-1, 1:-1, 1:-1] == 3.0).all()

    def test_wide_halo(self):
        grids = self.run_exchange((2,), (6,), halo=2)
        g0, g1 = grids
        assert (g0[-2:] == 2.0).all()
        assert (g1[:2] == 1.0).all()

    def test_validation(self):
        def program(ctx):
            with pytest.raises(ValueError):
                HaloExchanger(ctx.comm, (3,), (8,))  # grid needs 3 ranks
            with pytest.raises(ValueError):
                HaloExchanger(ctx.comm, (2,), (8, 8))  # rank mismatch
            with pytest.raises(ValueError):
                HaloExchanger(ctx.comm, (2,), (8,), halo=0)
            return "ok"
            yield  # pragma: no cover

        run = Cluster(n_nodes=2).run(program)
        assert run.results == ["ok", "ok"]

    def test_face_count(self):
        def program(ctx):
            ex = HaloExchanger(ctx.comm, (2, 2), (4, 4))
            return ex.face_count()
            yield  # pragma: no cover

        run = Cluster(n_nodes=4).run(program)
        assert run.results == [2, 2, 2, 2]  # corner ranks: 2 faces each


class TestDistributedSpMV:
    def make_problem(self, n=128, seed=3):
        rng = np.random.default_rng(seed)
        matrix = sp.random(n, n, density=0.05, random_state=rng, format="csr")
        x = rng.random(n)
        return matrix, x

    @pytest.mark.parametrize("shared", [True, False])
    def test_multiply_matches_scipy(self, shared):
        matrix, x = self.make_problem()

        def program(ctx):
            spmv = yield from DistributedSpMV.create(ctx, matrix, shared=shared)
            y_local = yield from spmv.multiply(x)
            return (spmv.lo, spmv.hi, y_local)

        run = Cluster(n_nodes=4).run(program)
        expected = matrix @ x
        for lo, hi, y_local in run.results:
            assert np.allclose(y_local, expected[lo:hi])

    def test_multiply_transpose_matches_scipy(self):
        matrix, x = self.make_problem()

        def program(ctx):
            spmv = yield from DistributedSpMV.create(ctx, matrix)
            yt_local = yield from spmv.multiply_transpose(x)
            return (spmv.lo, spmv.hi, yt_local)

        run = Cluster(n_nodes=4).run(program)
        expected = matrix.T @ x
        for lo, hi, yt_local in run.results:
            assert np.allclose(yt_local, expected[lo:hi])

    def test_rectangular_rejected(self):
        matrix = sp.random(8, 10, density=0.2, format="csr")

        def program(ctx):
            yield from DistributedSpMV.create(ctx, matrix)

        with pytest.raises(ValueError):
            Cluster(n_nodes=2).run(program)
