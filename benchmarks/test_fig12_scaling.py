"""E7 / Figure 12: scaling of one-sided strided communication.

Acceptance (Sec. 5.3):
* shared-memory platforms have higher fine-grained bandwidth but the
  4-way Xeon "scales very badly for coarse-grained accesses and delivers
  a bandwidth below the SCI-connected system";
* the Sun Fire "scales better, but even its bandwidth declines notably
  for more than 6 active processes";
* the Cray T3E keeps its bandwidth constant up to 32 processes;
* SCI: constant peak per-node bandwidth up to 5 nodes, then the single
  ringlet saturates and per-node bandwidth declines.
"""

from repro.bench.ring import (
    fig12_intranode_series,
    fig12_platform_series,
    fig12_sci_series,
)
from repro.bench.series import render_series
from repro.mpi.transport import PaperThresholdPolicy
from repro.platforms import platform_by_id


def test_fig12(once):
    def build():
        paper = PaperThresholdPolicy()  # SCI-MPICH's one-sided rule, named
        sci = fig12_sci_series(policy=paper)
        intra = fig12_intranode_series(policy=paper)
        others = {
            pid: fig12_platform_series(
                platform_by_id(pid).model,
                node_counts=[2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32],
            )
            for pid in ("C", "F-s", "X-s")
        }
        return sci, intra, others

    sci, intra, others = once(build)
    print()
    print(render_series("Figure 12: per-process put bandwidth vs process count "
                        "[MiB/s]", [others[p] for p in others], size_x=False))
    print(render_series("  (SCI ringlet, 2-8 nodes)", [sci], size_x=False))
    print(render_series("  (SCI-MPICH intra-node shm, 2-8 procs)", [intra],
                        size_x=False))

    t3e, sun, xeon = others["C"], others["F-s"], others["X-s"]

    # M-s: higher fine-grained bandwidth than SCI at 2 procs, but the
    # shared memory bus makes it fall below the SCI system as the process
    # count grows (the paper's central Fig. 12 observation).
    assert intra.at(2) > sci.at(2)
    assert intra.at(6) < sci.at(6)
    assert intra.at(8) < 0.5 * intra.at(2)

    # T3E: constant to 32 processes.
    assert max(t3e.y) - min(t3e.y) < 0.05 * max(t3e.y)

    # Sun Fire: declines notably beyond 6 processes.
    assert sun.at(8) < 0.9 * sun.at(6)
    assert sun.at(2) > sci.at(2)  # shm fine-grained bandwidth is higher

    # Xeon: scales badly; with many processes it falls below SCI at the
    # same process count.
    assert xeon.at(4) < 0.6 * xeon.at(2)
    assert xeon.at(4) < sci.at(4)

    # SCI: flat to ~4-5 nodes, saturating beyond.
    assert sci.at(4) > 0.85 * sci.at(2)
    assert sci.at(8) < 0.6 * sci.at(4)
