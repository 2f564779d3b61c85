#!/usr/bin/env python3
"""Ocean-model halo exchange — the paper's motivating application.

Sec. 3 motivates non-contiguous datatypes with ocean models whose 3-D
simulation volume is decomposed along the two horizontal dimensions: the
boundary exchange then moves *strided* (north/south faces) and even
*double-strided* data (east/west faces, Fig. 2).

This is now a thin wrapper over the verified scenario kernel
(:func:`repro.scenarios.run_halo_standalone` — the same Jacobi sweep the
``colocation`` scenario co-locates with the KV service), comparing the
generic, direct_pack_ff and DMA transfer techniques with the default
per-message verdict on the same exchange.
Every run is checked bit-exactly against the host stencil oracle.

Run with::

    python examples/ocean_halo.py
"""

from repro import NonContigMode, ProtocolConfig
from repro.scenarios import HaloConfig, run_halo_standalone

# Global grid (depth, latitude, longitude) split over a (1, 2, 2) mesh.
CONFIG = HaloConfig(mesh=(1, 2, 2), interior=(32, 96, 96), steps=3)


def main() -> None:
    # The north/south faces have wide blocks (rows) where direct_pack_ff
    # shines; the east/west faces have 8-byte blocks, the one case where
    # the paper says the generic technique is faster inter-node.  The
    # default (AUTO) prices every technique per message and should match
    # or beat each fixed choice.
    configs = {
        "generic": ProtocolConfig(noncontig_mode=NonContigMode.GENERIC),
        "direct": ProtocolConfig(noncontig_mode=NonContigMode.DIRECT),
        "dma": ProtocolConfig(noncontig_mode=NonContigMode.DMA),
        "auto": ProtocolConfig(),
    }
    results = {}
    nz, ny, nx = (i * m for i, m in zip(CONFIG.interior, CONFIG.mesh))
    for label, protocol in configs.items():
        run = run_halo_standalone(CONFIG, protocol=protocol)
        assert run["exact"], f"{label}: grid diverged from the host oracle"
        results[label] = run["elapsed_us"]
        print(f"{label:8s}: {CONFIG.steps} halo-exchange steps in "
              f"{run['elapsed_us']:9.1f} µs (simulated, "
              f"{CONFIG.mesh[1]}x{CONFIG.mesh[2]} mesh, "
              f"{nz}x{ny}x{nx} grid, bit-exact)")
    best_fixed = min(results["generic"], results["direct"], results["dma"])
    print(f"auto (cost verdict) vs best fixed mode: "
          f"{best_fixed / results['auto']:.2f}x")
    assert results["auto"] <= 1.05 * best_fixed, (
        "AUTO mode should match or beat every fixed technique"
    )
    print("OK")


if __name__ == "__main__":
    main()
