#!/usr/bin/env python3
"""Record the interval-filling sweep as the interval length shrinks.

For a flat unit disk the scaled interval filling eps^-1 FillVol(bd(T x I_eps))
is bounded by the disk mass pi.  The fill is posed in the prism complex over
supp T, where T x I_eps is the only filling, so IFV is eps * M(T) by
construction (no prism is built) and the sweep is flat: IFV/eps is M(T) up to
the rounding of one product and one quotient.  It shows a trend only once the
fill is posed in an ambient complex that has (k+1)-simplices of its own.  The
trend is reported, never asserted.

Run: python3 scripts/ifv_epsilon_sweep.py [mesh_h] [eps1,eps2,...]
"""
import sys

from currentlab.currents import mass
from currentlab.meshes import disk_mesh
from currentlab.product import interval_filling_volume


def main():
    h = float(sys.argv[1]) if len(sys.argv) > 1 else 0.12
    eps_list = (
        [float(e) for e in sys.argv[2].split(",")] if len(sys.argv) > 2 else [0.4, 0.2, 0.1, 0.05]
    )
    C, T = disk_mesh(h=h)
    print(f"disk mesh h={h}: mass {mass(T):.6f}")
    print(f"{'eps':>8} {'IFV':>12} {'IFV/eps':>12} {'mass bound':>12}")
    for eps in eps_list:
        rep = interval_filling_volume(T, eps)
        print(f"{eps:8.3f} {rep.value:12.6f} {rep.value / eps:12.6f} {mass(T):12.6f}")
    print("trend recorded; the limit is not asserted")


if __name__ == "__main__":
    main()
