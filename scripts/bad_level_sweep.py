#!/usr/bin/env python3
"""Refinement sweep on a surface whose ball boundary mass blows up.

The surface of revolution with profile radius rho(t) = cos(t) / t^2 over
t in [-pi/2, 0) has hoop circumference 2 pi cos(t) / t^2, which diverges as
t -> 0.  Any fixed mesh reports a finite boundary mass for the ball around
the tip; refining the mesh towards the singular hoop makes the reported
boundary mass grow without bound.  The sweep exhibits the divergence; no
rate is asserted (none is available).

Vertex distances are shortest paths on the 1-skeleton with first-order
chart edge lengths, which is an exact metric; the radial rows are graded
geometrically so neighbouring rows have bounded profile ratio.

Run: python3 scripts/bad_level_sweep.py [levels]
"""
import math
import sys

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from currentlab.complexes import GeometricComplex, MatrixMetric, PLFunction
from currentlab.currents import SimplicialCurrent, boundary, mass
from currentlab.slicing import restrict_sublevel


def profile(t):
    return math.cos(t) / t**2


def build_surface(n_rad, n_hoop, t_min=-math.pi / 2 + 0.05, t_max=-0.05):
    ts = -np.geomspace(-t_min, -t_max, n_rad + 1)
    n = (n_rad + 1) * n_hoop

    def vid(i, j):
        return i * n_hoop + j % n_hoop

    def edge_len(t1, th1, t2, th2):
        dt = t1 - t2
        dth = abs(th1 - th2)
        dth = min(dth, 2 * math.pi - dth)
        tm = 0.5 * (t1 + t2)
        return math.sqrt(dt**2 + (profile(tm) * dth) ** 2)

    thetas = [2 * math.pi * j / n_hoop for j in range(n_hoop)]
    rows, cols, vals = [], [], []
    tris = []
    for i in range(n_rad + 1):
        for j in range(n_hoop):
            a = vid(i, j)
            b = vid(i, j + 1)
            rows.append(a), cols.append(b)
            vals.append(edge_len(ts[i], thetas[j], ts[i], thetas[(j + 1) % n_hoop]))
            if i < n_rad:
                c = vid(i + 1, j)
                d = vid(i + 1, j + 1)
                rows.append(a), cols.append(c)
                vals.append(edge_len(ts[i], thetas[j], ts[i + 1], thetas[j]))
                rows.append(a), cols.append(d)
                vals.append(edge_len(ts[i], thetas[j], ts[i + 1], thetas[(j + 1) % n_hoop]))
                tris.extend([(a, b, d), (a, d, c)])
    g = coo_matrix((vals + vals, (rows + cols, cols + rows)), shape=(n, n)).tocsr()
    dist = dijkstra(g)
    metric = MatrixMetric(dist)
    C = GeometricComplex.from_top_simplices(metric, tris)
    T = SimplicialCurrent(C, 2, {i: 1 for i in range(C.count(2))})
    radial = np.repeat(ts, n_hoop) + math.pi / 2
    return C, T, radial, ts


def main():
    levels = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    print(f"{'t_max':>9} {'mesh':>10} {'ball bd mass':>14} {'hoop circumference':>20}")
    for k in range(levels):
        t_max = -0.4 / 2**k
        n_rad, n_hoop = 10 + 6 * k, 16
        C, T, radial, ts = build_surface(n_rad, n_hoop, t_max=t_max)
        f = PLFunction(C, radial)
        radius = (t_max + math.pi / 2) * 0.995
        inner = restrict_sublevel(T, f, radius)
        bd_mass = mass(boundary(inner))
        print(
            f"{t_max:9.4f} {n_rad}x{n_hoop:<6} {bd_mass:14.4f} "
            f"{2 * math.pi * profile(t_max):20.4f}"
        )
    print("boundary mass grows as the mesh approaches the singular hoop")


if __name__ == "__main__":
    main()
