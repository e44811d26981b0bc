"""The four seeded workloads: inputs, one operation, output checks, anchors.

Each workload builds its inputs from the run seed only; the library sees
nothing but those inputs.  An operation is one user query (one answer the
user waits for).  `run` holds only the library calls that are timed;
`check` verifies the answer afterwards and returns the list of failed
checks, so a wrong answer counts as a failed operation without stopping the
run.  Each workload also has one fixed anchor operation whose answer is
known in closed form; its relative error is the `rel_err` metric.

Sizes are chosen so that one operation takes seconds, not minutes, on one
core: enough operations fit in a run for a stable median.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from currentlab.complexes import distance_function, PLFunction
from currentlab.convergence import joined_complex, matched_balls
from currentlab.currents import boundary
from currentlab.fillvol import RESIDUAL_TOL, filling_volume, flat_distance
from currentlab.meshes import (
    disk_mesh,
    equator_vertex,
    grid_mesh,
    nearest_vertex,
    sphere_mesh,
    torus_patch_mesh,
)
from currentlab.slicedfill import C_E3_BAND_INTEGRAL, ball_context, sliced_fill, tetra_check
from currentlab.slicing import annulus_mass, slice_current

GAP_TOL = 1e-6
MASS_WARNING = "mass lower bound"
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(rng, lo, hi):
    """Endless stream of values in [lo, hi] from a seeded starting point
    along a golden-ratio (Weyl) sequence: the first n values cover the
    interval almost evenly for every n, so every run, however many
    operations it fits, sees nearly the same spread of problem sizes, which
    keeps the per-run median steady across seeds."""
    u = rng.uniform()
    while True:
        yield lo + (hi - lo) * u
        u = (u + GOLDEN) % 1.0


class Workload:
    """Shared interface: setup() -> state; inputs(seed) -> endless stream of
    operation parameters; run(state, p) -> result; check(state, p, result)
    -> failed checks; anchor(state) -> (relative error, failed checks);
    digest(result) -> exact values compared between traced and untraced runs."""

    name: str
    ANCHOR_TOL: float  # bound on the anchor's relative error

    def check_anchor(self, rel):
        if rel <= self.ANCHOR_TOL:
            return []
        return [f"anchor relative error {rel:.4g} above {self.ANCHOR_TOL}"]


# ---------------------------------------------------------------------------
# sphere_sf: sliced filling of geodesic balls on a large sphere mesh


@dataclass
class SphereResult:
    integral: float
    values: np.ndarray
    skipped: int
    warnings: list
    witness: int


class SphereSF(Workload):
    name = "sphere_sf"
    N_LAT, N_LON = 50, 100
    GRID = 5
    ANCHOR_GRID = 8  # an odd grid hits the anchor's answer to 1e-7, which no bound can guard
    CENTER_ROWS = (23, 27)  # latitude rows within 8 degrees of the equator
    ANCHOR_TOL = 0.05

    def setup(self):
        C, T = sphere_mesh(self.N_LAT, self.N_LON)
        return {"C": C, "T": T}

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        radii = _spread(rng, math.pi / 4, math.pi / 2)
        while True:
            # a seeded vertex near the equator, away from the poles where the
            # latitude-longitude mesh crowds, so the operation's cost follows
            # the radius; plus a position on the discrete sphere for the
            # witness
            row = int(rng.integers(self.CENTER_ROWS[0], self.CENTER_ROWS[1] + 1))
            col = int(rng.integers(self.N_LON))
            yield {
                "center": 1 + (row - 1) * self.N_LON + col,
                "radius": float(next(radii)),
                "witness_pos": float(rng.uniform()),
            }

    def run(self, state, p):
        T = state["T"]
        ctx = ball_context(T, p["center"], p["radius"])
        sphere = ctx.sphere_vertices()
        witness = sphere[int(p["witness_pos"] * len(sphere))]
        rep = sliced_fill(T, p["center"], p["radius"], witnesses=[witness], grid=self.GRID, context=ctx)
        return SphereResult(rep.integral, rep.values, rep.skipped, list(rep.warnings), witness)

    def check(self, state, p, res):
        errors = []
        if res.skipped != 0:
            errors.append(f"{res.skipped} slices skipped")
        if any(MASS_WARNING in w for w in res.warnings):
            errors.append("mass lower bound exceeds ball mass")
        if not res.integral > 0:
            errors.append(f"non-positive sliced filling {res.integral}")
        return errors

    def anchor(self, state):
        """Criterion 1: pole, r = pi/2, equator witness; SF = pi^2 / 2."""
        C, T = state["C"], state["T"]
        r = math.pi / 2
        witness = equator_vertex(C, self.N_LAT, self.N_LON)
        ctx = ball_context(T, 0, r)
        rep = sliced_fill(T, 0, r, witnesses=[witness], grid=self.ANCHOR_GRID, context=ctx)
        res = SphereResult(rep.integral, rep.values, rep.skipped, list(rep.warnings), witness)
        return abs(res.integral / (math.pi**2 / 2) - 1.0), self.check(state, {}, res)

    @staticmethod
    def digest(res):
        return (res.integral, res.values.tobytes(), res.skipped, tuple(res.warnings), res.witness)


# ---------------------------------------------------------------------------
# torus_tetra: tetrahedral dichotomy on thin-torus Kuhn meshes


@dataclass
class TetraResult:
    integral: float
    h_values: np.ndarray
    passed: bool
    integral_passed: bool


class TorusTetra(Workload):
    name = "torus_tetra"
    EPSILONS = (0.8, 0.4, 0.2)
    SIDES = {"pass": 8, "fail": 2}  # r = eps / divisor
    CELLS = 6
    SAMPLES = 5
    CANDIDATES = 1
    BETA = 0.5
    C_REQ = 0.9 * C_E3_BAND_INTEGRAL
    ANCHOR_TOL = 0.1

    def setup(self):
        meshes = {}
        for eps in self.EPSILONS:
            for side, div in self.SIDES.items():
                r = eps / div
                C, T = torus_patch_mesh(eps, half_width=1.35 * r, cells_per_axis=self.CELLS)
                meshes[eps, side] = (T, nearest_vertex(C, (0.0, 0.0, 0.0)), r)
        return meshes

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        while True:
            # every epsilon goes through both sides of the dichotomy
            eps = self.EPSILONS[int(rng.integers(len(self.EPSILONS)))]
            yield {"eps": eps, "side": "pass"}
            yield {"eps": eps, "side": "fail"}

    def run(self, state, p):
        T, center, r = state[p["eps"], p["side"]]
        rep = tetra_check(
            T, center, r, C=self.C_REQ, beta=self.BETA, samples=self.SAMPLES, candidates=self.CANDIDATES
        )
        return TetraResult(rep.integral, rep.h_values, rep.passed, rep.integral_passed)

    def check(self, state, p, res):
        r = state[p["eps"], p["side"]][2]
        if p["side"] == "pass":
            errors = [] if res.integral_passed else ["integral tetra check failed at r = eps/8"]
            if res.integral < self.C_REQ * r**3:
                errors.append(f"band integral {res.integral} below 0.9 C_E3 r^3")
            return errors
        errors = ["pointwise tetra check passed at r = eps/2"] if res.passed else []
        if not (res.h_values == 0).any():
            errors.append("no empty-intersection node (h = 0) at r = eps/2")
        return errors

    def anchor(self, state):
        """eps = 0.4, r = eps/8: band integral against C_E3 r^3."""
        p = {"eps": 0.4, "side": "pass"}
        res = self.run(state, p)
        r = state[0.4, "pass"][2]
        return abs(res.integral / (C_E3_BAND_INTEGRAL * r**3) - 1.0), self.check(state, p, res)

    @staticmethod
    def digest(res):
        return (res.integral, res.h_values.tobytes(), res.passed, res.integral_passed)


# ---------------------------------------------------------------------------
# continuity_lp: filling and flat-norm LPs on a joined pair of refined disks


@dataclass
class ContinuityResult:
    fill_a: float
    fill_b: float
    flat: float
    residual: float


class ContinuityLP(Workload):
    name = "continuity_lp"
    H_A, H_B = 0.2, 0.125
    DISK_RADIUS = 0.8  # holds every ball: r + |centre| <= 0.7
    CENTER_SPREAD = 0.1
    BRACKET = (0.95, 1.0)
    ANCHOR_TOL = 0.05

    def setup(self):
        CA, TA = disk_mesh(h=self.H_A, radius=self.DISK_RADIUS)
        CB, TB = disk_mesh(h=self.H_B, radius=self.DISK_RADIUS)
        return {"A": (CA, TA), "B": (CB, TB)}

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        radii = _spread(rng, 0.4, 0.6)
        while True:
            rho = self.CENTER_SPREAD * math.sqrt(rng.uniform())
            phi = 2 * math.pi * rng.uniform()
            yield {"center": (rho * math.cos(phi), rho * math.sin(phi)), "radius": float(next(radii))}

    def run(self, state, p):
        (CA, TA), (CB, TB) = state["A"], state["B"]
        K, TA_K, TB_K, _, _ = joined_complex(CA, TA, CB, TB)
        pa = nearest_vertex(CA, p["center"])
        pb = nearest_vertex(CB, p["center"]) + CA.n_vertices
        ball_a, ball_b = matched_balls(K, TA_K, TB_K, pa, pb, p["radius"])
        K2 = ball_a.complex
        fa = filling_volume(boundary(ball_a), K2)
        fb = filling_volume(boundary(ball_b), K2)
        fd = flat_distance(ball_a, ball_b, K2)
        return ContinuityResult(fa.value, fb.value, fd.value, max(fa.residual, fb.residual, fd.residual))

    def check(self, state, p, res):
        errors = []
        if abs(res.fill_a - res.fill_b) > res.flat + GAP_TOL:
            errors.append(f"fill gap {abs(res.fill_a - res.fill_b)} above flat distance {res.flat}")
        if res.residual > RESIDUAL_TOL:
            errors.append(f"LP residual {res.residual} above {RESIDUAL_TOL}")
        disk = math.pi * p["radius"] ** 2
        lo, hi = self.BRACKET
        for label, fill in (("A", res.fill_a), ("B", res.fill_b)):
            if not lo * disk < fill <= hi * disk:
                errors.append(f"fill {label} = {fill} outside ({lo}, {hi}] * pi r^2")
        return errors

    def anchor(self, state):
        """Centre (0, 0), r = 0.5: the fine disk's fill against pi r^2."""
        p = {"center": (0.0, 0.0), "radius": 0.5}
        res = self.run(state, p)
        return abs(res.fill_b / (math.pi * 0.25) - 1.0), self.check(state, p, res)

    @staticmethod
    def digest(res):
        return (res.fill_a, res.fill_b, res.flat, res.residual)


# ---------------------------------------------------------------------------
# slice_shift: many small slice/annulus/flat-norm calls on a 4x4 grid


@dataclass
class ShiftResult:
    gap: float
    bound: float


class SliceShift(Workload):
    name = "slice_shift"
    NX = NY = 4
    ANCHOR = (0.4, 0.6)
    ANCHOR_TOL = 0.05

    def setup(self):
        C, T = grid_mesh(self.NX, self.NY)
        return {"C": C, "T": T, "rho": distance_function(C, 0)}

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 4])
        n = (self.NX + 1) * (self.NY + 1)
        while True:
            # criterion 9's perturbation: |f - rho| < delta at every vertex
            delta = float(rng.uniform(0.03, 0.12))
            noise = rng.uniform(-0.95 * delta, 0.95 * delta, size=n)
            yield {"delta": delta, "noise": noise, "radius": float(rng.uniform(0.4, 1.0))}

    def run(self, state, p):
        C, T, rho = state["C"], state["T"], state["rho"]
        r, delta = p["radius"], p["delta"]
        f = PLFunction(C, rho.values + p["noise"])
        s1 = slice_current(T, rho, r)
        f2 = s1.refinement.transfer_function(f)
        T2 = s1.refinement.transfer_current(T)
        s2 = slice_current(T2, f2, r)
        s1_on_K2 = s2.refinement.transfer_current(s1.current)
        bound = annulus_mass(T, rho, r - delta, r + delta) + annulus_mass(
            boundary(T), rho, r - delta, r + delta
        )
        gap = flat_distance(s1_on_K2, s2.current, s2.complex).value
        return ShiftResult(gap, bound)

    def check(self, state, p, res):
        if res.gap > res.bound + GAP_TOL:
            return [f"slice shift {res.gap} above annulus bound {res.bound}"]
        return []

    def anchor(self, state):
        """PL annulus area about the corner vertex against the exact
        quarter annulus pi/4 (b^2 - a^2); the annulus stays inside the square."""
        a, b = self.ANCHOR
        area = annulus_mass(state["T"], state["rho"], a, b)
        return abs(area / (math.pi / 4 * (b * b - a * a)) - 1.0), []

    @staticmethod
    def digest(res):
        return (res.gap, res.bound)


WORKLOADS = {w.name: w for w in (SphereSF(), TorusTetra(), ContinuityLP(), SliceShift())}
