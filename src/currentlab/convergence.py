"""Constructed sequence families, common embeddings, and convergence sweeps.

Both members of a pair are placed in one explicitly constructed common
complex (disjoint union glued through a correspondence), and every asserted
inequality compares quantities computed in one ambient.  In glue mode, and
for any dimension other than top-dimensional currents in the plane, that
ambient is the complex itself, the quantities are its LP optima, and the
complex carries connector prisms (and, in natural mode, cone fillers) as
the LPs' (m+1)-simplices.  In planar natural mode (2-currents with
Euclidean coordinates in R^2) the filling volumes and the flat distance are
taken in the ambient R^2 in closed form (see `fillvol`), so the joined
complex is just the two meshes, with no (m+1)-simplices; the values are at
most the in-complex optima, and R^2 being a common isometric embedding,
every reported distance is still an upper bound for the intrinsic one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import (
    EuclideanMetric,
    GeometricComplex,
    MatrixMetric,
    cayley_menger,
    distance_function,
)
from .currents import boundary, mass, push_forward
from .fillvol import filling_volume, fillvol_continuity_gap, planar_top
from .metricspace import ArgumentError, FiniteMetricSpace
from .meshes import add_spikes, disk_mesh, full_torus_mesh, nearest_vertex, sphere_mesh
from .product import interval_filling_volume, staircase
from .slicing import subdivide_at_level
from .slicedfill import ball_context, sliced_fill, sliced_interval_fill

SEMICONTINUITY_TOL = 1e-9  # absolute slack of the mass and diameter checks
TRIVIAL_REL = 1e-9  # a pair bound is informative below (1 - TRIVIAL_REL) * (M(A) + M(B))
# quantity -> the params `continuity_sweep` reads for it, each from its caller
SWEEP_PARAMS = {"fillvol": "radius", "sf": "radius grid", "ifv": "epsilon", "sif": "radius epsilon"}


@dataclass
class SequenceFamily:
    name: str
    schedule: list
    generator: object
    expected_limit: tuple | None = None
    meta: dict = field(default_factory=dict)
    center: tuple = (0.0, 0.0)

    def members(self):
        return [self.generator(p) for p in self.schedule]


def build_family(name: str, schedule) -> SequenceFamily:
    """Deterministic example families.

    refined_disk: mesh sizes h, flat unit disks.
    refined_sphere: latitude counts, geodesic unit spheres.
    sphere_splines: spike counts j, Euclidean sphere with j thin fins of
        width 1/j^2; the limit member is the bare sphere.
    thin_torus: eps values, flat 3-torus with circumferences
        (2 pi, 2 pi, 2 eps).

    Each family's `center` is its default ball centre in its own
    coordinates: the north pole for the spheres, the origin otherwise.
    """
    schedule = list(schedule)
    if not schedule:
        raise ArgumentError("schedule must be nonempty")
    if not all(math.isfinite(x) and x > 0 for x in schedule):
        raise ArgumentError(f"schedule values must be finite and positive, got {schedule}")
    if name in ("refined_sphere", "sphere_splines") and not all(float(x).is_integer() for x in schedule):
        raise ArgumentError(f"{name} schedule values must be integers, got {schedule}")
    if name == "refined_disk":
        gen = lambda h: disk_mesh(h=h)
        return SequenceFamily(name, schedule, gen, expected_limit=gen(min(schedule)))
    if name == "refined_sphere":
        gen = lambda n: sphere_mesh(int(n), 2 * int(n))
        return SequenceFamily(
            name, schedule, gen, expected_limit=gen(max(schedule)), center=(0.0, 0.0, 1.0)
        )
    if name == "sphere_splines":
        base = sphere_mesh(16, 32, metric="euclidean")
        tips: dict = {}
        base_pts: dict = {}

        def gen(j):
            j = int(j)
            C, T, tip_ids, base_ids = add_spikes(base[0], base[1], j, width=1.0 / j**2)
            tips[j] = tip_ids
            base_pts[j] = base_ids
            return C, T

        fam = SequenceFamily(name, schedule, gen, expected_limit=base, center=(0.0, 0.0, 1.0))
        fam.meta["tips"] = tips
        fam.meta["bases"] = base_pts
        return fam
    if name == "thin_torus":
        gen = lambda eps: full_torus_mesh(eps, cells=(6, 6, 4))
        return SequenceFamily(name, schedule, gen, expected_limit=None, center=(0.0, 0.0, 0.0))
    raise ArgumentError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------
# common embeddings


@dataclass
class CommonEmbedding:
    """How two complexes share one ambient: the glued finite metric space,
    or None when the ambient is their shared Euclidean space.  A's vertices
    come first in the ambient, then B's, each in its own order."""

    ambient: FiniteMetricSpace | None
    correspondence: list[tuple[int, int]]
    delta: float
    distortion: float


def _full_matrix(metric):
    mat = np.array([metric.row(i) for i in range(metric.n)])
    return 0.5 * (mat + mat.T)


def nearest_vertex_correspondence(CA: GeometricComplex, CB: GeometricComplex):
    """Match every vertex of each complex with its nearest in the other:
    (a, nearest b) by a, then each new (nearest a, b) by b; ties go low."""
    pa = CA.coords()
    pb = CB.coords()
    if pa is None or pb is None:
        raise ArgumentError("nearest-vertex matching needs coordinates")
    dist = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    to_b, to_a = dist.argmin(axis=1), dist.argmin(axis=0)
    pairs = list(enumerate(to_b.tolist()))
    new = np.flatnonzero(to_b[to_a] != np.arange(len(pb)))
    return pairs + list(zip(to_a[new].tolist(), new.tolist()))


def common_embed(CA: GeometricComplex, CB: GeometricComplex, correspondence=None, delta=None) -> CommonEmbedding:
    """Glue two vertex metrics through a correspondence.

    Cross distances are inf over matched pairs (x, y) of
    d_A(a, x) + delta + d_B(y, b); delta below half the correspondence
    distortion is rejected.  The glued matrix is then a metric (Burago-Burago-
    Ivanov, Thm 7.3.25) and is not re-validated; a `MatrixMetric` block,
    being outside data, is validated before gluing.
    """
    DA = _full_matrix(CA.metric)
    DB = _full_matrix(CB.metric)
    for C, D in ((CA, DA), (CB, DB)):
        if isinstance(C.metric, MatrixMetric):
            FiniteMetricSpace(D)
    if correspondence is None:
        correspondence = nearest_vertex_correspondence(CA, CB)
    pairs = list(correspondence)
    if not pairs:
        raise ArgumentError("correspondence must be nonempty")
    xs, ys = np.array(pairs, dtype=np.intp).T
    sub = np.abs(DA[np.ix_(xs, xs)] - DB[np.ix_(ys, ys)])
    dis = float(sub.max())
    if delta is None:
        delta = dis / 2.0 + 1e-9
    if delta < dis / 2.0:
        raise ArgumentError(f"delta {delta} below half the correspondence distortion {dis / 2}")
    na, nb = len(DA), len(DB)
    # min over x's pairs (x, y) of d_B(y, .) first: rounding is monotone, so bit-identical
    order = np.argsort(xs, kind="stable")
    ux, first = np.unique(xs[order], return_index=True)
    h = np.minimum.reduceat(DB[ys[order]], first, axis=0)
    cross = np.full((na, nb), np.inf)
    for x, hx in zip(ux, h):
        np.minimum(cross, (DA[:, x] + delta)[:, None] + hx[None, :], out=cross)
    return CommonEmbedding(
        ambient=FiniteMetricSpace(np.block([[DA, cross], [cross.T, DB]]), validate=False),
        correspondence=pairs,
        delta=delta,
        distortion=dis,
    )


def joined_complex(CA, TA, CB, TB):
    """One complex containing both meshes, plus the fillers its LPs need.

    Returns (K, TA_in_K, TB_in_K, embedding, dropped).  In natural mode
    (whenever both meshes carry Euclidean coordinates in the same space) the
    ambient is the shared Euclidean space (`embedding.ambient` is None, as
    distances are read from the coordinates) and every injection is exactly
    isometric.  For top-dimensional currents in the plane
    (`fillvol.planar_top`) K is just the disjoint union of the two meshes:
    their fills and flat distance are winding integrals over R^2 that read
    no (m+1)-simplex.  Otherwise K also carries connector prisms between
    matched simplices and, in natural mode, cone fillers from vertex 0 over
    every top simplex, so the flat-norm and filling LPs have (m+1)-chains
    to work with (genuine Euclidean simplices, of zero volume when the
    meshes are coplanar).  Otherwise, in glue mode, the two vertex metrics
    are joined through `common_embed`'s nearest-vertex correspondence at its
    least admissible delta; the glued metric is
    degenerate across the seam, so cross prisms that fail flat
    realizability are dropped (they never carry the input currents).
    """
    pa, pb = CA.coords(), CB.coords()
    natural = (
        pa is not None
        and pb is not None
        and isinstance(CA.metric, EuclideanMetric)
        and isinstance(CB.metric, EuclideanMetric)
        and pa.shape[1] == pb.shape[1]
    )
    na = CA.n_vertices
    if natural:
        metric = EuclideanMetric(np.vstack([pa, pb]))
        emb = CommonEmbedding(
            ambient=None,
            correspondence=nearest_vertex_correspondence(CA, CB),
            delta=0.0,
            distortion=0.0,
        )
    else:
        emb = common_embed(CA, CB)
        metric = MatrixMetric(emb.ambient.dist)
    dim = CA.top_dim
    dropped = 0
    if natural and planar_top(metric, dim):  # the disjoint union of the meshes, no fillers
        dims = set(CA.dims) | set(CB.dims)
        K = GeometricComplex(
            metric, {k: np.vstack([CA.simplex_array(k), CB.simplex_array(k) + na]) for k in dims}
        )
    else:
        ra, rb = CA.simplex_array(dim), CB.simplex_array(CB.top_dim) + na
        pairs = np.array(emb.correspondence, dtype=np.intp).reshape(-1, 2)
        matched, first = np.unique(pairs[:, 0], return_index=True)
        image = np.full(na, -1)
        image[matched] = pairs[first, 1]  # the first b listed for each a
        covered = (image[ra] >= 0).all(axis=1)
        prisms = np.sort(staircase(ra[covered], image[ra[covered]] + na).reshape(-1, dim + 2), axis=1)
        prisms = prisms[(prisms[:, 1:] != prisms[:, :-1]).all(axis=1)]
        # prisms whose distances are not flat-realizable are left out
        bad = cayley_menger(metric.pairwise_sq(prisms))[1]
        fillers = [prisms[~bad]]
        dropped = int(bad.sum())
        if natural:
            # cone fillers from one apex over every top simplex: genuine
            # Euclidean simplices, so any top-dimensional cycle bounds in K
            # at its honest ambient cost
            apex = 0
            for rows in (ra[(ra != apex).all(axis=1)], rb):
                fillers.append(np.hstack([np.full((len(rows), 1), apex), rows]))
        K = GeometricComplex.from_top_simplices(metric, ra, rb, *fillers)
    TA_K = push_forward(TA, list(range(na)), K)
    TB_K = push_forward(TB, [v + na for v in range(CB.n_vertices)], K)
    return K, TA_K, TB_K, emb, dropped


def matched_balls(K, TA_K, TB_K, pa, pb, r):
    """Both currents restricted to open balls, on one shared refinement of K:
    ball A is the sublevel set of the cut at rho_a = r, ball B that of the
    cut at rho_b = r made after it.

    Returns (ball_A, ball_B) living on the same complex.
    """
    ref_a = subdivide_at_level(K, distance_function(K, pa).values, r)
    ball_a = ref_a.transfer_current(TA_K).restricted(ref_a.below(TA_K.dim))
    ref_b = subdivide_at_level(ref_a.complex, ref_a.transfer_function(distance_function(K, pb)).values, r)
    ball_b = ref_b.transfer_current(ref_a.transfer_current(TB_K)).restricted(ref_b.below(TB_K.dim))
    return ref_b.transfer_current(ball_a), ball_b


# ---------------------------------------------------------------------------
# reports


def diameter_of(C: GeometricComplex) -> float:
    worst = 0.0
    for i in range(C.n_vertices):
        worst = max(worst, float(np.max(C.metric.row(i))))
    return worst


def semicontinuity_report(family: SequenceFamily) -> dict:
    """Mass and diameter along the schedule against the expected limit."""
    if family.expected_limit is None:
        raise ArgumentError("semicontinuity report needs an expected limit")
    CL, TL = family.expected_limit
    limit_mass = mass(TL)
    limit_diam = diameter_of(CL)
    rows = []
    for param in family.schedule:
        C, T = family.generator(param)
        m = mass(T)
        d = diameter_of(C)
        rows.append(
            {
                "param": param,
                "mass": m,
                "diameter": d,
                "mass_ok": bool(m >= limit_mass - SEMICONTINUITY_TOL),
                "diameter_ok": bool(d >= limit_diam - SEMICONTINUITY_TOL),
            }
        )
    last = rows[-1]
    return {
        "family": family.name,
        "limit_mass": limit_mass,
        "limit_diameter": limit_diam,
        "rows": rows,
        "passed": bool(last["mass_ok"] and last["diameter_ok"]),
    }


def _member_value(C, T, quantity, params, center):
    if quantity == "ifv":
        return interval_filling_volume(T, float(params["epsilon"])).value
    r = params["radius"]
    p = nearest_vertex(C, center)
    if quantity == "fillvol":
        ctx = ball_context(T, p, r, level_set=False)
        return filling_volume(boundary(ctx.current), ctx.complex).value
    if quantity == "sf":
        wp = params.get("witness_point")
        witnesses = None if wp is None else [nearest_vertex(C, wp)]  # None: sliced_fill's default witness
        return sliced_fill(T, p, r, witnesses=witnesses, grid=int(params["grid"])).integral
    # sif: without witnesses the level box has no axes, so no grid is read
    return sliced_interval_fill(T, p, r, witnesses=None, epsilon=float(params["epsilon"])).integral


def continuity_sweep(family: SequenceFamily, quantity: str, params: dict) -> dict:
    """Quantity per member plus gap-versus-bound checks on consecutive pairs.

    `params` gives every value its quantity reads (`SWEEP_PARAMS`); sf also
    takes an optional "witness_point", and searches the discrete sphere
    without one.  There are no defaults here: the caller owns them.

    For the fillvol quantity, consecutive members are joined in a common
    complex, matched balls are cut on one shared refinement, and
    `fillvol_continuity_gap` checks the gap against their flat distance in one
    ambient (the complex, or R^2 for planar natural mode).  A row whose bound
    is not below the trivial M(ball_a) + M(ball_b) cannot fail.
    """
    if quantity not in SWEEP_PARAMS:
        raise ArgumentError(f"unknown quantity {quantity!r}")
    for name in SWEEP_PARAMS[quantity].split():
        if params.get(name) is None:
            raise ArgumentError(f"continuity_sweep of {quantity} needs params[{name!r}]")
    members = family.members()
    values = [_member_value(C, T, quantity, params, family.center) for (C, T) in members]
    rows = [{"param": prm, "value": v} for prm, v in zip(family.schedule, values)]
    checks = []
    if quantity == "fillvol" and len(members) > 1:
        r = params["radius"]
        for (CA, TA), (CB, TB) in zip(members, members[1:]):
            K, TA_K, TB_K, emb, _ = joined_complex(CA, TA, CB, TB)
            pa = nearest_vertex(CA, family.center)
            pb = nearest_vertex(CB, family.center) + CA.n_vertices
            ball_a, ball_b = matched_balls(K, TA_K, TB_K, pa, pb, r)
            gap, bound = fillvol_continuity_gap(ball_a, ball_b, ball_a.complex)
            trivial = mass(ball_a) + mass(ball_b)
            checks.append(
                {
                    "gap": gap,
                    "bound": bound,
                    "delta": emb.delta,
                    "trivial": trivial,
                    "informative": bool(bound < (1.0 - TRIVIAL_REL) * trivial),
                }
            )
    return {
        "family": family.name,
        "quantity": quantity,
        "rows": rows,
        "pair_checks": checks,
    }
