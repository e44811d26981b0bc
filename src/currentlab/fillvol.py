"""Flat-norm and filling-volume optimization over chains.

Chain problems are weighted-L1 linear programs with split variables solved
by scipy's HiGHS; 0-dimensional fillings are solved exactly by a
successive-shortest-path min-cost flow.  Values computed inside a fixed
complex are upper bounds for the corresponding intrinsic quantities.

Planar closed forms replace the LP where the answer is known: on a complex
whose metric is Euclidean on two coordinate columns, a compactly supported
2-current is fixed by its boundary, with density the winding number w of
that boundary, and R^2 carries no 3-currents (constancy theorem, Federer
4.1.7).  So the filling volume of a 1-cycle C is the integral of |w_C|, and
the flat distance of two 2-currents S, T is M(S - T), the integral of
|w_{bd(S - T)}|.  Both are taken in the ambient R^2 by one slab sweep
(`_winding_integral`, method "winding"), not inside the complex.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, eye, hstack

from .complexes import EuclideanMetric, GeometricComplex
from .currents import SimplicialCurrent, boundary, mass
from .metricspace import ArgumentError, FiniteMetricSpace, InvariantError, Report, as_integers

INTEGRALITY_TOL = 1e-6
RESIDUAL_TOL = 1e-8
SWEEP_BLOCK = 1 << 16
"""Entries per block of the winding sweep's crossing test and slab arrays."""


@dataclass
class FillingReport(Report):
    """A filling volume or flat distance as the bracket lower_bound <= value
    <= upper_bound, checked when the report is built."""

    value: float
    lower_bound: float
    upper_bound: float
    certificate: dict = field(default_factory=dict)
    integral: bool = False
    method: str = "lp"
    residual: float = 0.0
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        self.check()

    @classmethod
    def exact(cls, value, method, certificate) -> FillingReport:
        """A value known exactly (a closed form or an exhaustive search): its
        own lower and upper bound, integral, with no LP residual."""
        return cls(value, value, value, certificate, integral=True, method=method, residual=0.0)

    def check(self):
        if not (self.lower_bound <= self.value + 1e-9 and self.value <= self.upper_bound + 1e-9):
            raise InvariantError(
                f"filling report bounds out of order: {self.lower_bound}, {self.value}, {self.upper_bound}"
            )


def boundary_matrix(C: GeometricComplex, k: int):
    """Sparse boundary operator from k-chains to (k-1)-chains: the
    complex's face-index array with signs (-1)^j."""
    faces = C.face_index(k)
    vals = np.tile(np.where(np.arange(k + 1) % 2, -1.0, 1.0), len(faces))
    cols = np.repeat(np.arange(len(faces)), k + 1)
    return coo_matrix((vals, (faces.ravel(), cols)), shape=(C.count(k - 1), C.count(k)))


def _chain_vector(T: SimplicialCurrent):
    v = np.zeros(T.complex.count(T.dim))
    v[T.idx] = T.coeff
    return v


def _solve_weighted_l1(blocks, rhs, weights):
    """min sum w_i |x_i| subject to A x = rhs, via split positive parts;
    (None, None) when HiGHS proves the program infeasible.  Any other
    failure (with nonnegative costs the program is never unbounded) is a
    solver fault and raises RuntimeError."""
    A = hstack([hstack([b, -b]) for b in blocks], format="csc")
    cost = np.concatenate([np.concatenate([w, w]) for w in weights])
    res = linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if res.status == 2:
        return None, None
    if not res.success:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    x = res.x
    parts = []
    offset = 0
    for b in blocks:
        m = b.shape[1]
        parts.append(x[offset : offset + m] - x[offset + m : offset + 2 * m])
        offset += 2 * m
    return float(res.fun), parts


def _certificate_from_vector(vec, tol=INTEGRALITY_TOL):
    rounded = np.round(vec)
    integral = bool(np.abs(vec - rounded).max(initial=0.0) <= tol)
    support = np.flatnonzero(np.abs(vec) > tol)
    cert = dict(zip(support.tolist(), vec[support].tolist()))
    return integral, cert


def _lp_report(blocks, rhs, weights, names, upper, infeasible) -> FillingReport:
    """Solve a weighted-L1 chain program and report its bracket.

    `names` labels each block's certificate, `upper` is the cost of a known
    feasible point and `infeasible` the input-error message when none exists.
    """
    value, parts = _solve_weighted_l1(blocks, rhs, weights)
    if value is None:
        raise ArgumentError(infeasible)
    residual = float(np.abs(sum(b @ x for b, x in zip(blocks, parts)) - rhs).max(initial=0.0))
    certs = [_certificate_from_vector(x) for x in parts]
    report = FillingReport(
        value=value,
        lower_bound=value,
        upper_bound=max(value, upper),
        certificate={name: cert for name, (_, cert) in zip(names, certs)},
        integral=all(integral for integral, _ in certs),
        method="lp",
        residual=residual,
    )
    if residual > RESIDUAL_TOL:
        report.warnings.append(f"LP residual {residual} above tolerance")
    return report


# ---------------------------------------------------------------------------
# planar closed forms: the winding-number integral


def planar_top(metric, m: int) -> bool:
    """Whether m-currents under `metric` are top-dimensional in the plane
    (m = 2, Euclidean on two coordinate columns): their fills and flat
    distances are then winding-number integrals over R^2, with no LP."""
    return m == 2 and isinstance(metric, EuclideanMetric) and metric.coords.shape[1] == 2


def _orient(p, q, r):
    """Twice the signed area of each triangle (p, q, r) of (n, 2) point arrays."""
    return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])


def _crossing_xs(lo, hi):
    """x of every proper crossing of two segments lo[i] -> hi[i] (lo x < hi x).

    Only pairs whose x-ranges overlap are tested: with segments sorted by
    left end, segment i meets the run of j > i whose left end lies left of
    its right end.  The flattened pair list is taken SWEEP_BLOCK pairs at a
    time.
    """
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order], hi[order]
    first = np.arange(1, len(lo) + 1)
    count = np.maximum(np.searchsorted(lo[:, 0], hi[:, 0], "left") - first, 0)
    offsets = np.concatenate([[0], np.cumsum(count)])
    xs = [np.zeros(0)]
    total = int(offsets[-1])
    for start in range(0, total, SWEEP_BLOCK):
        flat = np.arange(start, min(start + SWEEP_BLOCK, total))
        i = np.searchsorted(offsets, flat, "right") - 1
        j = first[i] + flat - offsets[i]
        j_sides = np.sign(_orient(lo[i], hi[i], lo[j])) * np.sign(_orient(lo[i], hi[i], hi[j]))
        d_lo = _orient(lo[j], hi[j], lo[i])
        d_hi = _orient(lo[j], hi[j], hi[i])
        proper = (j_sides < 0) & (np.sign(d_lo) * np.sign(d_hi) < 0)
        i, d_lo, d_hi = i[proper], d_lo[proper], d_hi[proper]
        xs.append(lo[i, 0] + d_lo / (d_lo - d_hi) * (hi[i, 0] - lo[i, 0]))
    return np.concatenate(xs)


def _winding_integral(C: SimplicialCurrent) -> float:
    """The integral over R^2 of |w_C| for a 1-cycle C on a planar complex.

    Vertical slab sweep.  Breakpoints are the x of every segment end and of
    every proper crossing, so inside a slab the spanning segments keep one
    order; sorted by y at the slab's midpoint, the winding number between
    neighbours is the sum of the signed coefficients above them (a segment
    directed right to left counts +c), and each gap is a trapezoid of area
    width times midpoint gap.  Vertical and zero-length segments span no
    slab (their ends share one breakpoint).  The slab x segment incidences are taken in runs of whole slabs
    holding at most SWEEP_BLOCK entries (one slab may exceed it alone).
    """
    pts = C.complex.metric.coords
    ends = C.complex.simplex_array(1)[C.idx]
    a, b = pts[ends[:, 0]], pts[ends[:, 1]]
    flip = a[:, 0] > b[:, 0]
    lo = np.where(flip[:, None], b, a)
    hi = np.where(flip[:, None], a, b)
    sign = np.where(flip, C.coeff, -C.coeff)
    X = np.unique(np.concatenate([lo[:, 0], hi[:, 0], _crossing_xs(lo, hi)]))
    kl = np.searchsorted(X, lo[:, 0])
    kr = np.searchsorted(X, hi[:, 0])
    n_slabs = max(len(X) - 1, 0)
    cover = np.cumsum(np.bincount(kl, minlength=len(X)) - np.bincount(kr, minlength=len(X)))[:n_slabs]
    cum = np.concatenate([[0], np.cumsum(cover)])
    total = 0.0
    k0 = 0
    while k0 < n_slabs:
        k1 = max(int(np.searchsorted(cum, cum[k0] + SWEEP_BLOCK, "right")) - 1, k0 + 1)
        sel = np.flatnonzero((kl < k1) & (kr > k0))
        start = np.maximum(kl[sel], k0)
        reps = np.minimum(kr[sel], k1) - start
        seg = np.repeat(sel, reps)
        slab = np.repeat(start - np.cumsum(reps) + reps, reps) + np.arange(len(seg))
        mid = 0.5 * (X[slab] + X[slab + 1])
        l, h = lo[seg], hi[seg]
        y = l[:, 1] + (h[:, 1] - l[:, 1]) * ((mid - l[:, 0]) / (h[:, 0] - l[:, 0]))
        order = np.lexsort((y, slab))
        slab, y, s = slab[order], y[order], sign[seg[order]]
        cs = np.cumsum(s)
        above = cs[np.searchsorted(slab, slab, "right") - 1] - cs  # coefficients above each segment
        gap = slab[1:] == slab[:-1]
        width = X[slab[:-1] + 1] - X[slab[:-1]]
        total += float(np.sum((width * np.abs(above[:-1]) * (y[1:] - y[:-1]))[gap]))
        k0 = k1
    return total


def flat_distance(S: SimplicialCurrent, T: SimplicialCurrent, K: GeometricComplex | None = None) -> FillingReport:
    """Flat distance between same-dimensional currents in a common complex.

    Minimizes M(U) + M(V) over real chains with S - T = U + bd(V); reports
    whether the relaxation came out integral.  The value is an upper bound
    for the intrinsic flat distance realized inside this complex.

    For 2-currents on a complex whose metric is Euclidean on two coordinate
    columns there is no LP and K needs no 3-simplices: R^2 carries no
    3-currents, so the flat distance in the ambient R^2 is M(S - T), the
    integral of the winding number of bd(S - T) (method "winding",
    certificate U = S - T, V = {}).  It is at most the in-complex LP optimum
    and, R^2 being a common isometric embedding, still an upper bound for
    the intrinsic flat distance.
    """
    if K is None:
        K = S.complex
    if S.complex is not K or T.complex is not K:
        raise ArgumentError("flat_distance needs both currents on the ambient complex")
    if S.dim != T.dim:
        raise ArgumentError("flat_distance needs currents of equal dimension")
    m = S.dim
    if planar_top(K.metric, m):
        U = S - T
        cert_u = dict(zip(U.idx.tolist(), U.coeff.astype(float).tolist()))
        return FillingReport.exact(_winding_integral(boundary(U)), "winding", {"U": cert_u, "V": {}})
    if m + 1 not in K.dims:
        raise ArgumentError(f"ambient complex has no {m + 1}-simplices")
    rhs = _chain_vector(S) - _chain_vector(T)
    ident = eye(K.count(m), format="coo")
    D = boundary_matrix(K, m + 1)
    trivial_upper = float(K.masses(m) @ np.abs(rhs))
    return _lp_report(
        [ident, D], rhs, [K.masses(m), K.masses(m + 1)], ["U", "V"], trivial_upper,
        "flat distance LP infeasible",
    )


def cone_bound(B: SimplicialCurrent) -> float:
    """Diameter times boundary mass: an upper bound for the minimal filling."""
    verts = B.support_vertices()
    if not verts:
        return 0.0
    metric = B.complex.metric
    diam = max((float(metric.dist(a, verts[i + 1 :]).max()) for i, a in enumerate(verts[:-1])), default=0.0)
    return diam * mass(B)


def filling_volume(B: SimplicialCurrent, K: GeometricComplex | None = None) -> FillingReport:
    """Minimal mass of a chain with boundary B, within the complex.

    B must be a cycle.  The LP optimum is exact for real chains, hence a
    lower bound for integer fillings in this complex and an upper bound for
    the intrinsic filling volume.  The zero cycle is filled by the zero
    chain with no LP (method "zero").

    For a 1-cycle on a complex whose metric is Euclidean on two coordinate
    columns there is no LP: the filling is taken in the ambient R^2, where
    a 2-current is fixed by its boundary, so the value is the integral of
    |w_B| for the winding number w_B (method "winding", no K-chain
    certificate).  It is at most the in-complex LP optimum, equals it
    whenever K holds the filling, and is still an upper bound for the
    intrinsic filling volume; a cycle that bounds in R^2 but not in K gets
    its R^2 value instead of an infeasibility error.
    """
    if K is None:
        K = B.complex
    if B.complex is not K:
        raise ArgumentError("cycle must live on the ambient complex")
    res = boundary(B)
    if not res.is_zero():
        residual = dict(zip(res.idx.tolist(), res.coeff.tolist()))
        raise ArgumentError(f"filling_volume input is not a cycle; boundary residual {residual}")
    k = B.dim
    if B.is_zero():
        return FillingReport.exact(0.0, "zero", {"S": {}})
    if k + 1 not in K.dims:
        raise ArgumentError(f"ambient complex has no {k + 1}-simplices")
    if planar_top(K.metric, k + 1):
        return FillingReport.exact(_winding_integral(B), "winding", {})
    D = boundary_matrix(K, k + 1)
    rhs = _chain_vector(B)
    return _lp_report(
        [D], rhs, [K.masses(k + 1)], ["S"], cone_bound(B),
        "filling LP infeasible: cycle does not bound in this complex",
    )


def exhaustive_flat_distance(
    S: SimplicialCurrent, T: SimplicialCurrent, K: GeometricComplex | None = None, bound=2
) -> FillingReport:
    """Exact integer flat distance by enumerating V-coefficients in a box.

    Enumeration is vectorized but exponential in the number of top
    simplices; intended as an oracle on instances with at most a dozen
    simplices.
    """
    if K is None:
        K = S.complex
    m = S.dim
    D = boundary_matrix(K, m + 1).toarray()
    n_v = D.shape[1]
    if n_v > 8:
        raise ArgumentError("exhaustive search limited to 8 top simplices")
    rhs = _chain_vector(S) - _chain_vector(T)
    w_u = K.masses(m)
    w_v = K.masses(m + 1)
    grids = np.meshgrid(*([np.arange(-bound, bound + 1)] * n_v), indexing="ij")
    V = np.stack([g.ravel() for g in grids], axis=1) if n_v else np.zeros((1, 0))
    U = rhs[None, :] - V @ D.T
    costs = np.abs(U) @ w_u + np.abs(V) @ w_v
    best = int(np.argmin(costs))
    value = float(costs[best])
    cert_v = {int(i): float(v) for i, v in enumerate(V[best]) if v}
    cert_u = {int(i): float(u) for i, u in enumerate(U[best]) if u}
    return FillingReport.exact(value, "exhaustive", {"U": cert_u, "V": cert_v})


# ---------------------------------------------------------------------------
# 0-dimensional fillings: exact transport


def _min_cost_flow(costs, supply, demand):
    """Successive shortest augmenting paths on a dense bipartite graph.

    costs[i][j] >= 0; integer supplies and demands with equal totals.
    Shortest residual paths via Bellman-Ford (reverse arcs carry negative
    cost).  Returns (total_cost, {(i, j): units}).
    """
    ns, nd = costs.shape
    supply = [int(s) for s in supply]
    demand = [int(d) for d in demand]
    flow = np.zeros((ns, nd), dtype=int)
    remaining = sum(supply)
    INF = float("inf")
    while remaining > 0:
        dist = [0.0 if i < ns and supply[i] > 0 else INF for i in range(ns + nd)]
        parent: list[int | None] = [None] * (ns + nd)
        for _ in range(ns + nd):
            improved = False
            for i in range(ns):
                if dist[i] == INF:
                    continue
                for j in range(nd):
                    cand = dist[i] + costs[i, j]
                    if cand < dist[ns + j] - 1e-15:
                        dist[ns + j] = cand
                        parent[ns + j] = i
                        improved = True
            for j in range(nd):
                if dist[ns + j] == INF:
                    continue
                for i in range(ns):
                    if flow[i, j] > 0:
                        cand = dist[ns + j] - costs[i, j]
                        if cand < dist[i] - 1e-15:
                            dist[i] = cand
                            parent[i] = ns + j
                            improved = True
            if not improved:
                break
        sink, best = None, INF
        for j in range(nd):
            if demand[j] > 0 and dist[ns + j] < best:
                sink, best = j, dist[ns + j]
        if sink is None:
            raise ArgumentError("transport problem infeasible")
        # walk back to an originating source, collecting arcs and bottleneck
        path = []
        node = ns + sink
        bottleneck = demand[sink]
        while True:
            prev = parent[node]
            if node >= ns:
                if prev is None:
                    raise ArgumentError("transport path reconstruction failed")
                path.append(("fwd", prev, node - ns))
                node = prev
                if parent[node] is None:
                    break
            else:
                path.append(("rev", node, prev - ns))
                bottleneck = min(bottleneck, int(flow[node, prev - ns]))
                node = prev
        source = node
        bottleneck = min(bottleneck, supply[source])
        for kind, i, j in path:
            if kind == "fwd":
                flow[i, j] += bottleneck
            else:
                flow[i, j] -= bottleneck
        supply[source] -= bottleneck
        demand[sink] -= bottleneck
        remaining -= bottleneck
    total = float((flow * costs).sum())
    return total, {(i, j): int(flow[i, j]) for i in range(ns) for j in range(nd) if flow[i, j] > 0}


def filling_volume_0d(space, theta, sigma, point_ids=None) -> FillingReport:
    """Exact minimal transport between the positive and negative atoms.

    `space` is a FiniteMetricSpace (or complex metric) carrying the ground
    distance; theta are positive integer weights and sigma their signs, one
    per point of the space, or per entry of `point_ids` when it is given.
    The signed weights must cancel.  The transport value is realizable by
    geodesic segments, hence an upper bound on the minimal filling mass; the
    reported lower bound is max_j theta_j * min_{i != j} d(p_i, p_j).
    """
    try:
        theta, sigma = as_integers(theta, "weights"), as_integers(sigma, "signs")
    except ArgumentError as exc:
        raise ArgumentError(f"weights must be positive integers and signs +1 or -1 ({exc})") from None
    if theta.ndim != 1 or (theta <= 0).any():
        raise ArgumentError("weights must be positive integers")
    if sigma.ndim != 1 or not np.isin(sigma, (-1, 1)).all():
        raise ArgumentError("signs must be +1 or -1")
    theta, sigma = theta.tolist(), sigma.tolist()
    ids = list(range(space.n)) if point_ids is None else list(point_ids)
    if not len(theta) == len(sigma) == len(ids):
        raise ArgumentError(f"need one weight and sign per point: got {len(theta)}, {len(sigma)} for {len(ids)}")
    if sum(t * s for t, s in zip(theta, sigma)) != 0:
        raise ArgumentError("signed weights must sum to zero")
    n = len(theta)
    if isinstance(space, FiniteMetricSpace):
        dist = lambda a, b: float(space.dist[a, b])
    else:
        dist = space.dist
    if n == 0:
        return FillingReport.exact(0.0, "transport", {"flow": []})
    pos = [k for k in range(n) if sigma[k] > 0]
    neg = [k for k in range(n) if sigma[k] < 0]
    costs = np.array([[dist(ids[i], ids[j]) for j in neg] for i in pos])
    value, flow = _min_cost_flow(costs, [theta[i] for i in pos], [theta[j] for j in neg])
    lower = 0.0
    for j in range(n):
        nearest = min(dist(ids[j], ids[i]) for i in range(n) if i != j) if n > 1 else 0.0
        lower = max(lower, theta[j] * nearest)
    cert = [[ids[pos[a]], ids[neg[b]], int(f)] for (a, b), f in sorted(flow.items())]
    report = FillingReport(
        value=value,
        lower_bound=min(lower, value),
        upper_bound=value,
        certificate={"flow": cert},
        integral=True,
        method="transport",
    )
    if lower > value + 1e-9:
        report.warnings.append(f"atom lower bound {lower} exceeds transport value {value}")
    return report


def fillvol_continuity_gap(M1: SimplicialCurrent, M2: SimplicialCurrent, K: GeometricComplex | None = None):
    """Gap between filling volumes of the boundaries against the flat distance.

    Returns (gap, bound), gap = |FillVol(bd M1) - FillVol(bd M2)| and bound =
    flat_distance(M1, M2) in K (default M1's complex); gap <= bound in a common
    complex, as a filling of one boundary plus the flat-norm decomposition
    fills the other, and a gap above bound + 1e-6 raises InvariantError.
    """
    f1 = filling_volume(boundary(M1), K)
    f2 = filling_volume(boundary(M2), K)
    gap = abs(f1.value - f2.value)
    bound = flat_distance(M1, M2, K).value
    if gap > bound + 1e-6:
        raise InvariantError(f"continuity gap {gap} exceeds flat distance {bound}")
    return gap, bound
