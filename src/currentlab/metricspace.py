"""Finite metric spaces: validation, diameter, packing, Hausdorff and Gromov-Hausdorff bounds."""
from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass, fields

import numpy as np

METRIC_TOL = 1e-9
GH_EXACT_LIMIT = 7


class MetricError(ValueError):
    """A distance matrix violated the metric axioms."""


class ArgumentError(ValueError):
    """An operation received arguments outside its domain."""


class InvariantError(RuntimeError):
    """A computed result broke an inequality or identity that must hold."""


def as_integers(values, what) -> np.ndarray:
    """`values` (a number or nested lists) as an int64 array under the one
    integer rule of the input readers: every entry is an int or a float with
    an integer value (2.0), below 2**62 in absolute value.  Anything else,
    a bool, string, fraction or non-finite number, raises ArgumentError."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ArgumentError(f"{what} must be integers: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ArgumentError(f"{what} must be integers, got {reprlib.repr(values)}")
    real = arr.astype(float)
    bad = ~((np.abs(real) < 2.0**62) & (real == np.floor(real)))
    if bad.any():
        raise ArgumentError(f"{what} must be integers below 2**62 in absolute value, got {arr[bad][0].item()!r}")
    return arr.astype(np.int64)


def _json_value(value):
    """A report field as plain JSON values: arrays and sequences become lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


class Report:
    """Base of the report dataclasses: one JSON walk over their fields."""

    def to_json(self):
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class PackingReport(Report):
    """Greedy packing certificate: pairwise distances of centers are >= 2*radius."""

    radius: float
    count: int
    centers: tuple[int, ...]


class FiniteMetricSpace:
    """A finite metric space given by an n x n symmetric distance matrix.

    Validation checks that distances are finite, then symmetry, zero
    diagonal, nonnegativity and the triangle inequality to an absolute
    tolerance; the first offending entry or triple is reported.
    """

    def __init__(self, dist, labels=None, validate=True, tol=METRIC_TOL):
        dist = np.asarray(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise MetricError(f"distance matrix must be square, got shape {dist.shape}")
        self.dist = dist
        self.n = dist.shape[0]
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise MetricError("label count does not match matrix size")
        if validate:
            self.validate(tol)

    def validate(self, tol=METRIC_TOL):
        d = self.dist
        if self.n == 0:
            return
        _check_finite(d)
        bad = np.abs(np.diag(d)).argmax()
        if abs(d[bad, bad]) > tol:
            raise MetricError(f"nonzero diagonal at index {bad}: {d[bad, bad]}")
        asym = np.abs(d - d.T)
        if asym.max() > tol:
            i, j = np.unravel_index(asym.argmax(), asym.shape)
            raise MetricError(f"asymmetry at ({i},{j}): {d[i, j]} vs {d[j, i]}")
        if d.min() < -tol:
            i, j = np.unravel_index(d.argmin(), d.shape)
            raise MetricError(f"negative distance at ({i},{j}): {d[i, j]}")
        # triangle inequality, vectorized one intermediate point at a time
        for k in range(self.n):
            slack = d - (d[:, k][:, None] + d[None, k, :])
            worst = slack.max()
            if worst > tol:
                i, j = np.unravel_index(slack.argmax(), slack.shape)
                raise MetricError(
                    f"triangle inequality violated: d({i},{j})={d[i, j]} > "
                    f"d({i},{k})+d({k},{j})={d[i, k] + d[k, j]}"
                )

    @classmethod
    def from_points(cls, points, labels=None):
        """Euclidean metric on a point cloud (rows are points): a metric by
        construction, so only finiteness is checked."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        # huge or non-finite coordinates overflow to inf or nan here, which
        # _check_finite reports
        with np.errstate(over="ignore", invalid="ignore"):
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.sqrt((diff**2).sum(axis=-1))
        _check_finite(d)
        return cls(d, labels=labels, validate=False)


def _check_finite(d):
    if not np.isfinite(d).all():
        i, j = np.unravel_index(np.argmin(np.isfinite(d)), d.shape)
        raise MetricError(f"non-finite distance at ({i},{j}): {d[i, j]}")


def diameter(space: FiniteMetricSpace) -> float:
    """Largest pairwise distance; 0 for the empty and one-point space."""
    if space.n <= 1:
        return 0.0
    return float(space.dist.max())


def packing_number(space: FiniteMetricSpace, r: float) -> PackingReport:
    """Greedy maximal packing with balls of radius r.

    Deterministic: points are scanned in index order and a point becomes a
    center when it is at distance >= 2r from every center chosen so far.  The
    count is a lower bound on the true packing number.
    """
    if not r > 0:
        raise ArgumentError(f"packing radius must be positive, got {r}")
    centers: list[int] = []
    for i in range(space.n):
        if all(space.dist[i, c] >= 2 * r for c in centers):
            centers.append(i)
    return PackingReport(radius=r, count=len(centers), centers=tuple(centers))


def exhaustive_packing_number(space: FiniteMetricSpace, r: float, limit=12) -> PackingReport:
    """Exact maximum packing by subset enumeration; only for n <= limit."""
    if not r > 0:
        raise ArgumentError(f"packing radius must be positive, got {r}")
    if space.n > limit:
        raise ArgumentError(f"exhaustive packing limited to n <= {limit}")
    best: tuple[int, ...] = ()
    for size in range(space.n, 0, -1):
        for subset in itertools.combinations(range(space.n), size):
            ok = all(
                space.dist[a, b] >= 2 * r for a, b in itertools.combinations(subset, 2)
            )
            if ok:
                best = subset
                break
        if best:
            break
    return PackingReport(radius=r, count=len(best), centers=best)


def hausdorff_distance(space: FiniteMetricSpace, A, B) -> float:
    """Hausdorff distance between two nonempty vertex subsets within the space."""
    A = list(A)
    B = list(B)
    if not A or not B:
        raise ArgumentError("hausdorff_distance needs nonempty subsets")
    sub = space.dist[np.ix_(A, B)]
    return float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))


def _distortion_candidates(dx, dy):
    vals = np.abs(dx[:, :, None, None] - dy[None, None, :, :]).ravel()
    return np.unique(vals)


def _feasible(dx, dy, t, tol=1e-12):
    """Is there a correspondence with distortion <= t?

    A minimal correspondence is a union of two function graphs, so it is
    enough to pick one partner per left point and then cover leftover right
    points.  Backtracking with pairwise compatibility checks.
    """
    nx, ny = len(dx), len(dy)
    t = t + tol

    def compatible(pairs, i, k):
        for (j, l) in pairs:
            if abs(dx[i, j] - dy[k, l]) > t:
                return False
        return True

    def assign_left(i, pairs):
        if i == nx:
            covered = {l for (_, l) in pairs}
            return assign_right([l for l in range(ny) if l not in covered], pairs)
        for k in range(ny):
            if compatible(pairs, i, k):
                pairs.append((i, k))
                if assign_left(i + 1, pairs):
                    return True
                pairs.pop()
        return False

    def assign_right(todo, pairs):
        if not todo:
            return True
        l = todo[0]
        for i in range(nx):
            if compatible(pairs, i, l):
                pairs.append((i, l))
                if assign_right(todo[1:], pairs):
                    return True
                pairs.pop()
        return False

    return assign_left(0, [])


def gh_exact(X: FiniteMetricSpace, Y: FiniteMetricSpace) -> float:
    """Exact Gromov-Hausdorff distance via the minimal correspondence distortion.

    Searches the finite set of candidate distortion values with a feasibility
    check; the GH distance is half the smallest feasible distortion.
    """
    if X.n == 0 or Y.n == 0:
        raise ArgumentError("gh distance needs nonempty spaces")
    cands = _distortion_candidates(X.dist, Y.dist)
    lo, hi = 0, len(cands) - 1
    # cands[hi] is always feasible (pair everything with everything's partner)
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(X.dist, Y.dist, cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo]) / 2.0


def _greedy_correspondence_distortion(dx, dy):
    nx, ny = len(dx), len(dy)
    pairs: list[tuple[int, int]] = []

    def added_dis(i, k):
        worst = 0.0
        for (j, l) in pairs:
            worst = max(worst, abs(dx[i, j] - dy[k, l]))
        return worst

    for i in range(nx):
        k = min(range(ny), key=lambda k: (added_dis(i, k), k))
        pairs.append((i, k))
    covered = {l for (_, l) in pairs}
    for l in range(ny):
        if l not in covered:
            i = min(range(nx), key=lambda i: (added_dis(i, l), i))
            pairs.append((i, l))
    worst = 0.0
    for (i, k), (j, l) in itertools.combinations_with_replacement(pairs, 2):
        worst = max(worst, abs(dx[i, j] - dy[k, l]))
    return worst


def gh_bounds(X: FiniteMetricSpace, Y: FiniteMetricSpace, exact_limit: int = GH_EXACT_LIMIT):
    """Lower and upper bounds for the Gromov-Hausdorff distance.

    Exact when max(n_X, n_Y) <= exact_limit (then lower == upper); otherwise
    the upper bound comes from a greedy low-distortion correspondence and the
    lower bound from the diameter difference.
    """
    if X.n == 0 or Y.n == 0:
        raise ArgumentError("gh_bounds needs nonempty spaces")
    diam_lower = abs(diameter(X) - diameter(Y)) / 2.0
    if max(X.n, Y.n) <= exact_limit:
        exact = gh_exact(X, Y)
        return exact, exact
    upper = _greedy_correspondence_distortion(X.dist, Y.dist) / 2.0
    return diam_lower, upper


def load_distance_csv(path) -> FiniteMetricSpace:
    """Distance matrix CSV: n rows of n floats, optional leading label row.

    Cells that do not form a square, symmetric, zero-diagonal matrix raise
    ArgumentError (the file is not a distance matrix); such a matrix that
    breaks nonnegativity or the triangle inequality raises MetricError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise ArgumentError(f"empty distance file: {path}")
    cells = [r.split(",") for r in rows]
    labels = None
    try:
        float(cells[0][0])
    except ValueError:
        labels = [c.strip() for c in cells[0]]
        cells = cells[1:]
    n = len(cells)
    mat = np.zeros((n, n))
    for i, row in enumerate(cells):
        if len(row) != n:
            raise ArgumentError(f"ragged row {i}: expected {n} entries, got {len(row)}")
        for j, cell in enumerate(row):
            try:
                mat[i, j] = float(cell)
            except ValueError as exc:
                raise ArgumentError(f"bad float at row {i}, column {j}: {cell!r}") from exc
    if labels is not None and len(labels) != n:
        raise ArgumentError("label row length does not match matrix size")
    if n and max(np.abs(np.diag(mat)).max(), np.abs(mat - mat.T).max()) > METRIC_TOL:
        raise ArgumentError("not a distance matrix: nonzero diagonal or asymmetric")
    return FiniteMetricSpace(mat, labels=labels)


def load_points_csv(path) -> FiniteMetricSpace:
    """Point cloud CSV: one point per row, consistent dimension; Euclidean metric."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise ArgumentError(f"empty point file: {path}")
    pts = []
    width = None
    for i, row in enumerate(rows):
        parts = row.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ArgumentError(f"ragged row {i}: expected {width} coords, got {len(parts)}")
        try:
            pts.append([float(p) for p in parts])
        except ValueError as exc:
            raise ArgumentError(f"bad float in row {i}: {row!r}") from exc
    return FiniteMetricSpace.from_points(np.array(pts))
