"""Triangulations of the station domain and piecewise-linear basis evaluation.

The mesh uses the input sites as initial nodes and inserts circumcenters
(Ruppert style) until every triangle meets the minimum-angle and
maximum-edge constraints.  The domain is never extended: refinement points
stay inside the convex hull of the inputs, with hull-edge midpoints used
when a circumcenter would fall outside.

Each refinement step is one array scan: encroachment is a (points ×
segments) broadcast and the worst triangle comes from one pass giving every
triangle's minimum angle and longest edge.  All dot products and norms go
through `np.vecdot`, which reduces each 2-vector with the same BLAS `ddot`
as `np.dot` on a single pair, so every comparison (and every near-tie
between equal angles) is decided on the same bits as the point-by-point
loop in `tests/oracles.ruppert_reference`.  An elementwise u0*v0 + u1*v1
rounds differently and would flip near-ties.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.spatial import ConvexHull, Delaunay

from .data import Location

_DEDUP_TOL_KM = 1e-9


class MeshRefinementError(RuntimeError):
    pass


@dataclass
class Mesh:
    """Triangulation with counter-clockwise triangles covering the site hull."""

    vertices: np.ndarray          # (K, 2) km
    triangles: np.ndarray         # (T, 3) vertex indices, CCW
    boundary: np.ndarray          # (B, 2) hull edge vertex pairs

    _bary_transform: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * np.abs(_cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))

    def min_angles_deg(self) -> np.ndarray:
        return _triangle_quality(self.vertices, self.triangles)[0]

    def bary_transform(self) -> np.ndarray:
        """Per-triangle 3x3 maps from (x, y, 1) to barycentric weights."""
        if self._bary_transform is None:
            M = np.ones((len(self.triangles), 3, 3))
            M[:, :2, :] = self.vertices[self.triangles].transpose(0, 2, 1)
            self._bary_transform = np.linalg.inv(M)
        return self._bary_transform

    def to_json(self) -> str:
        return json.dumps(
            {
                "vertices": [[float(x), float(y)] for x, y in self.vertices],
                "triangles": [[int(i), int(j), int(k)] for i, j, k in self.triangles],
            },
            indent=None,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Mesh":
        obj = json.loads(text)
        vertices = np.asarray(obj["vertices"], dtype=float)
        triangles = np.asarray(obj["triangles"], dtype=int)
        return cls(vertices, triangles, _boundary_edges(triangles))


@dataclass
class Projector:
    """Sparse basis-evaluation matrix: row i holds the (≤3) barycentric
    weights of query point i with respect to the mesh vertices."""

    matrix: sp.csr_matrix

    @property
    def shape(self):
        return self.matrix.shape

    def __matmul__(self, other):
        return self.matrix @ other


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _triangle_quality(vertices: np.ndarray, triangles: np.ndarray):
    """Smallest interior angle (degrees) and longest edge of every triangle."""
    p = vertices[triangles]
    u = p[:, [1, 2, 0]] - p
    v = p[:, [2, 0, 1]] - p
    nu = np.sqrt(np.vecdot(u, u))
    cosang = np.vecdot(u, v) / (nu * np.sqrt(np.vecdot(v, v)))
    angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return angles.min(axis=1), nu.max(axis=1)


def _encroached(points: np.ndarray, segments: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """(P, S) mask: point p lies strictly inside the diametral circle of
    segment s (vertex indices into vertices)."""
    u, v = vertices[segments[:, 0]], vertices[segments[:, 1]]
    mid = 0.5 * (u + v)
    r2 = 0.25 * np.vecdot(v - u, v - u)
    d = points[:, None, :] - mid[None, :, :]
    return np.vecdot(d, d) < r2 * (1.0 - 1e-12)


def _circumcenter(pts: np.ndarray) -> np.ndarray:
    a, b, c = pts
    d = 2.0 * _cross2(b - a, c - a)
    if abs(d) < 1e-300:
        raise MeshRefinementError("degenerate triangle in refinement")
    ux = ((np.dot(b - a, b - a)) * (c - a)[1] - (np.dot(c - a, c - a)) * (b - a)[1]) / d
    uy = ((np.dot(c - a, c - a)) * (b - a)[0] - (np.dot(b - a, b - a)) * (c - a)[0]) / d
    return a + np.array([ux, uy])


def _boundary_edges(triangles: np.ndarray) -> np.ndarray:
    edges = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    unique, counts = np.unique(edges, axis=0, return_counts=True)
    return unique[counts == 1].astype(int)


def _orient_ccw(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = vertices[triangles]
    flip = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) < 0
    out = triangles.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _point_on_segment(p, u, v, tol=1e-9):
    """Does p (one point, or each of a stack) lie inside the segment u-v?"""
    uv = v - u
    length2 = float(uv @ uv)
    if length2 == 0.0:
        return np.zeros(np.shape(p)[:-1], dtype=bool)
    cross = np.abs(_cross2(p - u, uv))
    t = np.vecdot(p - u, uv) / length2
    return (cross <= tol * np.sqrt(length2)) & (1e-12 < t) & (t < 1.0 - 1e-12)


def _attach_hanging(points: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Split triangles whose edge contains a vertex missing from the
    triangulation (Qhull can emit a zero-area sliver instead of connecting
    a point that lies exactly on an edge)."""
    tris = [list(t) for t in simplices]
    used = set(int(i) for t in tris for i in t)
    for idx in range(len(points)):
        if idx in used:
            continue
        p = points[idx]
        attached = False
        t = 0
        while t < len(tris):
            a, b, c = tris[t]
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                if _point_on_segment(p, points[u], points[v]):
                    tris[t] = [u, idx, w]
                    tris.append([idx, v, w])
                    attached = True
                    break
            t += 1
        if not attached:
            raise MeshRefinementError(
                f"point {idx} missing from triangulation and not on any edge"
            )
    return np.array(tris, dtype=int)


def delaunay_triangulation(points: np.ndarray) -> np.ndarray:
    """Delaunay simplices of a point set, CCW-oriented and free of
    zero-area slivers.

    Raises if Qhull drops any input point (near-duplicate inputs should be
    deduplicated first).  Points lying exactly on an edge (e.g. boundary
    midpoints from refinement) are re-attached by splitting the containing
    triangles, so every input point is a vertex of the result.
    """
    tri = Delaunay(points)
    if len(tri.coplanar):
        raise MeshRefinementError("triangulation dropped near-duplicate points")
    simplices = _orient_ccw(points, tri.simplices)
    p = points[simplices]
    areas = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    scale2 = max(1.0, float(np.ptp(points)) ** 2)
    keep = areas > 1e-14 * scale2
    if not np.all(keep):
        simplices = _attach_hanging(points, simplices[keep])
    return simplices


def _dedup(coords: np.ndarray, tol: float) -> np.ndarray:
    """Drop every point within tol of an earlier kept point."""
    close = np.hypot(*(coords[:, None] - coords[None]).T) <= tol
    keep = np.ones(len(coords), dtype=bool)
    for j in np.nonzero(np.triu(close, 1).any(axis=0))[0]:
        keep[j] = not np.any(close[:j, j] & keep[:j])
    return coords[keep]


def _hull_segments(points: np.ndarray, hull_order) -> np.ndarray:
    """Boundary segments in hull order.  A site inside a hull edge ends a
    segment too: left inside one, it would encroach every half the segment
    is split into."""
    chain = []
    for a, b in zip(hull_order, np.roll(hull_order, -1)):
        on = np.flatnonzero(_point_on_segment(points, points[a], points[b]))
        chain += [a, *on[np.argsort(np.vecdot(points[on] - points[a], points[b] - points[a]))]]
    return np.stack([chain, np.roll(chain, -1)], axis=1)


def build_mesh(
    sites: Iterable[Location],
    min_angle: float = 20.0,
    max_edge: Optional[float] = None,
    node_budget_factor: int = 10,
) -> Mesh:
    """Triangulate the sites and refine until quality constraints hold.

    min_angle must lie in (0, 34] (the provable refinement range); max_edge
    of None disables the edge-length constraint.  Refinement inserts
    circumcenters of the worst offending triangle, falling back to the
    midpoint of the crossed boundary edge when the circumcenter leaves the
    hull, and aborts with advice once the node budget is exhausted.
    """
    sites = list(sites)
    coords = np.array([[s.x, s.y] for s in sites], dtype=float)
    if len(coords) < 3:
        raise ValueError("need at least 3 sites")
    if not (0.0 < min_angle <= 34.0):
        raise ValueError("min_angle must lie in (0, 34] degrees")
    points = _dedup(coords, _DEDUP_TOL_KM)
    if len(points) < 3:
        raise ValueError("fewer than 3 distinct sites after deduplication")
    d = points - points[0]
    cross = np.abs(d[:, 0, None] * d[None, :, 1] - d[:, 1, None] * d[None, :, 0])
    if cross.max() <= 1e-12 * max(1.0, float(np.abs(d).max()) ** 2):
        raise ValueError("all sites are collinear")
    try:
        hull = ConvexHull(points)
    except Exception as exc:  # Qhull raises on flat inputs
        raise ValueError(f"all sites are collinear ({exc})") from None
    hull_eq = hull.equations  # rows: [a, b, offset], a*x + b*y + offset <= 0 inside

    budget = node_budget_factor * len(points)
    pts = points
    segments = _hull_segments(points, hull.vertices)

    def inside_hull(p, tol=1e-9):
        return bool(np.all(hull_eq[:, :2] @ p + hull_eq[:, 2] <= tol))

    def insert(p):
        nonlocal pts
        if np.any(np.hypot(*(p - pts).T) <= _DEDUP_TOL_KM):
            raise MeshRefinementError(
                "refinement produced a duplicate node; relax min_angle or max_edge"
            )
        pts = np.vstack([pts, p])

    def split_segment(k):
        nonlocal segments
        u, v = segments[k]
        insert(0.5 * (pts[u] + pts[v]))
        new = len(pts) - 1
        segments = np.vstack([segments, [new, v]])
        segments[k, 1] = new

    def check_budget():
        if len(pts) >= budget:
            raise MeshRefinementError(
                f"mesh refinement exceeded the node budget ({budget} nodes); "
                "relax min_angle or max_edge"
            )

    triangles = delaunay_triangulation(pts)
    while True:
        # Ruppert priority 1: split the first boundary segment whose
        # diametral circle strictly contains another vertex
        enc = _encroached(pts, segments, pts)
        cols = np.arange(len(segments))
        enc[segments[:, 0], cols] = False
        enc[segments[:, 1], cols] = False
        encroached = np.flatnonzero(enc.any(axis=0))
        if len(encroached):
            check_budget()
            split_segment(encroached[0])
            triangles = delaunay_triangulation(pts)
            continue

        # priority 2: fix the worst bad triangle, keyed by
        # (angle if bad else min_angle, -longest edge), first index on ties
        ang, longest = _triangle_quality(pts, triangles)
        bad_angle = ang < min_angle - 1e-9
        bad = bad_angle
        if max_edge is not None:
            bad = bad | (longest > max_edge * (1 + 1e-12))
        candidates = np.flatnonzero(bad)
        if not len(candidates):
            break
        primary = np.where(bad_angle, ang, min_angle)[candidates]
        worst = candidates[np.lexsort((-longest[candidates], primary))[0]]
        check_budget()
        tri_pts = pts[triangles[worst]]
        c = _circumcenter(tri_pts)
        hit = np.flatnonzero(_encroached(c[None], segments, pts)[0])
        if not len(hit) and not inside_hull(c):
            # grazing case: fall back to the boundary segments crossed by
            # the centroid-to-circumcenter segment
            g = tri_pts.mean(axis=0)
            va, vb = pts[segments[:, 0]], pts[segments[:, 1]]
            d1 = _cross2(c - g, va - g)
            d2 = _cross2(c - g, vb - g)
            d3 = _cross2(vb - va, g - va)
            d4 = _cross2(vb - va, c - va)
            hit = np.flatnonzero((d1 * d2 <= 0) & (d3 * d4 <= 0))
        if len(hit):
            # the circumcenter would encroach (or escape) the boundary:
            # split those segments instead of inserting it
            for k in hit[::-1]:
                check_budget()
                split_segment(k)
        else:
            insert(c)
        triangles = delaunay_triangulation(pts)

    return Mesh(pts, triangles, _boundary_edges(triangles))


def locate(mesh: Mesh, point) -> Optional[tuple]:
    """Containing triangle and barycentric weights of a point, or None if
    the point lies outside the hull.  Ties on shared edges resolve to the
    lowest triangle index."""
    p = np.asarray(point, dtype=float)
    w = mesh.bary_transform() @ np.array([p[0], p[1], 1.0])
    hits = np.nonzero(np.all(w >= -1e-12, axis=1))[0]
    if len(hits):
        t = int(hits[0])
    else:
        # the (x, y, 1) inverse of a small triangle far from the origin can
        # round a point on its edge a little past -1e-12
        t = int(np.argmax(w.min(axis=1)))
        if w[t].min() < -1e-9:
            return None
    weights = np.clip(w[t], 0.0, None)
    weights /= weights.sum()
    return t, weights


def projector(mesh: Mesh, points) -> Projector:
    """Basis-evaluation matrix for a list of query points.

    Every point must lie inside or on the convex hull; offenders are
    reported by index.  Row i reproduces any affine function exactly from
    its vertex values.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows, cols, vals = [], [], []
    outside = []
    for i, p in enumerate(pts):
        hit = locate(mesh, p)
        if hit is None:
            outside.append(i)
            continue
        t, w = hit
        for local, k in enumerate(mesh.triangles[t]):
            if w[local] > 0.0:
                rows.append(i)
                cols.append(int(k))
                vals.append(float(w[local]))
    if outside:
        raise ValueError(f"points outside the mesh hull at indices {outside}")
    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(pts), mesh.n_vertices)
    )
    return Projector(matrix)
