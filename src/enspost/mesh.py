"""Triangulations of the station domain and piecewise-linear basis evaluation.

The mesh uses the input sites as initial nodes and inserts circumcenters
(Ruppert style) until every triangle meets the minimum-angle and
maximum-edge constraints.  The domain is never extended: refinement points
stay inside the convex hull of the inputs, with hull-edge midpoints used
when a circumcenter would fall outside.
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
        return np.array([triangle_min_angle(self.vertices[t]) for t in self.triangles])

    def bary_transform(self) -> np.ndarray:
        """Per-triangle 3x3 maps from (x, y, 1) to barycentric weights."""
        if self._bary_transform is None:
            T = len(self.triangles)
            mats = np.empty((T, 3, 3))
            for t, tri in enumerate(self.triangles):
                a, b, c = self.vertices[tri]
                M = np.array([[a[0], b[0], c[0]], [a[1], b[1], c[1]], [1.0, 1.0, 1.0]])
                mats[t] = np.linalg.inv(M)
            self._bary_transform = mats
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


def triangle_min_angle(pts: np.ndarray) -> float:
    """Smallest interior angle of a triangle in degrees."""
    angles = []
    for i in range(3):
        u = pts[(i + 1) % 3] - pts[i]
        v = pts[(i + 2) % 3] - pts[i]
        cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(min(angles))


def _circumcenter(pts: np.ndarray) -> np.ndarray:
    a, b, c = pts
    d = 2.0 * _cross2(b - a, c - a)
    if abs(d) < 1e-300:
        raise MeshRefinementError("degenerate triangle in refinement")
    ux = ((np.dot(b - a, b - a)) * (c - a)[1] - (np.dot(c - a, c - a)) * (b - a)[1]) / d
    uy = ((np.dot(c - a, c - a)) * (b - a)[0] - (np.dot(b - a, b - a)) * (c - a)[0]) / d
    return a + np.array([ux, uy])


def _boundary_edges(triangles: np.ndarray) -> np.ndarray:
    seen: dict = {}
    for tri in triangles:
        for i in range(3):
            e = (int(tri[i]), int(tri[(i + 1) % 3]))
            key = (min(e), max(e))
            seen[key] = seen.get(key, 0) + 1
    return np.array(sorted(k for k, count in seen.items() if count == 1), dtype=int).reshape(-1, 2)


def _orient_ccw(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p = vertices[triangles]
    flip = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) < 0
    out = triangles.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _point_on_segment(p, u, v, tol=1e-9):
    uv = v - u
    length2 = float(uv @ uv)
    if length2 == 0.0:
        return False
    cross = abs(_cross2(p - u, uv))
    if cross > tol * np.sqrt(length2):
        return False
    t = float((p - u) @ uv) / length2
    return 1e-12 < t < 1.0 - 1e-12


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
    kept: list = []
    for p in coords:
        if not any(np.hypot(*(p - q)) <= tol for q in kept):
            kept.append(p)
    return np.array(kept)


def _segment_crossing(g: np.ndarray, c: np.ndarray, va: np.ndarray, vb: np.ndarray) -> bool:
    """Does segment g->c cross segment va->vb (proper or touching)?"""
    d1 = _cross2(c - g, va - g)
    d2 = _cross2(c - g, vb - g)
    d3 = _cross2(vb - va, g - va)
    d4 = _cross2(vb - va, c - va)
    return (d1 * d2 <= 0) and (d3 * d4 <= 0)


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
    pts = [p for p in points]
    hull_order = list(hull.vertices)
    segments = [
        (hull_order[i], hull_order[(i + 1) % len(hull_order)])
        for i in range(len(hull_order))
    ]

    def inside_hull(p, tol=1e-9):
        return bool(np.all(hull_eq[:, :2] @ p + hull_eq[:, 2] <= tol))

    def encroaches(p, seg, arr):
        u, v = arr[seg[0]], arr[seg[1]]
        mid = 0.5 * (u + v)
        r2 = 0.25 * float((v - u) @ (v - u))
        d2 = float((p - mid) @ (p - mid))
        return d2 < r2 * (1.0 - 1e-12)

    def split_segment(k):
        u, v = segments[k]
        mid = 0.5 * (np.asarray(pts[u]) + np.asarray(pts[v]))
        if any(np.hypot(*(mid - q)) <= _DEDUP_TOL_KM for q in pts):
            raise MeshRefinementError(
                "refinement produced a duplicate node; relax min_angle or max_edge"
            )
        new = len(pts)
        pts.append(mid)
        segments[k] = (u, new)
        segments.append((new, v))

    def check_budget():
        if len(pts) >= budget:
            raise MeshRefinementError(
                f"mesh refinement exceeded the node budget ({budget} nodes); "
                "relax min_angle or max_edge"
            )

    triangles = delaunay_triangulation(np.array(pts))
    while True:
        arr = np.array(pts)
        # Ruppert priority 1: split any boundary segment whose diametral
        # circle strictly contains another vertex
        encroached = None
        for k, (u, v) in enumerate(segments):
            for w in range(len(arr)):
                if w != u and w != v and encroaches(arr[w], (u, v), arr):
                    encroached = k
                    break
            if encroached is not None:
                break
        if encroached is not None:
            check_budget()
            split_segment(encroached)
            triangles = delaunay_triangulation(np.array(pts))
            continue

        # priority 2: fix the worst bad triangle
        worst = None
        worst_key = None
        for t, tri in enumerate(triangles):
            p = arr[tri]
            ang = triangle_min_angle(p)
            edges = [np.linalg.norm(p[(i + 1) % 3] - p[i]) for i in range(3)]
            bad_angle = ang < min_angle - 1e-9
            bad_edge = max_edge is not None and max(edges) > max_edge * (1 + 1e-12)
            if bad_angle or bad_edge:
                key = (ang if bad_angle else min_angle, -max(edges))
                if worst_key is None or key < worst_key:
                    worst_key = key
                    worst = t
        if worst is None:
            break
        check_budget()
        tri_pts = arr[triangles[worst]]
        c = _circumcenter(tri_pts)
        hit = [k for k in range(len(segments)) if encroaches(c, segments[k], arr)]
        if not hit and not inside_hull(c):
            # grazing case: fall back to the boundary segment crossed by the
            # centroid-to-circumcenter ray
            g = tri_pts.mean(axis=0)
            hit = [
                k
                for k, (i, j) in enumerate(segments)
                if _segment_crossing(g, c, arr[i], arr[j])
            ]
        if hit:
            # the circumcenter would encroach (or escape) the boundary:
            # split those segments instead of inserting it
            for k in sorted(hit, reverse=True):
                check_budget()
                split_segment(k)
        else:
            if any(np.hypot(*(c - q)) <= _DEDUP_TOL_KM for q in pts):
                raise MeshRefinementError(
                    "refinement produced a duplicate node; relax min_angle or max_edge"
                )
            pts.append(c)
        triangles = delaunay_triangulation(np.array(pts))

    vertices = np.array(pts)
    return Mesh(vertices, triangles, _boundary_edges(triangles))


def locate(mesh: Mesh, point) -> Optional[tuple]:
    """Containing triangle and barycentric weights of a point, or None if
    the point lies outside the hull.  Ties on shared edges resolve to the
    lowest triangle index."""
    p = np.asarray(point, dtype=float)
    w = mesh.bary_transform() @ np.array([p[0], p[1], 1.0])
    ok = np.all(w >= -1e-12, axis=1)
    hits = np.nonzero(ok)[0]
    if len(hits) == 0:
        return None
    t = int(hits[0])
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
